"""The principal-angle subspace kernel and the eigenvector-read pair geometry,
checked against the SVD constructions of ``support`` on subspaces up to n = 64."""

import numpy as np
import pytest

from obliqueproj import (
    DEFAULT_TOL,
    PsdOperator,
    Subspace,
    Tolerance,
    compatibility_diagnostics,
    complement,
    degenerate_overlap,
    intersect,
    range_space_projection,
    subspace_equal,
    subspace_from_span,
    weighted_projection,
    weighted_projection_pinv,
)
from support import (
    complement_by_svd,
    intersect_by_complements,
    make_overlapping_pair,
    make_psd,
    make_subspace,
    preimage,
    preimage_by_projector,
    rotated_pair,
    subtract,
    subtract_by_complements,
)

SIZES = (2, 3, 5, 8, 16, 32, 64)
CUTOFF = 2 * DEFAULT_TOL.rank_rel  # sine below which two directions meet


def shared_pair(rng, n):
    """Two random subspaces of R^n with a random number of common directions."""
    meet = int(rng.integers(0, n + 1))
    extra1 = int(rng.integers(0, n - meet + 1))
    extra2 = int(rng.integers(0, n - meet + 1))
    common = rng.normal(size=(n, meet))
    s1 = subspace_from_span(np.hstack([common, rng.normal(size=(n, extra1))]))
    s2 = subspace_from_span(np.hstack([common, rng.normal(size=(n, extra2))]))
    return s1, s2


class TestComplementOracle:
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_svd_complement(self, n):
        rng = np.random.default_rng(100 + n)
        for k in sorted({0, 1, n // 2, n - 1, n}):
            s = make_subspace(rng, n, k)
            got = complement(s)
            assert got.dim == n - k
            np.testing.assert_allclose(got.basis.T @ got.basis, np.eye(n - k), atol=1e-12)
            assert np.linalg.norm(s.basis.T @ got.basis) < 1e-12
            assert subspace_equal(got, complement_by_svd(s))


class TestIntersectOracle:
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_complement_of_sum(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(6):
            s1, s2 = shared_pair(rng, n)
            got = intersect(s1, s2)
            expected = intersect_by_complements(s1, s2)
            assert got.dim == expected.dim
            assert subspace_equal(got, expected)
            assert subspace_equal(intersect(s2, s1), expected)

    @pytest.mark.parametrize("n", SIZES[1:])
    @pytest.mark.parametrize("factor, meets", [(0.25, True), (4.0, False)])
    def test_rotation_around_the_cutoff(self, n, factor, meets):
        # Above the cutoff the tilted direction must be told apart from the
        # shared ones, which differ from it in sine by only 4 * CUTOFF; the
        # split is then resolved to about eps / (4 * CUTOFF) ~ 3e-7 by any
        # method, so the bound there is 1e-5 instead of eq_abs * n.
        rng = np.random.default_rng(300 + n)
        bound = DEFAULT_TOL.eq_abs * n if meets else 1e-5
        for _ in range(4):
            k1 = int(rng.integers(1, n))
            meet = int(rng.integers(0, k1))
            k2 = int(rng.integers(meet + 1, n - k1 + meet + 1))
            s1, s2 = rotated_pair(rng, n, k1, k2, meet, factor * CUTOFF)
            truth = s1.basis[:, : meet + meets]  # the shared columns, then the tilted one
            for got in (intersect(s1, s2), intersect_by_complements(s1, s2)):
                assert got.dim == meet + meets
                assert np.linalg.norm(got.projector() - truth @ truth.T) <= bound


class TestPreimageOracle:
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_projector_construction(self, n):
        rng = np.random.default_rng(400 + n)
        for _ in range(6):
            rank = int(rng.integers(0, n + 1))
            w = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, n))
            s = make_subspace(rng, n, int(rng.integers(0, n + 1)))
            got = preimage(w, s)
            expected = preimage_by_projector(w, s)
            assert got.dim == expected.dim
            assert subspace_equal(got, expected)

    @pytest.mark.parametrize("n", SIZES)
    def test_invariant_subspace(self, n):
        # W maps the preimage of its own image back onto it; the product
        # cancels to roundoff there, and the anchored cutoff must see that
        rng = np.random.default_rng(500 + n)
        weight = make_psd(rng, n, int(rng.integers(1, n + 1)))
        s = subspace_from_span(weight.base @ rng.normal(size=(n, max(1, n // 3))))
        got = preimage(weight.base, s)
        assert got.dim == preimage_by_projector(weight.base, s).dim
        assert subspace_equal(got, preimage_by_projector(weight.base, s))


class TestSubtractOracle:
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_reference(self, n):
        rng = np.random.default_rng(600 + n)
        for _ in range(6):
            s = make_subspace(rng, n, int(rng.integers(0, n + 1)))
            inner = subspace_from_span(s.basis @ rng.normal(size=(s.dim, int(rng.integers(0, s.dim + 1)))))
            got = subtract(s, inner)
            assert got.dim == s.dim - inner.dim
            assert subspace_equal(got, subtract_by_complements(s, inner))


class TestPairGeometry:
    @pytest.mark.parametrize("n", SIZES)
    def test_builder_matches_generic_kernel(self, n):
        rng = np.random.default_rng(700 + n)
        for _ in range(4):
            rank = int(rng.integers(0, n + 1))
            k = int(rng.integers(0, n + 1))
            overlap = int(rng.integers(max(0, k - rank), min(k, n - rank) + 1))
            weight, span = make_overlapping_pair(rng, n, rank, k, overlap)
            report = compatibility_diagnostics(weight, span)
            pre = preimage(weight.base, complement(span))
            meet = intersect(span, weight.null_subspace)
            assert report.degenerate.dim == meet.dim == overlap
            assert subspace_equal(report.degenerate, meet)
            assert subspace_equal(degenerate_overlap(weight, span), meet)
            assert subspace_equal(report.preimage_of_complement, pre)
            assert subspace_equal(report.projection.nullspace, subtract(pre, meet))
            # the reference kernel gives the same subspaces
            assert subspace_equal(pre, preimage_by_projector(weight.base, complement_by_svd(span)))
            assert subspace_equal(meet, intersect_by_complements(span, weight.null_subspace))

    @pytest.mark.parametrize("n, seed", [(32, 1), (48, 2), (64, 3), (96, 4), (128, 5)])
    def test_agrees_with_pinv_construction(self, n, seed):
        rng = np.random.default_rng(800 + seed)
        rank, k = n // 2, n // 3
        weight, span = make_overlapping_pair(rng, n, rank, k, n // 8)
        proj = weighted_projection(weight, span)
        gap = np.linalg.norm(proj.matrix - weighted_projection_pinv(weight, span).matrix)
        assert gap <= 10 * DEFAULT_TOL.eq_abs
        assert proj.verify()
        assert proj.nullspace.dim == n - k


class TestAngleCutoff:
    def test_tie_is_kept_apart(self):
        # The residual of the tilted line against the axis is exactly (0, 1/2),
        # so its sine sits exactly at the cutoff 2 * rank_rel = 1/2: like a
        # singular value at a rank cutoff, it counts as a separate direction.
        tilted = Subspace(2, np.array([[np.sqrt(0.75)], [0.5]]))
        axis = Subspace(2, np.array([[1.0], [0.0]]))
        assert intersect(tilted, axis, Tolerance(rank_rel=0.25)).dim == 0
        assert intersect(tilted, axis, Tolerance(rank_rel=0.2500001)).dim == 1

    def test_tie_is_kept_apart_by_the_pair_geometry(self):
        # A = diag(1, 0) and S = span((1/2, sqrt(3/4))): C = V_r^T B_S is
        # exactly (1/2), the sine of the angle between S and N(A), and also
        # between S^perp and R(A).  At the cutoff both meets stay trivial.
        weight = PsdOperator.from_matrix(np.diag([1.0, 0.0]))
        span = Subspace(2, np.array([[0.5], [np.sqrt(0.75)]]))
        for rank_rel, meet in ((0.25, 0), (0.2500001, 1)):
            tol = Tolerance(rank_rel=rank_rel)
            assert degenerate_overlap(weight, span, tol).dim == meet
            # S^perp ∩ R(A) in the coordinates of R(A)
            assert range_space_projection(weight, span, tol)._perp_in_range.shape == (1, meet)
