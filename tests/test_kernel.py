import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from obliqueproj import (
    DimensionMismatch,
    NotContained,
    NotPsd,
    PsdOperator,
    Tolerance,
    complement,
    contains,
    intersect,
    moore_penrose,
    nullspace_of,
    numerical_rank,
    preimage,
    subspace_equal,
    subspace_from_span,
    subspace_sum,
    subtract,
)
from support import (
    friedrichs_angle,
    intersection_by_nullspace,
    make_psd,
    make_subspace,
    ortho_projector,
    singular_values_by_eig,
)

E1 = np.array([[1.0], [0.0]])
E2 = np.array([[0.0], [1.0]])


def span(*cols):
    return subspace_from_span(np.column_stack([np.asarray(c, dtype=float) for c in cols]))


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.rank_rel == 1e-10 and tol.eq_abs == 1e-8 and tol.psd_neg == 1e-10

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1e-3, 2.0])
    def test_bounds_enforced(self, bad):
        with pytest.raises(ValueError):
            Tolerance(rank_rel=bad)


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3)) == 3

    def test_zero(self):
        assert numerical_rank(np.zeros((2, 2))) == 0

    def test_rank_one(self):
        m = np.ones((2, 2))
        # oracle: singular values from an independent eigen-solver are {2, 0}
        s = singular_values_by_eig(m)
        np.testing.assert_allclose(s, [2.0, 0.0], atol=1e-12)
        assert numerical_rank(m) == 1

    def test_tie_is_included(self):
        # a singular value sitting exactly at the cutoff counts toward the rank
        tol = Tolerance(rank_rel=0.5)
        assert numerical_rank(np.diag([2.0, 1.0]), tol) == 2
        assert numerical_rank(np.diag([2.0, 0.999]), tol) == 1


class TestSubspaceFromSpan:
    def test_duplicate_column(self):
        s = span([1, 0], [1, 0])
        assert s.dim == 1
        assert contains(s, span([1, 0]))

    def test_empty(self):
        s = subspace_from_span(np.zeros((2, 0)))
        assert s.dim == 0 and s.ambient_dim == 2

    def test_full_plane(self):
        vecs = np.array([[1.0, 1.0], [1.0, -1.0]])
        assert np.linalg.matrix_rank(vecs) == 2  # oracle
        assert subspace_from_span(vecs).dim == 2

    def test_orthonormal_basis(self):
        s = span([3, 4], [1, 1])
        np.testing.assert_allclose(s.basis.T @ s.basis, np.eye(s.dim), atol=1e-12)


class TestComplement:
    def test_axis(self):
        assert subspace_equal(complement(span([1, 0])), span([0, 1]))

    def test_full_space(self):
        assert complement(span([1, 0], [0, 1])).dim == 0

    def test_diagonal_line(self):
        c = complement(span([1, 1]))
        # oracle: every returned column orthogonal to the input
        assert abs(c.basis[:, 0] @ np.array([1.0, 1.0]) / np.sqrt(2)) < 1e-12
        assert subspace_equal(c, span([1, -1]))


class TestIntersect:
    def test_self(self):
        s = span([1, 2], [0, 1])
        assert subspace_equal(intersect(s, s), s)

    def test_axes(self):
        assert intersect(span([1, 0]), span([0, 1])).dim == 0

    def test_plane_overlap(self):
        s1 = subspace_from_span(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        s2 = subspace_from_span(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        got = intersect(s1, s2)
        # oracle: solve for common vectors through the stacked nullspace
        common = intersection_by_nullspace(s1.basis, s2.basis)
        expected = subspace_from_span(common)
        assert subspace_equal(got, expected)
        assert subspace_equal(got, subspace_from_span(np.array([[0.0], [1.0], [0.0]])))

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatch):
            intersect(span([1, 0]), subspace_from_span(np.eye(3)))


class TestSubspaceSum:
    def test_with_zero(self):
        s = span([1, 2])
        zero = subspace_from_span(np.zeros((2, 0)))
        assert subspace_equal(subspace_sum(s, zero), s)

    def test_axes_fill_plane(self):
        assert subspace_sum(span([1, 0]), span([0, 1])).dim == 2

    def test_diagonals_fill_plane(self):
        stacked = np.array([[1.0, 1.0], [1.0, -1.0]])
        assert np.linalg.matrix_rank(stacked) == 2  # oracle
        assert subspace_sum(span([1, 1]), span([1, -1])).dim == 2


class TestSubtract:
    def test_minus_zero(self):
        s = span([1, 1])
        zero = subspace_from_span(np.zeros((2, 0)))
        assert subspace_equal(subtract(s, zero), s)

    def test_minus_self(self):
        s = span([1, 1])
        assert subtract(s, s).dim == 0

    def test_orthogonal_split(self):
        s12 = subspace_from_span(np.eye(3)[:, :2])
        got = subtract(s12, subspace_from_span(np.eye(3)[:, :1]))
        assert subspace_equal(got, subspace_from_span(np.eye(3)[:, 1:2]))

    def test_not_contained(self):
        with pytest.raises(NotContained):
            subtract(span([1, 0]), span([0, 1]))


class TestPreimage:
    def test_identity(self):
        s = span([1, 2])
        assert subspace_equal(preimage(np.eye(2), s), s)

    def test_zero_map(self):
        assert preimage(np.zeros((2, 2)), span([1, 0])).dim == 2

    def test_partial(self):
        w = np.diag([1.0, 0.0])
        got = preimage(w, span([0, 1]))
        # oracle: brute force over the coordinate basis vectors
        e1_in = np.allclose((np.eye(2) - span([0, 1]).projector()) @ w @ [1, 0], 0)
        e2_in = np.allclose((np.eye(2) - span([0, 1]).projector()) @ w @ [0, 1], 0)
        assert (e1_in, e2_in) == (False, True)
        assert subspace_equal(got, span([0, 1]))

    def test_contains_nullspace(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            w = rng.normal(size=(n, n))
            s = make_subspace(rng, n, int(rng.integers(0, n + 1)))
            assert contains(preimage(w, s), nullspace_of(w))

    def test_rank_nullity(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            w = rng.normal(size=(n, n))
            s = make_subspace(rng, n, int(rng.integers(0, n + 1)))
            blocker = complement(s).projector() @ w
            assert preimage(w, s).dim == n - np.linalg.matrix_rank(blocker, tol=1e-10)


class TestOrthoProjector:
    def test_axis(self):
        np.testing.assert_allclose(ortho_projector(span([1, 0])).matrix, np.diag([1.0, 0.0]))

    def test_full(self):
        np.testing.assert_allclose(ortho_projector(span([1, 0], [0, 1])).matrix, np.eye(2))

    def test_diagonal_line(self):
        expected = np.full((2, 2), 0.5)  # oracle: basis @ basis.T by hand
        np.testing.assert_allclose(ortho_projector(span([1, 1])).matrix, expected, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 5), st.integers(0, 2**32 - 1))
    def test_projector_laws(self, n, k, seed):
        s = make_subspace(np.random.default_rng(seed), n, min(k, n))
        p = ortho_projector(s).matrix
        assert np.linalg.norm(p @ p - p) < 1e-10
        assert np.linalg.norm(p - p.T) < 1e-12
        assert abs(np.trace(p) - s.dim) < 1e-10


class TestMoorePenrose:
    def test_identity(self):
        np.testing.assert_allclose(moore_penrose(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        np.testing.assert_allclose(moore_penrose(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_rank_one(self):
        got = moore_penrose(np.ones((2, 2)))
        np.testing.assert_allclose(got, np.full((2, 2), 0.25), atol=1e-12)
        # oracle: the four Penrose identities, checked numerically
        w = np.ones((2, 2))
        assert np.allclose(w @ got @ w, w)
        assert np.allclose(got @ w @ got, got)
        assert np.allclose((w @ got).T, w @ got)
        assert np.allclose((got @ w).T, got @ w)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_penrose_identities_random(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(rows, cols))
        pinv = moore_penrose(w)
        bound = 10 * 1e-8
        assert np.linalg.norm(w @ pinv @ w - w) < bound
        assert np.linalg.norm(pinv @ w @ pinv - pinv) < bound
        assert np.linalg.norm((w @ pinv).T - w @ pinv) < bound
        assert np.linalg.norm((pinv @ w).T - pinv @ w) < bound

    def test_against_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = rng.normal(size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            np.testing.assert_allclose(moore_penrose(w), scipy.linalg.pinv(w), atol=1e-9)

    def test_projector_characterization(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(5, 3)) @ rng.normal(size=(3, 6))  # rank 3
        pinv = moore_penrose(w)
        np.testing.assert_allclose(w @ pinv, scipy.linalg.orth(w) @ scipy.linalg.orth(w).T, atol=1e-9)
        np.testing.assert_allclose(pinv @ w, scipy.linalg.orth(w.T) @ scipy.linalg.orth(w.T).T, atol=1e-9)


class TestFriedrichsAngle:
    def test_orthogonal(self):
        assert friedrichs_angle(span([1, 0]), span([0, 1])) == 0.0

    def test_equal_subspaces(self):
        s = span([1, 2])
        assert friedrichs_angle(s, s) == 0.0

    def test_diagonal_vs_axis(self):
        s1, s2 = span([1, 0]), span([1, 1])
        got = friedrichs_angle(s1, s2)
        # oracle: direct maximization of <x, y> over unit vectors of each span
        # (both are lines, so the unit vectors are +-basis)
        best = abs(float(s1.basis[:, 0] @ s2.basis[:, 0]))
        assert abs(got - best) < 1e-12
        assert abs(got - 1 / np.sqrt(2)) < 1e-12

    def test_against_scipy_principal_angles(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            s1 = make_subspace(rng, n, int(rng.integers(1, n + 1)))
            s2 = make_subspace(rng, n, int(rng.integers(1, n + 1)))
            if intersect(s1, s2).dim:
                continue  # scipy keeps intersection angles; compare on trivial meets
            angles = scipy.linalg.subspace_angles(s1.basis, s2.basis)
            np.testing.assert_allclose(friedrichs_angle(s1, s2), np.cos(angles.min()), atol=1e-9)


class TestDeMorgan:
    def test_complement_of_sum(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            s1 = make_subspace(rng, n, int(rng.integers(0, n + 1)))
            s2 = make_subspace(rng, n, int(rng.integers(0, n + 1)))
            lhs = complement(subspace_sum(s1, s2))
            rhs = intersect(complement(s1), complement(s2))
            assert subspace_equal(lhs, rhs)


class TestPsdOperator:
    def test_spectral_cache_invariants(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            a = make_psd(rng, n, int(rng.integers(0, n + 1)))
            np.testing.assert_allclose(a.sqrt @ a.sqrt, a.base, atol=1e-10)
            np.testing.assert_allclose(a.base @ a.pinv @ a.base, a.base, atol=1e-10)
            np.testing.assert_allclose(a.eigvecs.T @ a.eigvecs, np.eye(n), atol=1e-12)
            assert np.all(a.eigvals >= 0) and np.all(np.diff(a.eigvals) <= 1e-15)
            # range of the operator equals range of its square root
            assert subspace_equal(a.range_subspace, subspace_from_span(a.sqrt))

    def test_rejects_negative(self):
        with pytest.raises(NotPsd):
            PsdOperator.from_matrix(-np.eye(2))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotPsd):
            PsdOperator.from_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_clips_roundoff_negatives(self):
        a = PsdOperator.from_matrix(np.diag([1.0, -1e-12]))
        assert a.eigvals[-1] == 0.0 and a.rank == 1

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PsdOperator.from_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestEqualityHelpers:
    def test_basis_independence(self):
        s1 = span([1, 1])
        s2 = span([-2, -2])
        assert subspace_equal(s1, s2)
        assert contains(s1, s2) and contains(s2, s1)

    def test_strictness(self):
        assert not subspace_equal(span([1, 0]), span([1, 1]))


class TestProjectionCertificates:
    def test_verify_accepts_valid(self):
        assert ortho_projector(span([1, 1])).verify()

    def test_verify_rejects_broken(self):
        from obliqueproj import ObliqueProjection

        broken = ObliqueProjection(np.full((2, 2), 0.3), span([1, 0]), span([0, 1]))
        assert not broken.verify()
