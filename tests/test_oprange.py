import json

import numpy as np
import pytest

from obliqueproj import (
    NotExtendable,
    NotInRange,
    PsdOperator,
    WeightMismatch,
    chart_basis,
    chart_coords,
    chart_extension,
    chart_image,
    chart_projected_range,
    cli,
    complement,
    degenerate_overlap,
    extension_matches_projection,
    in_weight_range,
    intersect,
    io,
    is_chart_extendable,
    is_compatible,
    lift,
    projection_family_member,
    range_inclusion,
    range_inner,
    range_norm,
    range_space_projection,
    subspace_equal,
    subspace_from_span,
    unchart,
    weighted_projection,
    induced_projection,
)
from support import (
    in_sqrt_range_by_pinv,
    make_pair,
    make_psd,
    make_subspace,
    nullspace_preserving,
    random_orthogonal,
)

RANK1 = PsdOperator.from_matrix(np.ones((2, 2)))
DEGENERATE = PsdOperator.from_matrix(np.diag([0.0, 1.0]))
SPAN_E1 = subspace_from_span(np.array([[1.0], [0.0]]))


class TestLift:
    def test_identity_weight(self):
        weight = PsdOperator.from_matrix(np.eye(3))
        u = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(lift(weight, u).witness, u)

    def test_diagonal_witness(self):
        weight = PsdOperator.from_matrix(np.diag([4.0, 0.0]))
        rv = lift(weight, [2.0, 0.0])
        np.testing.assert_allclose(rv.witness, [1.0, 0.0], atol=1e-12)

    def test_not_in_range(self):
        weight = PsdOperator.from_matrix(np.diag([4.0, 0.0]))
        with pytest.raises(NotInRange):
            lift(weight, [0.0, 1.0])

    def test_witness_certificates(self):
        rng = np.random.default_rng(51)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            weight = make_psd(rng, n, int(rng.integers(1, n + 1)))
            u = weight.base @ rng.normal(size=n)
            rv = lift(weight, u)
            np.testing.assert_allclose(weight.sqrt @ rv.witness, u, atol=1e-9 * (1 + np.linalg.norm(u)))
            assert np.linalg.norm(weight.null_subspace.basis.T @ rv.witness) < 1e-9

    def test_membership_tests_agree(self):
        rng = np.random.default_rng(52)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            weight = make_psd(rng, n, int(rng.integers(0, n + 1)))
            inside = weight.base @ rng.normal(size=n)
            outside = rng.normal(size=n)
            for u in (inside, outside):
                assert in_weight_range(weight, u) == in_sqrt_range_by_pinv(weight, u)


class TestRangeInner:
    def test_identity_weight(self):
        weight = PsdOperator.from_matrix(np.eye(2))
        x, y = lift(weight, [1.0, 2.0]), lift(weight, [3.0, -1.0])
        assert range_inner(x, y) == pytest.approx(1.0)

    def test_diagonal(self):
        weight = PsdOperator.from_matrix(np.diag([4.0, 0.0]))
        rv = lift(weight, [2.0, 0.0])
        assert range_inner(rv, rv) == pytest.approx(1.0)

    def test_isometry(self):
        # pushing two vectors through the weight turns the range inner
        # product into the plain weighted pairing
        rng = np.random.default_rng(53)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            weight = make_psd(rng, n, int(rng.integers(0, n + 1)))
            x, y = rng.normal(size=n), rng.normal(size=n)
            lhs = range_inner(lift(weight, weight.base @ x), lift(weight, weight.base @ y))
            rhs = x @ weight.base @ y
            assert lhs == pytest.approx(rhs, abs=1e-8 * (1 + abs(rhs)))

    def test_weight_mismatch(self):
        w1 = PsdOperator.from_matrix(np.eye(2))
        w2 = PsdOperator.from_matrix(2 * np.eye(2))
        with pytest.raises(WeightMismatch):
            range_inner(lift(w1, [1.0, 0.0]), lift(w2, [1.0, 0.0]))

    def test_minimal_norm_over_preimages(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            weight = make_psd(rng, n, int(rng.integers(1, n)))
            u = weight.base @ rng.normal(size=n)
            rv = lift(weight, u)
            for _ in range(25):
                noise = weight.null_subspace.basis @ rng.normal(size=n - weight.rank)
                candidate = rv.witness + noise
                np.testing.assert_allclose(weight.sqrt @ candidate, u, atol=1e-9 * (1 + np.linalg.norm(u)))
                assert range_norm(rv) <= np.linalg.norm(candidate) + 1e-8
                if np.linalg.norm(noise) > 1e-6:
                    assert range_norm(rv) < np.linalg.norm(candidate)

    def test_norm_equivalence_with_graph_inner_product(self):
        # the graph-style inner product <u,v> + <w_u,w_v> is equivalent to
        # the range one, with constant sqrt(||sqrt||^2 + 1)
        rng = np.random.default_rng(55)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            weight = make_psd(rng, n, int(rng.integers(1, n + 1)))
            u = weight.base @ rng.normal(size=n)
            rv = lift(weight, u)
            prime = np.sqrt(np.linalg.norm(u) ** 2 + range_norm(rv) ** 2)
            upper = np.sqrt(np.linalg.norm(weight.sqrt, 2) ** 2 + 1.0) * range_norm(rv)
            assert range_norm(rv) <= prime + 1e-12
            assert prime <= upper + 1e-8


class TestCoisometry:
    def test_chart_norm_matches_projected_norm(self):
        rng = np.random.default_rng(56)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            weight = make_psd(rng, n, int(rng.integers(1, n + 1)))
            x = rng.normal(size=n)
            u = weight.sqrt @ x
            coords = chart_basis(weight).T @ lift(weight, u).witness
            projected = weight.range_proj @ x
            assert np.linalg.norm(coords) == pytest.approx(np.linalg.norm(projected), abs=1e-8)
            # consequently the pushed-forward norm is the weighted seminorm
            quad = float(x @ weight.base @ x)
            assert range_norm(lift(weight, weight.base @ x)) == pytest.approx(
                np.sqrt(max(quad, 0.0)), abs=1e-8
            )

    def test_chart_round_trip(self):
        rng = np.random.default_rng(68)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            weight = make_psd(rng, n, int(rng.integers(1, n + 1)))
            u = weight.base @ rng.normal(size=n)
            coords = chart_coords(weight, u)
            np.testing.assert_allclose(unchart(weight, coords), u, atol=1e-9 * (1 + np.linalg.norm(u)))


class TestRangeSpaceProjection:
    def test_identity_weight(self):
        weight = PsdOperator.from_matrix(np.eye(2))
        proj = range_space_projection(weight, SPAN_E1)
        chart_target = chart_image(weight, SPAN_E1.basis)
        np.testing.assert_allclose(proj.coord_matrix, chart_target.projector(), atol=1e-10)
        assert proj.range_image.dim == 1

    def test_zero_image(self):
        proj = range_space_projection(DEGENERATE, SPAN_E1)
        np.testing.assert_allclose(proj.coord_matrix, np.zeros((1, 1)))
        assert proj.range_image.dim == 0

    def test_full_chart(self):
        proj = range_space_projection(RANK1, SPAN_E1)
        # oracle: the sqrt image of S spans the whole 1-dimensional chart
        assert subspace_from_span(RANK1.sqrt @ SPAN_E1.basis).dim == RANK1.rank == 1
        np.testing.assert_allclose(proj.coord_matrix, np.eye(1), atol=1e-12)

    def test_symmetric_idempotent_with_correct_action(self):
        rng = np.random.default_rng(57)
        for _ in range(25):
            weight, span = make_pair(rng)
            proj = range_space_projection(weight, span)
            cm = proj.coord_matrix
            assert np.linalg.norm(cm @ cm - cm) < 1e-10
            assert np.linalg.norm(cm - cm.T) < 1e-12
            assert intersect(proj.null_image, proj.range_image).dim == 0
            # fixes the image of S pointwise, kills S-perp inside the range
            image_coords = chart_basis(weight).T @ (weight.sqrt @ span.basis)
            np.testing.assert_allclose(cm @ image_coords, image_coords, atol=1e-9)
            perp_meet_range = intersect(complement(span), weight.range_subspace)
            perp_chart = chart_image(weight, perp_meet_range.basis)
            np.testing.assert_allclose(cm @ perp_chart.basis, 0 * perp_chart.basis, atol=1e-8)

    def test_apply_lands_in_image(self):
        rng = np.random.default_rng(58)
        for _ in range(20):
            weight, span = make_pair(rng)
            proj = range_space_projection(weight, span)
            rv = lift(weight, weight.base @ rng.normal(size=weight.dim))
            out = proj.apply(rv)
            coords = chart_basis(weight).T @ out.witness
            np.testing.assert_allclose(proj.coord_matrix @ coords, coords, atol=1e-9)
            # idempotent action
            again = proj.apply(out)
            np.testing.assert_allclose(again.ambient, out.ambient, atol=1e-9)


class TestChartExtension:
    def test_identity_operator(self):
        rng = np.random.default_rng(59)
        weight = make_psd(rng, 4, 2)
        np.testing.assert_allclose(chart_extension(weight, np.eye(4)), np.eye(2), atol=1e-10)

    def test_nilpotent_into_nullspace(self):
        weight = PsdOperator.from_matrix(np.diag([1.0, 0.0]))
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        # oracle: the direct matrix product collapses to zero on the chart
        np.testing.assert_allclose(weight.sqrt @ b @ weight.sqrt_pinv, np.zeros((2, 2)))
        np.testing.assert_allclose(chart_extension(weight, b), np.zeros((1, 1)))

    def test_not_extendable(self):
        weight = PsdOperator.from_matrix(np.diag([1.0, 0.0]))
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert not is_chart_extendable(weight, b)
        with pytest.raises(NotExtendable):
            chart_extension(weight, b)

    def test_extension_contract(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            weight = make_psd(rng, n, int(rng.integers(1, n + 1)))
            b = nullspace_preserving(rng, weight)
            c = chart_extension(weight, b)
            for _ in range(5):
                x = rng.normal(size=n)
                lhs = c @ (chart_basis(weight).T @ lift(weight, weight.base @ x).witness)
                rhs = chart_basis(weight).T @ lift(weight, weight.base @ (b @ x)).witness
                np.testing.assert_allclose(lhs, rhs, atol=1e-8 * (1 + np.linalg.norm(rhs)))

    def test_adjoint_range_inclusion(self):
        # B^T maps R(A) = N(A)^perp into itself when B maps N(A) into
        # itself, so R(B^T A^{1/2}) ⊆ R(A^{1/2}): chart_extension needs no
        # test of it.
        rng = np.random.default_rng(69)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            weight = make_psd(rng, n, int(rng.integers(0, n + 1)))
            b = nullspace_preserving(rng, weight)
            assert is_chart_extendable(weight, b)
            assert range_inclusion(b.T @ weight.sqrt, weight.sqrt)

    def test_algebra_morphism(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            weight = make_psd(rng, n, int(rng.integers(1, n + 1)))
            b1 = nullspace_preserving(rng, weight)
            b2 = nullspace_preserving(rng, weight)
            lhs = chart_extension(weight, b1 @ b2)
            rhs = chart_extension(weight, b1) @ chart_extension(weight, b2)
            assert np.linalg.norm(lhs - rhs) <= 1e-7 * (1 + np.linalg.norm(rhs))


class TestBridgeIdentities:
    def test_identity_weight(self):
        weight = PsdOperator.from_matrix(np.eye(2))
        assert extension_matches_projection(weight, SPAN_E1)

    def test_rank_one(self):
        assert extension_matches_projection(RANK1, SPAN_E1)

    def test_degenerate(self):
        assert extension_matches_projection(DEGENERATE, SPAN_E1)

    def test_random_pairs(self):
        rng = np.random.default_rng(62)
        for _ in range(30):
            weight, span = make_pair(rng)
            assert extension_matches_projection(weight, span)

    def test_family_extension_invariance(self):
        # all members of the projection family induce the same chart operator
        rng = np.random.default_rng(63)
        for _ in range(15):
            weight, span = make_pair(rng)
            base = chart_extension(weight, weighted_projection(weight, span).matrix)
            overlap = degenerate_overlap(weight, span)
            for _ in range(10):
                t = rng.normal(size=(overlap.dim, weight.dim - span.dim))
                member = projection_family_member(weight, span, t)
                ext = chart_extension(weight, member.matrix)
                assert np.linalg.norm(ext - base) <= 1e-7


class TestProjectedRange:
    def test_identity_weight(self):
        weight = PsdOperator.from_matrix(np.eye(2))
        image, equal = chart_projected_range(weight, SPAN_E1)
        assert equal and subspace_equal(image, SPAN_E1)

    def test_degenerate(self):
        image, equal = chart_projected_range(DEGENERATE, SPAN_E1)
        assert equal and image.dim == 0

    def test_random_rank_two(self):
        rng = np.random.default_rng(64)
        weight = make_psd(rng, 4, 2)
        span = make_subspace(rng, 4, 2)
        image, equal = chart_projected_range(weight, span)
        target = subspace_from_span(weight.base @ span.basis, scale=weight.eigvals[0])
        assert equal and subspace_equal(image, target)

    def test_equality_tracks_compatibility(self):
        rng = np.random.default_rng(65)
        for _ in range(30):
            weight, span = make_pair(rng)
            _, equal = chart_projected_range(weight, span)
            assert equal == is_compatible(weight, span)


class TestInducedProjection:
    def test_identity_weight(self):
        weight = PsdOperator.from_matrix(np.eye(2))
        np.testing.assert_allclose(induced_projection(weight, SPAN_E1), np.diag([1.0, 0.0]), atol=1e-12)

    def test_degenerate_collapses(self):
        # oracle: composing the pieces by hand gives the zero matrix
        proj = range_space_projection(DEGENERATE, SPAN_E1)
        vr = chart_basis(DEGENERATE)
        by_hand = DEGENERATE.pinv @ (
            DEGENERATE.sqrt @ vr @ proj.coord_matrix @ vr.T @ DEGENERATE.sqrt_pinv
        ) @ DEGENERATE.base
        np.testing.assert_allclose(by_hand, np.zeros((2, 2)), atol=1e-12)
        np.testing.assert_allclose(induced_projection(DEGENERATE, SPAN_E1), np.zeros((2, 2)), atol=1e-12)

    def test_rank_one_factorization(self):
        got = induced_projection(RANK1, SPAN_E1)
        expected = RANK1.range_proj @ np.array([[1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(got, expected, atol=1e-10)
        assert np.linalg.norm(got @ got - got) < 1e-10

    def test_idempotent_and_factored(self):
        rng = np.random.default_rng(66)
        for _ in range(25):
            weight, span = make_pair(rng)
            sharp = induced_projection(weight, span)
            assert np.linalg.norm(sharp @ sharp - sharp) <= 1e-8
            factored = weight.range_proj @ weighted_projection(weight, span).matrix
            assert np.linalg.norm(sharp - factored) <= 1e-7


class TestDensityAndDecompositions:
    def test_identity_weight(self):
        chart = range_space_projection(PsdOperator.from_matrix(np.eye(2)), SPAN_E1)
        assert chart.complement_density
        assert chart.decompositions == (True, True, True)

    def test_degenerate(self):
        chart = range_space_projection(DEGENERATE, SPAN_E1)
        assert chart.complement_density
        assert chart.decompositions == (True, True, True)

    def test_random(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            weight, span = make_pair(rng)
            chart = range_space_projection(weight, span)
            assert chart.complement_density
            flags = chart.decompositions
            assert len(set(flags)) == 1
            assert flags[0] == is_compatible(weight, span)


class TestNearCutoff:
    """A compatible pair where a direction of R(A) sits at sine ``s`` from
    S^perp, 5 to 50 times the angle cutoff ``2 rank_rel``: S^perp ∩ R(A) is
    read off the SVD of ``C = V_r^T B_S``, not off a residual that cancels
    to roundoff, so its basis is accurate at any sine."""

    @staticmethod
    def pair(seed, s):
        rng = np.random.default_rng(seed)
        q = random_orthogonal(rng, 6)
        ev = np.zeros(6)
        ev[:3] = rng.uniform(0.5, 2.0, size=3)
        span = np.column_stack([q[:, 3], np.sqrt(1.0 - s**2) * q[:, 4] + s * q[:, 0]])
        return (q * ev) @ q.T, span

    @pytest.mark.parametrize("s", [1e-8, 1e-9])
    def test_complement_density(self, s):
        for seed in range(40):
            a, span = self.pair(seed, s)
            chart = range_space_projection(PsdOperator.from_matrix(a), subspace_from_span(span))
            assert chart.complement_density

    @pytest.mark.parametrize("s", [1e-8, 1e-9])
    def test_cli_oprange_exits_0(self, s, tmp_path):
        files = {name: tmp_path / f"{name}.json" for name in ("a", "s", "out")}
        for seed in range(40):
            a, span = self.pair(seed, s)
            files["a"].write_text(json.dumps(io.matrix_to_obj(a)))
            files["s"].write_text(json.dumps({"ambient": 6, "span": io.matrix_to_obj(span)}))
            argv = ["oprange", "--input-a", str(files["a"]), "--input-s", str(files["s"])]
            assert cli.main(argv + ["--output", str(files["out"])]) == 0, seed
