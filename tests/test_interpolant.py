import dataclasses

import numpy as np
import pytest

from obliqueproj import (
    DimensionMismatch,
    NotPsd,
    PsdOperator,
    degenerate_overlap,
    seminorm,
    spline,
    spline_by_normal_equations,
    spline_with_weight,
    subspace_from_span,
    subspace_equal,
)
from support import make_pair, make_psd, make_subspace, ortho_projector, seminorm_grid_min

SPAN_E1 = subspace_from_span(np.array([[1.0], [0.0]]))
SPAN_E2 = subspace_from_span(np.array([[0.0], [1.0]]))


class TestSeminorm:
    def test_identity_is_euclidean(self):
        weight = PsdOperator.from_matrix(np.eye(2))
        assert seminorm(weight, [3.0, 4.0]) == pytest.approx(5.0)

    def test_nullspace_vector(self):
        weight = PsdOperator.from_matrix(np.diag([0.0, 1.0]))
        assert seminorm(weight, [5.0, 0.0]) == 0.0

    def test_rank_one(self):
        weight = PsdOperator.from_matrix(np.ones((2, 2)))
        # oracle: <Ax, x> = 4 for x = (1, 1)
        assert np.array([1.0, 1.0]) @ weight.base @ np.array([1.0, 1.0]) == pytest.approx(4.0)
        assert seminorm(weight, [1.0, 1.0]) == pytest.approx(2.0)

    def test_clips_roundoff(self):
        weight = PsdOperator.from_matrix(np.diag([1.0, -5e-11]))
        assert seminorm(weight, [0.0, 1.0]) == 0.0

    def test_rejects_indefinite_form(self):
        # defensive guard; only reachable with a hand-forged weight record
        weight = PsdOperator.from_matrix(np.eye(2))
        forged = dataclasses.replace(weight, base=-np.eye(2))
        with pytest.raises(NotPsd):
            seminorm(forged, [1.0, 0.0])

    @pytest.mark.parametrize("c", 10.0 ** np.arange(-9, 10))
    def test_sign_rule_reads_alike_at_every_scale(self, c):
        # The form's anchor is λ_1 ||x||^2: a form of -5e-11 λ_1 ||x||^2 is
        # roundoff and clips at every scale, and a negative form of the
        # size of the weight is refused at every scale.
        weight = PsdOperator.from_matrix(c * np.diag([1.0, 0.0]))
        roundoff = dataclasses.replace(weight, base=c * np.diag([1.0, -5e-11]))
        assert seminorm(roundoff, [0.0, 2.0]) == 0.0
        forged = dataclasses.replace(weight, base=c * np.diag([1.0, -1.0]))
        with pytest.raises(NotPsd):
            seminorm(forged, [0.0, 2.0])


class TestSpline:
    def test_identity_factor_is_least_squares(self):
        rng = np.random.default_rng(71)
        span = make_subspace(rng, 4, 2)
        x = rng.normal(size=4)
        result = spline(np.eye(4), span, x)
        expected = x - ortho_projector(span).matrix @ x
        np.testing.assert_allclose(result.minimizer, expected, atol=1e-10)
        assert result.unique

    def test_degenerate_direction(self):
        # T = [1 0]: every point of x + span(e2) is optimal; the minimizer is
        # the one of least Euclidean norm
        t = np.array([[1.0, 0.0]])
        x = np.array([1.0, 1.0])
        result = spline(t, SPAN_E2, x)
        np.testing.assert_allclose(result.minimizer, [1.0, 0.0], atol=1e-12)
        assert not result.unique
        assert subspace_equal(result.freedom, SPAN_E2)
        # oracle: brute-force scan over x + t*e2 then minimal-norm selection
        best, at = seminorm_grid_min(t, SPAN_E2.basis, x)
        assert best == pytest.approx(result.value, abs=1e-9)
        candidates = [x + s * SPAN_E2.basis[:, 0] for s in np.linspace(-3, 3, 601)]
        optimal = [z for z in candidates if np.linalg.norm(t @ z) <= best + 1e-9]
        least = min(optimal, key=np.linalg.norm)
        np.testing.assert_allclose(result.minimizer, least, atol=1e-2)

    def test_rank_one_weight(self):
        t = np.ones((2, 2)) / np.sqrt(2.0)  # T^T T = [[1,1],[1,1]]
        x = np.array([0.0, 1.0])
        result = spline(t, SPAN_E1, x)
        # oracle: minimize (c + 1)^2 over z = (c, 1); calculus gives c = -1
        grid = np.linspace(-3, 3, 60001)
        values = (grid + 1.0) ** 2
        assert grid[np.argmin(values)] == pytest.approx(-1.0, abs=1e-4)
        np.testing.assert_allclose(result.minimizer, [-1.0, 1.0], atol=1e-10)
        assert result.value == pytest.approx(0.0, abs=1e-10)

    def test_member_of_affine_set(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            weight, span = make_pair(rng)
            x = rng.normal(size=weight.dim)
            result = spline_with_weight(weight, span, x)
            # minimizer lies in x + S
            gap = result.minimizer - x
            np.testing.assert_allclose(span.projector() @ gap, gap, atol=1e-8)

    def test_optimality_against_sampled_shifts(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            weight, span = make_pair(rng)
            x = rng.normal(size=weight.dim)
            result = spline_with_weight(weight, span, x)
            for _ in range(30):
                if span.dim == 0:
                    break
                s = span.basis @ rng.normal(size=span.dim)
                assert result.value <= seminorm(weight, x + s) + 1e-8

    def test_minimal_norm_selection(self):
        rng = np.random.default_rng(74)
        checked = 0
        while checked < 15:
            weight, span = make_pair(rng)
            x = rng.normal(size=weight.dim)
            result = spline_with_weight(weight, span, x)
            if result.freedom.dim == 0:
                continue
            checked += 1
            for _ in range(25):
                shift = result.freedom.basis @ rng.normal(size=result.freedom.dim)
                other = result.minimizer + shift
                # same seminorm value (up to sqrt-amplified roundoff), never
                # smaller Euclidean norm
                assert seminorm(weight, other) == pytest.approx(result.value, abs=1e-6)
                assert np.linalg.norm(result.minimizer) <= np.linalg.norm(other) + 1e-8

    def test_uniqueness_flag(self):
        rng = np.random.default_rng(75)
        for _ in range(20):
            weight, span = make_pair(rng)
            result = spline_with_weight(weight, span, rng.normal(size=weight.dim))
            assert result.unique == (degenerate_overlap(weight, span).dim == 0)

    def test_residual_map_idempotent(self):
        rng = np.random.default_rng(76)
        for _ in range(15):
            weight, span = make_pair(rng)
            x = rng.normal(size=weight.dim)
            first = spline_with_weight(weight, span, x).minimizer
            second = spline_with_weight(weight, span, first).minimizer
            np.testing.assert_allclose(second, first, atol=1e-9)

    def test_x_already_in_subspace(self):
        weight = PsdOperator.from_matrix(np.eye(2))
        result = spline(np.eye(2), SPAN_E1, [2.0, 0.0])
        np.testing.assert_allclose(result.minimizer, [0.0, 0.0], atol=1e-12)
        assert result.value == pytest.approx(0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            spline(np.eye(3), SPAN_E1, [1.0, 0.0])
        with pytest.raises(DimensionMismatch):
            spline(np.eye(2), SPAN_E1, [1.0, 0.0, 0.0])


class TestNormalEquationsSolver:
    def test_identity_factor(self):
        rng = np.random.default_rng(77)
        span = make_subspace(rng, 4, 2)
        x = rng.normal(size=4)
        got = spline_by_normal_equations(np.eye(4), span, x)
        np.testing.assert_allclose(got, x - span.projector() @ x, atol=1e-10)

    def test_degenerate_weight_minimal_norm(self):
        t = np.diag([0.0, 1.0])
        x = np.array([1.0, 1.0])
        got = spline_by_normal_equations(t, SPAN_E1, x)
        # oracle: grid scan over the optimal set picks the least-norm point
        best, _ = seminorm_grid_min(t, SPAN_E1.basis, x)
        assert np.linalg.norm(t @ got) == pytest.approx(best, abs=1e-9)
        np.testing.assert_allclose(got, [0.0, 1.0], atol=1e-12)

    def test_agrees_with_spline(self):
        # Both the square root and the r x n generating factor
        # sqrt(lambda_r) V_r^T, whose N(T) is the wide full SVD.
        rng = np.random.default_rng(78)
        for _ in range(100):
            weight, span = make_pair(rng)
            x = rng.normal(size=weight.dim)
            direct = spline_with_weight(weight, span, x).minimizer
            generating = np.sqrt(weight.eigvals[: weight.rank])[:, None] * weight.range_subspace.basis.T
            for factor in (weight.sqrt, generating):
                oracle = spline_by_normal_equations(factor, span, x)
                np.testing.assert_allclose(direct, oracle, atol=1e-8)

    def test_grid_scan_confirms_value(self):
        rng = np.random.default_rng(79)
        checked = 0
        while checked < 15:
            n = int(rng.integers(2, 6))
            weight = make_psd(rng, n, int(rng.integers(1, n + 1)))
            span = make_subspace(rng, n, int(rng.integers(1, 3)))
            x = rng.normal(size=n)
            result = spline_with_weight(weight, span, x)
            _, center = seminorm_grid_min(weight.sqrt, span.basis, x, rounds=1)
            if np.max(np.abs(center)) > 2.0:
                continue  # optimum outside the scan box; resample
            checked += 1
            best, _ = seminorm_grid_min(weight.sqrt, span.basis, x)
            assert result.value == pytest.approx(best, abs=1e-6)
