import numpy as np
import pytest

from obliqueproj import (
    NoSolution,
    least_squares_solution,
    minimal_lambda,
    moore_penrose,
    nullspace_of,
    range_inclusion,
    reduced_solution,
    subspace_equal,
    subspace_from_span,
    contains,
)

from support import column_space_contained, min_lambda_by_pencil


def random_feasible(rng, rows=None, cols=None):
    rows = rows or int(rng.integers(2, 7))
    cols = cols or int(rng.integers(1, 7))
    rank = int(rng.integers(0, min(rows, cols) + 1))
    a = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
    if rank == 0:
        a = np.zeros((rows, cols))
    b = a @ rng.normal(size=(cols, int(rng.integers(1, 5))))
    return a, b


class TestRangeInclusion:
    def test_self(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert range_inclusion(a, a)

    def test_zero_left_operand(self):
        assert not range_inclusion(np.eye(2), np.zeros((2, 2)))

    def test_column_space_case(self):
        a = np.diag([1.0, 0.0])
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert column_space_contained(b, a)  # oracle
        assert range_inclusion(b, a)

    def test_agrees_with_rank_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a, b = random_feasible(rng)
            assert range_inclusion(b, a) == column_space_contained(b, a)
            outside = rng.normal(size=(a.shape[0], 1))
            expected = column_space_contained(outside, a)
            assert range_inclusion(outside, a) == expected


class TestReducedSolution:
    def test_identity(self):
        sol = reduced_solution(np.eye(2), np.eye(2))
        np.testing.assert_allclose(sol.matrix, np.eye(2))
        assert sol.norm_sq == pytest.approx(1.0)

    def test_diagonal(self):
        sol = reduced_solution(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        np.testing.assert_allclose(sol.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_rank_one(self):
        a = np.ones((2, 2))
        sol = reduced_solution(a, a)
        np.testing.assert_allclose(sol.matrix, np.full((2, 2), 0.5), atol=1e-12)
        # oracle checks: A D = B and N(D) = N(B)
        np.testing.assert_allclose(a @ sol.matrix, a, atol=1e-12)
        assert subspace_equal(nullspace_of(sol.matrix), nullspace_of(a))

    def test_no_solution(self):
        with pytest.raises(NoSolution):
            reduced_solution(np.zeros((2, 2)), np.eye(2))

    def test_contract_on_random_instances(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            a, b = random_feasible(rng)
            sol = reduced_solution(a, b)
            assert sol.residual <= 1e-10 * (1 + np.linalg.norm(b))
            assert subspace_equal(nullspace_of(sol.matrix), nullspace_of(b))
            row_space = subspace_from_span(a.T)
            assert contains(row_space, subspace_from_span(sol.matrix))

    def test_agrees_with_lstsq(self):
        # the minimum-norm least-squares solution is an independent route to D
        rng = np.random.default_rng(23)
        for _ in range(25):
            a, b = random_feasible(rng)
            expected = np.linalg.lstsq(a, b, rcond=1e-10)[0]
            np.testing.assert_allclose(reduced_solution(a, b).matrix, expected, atol=1e-8)

    def test_uniqueness_in_row_space(self):
        # any solution with rows confined to R(A^T) must be D itself
        rng = np.random.default_rng(24)
        for _ in range(25):
            a, b = random_feasible(rng)
            d = reduced_solution(a, b).matrix
            proj_rows = moore_penrose(a) @ a  # projector onto R(A^T)
            z = rng.normal(size=d.shape)
            other = d + (np.eye(a.shape[1]) - proj_rows) @ z  # also solves AX=B
            np.testing.assert_allclose(a @ other, a @ d, atol=1e-9)
            np.testing.assert_allclose(proj_rows @ other, d, atol=1e-9)


class TestLeastSquaresFallback:
    def test_reports_residual(self):
        sol = least_squares_solution(np.zeros((2, 2)), np.eye(2))
        np.testing.assert_allclose(sol.matrix, np.zeros((2, 2)))
        assert sol.residual == pytest.approx(np.sqrt(2.0))


class TestMinimalLambda:
    def test_same_operator(self):
        a = np.array([[2.0, 1.0], [0.0, 1.0]])
        assert minimal_lambda(a, a) == pytest.approx(1.0)

    def test_scaling(self):
        a = np.array([[2.0, 1.0], [0.0, 1.0]])
        assert minimal_lambda(a, 2 * a) == pytest.approx(4.0)

    def test_diagonal(self):
        # oracle by hand: diag(4 lam - 1, lam - 1) is PSD exactly when lam >= 1
        a, b = np.diag([2.0, 1.0]), np.eye(2)
        assert min_lambda_by_pencil(a, b) == pytest.approx(1.0, abs=1e-9)
        assert minimal_lambda(a, b) == pytest.approx(1.0)

    def test_matches_pencil_oracle(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            a, b = random_feasible(rng)
            if not b.any():
                continue
            lam = minimal_lambda(a, b)
            assert lam == pytest.approx(min_lambda_by_pencil(a, b), rel=1e-6, abs=1e-9)

    def test_consistent_with_norm(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            a, b = random_feasible(rng)
            sol = reduced_solution(a, b)
            assert minimal_lambda(a, b) == pytest.approx(sol.norm_sq, rel=1e-6, abs=1e-12)


class TestMinimality:
    def test_reduced_solution_has_least_norm(self):
        rng = np.random.default_rng(27)
        for _ in range(40):
            a, b = random_feasible(rng)
            d = reduced_solution(a, b).matrix
            d_norm = np.linalg.norm(d, 2) if d.size else 0.0
            slack = np.eye(a.shape[1]) - moore_penrose(a) @ a
            for _ in range(20):
                other = d + slack @ rng.normal(size=d.shape)
                np.testing.assert_allclose(a @ other, b, atol=1e-8 * (1 + np.linalg.norm(b)))
                assert d_norm <= np.linalg.norm(other, 2) + 1e-8
