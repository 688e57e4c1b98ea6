"""What a value shares with its caller's arrays, and what input it refuses.

Constructors never change the flags of an array handed in.  A value that
must not change with the caller's later writes keeps its own copy
(``PsdOperator.from_matrix``'s ``base``, ``lift``'s ``ambient``); every
other array is held as a read-only view, shared with the caller.  The
arrays a result value computes are read-only views too, so a returned value
cannot be changed in place.
"""

import numpy as np
import pytest

from obliqueproj import (
    PsdOperator,
    Subspace,
    block_decompose,
    compatibility_diagnostics,
    lift,
    reduced_solution,
    spline_with_weight,
    subspace_from_span,
)
from obliqueproj.linalg import as_matrix, as_vector
from support import make_overlapping_pair


@pytest.fixture(scope="module")
def pair():
    # n = 3, rank 2, and S meets N(A): every block and the coupling are nonzero
    return make_overlapping_pair(np.random.default_rng(5), 3, 2, 2, 1)


def assert_frozen(array):
    assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        array[(0,) * array.ndim] = 1.0


def test_from_matrix_keeps_its_own_base():
    m = np.eye(3)
    weight = PsdOperator.from_matrix(m)
    m[0, 0] = 2.0  # the caller's array stays writeable
    assert weight.base[0, 0] == 1.0
    assert not np.shares_memory(weight.base, m)
    assert not weight.base.flags.writeable


def test_subspace_shares_a_read_only_view_of_its_basis():
    b = np.array([[1.0], [0.0], [0.0]])
    span = Subspace(3, b)
    assert b.flags.writeable
    assert np.shares_memory(span.basis, b)
    with pytest.raises(ValueError):
        span.basis[0, 0] = 0.0


def test_lift_keeps_its_own_vector():
    weight = PsdOperator.from_matrix(np.diag([1.0, 0.0]))
    u = np.array([2.0, 0.0])
    rv = lift(weight, u)
    u[0] = 5.0
    assert rv.ambient[0] == 2.0
    assert not rv.ambient.flags.writeable and not rv.witness.flags.writeable


def test_reduced_solution_is_frozen():
    assert_frozen(reduced_solution(np.eye(2), np.array([[1.0], [2.0]])).matrix)


def test_compatibility_report_coupling_is_frozen(pair):
    report = compatibility_diagnostics(*pair)
    assert report.coupling.size
    assert_frozen(report.coupling)


def test_block_decomposition_is_frozen(pair):
    blocks = block_decompose(*pair)
    for block in (blocks.a, blocks.b, blocks.c):
        assert block.size
        assert_frozen(block)


def test_spline_minimizer_is_frozen(pair):
    weight, span = pair
    assert_frozen(spline_with_weight(weight, span, np.ones(3)).minimizer)


@pytest.mark.parametrize(
    "build",
    [
        lambda: as_matrix([[1.0, 2j]]),
        lambda: subspace_from_span([[1j], [1.0]]),
        lambda: PsdOperator.from_matrix([[2 + 1j, 0], [0, 1]]),
    ],
)
def test_as_matrix_refuses_complex(build):
    with pytest.raises(ValueError, match="complex"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: as_vector([1.0, 1j]),
        lambda: lift(PsdOperator.from_matrix(np.eye(2)), np.array([1.0, 0.5j])),
    ],
)
def test_as_vector_refuses_complex(build):
    with pytest.raises(ValueError, match="complex"):
        build()
