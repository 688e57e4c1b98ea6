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
    DimensionMismatch,
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


def float64_layouts():
    m = np.random.default_rng(6).normal(size=(4, 6))
    frozen = m.copy()
    frozen.flags.writeable = False
    return [m, np.asfortranarray(m), m.T, m[::2, ::3], frozen]


@pytest.mark.parametrize("index", range(5))
def test_validators_return_a_float64_array_as_itself(index):
    m = float64_layouts()[index]
    flags = str(m.flags)
    assert as_matrix(m) is m and as_matrix(m, *m.shape) is m
    v = m[0]
    assert as_vector(v) is v and as_vector(v, v.size) is v
    assert str(m.flags) == flags


@pytest.mark.parametrize(
    "values",
    [
        np.arange(6, dtype=np.float32).reshape(2, 3) / 7,
        np.arange(6).reshape(2, 3),
        [[1, 2.5, 3], [4, 5, 6]],
        (np.arange(6.0).reshape(2, 3) / 7).astype(">f8"),
        np.ones((2, 3), dtype=np.float16),
    ],
)
def test_validators_convert_other_input_as_before(values):
    expected = np.asarray(values).astype(float, copy=False)
    assert not isinstance(values, np.ndarray) or values.dtype != np.dtype(float)
    for got, want in ((as_matrix(values), expected), (as_vector(values), expected.reshape(-1))):
        assert got is not values and got.dtype == np.dtype(float) and got.dtype.isnative
        assert got.tobytes() == want.tobytes() and got.shape == want.shape


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validators_refuse_non_finite_entries(bad):
    for build in (np.array, list):
        m = np.ones((2, 2))
        m[1, 0] = bad
        with pytest.raises(ValueError, match=r"^matrix entries must be finite \(no NaN/Inf\)$"):
            as_matrix(build(m) if build is np.array else m.tolist())
        with pytest.raises(ValueError, match=r"^vector entries must be finite \(no NaN/Inf\)$"):
            as_vector(build(m[1]) if build is np.array else m[1].tolist())


def test_validators_refuse_complex_and_wrong_shapes_with_their_messages():
    with pytest.raises(ValueError, match="^matrix entries must be real, got complex128$"):
        as_matrix(np.ones((2, 2), dtype=complex))
    with pytest.raises(ValueError, match="^vector entries must be real, got complex64$"):
        as_vector(np.ones(2, dtype=np.complex64))
    with pytest.raises(DimensionMismatch, match="^expected a 2-D matrix, got ndim=1$"):
        as_matrix(np.ones(3))
    with pytest.raises(DimensionMismatch, match="^expected a 2-D matrix, got ndim=3$"):
        as_matrix(np.ones((1, 2, 2)))
    with pytest.raises(DimensionMismatch, match="^expected 3 rows, got 2$"):
        as_matrix(np.ones((2, 2)), rows=3)
    with pytest.raises(DimensionMismatch, match="^expected 3 columns, got 2$"):
        as_matrix(np.ones((2, 2)), cols=3)
    with pytest.raises(DimensionMismatch, match="^expected a vector of length 3, got 2$"):
        as_vector(np.ones(2), 3)
