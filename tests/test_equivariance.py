"""Equivariance: the same decisions in other coordinates, with no reference.

For an orthogonal ``T`` the pair ``(T A T^T, T S)`` has the projection
``T P T^T`` and the same dimensions and verdicts, and no result may depend
on which spanning set of S is given (metamorphic testing; Segura et al.,
IEEE TSE 42(9), 2016).  On the 500 acceptance pairs of ``tests/parity.py``
three changes are made:

- rotation, ``T = support.random_orthogonal(default_rng(99), n)``;
- re-basis, S given by the columns of ``B_S R`` with ``R`` a Gaussian
  ``k x k`` matrix (``default_rng([98, index])``), ``T = I``;
- permutation of the coordinates (``default_rng([97, index])``).

Measured with every key of the parity dump on all 500 pairs, no decision
moves under any of the three.  These tests pin it for all 500 pairs on the
diagnostics, projection and spline keys, and on the Hermitian verdicts and
the identity battery too for every tenth pair, which keeps their run time
near one second.  The weighted projection maps to ``T P T^T`` within
``PROJECTION_BOUND * (1 + ||A||)`` in the Frobenius norm.  The worst gaps
measured, relative to ``1 + ||A||``, are 4.1e-11 (rotation), 2.8e-11
(re-basis) and 3.9e-11 (permutation), all on pair 338, whose ``P`` has
norm 114.
"""

import sys

import numpy as np
import pytest

from obliqueproj import PsdOperator, Tolerance, subspace_from_span, weighted_projection
from support import random_orthogonal

PROJECTION_BOUND = 2e-10
# the keys of the parity dump read on every pair; every EVERY-th pair reads all
KEYS = ("diagnostics", "projection", "spline")
EVERY = 10


@pytest.fixture(scope="module")
def parity():
    # Importing the tool pins OpenBLAS to one thread and puts src/ and
    # tests/ first on sys.path; both are undone after the import.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "path", list(sys.path))
        patch.setenv("OPENBLAS_NUM_THREADS", "1")
        import parity
    return parity


@pytest.fixture(scope="module")
def pairs(parity):
    """(weight, span, decisions, P) of each acceptance pair."""
    made = []
    for index, (pair, tol) in enumerate(parity._acceptance()):
        weight, span = pair()
        keys = KEYS if index % EVERY else tuple(parity.DECISIONS)
        made.append((weight, span, parity.decisions(weight, span, tol, keys), weighted_projection(weight, span).matrix))
    return made


def rotation(weight, span, index):
    t = random_orthogonal(np.random.default_rng(99), weight.dim)
    return t, PsdOperator.from_matrix(t @ weight.base @ t.T), subspace_from_span(t @ span.basis)


def rebasis(weight, span, index):
    r = np.random.default_rng([98, index]).normal(size=(span.dim, span.dim))
    return np.eye(weight.dim), weight, subspace_from_span(span.basis @ r)


def permutation(weight, span, index):
    order = np.random.default_rng([97, index]).permutation(weight.dim)
    return np.eye(weight.dim)[order], PsdOperator.from_matrix(weight.base[order][:, order]), subspace_from_span(
        span.basis[order]
    )


@pytest.mark.parametrize("change", [rotation, rebasis, permutation])
def test_no_decision_moves(parity, pairs, change):
    moved, worst = [], 0.0
    for index, (weight, span, before, p) in enumerate(pairs):
        t, moved_weight, moved_span = change(weight, span, index)
        keys = [key for key in before if key != "pair"]
        if parity.decisions(moved_weight, moved_span, Tolerance(), keys) != before:
            moved.append(index)
        gap = np.linalg.norm(weighted_projection(moved_weight, moved_span).matrix - t @ p @ t.T)
        worst = max(worst, gap / (1.0 + weight.eigvals[0]))
    assert moved == []
    assert worst <= PROJECTION_BOUND
