"""``compatibility_diagnostics`` in eigen coordinates against the generic kernel in R^n."""

import dataclasses

import numpy as np
import pytest

from obliqueproj import PsdOperator, Tolerance, compatibility_diagnostics, subspace_equal
from support import diagnostics_by_subspaces, make_overlapping_pair, make_pair

SCALES = (1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6)


def scaled(weight, c):
    """``c A`` from the eigendecomposition of ``A``, as ``from_matrix`` builds it.

    Scaling the eigen data instead of decomposing ``c A`` again keeps the
    instances at c = 1e6, where ``from_matrix`` still rejects valid weights
    (its negative-eigenvalue test is absolute); that defect is not what
    these tests are about.  The derived fields follow from the eigen data.
    """
    return dataclasses.replace(weight, base=c * weight.base, eigvals=c * weight.eigvals)


def assert_matches_oracle(weight, span, tol):
    report = compatibility_diagnostics(weight, span, tol)
    oracle = diagnostics_by_subspaces(weight, span, tol)
    assert report.chain[1:] == oracle["chain"][1:]
    assert report.sum_check == oracle["sum_check"]
    assert report.projected_pair_compatible == oracle["projected_pair_compatible"]
    if report.degenerate.dim == span.dim:
        # S ⊆ N(A): the pair itself and the shifted pair N(A) have coupling
        # blocks of pure roundoff in R^n, so the generic block test decides
        # on noise.  A B_S = 0 there, and the pair is compatible, as every
        # pair is in finite dimension.
        assert report.compatible and report.chain[0]
        assert report.shifted_pair_compatible
    else:
        assert report.compatible == report.chain[0] == oracle["compatible"]
        assert report.shifted_pair_compatible == oracle["shifted_pair_compatible"]
    assert subspace_equal(report.degenerate, oracle["degenerate"], tol)
    assert subspace_equal(report.preimage_of_complement, oracle["preimage_of_complement"], tol)


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("rank_rel", (1e-10, 1e-7, 1e-4))
def test_small_pairs(rank_rel, c):
    tol = Tolerance(rank_rel=rank_rel)
    rng = np.random.default_rng([1000, SCALES.index(c), round(-np.log10(rank_rel))])
    for _ in range(25):
        weight, span = make_pair(rng)
        assert_matches_oracle(scaled(PsdOperator.from_matrix(weight.base, tol), c), span, tol)


@pytest.mark.parametrize("n, seed", [(32, 1), (48, 2), (64, 3), (96, 4), (128, 5)])
def test_overlapping_pairs(n, seed):
    rng = np.random.default_rng(900 + seed)
    for rank, k, overlap in ((n // 2, n // 3, n // 8), (n - 4, n // 2, 3), (n // 4, n // 2, n // 4)):
        weight, span = make_overlapping_pair(rng, n, rank, k, overlap)
        report = compatibility_diagnostics(weight, span)
        assert report.degenerate.dim == overlap
        assert all(report.chain) and report.sum_check
        assert_matches_oracle(weight, span, Tolerance())
