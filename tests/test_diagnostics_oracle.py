"""``compatibility_diagnostics`` in eigen coordinates against the generic kernel in R^n."""

import dataclasses

import numpy as np
import pytest

from obliqueproj import PsdOperator, Subspace, Tolerance, compatibility_diagnostics, subspace_equal
from support import (
    diagnostics_by_subspaces,
    flag3_and_sum_check_by_svds,
    make_ill_conditioned_pair,
    make_near_null_pair,
    make_overlapping_pair,
    make_pair,
    rank_of_y_c,
    shift_rechecks_by_inclusion,
)

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
    rank, rho = rank_of_y_c(weight, span, tol)
    assert rank == rho
    assert report.projected_pair_compatible == oracle["projected_pair_compatible"]
    assert shift_rechecks_by_inclusion(weight, span, tol)
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


# Chain flag 3 is read off the split [Y, K] of R^r into R(Λ C) and
# N(C^T Λ), and sum_check is the theorem rank(Y^T C) = ρ = dim A S;
# support.flag3_and_sum_check_by_svds computes both from K alone, with the two
# SVDs the library no longer makes, and support.rank_of_y_c takes the rank of
# Y^T C from the values-only SVD the library no longer makes.

WIDE_SCALES = (1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9)


def flags_against_svds(pairs, tol):
    """Asserts identical flag 3 and sum_check on every pair, and
    rank(Y^T C) = ρ; returns how often each flag read False."""
    false3 = false_sum = 0
    for weight, span in pairs:
        report = compatibility_diagnostics(weight, span, tol)
        assert (report.chain[2], report.sum_check) == flag3_and_sum_check_by_svds(weight, span, tol)
        rank, rho = rank_of_y_c(weight, span, tol)
        assert rank == rho
        false3 += not report.chain[2]
        false_sum += not report.sum_check
    return false3, false_sum


@pytest.mark.parametrize("rank_rel", (1e-10, 1e-7, 1e-4, 1e-2))
def test_flag3_and_sum_check_on_scaled_pairs(rank_rel):
    tol = Tolerance(rank_rel=rank_rel)
    rng = np.random.default_rng([1300, round(-np.log10(rank_rel))])
    pairs = [
        (scaled(PsdOperator.from_matrix(weight.base, tol), c), span)
        for c in WIDE_SCALES
        for weight, span in (make_pair(rng) for _ in range(20))
    ]
    assert flags_against_svds(pairs, tol) == (0, 0)


@pytest.mark.parametrize("rank_rel", (1e-12, 1e-10, 1e-7, 1e-4))
def test_flag3_and_sum_check_on_ill_conditioned_pairs(rank_rel):
    tol = Tolerance(rank_rel=rank_rel)
    rng = np.random.default_rng([1301, round(-np.log10(rank_rel))])
    false3, false_sum = flags_against_svds([make_ill_conditioned_pair(rng, tol) for _ in range(100)], tol)
    assert false3 > 0 and false_sum == 0


@pytest.mark.parametrize("rank_rel", (1e-10, 1e-7, 1e-4, 1e-2))
def test_flag3_and_sum_check_near_the_angle_cutoff(rank_rel):
    tol = Tolerance(rank_rel=rank_rel)
    rng = np.random.default_rng([1302, round(-np.log10(rank_rel))])
    false3, false_sum = flags_against_svds([make_near_null_pair(rng, tol) for _ in range(150)], tol)
    assert false3 > 0 and false_sum == 0


def test_sum_check_reads_the_rank_of_y_c_against_one():
    """The one kind of pair found where the two sum checks differ.

    The library reports rank [C, K] = (r - ρ) + rank(Y^T C) with
    rank(Y^T C) = ρ, the cutoff of Y^T C relative to 1.  As
    ``σ_min(Y^T C) >= σ_ρ(Λ C) / λ_1``, and ρ counts ``σ_ρ(Λ C)`` only at
    or above ``rank_rel * λ_1``, that rank is ρ unless roundoff moves a
    singular value across the cutoff: no pair with rank(Y^T C) < ρ was
    found, here or on the families above.  The SVD of [C, K] took its
    cutoff relative to ``σ_1([C, K])``, which exceeds 1 when R(C) and K are
    not orthogonal.  Here a direction of S at a sine of 1.1 * rank_rel from
    N(A), along the largest eigenvalue, leaves ``σ_min([C, K]) = 1.1e-3``
    under ``rank_rel * 1.30``, so the SVD read False.  The pair is already
    flagged: it is not compatible, and flags 5 and 6 fail (the direction is
    inside the angle cutoff of the overlap but counts toward the rank of C).
    """
    tol = Tolerance(rank_rel=1e-3)
    weight = PsdOperator.from_matrix(np.diag([1.0, 1.0, 0.01, 0.0]), tol)
    sine, half = 1.1e-3, np.sqrt(0.5)
    span = Subspace(4, np.array([[sine, 0.0], [0.0, half], [0.0, half], [np.sqrt(1.0 - sine**2), 0.0]]))
    report = compatibility_diagnostics(weight, span, tol)
    assert report.chain == (False, True, True, True, False, False)
    assert report.sum_check
    rank, rho = rank_of_y_c(weight, span, tol)
    assert rank == rho > 0
    assert flag3_and_sum_check_by_svds(weight, span, tol) == (True, False)
    assert not diagnostics_by_subspaces(weight, span, tol)["sum_check"]


def test_shift_rechecks_are_true_where_the_inclusion_read_false():
    """The one pair of the ill-conditioned parity family on which the
    inclusion ``R(U^T Λ U_c) ⊆ R(U^T Λ U)`` read False: pair 77 of
    ``tests/parity.py``'s ``ill`` set (n = 9, rank 8, dim S = 7, the
    eigenvalues spread over the 12 decades ``rank_rel`` allows).  The
    residual of the pair's own coupling equation misses its bound, so
    ``compatible`` and flag 1 read False.  The inclusion missed its bound
    the same way (residual 1.7e-8 against 4.8e-9), although ``U^T Λ U``
    keeps full rank 7 at a condition number of 1.2e10.  Both re-checks
    report the theorem, and the other flags and ``sum_check`` read as
    before.
    """
    tol = Tolerance(rank_rel=1e-12)
    rng = np.random.default_rng([1501, 0])
    for _ in range(78):
        weight, span = make_ill_conditioned_pair(rng, tol)
    assert (weight.dim, weight.rank, span.dim) == (9, 8, 7)
    assert not shift_rechecks_by_inclusion(weight, span, tol)
    report = compatibility_diagnostics(weight, span, tol)
    assert not report.compatible
    assert report.chain == (False, True, True, True, True, True)
    assert report.sum_check
    assert report.projected_pair_compatible and report.shifted_pair_compatible
