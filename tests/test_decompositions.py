"""Decomposition budgets of the entry points, counted at numpy.

``np.linalg.norm(m, 2)`` calls the ``svd`` bound inside ``numpy.linalg._linalg``
rather than ``np.linalg.svd``, so both bindings are counted.
"""

import numpy as np
import numpy.linalg._linalg as np_linalg_impl
import pytest

from obliqueproj import (
    PsdOperator,
    oblique,
    chart_extension,
    chart_projected_range,
    cli,
    compatibility_diagnostics,
    extension_matches_projection,
    induced_projection,
    is_weight_hermitian,
    range_inclusion,
    reduced_solution,
    spline_with_weight,
    weighted_projection,
)
from obliqueproj.report import identity_battery
from support import make_overlapping_pair

N = 24


@pytest.fixture
def counted(monkeypatch):
    """Records the input shape of every SVD and eigh numpy performs, and the
    mode and input shape of every QR."""
    calls = {"svd": [], "eigh": [], "qr": []}
    svd, eigh, qr = np.linalg.svd, np.linalg.eigh, np.linalg.qr

    def counting_svd(a, *args, **kwargs):
        calls["svd"].append(np.shape(a))
        return svd(a, *args, **kwargs)

    def counting_eigh(a, *args, **kwargs):
        calls["eigh"].append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def counting_qr(a, mode="reduced"):
        calls["qr"].append((mode, np.shape(a)))
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np_linalg_impl, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    return calls


def complete_qr_of_n_rows(calls):
    """The complete QRs of an n-row input: each builds an n x n orthogonal factor."""
    return [shape for mode, shape in calls["qr"] if mode == "complete" and shape[0] == N]


@pytest.fixture(scope="module")
def pair():
    # rank n/2, dim S = n/3, and S meets N(A) in n/8 dimensions
    rng = np.random.default_rng(2024)
    weight, span = make_overlapping_pair(rng, N, N // 2, N // 3, N // 8)
    return weight, span, rng.normal(size=N)


def test_weighted_projection_budget(pair, counted):
    weight, span, _ = pair
    weighted_projection(weight, span)
    assert len(counted["svd"]) <= 3
    assert counted["eigh"] == []
    assert (N, N) not in counted["svd"]
    # P = B_S (B_S^T + a^+ (B_S^T A - a B_S^T)) needs no basis of S^perp
    assert complete_qr_of_n_rows(counted) == []


def test_compatibility_diagnostics_budget(pair, counted):
    weight, span, _ = pair
    report = compatibility_diagnostics(weight, span)
    assert all(report.chain) and report.sum_check
    assert counted["eigh"] == []
    # the report publishes the coupling in the frame of S^perp, so it builds
    # that basis once; this also shows the QR counter sees the library's calls
    assert complete_qr_of_n_rows(counted) == [(N, span.dim)]
    # no n x n input, which also rules out spectral_norm(A)
    assert (N, N) not in counted["svd"]
    assert len(counted["svd"]) <= 8


def test_is_weight_hermitian_reads_the_eigenvectors(pair, counted):
    weight, span, _ = pair
    projection = weighted_projection(weight, span)
    counted["svd"].clear()
    assert is_weight_hermitian(projection, weight, span)
    assert counted["eigh"] == []
    assert len(counted["svd"]) == 1
    assert (N, N) not in counted["svd"]


def test_spline_with_weight_reuses_the_eigendecomposition(pair, counted):
    weight, span, x = pair
    result = spline_with_weight(weight, span, x)
    assert result.freedom.dim == N // 8
    assert counted["eigh"] == []
    # a^+ and the overlap; no projection, nullspace or split of R^r
    assert len(counted["svd"]) <= 2
    assert complete_qr_of_n_rows(counted) == []


def test_from_matrix_makes_one_eigh(pair, counted):
    weight, _, _ = pair
    rebuilt = PsdOperator.from_matrix(weight.base)
    assert counted == {"svd": [], "eigh": [(N, N)], "qr": []}
    # the n x n products are derived on first read, not formed here
    assert not {"sqrt", "pinv", "sqrt_pinv", "range_proj"} & set(vars(rebuilt))


def test_one_pseudoinverse_per_solve(counted):
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 3)) @ rng.normal(size=(3, 5))
    b = a @ rng.normal(size=(5, 2))
    assert range_inclusion(b, a)
    assert len(counted["svd"]) == 1
    reduced_solution(a, b)
    # the pseudoinverse, then the spectral norm of the solution
    assert counted["svd"][1:] == [a.shape, (5, 2)]


def test_identity_battery_budget(pair, counted):
    # The battery decomposes the pair once and takes the projection, the
    # overlap, the diagnostics, every family member and the chart projection
    # from that one value.
    weight, span, _ = pair
    assert all(check["pass"] for check in identity_battery(weight, span))
    assert counted["eigh"] == []
    assert len(counted["svd"]) == 328


def test_identity_battery_builds_one_chart(pair, monkeypatch):
    # One pair geometry for the battery and one per spline sample (20); one
    # sqrt image, read by the diagnostics and by every chart identity.
    builds = {"geometry": 0, "sqrt_image": 0}
    geometry, sqrt_image = oblique._Geometry, oblique._sqrt_image

    def counting_geometry(*args):
        builds["geometry"] += 1
        return geometry(*args)

    def counting_sqrt_image(*args):
        builds["sqrt_image"] += 1
        return sqrt_image(*args)

    monkeypatch.setattr(oblique, "_Geometry", counting_geometry)
    monkeypatch.setattr(oblique, "_sqrt_image", counting_sqrt_image)
    weight, span, _ = pair
    assert all(check["pass"] for check in identity_battery(weight, span))
    assert builds == {"geometry": 21, "sqrt_image": 1}


def test_cli_oprange_decomposes_the_pair_once(workloads, tmp_path, counted):
    # One pair geometry and one chart projection serve the whole report;
    # S^perp ∩ R(A) is read in R^r, so no n x n complement is formed.
    round_ = workloads._make_round(np.random.default_rng(0), tmp_path, "count", 64)
    (argv,) = [inv.argv for inv in round_.invocations if inv.stage == "oprange"]
    for calls in counted.values():
        calls.clear()  # making the inputs decomposes too
    assert cli.main(argv) == 0
    assert counted["eigh"] == [(64, 64)]
    assert len(counted["svd"]) <= 9
    # the subspace load is the only SVD of a 64-row input
    assert [shape for shape in counted["svd"] if shape[0] == 64] == [(64, 64 // 3)]
    assert [shape for mode, shape in counted["qr"] if mode == "complete" and shape[0] == 64] == []


def test_chart_helpers_take_no_square_svd(pair, counted):
    weight, span, _ = pair
    projection = weighted_projection(weight, span)
    chart_extension(weight, projection.matrix)
    induced_projection(weight, span)
    chart_projected_range(weight, span)
    assert extension_matches_projection(weight, span)
    assert counted["eigh"] == []
    assert (N, N) not in counted["svd"]
