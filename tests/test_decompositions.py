"""Decomposition budgets of the entry points, counted at numpy.

``np.linalg.norm(m, 2)`` calls the ``svd`` bound inside ``numpy.linalg._linalg``
rather than ``np.linalg.svd``, so both bindings are counted.  A budget counts
factorizations, not calls: a stacked call on an input of shape (..., m, n)
factorizes ``prod(shape[:-2])`` matrices.
"""

import math

import numpy as np
import numpy.linalg._linalg as np_linalg_impl
import pytest

from obliqueproj import (
    PsdOperator,
    oblique,
    oprange,
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


class Calls(dict):
    """Input shapes per decomposition kind, with (mode, shape) for QR, and
    in ``values_only`` the input shapes of the SVDs that skip the vectors."""

    values_only: list

    def factorizations(self, kind: str) -> int:
        shapes = [entry[1] if kind == "qr" else entry for entry in self[kind]]
        return sum(math.prod(shape[:-2]) for shape in shapes)


@pytest.fixture
def counted(monkeypatch):
    """Records the input shape of every SVD and eigh numpy performs, and the
    mode and input shape of every QR."""
    calls = Calls(svd=[], eigh=[], qr=[])
    calls.values_only = []
    svd, eigh, qr = np.linalg.svd, np.linalg.eigh, np.linalg.qr

    def counting_svd(a, *args, **kwargs):
        calls["svd"].append(np.shape(a))
        if not kwargs.get("compute_uv", True):
            calls.values_only.append(np.shape(a))
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


def qr_of_n_rows(calls, n=N):
    """The (mode, shape) of every QR of an n-row input.  A complete QR builds
    an n x n orthogonal factor; a raw one returns only the reflectors."""
    return [(mode, shape) for mode, shape in calls["qr"] if shape[0] == n]


@pytest.fixture(scope="module")
def pair():
    # rank n/2, dim S = n/3, and S meets N(A) in n/8 dimensions
    rng = np.random.default_rng(2024)
    weight, span = make_overlapping_pair(rng, N, N // 2, N // 3, N // 8)
    return weight, span, rng.normal(size=N)


def test_weighted_projection_budget(pair, counted):
    weight, span, _ = pair
    weighted_projection(weight, span)
    assert counted.factorizations("svd") <= 3
    assert counted["eigh"] == []
    assert (N, N) not in counted["svd"]
    # P = B_S (B_S^T + a^+ (B_S^T A - a B_S^T)) needs no basis of S^perp
    assert qr_of_n_rows(counted) == []


def test_compatibility_diagnostics_budget(pair, counted):
    weight, span, _ = pair
    report = compatibility_diagnostics(weight, span)
    assert all(report.chain) and report.sum_check
    assert counted["eigh"] == []
    # the report publishes the coupling in the frame of S^perp, so it builds
    # that basis once, from the Householder reflectors of B_S and without an
    # n x n orthogonal factor; this also shows the QR counter sees the
    # library's calls
    assert qr_of_n_rows(counted) == [("raw", (N, span.dim))]
    assert [shape for mode, shape in qr_of_n_rows(counted) if mode == "complete"] == []
    # no n x n input, which also rules out spectral_norm(A)
    assert (N, N) not in counted["svd"]
    # C, a^+, C^T Λ, the nullspace for flag 3, the sum check and the
    # shifted-pair inclusion; flags 2 and 4 hold by construction
    assert counted.factorizations("svd") == 6


def test_compatibility_diagnostics_evaluates_no_chart_image(pair, monkeypatch):
    images = []
    sqrt_image = oprange._sqrt_image

    def counting_sqrt_image(*args):
        images.append(args)
        return sqrt_image(*args)

    monkeypatch.setattr(oprange, "_sqrt_image", counting_sqrt_image)
    weight, span, _ = pair
    compatibility_diagnostics(weight, span)
    assert images == []
    # the counter sees the chart's own read
    oprange.range_space_projection(weight, span).range_image
    assert len(images) == 1


def test_is_weight_hermitian_reads_the_eigenvectors(pair, counted):
    weight, span, _ = pair
    projection = weighted_projection(weight, span)
    counted["svd"].clear()
    assert is_weight_hermitian(projection, weight, span)
    assert counted["eigh"] == []
    assert counted.factorizations("svd") == 1
    assert (N, N) not in counted["svd"]


def test_spline_with_weight_reuses_the_eigendecomposition(pair, counted):
    weight, span, x = pair
    result = spline_with_weight(weight, span, x)
    assert result.freedom.dim == N // 8
    assert counted["eigh"] == []
    # a^+ and the overlap; no projection, nullspace or split of R^r
    assert counted.factorizations("svd") <= 2
    assert qr_of_n_rows(counted) == []


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
    assert counted.factorizations("svd") == 1
    reduced_solution(a, b)
    # the pseudoinverse, then the spectral norm of the solution
    assert counted["svd"][1:] == [a.shape, (5, 2)]


def test_identity_battery_budget(pair, counted):
    # The battery decomposes the pair once and takes the projection, the
    # overlap, the preimage, the diagnostics, every family member and the
    # chart projection from that one value.
    weight, span, _ = pair
    assert all(check["pass"] for check in identity_battery(weight, span))
    assert counted["eigh"] == []
    assert counted.factorizations("svd") == 324
    # hermitian_tests_agree factorizes its 100 null spaces in one stacked
    # call, and norm_minimality takes the spectral norms of its 100 family
    # members from one stacked values-only call.
    assert len(counted["svd"]) == 126
    assert (100, N, N - span.dim) in counted["svd"]
    assert (100, N, N) in counted.values_only
    # No family member is factorized by QR: the only QR of an N-row input
    # is the raw one behind S^perp; the other four act on r = rank A rows.
    assert qr_of_n_rows(counted) == [("raw", (N, span.dim))]
    assert len(counted["qr"]) == 5


def test_identity_battery_builds_one_chart(pair, monkeypatch):
    # One pair geometry for the battery and one per spline sample (20); one
    # chart image of A^{1/2} S, read by every chart identity.
    builds = {"geometry": 0, "sqrt_image": 0}
    geometry, sqrt_image = oblique._Geometry, oprange._sqrt_image

    def counting_geometry(*args):
        builds["geometry"] += 1
        return geometry(*args)

    def counting_sqrt_image(*args):
        builds["sqrt_image"] += 1
        return sqrt_image(*args)

    monkeypatch.setattr(oblique, "_Geometry", counting_geometry)
    monkeypatch.setattr(oprange, "_sqrt_image", counting_sqrt_image)
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
    assert counted.factorizations("svd") <= 9
    # the subspace load is the only SVD of a 64-row input
    assert [shape for shape in counted["svd"] if shape[0] == 64] == [(64, 64 // 3)]
    assert qr_of_n_rows(counted, 64) == []


def test_cli_project_block_splits_the_pair_once(workloads, tmp_path, counted):
    # The block projection and the Hermitian check read A^{-1}(S^perp) off
    # one pair geometry, so C^T Λ is split once.
    round_ = workloads._make_round(np.random.default_rng(0), tmp_path, "count", 64)
    (argv,) = [inv.argv for inv in round_.invocations if inv.stage == "project"]
    assert argv[argv.index("--formula") + 1] == "block"
    for calls in counted.values():
        calls.clear()
    assert cli.main(argv) == 0
    assert counted["eigh"] == [(64, 64)]
    # the subspace load, C, a^+ and C^T Λ; the pinv agreement check's
    # pseudoinverse, overlap and nullspace
    assert counted.factorizations("svd") == 7
    dim_s, rank = 64 // 3, 64 // 2
    assert counted["svd"].count((dim_s, rank)) == 1


def test_chart_helpers_take_no_square_svd(pair, counted):
    weight, span, _ = pair
    projection = weighted_projection(weight, span)
    chart_extension(weight, projection.matrix)
    induced_projection(weight, span)
    chart_projected_range(weight, span)
    assert extension_matches_projection(weight, span)
    assert counted["eigh"] == []
    assert (N, N) not in counted["svd"]
