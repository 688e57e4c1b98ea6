"""Decomposition budgets of the entry points, counted at numpy.

``np.linalg.norm(m, 2)`` calls the ``svd`` bound inside ``numpy.linalg._linalg``
rather than ``np.linalg.svd``, so both bindings are counted.
"""

import numpy as np
import numpy.linalg._linalg as np_linalg_impl
import pytest

from obliqueproj import (
    chart_extension,
    chart_projected_range,
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
    """Records the input shape of every SVD and eigh numpy performs."""
    calls = {"svd": [], "eigh": []}
    svd, eigh = np.linalg.svd, np.linalg.eigh

    def counting_svd(a, *args, **kwargs):
        calls["svd"].append(np.shape(a))
        return svd(a, *args, **kwargs)

    def counting_eigh(a, *args, **kwargs):
        calls["eigh"].append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np_linalg_impl, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


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


def test_compatibility_diagnostics_budget(pair, counted):
    weight, span, _ = pair
    report = compatibility_diagnostics(weight, span)
    assert all(report.chain) and report.sum_check
    assert counted["eigh"] == []
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
    # overlap, the diagnostics and every family member from that one value.
    weight, span, _ = pair
    assert all(check["pass"] for check in identity_battery(weight, span))
    assert counted["eigh"] == []
    assert len(counted["svd"]) <= 400


def test_chart_helpers_take_no_square_svd(pair, counted):
    weight, span, _ = pair
    projection = weighted_projection(weight, span)
    chart_extension(weight, projection.matrix)
    induced_projection(weight, span)
    chart_projected_range(weight, span)
    assert extension_matches_projection(weight, span)
    assert counted["eigh"] == []
    assert (N, N) not in counted["svd"]
