"""The chart helpers in the weight's eigen coordinates against n x n products.

``chart_extension`` and the fields of ``range_space_projection``, the
induced projection and the projected range among them, work on ``Λ`` and
``C = V_r^T B_S``; the oracles in ``support`` multiply by ``A^{1/2}``,
``(A^{1/2})^+`` and ``A^+``.  Both evaluate the same identities, so they
agree to roundoff, far inside ``eq_abs``.

The chart's ``complement_density`` and ``decompositions`` read
``S^perp ∩ R(A)`` off the SVD of ``C`` in R^r; the oracles intersect an
n x n complement of S with R(A) in R^n.  On pairs away from the angle
cutoff they decide alike, also for ``c A`` far from unit scale.
"""

import dataclasses

import numpy as np
import pytest

from obliqueproj import (
    chart_extension,
    range_space_projection,
    weighted_projection,
)
from support import (
    chart_extension_by_products,
    chart_image_of_span_by_products,
    chart_projected_range_by_products,
    complement_density_by_complements,
    decompositions_by_subspaces,
    induced_projection_by_products,
    make_overlapping_pair,
    make_pair,
    nullspace_preserving,
)

GAP = 1e-12


def assert_matches_products(rng, weight, span):
    b = nullspace_preserving(rng, weight)
    gap = np.linalg.norm(chart_extension(weight, b) - chart_extension_by_products(weight, b))
    assert gap <= GAP * (1.0 + np.linalg.norm(b))
    p = weighted_projection(weight, span).matrix
    gap = np.linalg.norm(chart_extension(weight, p) - chart_extension_by_products(weight, p))
    assert gap <= GAP * (1.0 + np.linalg.norm(p))

    proj = range_space_projection(weight, span)
    image = chart_image_of_span_by_products(weight, span)
    assert proj.range_image.dim == image.dim
    assert np.linalg.norm(proj.coord_matrix - image.projector()) <= GAP

    gap = np.linalg.norm(proj.induced - induced_projection_by_products(weight, span))
    assert gap <= GAP

    projected, equal = proj.projected_range
    oracle, oracle_equal = chart_projected_range_by_products(weight, span)
    assert equal == oracle_equal
    assert projected.dim == oracle.dim
    assert np.linalg.norm(projected.projector() - oracle.projector()) <= GAP


@pytest.mark.parametrize("n", range(2, 9))
def test_small_pairs_every_rank(n):
    rng = np.random.default_rng(1100 + n)
    for rank in range(n + 1):
        for _ in range(4):
            weight, span = make_pair(rng, n, rank)
            assert_matches_products(rng, weight, span)


@pytest.mark.parametrize("n, seed", [(32, 1), (64, 2), (128, 3)])
def test_overlapping_pairs(n, seed):
    rng = np.random.default_rng(1200 + seed)
    for rank, k, overlap in ((n // 2, n // 3, n // 8), (n - 4, n // 2, 3)):
        weight, span = make_overlapping_pair(rng, n, rank, k, overlap)
        assert_matches_products(rng, weight, span)


SCALES = (1e-6, 1.0, 1e6)


def scaled(weight, c):
    """``c A`` from the eigen data of ``A``, as in ``test_diagnostics_oracle``:
    ``from_matrix`` rejects valid weights at c = 1e6, which is not what these
    tests are about."""
    return dataclasses.replace(weight, base=c * weight.base, eigvals=c * weight.eigvals)


def assert_fields_match_subspaces(weight, span):
    chart = range_space_projection(weight, span)
    assert chart.complement_density == complement_density_by_complements(weight, span)
    assert chart.decompositions == decompositions_by_subspaces(weight, span)


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("n", range(2, 9))
def test_density_and_decompositions_every_rank(n, c):
    rng = np.random.default_rng([1300, n, SCALES.index(c)])
    for rank in range(n + 1):
        for _ in range(4):
            weight, span = make_pair(rng, n, rank)
            assert_fields_match_subspaces(scaled(weight, c), span)


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("n, seed", [(32, 1), (64, 2), (128, 3)])
def test_density_and_decompositions_overlapping(n, seed, c):
    rng = np.random.default_rng([1400, seed, SCALES.index(c)])
    for rank, k, overlap in ((n // 2, n // 3, n // 8), (n - 4, n // 2, 3)):
        weight, span = make_overlapping_pair(rng, n, rank, k, overlap)
        assert_fields_match_subspaces(scaled(weight, c), span)
