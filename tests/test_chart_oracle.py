"""The chart helpers in the weight's eigen coordinates against n x n products.

``chart_extension``, ``induced_projection``, ``chart_projected_range`` and
``range_space_projection`` work on ``Λ`` and ``C = V_r^T B_S``; the oracles
in ``support`` multiply by ``A^{1/2}``, ``(A^{1/2})^+`` and ``A^+``.  Both
evaluate the same identities, so they agree to roundoff, far inside
``eq_abs``.
"""

import numpy as np
import pytest

from obliqueproj import (
    chart_extension,
    chart_projected_range,
    induced_projection,
    range_space_projection,
    weighted_projection,
)
from support import (
    chart_extension_by_products,
    chart_image_of_span_by_products,
    chart_projected_range_by_products,
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

    gap = np.linalg.norm(induced_projection(weight, span) - induced_projection_by_products(weight, span))
    assert gap <= GAP

    projected, equal = chart_projected_range(weight, span)
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
