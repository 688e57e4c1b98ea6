"""One rank decision per pair: the minimal projection's dimensions add up.

The pair record decides the dimension of S's image in R(A) once, by the
angle rule on the sines of ``C = V_r^T B_S``, and derives the overlap, the
split of R^r and the coupling from that one decision.  So whenever
``weighted_projection`` returns, its range and its certified nullspace
have dimensions that add up to n.  Checked on the hard families of
``tests/parity.py``, with the same generators and seeds: ``ill`` and
``near`` at each ``rank_rel``, and the benign and adversarial integer pairs
of ``exact``.
"""

import numpy as np
import pytest

from exact import integer_family
from obliqueproj import Incompatible, NotPsd, PsdOperator, Tolerance, subspace_from_span, weighted_projection
from support import make_ill_conditioned_pair, make_near_null_pair


def family(make, seed, rank_rels):
    for i, rank_rel in enumerate(rank_rels):
        tol = Tolerance(rank_rel=rank_rel)
        rng = np.random.default_rng([seed, i])
        for _ in range(100):
            yield (*make(rng, tol), tol)


def exact_pairs():
    families = [(0, np.random.default_rng(0), 300)]
    families += [(p, np.random.default_rng([1503, p]), 200) for p in (2, 4, 6, 8)]
    for p, rng, count in families:
        for pair in integer_family(rng, count, p):
            a, span = np.array(pair.a, dtype=float), np.array(pair.span, dtype=float).reshape(-1, pair.n).T
            try:
                weight = PsdOperator.from_matrix(a)
            except NotPsd:  # from_matrix's absolute eigenvalue rule (ROADMAP item 3)
                continue
            yield weight, subspace_from_span(span), Tolerance()


FAMILIES = {
    "ill": lambda: family(make_ill_conditioned_pair, 1501, (1e-12, 1e-10, 1e-7, 1e-4)),
    "near": lambda: family(make_near_null_pair, 1502, (1e-10, 1e-7, 1e-4, 1e-2)),
    "exact": exact_pairs,
}


@pytest.mark.parametrize("name", FAMILIES)
def test_projection_dimensions_add_up(name):
    returned = off = 0
    for weight, span, tol in FAMILIES[name]():
        try:
            projection = weighted_projection(weight, span, tol)
        except Incompatible:
            continue
        returned += 1
        off += projection.range.dim + projection.nullspace.dim != weight.dim
    assert returned > 250 and off == 0
