"""The identity battery's stacked sampled checks against their loops.

``hermitian_tests_agree``, ``norm_minimality``, ``family_extension_constant``,
``chart_isometry`` and ``witness_minimal_norm`` draw each check's samples as
one array per stack and evaluate them in stacked form; the oracles in
``support`` draw and evaluate one sample at a time.  On the same generator
both must reach the same verdicts, count the same disagreements, raise the
same exception and, when they return, leave the generator in the same
state.  ``chart_isometry``'s detail measures roundoff in sums whose order
the stacking changes, so it is compared within a hundredth of ``eq_abs``.
The two family checks form each member, its spectral norm and its chart
extension with the operations a loop applies to one member, so their
details agree bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obliqueproj import (
    DEFAULT_TOL,
    Error,
    NotExtendable,
    NotInRange,
    NotPsd,
    PsdOperator,
    Subspace,
    Tolerance,
    lift,
    oblique,
    oprange,
)
from obliqueproj.report import (
    _STACK_ENTRIES,
    SAMPLES,
    _chart_isometry,
    _family_extension_constant,
    _hermitian_tests_agree,
    _norm_minimality,
    _stacks,
    _witness_minimal_norm,
)
from support import (
    chart_isometry_by_loop,
    family_extension_constant_by_loop,
    hermitian_tests_agree_by_loop,
    make_pair,
    make_psd,
    norm_minimality_by_loop,
    random_orthogonal,
    witness_minimal_norm_by_loop,
)

SCALES = (1e-9, 1e-3, 1.0, 1e3, 1e9)
PAIRS_PER_SCALE = 12


@pytest.fixture(scope="module")
def cases():
    """(label, weight, span, tol): random pairs at every scale, the edge
    dimensions and sizes, and a tolerance under which the samples leave R(A)."""
    rng = np.random.default_rng(11)
    out = []
    for c in SCALES:
        for _ in range(PAIRS_PER_SCALE):
            weight, span = make_pair(rng)
            try:
                out.append((c, PsdOperator.from_matrix(c * weight.base), span, DEFAULT_TOL))
            except NotPsd:  # the tolerance defect at large scales
                continue
    for n in (1, 4, 7):
        for rank, k in ((0, 0), (0, n), (n, 0), (n, n), (n // 2, 0), (n // 2, n), (0, n // 2), (n, n // 2)):
            out.append((f"n={n} rank={rank} dim={k}", *make_pair(rng, n, rank, k), DEFAULT_TOL))
    # R^0, and n = 64, past the size at which the samples fill one stack
    out.append(("n=0", PsdOperator.from_matrix(np.zeros((0, 0))), Subspace(0, np.zeros((0, 0))), DEFAULT_TOL))
    out.append(("n=64", *make_pair(rng, 64, 32, 21), DEFAULT_TOL))
    # An eigenvalue of 1e-4 under a rank cutoff of 1e-3: A x keeps a part
    # outside the computed R(A), far beyond eq_abs, and lift refuses it.
    q = random_orthogonal(rng, 5)
    coarse = Tolerance(rank_rel=1e-3)
    weight = PsdOperator.from_matrix((q * np.array([1.0, 0.7, 1e-4, 0.0, 0.0])) @ q.T, coarse)
    out.append(("dropped eigenvalue", weight, make_pair(rng, 5, 0, 2)[1], coarse))
    # n = 64 with dim(S ∩ N(A)) = 5: the 100 family members of
    # norm_minimality take two stacks.
    out.append(("n=64 overlap", *make_pair(rng, 64, 16, 21), DEFAULT_TOL))
    return out


def outcome(check, seed, *args):
    """The record a check returns, or the exception it raises, and the
    generator state after it."""
    rng = np.random.default_rng(seed)
    try:
        result = check(rng, *args)
    except Error as exc:
        result = (type(exc), str(exc))
    return result, rng.bit_generator.state


def assert_same(stacked, loop, detail_gap=0.0):
    (got, state), (want, want_state) = stacked, loop
    if isinstance(want, tuple):
        # the loop stops drawing at its first failing sample; the battery
        # ends there, so the generator state after it is never read
        assert got == want
        return
    assert state == want_state
    assert got.keys() == want.keys()
    assert {k: got[k] for k in ("name", "pass", "applicable")} == {
        k: want[k] for k in ("name", "pass", "applicable")
    }
    if "detail" in want:  # an inapplicable check has none
        assert abs(got["detail"] - want["detail"]) <= detail_gap


def test_hermitian_tests_agree_matches_loop(cases):
    disagreeing = []
    for label, weight, span, tol in cases:
        geometry = oblique._geometry(weight, span, tol)
        bound = oblique._hermitian_bound(weight.base, tol)
        # A bound near the typical ||AQ - Q^T A|| splits the samples, so the
        # count also tells which projections were drawn.
        split = np.linalg.norm(weight.base) * np.sqrt(span.dim * (weight.dim - span.dim))
        for seed in (0, 3):
            stacked = outcome(_hermitian_tests_agree, seed, geometry, bound)
            assert_same(stacked, outcome(hermitian_tests_agree_by_loop, seed, geometry, bound))
            if stacked[0]["detail"]:
                disagreeing.append(label)
            assert_same(
                outcome(_hermitian_tests_agree, seed, geometry, split),
                outcome(hermitian_tests_agree_by_loop, seed, geometry, split),
            )
    # The tolerance defect at c = 1e-9 (the algebraic test passes every Q
    # there) shows in the stacked count as in the loop's.
    assert 1e-9 in disagreeing


@pytest.mark.parametrize(
    "stacked, loop, detail_gap",
    [
        (_chart_isometry, chart_isometry_by_loop, 1e-2 * DEFAULT_TOL.eq_abs),
        (_witness_minimal_norm, witness_minimal_norm_by_loop, 0.0),
    ],
)
def test_lifted_checks_match_loop(cases, stacked, loop, detail_gap):
    raised = []
    for label, weight, span, tol in cases:
        for seed in (0, 3):
            got = outcome(stacked, seed, weight, tol)
            assert_same(got, outcome(loop, seed, weight, tol), detail_gap)
            if isinstance(got[0], tuple):
                raised.append(label)
    assert raised == ["dropped eigenvalue"] * 2


def test_family_checks_match_loop(cases):
    overlapping, raised = [], []
    for label, weight, span, tol in cases:
        geometry = oblique._geometry(weight, span, tol)
        try:
            extension = oprange.RangeSpaceProjection(geometry).extension
        except NotExtendable:
            # P fails the extension test as its members do, which raise
            # before the extension of P is read.
            extension = None
        for seed in (0, 3):
            got = outcome(_norm_minimality, seed, geometry)
            assert_same(got, outcome(norm_minimality_by_loop, seed, geometry))
            if got[0]["applicable"]:
                overlapping.append(label)
            got = outcome(_family_extension_constant, seed, geometry, extension)
            assert_same(got, outcome(family_extension_constant_by_loop, seed, geometry, extension))
            if isinstance(got[0], tuple):
                raised.append(label)
    assert "n=64 overlap" in overlapping
    assert raised == ["dropped eigenvalue"] * 2


def test_norm_minimality_splits_its_stack(cases, monkeypatch):
    # 100 members of 64 x 64 exceed _STACK_ENTRIES: 64 fit in the first stack.
    label, weight, span, tol = cases[-1]
    assert label == "n=64 overlap"
    geometry = oblique._geometry(weight, span, tol)
    stacked, svd = [], np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        if np.ndim(a) > 2:
            stacked.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert _norm_minimality(np.random.default_rng(0), geometry)["pass"]
    assert stacked == [(64, 64, 64), (36, 64, 64)]


@pytest.mark.parametrize("n", [0, 1, 8, 51, 52, 64, 115, 512, 513])
@pytest.mark.parametrize("count", [1, 20, SAMPLES])
def test_stacks_stay_within_the_entry_bound(n, count):
    # Every sample once, no stack over _STACK_ENTRIES entries unless it holds
    # one matrix that alone is larger, and every stack but the last full.
    sizes = list(_stacks(count, n))
    assert sum(sizes) == count
    assert all(size * n * n <= _STACK_ENTRIES or size == 1 for size in sizes)
    assert all((size + 1) * n * n > _STACK_ENTRIES for size in sizes[:-1])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
    st.integers(0, 5),
    st.integers(0, 2**32 - 1),
)
def test_witnesses_match_lift(shape, m, seed):
    # Columns in R(A), some pushed out along N(A) by up to 1e-6: the bound
    # is eq_abs * (1 + ||u||), so both verdicts occur.
    (n, rank), rng = shape, np.random.default_rng(seed)
    weight = make_psd(rng, n, rank)
    u = weight.base @ rng.normal(size=(n, m))
    null = weight.null_subspace.basis
    u += null @ (rng.normal(size=(n - rank, m)) * 10.0 ** rng.integers(-12, -5, size=m))
    columns = []
    for j in range(m):
        try:
            columns.append(lift(weight, u[:, j]).witness)
        except NotInRange:
            columns.append(None)
    if any(column is None for column in columns):
        with pytest.raises(NotInRange, match="not in the range of the weight"):
            oprange._witnesses(weight, u, DEFAULT_TOL)
        return
    block = oprange._witnesses(weight, u, DEFAULT_TOL)
    assert block.shape == (n, m)
    for j, column in enumerate(columns):
        gap = np.linalg.norm(block[:, j] - column)
        assert gap <= 1e-13 * (1.0 + np.linalg.norm(u[:, j]))
