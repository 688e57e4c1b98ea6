"""The identity battery's stacked sampled checks against their loops.

``hermitian_tests_agree``, ``norm_minimality``, ``family_extension_constant``,
``chart_isometry``, ``witness_minimal_norm`` and
``spline_agrees_normal_equations`` draw each check's samples as one array
per stack and evaluate them in stacked form; the oracles in
``support`` draw and evaluate one sample at a time.  On the same generator
both must reach the same verdicts, count the same disagreements, raise the
same exception and, when they return, leave the generator in the same
state.  ``hermitian_tests_agree`` takes each sampled null space from a QR,
and the loop from ``subspace_from_span``'s rank rule; a separate test
checks the premise that makes the rule keep every column.
``chart_isometry``'s detail measures roundoff in sums whose order
the stacking changes, so it is compared within a hundredth of ``eq_abs``.
The two family checks form each member, its spectral norm and its chart
extension with the operations a loop applies to one member, so their
details agree bit for bit.

``spline_agrees_normal_equations`` reads its 20 interpolants off the
battery's own pair geometry as one (20, n, 1) stack, with one call of the
geometry and one of the normal-equation oracle; a loop over the public
``spline_with_weight`` decomposes the pair once per sample.  Numpy takes
each product of the stack with the kernel one vector takes, a premise
tested on its own, so both give every minimizer and the detail bit for bit,
and the same ``NotPsd`` message, naming the first negative form drawn.
"""

import copy
import dataclasses

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
    interpolant,
    lift,
    oblique,
    oprange,
    report,
    spline_with_weight,
)
from obliqueproj.linalg import _frobenius
from obliqueproj.report import (
    _STACK_ENTRIES,
    SAMPLES,
    _chart_isometry,
    _family_extension_constant,
    _hermitian_tests_agree,
    _norm_minimality,
    _stacks,
    _witness_minimal_norm,
    identity_battery,
)
from support import (
    chart_isometry_by_loop,
    family_extension_constant_by_loop,
    hermitian_tests_agree_by_loop,
    make_pair,
    make_psd,
    make_subspace,
    norm_minimality_by_loop,
    random_orthogonal,
    spline_agrees_normal_equations_by_loop,
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
        geometry = oblique._Geometry(weight, span, tol)
        anchor = geometry.hermitian_anchor
        # An anchor whose bound is near the typical ||AQ - Q^T A|| splits the
        # samples, so the count also tells which projections were drawn.
        split = np.linalg.norm(weight.base) * np.sqrt(span.dim * (weight.dim - span.dim)) / tol.eq_abs
        for seed in (0, 3):
            stacked = outcome(_hermitian_tests_agree, seed, geometry, anchor)
            assert_same(stacked, outcome(hermitian_tests_agree_by_loop, seed, geometry, anchor))
            if stacked[0]["detail"]:
                disagreeing.append(label)
            assert_same(
                outcome(_hermitian_tests_agree, seed, geometry, split),
                outcome(hermitian_tests_agree_by_loop, seed, geometry, split),
            )
    # The tolerance defect at c = 1e-9 (the algebraic test passes every Q
    # there) shows in the stacked count as in the loop's.
    assert 1e-9 in disagreeing


def test_sampled_null_spaces_need_no_rank_rule(cases):
    # The premise of hermitian_tests_agree's stacked QR: B_perp^T (B_perp -
    # B_S X) = I, so every singular value of B_perp - B_S X is at least 1 and
    # each sampled N(Q) has dimension n - dim S.  Checked on X far larger
    # than the battery draws; a computed singular value is exact only to
    # roundoff in the largest one, so that anchors the bound.
    rng = np.random.default_rng(12)
    for label, weight, span, tol in cases:
        bs, bp = span.basis, oblique._Geometry(weight, span, tol).perp.basis
        if not bp.size:
            continue
        for scale in (1.0, 1e4, 1e8):
            x = scale * rng.normal(size=(SAMPLES, bs.shape[1], bp.shape[1]))
            m = bp - bs @ x
            gaps = np.linalg.norm(bp.T @ m - np.eye(bp.shape[1]), axis=(1, 2))
            assert np.all(gaps <= 1e-12 * (1.0 + np.linalg.norm(x, axis=(1, 2)))), label
            values = np.linalg.svd(m, compute_uv=False)
            assert np.all(values >= 1.0 - 1e-12 * values[:, :1]), label


@pytest.mark.parametrize("n", [1, 2, 8, 64, 512])
def test_stacked_vector_products_match_single_ones(n):
    # The premise of spline_agrees_normal_equations' (20, n, 1) stack: numpy
    # takes each (k, n) @ (n, 1) product of a stack with the gemv, dot or
    # no-BLAS kernel that one vector takes, and each (1, n) @ (n, 1) with the
    # dot of two vectors, so every sample's value is the loop's bit for bit.
    # Both orders of the matrix occur: the geometry applies B_S^T, a
    # transposed view.  A numpy that sent a stack to one gemm fails here.
    rng = np.random.default_rng(n)
    m = 20
    x = rng.normal(size=(m, n))
    for k in sorted({0, 1, 3, n}):
        c_order = rng.normal(size=(k, n))
        for mat in (c_order, np.asfortranarray(c_order)):
            stacked = mat @ x[:, :, None]
            for i in range(m):
                assert stacked[i, :, 0].tobytes() == (mat @ x[i]).tobytes(), (k, i)
    y, z = rng.normal(size=(2, m, n, 1))
    dots = y.transpose(0, 2, 1) @ z
    for i in range(m):
        assert dots[i, 0, 0].tobytes() == (y[i, :, 0] @ z[i, :, 0]).tobytes(), i


@pytest.mark.parametrize("n", [0, 1, 2, 8, 64, 512])
def test_one_member_hermitian_residual_matches_the_matrix_one(n):
    # The premise of _Geometry.hermitian_gaps, which is_weight_hermitian and
    # the weight_symmetry record read on a one-member stack: numpy takes
    # each product of a (1, n, n) stack with the kernel of the 2-D product,
    # and _frobenius takes its norm as np.linalg.norm does, so residual and
    # norm are those of the matrix bit for bit, in both orders of A and Q.
    rng = np.random.default_rng(n)
    g, q = rng.normal(size=(2, n, n))
    weight = PsdOperator.from_matrix(g @ g.T)
    geometry = oblique._Geometry(weight, Subspace(n, np.zeros((n, 0))), DEFAULT_TOL)
    for q in (q, np.asfortranarray(q)):
        for a in (weight.base, np.asfortranarray(weight.base)):
            matrix = a @ q - q.T @ a
            stacked = a @ q[None] - q[None].transpose(0, 2, 1) @ a
            assert stacked[0].tobytes() == matrix.tobytes()
            assert _frobenius(stacked)[0].tobytes() == np.linalg.norm(matrix).tobytes()
        gap = geometry.hermitian_gaps(q[None])[0]
        assert gap.tobytes() == np.linalg.norm(weight.base @ q - q.T @ weight.base).tobytes()


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
        geometry = oblique._Geometry(weight, span, tol)
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
    # The coarse "dropped eigenvalue" pair raised NotExtendable while its P
    # was built from a second rank decision; P is now the projection of the
    # weight the library decided, and every member extends.
    assert raised == []


def test_spline_check_matches_loop(cases):
    # At seeds 0 and 3 the forged pair of spline_pairs() has several
    # quadratic forms under the sign cutoff, the least of them not the first
    # drawn: NotPsd names the first, as the loop's seminorm does.
    raised = []
    for label, weight, span, tol in [*cases, (*spline_pairs()[-1], DEFAULT_TOL)]:
        geometry = oblique._Geometry(weight, span, tol)
        for seed in (0, 3):
            got = outcome(report._spline_agrees_normal_equations, seed, geometry)
            assert_same(got, outcome(spline_agrees_normal_equations_by_loop, seed, geometry), 0.0)
            if isinstance(got[0], tuple):
                raised.append((label, got[0][0]))
    assert raised == [("forged", NotPsd)] * 2


def test_norm_minimality_splits_its_stack(cases, monkeypatch):
    # 100 members of 64 x 64 exceed _STACK_ENTRIES: 64 fit in the first stack.
    label, weight, span, tol = cases[-1]
    assert label == "n=64 overlap"
    geometry = oblique._Geometry(weight, span, tol)
    stacked, svd = [], np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        if np.ndim(a) > 2:
            stacked.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert _norm_minimality(np.random.default_rng(0), geometry)["pass"]
    assert stacked == [(64, 64, 64), (36, 64, 64)]


def spline_pairs():
    """(label, weight, span): the first 40 pairs of the acceptance battery's
    generator, and pair 0 of ``make_pair(default_rng(0))`` with its matrix
    forged to ``-A``, as ``test_interpolant.py`` forges an indefinite
    weight, on which the battery's per-sample seminorm raises NotPsd."""
    rng = np.random.default_rng(20260809)  # tests/test_acceptance.py's SEED
    out = []
    for i in range(40):
        n = int(rng.integers(2, 9))
        rank, k = int(rng.integers(0, n + 1)), int(rng.integers(0, n + 1))
        out.append((f"acceptance {i}", make_psd(rng, n, rank), make_subspace(rng, n, k)))
    weight, span = make_pair(np.random.default_rng(0))
    out.append(("forged", dataclasses.replace(weight, base=-weight.base), span))
    return out


def caught(fn, *args):
    try:
        return fn(*args)
    except Error as exc:
        return type(exc), str(exc)


def test_spline_samples_read_the_battery_geometry(monkeypatch):
    # One pair geometry and one normal-equation factorization per battery:
    # the oracle's N(T) is the only SVD of the factor T = A^{1/2}, made once
    # for the 20 samples (none when A = 0, whose zero factor is not
    # decomposed).
    entered, check = [], report._spline_agrees_normal_equations
    inputs, svd = [], np.linalg.svd

    def recording(rng, geometry):
        entered.append((geometry, copy.deepcopy(rng.bit_generator.state)))
        return check(rng, geometry)

    def recording_svd(a, *args, **kwargs):
        inputs.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(report, "_spline_agrees_normal_equations", recording)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    raised = []
    for label, weight, span in spline_pairs():
        entered.clear()
        inputs.clear()
        records = caught(identity_battery, weight, span)
        of_sqrt = [np.array_equal(a, weight.sqrt) for a in inputs]
        assert of_sqrt.count(True) == int(weight.sqrt.any()), label
        ((geometry, state),) = entered
        replay = np.random.default_rng()
        replay.bit_generator.state = state
        for _ in range(20):
            x = replay.normal(size=weight.dim)
            got = caught(lambda: interpolant._spline(geometry, x).minimizer)
            want = caught(lambda: spline_with_weight(weight, span, x).minimizer)
            if isinstance(want, tuple):
                assert got == want
                break
            assert got.tobytes() == want.tobytes()
        replay.bit_generator.state = state
        loop = caught(spline_agrees_normal_equations_by_loop, replay, geometry)
        if isinstance(records, tuple):
            assert records == loop
            raised.append((label, records[0]))
        else:
            (record,) = [r for r in records if r["name"] == "spline_agrees_normal_equations"]
            assert record == loop
    assert raised == [("forged", NotPsd)]


def test_spline_samples_take_one_call_each(monkeypatch):
    # The 20 samples reach the pair geometry and the normal-equation oracle
    # as one stack: one apply and one solve per battery.
    calls = []
    for cls, name in ((oblique._Geometry, "apply"), (interpolant._NormalEquations, "solve")):

        def counting(self, x, original=getattr(cls, name), name=name):
            calls.append(name)
            return original(self, x)

        monkeypatch.setattr(cls, name, counting)
    for label, weight, span in spline_pairs()[:10]:
        calls.clear()
        identity_battery(weight, span)
        assert sorted(calls) == ["apply", "solve"], label


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
