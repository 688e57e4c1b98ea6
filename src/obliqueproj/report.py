"""The invariant battery behind the CLI ``report`` command.

Each check evaluates one executable identity of the theory on a concrete
pair (A, S) and yields a pass/fail record with an error metric.  Randomized
checks draw from a single seeded generator in a fixed order, so a report is
a deterministic function of (inputs, tolerances, seed).  Six checks draw
their samples as arrays and evaluate them in stacked form:
``hermitian_tests_agree``, ``norm_minimality`` and
``family_extension_constant`` one array per stack of n x n samples (a
single stack for n <= 51), ``chart_isometry`` and ``witness_minimal_norm``
one array of vectors, and ``spline_agrees_normal_equations`` one
(20, n, 1) stack of vectors.  The arrays hold the values a loop over the
samples would draw, in the same stream order, so every later check sees
the same generator state.  ``spline_agrees_normal_equations`` reads its
interpolants off the battery's own pair geometry, and its oracle, the
normal-equation solve, factorizes once; numpy takes each product of an
(n, 1) stack with the gemv or dot kernel of one vector, so each of its
values is the one a loop would compute, bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import douglas, interpolant, oblique, oprange
from .linalg import (
    DEFAULT_TOL,
    PsdOperator,
    Subspace,
    Tolerance,
    _agree,
    _clip_sign,
    _contains_bases,
    _frobenius,
    _norm,
    _norms,
    _operator_norm,
    _within,
    complement,
    intersect,
    nullspace_of,
    spectral_norm,
    subspace_equal,
    subspace_from_span,
)

SAMPLES = 100
_STACK_ENTRIES = 2**18  # 2 MB of float64


def _record(name: str, ok: bool, detail: float | None = None, applicable: bool = True) -> dict:
    rec = {"name": name, "pass": bool(ok), "applicable": bool(applicable)}
    if detail is not None:
        rec["detail"] = float(detail)
    return rec


def _stacks(count: int, n: int):
    # The sizes of the stacks in which a check evaluates count sampled n x n
    # matrices, in sample order.  Each stack holds at most _STACK_ENTRIES
    # entries, so its memory stays flat in n (100 samples fill one stack
    # for n <= 51).
    step = max(1, _STACK_ENTRIES // max(1, n * n))
    for start in range(0, count, step):
        yield min(step, count - start)


def _hermitian_tests_agree(rng: np.random.Generator, geometry: oblique._Geometry, anchor: float) -> dict:
    # Hermitian symmetry and nullspace containment decide the same question
    # on sampled projections with the prescribed range, Q = B_S (B_S^T +
    # X B_perp^T): ||A Q - Q^T A|| under the residual rule at ``anchor``,
    # and N(Q), the span of B_perp - B_S X, inside A^{-1}(S^perp).  The
    # samples are evaluated as stacks; B_perp^T (B_perp - B_S X) = I, so its
    # columns are independent and a stacked QR gives each null space (with
    # S^perp = 0, an (n, 0) basis, contained in any subspace).
    tol, bs, bp = geometry.tol, geometry.span.basis, geometry.perp.basis
    disagreements = 0
    for size in _stacks(SAMPLES, bs.shape[0]):
        x = rng.normal(size=(size, bs.shape[1], bp.shape[1]))
        q = bs @ bs.T + bs @ x @ bp.T
        algebraic = _within(geometry.hermitian_gaps(q), anchor, tol)
        containment = _contains_bases(geometry.preimage, np.linalg.qr(bp - bs @ x)[0], tol)
        disagreements += int(np.count_nonzero(algebraic != containment))
    return _record("hermitian_tests_agree", disagreements == 0, disagreements)


def _members(rng: np.random.Generator, geometry: oblique._Geometry, count: int):
    # count weight-Hermitian projections onto S, P + N T B_perp^T with N a
    # basis of S ∩ N(A), as stacks of _stacks(); the coefficients T are
    # drawn stack by stack in the stream order of one draw per member.
    p, nb, bp = geometry.projection.matrix, geometry.overlap.basis, geometry.perp.basis
    for size in _stacks(count, geometry.weight.dim):
        t = rng.normal(size=(size, nb.shape[1], bp.shape[1]))
        yield p + nb @ t @ bp.T


def _norm_minimality(rng: np.random.Generator, geometry: oblique._Geometry) -> dict:
    # P is the member of least spectral norm in its family; without an
    # overlap the family is P alone.
    if not geometry.overlap.dim:
        return _record("norm_minimality", True, applicable=False)
    p_norm = spectral_norm(geometry.projection.matrix)
    worst = 0.0
    for members in _members(rng, geometry, SAMPLES):
        norms = np.linalg.svd(members, compute_uv=False)[:, 0]
        worst = max(worst, float(np.max(p_norm - norms)))
    return _record("norm_minimality", _within(worst, 1.0, geometry.tol), worst)


def _family_extension_constant(
    rng: np.random.Generator, geometry: oblique._Geometry, extension: np.ndarray
) -> dict:
    # Every member of the family extends to the chart as P does.
    worst = 0.0
    for members in _members(rng, geometry, 20):
        extensions = oprange._chart_extensions(geometry.weight, members, geometry.tol)
        worst = max(worst, float(np.max(_frobenius(extensions - extension))))
    return _record("family_extension_constant", _agree(worst, geometry.tol), worst)


def _chart_isometry(rng: np.random.Generator, weight: PsdOperator, tol: Tolerance) -> dict:
    # <lift(A x), lift(A y)> in the range space is x^T A y, on sampled x, y.
    n = weight.dim
    xy = rng.normal(size=(SAMPLES, 2, n))
    images = weight.base @ xy.reshape(2 * SAMPLES, n).T  # A x_i and A y_i, alternating
    witnesses = oprange._witnesses(weight, images, tol)
    lhs = np.einsum("ij,ij->j", witnesses[:, 0::2], witnesses[:, 1::2])
    rhs = np.einsum("ij,ji->i", xy[:, 0], images[:, 1::2])
    worst = max(0.0, float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs)))))
    return _record("chart_isometry", _within(worst, 1.0, tol), worst)


def _witness_minimal_norm(rng: np.random.Generator, weight: PsdOperator, tol: Tolerance) -> dict:
    # Adding nullspace noise to the witness of a sampled A u never shortens it.
    n = weight.dim
    draws = rng.normal(size=(SAMPLES, 2 * n - weight.rank))  # u_i, then its noise
    witnesses = oprange._witnesses(weight, weight.base @ draws[:, :n].T, tol)
    noisy = witnesses + weight.null_subspace.basis @ draws[:, n:].T
    gaps = _norms(witnesses, 0) - _norms(noisy, 0)
    worst = max(0.0, float(np.max(gaps)))
    return _record("witness_minimal_norm", _within(worst, 1.0, tol), worst)


def _spline_agrees_normal_equations(rng: np.random.Generator, geometry: oblique._Geometry) -> dict:
    # The interpolants x - P x of 20 sampled x, read off the pair geometry,
    # against the normal-equation solve on the weight's square root, whose
    # factorizations are made once.  The seminorm's sign rule, anchored at
    # λ_1 ||x||^2 for each form, is applied to the samples in draw order, so
    # NotPsd names the first negative form, as a loop over the samples
    # would, not the least.
    weight, span, tol = geometry.weight, geometry.span, geometry.tol
    normal_equations = interpolant._normal_equations(weight.sqrt, span, tol)
    x = rng.normal(size=(20, weight.dim, 1))
    direct = x - geometry.apply(x)
    rows = direct.transpose(0, 2, 1)
    forms, anchors = (rows @ (weight.base @ direct))[:, 0, 0], _operator_norm(weight) * (rows @ direct)[:, 0, 0]
    _clip_sign(forms, tol, interpolant._NEGATIVE_FORM, first=True, anchor=anchors)
    worst = float(np.max(_frobenius(direct - normal_equations.solve(x)) / (1.0 + _frobenius(x))))
    return _record("spline_agrees_normal_equations", _within(worst, 1.0, tol), worst)


def identity_battery(
    weight: PsdOperator,
    span: Subspace,
    tol: Tolerance = DEFAULT_TOL,
    seed: int = 0,
) -> list[dict]:
    """Run every identity check on the pair and return one record per check."""
    rng = np.random.default_rng(seed)
    n = weight.dim
    checks: list[dict] = []

    geometry = oblique._Geometry(weight, span, tol)
    p = geometry.projection.matrix
    overlap = geometry.overlap
    report = geometry.diagnostics()
    chart = oprange.RangeSpaceProjection(geometry)
    decomps = chart.decompositions

    gap = _norm(p @ p - p)
    checks.append(_record("projection_idempotent", _within(gap, n, tol), gap))

    # One SVD of P gives its null space and, P being square, its rank.
    null = nullspace_of(p, tol)
    range_gap = _norm(p @ span.basis - span.basis)
    rank_ok = n - null.dim == span.dim
    checks.append(_record("projection_range", _within(range_gap, n, tol) and rank_ok, range_gap))

    null_ok = subspace_equal(null, geometry.projection.nullspace, tol)
    checks.append(_record("projection_nullspace", null_ok))

    sym_gap = float(geometry.hermitian_gaps(p[None])[0])
    checks.append(_record("weight_symmetry", _within(sym_gap, geometry.hermitian_anchor, tol), sym_gap))

    # The other constructions' matrices only, without certified nullspaces.
    pinv_gap = _norm(geometry.pinv_matrix - p)
    checks.append(_record("construction_pinv_agrees", _agree(pinv_gap, tol), pinv_gap))

    if weight.rank == n:
        inv_gap = _norm(geometry.invertible_matrix - p)
        checks.append(_record("construction_inverse_agrees", _agree(inv_gap, tol), inv_gap))
    else:
        checks.append(_record("construction_inverse_agrees", True, applicable=False))

    checks.append(_hermitian_tests_agree(rng, geometry, geometry.hermitian_anchor))

    checks.append(_norm_minimality(rng, geometry))

    checks.append(_record("sqrt_image_decomposition", decomps[1]))

    # q1, the solution of P_S A P_S X = P_S A, is the pseudoinverse
    # construction's own (P_S A P_S)^+ P_S A, gated here.
    ps, bs = span.projector(), span.basis
    p_m = subspace_from_span(weight.sqrt @ bs, tol).projector()
    ps_a = ps @ weight.base
    q1 = douglas._checked(ps_a @ ps, geometry.pinv_strip, ps_a, tol, gate=True)[0]
    q2 = douglas._solve(weight.sqrt @ ps, p_m @ weight.sqrt, tol, gate=True)[0]
    pair_gap = _norm(q1 - q2)
    strip_gap = _norm((p - overlap.projector()) - q1)
    coincide = _agree(pair_gap, tol) and _agree(strip_gap, tol)
    checks.append(_record("reduced_solutions_coincide", coincide, max(pair_gap, strip_gap)))

    if overlap.dim == 0:
        image_perp = complement(chart.weight_image)
        split_ok = span.dim + image_perp.dim == n and intersect(span, image_perp, tol).dim == 0
        checks.append(_record("trivial_overlap_split", split_ok))
    else:
        checks.append(_record("trivial_overlap_split", True, applicable=False))

    checks.append(_record("extension_matches_projection", chart.extension_matches))

    _, image_eq = chart.projected_range
    checks.append(_record("projected_range_equals_image", image_eq == report.compatible))

    checks.append(_family_extension_constant(rng, geometry, chart.extension))

    induced = chart.induced
    idem_gap = _norm(induced @ induced - induced)
    ok = _within(idem_gap, n, tol)
    if report.compatible:
        factor_gap = _norm(induced - weight.range_proj @ p)
        ok = ok and _agree(factor_gap, tol)
        idem_gap = max(idem_gap, factor_gap)
    checks.append(_record("induced_projection_idempotent", ok, idem_gap))

    checks.append(_record("complement_density", chart.complement_density))

    equivalent = len(set(decomps)) == 1 and decomps[0] == report.compatible
    checks.append(_record("decomposition_equivalences", equivalent))

    checks.append(_chart_isometry(rng, weight, tol))
    checks.append(_witness_minimal_norm(rng, weight, tol))

    checks.append(_spline_agrees_normal_equations(rng, geometry))

    chain_ok = all(report.chain) and oblique.chain_respects_implications(report.chain)
    checks.append(_record("diagnostics_chain", chain_ok))
    checks.append(_record("compatible_iff_sum", report.compatible == report.sum_check))
    invariant = report.projected_pair_compatible == report.compatible == report.shifted_pair_compatible
    checks.append(_record("compatibility_shift_invariant", invariant))
    return checks
