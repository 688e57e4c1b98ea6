"""The invariant battery behind the CLI ``report`` command.

Each check evaluates one executable identity of the theory on a concrete
pair (A, S) and yields a pass/fail record with an error metric.  Randomized
checks draw from a single seeded generator in a fixed order, so a report is
a deterministic function of (inputs, tolerances, seed).  The checks
``hermitian_tests_agree``, ``chart_isometry`` and ``witness_minimal_norm``
draw their samples as one array (``hermitian_tests_agree`` one per stack of
samples when n > 51) and evaluate them in stacked form.  The arrays hold
the values a loop over the samples would draw, in the same stream order, so
every later check sees the same generator state.
"""

from __future__ import annotations

import numpy as np

from . import douglas, interpolant, oblique, oprange
from .linalg import (
    DEFAULT_TOL,
    PsdOperator,
    Subspace,
    Tolerance,
    _contains_bases,
    _operator_norm,
    _rank_from_values,
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


def _hermitian_tests_agree(rng: np.random.Generator, geometry: oblique._Geometry, bound: float) -> dict:
    # Hermitian symmetry and nullspace containment decide the same question
    # on sampled projections with the prescribed range, Q = B_S (B_S^T +
    # X B_perp^T): ||A Q - Q^T A|| within the bound, and N(Q), the span of
    # B_perp - B_S X, inside A^{-1}(S^perp).  The samples are evaluated as
    # stacks, each null space by the rank rule of subspace_from_span() on a
    # stacked SVD; every stack holds at most _STACK_ENTRIES entries of n x n
    # matrices, so its memory stays flat in n (all samples at once for n <= 51).
    span, tol, a = geometry.span, geometry.tol, geometry.weight.base
    bs, bp = span.basis, geometry.perp.basis
    step = max(1, _STACK_ENTRIES // max(1, a.size))
    disagreements = 0
    for start in range(0, SAMPLES, step):
        x = rng.normal(size=(min(step, SAMPLES - start), bs.shape[1], bp.shape[1]))
        q = bs @ bs.T + bs @ x @ bp.T
        algebraic = np.linalg.norm(a @ q - q.transpose(0, 2, 1) @ a, axis=(1, 2)) <= bound
        containment = True  # S^perp = 0: every N(Q) is zero
        if bp.shape[1]:
            u, s, _ = np.linalg.svd(bp - bs @ x, full_matrices=False)
            kept = np.arange(s.shape[1]) < _rank_from_values(s, tol)[:, None]
            containment = _contains_bases(geometry.preimage, u * kept[:, None, :], tol)
        disagreements += int(np.count_nonzero(algebraic != containment))
    return _record("hermitian_tests_agree", disagreements == 0, disagreements)


def _chart_isometry(rng: np.random.Generator, weight: PsdOperator, tol: Tolerance) -> dict:
    # <lift(A x), lift(A y)> in the range space is x^T A y, on sampled x, y.
    n = weight.dim
    xy = rng.normal(size=(SAMPLES, 2, n))
    images = weight.base @ xy.reshape(2 * SAMPLES, n).T  # A x_i and A y_i, alternating
    witnesses = oprange._witnesses(weight, images, tol)
    lhs = np.einsum("ij,ij->j", witnesses[:, 0::2], witnesses[:, 1::2])
    rhs = np.einsum("ij,ji->i", xy[:, 0], images[:, 1::2])
    worst = max(0.0, float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs)))))
    return _record("chart_isometry", worst <= tol.eq_abs, worst)


def _witness_minimal_norm(rng: np.random.Generator, weight: PsdOperator, tol: Tolerance) -> dict:
    # Adding nullspace noise to the witness of a sampled A u never shortens it.
    n = weight.dim
    draws = rng.normal(size=(SAMPLES, 2 * n - weight.rank))  # u_i, then its noise
    witnesses = oprange._witnesses(weight, weight.base @ draws[:, :n].T, tol)
    noisy = witnesses + weight.null_subspace.basis @ draws[:, n:].T
    gaps = np.linalg.norm(witnesses, axis=0) - np.linalg.norm(noisy, axis=0)
    worst = max(0.0, float(np.max(gaps)))
    return _record("witness_minimal_norm", worst <= tol.eq_abs, worst)


def identity_battery(
    weight: PsdOperator,
    span: Subspace,
    tol: Tolerance = DEFAULT_TOL,
    seed: int = 0,
) -> list[dict]:
    """Run every identity check on the pair and return one record per check."""
    rng = np.random.default_rng(seed)
    n = weight.dim
    eq = tol.eq_abs
    a = weight.base
    hermitian_bound = oblique._hermitian_bound(a, tol)
    checks: list[dict] = []

    geometry = oblique._geometry(weight, span, tol)
    p = geometry.projection.matrix
    overlap = geometry.overlap
    report = geometry.diagnostics()
    chart = oprange.RangeSpaceProjection(geometry)
    decomps = chart.decompositions

    gap = float(np.linalg.norm(p @ p - p))
    checks.append(_record("projection_idempotent", gap <= eq * n, gap))

    range_gap = float(np.linalg.norm(p @ span.basis - span.basis))
    rank_ok = subspace_from_span(p, tol).dim == span.dim
    checks.append(_record("projection_range", range_gap <= eq * n and rank_ok, range_gap))

    null_ok = subspace_equal(nullspace_of(p, tol), geometry.projection.nullspace, tol)
    checks.append(_record("projection_nullspace", null_ok))

    sym_gap = float(np.linalg.norm(a @ p - p.T @ a))
    checks.append(_record("weight_symmetry", sym_gap <= hermitian_bound, sym_gap))

    pinv_gap = float(np.linalg.norm(oblique.weighted_projection_pinv(weight, span, tol).matrix - p))
    checks.append(_record("construction_pinv_agrees", pinv_gap <= 10 * eq, pinv_gap))

    if weight.rank == n:
        inv_gap = float(
            np.linalg.norm(oblique.weighted_projection_invertible(weight, span, tol).matrix - p)
        )
        checks.append(_record("construction_inverse_agrees", inv_gap <= 10 * eq, inv_gap))
    else:
        checks.append(_record("construction_inverse_agrees", True, applicable=False))

    checks.append(_hermitian_tests_agree(rng, geometry, hermitian_bound))

    if overlap.dim:
        p_norm = spectral_norm(p)
        worst = 0.0
        for _ in range(SAMPLES):
            t = rng.normal(size=(overlap.dim, n - span.dim))
            worst = max(worst, p_norm - spectral_norm(geometry.member(t).matrix))
        checks.append(_record("norm_minimality", worst <= eq, worst))
    else:
        checks.append(_record("norm_minimality", True, applicable=False))

    checks.append(_record("sqrt_image_decomposition", decomps[1]))

    ps, bs = span.projector(), span.basis
    p_m = subspace_from_span(weight.sqrt @ bs, tol).projector()
    q1 = douglas.reduced_solution(ps @ a @ ps, ps @ a, tol).matrix
    q2 = douglas.reduced_solution(weight.sqrt @ ps, p_m @ weight.sqrt, tol).matrix
    pair_gap = float(np.linalg.norm(q1 - q2))
    strip_gap = float(np.linalg.norm((p - overlap.projector()) - q1))
    checks.append(
        _record(
            "reduced_solutions_coincide",
            pair_gap <= 10 * eq and strip_gap <= 10 * eq,
            max(pair_gap, strip_gap),
        )
    )

    if overlap.dim == 0:
        image_perp = complement(subspace_from_span(a @ bs, tol, scale=_operator_norm(weight)))
        split_ok = (
            span.dim + image_perp.dim == n
            and intersect(span, image_perp, tol).dim == 0
        )
        checks.append(_record("trivial_overlap_split", split_ok))
    else:
        checks.append(_record("trivial_overlap_split", True, applicable=False))

    checks.append(_record("extension_matches_projection", chart.extension_matches))

    _, image_eq = chart.projected_range
    checks.append(
        _record("projected_range_equals_image", image_eq == report.compatible)
    )

    ext_p = chart.extension
    worst = 0.0
    for _ in range(20):
        t = rng.normal(size=(overlap.dim, n - span.dim))
        member = geometry.member(t).matrix
        worst = max(worst, float(np.linalg.norm(oprange.chart_extension(weight, member, tol) - ext_p)))
    checks.append(_record("family_extension_constant", worst <= 10 * eq, worst))

    induced = chart.induced
    idem_gap = float(np.linalg.norm(induced @ induced - induced))
    ok = idem_gap <= eq * n
    if report.compatible:
        factor_gap = float(np.linalg.norm(induced - weight.range_proj @ p))
        ok = ok and factor_gap <= 10 * eq
        idem_gap = max(idem_gap, factor_gap)
    checks.append(_record("induced_projection_idempotent", ok, idem_gap))

    checks.append(_record("complement_density", chart.complement_density))

    checks.append(
        _record(
            "decomposition_equivalences",
            len(set(decomps)) == 1 and decomps[0] == report.compatible,
        )
    )

    checks.append(_chart_isometry(rng, weight, tol))
    checks.append(_witness_minimal_norm(rng, weight, tol))

    worst = 0.0
    for _ in range(20):
        x = rng.normal(size=n)
        direct = interpolant.spline_with_weight(weight, span, x, tol).minimizer
        oracle = interpolant.spline_by_normal_equations(weight.sqrt, span, x, tol)
        worst = max(worst, float(np.linalg.norm(direct - oracle)) / (1.0 + float(np.linalg.norm(x))))
    checks.append(_record("spline_agrees_normal_equations", worst <= eq, worst))

    checks.append(
        _record(
            "diagnostics_chain",
            all(report.chain) and oblique.chain_respects_implications(report.chain),
        )
    )
    checks.append(_record("compatible_iff_sum", report.compatible == report.sum_check))
    checks.append(
        _record(
            "compatibility_shift_invariant",
            report.projected_pair_compatible == report.compatible
            and report.shifted_pair_compatible == report.compatible,
        )
    )
    return checks
