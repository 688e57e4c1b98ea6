"""The invariant battery behind the CLI ``report`` command.

Each check evaluates one executable identity of the theory on a concrete
pair (A, S) and yields a pass/fail record with an error metric.  Randomized
checks draw from a single seeded generator in a fixed order, so a report is
a deterministic function of (inputs, tolerances, seed).
"""

from __future__ import annotations

import numpy as np

from . import douglas, interpolant, oblique, oprange
from .linalg import (
    DEFAULT_TOL,
    PsdOperator,
    Subspace,
    Tolerance,
    complement,
    contains,
    intersect,
    nullspace_of,
    preimage,
    spectral_norm,
    subspace_equal,
    subspace_from_span,
    subtract,
)

SAMPLES = 100


def _record(name: str, ok: bool, detail: float | None = None, applicable: bool = True) -> dict:
    rec = {"name": name, "pass": bool(ok), "applicable": bool(applicable)}
    if detail is not None:
        rec["detail"] = float(detail)
    return rec


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
    a_scale = 1.0 + float(np.linalg.norm(a))
    checks: list[dict] = []

    geometry = oblique._geometry(weight, span, tol)
    p = geometry.projection.matrix
    overlap = geometry.overlap
    pre = preimage(a, complement(span), tol)
    report = geometry.diagnostics()
    chart = oprange.RangeSpaceProjection(geometry)
    decomps = chart.decompositions

    gap = float(np.linalg.norm(p @ p - p))
    checks.append(_record("projection_idempotent", gap <= eq * n, gap))

    range_gap = float(np.linalg.norm(p @ span.basis - span.basis))
    rank_ok = subspace_from_span(p, tol).dim == span.dim
    checks.append(_record("projection_range", range_gap <= eq * n and rank_ok, range_gap))

    null_ok = subspace_equal(nullspace_of(p, tol), subtract(pre, overlap, tol), tol)
    checks.append(_record("projection_nullspace", null_ok))

    sym_gap = float(np.linalg.norm(a @ p - p.T @ a))
    checks.append(_record("weight_symmetry", sym_gap <= eq * a_scale, sym_gap))

    pinv_gap = float(np.linalg.norm(oblique.weighted_projection_pinv(weight, span, tol).matrix - p))
    checks.append(_record("construction_pinv_agrees", pinv_gap <= 10 * eq, pinv_gap))

    if weight.rank == n:
        inv_gap = float(
            np.linalg.norm(oblique.weighted_projection_invertible(weight, span, tol).matrix - p)
        )
        checks.append(_record("construction_inverse_agrees", inv_gap <= 10 * eq, inv_gap))
    else:
        checks.append(_record("construction_inverse_agrees", True, applicable=False))

    # Hermitian symmetry and nullspace containment decide the same question
    # on sampled projections with the prescribed range.
    bs, bp = span.basis, geometry.perp.basis
    disagreements = 0
    for _ in range(SAMPLES):
        x = rng.normal(size=(span.dim, n - span.dim))
        q = bs @ bs.T + bs @ x @ bp.T
        algebraic = float(np.linalg.norm(a @ q - q.T @ a)) <= eq * a_scale
        null_q = subspace_from_span(bp - bs @ x, tol)
        containment = contains(pre, null_q, tol)
        disagreements += algebraic != containment
    checks.append(_record("hermitian_tests_agree", disagreements == 0, disagreements))

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

    ps = span.projector()
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
        a_norm = float(weight.eigvals[0]) if weight.eigvals.size else 0.0
        image_perp = complement(subspace_from_span(a @ bs, tol, scale=a_norm))
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

    worst = 0.0
    for _ in range(SAMPLES):
        x, y = rng.normal(size=n), rng.normal(size=n)
        lhs = oprange.range_inner(
            oprange.lift(weight, a @ x, tol), oprange.lift(weight, a @ y, tol)
        )
        rhs = float(x @ (a @ y))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    checks.append(_record("chart_isometry", worst <= eq, worst))

    worst = 0.0
    for _ in range(SAMPLES):
        u = a @ rng.normal(size=n)
        lifted = oprange.lift(weight, u, tol)
        noise = weight.null_subspace.basis @ rng.normal(size=n - weight.rank)
        worst = max(worst, oprange.range_norm(lifted) - float(np.linalg.norm(lifted.witness + noise)))
    checks.append(_record("witness_minimal_norm", worst <= eq, worst))

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
