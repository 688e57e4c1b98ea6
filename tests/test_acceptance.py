"""Acceptance battery: randomized desk-scale checks of every library contract.

Each test covers one acceptance criterion at its stated tolerance over 500
seeded random instances (dims 2..8, all weight ranks and subspace
dimensions) and prints one pass/fail line.  Run with ``pytest -s`` to see
the lines.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from obliqueproj import (
    Tolerance,
    PsdOperator,
    chain_respects_implications,
    chart_extension,
    cli,
    compatibility_diagnostics,
    complement,
    contains,
    degenerate_overlap,
    io,
    is_compatible,
    is_weight_hermitian,
    lift,
    minimal_lambda,
    moore_penrose,
    nullspace_of,
    projection_family_member,
    range_inner,
    range_norm,
    range_space_projection,
    reduced_solution,
    spectral_norm,
    spline_by_normal_equations,
    spline_with_weight,
    subspace_equal,
    subspace_from_span,
    weighted_projection,
    weighted_projection_invertible,
    weighted_projection_pinv,
    ObliqueProjection,
)
from support import make_psd, make_subspace, preimage, seminorm_grid_min, subtract

SEED = 20260809
N_INSTANCES = 500


def _criterion(idx, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {idx:2d} ({name}): {status}{suffix}")
    assert ok, f"criterion {idx} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def instances():
    rng = np.random.default_rng(SEED)
    prepared = []
    for _ in range(N_INSTANCES):
        n = int(rng.integers(2, 9))
        rank = int(rng.integers(0, n + 1))
        k = int(rng.integers(0, n + 1))
        weight = make_psd(rng, n, rank)
        span = make_subspace(rng, n, k)
        proj = weighted_projection(weight, span)
        pre = preimage(weight.base, complement(span))
        overlap = degenerate_overlap(weight, span)
        prepared.append(
            SimpleNamespace(
                n=n,
                weight=weight,
                span=span,
                proj=proj,
                pre=pre,
                overlap=overlap,
                perp=complement(span),
            )
        )
    return prepared


def test_criterion_1_projection_laws(instances):
    worst_idem = worst_sym = 0.0
    ok = True
    for inst in instances:
        p = inst.proj.matrix
        a = inst.weight.base
        idem = np.linalg.norm(p @ p - p)
        sym = np.linalg.norm(a @ p - p.T @ a)
        worst_idem = max(worst_idem, idem)
        worst_sym = max(worst_sym, sym / (1 + np.linalg.norm(a)))
        ok &= idem <= 1e-8
        ok &= sym <= 1e-8 * (1 + np.linalg.norm(a))
        ok &= subspace_equal(subspace_from_span(p), inst.span)
        expected_null = subtract(inst.pre, inst.overlap)
        ok &= subspace_equal(nullspace_of(p), expected_null)
        ok &= subspace_equal(inst.proj.nullspace, expected_null)
    _criterion(1, "projection laws", ok, f"max idem {worst_idem:.2e}, max sym {worst_sym:.2e}")


def test_criterion_2_construction_agreement(instances):
    worst = worst_inv = 0.0
    full_rank = 0
    ok = True
    for inst in instances:
        gap = np.linalg.norm(
            weighted_projection_pinv(inst.weight, inst.span).matrix - inst.proj.matrix
        )
        worst = max(worst, gap)
        ok &= gap <= 1e-7
        if inst.weight.rank == inst.n:
            full_rank += 1
            gap_inv = np.linalg.norm(
                weighted_projection_invertible(inst.weight, inst.span).matrix - inst.proj.matrix
            )
            worst_inv = max(worst_inv, gap_inv)
            ok &= gap_inv <= 1e-7
    _criterion(
        2,
        "construction agreement",
        ok,
        f"max pinv gap {worst:.2e}, max inv gap {worst_inv:.2e} on {full_rank} full-rank",
    )


def test_criterion_3_douglas_contract():
    rng = np.random.default_rng(SEED + 1)
    ok = True
    for _ in range(N_INSTANCES):
        rows = int(rng.integers(2, 7))
        cols = int(rng.integers(1, 7))
        inner = int(rng.integers(0, min(rows, cols) + 1))
        a = rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols)) if inner else np.zeros((rows, cols))
        b = a @ rng.normal(size=(cols, int(rng.integers(1, 5))))
        sol = reduced_solution(a, b)
        d = sol.matrix
        ok &= sol.residual <= 1e-10 * (1 + np.linalg.norm(b))
        ok &= subspace_equal(nullspace_of(d), nullspace_of(b))
        ok &= contains(subspace_from_span(a.T), subspace_from_span(d))
        lam = minimal_lambda(a, b)
        ok &= abs(sol.norm_sq - lam) <= 1e-6 * (1 + abs(lam))
        d_norm = spectral_norm(d)
        slack = np.eye(cols) - moore_penrose(a) @ a
        for _ in range(100):
            other = d + slack @ rng.normal(size=d.shape)
            ok &= d_norm <= spectral_norm(other) + 1e-10
        if not ok:
            break
    _criterion(3, "reduced-solution contract", ok)


def test_criterion_4_hermitian_equivalence(instances):
    rng = np.random.default_rng(SEED + 2)
    disagreements = 0
    for inst in instances:
        a = inst.weight.base
        scale = 1 + np.linalg.norm(a)
        bs, bp = inst.span.basis, inst.perp.basis
        pre_proj = inst.pre.projector()
        n, k = inst.n, inst.span.dim
        for sample in range(100):
            x = rng.normal(size=(k, n - k))
            q = bs @ bs.T + bs @ x @ bp.T
            algebraic = np.linalg.norm(a @ q - q.T @ a) <= 1e-8 * scale
            null_basis = np.linalg.qr(bp - bs @ x)[0]
            containment = (
                np.linalg.norm(null_basis - pre_proj @ null_basis) <= 1e-8 * n
            )
            disagreements += algebraic != containment
            if sample < 2:
                # the library check walks the same two routes and must agree
                member = ObliqueProjection(q, inst.span, subspace_from_span(null_basis))
                assert is_weight_hermitian(member, inst.weight, inst.span) == algebraic
    _criterion(4, "hermitian-test equivalence", disagreements == 0, f"{disagreements} disagreements")


def test_criterion_5_norm_minimality(instances):
    rng = np.random.default_rng(SEED + 3)
    ok = True
    nontrivial = 0
    for inst in instances:
        if inst.overlap.dim == 0:
            continue
        nontrivial += 1
        base_norm = spectral_norm(inst.proj.matrix)
        bn, bp = inst.overlap.basis, inst.perp.basis
        for sample in range(100):
            t = rng.normal(size=(inst.overlap.dim, inst.n - inst.span.dim))
            member_matrix = inst.proj.matrix + bn @ t @ bp.T
            ok &= base_norm <= spectral_norm(member_matrix) + 1e-10
            if sample == 0:
                via_library = projection_family_member(inst.weight, inst.span, t)
                assert np.allclose(via_library.matrix, member_matrix, atol=1e-10)
    _criterion(5, "minimal operator norm", ok, f"{nontrivial} instances with nontrivial overlap")


def test_criterion_6_range_isometry(instances):
    rng = np.random.default_rng(SEED + 4)
    ok = True
    for inst in instances:
        a = inst.weight.base
        x, y = rng.normal(size=inst.n), rng.normal(size=inst.n)
        lhs = range_inner(lift(inst.weight, a @ x), lift(inst.weight, a @ y))
        rhs = float(x @ a @ y)
        ok &= abs(lhs - rhs) <= 1e-8 * (1 + abs(rhs))
        u = a @ x
        rv = lift(inst.weight, u)
        null_dim = inst.n - inst.weight.rank
        for _ in range(50):
            noise = inst.weight.null_subspace.basis @ rng.normal(size=null_dim)
            candidate = rv.witness + noise
            ok &= range_norm(rv) <= np.linalg.norm(candidate) + 1e-8
            if np.linalg.norm(noise) > 1e-6:
                ok &= range_norm(rv) < np.linalg.norm(candidate)
    _criterion(6, "range-space isometry", ok)


def test_criterion_7_chart_identities(instances):
    rng = np.random.default_rng(SEED + 5)
    ok = True
    for inst in instances:
        ok &= is_compatible(inst.weight, inst.span)
        chart = range_space_projection(inst.weight, inst.span)
        ok &= chart.extension_matches
        _, equal = chart.projected_range
        ok &= equal == is_compatible(inst.weight, inst.span)
        ok &= equal
        base_ext = chart_extension(inst.weight, inst.proj.matrix)
        bn, bp = inst.overlap.basis, inst.perp.basis
        for _ in range(20):
            t = rng.normal(size=(inst.overlap.dim, inst.n - inst.span.dim))
            member = inst.proj.matrix + bn @ t @ bp.T
            ok &= np.linalg.norm(chart_extension(inst.weight, member) - base_ext) <= 1e-7
        sharp = chart.induced
        ok &= np.linalg.norm(sharp @ sharp - sharp) <= 1e-8
        if not ok:
            break
    _criterion(7, "range-space chart identities", ok)


def test_criterion_8_spline_optimality(instances):
    rng = np.random.default_rng(SEED + 6)
    ok = True
    worst = 0.0
    scanned = 0
    for inst in instances:
        x = rng.normal(size=inst.n)
        result = spline_with_weight(inst.weight, inst.span, x)
        oracle = spline_by_normal_equations(inst.weight.sqrt, inst.span, x)
        gap = np.linalg.norm(result.minimizer - oracle)
        worst = max(worst, gap)
        ok &= gap <= 1e-8
        ok &= result.unique == (inst.overlap.dim == 0)
        if inst.span.dim in (1, 2) and scanned < 60:
            _, center = seminorm_grid_min(inst.weight.sqrt, inst.span.basis, x, rounds=1)
            if np.max(np.abs(center)) <= 2.0:
                scanned += 1
                best, _ = seminorm_grid_min(inst.weight.sqrt, inst.span.basis, x)
                ok &= abs(result.value - best) <= 1e-6
    _criterion(8, "spline optimality", ok, f"max oracle gap {worst:.2e}, {scanned} grid scans")


def test_criterion_9_diagnostics_chain(instances):
    ok = True
    degraded = Tolerance(rank_rel=1e-4)
    for inst in instances:
        report = compatibility_diagnostics(inst.weight, inst.span)
        ok &= all(report.chain)
        ok &= chain_respects_implications(report.chain)
        ok &= report.compatible == report.sum_check
        rebuilt = PsdOperator.from_matrix(inst.weight.base, degraded)
        rough = compatibility_diagnostics(rebuilt, inst.span, degraded)
        ok &= chain_respects_implications(rough.chain)
    _criterion(9, "diagnostics chain consistency", ok)


def test_criterion_10_cli_determinism(tmp_path):
    rng = np.random.default_rng(SEED + 7)
    ok = True
    for idx in range(10):
        n = int(rng.integers(2, 6))
        weight = make_psd(rng, n, int(rng.integers(0, n + 1)))
        span = make_subspace(rng, n, int(rng.integers(0, n + 1)))
        a_path = tmp_path / f"a{idx}.json"
        s_path = tmp_path / f"s{idx}.json"
        io.save_obj(io.matrix_to_obj(weight.base), a_path)
        io.save_obj(io.subspace_to_obj(span), s_path)
        outputs = []
        for run in range(2):
            out = tmp_path / f"report{idx}_{run}.json"
            code = cli.main(
                ["report", "--input-a", str(a_path), "--input-s", str(s_path),
                 "--seed", str(idx), "--output", str(out)]
            )
            ok &= code == 0
            outputs.append(out.read_bytes())
        ok &= outputs[0] == outputs[1]
    _criterion(10, "cli determinism", ok)
