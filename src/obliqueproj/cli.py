"""Batch command-line front end.

Loads matrices and subspaces from JSON files, runs one operation per
invocation and emits a single machine-readable JSON report with top-level
keys ``inputs``, ``results``, ``checks``, ``tolerances`` and ``versions``.
Identical invocations (including the seed) produce byte-identical reports.

Exit codes: 0 success; 2 malformed input or flags, or an unwritable output;
3 a numerical precondition fails; 4 an identity check fails in ``report``.
"""

from __future__ import annotations

import argparse
import functools
import platform
import sys
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from . import __version__, douglas, interpolant, io, oblique, oprange
from .errors import DimensionMismatch, Error, PreconditionError
from .linalg import PsdOperator, Subspace, Tolerance, _agree, _norm
from .report import identity_battery

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_PRECONDITION = 3
EXIT_IDENTITY = 4

# The matrix of each construction of 'project', read off the pair geometry.
_MATRICES = {
    "block": attrgetter("projection.matrix"),
    "pinv": attrgetter("pinv_matrix"),
    "invertible": attrgetter("invertible_matrix"),
}


@dataclass
class JobSpec:
    """One CLI invocation: command, input files, tolerances, seed, output."""

    command: str
    inputs: dict = field(default_factory=dict)
    tol: Tolerance = Tolerance()
    seed: int = 0
    output: str | None = None
    formula: str = "block"
    least_squares: bool = False


@functools.cache  # pure configuration; parse_args returns a fresh namespace
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obliqueproj",
        description="Weighted oblique projections, reduced solutions and interpolants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("compat", "full compatibility diagnostics for a weight and a subspace"),
        ("project", "the weighted projection onto a subspace"),
        ("douglas", "reduced solution of A X = B"),
        ("interpolate", "minimal-seminorm interpolant of a vector"),
        ("oprange", "range-space chart matrices and identity checks"),
        ("report", "run the full identity battery on a pair"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--input-a", required=True, help="weight (or left operand) matrix file")
        cmd.add_argument("--input-s", help="subspace file")
        cmd.add_argument("--input-b", help="right-hand side matrix file")
        cmd.add_argument("--input-x", help="vector file (single-column matrix)")
        cmd.add_argument("--tol-rank", type=float, default=1e-10, help="relative rank cutoff, in (0, 0.5)")
        cmd.add_argument("--tol-eq", type=float, default=1e-8, help="absolute equality threshold")
        cmd.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
        cmd.add_argument("--output", help="write the report here instead of stdout")
        cmd.add_argument("--formula", choices=tuple(_MATRICES), default="block",
                         help="construction used by 'project'")
        cmd.add_argument("--least-squares", action="store_true",
                         help="in 'douglas', fall back to a least-squares minimizer "
                              "when the equation is unsolvable")
    return parser


def _require(job: JobSpec, *names: str) -> None:
    for name in names:
        if not job.inputs.get(name):
            raise io.FormatError(f"command '{job.command}' requires --input-{name}")


def _input_summary(job: JobSpec, loaded: dict) -> dict:
    summary = {"command": job.command}
    for name, path in sorted(job.inputs.items()):
        if not path:
            continue
        entry = {"path": str(path)}
        obj = loaded.get(name)
        if isinstance(obj, np.ndarray):
            entry["rows"], entry["cols"] = int(obj.shape[0]), int(obj.shape[1] if obj.ndim > 1 else 1)
        elif isinstance(obj, Subspace):
            entry["ambient"], entry["dim"] = int(obj.ambient_dim), int(obj.dim)
        summary[name] = entry
    return summary


def _load_pair(job: JobSpec) -> tuple[PsdOperator, Subspace, dict]:
    _require(job, "a", "s")
    a = io.load_matrix(job.inputs["a"])
    s = io.load_subspace(job.inputs["s"], job.tol)
    # The pair geometry each command builds checks the dimensions.
    return PsdOperator.from_matrix(a, job.tol), s, {"a": a, "s": s}


def _projection_obj(proj) -> dict:
    return {
        "matrix": io.matrix_to_obj(proj.matrix),
        "range": io.subspace_to_obj(proj.range),
        "nullspace": io.subspace_to_obj(proj.nullspace),
    }


def _run_compat(job: JobSpec) -> tuple[dict, dict, dict]:
    weight, span, loaded = _load_pair(job)
    rep = oblique.compatibility_diagnostics(weight, span, job.tol)
    results = {
        "compatible": bool(rep.compatible),
        "sum_check": bool(rep.sum_check),
        "chain": [bool(f) for f in rep.chain],
        "degenerate": io.subspace_to_obj(rep.degenerate),
        "preimage_of_complement": io.subspace_to_obj(rep.preimage_of_complement),
        "coupling": io.matrix_to_obj(rep.coupling) if rep.coupling is not None else None,
        "projection": _projection_obj(rep.projection) if rep.projection is not None else None,
    }
    checks = {
        "chain_respects_implications": oblique.chain_respects_implications(rep.chain),
        "compatible_iff_sum": bool(rep.compatible == rep.sum_check),
        "projected_pair_compatible": bool(rep.projected_pair_compatible),
        "shifted_pair_compatible": bool(rep.shifted_pair_compatible),
    }
    return results, checks, loaded


def _run_project(job: JobSpec) -> tuple[dict, dict, dict]:
    weight, span, loaded = _load_pair(job)
    # One pair geometry gives every construction's matrix and A^{-1}(S^perp)
    # for the Hermitian check, each on first read, so a formula that raises
    # first (invertible on a singular weight) decomposes nothing more; the
    # block projection raises Incompatible when read.  The agreement checks
    # compare matrices only, so only the chosen construction certifies its
    # nullspace.
    geometry = oblique._Geometry(weight, span, job.tol)
    if job.formula == "block":
        proj = geometry.projection
    else:
        proj = oblique._certified(_MATRICES[job.formula](geometry), span, job.tol)
    checks = {"formula": job.formula}
    for name, matrix in _MATRICES.items():
        if name == job.formula:
            continue
        if name == "invertible" and weight.rank < weight.dim:
            checks[f"agrees_{name}"] = None
        else:
            checks[f"agrees_{name}"] = bool(_agree(_norm(matrix(geometry) - proj.matrix), job.tol))
    checks["hermitian"] = bool(geometry.is_hermitian(proj))
    return {"projection": _projection_obj(proj)}, checks, loaded


def _run_douglas(job: JobSpec) -> tuple[dict, dict, dict]:
    _require(job, "a", "b")
    a = io.load_matrix(job.inputs["a"])
    b = io.load_matrix(job.inputs["b"])
    # One solve gives the verdict, the solution and, when feasible, the
    # minimal lambda, which is the solution's norm_sq.
    solution, feasible = douglas._solution(a, b, job.tol, gate=not job.least_squares)
    results = {
        "solution": io.matrix_to_obj(solution.matrix),
        "norm_sq": float(solution.norm_sq),
        "residual": float(solution.residual),
        "least_squares_mode": bool(job.least_squares),
    }
    checks = {"feasible": bool(feasible)}
    if feasible:
        # Placeholder: lam is norm_sq of the same solve, so this check reads
        # True until an independent value (the PSD-pencil oracle, ROADMAP
        # item 6) backs it.  The key stays so the output keeps its format.
        lam = solution.norm_sq
        results["minimal_lambda"] = float(lam)
        rel = abs(lam - solution.norm_sq) / (1.0 + abs(lam))
        checks["lambda_matches_norm_sq"] = bool(rel <= 1e-6)
    return results, checks, {"a": a, "b": b}


def _run_interpolate(job: JobSpec) -> tuple[dict, dict, dict]:
    _require(job, "a", "s", "x")
    weight, span, loaded = _load_pair(job)
    x = io.load_vector(job.inputs["x"])
    result = interpolant.spline_with_weight(weight, span, x, job.tol)
    oracle = interpolant.spline_by_normal_equations(weight.sqrt, span, x, job.tol)
    gap = _norm(result.minimizer - oracle)
    loaded["x"] = x.reshape(-1, 1)
    results = {
        "minimizer": io.vector_to_obj(result.minimizer),
        "value": float(result.value),
        "unique": bool(result.unique),
        "freedom": io.subspace_to_obj(result.freedom),
    }
    checks = {"matches_normal_equations": bool(_agree(gap, job.tol))}
    return results, checks, loaded


def _run_oprange(job: JobSpec) -> tuple[dict, dict, dict]:
    weight, span, loaded = _load_pair(job)
    chart = oprange.range_space_projection(weight, span, job.tol)
    extension = chart.extension  # raises Incompatible before any identity is read
    image, image_equal = chart.projected_range
    results = {
        "chart_dim": int(weight.rank),
        "range_projection": io.matrix_to_obj(chart.coord_matrix),
        "projection_extension": io.matrix_to_obj(extension),
        "projected_range": io.subspace_to_obj(image),
        "induced_projection": io.matrix_to_obj(chart.induced),
    }
    checks = {
        "extension_matches_projection": chart.extension_matches,
        "projected_range_equals_image": bool(image_equal),
        "compatible": chart.geometry.shift is not None,
        "complement_density": bool(chart.complement_density),
    }
    return results, checks, loaded


def _run_report(job: JobSpec) -> tuple[dict, dict, dict]:
    weight, span, loaded = _load_pair(job)
    battery = identity_battery(weight, span, job.tol, job.seed)
    results = {"identities": battery, "all_pass": bool(all(c["pass"] for c in battery))}
    checks = {
        "failed": sorted(c["name"] for c in battery if not c["pass"]),
        "total": len(battery),
    }
    return results, checks, loaded


_RUNNERS = {
    "compat": _run_compat,
    "project": _run_project,
    "douglas": _run_douglas,
    "interpolate": _run_interpolate,
    "oprange": _run_oprange,
    "report": _run_report,
}


def run(job: JobSpec) -> tuple[int, dict]:
    """Execute one job and return (exit code, report document)."""
    results, checks, loaded = _RUNNERS[job.command](job)
    document = {
        "inputs": _input_summary(job, loaded),
        "results": results,
        "checks": checks,
        "tolerances": {
            "rank_rel": job.tol.rank_rel,
            "eq_abs": job.tol.eq_abs,
            "psd_neg": job.tol.psd_neg,
            "seed": job.seed,
        },
        "versions": {
            "obliqueproj": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    code = EXIT_IDENTITY if job.command == "report" and not results["all_pass"] else EXIT_OK
    return code, document


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        job = JobSpec(
            command=args.command,
            inputs={"a": args.input_a, "s": args.input_s, "b": args.input_b, "x": args.input_x},
            tol=Tolerance(rank_rel=args.tol_rank, eq_abs=args.tol_eq),
            seed=args.seed,
            output=args.output,
            formula=args.formula,
            least_squares=args.least_squares,
        )
        code, document = run(job)
    except (ValueError, Error) as exc:  # io.FormatError and a bad Tolerance are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (ValueError, DimensionMismatch)):
            return EXIT_MALFORMED
        return EXIT_PRECONDITION if isinstance(exc, PreconditionError) else EXIT_IDENTITY
    if job.output:
        try:
            io.save_obj(document, job.output)
        except OSError as exc:
            print(f"error: cannot write {job.output}: {exc}", file=sys.stderr)
            return EXIT_MALFORMED
    else:
        print(io.dumps(document))
    return code


if __name__ == "__main__":
    sys.exit(main())
