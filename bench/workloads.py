"""The three benchmark workloads: inputs from a seed, the timed pipeline, checks.

A workload holds one *pass*: a fixed list of items made from the seed.  An
item is one (A, S) pair for the library workloads and one round of CLI
invocations for ``cli-roundtrip``.  ``run_item`` times each operation of the
item and fingerprints its output; ``verify`` checks the outputs of one pass
with computations independent of the timed calls: the generating factors of
each weight are known, so ranks, overlaps and the spline oracle need nothing
the pipeline produced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io as textio
import json
import time
from dataclasses import dataclass, field

import numpy as np

from obliqueproj import cli, interpolant, oblique, report
from obliqueproj.errors import Error
from obliqueproj.io import FormatError
from obliqueproj.linalg import DEFAULT_TOL, PsdOperator, Subspace, subspace_from_span

EQ = DEFAULT_TOL.eq_abs
# Exceptions the library raises on purpose; anything else is a crash.
LIBRARY_ERRORS = (Error, FormatError)


@dataclass
class Op:
    """One timed operation and what it produced."""

    stage: str
    seconds: float
    digest: str
    value: object = None
    error: str | None = None
    crashed: bool = False
    exit: int | None = None  # CLI exit code


@dataclass
class Check:
    """One verified property; ``ratio`` is residual / bound where there is one."""

    name: str
    ok: bool
    ratio: float | None = None


def within(name: str, residual: float, bound: float) -> Check:
    return Check(name, bool(residual <= bound), float(residual) / bound)


def holds(name: str, ok) -> Check:
    return Check(name, bool(ok))


def digest(value) -> str:
    """Fingerprint of an output, exact to the bit."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, value)
    return h.hexdigest()


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(repr((value.dtype.str, value.shape)).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            _feed(h, getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for v in value:
            _feed(h, v)
        h.update(b"]")
    elif isinstance(value, dict):
        for key in sorted(value):
            h.update(repr(key).encode())
            _feed(h, value[key])
    else:
        h.update(repr(value).encode())


def timed(stage: str, fn, *args) -> Op:
    """Call ``fn`` once, timing it; a library error is an outcome, not a crash."""
    start = time.perf_counter()
    try:
        value = fn(*args)
    except LIBRARY_ERRORS as exc:
        seconds = time.perf_counter() - start
        return Op(stage, seconds, digest((type(exc).__name__, str(exc))), error=type(exc).__name__)
    except Exception as exc:  # a crash is recorded, and makes the run incorrect
        seconds = time.perf_counter() - start
        return Op(stage, seconds, digest((type(exc).__name__, str(exc))),
                  error=type(exc).__name__, crashed=True)
    seconds = time.perf_counter() - start
    return Op(stage, seconds, digest(value), value=value)


# -- generated inputs -------------------------------------------------------


@dataclass
class Pair:
    """A weight ``A = c Q diag(ev) Q^T`` and a subspace with known geometry."""

    a: np.ndarray
    factor: np.ndarray  # T with A = T^T T, from the generating eigenpairs
    span: Subspace
    x: np.ndarray
    rank: int
    overlap: int  # dim(S ∩ N(A)), fixed by construction
    # Sine of the smallest angle between S and N(A) beyond the overlap; a
    # tiny one makes the pair ill-conditioned.
    separation: float
    scale: float = 1.0


def random_orthogonal(rng, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q


def make_pair(rng, n: int, rank: int, dim: int, overlap: int | None = None) -> Pair:
    """Random pair of the given shape.

    With ``overlap`` given, that many spanning vectors are drawn inside the
    nullspace of the weight and the rest in general position, so
    ``dim(S ∩ N(A))`` equals ``overlap``.  Otherwise all are in general
    position and the overlap is ``max(0, dim - rank)`` with probability one.
    """
    q = random_orthogonal(rng, n)
    ev = np.zeros(n)
    ev[:rank] = rng.uniform(0.5, 2.0, size=rank)
    a = (q * ev) @ q.T
    factor = np.sqrt(ev[:rank])[:, None] * q[:, :rank].T
    if overlap is None:
        overlap = max(0, dim - rank)
        vectors = rng.normal(size=(n, dim))
    else:
        inside = q[:, rank:] @ rng.normal(size=(n - rank, overlap))
        vectors = np.hstack([inside, rng.normal(size=(n, dim - overlap))])
    span = subspace_from_span(vectors) if dim else Subspace(n, np.zeros((n, 0)))
    cosines = np.linalg.svd(span.basis.T @ q[:, rank:], compute_uv=False)
    sines = np.sort(np.sqrt(np.clip(1.0 - cosines**2, 0.0, None)))
    separation = float(sines[overlap]) if sines.size > overlap else 1.0
    return Pair(a, factor, span, rng.normal(size=n), rank, overlap, separation)


def scaled(pair: Pair, c: float) -> Pair:
    return dataclasses.replace(pair, a=c * pair.a, factor=np.sqrt(c) * pair.factor, scale=c)


# -- shared checks ------------------------------------------------------------


def projection_checks(prefix: str, p: np.ndarray, a: np.ndarray, span: Subspace) -> list[Check]:
    """Idempotency, range and ``A P = P^T A`` at the library's own tolerances."""
    n = a.shape[0]
    basis = span.basis
    return [
        within(f"{prefix}.idempotent", np.linalg.norm(p @ p - p), EQ * n),
        within(f"{prefix}.range", np.linalg.norm(p @ basis - basis), EQ * n),
        holds(f"{prefix}.rank", np.linalg.matrix_rank(p, tol=0.5) == span.dim),
        within(f"{prefix}.weight_hermitian", np.linalg.norm(a @ p - p.T @ a),
               EQ * (1.0 + np.linalg.norm(a))),
    ]


def spline_oracle(pair: Pair) -> np.ndarray:
    """Normal-equation minimizer built from the generating factor, not the weight."""
    return interpolant.spline_by_normal_equations(pair.factor, pair.span, pair.x)


def spline_check(minimizer: np.ndarray, pair: Pair) -> Check:
    gap = np.linalg.norm(minimizer - spline_oracle(pair)) / (1.0 + np.linalg.norm(pair.x))
    return within("spline.normal_equations", gap, EQ)


# -- library workloads --------------------------------------------------------


class PairWorkload:
    """Pairs through ``from_matrix``, projection, diagnostics and spline."""

    battery = False
    reference = "small"  # the loop of reference.py that resembles the work
    # end-to-end metric -> stage it times
    stage_metrics = {"project": "project", "compat": "compat", "spline": "spline"}

    def __init__(self, seed: int, workdir):
        self.rng = np.random.default_rng(seed)
        self.items: list[Pair] = []
        self.warm_items: list[Pair] = []

    def strict(self, pair: Pair) -> bool:
        """Whether a failure on this pair makes the run incorrect, because the
        pair lies well inside what the library must handle."""
        return True

    def run_item(self, pair: Pair) -> list[Op]:
        ops = [timed("weight", PsdOperator.from_matrix, pair.a)]
        weight = ops[0].value
        if weight is None:
            return ops
        ops.append(timed("project", oblique.weighted_projection, weight, pair.span))
        ops.append(timed("compat", oblique.compatibility_diagnostics, weight, pair.span))
        ops.append(timed("spline", interpolant.spline_with_weight, weight, pair.span, pair.x))
        if self.battery:
            ops.append(timed("battery", report.identity_battery, weight, pair.span))
        return ops

    def verify(self, pair: Pair, ops: list[Op]) -> dict[str, list[Check]]:
        out = {op.stage: [] for op in ops}
        values = {op.stage: op.value for op in ops if op.value is not None}
        weight = values.get("weight")
        if weight is None:
            return out
        out["weight"].append(holds("weight.rank", weight.rank == pair.rank))
        proj = values.get("project")
        if proj is not None:
            p = proj.matrix
            checks = projection_checks("project", p, pair.a, pair.span)
            pinv = oblique.weighted_projection_pinv(weight, pair.span).matrix
            checks.append(within("project.pinv_agrees", np.linalg.norm(pinv - p), 10 * EQ))
            checks.append(holds("project.nullspace_dim", proj.nullspace.dim == pair.a.shape[0] - pair.span.dim))
            out["project"] = checks
        rep = values.get("compat")
        if rep is not None:
            checks = [
                holds("compat.compatible", rep.compatible),
                holds("compat.chain", all(rep.chain)),
                holds("compat.sum_check", rep.sum_check),
                holds("compat.overlap_dim", rep.degenerate.dim == pair.overlap),
            ]
            if rep.projection is not None and proj is not None:
                gap = np.linalg.norm(rep.projection.matrix - proj.matrix)
                checks.append(within("compat.projection_agrees", gap, 10 * EQ))
            out["compat"] = checks
        result = values.get("spline")
        if result is not None:
            out["spline"] = [
                spline_check(result.minimizer, pair),
                holds("spline.freedom_dim", result.freedom.dim == pair.overlap),
            ]
        battery = values.get("battery")
        if battery is not None:
            out["battery"] = [holds(f"battery.{rec['name']}", rec["pass"]) for rec in battery]
        return out


class LargeDense(PairWorkload):
    """One pair at n = 512: rank n/2, dim S = n/3, dim(S ∩ N(A)) = n/8.

    A single pair keeps the pass short (about 3 s), so a run of 40 s makes
    about a dozen passes and each call's median time is steady; LAPACK's
    cost depends on the shapes, not on the values the seed draws.
    """

    N = 512
    PAIRS = 1
    reference = "large"

    def __init__(self, seed: int, workdir):
        super().__init__(seed, workdir)
        n = self.N
        self.items = [make_pair(self.rng, n, n // 2, n // 3, n // 8) for _ in range(self.PAIRS)]
        self.warm_items = [make_pair(self.rng, 16, 8, 5, 2)]


class SmallMany(PairWorkload):
    """Acceptance-style pairs (n 2..8, every rank and dim S) at weight scales 1e-9..1e9.

    Every size n and rank once, with dims of S assigned so that each dim
    also occurs once per size and both trivial and nontrivial overlaps
    occur: 42 pairs.  Scaling a zero weight changes nothing, so the seven
    rank-0 pairs stay at c = 1; the other 35 cycle through ``SCALES``,
    five per scale, starting at c = 1.  Every pair at a scale where the
    tolerance model is known to fail has a weight the scale acts on.
    Every seed gets the same shapes and scales and only the matrices vary,
    so the mix of shapes does not move the medians.  A short pass gives
    each pair about ten timed runs in a run of 40 s.
    """

    battery = True
    stage_metrics = {**PairWorkload.stage_metrics, "battery": "battery"}
    SCALES = tuple(10.0**k for k in (-9, -6, -3, 0, 3, 6, 9))
    # Where a failure makes the run incorrect.  Outside it lie the
    # tolerance defects of the scale sweep: NotPsd from c = 1e6 up, and
    # hermitian_tests_agree at c = 1e-9 and, on some shapes, at c = 1e-6.
    STRICT_SCALES = (1e-3, 1e3)

    def __init__(self, seed: int, workdir):
        super().__init__(seed, workdir)
        shapes = [(n, rank, (rank + n // 2 + 1) % (n + 1)) for n in range(2, 9) for rank in range(n + 1)]
        cycle = self.SCALES.index(1.0)
        for n, rank, dim in shapes:
            base = make_pair(self.rng, n, rank, dim)
            if rank:
                self.items.append(scaled(base, self.SCALES[cycle % len(self.SCALES)]))
                cycle += 1
            else:
                self.items.append(base)
        self.warm_items = [make_pair(self.rng, 5, 2, 3), make_pair(self.rng, 4, 4, 2)]

    def strict(self, pair: Pair) -> bool:
        # The ends of the scale sweep and the rare random S that nearly meets
        # N(A) sit at the edge of the robustness envelope, where the
        # tolerance model is known to fail: those failures are counted, not
        # fatal.  Moderate scales with S well away from N(A) must pass.
        low, high = self.STRICT_SCALES
        return low <= pair.scale <= high and pair.separation >= 1e-2


# -- CLI workload -------------------------------------------------------------


@dataclass
class Invocation:
    stage: str
    argv: list[str]
    expect: int
    output: str


@dataclass
class CliRound:
    """Input files at one size and the invocations of one CLI cycle."""

    pair: Pair
    full: Pair
    b: np.ndarray
    invocations: list[Invocation] = field(default_factory=list)


def _matrix_doc(m: np.ndarray) -> dict:
    """The CLI's documented matrix format, written without the library."""
    return {"rows": m.shape[0], "cols": m.shape[1], "data": m.ravel().tolist()}


def _make_round(rng, workdir, tag: str, n: int) -> CliRound:
    workdir.mkdir(parents=True, exist_ok=True)
    rank, dim, overlap = n // 2, n // 3, n // 8
    pair = make_pair(rng, n, rank, dim, overlap)
    full = make_pair(rng, n, n, dim)
    b = pair.a @ rng.normal(size=(n, max(1, n // 8)))
    docs = {
        "a": _matrix_doc(pair.a),
        "full": _matrix_doc(full.a),
        "s": {"ambient": n, "span": _matrix_doc(pair.span.basis)},
        "b": _matrix_doc(b),
        "x": _matrix_doc(pair.x.reshape(-1, 1)),
        "bad": {"rows": 2, "cols": 2, "data": [1.0]},
    }
    f = {name: workdir / f"{tag}-{name}.json" for name in docs}
    for name, doc in docs.items():
        f[name].write_text(json.dumps(doc))
    a, s, full_a = str(f["a"]), str(f["s"]), str(f["full"])
    round_ = CliRound(pair, dataclasses.replace(full, span=pair.span), b)
    for stage, argv, expect in (
        ("project", ["project", "--input-a", a, "--input-s", s, "--formula", "block"], 0),
        ("project pinv", ["project", "--input-a", a, "--input-s", s, "--formula", "pinv"], 0),
        ("project invertible", ["project", "--input-a", full_a, "--input-s", s,
                                "--formula", "invertible"], 0),
        ("compat", ["compat", "--input-a", a, "--input-s", s], 0),
        ("douglas", ["douglas", "--input-a", a, "--input-b", str(f["b"])], 0),
        ("interpolate", ["interpolate", "--input-a", a, "--input-s", s, "--input-x", str(f["x"])], 0),
        ("oprange", ["oprange", "--input-a", a, "--input-s", s], 0),
        ("singular invertible", ["project", "--input-a", a, "--input-s", s,
                                 "--formula", "invertible"], 3),
        ("malformed", ["compat", "--input-a", str(f["bad"]), "--input-s", s], 2),
    ):
        out = workdir / f"{tag}-out-{stage.replace(' ', '-')}.json"
        round_.invocations.append(Invocation(stage, argv + ["--output", str(out)], expect, str(out)))
    return round_


class CliRoundtrip:
    """In-process ``obliqueproj.cli.main`` over JSON files at n = 64, four input rounds.

    ``report`` stays out of the cycle: the battery is measured by
    ``small-many`` and would swamp the parsing and writing measured here.
    """

    N = 64
    ROUNDS = 4
    reference = "small"
    stage_metrics = {"project": "project", "compat": "compat", "spline": "interpolate"}

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(seed)
        self.items = [_make_round(rng, workdir, f"round{i}", self.N) for i in range(self.ROUNDS)]
        self.warm_items = [_make_round(rng, workdir, "warm", 8)]

    def strict(self, round_: CliRound) -> bool:
        return True

    def run_item(self, round_: CliRound) -> list[Op]:
        ops = []
        for inv in round_.invocations:
            err = textio.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stderr(err):
                    code = cli.main(inv.argv)
            except Exception as exc:  # cli.main lets through what it does not expect
                seconds = time.perf_counter() - start
                ops.append(Op(inv.stage, seconds, digest((type(exc).__name__, str(exc))),
                              error=type(exc).__name__, crashed=True))
                continue
            seconds = time.perf_counter() - start
            data = b""
            if code == 0:
                with open(inv.output, "rb") as fh:
                    data = fh.read()
            value = (code, data, err.getvalue())
            error = None if code == inv.expect else f"exit {code}"
            ops.append(Op(inv.stage, seconds, digest(value), value=value, error=error, exit=code))
        return ops

    def verify(self, round_: CliRound, ops: list[Op]) -> dict[str, list[Check]]:
        pair, full = round_.pair, round_.full
        docs = {op.stage: json.loads(op.value[1]) for op in ops
                if op.value is not None and op.value[0] == 0}
        out = {op.stage: [] for op in ops}

        def matrix(obj) -> np.ndarray:
            return np.array(obj["data"], dtype=float).reshape(obj["rows"], obj["cols"])

        def own_checks(doc) -> list[Check]:
            return [holds(f"cli.{name}", value) for name, value in sorted(doc["checks"].items())
                    if isinstance(value, bool)]

        block = None
        if "project" in docs:
            block = matrix(docs["project"]["results"]["projection"]["matrix"])
            out["project"] = projection_checks("project", block, pair.a, pair.span) + own_checks(docs["project"])
        if "project pinv" in docs:
            p = matrix(docs["project pinv"]["results"]["projection"]["matrix"])
            checks = projection_checks("project", p, pair.a, pair.span) + own_checks(docs["project pinv"])
            if block is not None:
                checks.append(within("project.pinv_agrees", np.linalg.norm(p - block), 10 * EQ))
            out["project pinv"] = checks
        if "project invertible" in docs:
            doc = docs["project invertible"]
            p = matrix(doc["results"]["projection"]["matrix"])
            out["project invertible"] = projection_checks("project", p, full.a, full.span) + own_checks(doc)
        if "compat" in docs:
            res = docs["compat"]["results"]
            checks = [
                holds("compat.compatible", res["compatible"]),
                holds("compat.chain", all(res["chain"])),
                holds("compat.overlap_dim", res["degenerate"]["span"]["cols"] == pair.overlap),
            ] + own_checks(docs["compat"])
            if block is not None and res["projection"] is not None:
                gap = np.linalg.norm(matrix(res["projection"]["matrix"]) - block)
                checks.append(within("compat.projection_agrees", gap, 10 * EQ))
            out["compat"] = checks
        if "douglas" in docs:
            d = matrix(docs["douglas"]["results"]["solution"])
            null = np.linalg.svd(pair.factor)[2][pair.rank:]
            out["douglas"] = [
                within("douglas.solves", np.linalg.norm(pair.a @ d - round_.b),
                       10 * EQ * (1.0 + np.linalg.norm(round_.b))),
                within("douglas.rows_in_range", np.linalg.norm(null @ d), 10 * EQ * (1.0 + np.linalg.norm(d))),
            ] + own_checks(docs["douglas"])
        if "interpolate" in docs:
            res = docs["interpolate"]["results"]
            out["interpolate"] = [
                spline_check(matrix(res["minimizer"]).ravel(), pair),
                holds("spline.freedom_dim", res["freedom"]["span"]["cols"] == pair.overlap),
            ] + own_checks(docs["interpolate"])
        if "oprange" in docs:
            out["oprange"] = [
                holds("oprange.chart_dim", docs["oprange"]["results"]["chart_dim"] == pair.rank)
            ] + own_checks(docs["oprange"])
        return out


WORKLOADS = {
    "large-dense": LargeDense,
    "small-many": SmallMany,
    "cli-roundtrip": CliRoundtrip,
}
