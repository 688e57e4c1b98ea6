"""Measurement loop, verification, metrics and the report of one run.

A run sets up its workload a few times, then measures complete passes over
the same inputs until the next pass would overrun ``--seconds``, setting up
once more every ``SETUP_EVERY`` seconds between passes; ``setup_s`` sums
the median sample of each piece of set-up.  The first measured pass is
verified with independent checks, and its operations are the ones
``attempted`` and ``failed`` count; every later pass, traced or not, must
reproduce its outputs bit for bit.  Between the items of untraced passes,
the workload's reference loop (``reference.py``) is timed, and every time
reported is scaled by it to nominal machine speed.  In a traced run the passes
alternate between no instrumentation and full spans, so the tracing
overhead is measured on the same items in the same process.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from reference import Reference
from spans import ENTRIES, IO_READS, IO_WRITES, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3  # set-ups before the first pass
SETUP_EVERY = 2.0  # seconds of measuring between two more set-ups
REPEAT = "repeat_mismatch"
# Run in a fresh interpreter: the library's import time, numpy's included.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import obliqueproj.cli; print(time.perf_counter() - start)"
)


@dataclass
class Pass:
    level: str  # "off", "count" or "span"
    ops: list  # per item, the list of Op it produced

    def item_seconds(self) -> list[float]:
        return [sum(op.seconds for op in ops) for ops in self.ops]


def run_pass(wl, tracer: Tracer | None, level: str, keep: bool = False,
             reference: Reference | None = None) -> Pass:
    """One pass over the items; outputs are kept only when ``keep`` is set
    (the digests suffice to compare later passes), so memory stays flat.
    The reference loop is sampled between the items of untraced passes."""
    if level != "off":
        tracer.install(level)
    try:
        ops = []
        for item in wl.items:
            if reference is not None and level == "off":
                reference.due()
            item_ops = wl.run_item(item)
            if not keep:
                for op in item_ops:
                    op.value = None
            ops.append(item_ops)
        return Pass(level, ops)
    finally:
        if level != "off":
            tracer.uninstall()


def measure(wl, seconds: float, tracer: Tracer | None, setups: SetupTimes,
            reference: Reference) -> list[Pass]:
    """Complete passes until the next one would end after ``seconds``.

    Untraced runs make at least one pass; traced runs at least one plain
    and one traced pass, alternating.  Between passes, a set-up is timed
    whenever ``SETUP_EVERY`` seconds have gone by since the last one.
    """
    passes: list[Pass] = []
    start = last_setup = time.perf_counter()
    while True:
        level = "span" if tracer is not None and len(passes) % 2 else "off"
        begun = time.perf_counter()
        passes.append(run_pass(wl, tracer, level, keep=not passes, reference=reference))
        if time.perf_counter() - last_setup >= SETUP_EVERY:
            setups.sample()
            last_setup = time.perf_counter()
        now = time.perf_counter()
        if len(passes) >= (2 if tracer else 1) and now - start + (now - begun) > seconds:
            return passes


def failure_kind(op, checks) -> str | None:
    if op.error is not None:
        return op.error
    for check in checks:
        if not check.ok:
            return check.name
    return None


def classify(reference: Pass, verdicts: list[dict], other: Pass) -> list[list[str | None]]:
    """Failure kind of every op in ``other``; an output that differs from the
    verified pass is a failure whatever it is."""
    kinds = []
    for ref_ops, verdict, ops in zip(reference.ops, verdicts, other.ops):
        item = []
        for j, op in enumerate(ops):
            ref = ref_ops[j] if j < len(ref_ops) else None
            if ref is None or ref.digest != op.digest or len(ops) != len(ref_ops):
                item.append(REPEAT)
            else:
                item.append(failure_kind(ref, verdict.get(ref.stage, ())))
        kinds.append(item)
    return kinds


def median(values) -> float:
    """Median; NaN for no samples, which the run reports as a problem."""
    return float(statistics.median(values)) if values else float("nan")


def finite(value: float) -> float | None:
    """A metric value for the JSON result line, where NaN is not allowed."""
    return None if math.isnan(value) else float(value)


def tail(values) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it, never below the median.

    Returns (value, percentile).  Fewer than 21 samples leave no such
    percentile above the median, and the median is returned.
    """
    xs = sorted(values)
    n = len(xs)
    mid = median(xs)
    if n < 21:
        return mid, 50.0
    return max(xs[n - 11], mid), 100.0 * (n - 10) / n


class SetupTimes:
    """Samples of the set-up: the library's import, timed in a fresh
    interpreter because a process imports only once, then the workload's
    input generation and the warm-up operations, timed in this process.

    Like the pipeline, set-up is timed piece by piece, each piece by its
    median sample, and the samples are spread over the whole run, so that
    load which comes and goes within the run moves no piece far.
    """

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.imports: list[float] = []
        self.inputs: list[float] = []
        self.warm_ops: dict[tuple[int, int], list[float]] = defaultdict(list)  # per warm-up op

    def sample(self):
        """Time one import and one set-up; returns the set-up workload."""
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                               capture_output=True, text=True, check=True, timeout=60)
        self.imports.append(float(probe.stdout))
        begun = time.perf_counter()
        wl = self.workload(self.seed, self.workdir)
        self.inputs.append(time.perf_counter() - begun)
        for i, item in enumerate(wl.warm_items):
            for j, op in enumerate(wl.run_item(item)):
                self.warm_ops[i, j].append(op.seconds)
        return wl

    def seconds(self) -> tuple[float, str]:
        parts = median(self.imports), median(self.inputs), sum(map(median, self.warm_ops.values()))
        return sum(parts), ("import {:.3f} s + inputs {:.3f} s + warm-up {:.3f} s, "
                            "medians of {}".format(*parts, len(self.imports)))


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class Tally:
    """Operations, failures and timings of the items over a set of passes.

    Every item runs once per pass.  Each operation's time is the median
    of its runs over the passes and an item's time the sum over its
    operations.  The work is deterministic, so what varies between passes
    is the load that other tenants put on the machine.  That load shifts
    the fastest of a few runs more than their median: the fastest run
    depends on whether a quiet moment came at all.  Medians are then taken
    over the passing items among ``timed``, whose costs differ by shape.
    ``timed`` holds the items every seed must pass: where the seed decides
    which items pass, the median item changes with it.  On ``small-many``
    that moved ``pair_p50_ms`` by 25% between seeds.

    The tail comes from every run of every timed item that passed, so that a
    change which makes some calls slow now and then shows in it.  Each run
    counts as its slowdown over the item's median time, and the tail of
    the slowdowns is applied to the median item.  A tail of the raw run
    times would be set by the few heaviest items and the passes that met
    the most load: on ``small-many`` it spread by 39% over ten runs.
    """

    def __init__(self, passes: list[Pass], kinds: list, stage_metrics: dict,
                 timed: set[int] | None = None):
        self.attempted = 0
        self.failures = Counter()
        runs: dict[tuple[int, int], list[float]] = defaultdict(list)
        passed: dict[tuple[int, int], str] = {}  # op -> stage, for ops that never failed
        failed_items: set[int] = set()
        for p, pass_kinds in zip(passes, kinds):
            for i, (ops, item_kinds) in enumerate(zip(p.ops, pass_kinds)):
                self.attempted += len(ops)
                for j, (op, kind) in enumerate(zip(ops, item_kinds)):
                    runs[i, j].append(op.seconds)
                    if kind is None:
                        passed.setdefault((i, j), op.stage)
                    else:
                        self.failures[kind] += 1
                        failed_items.add(i)
        self.item_seconds: dict[int, float] = defaultdict(float)
        typical = {key: median(times) for key, times in runs.items()}
        for (i, _), t in typical.items():
            self.item_seconds[i] += t
        self.items = len(self.item_seconds)
        self.seconds = sum(self.item_seconds.values())
        self.ok = self.items - len(failed_items)
        timed = set(self.item_seconds) if timed is None else timed
        self.ok_items = [t for i, t in self.item_seconds.items()
                         if i in timed and i not in failed_items]
        self.ok_slowdowns = [t / self.item_seconds[i] for p in passes
                             for i, t in enumerate(p.item_seconds())
                             if i in timed and i not in failed_items]
        self.stages = defaultdict(list)
        for (i, j), stage in passed.items():
            if i in timed:
                self.stages[stage].append(typical[i, j])
        self.stage_metrics = stage_metrics

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def end_to_end(self, scale: float) -> dict:
        """Every end-to-end metric this tally supports, as name -> (value, note);
        times are multiplied by ``scale``."""
        slowdown, pct = tail(self.ok_slowdowns)
        n = len(self.ok_items)
        pair_p50 = scale * median(self.ok_items)
        seconds = scale * self.seconds
        out = {
            "pairs_ok_per_s": (self.ok / seconds if seconds else 0.0, f"{self.ok} of {self.items} items"),
            "pair_p50_ms": (1000 * pair_p50, f"n={n}"),
            "pair_tail_ms": (1000 * pair_p50 * slowdown,
                             f"p50 x p{pct:.1f} run slowdown {slowdown:.3f}, n={len(self.ok_slowdowns)}"),
            "failed_share": (self.failed / self.attempted if self.attempted else 0.0,
                             f"{self.failed} of {self.attempted} operations"),
        }
        for metric, stage in self.stage_metrics.items():
            samples = self.stages.get(stage, [])
            out[f"{metric}_p50_ms"] = (1000 * scale * median(samples), f"{stage}, n={len(samples)}")
        return out


def per_layer(tracer: Tracer, span_passes: list[Pass], verdicts: list, overhead_pct: float,
              reference: Reference) -> dict:
    """Per-item values over the traced passes; times are scaled like the
    end-to-end ones."""
    scale = reference.scale()
    items = sum(len(p.ops) for p in span_passes)
    seconds = sum(sum(p.item_seconds()) for p in span_passes)
    out = {}
    for name, (calls, total, self_s, _) in tracer.stats.items():
        out[f"{name}.calls"] = calls / items
        out[f"{name}.self_ms"] = 1000 * scale * self_s / items
    for key, value in tracer.counts.items():
        if key != "decompositions":
            out[key] = value / items
    for entry in ENTRIES:
        calls, _, _, decomps = tracer.stats.get(entry, (0, 0, 0, 0))
        out[f"decomp.{entry.split('.')[1]}.per_call"] = decomps / calls if calls else 0.0
    svd_self = tracer.stats.get("linalg.svd", (0, 0.0, 0.0, 0))[2]
    out["linalg.svd.self_share_pct"] = 100.0 * svd_self / seconds
    out["io.load.ms"] = 1000 * scale * sum(tracer.stats.get(n, (0, 0.0))[1] for n in IO_READS) / items
    out["io.save.ms"] = 1000 * scale * sum(tracer.stats.get(n, (0, 0.0))[1] for n in IO_WRITES) / items
    exits = Counter(op.exit for p in span_passes for ops in p.ops for op in ops
                    if op.exit is not None)
    for code, count in exits.items():
        out[f"cli.exit.{code}"] = count / items
    ratios = [c.ratio for verdict in verdicts for checks in verdict.values()
              for c in checks if c.ratio is not None]
    out["checks.worst_ratio"] = max(ratios, default=0.0)
    out["trace.overhead_pct"] = overhead_pct
    out["reference.loop_ms"] = reference.median_ms()
    return out


def tracing_overhead(passes: list[Pass], kinds: list) -> float:
    """Median over items of traced / untraced item time, less one, in percent;
    each side timed as in ``Tally``."""
    def item_seconds(level: str) -> dict[int, float]:
        chosen = [i for i, p in enumerate(passes) if p.level == level]
        return Tally([passes[i] for i in chosen], [kinds[i] for i in chosen], {}).item_seconds

    off, span = item_seconds("off"), item_seconds("span")
    return 100.0 * (median([span[i] / off[i] for i in off]) - 1.0)


def decomposition_mismatches(reference: dict, tracer: Tracer, span_passes: int) -> list[str]:
    """Counts from the light ``count`` pass must repeat exactly in every traced pass."""
    problems = []
    for key, value in reference["counts"].items():
        if key.startswith("linalg.") and isinstance(value, int) and tracer.counts[key] != value * span_passes:
            problems.append(f"{key}: {tracer.counts[key]} traced vs {value} x {span_passes}")
    for entry, (calls, decomps) in reference["entries"].items():
        got = tracer.stats.get(entry, (0, 0, 0, 0))
        if (got[0], got[3]) != (calls * span_passes, decomps * span_passes):
            problems.append(f"{entry}: {got[3]}/{got[0]} traced vs {decomps}/{calls} x {span_passes}")
    hidden = tracer.counts["linalg.spectral_norm.svd_calls"]
    if hidden > tracer.stats.get("linalg.spectral_norm", (0,))[0]:
        problems.append("more norm-2 SVDs than spectral_norm calls: an SVD came from elsewhere")
    return problems


def run(args, workdir: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    problems: list[str] = []
    try:
        setups = SetupTimes(workload, args.seed, workdir)
        for _ in range(SETUP_REPEATS):
            wl = setups.sample()

        tracer = Tracer() if args.trace else None
        extra: list[Pass] = []
        if tracer is not None:
            tracer.install("span")
            try:
                missed = tracer.binding_check(lambda: [wl.run_item(i) for i in wl.warm_items])
            finally:
                tracer.uninstall()
            if missed:
                problems.append("calls escaped their spans: " + ", ".join(missed))
            tracer.reset()
            extra.append(run_pass(wl, tracer, "count"))
            reference = {
                "counts": dict(tracer.counts),
                "entries": {e: (s[0], s[3]) for e, s in tracer.stats.items()},
            }
            tracer.reset()

        machine = Reference(wl.reference)
        machine.run()  # warm-up, not timed
        passes = measure(wl, args.seconds, tracer, setups, machine)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only once no other run is using it
        except OSError:
            pass

    first = passes[0]
    verdicts = [wl.verify(item, ops) for item, ops in zip(wl.items, first.ops)]
    kinds = [classify(first, verdicts, p) for p in passes]
    for p in extra:
        if any(REPEAT in item for item in classify(first, verdicts, p)):
            problems.append(f"the {p.level} pass changed an output")
    for p, pass_kinds in zip(passes, kinds):
        for item, ops, item_kinds in zip(wl.items, p.ops, pass_kinds):
            for op, kind in zip(ops, item_kinds):
                if op.crashed:
                    problems.append(f"{op.stage} crashed with {op.error}")
                elif kind == REPEAT:
                    problems.append(f"{op.stage} did not reproduce its output")
                elif kind is not None and wl.strict(item):
                    problems.append(f"{op.stage} failed {kind} on an input it must handle")

    # Every pass repeats the verified one bit for bit (or the run is
    # incorrect), so the operations of that one pass are what is counted.
    counted = Tally([first], kinds[:1], {})
    plain = [i for i, p in enumerate(passes) if p.level == "off"]
    scale = machine.scale()
    timed = {i for i, item in enumerate(wl.items) if wl.strict(item)}
    e2e = Tally([passes[i] for i in plain], [kinds[i] for i in plain], wl.stage_metrics,
                timed).end_to_end(scale)
    setup_s, setup_note = setups.seconds()
    e2e["setup_s"] = (scale * setup_s, setup_note)
    e2e["peak_rss_mb"] = (peak_rss_mb, "ru_maxrss")
    for m in spec["end_to_end"]:
        if math.isnan(e2e[m["name"]][0]):
            problems.append(f"{m['name']}: no passing operation to time")
    if args.workload == "cli-roundtrip":
        e2e["cli_cycle_p50_ms"] = e2e["pair_p50_ms"]
        e2e["cli_cycle_tail_ms"] = e2e["pair_tail_ms"]

    layers = {}
    if tracer is not None:
        span_passes = [p for p in passes if p.level == "span"]
        problems.extend(decomposition_mismatches(reference, tracer, len(span_passes)))
        layers = per_layer(tracer, span_passes, verdicts, tracing_overhead(passes, kinds), machine)

    counts = Counter(p.level for p in passes)
    print(f"obliqueproj benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"reference loop ({machine.kind}): median {machine.median_ms():.4f} ms over {len(machine.samples)} samples; "
          f"times below are scaled by {scale:.4f} to {machine.nominal_ms()} ms")
    print(f"passes: {dict(counts)} of {len(wl.items)} items; operations of one pass attempted "
          f"{counted.attempted}, failed {counted.failed}")
    if counted.failures:
        print("failures by kind: " + ", ".join(f"{k} {v}" for k, v in sorted(counted.failures.items())))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(failed_share="share", pair_tail_ms="ms", battery_p50_ms="ms",
                 cli_cycle_p50_ms="ms", cli_cycle_tail_ms="ms")
    print("end-to-end (untraced passes):")
    for name in sorted(e2e):
        value, note = e2e[name]
        print(f"  {name:<20} {value:14.4f} {units[name]:<6} {note}")
    if layers:
        print("per-layer (traced passes; per item unless named otherwise):")
        for name in sorted(layers):
            print(f"  {name:<52} {layers[name]:16.6g}")
    for problem in dict.fromkeys(problems):
        print(f"problem: {problem}")

    if args.trace:
        metrics = {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": finite(e2e[m["name"]][0]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": not problems,
        "attempted": counted.attempted,
        "failed": counted.failed,
        "metrics": metrics,
    }))
    return 0
