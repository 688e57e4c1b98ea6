"""Decision-parity dump: what the library decides on fixed sets of pairs.

    python tests/parity.py --out FILE
    python tests/parity.py --compare A B
    python tests/parity.py --cli-out DIR
    python tests/parity.py --cli-compare A B

``--out`` imports ``obliqueproj`` from the ``src/`` of the checkout this file
lives in and writes one JSON record per line: for every pair, every flag and
subspace dimension of ``compatibility_diagnostics``, every identity battery
record (name, pass, applicable), the outcome of ``weighted_projection`` and
``spline_with_weight``, the verdict of ``is_weight_hermitian`` on the block
and on the pseudoinverse construction, and every exception raised, by type
and message.
Floats other than decisions are left out, so a change that moves only
roundoff dumps the same file.  ``--compare`` prints every record that
differs between two dumps, then how many differ in each set and in each
set and field (a decision, a flag of one, or a battery record), and exits
1 if any does.  To compare two
checkouts, copy this file into the ``tests/`` of each and dump both.

``--cli-out`` writes the CLI's bytes instead: every invocation of one
``cli-roundtrip`` round (``bench/workloads._make_round`` of the same
checkout), plus ``report``, ``douglas --least-squares`` and the unsolvable
``douglas`` on the round's ``x`` as ``B``, at seeds ``CLI_SEEDS`` and sizes
``CLI_SIZES``.  It runs in-process from inside ``DIR`` with relative paths,
because reports record their input paths, and writes next to each output
a ``.status`` file with the exit code, stdout and stderr.
``--cli-compare`` names every file that differs between two such
directories, or is missing from one, and exits 1 if any does.

The sets, all at fixed seeds:

- ``acceptance``: the 500 instances of ``tests/test_acceptance.py``;
- ``scaled``: 150 ``support.make_pair`` pairs (``default_rng(0)``), each with
  ``from_matrix(c A)`` at c in {1e-9, 1e-6, 1e-3, 1, 1e3, 1e6, 1e9} (1 050);
- ``ill``: 100 ``support.make_ill_conditioned_pair`` pairs at each
  ``rank_rel`` in {1e-12, 1e-10, 1e-7, 1e-4};
- ``near``: 100 ``support.make_near_null_pair`` pairs at each ``rank_rel`` in
  {1e-10, 1e-7, 1e-4, 1e-2};
- ``exact``: the integer pairs of ``tests/exact.py``, whose every decision
  has an exact answer: the 300 benign pairs of ``tests/test_exact.py``
  (``default_rng(0)``), then 200 adversarial pairs at each p in {2, 4, 6, 8}
  (``default_rng([1503, p])``);
- ``kernel``: ``support.make_kernel_pair`` at each (width, m) of
  ``KERNELS``, 20 random spans of dimension m/4 (``default_rng(0)`` for each
  case), then the cubic polynomials as a control (105).

Not collected by pytest: the full dump takes about a minute.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

# One BLAS thread, so that two dumps see the same roundoff.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from obliqueproj import (  # noqa: E402
    PsdOperator,
    Tolerance,
    cli,
    compatibility_diagnostics,
    is_weight_hermitian,
    spline_with_weight,
    subspace_from_span,
    weighted_projection,
    weighted_projection_pinv,
)
from obliqueproj.report import identity_battery  # noqa: E402
from exact import integer_family  # noqa: E402
from support import (  # noqa: E402
    make_ill_conditioned_pair,
    make_kernel_pair,
    make_near_null_pair,
    make_pair,
    make_psd,
    make_subspace,
)

SCALES = (1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9)
KERNELS = ((0.2, 32), (0.2, 64), (0.2, 128), (0.05, 64), (0.05, 128))
CLI_SEEDS = range(4)
CLI_SIZES = (8, 64)


def _acceptance():
    rng = np.random.default_rng(20260809)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        rank = int(rng.integers(0, n + 1))
        k = int(rng.integers(0, n + 1))
        weight, span = make_psd(rng, n, rank), make_subspace(rng, n, k)
        yield lambda w=weight, s=span: (w, s), Tolerance()


def _scaled():
    rng = np.random.default_rng(0)
    pairs = [make_pair(rng) for _ in range(150)]
    for c in SCALES:
        for weight, span in pairs:
            yield lambda w=weight, s=span, c=c: (PsdOperator.from_matrix(c * w.base), s), Tolerance()


def _family(make, seed, rank_rels):
    for i, rank_rel in enumerate(rank_rels):
        tol = Tolerance(rank_rel=rank_rel)
        rng = np.random.default_rng([seed, i])
        for _ in range(100):
            pair = make(rng, tol)
            yield lambda p=pair: p, tol


def _exact():
    families = [(0, np.random.default_rng(0), 300)]
    families += [(p, np.random.default_rng([1503, p]), 200) for p in (2, 4, 6, 8)]
    for p, rng, count in families:
        for pair in integer_family(rng, count, p):
            a, span = np.array(pair.a, dtype=float), np.array(pair.span, dtype=float).reshape(-1, pair.n).T
            yield lambda a=a, span=span: (PsdOperator.from_matrix(a), subspace_from_span(span)), Tolerance()


def _kernel():
    for width, m in KERNELS:
        rng = np.random.default_rng(0)
        for polynomial in [False] * 20 + [True]:
            yield lambda w=width, m=m, r=rng, p=polynomial: make_kernel_pair(r, w, m, p), Tolerance()


SETS = {
    "acceptance": _acceptance,
    "scaled": _scaled,
    "ill": lambda: _family(make_ill_conditioned_pair, 1501, (1e-12, 1e-10, 1e-7, 1e-4)),
    "near": lambda: _family(make_near_null_pair, 1502, (1e-10, 1e-7, 1e-4, 1e-2)),
    "exact": _exact,
    "kernel": _kernel,
}


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # every exception is a decision to record
        return {"raised": type(exc).__name__, "message": str(exc)}


def _diagnostics(weight, span, tol):
    rep = compatibility_diagnostics(weight, span, tol)
    return {
        "compatible": rep.compatible,
        "chain": list(rep.chain),
        "sum_check": rep.sum_check,
        "projected_pair_compatible": rep.projected_pair_compatible,
        "shifted_pair_compatible": rep.shifted_pair_compatible,
        "degenerate": rep.degenerate.dim,
        "preimage_of_complement": rep.preimage_of_complement.dim,
        "coupling": None if rep.coupling is None else list(rep.coupling.shape),
        "projection": None if rep.projection is None else [rep.projection.range.dim, rep.projection.nullspace.dim],
    }


def _projection(weight, span, tol):
    p = weighted_projection(weight, span, tol)
    return {"nullspace": p.nullspace.dim, "verify": p.verify(tol)}


def _spline(weight, span, tol):
    result = spline_with_weight(weight, span, np.ones(weight.dim), tol)
    return {"unique": result.unique, "freedom": result.freedom.dim}


def _hermitian(weight, span, tol):
    return {
        name: _outcome(lambda c=construct: is_weight_hermitian(c(weight, span, tol), weight, span, tol))
        for name, construct in (("block", weighted_projection), ("pinv", weighted_projection_pinv))
    }


def _battery(weight, span, tol):
    return [[r["name"], r["pass"], r["applicable"]] for r in identity_battery(weight, span, tol)]


DECISIONS = {
    "diagnostics": _diagnostics,
    "projection": _projection,
    "spline": _spline,
    "hermitian": _hermitian,
    "battery": _battery,
}


def decisions(weight, span, tol, keys=tuple(DECISIONS)) -> dict:
    """The decisions of one pair recorded under ``keys``, with its dimensions and rank."""
    record = {"pair": [weight.dim, weight.rank, span.dim]}
    for key in keys:
        record[key] = _outcome(lambda: DECISIONS[key](weight, span, tol))
    return record


def records():
    """One record per pair: its set, its index and every decision."""
    for name, pairs in SETS.items():
        for index, (pair, tol) in enumerate(pairs()):
            made = _outcome(pair)
            record = {"pair": made} if isinstance(made, dict) else decisions(*made, tol)
            yield {"set": name, "index": index, **record}


def _moved(left, right) -> list[str]:
    # The fields that differ between two records of one pair: each decision,
    # by flag for the dict ones and by record name for the battery.
    moved = []
    for key in sorted(left.keys() | right.keys()):
        x, y = left.get(key), right.get(key)
        if x == y:
            continue
        if isinstance(x, dict) and isinstance(y, dict) and "raised" not in x and "raised" not in y:
            moved += [f"{key}.{flag}" for flag in sorted(x.keys() | y.keys()) if x.get(flag) != y.get(flag)]
        elif key == "battery" and isinstance(x, list) and isinstance(y, list):
            moved += sorted({f"battery.{r[0]}" for r in set(map(tuple, x)) ^ set(map(tuple, y))})
        else:
            moved.append(key)
    return moved


def compare(a: str, b: str) -> int:
    def load(path):
        with open(path) as fh:
            return {(r["set"], r["index"]): r for r in map(json.loads, fh)}

    left, right = load(a), load(b)
    by_set = {name: 0 for name in dict.fromkeys(key[0] for key in sorted(left.keys() | right.keys(), key=str))}
    by_field: dict[tuple[str, str], int] = {}
    for key in sorted(left.keys() | right.keys()):
        if left.get(key) != right.get(key):
            by_set[key[0]] += 1
            for field in _moved(left.get(key) or {}, right.get(key) or {}):
                by_field[key[0], field] = by_field.get((key[0], field), 0) + 1
            print(f"{key[0]}[{key[1]}]:\n  {a}: {left.get(key)}\n  {b}: {right.get(key)}")
    differ = sum(by_set.values())
    if differ:
        print("records that differ, by set: " + ", ".join(f"{name} {count}" for name, count in by_set.items()))
        for (name, field), count in sorted(by_field.items()):
            print(f"  {name} {field}: {count}")
    print(f"{len(left)} and {len(right)} records, {differ} differ")
    return 1 if differ else 0


def _invocations(workloads, seed: int, n: int):
    # (argv, output) of one round and of the extra invocations, with paths
    # relative to the working directory.
    tag = f"s{seed}-n{n}"
    round_ = workloads._make_round(np.random.default_rng(seed), Path("."), tag, n)
    for inv in round_.invocations:
        yield inv.argv, inv.output
    (argv,) = [inv.argv for inv in round_.invocations if inv.stage == "interpolate"]
    files = dict(zip(argv[1::2], argv[2::2]))
    pair = ["--input-a", files["--input-a"], "--input-s", files["--input-s"]]
    unsolvable = ["douglas", "--input-a", files["--input-a"], "--input-b", files["--input-x"]]
    for stage, argv in (
        ("report", ["report", *pair, "--seed", str(seed)]),
        ("douglas-least-squares", [*unsolvable, "--least-squares"]),
        ("douglas-unsolvable", unsolvable),
    ):
        output = f"{tag}-out-{stage}.json"
        yield argv + ["--output", output], output


def _workloads():
    # bench/workloads.py, loaded as conftest.py loads it, without writing
    # bytecode next to it; kept here so that this file also runs when copied
    # into an older checkout.  dataclasses look the module up while it executes.
    spec = importlib.util.spec_from_file_location("parity_workloads", HERE.parent / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
        del sys.modules[spec.name]
    return module


def cli_out(directory: str) -> int:
    workloads = _workloads()
    os.makedirs(directory, exist_ok=True)
    # os.chdir and not contextlib.chdir, which needs Python 3.11
    home = os.getcwd()
    os.chdir(directory)
    try:
        for seed in CLI_SEEDS:
            for n in CLI_SIZES:
                for argv, output in _invocations(workloads, seed, n):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(argv)
                    status = f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
                    Path(f"{output}.status").write_text(status)
    finally:
        os.chdir(home)
    return 0


def cli_compare(a: str, b: str) -> int:
    def load(root):
        root = Path(root)
        return {path.relative_to(root).as_posix(): path.read_bytes() for path in root.rglob("*") if path.is_file()}

    left, right = load(a), load(b)
    differ = sorted(name for name in left.keys() | right.keys() if left.get(name) != right.get(name))
    for name in differ:
        print(name)
    print(f"{len(left)} and {len(right)} files, {len(differ)} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="write the dump of this checkout here")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two dumps")
    group.add_argument("--cli-out", metavar="DIR", help="write the CLI outputs of this checkout here")
    group.add_argument("--cli-compare", nargs=2, metavar=("A", "B"), help="compare two CLI output directories")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.cli_out:
        return cli_out(args.cli_out)
    if args.cli_compare:
        return cli_compare(*args.cli_compare)
    with open(args.out, "w") as fh:
        for record in records():
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
