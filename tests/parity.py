"""Decision-parity dump: what the library decides on fixed sets of pairs.

    python tests/parity.py --out FILE
    python tests/parity.py --compare A B

``--out`` imports ``obliqueproj`` from the ``src/`` of the checkout this file
lives in and writes one JSON record per line: for every pair, every flag and
subspace dimension of ``compatibility_diagnostics``, every identity battery
record (name, pass, applicable), the outcome of ``weighted_projection`` and
``spline_with_weight``, and every exception raised, by type and message.
Floats other than decisions are left out, so a change that moves only
roundoff dumps the same file.  ``--compare`` prints every record that
differs between two dumps and exits 1 if any does.  To compare two
checkouts, copy this file into the ``tests/`` of each and dump both.

The sets, all at fixed seeds:

- ``acceptance``: the 500 instances of ``tests/test_acceptance.py``;
- ``scaled``: 150 ``support.make_pair`` pairs (``default_rng(0)``), each with
  ``from_matrix(c A)`` at c in {1e-9, 1e-6, 1e-3, 1, 1e3, 1e6, 1e9} (1 050);
- ``ill``: 100 ``support.make_ill_conditioned_pair`` pairs at each
  ``rank_rel`` in {1e-12, 1e-10, 1e-7, 1e-4};
- ``near``: 100 ``support.make_near_null_pair`` pairs at each ``rank_rel`` in
  {1e-10, 1e-7, 1e-4, 1e-2}.

Not collected by pytest: the full dump takes about a minute.
"""

from __future__ import annotations

import argparse
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
    compatibility_diagnostics,
    spline_with_weight,
    weighted_projection,
)
from obliqueproj.report import identity_battery  # noqa: E402
from support import (  # noqa: E402
    make_ill_conditioned_pair,
    make_near_null_pair,
    make_pair,
    make_psd,
    make_subspace,
)

SCALES = (1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9)


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


SETS = {
    "acceptance": _acceptance,
    "scaled": _scaled,
    "ill": lambda: _family(make_ill_conditioned_pair, 1501, (1e-12, 1e-10, 1e-7, 1e-4)),
    "near": lambda: _family(make_near_null_pair, 1502, (1e-10, 1e-7, 1e-4, 1e-2)),
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


def _battery(weight, span, tol):
    return [[r["name"], r["pass"], r["applicable"]] for r in identity_battery(weight, span, tol)]


def records():
    """One record per pair: its set, its index and every decision."""
    for name, pairs in SETS.items():
        for index, (pair, tol) in enumerate(pairs()):
            record = {"set": name, "index": index}
            made = _outcome(pair)
            if isinstance(made, dict):
                record["pair"] = made
            else:
                weight, span = made
                record["pair"] = [weight.dim, weight.rank, span.dim]
                for key, fn in (
                    ("diagnostics", _diagnostics),
                    ("projection", _projection),
                    ("spline", _spline),
                    ("battery", _battery),
                ):
                    record[key] = _outcome(lambda: fn(weight, span, tol))
            yield record


def compare(a: str, b: str) -> int:
    def load(path):
        with open(path) as fh:
            return {(r["set"], r["index"]): r for r in map(json.loads, fh)}

    left, right = load(a), load(b)
    differ = 0
    for key in sorted(left.keys() | right.keys()):
        if left.get(key) != right.get(key):
            differ += 1
            print(f"{key[0]}[{key[1]}]:\n  {a}: {left.get(key)}\n  {b}: {right.get(key)}")
    print(f"{len(left)} and {len(right)} records, {differ} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="write the dump of this checkout here")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two dumps")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    with open(args.out, "w") as fh:
        for record in records():
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
