"""Benchmark entry point: one workload per invocation.

    python3 bench/run.py --workload small-many --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  The run sets up the workload's
inputs, measures complete passes over them for about ``--seconds``
seconds, verifies every output and prints a report.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0`` (nothing instrumented), the per-layer metrics with
``--trace 1``.  bench/README.md defines every metric.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("large-dense", "small-many", "cli-roundtrip")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library() -> None:
    """Import obliqueproj from this checkout's ``src/``; refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import obliqueproj
    import obliqueproj.cli  # noqa: F401  (every layer is loaded up front)

    origin = Path(obliqueproj.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"obliqueproj was imported from {origin}, not from {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        import_library()
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        return 2

    import harness

    return harness.run(args, ROOT / ".bench-work" / f"{args.workload}-{os.getpid()}")


if __name__ == "__main__":
    sys.exit(main())
