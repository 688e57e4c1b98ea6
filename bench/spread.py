"""Run-to-run spread of the end-to-end metrics, measured the way they are judged.

    python3 bench/spread.py --workload small-many --seeds 0 1 2 3 4

Runs ``bench/run.py`` once per seed (one after another, untraced, for the
``run_seconds`` of BENCHMARK.json, the length the runs are judged at) and prints,
for every end-to-end metric, the median over the runs and the distance
between the first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of that median, next to the metric's bound.  The last
line is a JSON object with every value, for comparing two sets of runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    print(f"{'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        mid = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (mid, mid, mid)
        spread = (q3 - q1) / mid if mid else float("inf")
        print(f"{m['name']:<16} {mid:12.4f} {spread:8.4f} {m['bound']:6.2f}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "values": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
