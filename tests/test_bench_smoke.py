"""The benchmark's pipeline and its verification, run on small inputs.

``bench/workloads.py`` is imported read-only (the ``workloads`` fixture of
``conftest.py``) and its own checks decide: a change to a report field that the
benchmark verifies fails here, not only in a benchmark run.
"""

import numpy as np
import pytest


def assert_all_pass(ops, checks):
    assert [op.stage for op in ops if op.error or op.crashed] == []
    failed = [c.name for stage in checks.values() for c in stage if not c.ok]
    assert failed == []
    assert sum(len(stage) for stage in checks.values()) > 0


@pytest.mark.parametrize("n, rank, dim, overlap", [(8, 4, 3, None), (16, 8, 5, 2)])
def test_pair_workload(workloads, tmp_path, n, rank, dim, overlap):
    workload = workloads.PairWorkload(0, tmp_path)
    workload.battery = True
    pair = workloads.make_pair(np.random.default_rng(n), n, rank, dim, overlap)
    ops = workload.run_item(pair)
    assert [op.stage for op in ops] == ["weight", "project", "compat", "spline", "battery"]
    assert_all_pass(ops, workload.verify(pair, ops))


def test_cli_round(workloads, tmp_path):
    round_ = workloads._make_round(np.random.default_rng(8), tmp_path, "smoke", 8)
    # run_item and verify read nothing from the instance, whose constructor
    # would build the full-size rounds
    workload = object.__new__(workloads.CliRoundtrip)
    ops = workload.run_item(round_)
    assert len(ops) == len(round_.invocations)
    assert_all_pass(ops, workload.verify(round_, ops))
