"""The benchmark's pipeline and its verification, run on small inputs.

``bench/workloads.py`` and ``bench/spans.py`` are imported read-only (the
``workloads`` and ``spans`` fixtures of ``conftest.py``) and their own checks
decide: a change to a report field that the benchmark verifies, or a call
that escapes the traced run's spans, fails here, not only in a benchmark run.
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


def test_traced_battery_keeps_every_call_in_its_span(workloads, spans, tmp_path):
    # A public function reached through a binding the tracer does not patch,
    # such as one captured in a closure, would run outside its span and make
    # the traced benchmark run incorrect.
    workload = workloads.PairWorkload(0, tmp_path)
    workload.battery = True
    pair = workloads.make_pair(np.random.default_rng(5), 5, 3, 2, 1)
    tracer = spans.Tracer()
    tracer.install("span")
    try:
        missed = tracer.binding_check(lambda: workload.run_item(pair))
    finally:
        tracer.uninstall()
    assert missed == []
    assert tracer.stats["report.identity_battery"][0] == 1


def test_cli_round(workloads, tmp_path):
    round_ = workloads._make_round(np.random.default_rng(8), tmp_path, "smoke", 8)
    # run_item and verify read nothing from the instance, whose constructor
    # would build the full-size rounds
    workload = object.__new__(workloads.CliRoundtrip)
    ops = workload.run_item(round_)
    assert len(ops) == len(round_.invocations)
    assert_all_pass(ops, workload.verify(round_, ops))
