"""Fixtures shared by the test modules."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str):
    """``bench/<name>.py``, imported without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    yield module
    del sys.modules[spec.name]


@pytest.fixture(scope="module")
def workloads():
    yield from _bench_module("workloads")


@pytest.fixture(scope="module")
def spans():
    yield from _bench_module("spans")
