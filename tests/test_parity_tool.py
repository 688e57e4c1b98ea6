"""``tests/parity.py``, the decision-parity and CLI-byte dumps, on small dumps written here."""

import copy
import itertools
import json
import sys

import numpy as np
import pytest

from exact import integer_family

RECORDS = [
    {"set": "acceptance", "index": 0, "pair": [2, 1, 1], "diagnostics": {"compatible": True}},
    {
        "set": "ill",
        "index": 77,
        "pair": [9, 8, 7],
        "diagnostics": {"compatible": False, "shifted_pair_compatible": False},
    },
]


@pytest.fixture
def parity(monkeypatch):
    # Importing the tool pins OpenBLAS to one thread and puts src/ and
    # tests/ first on sys.path; both are undone after the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    import parity

    return parity


def dump(path, records):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    return str(path)


def test_identical_dumps_do_not_differ(parity, tmp_path, capsys):
    a, b = dump(tmp_path / "a.jsonl", RECORDS), dump(tmp_path / "b.jsonl", RECORDS)
    assert parity.compare(a, b) == 0
    assert capsys.readouterr().out == "2 and 2 records, 0 differ\n"


def test_a_differing_record_is_named(parity, tmp_path, capsys):
    changed = copy.deepcopy(RECORDS)
    changed[1]["diagnostics"]["shifted_pair_compatible"] = True
    a, b = dump(tmp_path / "a.jsonl", RECORDS), dump(tmp_path / "b.jsonl", changed)
    assert parity.main(["--compare", a, b]) == 1
    out = capsys.readouterr().out
    assert out.startswith("ill[77]:\n")
    assert "'shifted_pair_compatible': False" in out and "'shifted_pair_compatible': True" in out
    assert "acceptance[0]" not in out
    assert out.endswith("2 and 2 records, 1 differ\n")
    # then the count by set, and by set and field
    assert "records that differ, by set: acceptance 0, ill 1\n" in out
    assert "  ill diagnostics.shifted_pair_compatible: 1\n" in out


def test_a_missing_record_differs(parity, tmp_path, capsys):
    a, b = dump(tmp_path / "a.jsonl", RECORDS), dump(tmp_path / "b.jsonl", RECORDS[:1])
    assert parity.compare(a, b) == 1
    out = capsys.readouterr().out
    assert out.startswith("ill[77]:\n") and f"{b}: None" in out
    assert out.endswith("2 and 1 records, 1 differ\n")


def test_a_dump_compares_equal_to_a_second_dump(parity, tmp_path, monkeypatch, capsys):
    # Three acceptance pairs, dumped twice: every decision is recorded, and
    # the dump is deterministic.
    monkeypatch.setattr(parity, "SETS", {"acceptance": lambda: itertools.islice(parity._acceptance(), 3)})
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert parity.main(["--out", str(a)]) == parity.main(["--out", str(b)]) == 0
    records = [json.loads(line) for line in a.read_text().splitlines()]
    assert [(r["set"], r["index"]) for r in records] == [("acceptance", i) for i in range(3)]
    assert all({"diagnostics", "projection", "spline", "hermitian", "battery"} <= r.keys() for r in records)
    assert parity.compare(str(a), str(b)) == 0
    assert capsys.readouterr().out == "3 and 3 records, 0 differ\n"


def test_the_exact_set_opens_with_the_benign_integer_pairs(parity):
    # the pairs of tests/test_exact.py, in their order, at the default tolerance
    benign = integer_family(np.random.default_rng(0), 3)
    for (pair, tol), expected in zip(itertools.islice(parity._exact(), 3), benign, strict=True):
        weight, span = pair()
        assert np.array_equal(weight.base, expected.a) and span.dim == expected.span_dim
        assert tol == parity.Tolerance()


@pytest.fixture
def cli_dumps(parity, tmp_path, monkeypatch):
    # Two CLI dumps of one round at seed 0 and n = 8.
    monkeypatch.setattr(parity, "CLI_SEEDS", (0,))
    monkeypatch.setattr(parity, "CLI_SIZES", (8,))
    a, b = tmp_path / "a", tmp_path / "b"
    assert parity.main(["--cli-out", str(a)]) == parity.main(["--cli-out", str(b)]) == 0
    return a, b


def test_identical_cli_dumps_do_not_differ(parity, cli_dumps, capsys):
    a, b = cli_dumps
    # inputs, outputs and a status per invocation; reports record relative paths
    status = (a / "s0-n8-out-malformed.json.status").read_text()
    assert status.startswith("exit 2\n") and "error:" in status
    assert (a / "s0-n8-out-douglas-unsolvable.json.status").read_text().startswith("exit 3\n")
    assert json.loads((a / "s0-n8-out-report.json").read_text())["inputs"]["a"]["path"] == "s0-n8-a.json"
    files = len(list(a.iterdir()))
    assert parity.cli_compare(str(a), str(b)) == 0
    assert capsys.readouterr().out == f"{files} and {files} files, 0 differ\n"


def test_a_flipped_byte_names_its_file(parity, cli_dumps, capsys):
    a, b = cli_dumps
    target = b / "s0-n8-out-douglas.json"
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 1
    target.write_bytes(bytes(data))
    files = len(list(a.iterdir()))
    assert parity.main(["--cli-compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out == f"s0-n8-out-douglas.json\n{files} and {files} files, 1 differ\n"
