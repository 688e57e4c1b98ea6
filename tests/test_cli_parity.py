"""CLI reports on the benchmark's n = 64 inputs against the frame construction.

The projection, the spline and the coupling are derived without a basis
of S^perp; the CLI must still report what the construction in the frame
(basis of S, basis of S^perp from the Householder reflectors of B_S,
compact WY; same frame as the complete QR) gives.  ``compat``'s
``coupling`` is ``a^+ b`` in that frame and every other matrix agrees with
the frame construction within 1e-13: the coupling is applied through the
reflectors, so only its roundoff differs, while another frame would move
it by O(1).  The ``coupling`` written is the library's bit for bit, and
the ``checks`` blocks and exit codes are the ones the frame construction
produced on these inputs.
"""

import json

import numpy as np
import pytest

from obliqueproj import PsdOperator, chart_extension, cli, compatibility_diagnostics, io
from support import projection_by_frame

N = 64
# The checks block of every invocation that succeeds, the same on seeds 0-2.
CHECKS = {
    "project": {"agrees_invertible": None, "agrees_pinv": True, "formula": "block", "hermitian": True},
    "project pinv": {"agrees_block": True, "agrees_invertible": None, "formula": "pinv", "hermitian": True},
    "project invertible": {"agrees_block": True, "agrees_pinv": True, "formula": "invertible", "hermitian": True},
    "compat": {
        "chain_respects_implications": True,
        "compatible_iff_sum": True,
        "projected_pair_compatible": True,
        "shifted_pair_compatible": True,
    },
    "douglas": {"feasible": True, "lambda_matches_norm_sq": True},
    "interpolate": {"matches_normal_equations": True},
    "oprange": {
        "compatible": True,
        "complement_density": True,
        "extension_matches_projection": True,
        "projected_range_equals_image": True,
    },
}
FAILING_EXITS = {"singular invertible": 3, "malformed": 2}


def gap(x, y) -> float:
    return float(np.max(np.abs(x - y)))


@pytest.mark.parametrize("seed", range(3))
def test_reports_match_the_frame_construction(workloads, tmp_path, seed):
    round_ = workloads._make_round(np.random.default_rng(seed), tmp_path, "parity", N)
    docs, inputs = {}, {}
    for inv in round_.invocations:
        assert cli.main(inv.argv) == FAILING_EXITS.get(inv.stage, 0)
        if inv.stage not in FAILING_EXITS:
            with open(inv.output) as fh:
                docs[inv.stage] = json.load(fh)
            inputs[inv.stage] = dict(zip(inv.argv[1::2], inv.argv[2::2]))
    assert {stage: doc["checks"] for stage, doc in docs.items()} == CHECKS

    files = inputs["interpolate"]
    weight = PsdOperator.from_matrix(io.load_matrix(files["--input-a"]))
    span = io.load_subspace(files["--input-s"])
    x = io.load_vector(files["--input-x"])
    coupling, p = projection_by_frame(weight, span)
    results = {stage: doc["results"] for stage, doc in docs.items()}
    assert gap(io.matrix_from_obj(results["compat"]["coupling"]), coupling) <= 1e-13
    library = compatibility_diagnostics(weight, span).coupling
    assert results["compat"]["coupling"] == io.matrix_to_obj(library)
    for stage in ("project", "compat"):
        assert gap(io.matrix_from_obj(results[stage]["projection"]["matrix"]), p) <= 1e-13
    minimizer = io.vector_from_obj(results["interpolate"]["minimizer"])
    assert gap(minimizer, x - p @ x) <= 1e-13
    extension = io.matrix_from_obj(results["oprange"]["projection_extension"])
    assert gap(extension, chart_extension(weight, p)) <= 1e-13


@pytest.mark.parametrize("seed", range(3))
def test_reports_are_written_as_json_dumps(workloads, tmp_path, monkeypatch, seed):
    # Each written report is json.dumps(indent=2, sort_keys=True) of the
    # document cli.run returned, so its bytes are the stdlib writer's
    # whatever the environment; report is covered too.
    round_ = workloads._make_round(np.random.default_rng(seed), tmp_path, "bytes", N)
    invocations = [(inv.stage, inv.argv, inv.output) for inv in round_.invocations]
    pair = invocations[0][1][1:5]  # --input-a A --input-s S
    report = str(tmp_path / "bytes-out-report.json")
    invocations.append(("report", ["report", *pair, "--seed", "3", "--output", report], report))
    documents = []
    run = cli.run

    def recording_run(job):
        code, document = run(job)
        documents.append(document)
        return code, document

    monkeypatch.setattr(cli, "run", recording_run)
    for stage, argv, output in invocations:
        documents.clear()
        assert cli.main(argv) == FAILING_EXITS.get(stage, 0)
        if stage in FAILING_EXITS:
            continue
        with open(output) as fh:
            assert fh.read() == json.dumps(documents[0], indent=2, sort_keys=True) + "\n"
