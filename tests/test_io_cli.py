import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obliqueproj import cli, io, subspace_from_span

# Floats at the edges of repr and of json's NaN/Infinity spelling, and numpy
# scalars, which json renders with float.__repr__ as well.
FLOATS = (
    st.floats()
    | st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308, float("nan"), float("inf"), -float("inf")])
    | st.floats(allow_nan=False).map(np.float64)
)
# ints and bools are not floats and must not be spliced; strings carry quotes,
# backslashes, control and non-ASCII characters.
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | st.text(
    st.sampled_from('a"\\/\n\t\x00\x7fé\u2603\U0001f600') | st.characters()
)
LEAVES = SCALARS | st.lists(FLOATS) | st.lists(FLOATS, min_size=1).map(tuple)
DOCUMENTS = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=20,
)


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def fixtures(tmp_path):
    paths = {
        "a": write(tmp_path / "a.json", {"rows": 2, "cols": 2, "data": [1.0, 1.0, 1.0, 1.0]}),
        "s": write(
            tmp_path / "s.json",
            {"ambient": 2, "span": {"rows": 2, "cols": 1, "data": [1.0, 0.0]}},
        ),
        "b": write(tmp_path / "b.json", {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 0.0]}),
        "x": write(tmp_path / "x.json", {"rows": 2, "cols": 1, "data": [0.0, 1.0]}),
        "zero": write(tmp_path / "zero.json", {"rows": 2, "cols": 2, "data": [0.0] * 4}),
        "eye": write(tmp_path / "eye.json", {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0]}),
    }
    return tmp_path, paths


class TestFileFormats:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(81)
        m = rng.normal(size=(3, 5))
        np.testing.assert_array_equal(io.matrix_from_obj(io.matrix_to_obj(m)), m)

    def test_subspace_round_trip(self):
        s = subspace_from_span(np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 1.0]]))
        back = io.subspace_from_obj(io.subspace_to_obj(s))
        np.testing.assert_allclose(back.projector(), s.projector(), atol=1e-12)

    @pytest.mark.parametrize(
        "obj",
        [
            {"rows": 2, "cols": 2},
            {"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0]},
            {"rows": -1, "cols": 2, "data": []},
            {"rows": 1, "cols": 1, "data": ["x"]},
            {"rows": 1, "cols": 1, "data": [float("nan")]},
            [1, 2, 3],
        ],
    )
    def test_malformed_matrix(self, obj):
        with pytest.raises(io.FormatError):
            io.matrix_from_obj(obj)

    @pytest.mark.parametrize(
        "values",
        [
            [[-0.0, 0.0], [5e-324, -2.2250738585072014e-308]],
            np.zeros((0, 3)),
            np.zeros((3, 0)),
            np.arange(6).reshape(2, 3),
            np.array([[0.1, -1.5], [3.4028235e38, 1e-45]], dtype=np.float32),
            np.asfortranarray(np.arange(6.0).reshape(3, 2)),
        ],
    )
    def test_matrix_to_obj_data_matches_the_elementwise_conversion(self, values):
        m = np.asarray(values, dtype=float)
        obj = io.matrix_to_obj(values)
        assert obj["data"] == [float(v) for v in m.ravel(order="C")]
        assert all(type(v) is float for v in obj["data"])
        # same values, same signs of zero, same bytes in the report
        assert [v.hex() for v in obj["data"]] == [float(v).hex() for v in m.ravel()]
        assert io.dumps(obj) == json.dumps(
            {"rows": m.shape[0], "cols": m.shape[1], "data": [float(v) for v in m.ravel()]},
            indent=2, sort_keys=True,
        )
        if m.size == 0:
            assert obj["data"] == []

    def test_malformed_subspace(self):
        with pytest.raises(io.FormatError):
            io.subspace_from_obj({"ambient": 3, "span": {"rows": 2, "cols": 1, "data": [1.0, 0.0]}})


class TestWriter:
    @settings(max_examples=200, deadline=None)
    @given(DOCUMENTS)
    @example({"b": [1.0, -0.0], "a": {"z": [[5e-324, 1e308]], "y": []}, "c": [1, True, 2.5]})
    @example([float("nan"), 1.0, float("inf")])
    @example({"marker": [[0.0]], "text": "[\n  0.0\n]"})
    def test_dumps_is_json_dumps(self, doc):
        assert io.dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize("kind", ["list", "dict"])
    def test_circular_reference_raises_as_json_dumps(self, kind):
        doc = [1.0, "x"] if kind == "list" else {"a": [0.5]}
        if kind == "list":
            doc.append(doc)
        else:
            doc["self"] = doc
        with pytest.raises(ValueError) as expected:
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(type(expected.value)) as got:
            io.dumps(doc)
        assert str(got.value) == str(expected.value)

    def test_shared_containers_are_not_cycles(self):
        shared = {"v": [1.0, 2.0], "w": [1, 2]}
        doc = {"a": shared, "b": [shared, shared]}
        assert io.dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)

    def test_save_obj_writes_dumps_and_a_newline(self, tmp_path):
        doc = {"data": [0.1, 0.2], "name": "x"}
        io.save_obj(doc, tmp_path / "doc.json")
        assert (tmp_path / "doc.json").read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestCommands:
    def test_project_trivial(self, fixtures, capsys):
        tmp, p = fixtures
        code = cli.main(["project", "--input-a", p["eye"], "--input-s", p["s"]])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["projection"]["matrix"]["data"] == [1.0, 0.0, 0.0, 0.0]
        assert doc["checks"]["hermitian"] is True

    def test_project_formula_cross_checks(self, fixtures, capsys):
        tmp, p = fixtures
        for formula in ("block", "pinv"):
            code = cli.main(
                ["project", "--input-a", p["a"], "--input-s", p["s"], "--formula", formula]
            )
            assert code == 0
            doc = json.loads(capsys.readouterr().out)
            agrees = [v for k, v in doc["checks"].items() if k.startswith("agrees_") and v is not None]
            assert agrees and all(agrees)

    def test_douglas_no_solution_exits_3(self, fixtures):
        tmp, p = fixtures
        assert cli.main(["douglas", "--input-a", p["zero"], "--input-b", p["b"]]) == 3

    def test_douglas_least_squares_labelled(self, fixtures, capsys):
        tmp, p = fixtures
        code = cli.main(
            ["douglas", "--input-a", p["zero"], "--input-b", p["b"], "--least-squares"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["least_squares_mode"] is True
        assert doc["checks"]["feasible"] is False

    def test_douglas_feasible(self, fixtures, capsys):
        tmp, p = fixtures
        code = cli.main(["douglas", "--input-a", p["a"], "--input-b", p["a"]])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["minimal_lambda"] == pytest.approx(1.0)
        assert doc["checks"]["lambda_matches_norm_sq"] is True

    def test_interpolate(self, fixtures, capsys):
        tmp, p = fixtures
        code = cli.main(
            ["interpolate", "--input-a", p["a"], "--input-s", p["s"], "--input-x", p["x"]]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["minimizer"]["data"] == [-1.0, 1.0]
        assert doc["results"]["value"] == pytest.approx(0.0, abs=1e-12)
        assert doc["checks"]["matches_normal_equations"] is True

    def test_oprange(self, fixtures, capsys):
        tmp, p = fixtures
        code = cli.main(["oprange", "--input-a", p["a"], "--input-s", p["s"]])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["chart_dim"] == 1
        assert doc["checks"]["extension_matches_projection"] is True
        assert doc["checks"]["projected_range_equals_image"] is True

    def test_compat(self, fixtures, capsys):
        tmp, p = fixtures
        code = cli.main(["compat", "--input-a", p["a"], "--input-s", p["s"]])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["compatible"] is True
        assert doc["results"]["chain"] == [True] * 6
        assert doc["results"]["coupling"]["data"] == [1.0]
        assert doc["checks"]["chain_respects_implications"] is True

    def test_report_all_pass(self, fixtures, capsys):
        tmp, p = fixtures
        code = cli.main(["report", "--input-a", p["a"], "--input-s", p["s"]])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["all_pass"] is True
        assert doc["checks"]["failed"] == []

    def test_not_psd_exits_3(self, fixtures, tmp_path):
        tmp, p = fixtures
        bad = write(tmp_path / "bad.json", {"rows": 2, "cols": 2, "data": [-1.0, 0.0, 0.0, -1.0]})
        assert cli.main(["compat", "--input-a", bad, "--input-s", p["s"]]) == 3

    def test_malformed_exits_2(self, fixtures, tmp_path):
        tmp, p = fixtures
        broken = tmp_path / "broken.json"
        broken.write_text('{"rows": 2')
        assert cli.main(["compat", "--input-a", str(broken), "--input-s", p["s"]]) == 2
        missing = str(tmp_path / "missing.json")
        assert cli.main(["compat", "--input-a", missing, "--input-s", p["s"]]) == 2
        shaped = write(tmp_path / "shaped.json", {"rows": 3, "cols": 2, "data": [0.0] * 6})
        assert cli.main(["compat", "--input-a", shaped, "--input-s", p["s"]]) == 2

    def test_missing_required_input_exits_2(self, fixtures):
        tmp, p = fixtures
        assert cli.main(["interpolate", "--input-a", p["a"], "--input-s", p["s"]]) == 2
        assert cli.main(["douglas", "--input-a", p["a"]]) == 2

    def test_unknown_command_exits_2(self):
        assert cli.main(["frobnicate"]) == 2

    def test_parser_errors_repeat(self, fixtures, capsys):
        # One parser serves the whole process; its errors must not depend on
        # what it parsed before.
        tmp, p = fixtures
        assert cli._parser() is cli._parser()
        for argv in (["frobnicate"], ["compat", "--input-s", p["s"]]):
            outcomes = []
            for _ in range(2):
                code = cli.main(argv)
                outcomes.append((code, capsys.readouterr()))
                assert cli.main(["project", "--input-a", p["eye"], "--input-s", p["s"]]) == 0
                capsys.readouterr()
            assert outcomes[0] == outcomes[1]
            assert outcomes[0][0] == 2
            assert "error:" in outcomes[0][1].err

    def test_report_identity_failure_exits_4(self, fixtures, monkeypatch, capsys):
        tmp, p = fixtures
        failed = [{"name": "projection_idempotent", "pass": False, "applicable": True}]
        monkeypatch.setattr(cli, "identity_battery", lambda *a, **k: failed)
        code = cli.main(["report", "--input-a", p["a"], "--input-s", p["s"]])
        assert code == 4
        doc = json.loads(capsys.readouterr().out)  # the report is still emitted
        assert doc["results"]["all_pass"] is False
        assert doc["checks"]["failed"] == ["projection_idempotent"]


class TestDeterminismAndRoundTrip:
    def test_same_seed_same_bytes(self, fixtures):
        tmp, p = fixtures
        out1, out2 = tmp / "r1.json", tmp / "r2.json"
        assert cli.main(["report", "--input-a", p["a"], "--input-s", p["s"],
                         "--seed", "7", "--output", str(out1)]) == 0
        assert cli.main(["report", "--input-a", p["a"], "--input-s", p["s"],
                         "--seed", "7", "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_stdout_matches_output_file(self, fixtures, capsys):
        tmp, p = fixtures
        out = tmp / "compat.json"
        argv = ["compat", "--input-a", p["a"], "--input-s", p["s"]]
        assert cli.main(argv + ["--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_emitted_matrices_reparse_equal(self, fixtures):
        tmp, p = fixtures
        out = tmp / "proj.json"
        assert cli.main(["project", "--input-a", p["a"], "--input-s", p["s"],
                         "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        emitted = io.matrix_from_obj(doc["results"]["projection"]["matrix"])
        round_tripped = io.matrix_from_obj(io.matrix_to_obj(emitted))
        np.testing.assert_array_equal(emitted, round_tripped)

    def test_tolerance_flags_recorded(self, fixtures, capsys):
        tmp, p = fixtures
        code = cli.main(["compat", "--input-a", p["a"], "--input-s", p["s"],
                         "--tol-rank", "1e-9", "--tol-eq", "1e-7", "--seed", "5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tolerances"] == {
            "rank_rel": 1e-9, "eq_abs": 1e-7, "psd_neg": 1e-10, "seed": 5,
        }
