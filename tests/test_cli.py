"""Command-line interface: reports, exit codes, seeds, file IO."""

import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gtl import __version__
from gtl.cli import main
from gtl.formula import parse
from gtl.graph import GraphTemporalTrajectory, LabeledGraph, load_graph, save_trajectories
from gtl.prior import compute_ig, load_prior
from gtl.templates import ParamSpec, Template, save_templates

from conftest import two_bin_prior


@pytest.fixture
def workspace(tmp_path):
    """Graph, prior, labeled trajectories, and templates on disk."""
    g = LabeledGraph.complete(["a", "b", "c"])
    prior = two_bin_prior(g, 2)
    rng = np.random.default_rng(0)
    trajs = []
    for i in range(6):
        label = 1 if i < 3 else -1
        base = 1.2 if label == 1 else 0.3
        nl = base + 0.1 * rng.random((3, 2))
        trajs.append(GraphTemporalTrajectory(
            g, nl, np.ones((3, 2)), label=label))
    paths = {
        "graph": tmp_path / "graph.json",
        "prior": tmp_path / "prior.json",
        "trajs": tmp_path / "trajs.json",
        "templates": tmp_path / "templates.json",
        "out": tmp_path / "out.json",
    }
    paths["graph"].write_text(json.dumps(g.to_json_dict()))
    paths["prior"].write_text(json.dumps(prior.to_json_dict()))
    save_trajectories(paths["trajs"], trajs)
    save_templates(paths["templates"], [
        Template(parse("F x >= ?c"), {"c": ParamSpec(0.0, 2.0, "continuous")},
                 name="peak")])
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestEval:
    def test_json_report(self, workspace, capsys):
        code, out = run(capsys, "eval", "--trajectories", str(workspace["trajs"]),
                        "--formula", "F x >= 1",
                        "--out", str(workspace["out"]))
        assert code == 0
        rep = json.loads(out)
        assert rep["version"] == __version__
        assert rep["command"] == "eval"
        assert rep["timings"]["wall_s"] >= 0
        assert rep["result"]["misclassification_rate"] == pytest.approx(0.0)
        assert json.loads(workspace["out"].read_text()) == rep

    def test_text_format(self, workspace, capsys):
        code, out = run(capsys, "eval", "--trajectories", str(workspace["trajs"]),
                        "--formula", "F x >= 1", "--format", "text")
        assert code == 0
        assert "coverage" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_parse_error_exit_one(self, workspace, capsys):
        code, _ = run(capsys, "eval", "--trajectories", str(workspace["trajs"]),
                      "--formula", "G (x <= 1")
        assert code == 1

    def test_negative_time_bound_exit_one(self, workspace, capsys):
        code = main(["eval", "--trajectories", str(workspace["trajs"]),
                     "--formula", "F[<=-2] x >= 1"])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error [input]: time bound must be non-negative, got -2")

    def test_negative_neighbor_count_exit_one(self, workspace, capsys):
        code = main(["eval", "--trajectories", str(workspace["trajs"]),
                     "--formula", "E -1 via (y <= 1) : x >= 1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [input]: neighbor count must be non-negative, got -1")
        assert "Traceback" not in err

    def test_missing_file_exit_one(self, tmp_path, capsys):
        code, _ = run(capsys, "eval", "--trajectories",
                      str(tmp_path / "nope.json"), "--formula", "x <= 1")
        assert code == 1

    @pytest.mark.parametrize("bad, command", [
        ("trajs", ("eval", "--trajectories", "{trajs}", "--formula", "x <= 1")),
        ("graph", ("eval", "--trajectories", "{trajs}", "--graph", "{graph}",
                   "--formula", "x <= 1")),
        ("prior", ("ig", "--prior", "{prior}", "--graph", "{graph}",
                   "--formula", "x <= 1")),
        ("trajs", ("identify", "--trajectories", "{trajs}", "--prior", "{prior}",
                   "--templates", "{templates}")),
        ("templates", ("classify", "--trajectories", "{trajs}",
                       "--templates", "{templates}")),
    ])
    def test_malformed_json_exit_one(self, workspace, capsys, bad, command):
        workspace[bad].write_text('{"nodes": [')
        code = main([arg.format(**workspace) for arg in command])
        assert code == 1
        assert "error [input]: malformed JSON" in capsys.readouterr().err

    def test_reader_error_names_the_file_and_key(self, workspace, capsys):
        doc = json.loads(workspace["prior"].read_text())
        doc["L"] = "2"
        workspace["prior"].write_text(json.dumps(doc))
        code = main(["ig", "--prior", str(workspace["prior"]), "--graph", str(workspace["graph"]),
                     "--formula", "x <= 1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [input]: ")
        assert f"{workspace['prior']}['L'] must be a JSON integer" in err

    def test_huge_prior_horizon_exit_one(self, workspace, capsys):
        # refused by its size before any array of L rows is built
        workspace["prior"].write_text(json.dumps(
            {"L": 10 ** 30, "bins": [[0, 1]], "edge_labels": {}, "default_pmf": [1]}))
        workspace["graph"].write_text(json.dumps({"nodes": ["a"], "edges": []}))
        code = main(["ig", "--prior", str(workspace["prior"]), "--graph", str(workspace["graph"]),
                     "--formula", "x <= 1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [input]: horizon L={10 ** 30} is too long")
        assert "Traceback" not in err

    def test_deeply_nested_json_exit_one(self, workspace, capsys):
        workspace["trajs"].write_text("[" * 100_000 + "]" * 100_000)
        code = main(["eval", "--trajectories", str(workspace["trajs"]), "--formula", "x <= 1"])
        assert code == 1
        assert "error [input]: malformed JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("formula", [
        "x <= 1" + "0" * 400,
        "E 1 via (y <= 1" + "0" * 400 + ") : x <= 1",
        "E 1" + "0" * 400 + " via (y <= 1) : x <= 1",
        "F[<=1" + "0" * 400 + "] x <= 1",
    ], ids=["atom", "edge-atom", "count", "bound"])
    @pytest.mark.parametrize("command", ["eval", "dfa"])
    def test_oversized_integer_literal_exit_one(self, workspace, capsys, command, formula):
        args = ["--trajectories", str(workspace["trajs"])] if command == "eval" else []
        code = main([command, *args, "--formula", formula])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [parse]: integer literal out of range")
        assert "Traceback" not in err

    def test_unknown_flag_exit_one(self, workspace, capsys):
        code, _ = run(capsys, "eval", "--trajectories", str(workspace["trajs"]),
                      "--formula", "x <= 1", "--bogus")
        assert code == 1


class TestDfaIg:
    def test_dfa_dot_output(self, tmp_path, capsys):
        dot = tmp_path / "dfa.dot"
        code, out = run(capsys, "dfa", "--formula", "F[<=1] x >= 1",
                        "--dot", str(dot))
        assert code == 0
        rep = json.loads(out)
        assert rep["result"]["states"] >= 2
        assert dot.read_text().startswith("digraph")

    @pytest.mark.parametrize("horizon", ["0", "-2", "2"])
    def test_dfa_horizon_option_gone_exit_one(self, horizon, capsys):
        # the automaton does not depend on the horizon, so `gtl dfa` takes none
        code = main(["dfa", "--formula", "F[<=1] x >= 1", "--L", horizon])
        assert code == 1
        assert re.search(r"No such option:? '?--L", capsys.readouterr().err)  # click words vary

    def test_dfa_state_cap_exit_one(self, capsys):
        code = main(["dfa", "--formula", "F[<=100000] x <= 1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [input]: automaton passes") and "100000" in err

    def test_ig_report(self, workspace, capsys):
        code, out = run(capsys, "ig", "--prior", str(workspace["prior"]),
                        "--graph", str(workspace["graph"]),
                        "--formula", "F x >= 1.5")
        assert code == 0
        rep = json.loads(out)
        assert rep["result"]["average_ig"] > 0
        assert set(rep["result"]["info_gain"]) == {"a", "b", "c"}

    def test_ig_non_finite_edge_label_exit_one(self, workspace, capsys):
        doc = json.loads(workspace["prior"].read_text())
        doc["edge_labels"] = {e: math.nan for e in doc["edge_labels"]}
        workspace["prior"].write_text(json.dumps(doc))  # written as NaN
        code = main(["ig", "--prior", str(workspace["prior"]),
                     "--graph", str(workspace["graph"]),
                     "--formula", "E 1 via (y <= 2) : x >= 1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error [input]: prior edge label")

    def test_ig_matches_compute_ig(self, workspace, capsys):
        _, out = run(capsys, "ig", "--prior", str(workspace["prior"]),
                     "--graph", str(workspace["graph"]),
                     "--formula", "F x >= 1.5")
        prior = load_prior(workspace["prior"], load_graph(workspace["graph"]))
        want = compute_ig(prior, parse("F x >= 1.5"))
        got = json.loads(out)["result"]
        assert got["probabilities"] == want.probabilities
        assert got["info_gain"] == want.info_gain


class TestIdentify:
    def test_feasible_run(self, workspace, capsys):
        code, out = run(capsys, "identify",
                        "--trajectories", str(workspace["trajs"]),
                        "--prior", str(workspace["prior"]),
                        "--templates", str(workspace["templates"]),
                        "--pth", "0.5", "--eps", "0.1")
        assert code == 0
        rep = json.loads(out)
        assert rep["result"]["best"] is not None
        assert rep["result"]["results"][0]["feasible"]

    def test_empty_trajectory_list_exit_one(self, workspace, capsys):
        workspace["trajs"].write_text("[]")
        code = main(["identify", "--trajectories", str(workspace["trajs"]),
                     "--graph", str(workspace["graph"]),
                     "--prior", str(workspace["prior"]),
                     "--templates", str(workspace["templates"])])
        assert code == 1
        assert capsys.readouterr().err.startswith("error [usage]")

    def test_zero_budget_exit_one(self, workspace, capsys):
        code = main(["identify", "--trajectories", str(workspace["trajs"]),
                     "--prior", str(workspace["prior"]),
                     "--templates", str(workspace["templates"]),
                     "--budget", "0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error [input]")

    def test_integer_box_beyond_2_53_exit_one(self, workspace, capsys):
        workspace["templates"].write_text(json.dumps({
            "formula": "F[<=?i] x >= 1",
            "params": {"i": {"kind": "integer", "min": 0, "max": 1e300}}}))
        code = main(["identify", "--trajectories", str(workspace["trajs"]),
                     "--prior", str(workspace["prior"]),
                     "--templates", str(workspace["templates"])])
        assert code == 1
        assert capsys.readouterr().err.startswith("error [input]: parameter range [0.0, 1e+300]")

    def test_box_wider_than_a_float_exit_one(self, workspace, capsys):
        workspace["templates"].write_text(json.dumps({
            "formula": "F x >= ?c", "params": {"c": {"min": -1e308, "max": 1e308}}}))
        code = main(["identify", "--trajectories", str(workspace["trajs"]),
                     "--prior", str(workspace["prior"]),
                     "--templates", str(workspace["templates"])])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [input]: parameter range [-1e+308, 1e+308] is wider")
        assert "Traceback" not in err

    def test_infeasible_exit_two(self, workspace, capsys):
        # demanding coverage 1.0 of F x >= 2 is impossible on labels in [0, 2)
        save_templates(workspace["templates"], [
            Template(parse("F x >= ?c"),
                     {"c": ParamSpec(1.9, 2.0, "continuous")})])
        code, _ = run(capsys, "identify",
                      "--trajectories", str(workspace["trajs"]),
                      "--prior", str(workspace["prior"]),
                      "--templates", str(workspace["templates"]),
                      "--pth", "1.0")
        assert code == 2


class TestClassify:
    def test_success(self, workspace, capsys):
        code, out = run(capsys, "classify",
                        "--trajectories", str(workspace["trajs"]),
                        "--templates", str(workspace["templates"]),
                        "--mth", "0.02", "--mhat", "0.5")
        assert code == 0
        rep = json.loads(out)
        assert rep["result"]["success"]
        assert rep["result"]["train_mr"] <= 0.02
        # one real axis, a node-label threshold: both primitives are fit exactly
        assert [row["search"] for row in rep["result"]["stage1"]] == ["exact", "exact"]
        assert {e["search"] for e in rep["result"]["search_log"]} == {"exact"}

    def test_seed_determinism(self, workspace, capsys):
        args = ("classify", "--trajectories", str(workspace["trajs"]),
                "--templates", str(workspace["templates"]),
                "--mth", "0.02", "--mhat", "0.5", "--seed", "11")
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        r1, r2 = json.loads(out1)["result"], json.loads(out2)["result"]
        assert r1["formula"] == r2["formula"]

    def test_infinite_box_exit_one(self, workspace, capsys):
        workspace["templates"].write_text(
            '{"formula": "F x >= ?c", "params": {"c": {"min": -Infinity, "max": Infinity}}}')
        code = main(["classify", "--trajectories", str(workspace["trajs"]),
                     "--templates", str(workspace["templates"])])
        assert code == 1
        assert "error [input]" in capsys.readouterr().err

    def test_no_candidate_within_eta_exit_two(self, workspace, capsys):
        save_templates(workspace["templates"], [
            Template(parse("G (x <= ?c & x >= ?d & x <= ?e)"),
                     {n: ParamSpec(0.0, 2.0, "continuous") for n in "cde"})])
        code = main(["classify", "--trajectories", str(workspace["trajs"]),
                     "--templates", str(workspace["templates"]),
                     "--eta", "1", "--mhat", "0.9"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error [infeasible]: no formula reached MR <= 0.02")
        result = json.loads(captured.out)["result"]
        assert (result["success"], result["formula"], result["train_mr"], result["size"]) == \
            (False, None, 1.0, 0)

    def test_failure_exit_two(self, workspace, capsys):
        save_templates(workspace["templates"], [
            Template(parse("F x >= ?c"),
                     {"c": ParamSpec(1.9, 2.0, "continuous")})])
        code, _ = run(capsys, "classify",
                      "--trajectories", str(workspace["trajs"]),
                      "--templates", str(workspace["templates"]),
                      "--mth", "0.0", "--mhat", "0.5")
        assert code == 2


class TestGen:
    def test_prior_sample(self, workspace, tmp_path, capsys):
        out_file = tmp_path / "sampled.json"
        code, out = run(capsys, "gen", "prior-sample",
                        "--prior", str(workspace["prior"]),
                        "--graph", str(workspace["graph"]),
                        "--n", "4", "--out", str(out_file), "--seed", "3")
        assert code == 0
        assert json.loads(out)["result"]["n"] == 4

    def test_swarm(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out = run(capsys, "gen", "swarm", "--n", "2", "--L", "4")
        assert code == 0
        assert json.loads(out)["result"]["n"] == 2

    def test_planted(self, workspace, capsys):
        code, out = run(capsys, "gen", "planted",
                        "--formula", "F x >= 1",
                        "--prior", str(workspace["prior"]),
                        "--graph", str(workspace["graph"]),
                        "--npos", "2", "--nneg", "2", "--seed", "1")
        assert code == 0
        rep = json.loads(out)["result"]
        assert rep["npos"] == 2 and rep["nneg"] == 2
        assert rep["separator_mr"] <= 0.05

    def test_empty_planted_set(self, workspace, tmp_path, capsys):
        out_file = tmp_path / "empty.json"
        code, out = run(capsys, "gen", "planted",
                        "--formula", "F x >= 1",
                        "--prior", str(workspace["prior"]),
                        "--graph", str(workspace["graph"]),
                        "--npos", "0", "--nneg", "0", "--out", str(out_file))
        assert code == 0
        rep = json.loads(out)["result"]
        assert rep["npos"] == 0 and rep["nneg"] == 0
        assert rep["separator_mr"] is None
        assert json.loads(out_file.read_text()) == []

    @pytest.mark.parametrize("command, flag", [
        ("swarm", "--n"), ("planted", "--npos"), ("planted", "--nneg"),
        ("prior-sample", "--n")])
    def test_negative_count_exit_one(self, workspace, capsys, command, flag):
        files = ["--prior", str(workspace["prior"]), "--graph", str(workspace["graph"])]
        args = {"swarm": [], "planted": ["--formula", "F x >= 1", *files],
                "prior-sample": files}[command]
        code = main(["gen", command, *args, flag, "-1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [input]: n")
        assert "Traceback" not in err


class TestSeedFallback:
    def test_env_seed(self, workspace, capsys, monkeypatch):
        monkeypatch.setenv("GTL_SEED", "99")
        code, out = run(capsys, "classify",
                        "--trajectories", str(workspace["trajs"]),
                        "--templates", str(workspace["templates"]),
                        "--mhat", "0.5")
        assert code == 0
        assert json.loads(out)["seed"] == 99

    def test_malformed_env_seed_exit_one(self, capsys, monkeypatch):
        monkeypatch.setenv("GTL_SEED", "abc")
        code = main(["gen", "swarm", "--n", "1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error [usage]: GTL_SEED")

    @pytest.mark.parametrize("flag, env, source", [
        (["--seed", "-1"], None, "--seed"), ([], "-3", "GTL_SEED")])
    def test_negative_seed_exit_one(self, capsys, monkeypatch, tmp_path, flag, env, source):
        monkeypatch.chdir(tmp_path)
        if env is not None:
            monkeypatch.setenv("GTL_SEED", env)
        code = main(["gen", "swarm", "--n", "1", *flag])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [usage]: {source} must be a non-negative integer")
        assert "Traceback" not in err

    def test_help_exits_zero(self, capsys):
        code, out = run(capsys, "--help")
        assert code == 0
        assert "identify" in out


# ---------------------------------------------------------------------------
# exit codes on malformed input

_LEAVES = (st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-100, 100)
           | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=6))
_JSON = st.recursive(_LEAVES, lambda sub: st.lists(sub, max_size=4)
                     | st.dictionaries(st.text(max_size=6), sub, max_size=4),
                     max_leaves=8)


@st.composite
def _mutated(draw, doc):
    """doc with one node, picked by a random walk from the root, replaced by
    a random JSON value or dropped from its parent."""
    if isinstance(doc, (dict, list)) and doc and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(list(doc) if isinstance(doc, dict) else range(len(doc))))
        out = copy.copy(doc)
        if draw(st.integers(0, 4)) == 0:
            del out[key]
        else:
            out[key] = draw(_mutated(doc[key]))
        return out
    return draw(_JSON)


_FORMULA_CHARS = "xy<=>0123456789.?c! &|->()[]FGUE via:TRUEFALS "
# command -> files it reads and whether it takes a formula
_COMMANDS = {
    "eval": (("trajs", "graph"), True),
    "ig": (("prior", "graph"), True),
    "identify": (("trajs", "prior", "templates"), False),
    "classify": (("trajs", "templates"), False),
}
_ARGS = {
    "eval": ["--trajectories", "{trajs}", "--graph", "{graph}", "--node", "a", "--per-node"],
    "ig": ["--prior", "{prior}", "--graph", "{graph}"],
    "identify": ["--trajectories", "{trajs}", "--prior", "{prior}",
                 "--templates", "{templates}", "--pth", "0.5", "--budget", "8"],
    "classify": ["--trajectories", "{trajs}", "--templates", "{templates}",
                 "--mhat", "0.5", "--eta", "1"],
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_input_exits_cleanly(workspace, capsys, command, data):
    files, takes_formula = _COMMANDS[command]
    paths = dict(workspace)
    bad = data.draw(st.sampled_from(files + ("formula",) if takes_formula else files))
    formula = "F x >= 1"
    if bad == "formula":
        formula = data.draw(st.text(_FORMULA_CHARS, max_size=30)
                            | st.builds(lambda a, b: a + formula + b,
                                        st.text(_FORMULA_CHARS, max_size=3),
                                        st.text(_FORMULA_CHARS, max_size=3)))
    else:
        doc = json.loads(workspace[bad].read_text())
        text = data.draw(st.builds(json.dumps, _mutated(doc)) | st.text(max_size=20))
        paths[bad] = workspace["out"].with_name(f"bad_{bad}.json")
        paths[bad].write_text(text)
    argv = [command] + [a.format(**paths) for a in _ARGS[command]]
    if takes_formula:
        argv += ["--formula", formula]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code and not err.startswith(("Error:", "Usage:")):  # click's own usage errors
        assert re.fullmatch(r"error \[[a-z]+\]: [^\n]*\n", err), err
