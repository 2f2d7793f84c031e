"""Command-line interface: reports, exit codes, seeds, file IO."""

import json

import numpy as np
import pytest

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

    def test_ig_report(self, workspace, capsys):
        code, out = run(capsys, "ig", "--prior", str(workspace["prior"]),
                        "--graph", str(workspace["graph"]),
                        "--formula", "F x >= 1.5")
        assert code == 0
        rep = json.loads(out)
        assert rep["result"]["average_ig"] > 0
        assert set(rep["result"]["info_gain"]) == {"a", "b", "c"}

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

    def test_seed_determinism(self, workspace, capsys):
        args = ("classify", "--trajectories", str(workspace["trajs"]),
                "--templates", str(workspace["templates"]),
                "--mth", "0.02", "--mhat", "0.5", "--seed", "11")
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        r1, r2 = json.loads(out1)["result"], json.loads(out2)["result"]
        assert r1["formula"] == r2["formula"]

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


class TestSeedFallback:
    def test_env_seed(self, workspace, capsys, monkeypatch):
        monkeypatch.setenv("GTL_SEED", "99")
        code, out = run(capsys, "classify",
                        "--trajectories", str(workspace["trajs"]),
                        "--templates", str(workspace["templates"]),
                        "--mhat", "0.5")
        assert code == 0
        assert json.loads(out)["seed"] == 99

    def test_help_exits_zero(self, capsys):
        code, out = run(capsys, "--help")
        assert code == 0
        assert "identify" in out
