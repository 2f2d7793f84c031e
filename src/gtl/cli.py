"""Command-line interface: evaluation, automata export, information gain,
identification, classification, and data generation.

Every command emits a JSON report (or a text rendering of the same
structure) embedding the tool version, the effective configuration, the
seed, and wall-clock timings.  Exit codes: 0 success, 1 input/usage error,
2 constraint infeasibility.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict

import click

from . import __version__
from .automata import to_dfa
from .classify import PsoConfig, infer_classifier
from .datagen import SwarmScenario, gen_planted, gen_swarm, sample_prior
from .errors import GtlError, InfeasibleError, UsageError
from .formula import parse, print_formula
from .graph import load_graph, load_trajectories, save_trajectories
from .identify import identify as identify_op
from .prior import compute_ig, load_prior
from .semantics import _coverage, _misclassification, _positive, _table, misclassification_rate
from .templates import load_templates


def _seed(value):
    if value is not None:
        return int(value)
    env = os.environ.get("GTL_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"GTL_SEED must be an integer, got {env!r}") from None


def _report(command, config, seed, started, result):
    return {
        "version": __version__,
        "command": command,
        "config": config,
        "seed": seed,
        "timings": {"wall_s": round(time.perf_counter() - started, 6)},
        "result": result,
    }


def _emit(report, out, fmt):
    if fmt == "json":
        text = json.dumps(report, indent=2, default=_jsonable)
    else:
        text = _render_text(report)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    click.echo(text)


def _jsonable(x):
    import numpy as np
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    return str(x)


def _render_text(report, indent=0):
    lines = []

    def walk(obj, depth):
        pad = "  " * depth
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    walk(v, depth + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}-")
                    walk(v, depth + 1)
                else:
                    lines.append(f"{pad}- {v}")
        else:
            lines.append(f"{pad}{obj}")

    walk(report, indent)
    return "\n".join(lines)


_common = [
    click.option("--out", type=click.Path(), default=None, help="write the report here as well"),
    click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json"),
    click.option("--seed", type=int, default=None, help="RNG seed (falls back to GTL_SEED, then 0)"),
]


def common_options(f):
    for opt in reversed(_common):
        f = opt(f)
    return f


@click.group()
@click.version_option(__version__)
def cli():
    """Graph temporal logic toolkit."""


@cli.command("eval")
@click.option("--trajectories", "traj_path", required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", type=click.Path(exists=True), default=None)
@click.option("--formula", required=True)
@click.option("--node", default=None, help="restrict output to one node")
@click.option("--per-node", is_flag=True, help="include the full per-node satisfaction table")
@common_options
def eval_cmd(traj_path, graph_path, formula, node, per_node, out, fmt, seed):
    """Evaluate a formula on trajectories: signatures, coverage, and MR."""
    started = time.perf_counter()
    f = parse(formula)
    g = load_graph(graph_path) if graph_path else None
    trajs = load_trajectories(traj_path, g)
    if not trajs:
        raise UsageError("coverage of an empty trajectory set is undefined")
    table = _table(trajs, f)  # the one evaluation every figure below reads
    vi = None if node is None else trajs[0].graph.index_of(node)
    result = {"formula": print_formula(f), "coverage": float(_coverage(table))}
    rows = []
    for i, t in enumerate(trajs):
        row = {"trajectory": i}
        if t.label is not None:
            row["label"] = t.label
        if vi is not None:
            row["signature"] = 1 if table[i, vi, 0] else -1
        if per_node:
            row["satisfied_nodes"] = {v: bool(table[i, j, 0]) for j, v in enumerate(t.graph.nodes)}
        rows.append(row)
    result["trajectories"] = rows
    if all(t.label in (1, -1) for t in trajs):
        result["misclassification_rate"] = _misclassification(table, _positive(trajs))
    _emit(_report("eval", {"formula": formula, "node": node}, _seed(seed), started, result), out, fmt)


@cli.command("dfa")
@click.option("--formula", required=True)
@click.option("--L", "horizon", type=int, default=None)
@click.option("--dot", "dot_path", type=click.Path(), default=None)
@common_options
def dfa_cmd(formula, horizon, dot_path, out, fmt, seed):
    """Build the automaton of a formula and optionally export DOT."""
    started = time.perf_counter()
    f = parse(formula)
    dfa, aps = to_dfa(f, horizon)
    if dot_path:
        with open(dot_path, "w") as fh:
            fh.write(dfa.to_dot() + "\n")
    result = {
        "formula": print_formula(f),
        "states": dfa.n_states,
        "letters": dfa.n_letters,
        "initial": dfa.initial,
        "accepting": [int(q) for q in range(dfa.n_states) if dfa.accepting[q]],
        "atomic_predicates": [str(a) for a in aps],
    }
    _emit(_report("dfa", {"formula": formula, "L": horizon}, _seed(seed), started, result), out, fmt)


@cli.command("ig")
@click.option("--prior", "prior_path", required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--formula", required=True)
@common_options
def ig_cmd(prior_path, graph_path, formula, out, fmt, seed):
    """Information gain of a formula under a prior."""
    started = time.perf_counter()
    g = load_graph(graph_path)
    prior = load_prior(prior_path, g)
    f = parse(formula)
    rep = compute_ig(prior, f)
    result = {"probabilities": rep.probabilities, "info_gain": rep.info_gain,
              "average_ig": rep.average_ig, "units": rep.units}
    result["formula"] = print_formula(f)
    _emit(_report("ig", {"formula": formula}, _seed(seed), started, result), out, fmt)


@cli.command("identify")
@click.option("--trajectories", "traj_path", required=True, type=click.Path(exists=True))
@click.option("--prior", "prior_path", required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", type=click.Path(exists=True), default=None)
@click.option("--templates", "tpl_path", required=True, type=click.Path(exists=True))
@click.option("--pth", type=float, default=0.98, show_default=True)
@click.option("--eps", type=float, default=0.05, show_default=True)
@click.option("--budget", type=int, default=500, show_default=True)
@common_options
def identify_cmd(traj_path, prior_path, graph_path, tpl_path, pth, eps, budget,
                 out, fmt, seed):
    """Identify coverage-feasible, information-maximal template parameters."""
    started = time.perf_counter()
    g = load_graph(graph_path) if graph_path else None
    trajs = load_trajectories(traj_path, g)
    if not trajs:
        raise UsageError("identification needs at least one trajectory")
    prior = load_prior(prior_path, trajs[0].graph)
    templates = load_templates(tpl_path)
    report = identify_op(trajs, prior, templates, p_th=pth, eps=eps, budget=budget)
    rows = []
    for r in report.results:
        row = {"template": r.template.name or print_formula(r.template.formula),
               "feasible": r.feasible}
        if r.feasible:
            row.update({
                "formula": print_formula(r.formula),
                "valuation": r.valuation,
                "omega": list(r.omega),
                "coverage": r.coverage,
                "average_ig": r.average_ig,
                "info_gain": r.info_gain,
                "front": r.front,
                "queries": r.n_queries,
                "achieved_gap": r.achieved_gap,
                "approximate": r.approximate,
                "query_log": r.query_log,
            })
        else:
            row["reason"] = r.reason
            row["queries"] = r.n_queries
        rows.append(row)
    best = report.best
    result = {"results": rows,
              "best": print_formula(best.formula) if best else None}
    cfg = {"pth": pth, "eps": eps, "budget": budget}
    rep = _report("identify", cfg, _seed(seed), started, result)
    _emit(rep, out, fmt)
    if best is None:
        raise InfeasibleError("no template satisfies the coverage constraint")


@cli.command("classify")
@click.option("--trajectories", "traj_path", required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", type=click.Path(exists=True), default=None)
@click.option("--templates", "tpl_path", required=True, type=click.Path(exists=True))
@click.option("--mth", type=float, default=0.02, show_default=True)
@click.option("--eta", type=int, default=3, show_default=True)
@click.option("--mhat", type=float, default=0.1, show_default=True)
@common_options
def classify_cmd(traj_path, graph_path, tpl_path, mth, eta, mhat, out, fmt, seed):
    """Infer a classifying formula from labeled trajectories."""
    started = time.perf_counter()
    g = load_graph(graph_path) if graph_path else None
    data = load_trajectories(traj_path, g)
    templates = load_templates(tpl_path)
    cfg = PsoConfig(seed=_seed(seed))
    res = infer_classifier(data, templates, m_th=mth, eta_th=eta, mhat_th=mhat, cfg=cfg)
    result = {
        "success": res.success,
        "formula": print_formula(res.formula) if res.formula is not None else None,
        "train_mr": res.train_mr,
        "size": res.size,
        "stage1": res.stage1,
        "search_log": res.search_log,
    }
    # the seed is reported once, at the top level of the report
    pso = {k: v for k, v in asdict(cfg).items() if k != "seed"}
    config = {"mth": mth, "eta": eta, "mhat": mhat, "pso": pso}
    _emit(_report("classify", config, _seed(seed), started, result), out, fmt)
    if not res.success:
        raise InfeasibleError(f"no formula reached MR <= {mth} "
                              f"(best {res.train_mr:.4f})")


@cli.group("gen")
def gen_group():
    """Synthetic data generators."""


@gen_group.command("swarm")
@click.option("--n", type=int, default=10, show_default=True)
@click.option("--L", "horizon", type=int, default=12, show_default=True)
@common_options
def gen_swarm_cmd(n, horizon, out, fmt, seed):
    """Density trajectories satisfying the swarm constraint."""
    started = time.perf_counter()
    sc = SwarmScenario(L=horizon, seed=_seed(seed))
    trajs = gen_swarm(sc, n)
    if out:
        save_trajectories(out, trajs)
    result = {"n": len(trajs), "L": horizon, "nodes": trajs[0].graph.n_nodes if trajs else 0,
              "written": out}
    _emit(_report("gen swarm", {"n": n, "L": horizon}, _seed(seed), started, result), None, fmt)


@gen_group.command("planted")
@click.option("--formula", required=True)
@click.option("--prior", "prior_path", required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--npos", type=int, default=5, show_default=True)
@click.option("--nneg", type=int, default=5, show_default=True)
@common_options
def gen_planted_cmd(formula, prior_path, graph_path, npos, nneg, out, fmt, seed):
    """Labeled dataset split by a planted separator formula."""
    started = time.perf_counter()
    g = load_graph(graph_path)
    prior = load_prior(prior_path, g)
    f = parse(formula)
    data = gen_planted(f, prior, npos, nneg, seed=_seed(seed))
    if out:
        save_trajectories(out, data)
    # an empty set has no misclassification rate
    result = {"npos": npos, "nneg": nneg,
              "separator_mr": misclassification_rate(data, f) if data else None,
              "written": out}
    _emit(_report("gen planted", {"formula": formula, "npos": npos, "nneg": nneg},
                  _seed(seed), started, result), None, fmt)


@gen_group.command("prior-sample")
@click.option("--prior", "prior_path", required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--n", type=int, default=16, show_default=True)
@common_options
def gen_prior_sample_cmd(prior_path, graph_path, n, out, fmt, seed):
    """Independent draws from a prior model."""
    started = time.perf_counter()
    g = load_graph(graph_path)
    prior = load_prior(prior_path, g)
    trajs = sample_prior(prior, n, seed=_seed(seed))
    if out:
        save_trajectories(out, trajs)
    result = {"n": n, "written": out}
    _emit(_report("gen prior-sample", {"n": n}, _seed(seed), started, result), None, fmt)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except InfeasibleError as exc:
        click.echo(f"error [{exc.code}]: {exc}", err=True)
        return 2
    except GtlError as exc:
        click.echo(f"error [{exc.code}]: {exc}", err=True)
        return 1
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except OSError as exc:
        click.echo(f"error [input]: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
