"""Command-line interface: evaluation, automata export, information gain,
identification, classification, and data generation.

Every command leaves the process by one report path, the `_command`
decorator.  It checks the seed before the command reads any input, times
the command, and emits a JSON report (or a text rendering of the same
structure) whose keys are the tool version, the command, the effective
configuration, the seed, the wall-clock timings and the result.  Exit
codes: 0 success, 1 input/usage error, 2 constraint infeasibility.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from dataclasses import asdict

import click
import numpy as np

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
    source = "--seed"
    if value is None:
        source, value = "GTL_SEED", os.environ.get("GTL_SEED") or 0
        try:
            value = int(value)
        except ValueError:
            raise UsageError(f"GTL_SEED must be an integer, got {value!r}") from None
    if value < 0:
        raise UsageError(f"{source} must be a non-negative integer, got {value}")
    return value


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer, np.ndarray)):
        return x.tolist()
    return str(x)


def _render_text(obj, pad=""):
    """`key: value` lines for an object and `- value` lines for a list, a
    nested container on the lines after its key or dash, two spaces in."""
    if not isinstance(obj, (dict, list)):
        return f"{pad}{obj}"
    keyed, lines = isinstance(obj, dict), []
    for k, v in obj.items() if keyed else enumerate(obj):
        head = f"{pad}{k}:" if keyed else f"{pad}-"
        if not isinstance(v, (dict, list)):
            lines.append(f"{head} {v}")
        else:  # an empty container has no lines under its head
            lines += [head, _render_text(v, pad + "  ")] if v else [head]
    return "\n".join(lines)


@click.group()
@click.version_option(__version__)
def cli():
    """Graph temporal logic toolkit."""


cli.add_command(click.Group("gen", help="Synthetic data generators."))


def _command(name):
    """Register `gtl <name>` on the one report path.  The body gets its own
    options, and the checked seed and ``--out`` if it names them (then
    ``--out`` is its data file).  It returns ``(config, result)``, or
    ``(config, result, failure)`` to exit 2 once the report is printed."""
    group_name, _, leaf = name.rpartition(" ")

    def register(body):
        wants = inspect.signature(body).parameters

        @functools.wraps(body)
        def run(out, fmt, seed, **inputs):
            started, seed = time.perf_counter(), _seed(seed)
            given = {k: v for k, v in (("seed", seed), ("out", out)) if k in wants}
            config, result, *failure = body(**inputs, **given)
            report = {"version": __version__, "command": name, "config": config, "seed": seed,
                      "timings": {"wall_s": round(time.perf_counter() - started, 6)},
                      "result": result}
            text = (json.dumps(report, indent=2, default=_jsonable) if fmt == "json"
                    else _render_text(report))
            if out and "out" not in wants:
                with open(out, "w") as fh:
                    fh.write(text + "\n")
            click.echo(text)
            if any(failure):
                raise InfeasibleError(*failure)

        command = (cli.commands[group_name] if group_name else cli).command(leaf)(run)
        command.params += [
            click.Option(["--out"], type=click.Path(), default=None, help=(
                "write the generated trajectories here" if "out" in wants
                else "write the report here as well")),
            click.Option(["--format", "fmt"], type=click.Choice(["json", "text"]), default="json"),
            click.Option(["--seed"], type=int, default=None,
                         help="RNG seed (falls back to GTL_SEED, then 0)"),
        ]
        return command

    return register


@_command("eval")
@click.option("--trajectories", "traj_path", required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", type=click.Path(exists=True), default=None)
@click.option("--formula", required=True)
@click.option("--node", default=None, help="restrict output to one node")
@click.option("--per-node", is_flag=True, help="include the full per-node satisfaction table")
def eval_cmd(traj_path, graph_path, formula, node, per_node):
    """Evaluate a formula on trajectories: signatures, coverage, and MR."""
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
    return {"formula": formula, "node": node}, result


@_command("dfa")
@click.option("--formula", required=True)
@click.option("--dot", "dot_path", type=click.Path(), default=None)
def dfa_cmd(formula, dot_path):
    """Build the automaton of a formula and optionally export DOT."""
    f = parse(formula)
    dfa, aps = to_dfa(f)
    if dot_path:
        with open(dot_path, "w") as fh:
            fh.write(dfa.to_dot() + "\n")
    return {"formula": formula}, {
        "formula": print_formula(f),
        "states": dfa.n_states,
        "letters": dfa.n_letters,
        "initial": dfa.initial,
        "accepting": [int(q) for q in range(dfa.n_states) if dfa.accepting[q]],
        "atomic_predicates": [str(a) for a in aps],
    }


@_command("ig")
@click.option("--prior", "prior_path", required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--formula", required=True)
def ig_cmd(prior_path, graph_path, formula):
    """Information gain of a formula under a prior."""
    prior = load_prior(prior_path, load_graph(graph_path))
    f = parse(formula)
    rep = compute_ig(prior, f)
    result = {"probabilities": rep.probabilities, "info_gain": rep.info_gain,
              "average_ig": rep.average_ig, "units": rep.units, "formula": print_formula(f)}
    return {"formula": formula}, result


@_command("identify")
@click.option("--trajectories", "traj_path", required=True, type=click.Path(exists=True))
@click.option("--prior", "prior_path", required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", type=click.Path(exists=True), default=None)
@click.option("--templates", "tpl_path", required=True, type=click.Path(exists=True))
@click.option("--pth", type=float, default=0.98, show_default=True)
@click.option("--eps", type=float, default=0.05, show_default=True)
@click.option("--budget", type=int, default=500, show_default=True)
def identify_cmd(traj_path, prior_path, graph_path, tpl_path, pth, eps, budget):
    """Identify coverage-feasible, information-maximal template parameters."""
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
    result = {"results": rows, "best": print_formula(best.formula) if best else None}
    failure = None if best else "no template satisfies the coverage constraint"
    return {"pth": pth, "eps": eps, "budget": budget}, result, failure


@_command("classify")
@click.option("--trajectories", "traj_path", required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", type=click.Path(exists=True), default=None)
@click.option("--templates", "tpl_path", required=True, type=click.Path(exists=True))
@click.option("--mth", type=float, default=0.02, show_default=True)
@click.option("--eta", type=int, default=3, show_default=True)
@click.option("--mhat", type=float, default=0.1, show_default=True)
def classify_cmd(traj_path, graph_path, tpl_path, mth, eta, mhat, seed):
    """Infer a classifying formula from labeled trajectories."""
    g = load_graph(graph_path) if graph_path else None
    data = load_trajectories(traj_path, g)
    templates = load_templates(tpl_path)
    cfg = PsoConfig(seed=seed)
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
    failure = None if res.success else f"no formula reached MR <= {mth} (best {res.train_mr:.4f})"
    return {"mth": mth, "eta": eta, "mhat": mhat, "pso": pso}, result, failure


@_command("gen swarm")
@click.option("--n", type=int, default=10, show_default=True)
@click.option("--L", "horizon", type=int, default=12, show_default=True)
def gen_swarm_cmd(n, horizon, out, seed):
    """Density trajectories satisfying the swarm constraint."""
    trajs = gen_swarm(SwarmScenario(L=horizon, seed=seed), n)
    if out:
        save_trajectories(out, trajs)
    result = {"n": len(trajs), "L": horizon, "nodes": trajs[0].graph.n_nodes if trajs else 0,
              "written": out}
    return {"n": n, "L": horizon}, result


@_command("gen planted")
@click.option("--formula", required=True)
@click.option("--prior", "prior_path", required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--npos", type=int, default=5, show_default=True)
@click.option("--nneg", type=int, default=5, show_default=True)
def gen_planted_cmd(formula, prior_path, graph_path, npos, nneg, out, seed):
    """Labeled dataset split by a planted separator formula."""
    prior = load_prior(prior_path, load_graph(graph_path))
    f = parse(formula)
    data = gen_planted(f, prior, npos, nneg, seed=seed)
    if out:
        save_trajectories(out, data)
    # an empty set has no misclassification rate
    result = {"npos": npos, "nneg": nneg,
              "separator_mr": misclassification_rate(data, f) if data else None,
              "written": out}
    return {"formula": formula, "npos": npos, "nneg": nneg}, result


@_command("gen prior-sample")
@click.option("--prior", "prior_path", required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--n", type=int, default=16, show_default=True)
def gen_prior_sample_cmd(prior_path, graph_path, n, out, seed):
    """Independent draws from a prior model."""
    prior = load_prior(prior_path, load_graph(graph_path))
    trajs = sample_prior(prior, n, seed=seed)
    if out:
        save_trajectories(out, trajs)
    return {"n": n}, {"n": n, "written": out}


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except GtlError as exc:
        click.echo(f"error [{exc.code}]: {exc}", err=True)
        return 2 if isinstance(exc, InfeasibleError) else 1
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
