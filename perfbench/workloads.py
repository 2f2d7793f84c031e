"""The benchmark's workloads: planted classification, swarm identification
and an information-gain sweep of the built-in shapes.

A workload sets up `setups` independent inputs from the run's seed, each
set-up timed on its own, and keeps the first `instances` of them; `run` is
one operation on one instance, and a pass runs it once per instance.  Where
one set-up's time varies widely with the data, `setups` exceeds `instances`
so that the median set-up time is steady.  Every operation gets fresh trajectory
objects, so the per-trajectory satisfaction cache of one operation never
serves another.  `check` says whether one operation's output is correct and
what quality figures it reaches.

Why each workload exists, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from gtl.classify import PsoConfig, infer_classifier
from gtl.datagen import SwarmScenario, gen_planted, gen_swarm
from gtl.formula import parse, print_formula
from gtl.graph import GraphTemporalTrajectory, LabeledGraph
from gtl.identify import identify
from gtl.prior import PriorModel, compute_ig
from gtl.semantics import coverage, misclassification_rate
from gtl.templates import ParamSpec, Template, builtin_templates, default_box

REFERENCE_FILE = Path(__file__).with_name("ig_reference.json")
REFERENCE_SEED = 0  # the sweep's reference values come from this run seed
REFERENCE_TOL = 1e-9
# the DFA recursion sums in floating point: P1-2 at the second valuation
# reaches 1 + 2.9e-15 on some priors
PROB_TOL = 1e-12


def sub_seed(*parts: int) -> int:
    """A 32-bit seed derived from the run seed and an instance path."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def fresh(trajectories):
    """Copies that share the label arrays but start with empty caches."""
    return [GraphTemporalTrajectory(t.graph, t.node_labels, t.edge_labels,
                                    label=t.label) for t in trajectories]


def fingerprint(value) -> str:
    """Exact text of an output, for comparing two runs of one operation."""
    return json.dumps(value, sort_keys=True, default=repr)


def swarm_prior(scenario: SwarmScenario, train) -> PriorModel:
    """The prior that the swarm acceptance test fits: two density bins,
    Laplace-smoothed per-(node, time) counts from the training set, and the
    scenario's static edge distances."""
    g = train[0].graph
    el = scenario.edge_labels(g)
    static_el = {e: float(el[j, 0]) for j, e in enumerate(g.edges)}
    bins = ((0.0, 0.125), (0.125, 1.0))
    pmf = {}
    for vi, v in enumerate(g.nodes):
        rows = np.zeros((scenario.L, 2))
        for k in range(scenario.L):
            low = sum(tr.node_labels[vi, k] < 0.125 for tr in train)
            rows[k] = [low + 1, len(train) - low + 1]
        pmf[v] = rows / rows.sum(axis=1, keepdims=True)
    return PriorModel(g, scenario.L, bins, pmf, static_el)


class ClassifyPlanted:
    """The planted-separator classification setup: one `infer_classifier`
    call per instance, on a complete graph of 20 nodes with L = 2."""

    name = "classify-planted"
    M_TH, ETA_TH, MHAT_TH = 0.02, 3, 0.1
    HELDOUT_MR_MAX = 0.5  # a constant guess; a classifier worse than that is broken

    def __init__(self, small=False):
        self.instances = 1 if small else 2
        self.setups = 1 if small else 6
        self.per_class = 2 if small else 5
        self.pso = dict(swarm=4, iterations=2) if small else {}

    def setup(self, seed):
        g = LabeledGraph.complete([f"n{i}" for i in range(20)])
        prior = PriorModel(g, 2, ((0.0, 0.9), (1.1, 2.0)),
                           {v: np.tile([0.5, 0.5], (2, 1)) for v in g.nodes},
                           {e: 1.0 for e in g.edges})
        sep = parse("E 15 via (y <= 2) : x >= 1 & E 1 via (y <= 2) : x <= 0.9")
        box = {"N": ParamSpec(1, 19, "integer"),
               "c": ParamSpec(0.0, 2.0, "continuous")}
        n = self.per_class
        return {
            "train": gen_planted(sep, prior, n, n, seed=sub_seed(seed, 0)),
            "held": gen_planted(sep, prior, n, n, seed=sub_seed(seed, 1)),
            "templates": [Template(parse("E ?N via (y <= 2) : x >= ?c"), box),
                          Template(parse("E ?N via (y <= 2) : x <= ?c"), box)],
            "pso_seed": sub_seed(seed, 2),
        }

    def run(self, inst):
        return infer_classifier(
            fresh(inst["train"]), inst["templates"], m_th=self.M_TH,
            eta_th=self.ETA_TH, mhat_th=self.MHAT_TH,
            cfg=PsoConfig(seed=inst["pso_seed"], **self.pso))

    def fingerprint(self, res):
        return fingerprint([res.success, res.train_mr, res.size,
                            print_formula(res.formula) if res.formula else None,
                            [[r["name"], r["mr"], r["theta"]] for r in res.stage1]])

    def check(self, inst, res):
        if res.formula is None:
            return False, {}
        mr_t = misclassification_rate(fresh(inst["train"]), res.formula)
        mr_h = misclassification_rate(fresh(inst["held"]), res.formula)
        ok = res.success and mr_t <= self.M_TH and mr_h <= self.HELDOUT_MR_MAX
        return ok, {"train_mr": mr_t, "heldout_mr": mr_h}


class IdentifySwarm:
    """The swarm identification setup: one `identify` call per instance,
    each on its own swarm data set and fitted prior."""

    name = "identify-swarm"
    P_TH, EPS = 0.98, 0.05

    def __init__(self, small=False):
        self.instances = self.setups = 2 if small else 64

    def setup(self, seed):
        sc = SwarmScenario(seed=sub_seed(seed, 0))
        train = gen_swarm(sc, 10)
        held = gen_swarm(SwarmScenario(seed=sub_seed(seed, 1)), 10)
        # the box is the acceptance test's: freeing i3 or N makes single
        # identifications run for minutes
        tpl = Template(
            parse("G (x >= ?a -> G[<=?i3] E ?N via (y <= ?d) : x <= ?c)"),
            {"a": ParamSpec(0.05, 0.4, "continuous"),
             "c": ParamSpec(0.112, 0.2, "continuous"),
             "i3": ParamSpec(2, 2, "integer"),
             "N": ParamSpec(1, 1, "integer"),
             "d": ParamSpec(1.0, 1.0, "continuous")})
        return {"train": train, "held": held, "prior": swarm_prior(sc, train),
                "template": tpl}

    def run(self, inst):
        return identify(fresh(inst["train"]), inst["prior"], [inst["template"]],
                        p_th=self.P_TH, eps=self.EPS)

    def fingerprint(self, rep):
        return fingerprint([[r.feasible, r.valuation, r.average_ig, r.n_queries,
                             r.front, r.achieved_gap] for r in rep.results])

    def check(self, inst, rep):
        best = rep.best
        if best is None or not best.feasible:
            return False, {}
        cov_t = coverage(fresh(inst["train"]), best.formula)
        cov_h = coverage(fresh(inst["held"]), best.formula)
        ok = cov_t >= self.P_TH and best.average_ig > 0
        return ok, {"train_cov": cov_t, "heldout_cov": cov_h,
                    "avg_ig": best.average_ig, "queries": best.n_queries}


# fixed valuations: random draws of i3 and N made single shapes cost
# anywhere from 0.04 s to 41 s
IG_VALUATIONS = (
    {"i1": 1, "i2": 6, "i3": 2, "N": 1, "d": 1.0, "c": 0.11, "a": 0.125},
    {"i1": 2, "i2": 8, "i3": 3, "N": 2, "d": 1.5, "c": 0.11, "a": 0.125},
)


def sweep_formulas():
    """The 10 built-in shapes at horizon 12, each at both fixed valuations."""
    box = default_box(12, label_range=(0.0, 0.5), max_count=3, max_edge=2.5)
    shapes = builtin_templates("type-I", box) + builtin_templates("type-II", box)
    return [(f"{t.name}/{i}", t.instantiate({n: val[n] for n in t.param_names}))
            for t in shapes for i, val in enumerate(IG_VALUATIONS)]


class IgSweep:
    """Information gain of every sweep formula on a swarm prior: one
    operation is the sweep on one prior, a `compute_ig` over all 9 nodes
    per formula.  (Per formula, the median time would fall between two of
    the formulas' cost clusters and jump from run to run.)"""

    name = "ig-sweep"

    def __init__(self, small=False):
        self.instances = 1 if small else 9
        self.setups = 1 if small else 30
        self.n_formulas = 2 if small else None

    def setup(self, seed):
        sc = SwarmScenario(seed=sub_seed(seed, 0))
        return {"prior": swarm_prior(sc, gen_swarm(sc, 10)),
                "formulas": sweep_formulas()[:self.n_formulas]}

    def run(self, inst):
        return [compute_ig(inst["prior"], f) for _, f in inst["formulas"]]

    def fingerprint(self, reps):
        return fingerprint([[r.probabilities, r.average_ig] for r in reps])

    def check(self, inst, reps):
        L = inst["prior"].L
        ok = True
        for rep in reps:
            for v, p in rep.probabilities.items():
                want = 0.0 if p <= 0.0 else -math.log(p) / L
                ok &= (-PROB_TOL <= p <= 1.0 + PROB_TOL
                       and abs(rep.info_gain[v] - want) <= PROB_TOL)
            mean = sum(rep.info_gain.values()) / len(rep.info_gain)
            ok &= abs(rep.average_ig - mean) <= PROB_TOL
        return bool(ok), {"avg_ig": sum(r.average_ig for r in reps) / len(reps)}

    def reference_sweep(self):
        """{formula id: average IG} on the reference seed's first instance."""
        inst = self.setup(sub_seed(REFERENCE_SEED, 0))
        reps = self.run(inst)
        return {name: r.average_ig for (name, _), r in zip(inst["formulas"], reps)}

    def reference_mismatches(self):
        """Formula ids whose average IG differs from the recorded reference."""
        want = json.loads(REFERENCE_FILE.read_text())["average_ig"]
        got = self.reference_sweep()
        return sorted(n for n, ig in got.items()
                      if n not in want or abs(ig - want[n]) > REFERENCE_TOL)


WORKLOADS = {w.name: w for w in (ClassifyPlanted, IdentifySwarm, IgSweep)}


if __name__ == "__main__":
    # PYTHONPATH=src python3 perfbench/workloads.py   rewrites the reference
    REFERENCE_FILE.write_text(json.dumps(
        {"seed": REFERENCE_SEED, "average_ig": IgSweep().reference_sweep()},
        indent=1) + "\n")
