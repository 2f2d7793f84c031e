"""Classifier inference: the PSO optimizer, the exact threshold axis and
prune-and-grow.

`pso_loop` is the per-particle reference that `pso_minimize_mr` must match
exactly.  The exact route is checked twice over: its cut tables against the
boolean tables at every cell, and its sweep against a brute-force search
over every grid point and every value where the misclassification rate can
change.
"""

import itertools
import math

import numpy as np
import pytest

import gtl.classify
import gtl.graph
import gtl.semantics
import gtl.templates
from gtl.classify import (
    ClassifierResult, PsoConfig, _fit, _rounded, infer_classifier, pso_minimize_mr,
)
from gtl.errors import InputError, UsageError
from gtl.formula import desugar, formula_size, free_parameters, parse
from gtl.graph import GraphTemporalTrajectory, LabeledGraph
from gtl.semantics import _Evaluator, _misclassified, _positive, misclassification_rate
from gtl.templates import ParamSpec, Template


def labeled(values_list, labels, L):
    g = LabeledGraph(["a"], [])
    return [GraphTemporalTrajectory(g, [v], np.zeros((0, L)), label=lab)
            for v, lab in zip(values_list, labels)]


def threshold_data(split=5.0, n=8, L=3, seed=0):
    """Positives stay below split at all times, negatives peak above it."""
    rng = np.random.default_rng(seed)
    vals, labs = [], []
    for _ in range(n):
        vals.append(list(rng.uniform(0, split - 0.5, size=L)))
        labs.append(1)
        row = list(rng.uniform(0, split - 0.5, size=L))
        row[int(rng.integers(L))] = float(rng.uniform(split + 0.5, 10.0))
        vals.append(row)
        labs.append(-1)
    return labeled(vals, labs, L)


def g_template():
    return Template(parse("G x <= ?c"),
                    {"c": ParamSpec(0.0, 10.0, "continuous")}, name="Gle")


# `pso_minimize_mr` as it was before its iterations became array steps, kept
# verbatim as the per-particle reference: one theta dict and one key per
# particle, and an in-order pbest/gbest loop.
def _round_integers(theta, box):
    out = {}
    for name, spec in box.items():
        v = theta[name]
        if spec.kind == "integer":
            grid = spec.grid()
            v = min(max(int(round(v)), grid[0]), grid[-1])
        out[name] = v
    return out


def pso_loop(template: Template, data, cfg: PsoConfig,
             warm_starts=()) -> tuple[dict, float]:
    """Global-best PSO over the template box; returns (theta, MR).

    Integer dimensions are rounded at every fitness evaluation.  Optional
    warm_starts (valuations inside the box) replace the first particles'
    initial positions.  The template is compiled once per run, and each
    swarm step evaluates the valuations it has not seen before in one query.
    """
    if not data:
        raise UsageError("empty dataset")
    names = template.param_names
    box = template.box
    for theta in warm_starts:
        for n in names:
            if n not in theta:
                raise InputError(f"warm start {theta} has no value for parameter {n!r}")
            tol = 1e-9 if box[n].kind == "integer" else 0.0  # as ParamSpec.grid() allows
            if not box[n].min - tol <= theta[n] <= box[n].max + tol:
                raise InputError(f"warm start {n}={theta[n]} lies outside the box "
                                 f"[{box[n].min}, {box[n].max}]")
    lo = np.array([box[n].min for n in names])
    hi = np.array([box[n].max for n in names])
    width = hi - lo
    vmax = 0.5 * width
    rng = np.random.default_rng(cfg.seed)
    positive = _positive(data)
    evaluator = _Evaluator.of(data)  # one per run: labels stacked once, reach reused
    formula = template.compile()
    size = len(data) * data[0].graph.n_nodes  # (trajectory, node) pairs
    cache = {}

    def fitness(positions):
        """(MR, theta) of each particle; the uncached valuations share one query."""
        thetas = [_round_integers(dict(zip(names, p)), box) for p in positions]
        keys = [tuple(theta[n] for n in names) for theta in thetas]
        new = {key: theta for key, theta in zip(keys, thetas) if key not in cache}
        if new:
            values = {n: np.array([theta[n] for theta in new.values()], dtype=float)
                      for n in names}
            wrong = _misclassified(evaluator.tables(formula, values), positive)
            for key, w in zip(new, np.broadcast_to(wrong, len(new))):
                cache[key] = int(w) / size
        return [(cache[key], theta) for key, theta in zip(keys, thetas)]

    pos = lo + rng.random((cfg.swarm, len(names))) * width
    for i, theta in enumerate(warm_starts):
        if i >= cfg.swarm:
            break
        pos[i] = [theta[n] for n in names]
    vel = (rng.random((cfg.swarm, len(names))) - 0.5) * width

    pbest = pos.copy()
    pbest_val = np.empty(cfg.swarm)
    pbest_theta = [None] * cfg.swarm
    for i, (val, theta) in enumerate(fitness(pos)):
        pbest_val[i], pbest_theta[i] = val, theta
    g = int(np.argmin(pbest_val))
    gbest, gbest_val, gbest_theta = pbest[g].copy(), pbest_val[g], pbest_theta[g]

    for _ in range(cfg.iterations):
        if gbest_val == 0.0:
            break
        r1 = rng.random((cfg.swarm, len(names)))
        r2 = rng.random((cfg.swarm, len(names)))
        vel = (cfg.inertia * vel
               + cfg.cognitive * r1 * (pbest - pos)
               + cfg.social * r2 * (gbest - pos))
        vel = np.clip(vel, -vmax, vmax)
        pos = np.clip(pos + vel, lo, hi)
        for i, (val, theta) in enumerate(fitness(pos)):
            if val < pbest_val[i]:
                pbest_val[i], pbest[i], pbest_theta[i] = val, pos[i].copy(), theta
                if val < gbest_val:
                    gbest_val, gbest, gbest_theta = val, pos[i].copy(), theta
    return gbest_theta, float(gbest_val)


class TestPso:
    def test_finds_separating_threshold(self):
        data = threshold_data()
        theta, mr = pso_minimize_mr(g_template(), data, PsoConfig(seed=1))
        assert mr == 0.0
        assert 4.5 <= theta["c"] <= 5.5

    def test_deterministic_under_seed(self):
        data = threshold_data()
        cfg = PsoConfig(seed=7)
        a = pso_minimize_mr(g_template(), data, cfg)
        b = pso_minimize_mr(g_template(), data, cfg)
        assert a == b

    def test_integer_rounding(self):
        data = threshold_data()
        t = Template(parse("G[<=?i] x <= ?c"),
                     {"i": ParamSpec(0, 2, "integer"),
                      "c": ParamSpec(0.0, 10.0, "continuous")})
        theta, mr = pso_minimize_mr(t, data, PsoConfig(seed=2))
        assert isinstance(theta["i"], int)

    def test_degenerate_configs(self):
        data = threshold_data(n=2)
        theta, mr = pso_minimize_mr(g_template(), data,
                                    PsoConfig(swarm=1, iterations=0, seed=3))
        assert 0.0 <= mr <= 1.0 and 0.0 <= theta["c"] <= 10.0
        with pytest.raises(UsageError):
            pso_minimize_mr(g_template(), [], PsoConfig())

    def test_one_reach_per_run_of_a_fixed_chain(self, monkeypatch):
        # every valuation shares the chain (y <= 2), so the run walks it once
        calls = []

        def counting_reach(graph, edge_labels, chain):
            calls.append(chain)
            return gtl.graph.reach(graph, edge_labels, chain)

        monkeypatch.setattr(gtl.semantics, "reach", counting_reach)
        rng = np.random.default_rng(12)
        g = LabeledGraph.complete(["a", "b", "c", "d"])
        data = [GraphTemporalTrajectory(g, rng.random((4, 2)) * 2, rng.random((6, 2)) * 3,
                                        label=lab) for lab in (1, -1) * 3]
        t = Template(parse("E ?N via (y <= 2) : x >= ?c"),
                     {"N": ParamSpec(1, 3, "integer"),
                      "c": ParamSpec(0.0, 2.0, "continuous")})
        theta, mr = pso_minimize_mr(t, data, PsoConfig(swarm=6, iterations=5, seed=3))
        assert len(calls) == 1
        assert misclassification_rate(data, t.instantiate(theta)) == mr

    @pytest.mark.parametrize("field, value", [
        ("swarm", 0), ("swarm", 2.5), ("swarm", True), ("iterations", -1),
        ("iterations", 1.5), ("seed", -1), ("seed", 1.5), ("seed", None), ("seed", False)])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(InputError, match=f"{field} must be >= [01] and an integer"):
            PsoConfig(**{field: value})

    @pytest.mark.parametrize("coef", [
        {"inertia": math.nan}, {"cognitive": -math.inf}, {"social": math.inf}])
    def test_non_finite_coefficients_rejected(self, coef):
        with pytest.raises(InputError, match="finite"):
            PsoConfig(**coef)

    @pytest.mark.parametrize("warm", [{}, {"c": 50}, {"c": -0.5}, {"c": math.nan}],
                             ids=["missing", "above", "below", "nan"])
    def test_bad_warm_start_rejected(self, warm):
        t = Template(parse("G x <= ?c"), {"c": ParamSpec(0.0, 3.0, "continuous")})
        with pytest.raises(InputError, match="warm start"):
            pso_minimize_mr(t, threshold_data(n=2), PsoConfig(swarm=1, iterations=0),
                            warm_starts=[warm])

    @pytest.mark.parametrize("iterations", [0, 1, 6])
    def test_one_query_per_swarm_step(self, monkeypatch, iterations):
        # the template is compiled (desugared) once and never instantiated;
        # each swarm step evaluates all its uncached valuations in one query
        calls = {"desugar": 0, "instantiate": 0, "tables": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(gtl.templates, "desugar", counting("desugar", gtl.templates.desugar))
        monkeypatch.setattr(gtl.templates, "instantiate",
                            counting("instantiate", gtl.templates.instantiate))
        monkeypatch.setattr(gtl.semantics._Evaluator, "tables",
                            counting("tables", gtl.semantics._Evaluator.tables))
        rng = np.random.default_rng(5)
        g = LabeledGraph.complete(["a", "b", "c", "d"])
        data = [GraphTemporalTrajectory(g, rng.random((4, 3)) * 2, rng.random((6, 3)) * 3,
                                        label=lab) for lab in (1, -1) * 3]
        t = Template(parse("F[<=?i] E ?N via (y <= ?d) : x >= ?c"),
                     {"i": ParamSpec(0, 2, "integer"), "N": ParamSpec(1, 3, "integer"),
                      "d": ParamSpec(0.0, 3.0, "continuous"),
                      "c": ParamSpec(0.0, 2.0, "continuous")})
        theta, mr = pso_minimize_mr(t, data, PsoConfig(swarm=8, iterations=iterations, seed=4))
        assert calls["desugar"] == 1 and calls["instantiate"] == 0
        assert 1 <= calls["tables"] <= iterations + 1
        monkeypatch.undo()
        assert misclassification_rate(data, t.instantiate(theta)) == mr

    def test_warm_start_hits_known_optimum(self):
        data = threshold_data()
        theta, mr = pso_minimize_mr(
            g_template(), data, PsoConfig(swarm=2, iterations=0, seed=4),
            warm_starts=({"c": 5.0},))
        assert mr == 0.0 and theta["c"] == 5.0

    def test_warm_starts_from_a_generator(self):
        # the starts are validated and then placed: a generator must serve both
        data, cfg = threshold_data(), PsoConfig(swarm=2, iterations=0, seed=4)
        listed = pso_minimize_mr(g_template(), data, cfg, warm_starts=[{"c": 5.0}])
        generated = pso_minimize_mr(g_template(), data, cfg,
                                    warm_starts=({"c": 5.0} for _ in range(1)))
        assert generated == listed == ({"c": 5.0}, 0.0)


class TestInferClassifier:
    def test_single_primitive_suffices(self):
        data = threshold_data()
        res = infer_classifier(data, [g_template()], m_th=0.02)
        assert res.success
        assert res.train_mr <= 0.02
        assert res.size == 0
        assert misclassification_rate(data, res.formula) == res.train_mr

    def test_negated_primitive_in_pool(self):
        # positives peak ABOVE the split: only the negation of G x <= c fits
        data = threshold_data()
        for t in data:
            t.label = -t.label
        res = infer_classifier(data, [g_template()], m_th=0.02)
        assert res.success and res.train_mr <= 0.02

    def test_growth_builds_conjunction(self):
        # class +1 iff the signal stays inside a band: needs two primitives
        rng = np.random.default_rng(5)
        vals, labs = [], []
        for _ in range(10):
            vals.append(list(rng.uniform(3.5, 6.5, size=3)))
            labs.append(1)
            side = rng.random() < 0.5
            row = (list(rng.uniform(0.0, 2.5, size=3)) if side
                   else list(rng.uniform(7.5, 10.0, size=3)))
            vals.append(row)
            labs.append(-1)
        data = labeled(vals, labs, 3)
        lo_t = Template(parse("G x <= ?c"),
                        {"c": ParamSpec(0.0, 10.0, "continuous")}, name="upper")
        hi_t = Template(parse("G x >= ?c"),
                        {"c": ParamSpec(0.0, 10.0, "continuous")}, name="lower")
        res = infer_classifier(data, [lo_t, hi_t], m_th=0.02, eta_th=3,
                               mhat_th=0.45, cfg=PsoConfig(seed=6))
        assert res.success
        assert res.size >= 1
        assert formula_size(res.formula) <= 3

    def test_eta_budget_enforced_and_failure_reported(self):
        data = threshold_data()
        # an unusable box: no G x <= c with c <= 1 separates anything
        bad = Template(parse("G x <= ?c"),
                       {"c": ParamSpec(0.0, 1.0, "continuous")})
        res = infer_classifier(data, [bad], m_th=0.0, eta_th=1,
                               mhat_th=0.9, cfg=PsoConfig(seed=8, iterations=10))
        assert not res.success
        assert res.formula is not None  # best effort is still returned
        assert formula_size(res.formula) <= 1
        assert res.stage1

    def test_no_candidate_within_eta(self):
        # every primitive has size 2 > eta_th, yet some fits mhat_th
        t = Template(parse("G (x <= ?c & x >= ?d & x <= ?e)"),
                     {n: ParamSpec(0.0, 10.0, "continuous") for n in "cde"})
        res = infer_classifier(threshold_data(), [t], eta_th=1, mhat_th=0.9)
        assert (res.success, res.formula, res.train_mr, res.size) == (False, None, 1.0, 0)
        assert len(res.stage1) == 2 and min(row["mr"] for row in res.stage1) < 0.9

    def test_no_survivor_reports_its_best_primitive(self):
        data = threshold_data()
        bad = Template(parse("G x <= ?c"), {"c": ParamSpec(0.0, 1.0, "continuous")})
        res = infer_classifier(data, [bad], m_th=0.0, mhat_th=0.01,
                               cfg=PsoConfig(seed=8, iterations=10))
        assert min(row["mr"] for row in res.stage1) >= 0.01  # nothing is kept to grow
        assert not res.success and res.size == 0
        assert res.train_mr == misclassification_rate(data, res.formula) == 0.5

    def test_threshold_validation(self):
        data = threshold_data(n=1)
        with pytest.raises(InputError):
            infer_classifier(data, [g_template()], m_th=0.5, mhat_th=0.1)
        for eta in (0, 1.5, True):
            with pytest.raises(InputError, match="eta_th must be >= 1 and an integer"):
                infer_classifier(data, [g_template()], eta_th=eta)

    def test_labels_required(self):
        g = LabeledGraph(["a"], [])
        data = [GraphTemporalTrajectory(g, [[1.0]], np.zeros((0, 1)))]
        with pytest.raises(InputError):
            infer_classifier(data, [g_template()])

    def test_deterministic(self):
        data = threshold_data()
        r1 = infer_classifier(data, [g_template()], cfg=PsoConfig(seed=9))
        r2 = infer_classifier(data, [g_template()], cfg=PsoConfig(seed=9))
        assert r1.formula == r2.formula and r1.train_mr == r2.train_mr


# every axis kind the rounding meets: on-grid, off-grid ends, frozen (one
# integer inside, or a point), a 10^9-wide grid, and continuous ones
_INTEGER_BOXES = [(0, 3), (0.4, 3.6), (2, 2), (0.4, 1.6), (0, 10 ** 9), (1, 4)]
_CONTINUOUS_BOXES = [(0.0, 2.0), (1.0, 1.0), (-1.0, 3.0), (0.5, 0.75)]
_SHAPES = ["F[<=?i] E ?N via (y <= ?d) : x >= ?c", "G[<=?i] x <= ?c",
           "E ?N via (y <= 1) : x >= 1", "F x >= ?c"]


class TestArrayStepDifferential:
    """pso_minimize_mr against `pso_loop`, the per-particle reference, on
    random boxes: the same theta (values and types) and MR, exactly."""

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_per_particle_loop(self, seed):
        rng = np.random.default_rng(seed)
        g = LabeledGraph.complete(["a", "b", "c", "d"])
        data = [GraphTemporalTrajectory(g, rng.random((4, 3)) * 2, rng.random((6, 3)) * 3,
                                        label=lab) for lab in (1, -1) * int(rng.integers(1, 3))]
        formula = parse(_SHAPES[int(rng.integers(len(_SHAPES)))])
        box = {}
        for n in free_parameters(formula):
            boxes = _INTEGER_BOXES if n in ("i", "N") else _CONTINUOUS_BOXES
            box[n] = ParamSpec(*boxes[int(rng.integers(len(boxes)))],
                               "integer" if n in ("i", "N") else "continuous")
        t = Template(formula, box)
        swarm = int(rng.integers(1, 13))
        warm = []  # integer axes at k + 0.5, the rounding's ties
        for _ in range(int(rng.integers(0, swarm + 3))):
            warm.append({n: float(np.clip(rng.integers(math.floor(s.min), math.floor(s.max) + 1)
                                          + 0.5, s.min, s.max))
                         if s.kind == "integer" else float(rng.uniform(s.min, s.max))
                         for n, s in box.items()})
        cfg = PsoConfig(swarm=swarm, iterations=int(rng.integers(0, 9)), seed=seed)
        want = pso_loop(t, data, cfg, warm)
        got = pso_minimize_mr(t, data, cfg, warm)
        assert got == want
        assert [type(v) for v in got[0].values()] == [type(v) for v in want[0].values()]
        assert list(got[0]) == list(want[0])

    def test_rounding_clamps_to_the_grid_ends(self):
        box = {"N": ParamSpec(0, 10 ** 9, "integer"), "c": ParamSpec(0.0, 1.0, "continuous"),
               "i": ParamSpec(0.4, 3.6, "integer")}
        p = np.array([[2e9, 2.5, 0.4], [-3.4, -0.5, 3.6], [2.5, 0.25, 2.5], [3.5, 7.0, 1.5]])
        assert _rounded(p, box, ["N", "c", "i"]).tolist() == [
            [1e9, 2.5, 1.0], [0.0, -0.5, 3.0], [2.0, 0.25, 2.0], [4.0, 7.0, 2.0]]


# ---------------------------------------------------------------------------
# the exact threshold axis

def _cut_data(rng, n=3, nodes=4, L=5):
    """Labels on a one-decimal grid, so that distinct cells share cut values."""
    g = LabeledGraph.complete([f"n{i}" for i in range(nodes)])
    return [GraphTemporalTrajectory(g, np.round(rng.random((nodes, L)) * 2, 1),
                                    rng.choice([0.5, 1.5, 2.5], (len(g.edges), L)), label=lab)
            for lab in (1, -1) * n]


def _random_text(rng, depth, with_p, ints):
    """Random formula text with ?c in one node-label atom if with_p; every
    integer slot is a literal or a new parameter, whose name joins ints."""
    def integer(most):
        if rng.random() < 0.4:
            ints.append(f"i{len(ints)}")
            return f"?{ints[-1]}"
        return str(int(rng.integers(most + 1)))

    def bound():
        return ["", f"[<={integer(3)}]", f"[>={integer(3)}]",
                f"[>={integer(2)}][<={integer(4)}]"][int(rng.integers(4))]

    def sub(p):
        return f"({_random_text(rng, depth - 1, p, ints)})"

    kinds = ("atom",) if depth == 0 else ("atom", "!", "&", "|", "E", "F", "G", "U")
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "atom":
        value = "?c" if with_p else str(round(float(rng.uniform(0, 2)), 1))
        return f"x {('<=', '>=')[int(rng.integers(2))]} {value}"
    if kind in "&|U":
        left = rng.random() < 0.5
        a, b = sub(with_p and left), sub(with_p and not left)
        return f"{a} {kind}{bound() if kind == 'U' else ''} {b}"
    if kind == "E":
        return f"E {integer(5)} via (y <= {rng.choice([1, 2])}) : {sub(with_p)}"
    return f"{kind}{bound()} {sub(with_p)}" if kind in "FG" else f"! {sub(with_p)}"


# every kind of node with ?c beneath it, so the random ones below never need to find them
_CUT_SHAPES = [
    "!(x <= ?c)", "x >= ?c & F x <= 1", "x <= 1 | G[<=?i0] x >= ?c",
    "E 0 via (y <= 2) : x <= ?c", "E ?i0 via (y <= 2) : !(x >= ?c)", "E 5 via (y <= 2) : x <= ?c",
    "E 2 via (y <= 1) : F[<=?i0] x >= ?c", "F[>=?i0] x <= ?c", "G[>=1][<=?i0] x >= ?c",
    "F[<=2] !(x <= ?c)", "G[>=?i0] (x <= ?c | x >= 1.5)",
    "x <= 1 U[<=?i0] x >= ?c", "x <= 1 U x >= ?c", "x <= ?c U x >= 1",
    "x <= ?c U[>=?i0][<=3] x >= 1", "x >= ?c U[>=2] F x >= 1.5", "!(x <= 1.2 U[<=1] x <= ?c)",
    "(x <= ?c) -> F[<=?i0] x >= 1",
    "E 1 via (y <= ?d) : x >= ?c", "E ?i0 via (y <= ?d) : F[<=?i1] x <= ?c",
    "G x >= ?c", "F !(x <= ?c)", "G (x <= ?c | F x >= 1)",
]


class TestCutTables:
    """`_Evaluator.cuts` against `_Evaluator.tables`: s*v >= cut equals the
    boolean table at every (valuation, trajectory, node, time), for v at every
    cut of the data, one float either side of it, and random points."""

    @staticmethod
    def check(text, rng):
        data = _cut_data(rng)
        g = desugar(parse(text))
        names = [n for n in free_parameters(parse(text)) if n != "c"]
        K = 3
        # edge labels are 0.5, 1.5 and 2.5: distinct ?d in 0..3 reach distinct sets
        ints = {n: rng.permutation(4)[:K] if n == "d" else rng.integers(0, 6, K) for n in names}
        evaluator = _Evaluator.of(data)
        cut, s = evaluator.cuts(g, "c", ints)
        assert s in (1, -1) and cut.dtype == float
        edges = np.unique(s * cut[np.isfinite(cut)])
        v = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                            rng.uniform(-1, 3, 8)])
        values = {n: np.repeat(col, len(v)) for n, col in ints.items()}
        values["c"] = np.tile(v, K)
        table = evaluator.tables(g, values).reshape((K, len(v)) + cut.shape[-3:])
        cuts = cut[:, None] if cut.ndim == 4 else cut[None, None]
        want = s * v[None, :, None, None, None] >= cuts
        assert np.array_equal(np.broadcast_to(want, table.shape), table), text

    @pytest.mark.parametrize("text", _CUT_SHAPES)
    def test_shapes(self, text):
        self.check(text, np.random.default_rng(len(text)))

    @pytest.mark.parametrize("seed", range(120))
    def test_random_formulas(self, seed):
        rng = np.random.default_rng(seed)
        self.check(_random_text(rng, int(rng.integers(1, 5)), True, []), rng)

    def test_to_end_windows_build_no_sparse_table(self, monkeypatch):
        # a window of F or G that runs to the trace end is one accumulate
        calls = []
        extreme = gtl.semantics._extreme
        monkeypatch.setattr(gtl.semantics, "_extreme", lambda *a: calls.append(a) or extreme(*a))
        evaluator = _Evaluator.of(_cut_data(np.random.default_rng(0)))
        for text in ("G x >= ?c", "F[>=1] x <= ?c"):
            evaluator.cuts(desugar(parse(text)), "c", {})
        evaluator.cuts(desugar(parse("G[>=?i0] x >= ?c")), "c", {"i0": np.array([0, 1, 2])})
        assert calls == []
        evaluator.cuts(desugar(parse("G[<=1] x >= ?c")), "c", {})
        assert len(calls) == 1  # a bounded window still takes the sparse table


def _brute_force(template, data):
    """Least misclassified count over every grid point and every value of the
    real axis where the count can change: each node label in the box, one
    float either side of it, the box ends, and the midpoints between them."""
    box, names = template.box, template.param_names
    real = [n for n in names if box[n].kind == "continuous"]
    ints = [n for n in names if box[n].kind == "integer"]
    spec = box[real[0]]
    labels = np.concatenate([t.node_labels.ravel() for t in data] + [[spec.min, spec.max]])
    v = np.unique(np.concatenate([labels, np.nextafter(labels, -np.inf),
                                  np.nextafter(labels, np.inf)]))
    v = v[(spec.min <= v) & (v <= spec.max)]
    v = np.unique(np.concatenate([v, v[:-1] + (v[1:] - v[:-1]) / 2]))
    points = list(itertools.product(*(box[n].grid() for n in ints)))
    values = {n: np.repeat([p[i] for p in points], len(v)) for i, n in enumerate(ints)}
    values[real[0]] = np.tile(v, len(points))
    table = _Evaluator.of(data).tables(template.compile(), values)
    return int(_misclassified(table, _positive(data)).min())


class TestExactFit:
    @pytest.mark.parametrize("seed", range(40))
    def test_sweep_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        data = _cut_data(rng, n=int(rng.integers(1, 4)), L=3)
        shapes = ["E ?N via (y <= 2) : x >= ?c", "! G[<=?i] x <= ?c", "x >= 0.5 U[<=?i] x >= ?c",
                  "E ?N via (y <= 1) : F x <= ?c", "F[>=?i] E 1 via (y <= 2) : !(x >= ?c)",
                  "E ?N via (y <= 1) : F[<=?i] x <= ?c"]
        text = shapes[seed % len(shapes)]
        box = {n: ParamSpec(0, 3, "integer") for n in free_parameters(parse(text)) if n != "c"}
        box["c"] = ParamSpec(*sorted(np.round(rng.uniform(0, 2, 2), 1)), "continuous")
        t = Template(parse(text), box)
        theta, mr, search = _fit(t, data, PsoConfig())
        size = len(data) * data[0].graph.n_nodes
        assert search == "exact"
        assert mr * size == _brute_force(t, data)
        assert misclassification_rate(data, t.instantiate(theta)) == mr
        assert box["c"].min <= theta["c"] <= box["c"].max
        assert list(theta) == t.param_names

    def test_tie_rule(self):
        # x <= c misclassifies one of three pairs for c in [1, 2) and in [8, hi]:
        # the wider piece wins, and of two as wide the lower one
        data = labeled([[1.0], [2.0], [8.0]], [1, -1, 1], 1)
        for hi, c in ((10.0, 9.0), (9.0, 1.5), (8.5, 1.5)):
            t = Template(parse("x <= ?c"), {"c": ParamSpec(0.0, hi, "continuous")})
            assert _fit(t, data, PsoConfig()) == ({"c": c}, 1 / 3, "exact")
        # x >= c classifies all for c in (1, 2] only, that is q = -c in [-2, -1)
        data = labeled([[1.0], [2.0], [3.0]], [-1, 1, 1], 1)
        t = Template(parse("x >= ?c"), {"c": ParamSpec(0.0, 10.0, "continuous")})
        assert _fit(t, data, PsoConfig()) == ({"c": 1.5}, 0.0, "exact")

    def test_earliest_grid_point_wins_ties(self):
        # F[<=i] x <= c fits at every i for c in [1, 2): the first i is kept
        data = labeled([[1.0, 5.0], [2.0, 5.0]], [1, -1], 2)
        t = Template(parse("F[<=?i] x <= ?c"),
                     {"i": ParamSpec(0, 1, "integer"), "c": ParamSpec(0.0, 3.0, "continuous")})
        assert _fit(t, data, PsoConfig()) == ({"i": 0, "c": 1.5}, 0.0, "exact")

    def test_point_piece_at_the_box_end(self):
        # only c = 2, the box's upper end, classifies all
        data = labeled([[2.0], [3.0]], [1, -1], 1)
        t = Template(parse("x <= ?c"), {"c": ParamSpec(0.0, 2.0, "continuous")})
        assert _fit(t, data, PsoConfig()) == ({"c": 2.0}, 0.0, "exact")

    def test_no_real_axis(self):
        data = threshold_data(n=3)
        t = Template(parse("G[<=?i] x <= 5"), {"i": ParamSpec(0, 2, "integer")})
        theta, mr, search = _fit(t, data, PsoConfig())
        assert search == "exact" and isinstance(theta["i"], int)
        assert mr == min(misclassification_rate(data, t.instantiate({"i": i})) for i in range(3))

    def test_frozen_axes_are_pinned(self):
        data = threshold_data(n=3)
        t = Template(parse("G[<=?i] x <= ?c & F x >= ?d"),
                     {"i": ParamSpec(2, 2, "integer"), "c": ParamSpec(0.0, 10.0, "continuous"),
                      "d": ParamSpec(0.0, 0.0, "continuous")})
        theta, mr, search = _fit(t, data, PsoConfig())
        assert search == "exact" and theta["i"] == 2 and theta["d"] == 0.0
        assert mr == misclassification_rate(data, t.instantiate(theta)) == 0.0


class TestRoute:
    """Which boxes `_fit` hands to PSO, counted on `pso_minimize_mr`."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return pso_minimize_mr(*args, **kwargs)

        monkeypatch.setattr(gtl.classify, "pso_minimize_mr", counting)
        return calls

    @pytest.mark.parametrize("text, box, pso", [
        ("E ?N via (y <= 2) : x >= ?c",
         {"N": ParamSpec(1, 3, "integer"), "c": ParamSpec(0.0, 2.0, "continuous")}, 0),
        ("E 1 via (y <= ?d) : x >= 1", {"d": ParamSpec(0.0, 3.0, "continuous")}, 1),
        # an integer edge threshold is a grid axis: one reach per distinct chain
        ("E 1 via (y <= ?d) : x >= ?c",
         {"d": ParamSpec(0, 3, "integer"), "c": ParamSpec(0.0, 2.0, "continuous")}, 0),
        # 2 * 3 = 6 grid points, over the swarm of 4 below
        ("F[<=?i] E ?N via (y <= 2) : x >= ?c",
         {"i": ParamSpec(0, 1, "integer"), "N": ParamSpec(0, 2, "integer"),
          "c": ParamSpec(0.0, 2.0, "continuous")}, 1),
        ("F[<=?i] E ?N via (y <= 2) : x >= ?c",
         {"i": ParamSpec(0, 1, "integer"), "N": ParamSpec(1, 2, "integer"),
          "c": ParamSpec(0.0, 2.0, "continuous")}, 0),
        ("G (x <= ?c & x >= ?d)",
         {"c": ParamSpec(0.0, 2.0, "continuous"), "d": ParamSpec(0.0, 2.0, "continuous")}, 1),
        ("G (x <= ?c & x >= ?d)",
         {"c": ParamSpec(0.0, 2.0, "continuous"), "d": ParamSpec(1.0, 1.0, "continuous")}, 0),
    ])
    def test_route(self, calls, text, box, pso):
        rng = np.random.default_rng(3)
        g = LabeledGraph.complete(["a", "b", "c", "d"])
        data = [GraphTemporalTrajectory(g, rng.random((4, 3)) * 2, rng.random((6, 3)) * 3,
                                        label=lab) for lab in (1, -1) * 2]
        t = Template(parse(text), box)
        theta, mr, search = _fit(t, data, PsoConfig(swarm=4, iterations=2))
        assert len(calls) == pso and search == ("pso" if pso else "exact")
        assert misclassification_rate(data, t.instantiate(theta)) == mr

    def test_seed_does_not_move_an_exact_fit(self, calls):
        data = threshold_data()
        runs = [infer_classifier(data, [g_template()], cfg=PsoConfig(seed=seed))
                for seed in (0, 5)]
        assert not calls
        assert runs[0].stage1 == runs[1].stage1
        assert [row["search"] for row in runs[0].stage1] == ["exact", "exact"]

    def test_two_real_axes_run_pso_end_to_end(self, calls):
        # positives stay inside a band: one primitive with two thresholds fits it
        rng = np.random.default_rng(5)
        vals, labs = [], []
        for _ in range(10):
            vals.append(list(rng.uniform(3.5, 6.5, size=3)))
            vals.append(list(rng.uniform(*((0.0, 2.5) if rng.random() < 0.5 else (7.5, 10.0)),
                                         size=3)))
            labs += [1, -1]
        data = labeled(vals, labs, 3)
        band = Template(parse("G (x >= ?a & x <= ?b)"),
                        {"a": ParamSpec(0.0, 10.0, "continuous"),
                         "b": ParamSpec(0.0, 10.0, "continuous")}, name="band")
        res = infer_classifier(data, [band], cfg=PsoConfig(seed=2))
        assert len(calls) == 2 and [row["search"] for row in res.stage1] == ["pso", "pso"]
        assert res.success and res.stage1[0]["mr"] == 0.0
        assert {e["search"] for e in res.search_log} == {"pso"}
