"""PSO-based classifier inference: optimizer behavior and prune-and-grow."""

import math

import numpy as np
import pytest

import gtl.classify
import gtl.graph
import gtl.semantics
import gtl.templates
from gtl.errors import InputError, UsageError
from gtl.classify import ClassifierResult, PsoConfig, infer_classifier, pso_minimize_mr
from gtl.formula import formula_size, parse
from gtl.graph import GraphTemporalTrajectory, LabeledGraph
from gtl.semantics import misclassification_rate
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
        with pytest.raises(InputError):
            PsoConfig(swarm=0)
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

    def test_threshold_validation(self):
        data = threshold_data(n=1)
        with pytest.raises(InputError):
            infer_classifier(data, [g_template()], m_th=0.5, mhat_th=0.1)

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
