"""Monotone parameter identification: geometry helpers and the search loop."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtl.semantics
import gtl.templates
from gtl.datagen import SwarmScenario, gen_swarm
from gtl.errors import InputError, UsageError
from gtl.formula import free_parameters, parse
from gtl.graph import GraphTemporalTrajectory, LabeledGraph
from gtl.identify import (
    _ROUND, _lift, identify, knee_points, map_pi,
    map_pi_inv, snap,
)
import gtl.prior
from gtl.prior import PriorModel, compute_ig, counters, reset_counters, satisfaction_probability
from gtl.semantics import coverage
from gtl.templates import ParamSpec, Template

from conftest import knee_oracle


def cont_box(**ranges):
    return {n: ParamSpec(lo, hi, "continuous") for n, (lo, hi) in ranges.items()}


class TestMapPi:
    def test_continuous_polarity(self):
        box = cont_box(c=(0.0, 2.0))
        # x <= c eases as c grows: polarity "+", identity scaling
        assert map_pi({"c": 1.5}, box, {"c": "+"}, ["c"]) == (0.75,)
        # x >= c eases as c shrinks: polarity "-", flipped
        assert map_pi({"c": 1.5}, box, {"c": "-"}, ["c"]) == (0.25,)

    def test_integer_grid(self):
        box = {"i": ParamSpec(0, 4, "integer")}
        assert map_pi({"i": 3}, box, {"i": "+"}, ["i"]) == (0.75,)
        with pytest.raises(InputError):
            map_pi({"i": 7}, box, {"i": "+"}, ["i"])

    def test_round_trip(self):
        box = {"c": ParamSpec(0.0, 2.0, "continuous"),
               "i": ParamSpec(1, 5, "integer")}
        pols = {"c": "-", "i": "+"}
        theta = {"c": 0.5, "i": 4}
        w = map_pi(theta, box, pols, ["c", "i"])
        back = map_pi_inv(w, box, pols, ["c", "i"])
        assert back["c"] == pytest.approx(0.5) and back["i"] == 4

    def test_snap_rounds_integer_coords(self):
        box = {"c": ParamSpec(0.0, 1.0, "continuous"),
               "i": ParamSpec(0, 4, "integer")}
        assert snap((0.3, 0.3), box, {"c": "+", "i": "+"}, ["c", "i"]) == \
            (0.3, 0.25)

    def test_out_of_box_rejected(self):
        box = cont_box(c=(0.0, 1.0))
        with pytest.raises(InputError):
            map_pi({"c": 2.0}, box, {"c": "+"}, ["c"])


class TestGeometry:
    def test_knee_points_two_dim(self):
        M = [(0.6, 0.2), (0.2, 0.6)]
        knees = set(knee_points(M))
        assert {(0.6, 0.0), (0.2, 0.2), (0.0, 0.6)} <= knees
        # every knee lies in the down-closure of M, none strictly dominated
        for k in knees:
            assert any(all(m[i] >= k[i] for i in range(2)) for m in M)
            assert not any(all(m[i] > k[i] for i in range(2)) for m in M)

    def test_knee_points_empty(self):
        assert knee_points([], z=2) == [(0.0, 0.0)]
        with pytest.raises(UsageError):
            knee_points([])

    def test_knee_points_one_dim(self):
        assert set(knee_points([(0.3,), (0.7,)])) == {(0.7,)}


def _minimal(points):
    return {p for p in points
            if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in points)}


_COORD = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)


class TestKneeDifferential:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), z=st.integers(1, 3))
    def test_real_axes_match_enumeration(self, data, z):
        pts = data.draw(st.lists(st.tuples(*[_COORD] * z), min_size=1, max_size=6))
        knees = knee_points(pts)
        assert len(set(knees)) == len(knees)
        assert set(knees) == {k for k in _minimal(knee_oracle(pts)) if 1.0 not in k}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), steps=st.lists(st.integers(1, 4), min_size=1, max_size=3))
    def test_integer_grid_matches_brute_force(self, data, steps):
        def point(idx):
            return tuple(round(j / m, _ROUND) for j, m in zip(idx, steps))

        grid = [point(idx) for idx in itertools.product(*(range(m + 1) for m in steps))]
        unsat = data.draw(st.lists(st.sampled_from(grid), max_size=6))
        zero = point([0] * len(steps))
        knees = _lift([zero], zero, steps)
        for u in unsat:
            knees = _lift(knees, u, steps)
        open_pts = [g for g in grid
                    if not any(all(a >= b for a, b in zip(u, g)) for u in unsat + [zero])]
        assert len(set(knees)) == len(knees)
        assert set(knees) == _minimal(open_pts)


def make_dataset(values_list, L):
    g = LabeledGraph(["a"], [])
    return [GraphTemporalTrajectory(g, [vals], np.zeros((0, L)))
            for vals in values_list]


def flat_prior(L, lo=0.0, hi=10.0):
    g = LabeledGraph(["a"], [])
    return PriorModel(g, L, ((lo, hi),), {"a": np.ones((L, 1))}, {})


def swarm_prior(sc, train):
    """Two density bins, Laplace-smoothed per-(node, time) counts from the
    training set, and the scenario's static edge distances."""
    g = sc.graph()
    el = sc.edge_labels(g)
    static_el = {e: float(el[j, 0]) for j, e in enumerate(g.edges)}
    pmf = {}
    for vi, v in enumerate(g.nodes):
        rows = np.zeros((sc.L, 2))
        for k in range(sc.L):
            low = sum(tr.node_labels[vi, k] < 0.125 for tr in train)
            rows[k] = [low + 1, len(train) - low + 1]
        pmf[v] = rows / rows.sum(axis=1, keepdims=True)
    return PriorModel(g, sc.L, ((0.0, 0.125), (0.125, 1.0)), pmf, static_el)


class TestCompiledRoute:
    """Coverage queries evaluate the compiled template on the valuation axis."""

    SWARM = "G (x >= ?a -> G[<=?i3] E ?N via (y <= ?d) : x <= ?c)"
    TEMPLATES = [
        # a frozen integer (i3, N) and a frozen continuous parameter (d)
        (SWARM, {"a": (0.05, 0.4), "c": (0.112, 0.2), "i3": (2, 2), "N": (1, 1),
                 "d": (1.0, 1.0)}),
        # a paired bound whose lower end is frozen at 0
        ("G[>=?i1][<=?i2] E ?N via (y <= ?d) : x <= ?c",
         {"i1": (0, 0), "i2": (1, 6), "N": (1, 1), "d": (1.0, 1.0), "c": (0.05, 0.3)}),
        # a free chain threshold
        (SWARM, {"a": (0.2, 0.2), "c": (0.112, 0.2), "i3": (2, 2), "N": (1, 1),
                 "d": (1.0, 2.5)}),
        # every parameter frozen: the compiled formula is ground
        (SWARM, {"a": (0.2, 0.2), "c": (0.2, 0.2), "i3": (2, 2), "N": (1, 1),
                 "d": (1.0, 1.0)}),
    ]

    @staticmethod
    def templates():
        out = []
        for text, ranges in TestCompiledRoute.TEMPLATES:
            f = parse(text)
            kinds = free_parameters(f)
            out.append(Template(f, {n: ParamSpec(lo, hi, kinds[n].kind)
                                    for n, (lo, hi) in ranges.items()}))
        return out

    @staticmethod
    def swarm():
        sc = SwarmScenario(seed=100)
        train = gen_swarm(sc, 10)
        return train, swarm_prior(sc, train)

    def test_logged_coverage_matches_instantiate(self):
        train, prior = self.swarm()
        rep = identify(train, prior, self.templates(), p_th=0.9, eps=0.05, budget=60)
        assert len(rep.results) == len(self.TEMPLATES)
        for res in rep.results:
            assert res.query_log
            if res.template.pinned.keys() != set(res.template.param_names):
                assert res.n_queries > 1
            for q in res.query_log:
                want = coverage(train, res.template.instantiate(q["theta"]))
                assert q["coverage"] == want, (str(res.template.formula), q)

    def test_one_compile_per_template(self, monkeypatch):
        # desugar runs once per template and instantiate once per front
        # point; no coverage query runs instantiate, is_ground or desugar
        train, prior = self.swarm()
        templates = self.templates()
        calls = {"compile desugar": 0, "instantiate": 0, "is_ground": 0,
                 "query desugar": 0, "tables": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(gtl.templates, "desugar",
                            counting("compile desugar", gtl.templates.desugar))
        monkeypatch.setattr(gtl.templates, "instantiate",
                            counting("instantiate", gtl.templates.instantiate))
        monkeypatch.setattr(gtl.semantics, "is_ground",
                            counting("is_ground", gtl.semantics.is_ground))
        monkeypatch.setattr(gtl.semantics, "desugar",
                            counting("query desugar", gtl.semantics.desugar))
        monkeypatch.setattr(gtl.semantics._Evaluator, "tables",
                            counting("tables", gtl.semantics._Evaluator.tables))
        rep = identify(train, prior, templates, p_th=0.9, eps=0.05, budget=60)
        assert calls["compile desugar"] == len(templates)
        assert calls["instantiate"] == sum(len(r.front) for r in rep.results)
        assert calls["is_ground"] == calls["query desugar"] == 0
        assert calls["tables"] == sum(r.n_queries for r in rep.results)


class TestFrontScoring:
    """Identification scores its whole front in one prior call."""

    def test_one_automaton_one_letter_dp(self, monkeypatch):
        train, prior = TestCompiledRoute.swarm()
        tpl = TestCompiledRoute.templates()[0]  # the swarm shape with a and c free
        calls = {"to_dfa": 0, "_letters": 0, "instantiate": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        for module, name in [(gtl.prior, "to_dfa"), (gtl.prior, "_letters"),
                             (gtl.templates, "instantiate")]:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        reset_counters()
        res = identify(train, prior, [tpl], p_th=0.98, eps=0.05).best
        evals = counters["transition_evals"]
        thetas = [next(q["theta"] for q in res.query_log if q["omega"] == w) for w in res.front]
        # the front reorders the thresholds a and c, so it spans two truth
        # tables of one skeleton
        assert {t["a"] > t["c"] for t in thetas} == {True, False}
        assert calls == {"to_dfa": 1, "_letters": 1, "instantiate": len(res.front)}
        # the transition count is that of one compute_ig per front point
        reset_counters()
        reports = [compute_ig(prior, tpl.instantiate(t)) for t in thetas]
        assert counters["transition_evals"] == evals
        assert res.average_ig == max(r.average_ig for r in reports)


class TestIdentify:
    def test_recovers_planted_threshold(self):
        # every trajectory's running max is exactly 5.0; the tightest
        # coverage-1 instance of F x >= c is c = 5.0
        data = make_dataset([[1.0, 5.0, 2.0], [5.0, 0.5, 3.0]], 3)
        t = Template(parse("F x >= ?c"), cont_box(c=(0.0, 10.0)))
        rep = identify(data, flat_prior(3), [t], p_th=1.0, eps=0.05)
        res = rep.best
        assert res is not None and res.feasible
        assert res.valuation["c"] == pytest.approx(5.0, abs=0.5)
        assert res.coverage == 1.0
        assert res.achieved_gap <= 0.05
        assert res.n_queries <= 30
        assert res.average_ig > 0

    def test_front_certificate(self):
        data = make_dataset([[2.0, 6.0], [6.0, 3.0]], 2)
        t = Template(parse("F (x >= ?c1 & x <= ?c2)"),
                     cont_box(c1=(0.0, 10.0), c2=(0.0, 10.0)))
        rep = identify(data, flat_prior(2), [t], p_th=1.0, eps=0.1)
        res = rep.best
        assert res.feasible and res.front
        # consistency: every front point is a real coverage-feasible valuation,
        # and the returned formula satisfies the data at the claimed level
        pols = {"c1": "-", "c2": "+"}
        names = ["c1", "c2"]
        for w in res.front:
            theta = map_pi_inv(w, t.box, pols, names)
            assert coverage(data, t.instantiate(theta)) >= 1.0
        assert coverage(data, res.formula) >= 1.0
        # optimality restricted to the front: the winner maximizes IG there
        igs = []
        for w in res.front:
            theta = map_pi_inv(w, t.box, pols, names)
            igs.append(satisfaction_probability(
                flat_prior(2), t.instantiate(theta), "a"))
        best_p = min(p for p in igs if p > 0)
        got_p = satisfaction_probability(flat_prior(2), res.formula, "a")
        assert got_p <= best_p + 1e-9

    def test_infeasible_template(self):
        # no instance of G x >= c with c >= 8 covers data maxing at 6
        data = make_dataset([[2.0, 6.0]], 2)
        t = Template(parse("G x >= ?c"), cont_box(c=(8.0, 10.0)))
        rep = identify(data, flat_prior(2), [t], p_th=1.0, eps=0.1)
        assert rep.best is None
        assert not rep.results[0].feasible
        assert rep.results[0].reason

    def test_feasible_first_ordering(self):
        data = make_dataset([[2.0, 6.0]], 2)
        good = Template(parse("F x >= ?c"), cont_box(c=(0.0, 10.0)))
        bad = Template(parse("G x >= ?c"), cont_box(c=(8.0, 10.0)))
        rep = identify(data, flat_prior(2), [bad, good], p_th=1.0, eps=0.1)
        assert rep.results[0].feasible and not rep.results[1].feasible

    def test_budget_marks_approximate(self):
        data = make_dataset([[2.0, 6.0], [6.0, 3.0]], 2)
        t = Template(parse("F (x >= ?c1 & x <= ?c2)"),
                     cont_box(c1=(0.0, 10.0), c2=(0.0, 10.0)))
        rep = identify(data, flat_prior(2), [t], p_th=1.0, eps=0.001,
                       budget=3)
        res = rep.results[0]
        assert res.approximate or res.achieved_gap <= 0.001

    def test_frozen_parameter_excluded(self):
        data = make_dataset([[1.0, 5.0, 2.0]], 3)
        box = {"c": ParamSpec(0.0, 10.0, "continuous"),
               "i": ParamSpec(2, 2, "integer")}
        t = Template(parse("F[<=?i] x >= ?c"), box)
        rep = identify(data, flat_prior(3), [t], p_th=1.0, eps=0.05)
        res = rep.best
        assert res.feasible
        assert res.valuation["i"] == 2
        assert len(res.omega) == 1  # only c is searched

    @pytest.mark.parametrize("text, box", [
        ("F[<=?i] x >= ?c", {"c": ParamSpec(4.0, 4.0, "continuous"),
                             "i": ParamSpec(2, 2, "integer")}),
        ("F x >= 4", {}),
    ])
    def test_no_free_axis(self, text, box):
        # zero search axes: the one valuation is the front
        data = make_dataset([[1.0, 5.0, 2.0]], 3)
        res = identify(data, flat_prior(3), [Template(parse(text), box)],
                       p_th=1.0, eps=0.05).best
        assert res.feasible and res.omega == () and res.front == [[]]
        assert res.coverage == 1.0 and res.achieved_gap == 0.0

    @pytest.mark.parametrize("text, box, eps", [
        # a real axis reaching 1 leaves a knee with an empty region
        ("F (x >= ?c1 & x <= ?c2)", cont_box(c1=(0.0, 10.0), c2=(0.0, 10.0)), 0.1),
        # an integer axis next to a real one
        ("F[<=?i] x >= ?c", {"c": ParamSpec(0.0, 10.0, "continuous"),
                             "i": ParamSpec(0, 2, "integer")}, 0.05),
    ])
    def test_search_reaches_eps(self, text, box, eps):
        data = make_dataset([[2.0, 6.0, 1.0], [6.0, 3.0, 5.0]], 3)
        res = identify(data, flat_prior(3), [Template(parse(text), box)],
                       p_th=1.0, eps=eps).best
        assert res.feasible and not res.approximate and res.achieved_gap <= eps

    def test_freed_swarm_box_finishes(self):
        # the swarm template with the window i3 and the count N searched too:
        # two integer axes next to two real ones
        sc = SwarmScenario(seed=100)
        train = gen_swarm(sc, 10)
        box = {"a": ParamSpec(0.05, 0.4, "continuous"),
               "c": ParamSpec(0.112, 0.2, "continuous"),
               "i3": ParamSpec(1, 4, "integer"),
               "N": ParamSpec(1, 2, "integer"),
               "d": ParamSpec(1.0, 1.0, "continuous")}
        t = Template(parse("G (x >= ?a -> G[<=?i3] E ?N via (y <= ?d) : x <= ?c)"), box)
        res = identify(train, swarm_prior(sc, train), [t], p_th=0.98, eps=0.05,
                       budget=500).best
        assert res.feasible and not res.approximate
        assert res.n_queries < 500 and res.achieved_gap <= 0.05
        theta_of = {tuple(q["omega"]): q["theta"] for q in res.query_log}
        for w in res.front:
            assert coverage(train, t.instantiate(theta_of[tuple(w)])) >= 0.98

    def test_bad_arguments(self):
        t = Template(parse("F x >= ?c"), cont_box(c=(0.0, 1.0)))
        with pytest.raises(InputError):
            identify(make_dataset([[1.0]], 1), flat_prior(1), [t], p_th=1.5)
        with pytest.raises(InputError):
            identify(make_dataset([[1.0]], 1), flat_prior(1), [t], budget=0)
        with pytest.raises(UsageError):
            identify([], flat_prior(1), [t])
