"""Monotone parameter identification: geometry helpers and the search loop."""

import numpy as np
import pytest

from gtl.errors import InputError, UsageError
from gtl.formula import parse
from gtl.graph import GraphTemporalTrajectory, LabeledGraph
from gtl.identify import (
    directed_hausdorff, identify, knee_points, map_pi, map_pi_inv, snap,
)
from gtl.prior import PriorModel, satisfaction_probability
from gtl.semantics import coverage
from gtl.templates import ParamSpec, Template


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
    def test_directed_hausdorff(self):
        assert directed_hausdorff([(0.5, 0.5)], [(0.2, 0.4)]) == \
            pytest.approx(0.3)
        assert directed_hausdorff([(0.5, 0.5)], [(0.6, 0.7)]) == 0.0
        assert directed_hausdorff([(0.5,), (0.9,)], [(0.6,)]) == \
            pytest.approx(0.3)
        # asymmetric: being below the reference set costs nothing
        assert directed_hausdorff([(0.2, 0.4)], [(0.5, 0.5)]) == 0.0
        with pytest.raises(UsageError):
            directed_hausdorff([], [(0.1,)])

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


def make_dataset(values_list, L):
    g = LabeledGraph(["a"], [])
    return [GraphTemporalTrajectory(g, [vals], np.zeros((0, L)))
            for vals in values_list]


def flat_prior(L, lo=0.0, hi=10.0):
    g = LabeledGraph(["a"], [])
    return PriorModel(g, L, ((lo, hi),), {"a": np.ones((L, 1))}, {})


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

    def test_bad_arguments(self):
        t = Template(parse("F x >= ?c"), cont_box(c=(0.0, 1.0)))
        with pytest.raises(InputError):
            identify(make_dataset([[1.0]], 1), flat_prior(1), [t], p_th=1.5)
        with pytest.raises(UsageError):
            identify([], flat_prior(1), [t])
