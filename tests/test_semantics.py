"""Finite-trace satisfaction semantics, tables, coverage, misclassification."""

import math
import re

import numpy as np
import pytest

import gtl.graph
import gtl.semantics
from gtl.errors import InputError, UsageError
from gtl.formula import (
    Always, And, Atom, Bound, EdgeAtom, Eventually, Exists, Param, Until, _subformulas, desugar,
    free_parameters, instantiate, parse, print_formula,
)
from gtl.graph import GraphTemporalTrajectory, LabeledGraph
from gtl.semantics import coverage, misclassification_rate, sat, sat_table

from conftest import random_formula, random_graph, random_trajectory, sat_oracle


def oracle_table(traj, f):
    return np.array([[sat_oracle(traj, f, v, k) for k in range(1, traj.L + 1)]
                     for v in traj.graph.nodes], dtype=bool)


def single_node(values):
    g = LabeledGraph(["a"], [])
    return GraphTemporalTrajectory(g, [list(map(float, values))],
                                   np.zeros((0, len(values))))


def until_reference(a, b, bound, value):
    """Table of a U b under a single-sided bound, or of F b if a is None, by
    a difference of one cumulative sum of b in every window; G b is
    ~until_reference(None, ~b, ...)."""
    L = b.shape[-1]
    k = np.arange(L)
    lo = 0 if bound is None or bound.lo is None else value(bound.lo, "integer")
    hi = L if bound is None or bound.hi is None else value(bound.hi, "integer")
    lo, hi = np.minimum(k + lo, L), np.minimum(k + hi, L - 1)
    c = np.zeros(b.shape[:-1] + (L + 1,), dtype=np.int64)
    np.cumsum(b, axis=-1, out=c[..., 1:])
    if a is not None:
        fails = np.minimum.accumulate(np.where(a, L, k)[..., ::-1], axis=-1)[..., ::-1]
        hi = np.minimum(hi, fails - 1)

    def at(c, i):
        if i.ndim == 1:
            return c[..., i]
        n = max(c.ndim, i.ndim)
        return np.take_along_axis(c[(None,) * (n - c.ndim)], i[(None,) * (n - i.ndim)], axis=-1)

    return (lo <= hi) & (at(c, hi + 1) > at(c, lo))


class TestTemporalOperators:
    def test_eventually_clips_to_horizon(self):
        t = single_node([0, 0, 1])
        f = parse("F[<=5] x >= 1")
        assert [sat(t, f, "a", k) for k in (1, 2, 3)] == [True, True, True]

    def test_eventually_lower_bound_beyond_horizon_is_false(self):
        t = single_node([1, 1, 1])
        f = parse("F[>=2] x >= 1")
        assert [sat(t, f, "a", k) for k in (1, 2, 3)] == [True, False, False]

    def test_always_vacuous_beyond_horizon(self):
        t = single_node([0, 0, 0])
        f = parse("G[>=3] x >= 1")
        # window [k+3, 3] is empty for k >= 1, so always vacuously true
        assert all(sat(t, f, "a", k) for k in (1, 2, 3))

    def test_paired_bound_is_conjunction(self):
        # F[>=1][<=2] may use different witnesses for each half:
        # at k=1, F[>=1] needs a witness in [2,3] and F[<=2] one in [1,3]
        t = single_node([1, 0, 1])
        f = parse("F[>=1][<=2] x >= 1")
        assert sat(t, f, "a", 1)
        t2 = single_node([1, 0, 0])
        assert not sat(t2, f, "a", 1)

    def test_until_inclusive_left(self):
        # x <= 0 must hold on [k, k'] including the witness step k'
        t = single_node([0, 0, 1])
        f = parse("x <= 0 U x >= 1")
        assert not sat(t, f, "a", 1)  # x(3) = 1 > 0 breaks the left side at k'
        t2 = single_node([0, 0, 0])
        f2 = parse("x <= 0 U x <= 0")
        assert sat(t2, f2, "a", 1)

    def test_until_bounds(self):
        t = single_node([0, 0, 0, 1])
        f = parse("x <= 1 U[>=2] x >= 1")
        assert [sat(t, f, "a", k) for k in (1, 2, 3, 4)] == \
            [True, True, False, False]
        f = parse("x <= 1 U[<=1] x >= 1")
        assert [sat(t, f, "a", k) for k in (1, 2, 3, 4)] == \
            [False, False, True, True]

    A, B = Atom("<=", 0.0), Atom(">=", 1.0)  # stand-ins for random operand tables

    def windows(self, a, b, bounds, value):
        """(table, reference table) of F b, G b and a U b under each bound."""
        rec = {self.A: a, self.B: b}.__getitem__
        for bound in bounds:
            yield (gtl.semantics._temporal(Eventually(self.B, bound), rec, value),
                   until_reference(None, b, bound, value))
            yield (gtl.semantics._temporal(Always(self.B, bound), rec, value),
                   ~until_reference(None, ~b, bound, value))
            yield (gtl.semantics._temporal(Until(self.A, self.B, bound), rec, value),
                   until_reference(a, b, bound, value))

    def test_windows_match_reference(self):
        rng = np.random.default_rng(5)
        compared = 0
        for L in range(1, 9):
            bounds = ([None] + [Bound(lo, None) for lo in range(1, L + 3)]
                      + [Bound(None, hi) for hi in range(L + 3)])
            for _ in range(20):
                a = rng.random((2, 3, L)) < rng.random()
                b = rng.random((2, 3, L)) < rng.random()
                for got, want in self.windows(a, b, bounds, lambda v, kind: v):
                    assert got.shape == want.shape and np.array_equal(got, want), L
                    compared += 1
        assert compared == 7200

    def test_windows_per_valuation_bound(self):
        # one bound value per valuation: (K, 1, 1, L) windows
        rng = np.random.default_rng(6)
        for L in range(1, 9):
            ks = np.arange(L + 3)

            def value(v, kind):
                return ks.reshape(-1, 1, 1, 1) if isinstance(v, Param) else v

            a = rng.random((2, 3, L)) < 0.6
            b = rng.random((2, 3, L)) < 0.4
            bounds = [Bound(Param("i"), None), Bound(None, Param("i"))]
            for got, want in self.windows(a, b, bounds, value):
                assert got.shape == (L + 3, 2, 3, L) and np.array_equal(got, want), L

    def test_to_end_cut_windows_match_sparse_table(self):
        # over cuts, a window of F or G that runs to the trace end is one
        # min/max accumulate: it must give `_extreme`'s bits, sign bits too;
        # zeros are all +0.0, since where 0.0 and -0.0 tie the two routes
        # may keep different ones
        rng = np.random.default_rng(7)
        for L in range(1, 9):
            k = np.arange(L)

            def value(v, kind):
                return np.arange(L + 3).reshape(-1, 1, 1, 1) if isinstance(v, Param) else v

            for shape in [(2, 3, L), (L + 3, 2, 3, L)] * 10:
                c = np.round(rng.normal(size=shape), 1) + 0.0
                c[rng.random(shape) < 0.15] = np.inf
                c[rng.random(shape) < 0.15] = -np.inf
                rec = {self.B: (c, 1)}.__getitem__
                for lo in [None, 0, 1, 2, L, L + 2, Param("i")]:
                    first = k if lo is None else np.minimum(k + value(lo, "integer"), L)
                    bound = None if lo is None else Bound(lo, None)
                    for node, op in ((Eventually, np.minimum), (Always, np.maximum)):
                        got, s = gtl.semantics._temporal(node(self.B, bound), rec, value)
                        want = gtl.semantics._extreme(c, first, L - 1, op)
                        assert s == 1 and got.shape == want.shape, L
                        assert np.array_equal(got, want), L
                        assert np.array_equal(np.signbit(got), np.signbit(want)), L

    def test_ungrounded_rejected(self, six_node):
        with pytest.raises(UsageError):
            sat(six_node, parse("x >= ?c"), "v1", 1)


class TestNeighborQuantifier:
    def test_exists_two_hop_count(self, six_node):
        # at least two one-hop neighbors over (y <= 1) with x >= 1
        f = parse("E 2 via (y <= 1) : x >= 1")
        got = {v for v in six_node.graph.nodes if sat(six_node, f, v, 1)}
        assert got == {"v4", "v5"}

    def test_node_prop_sets(self, six_node):
        f = parse("x <= 0")
        got = {v for v in six_node.graph.nodes if sat(six_node, f, v, 1)}
        assert got == {"v3", "v6"}

    def test_exists_insufficient_reach_is_false(self):
        g = LabeledGraph(["a", "b"], [("e1", "a", "b")])
        t = GraphTemporalTrajectory(g, [[1.0], [1.0]], [[1.0]])
        assert not sat(t, parse("E 2 via (y <= 1) : x >= 0"), "a", 1)
        assert sat(t, parse("E 1 via (y <= 1) : x >= 0"), "a", 1)

    def test_exists_nested_temporal_body(self, path3):
        f = parse("E 1 via (y <= 1) : F[<=1] x >= 0.8")
        tab = sat_table(path3, f)
        oracle = oracle_table(path3, f)
        assert np.array_equal(tab, oracle)


class TestTables:
    def test_sat_table_shape_and_signature(self, path3):
        f = parse("F x >= 0.8")
        tab = sat_table(path3, f)
        assert tab.shape == (3, 3) and tab.dtype == bool
        assert sat(path3, f, "a", 1) == tab[0, 0]
        assert not sat(path3, parse("FALSE"), "a", 1)

    def test_no_state_outlives_the_call(self, path3):
        f = parse("F[>=1][<=2] E 1 via (y <= 1) : x >= 0.5")
        before = {k: (id(v), repr(v)) for k, v in vars(path3).items()}
        tab = sat_table(path3, f)
        want = tab.copy()
        assert {k: (id(v), repr(v)) for k, v in vars(path3).items()} == before
        tab[:] = ~tab  # a caller's edit of a returned table
        assert np.array_equal(sat_table(path3, f), want)

    @pytest.mark.parametrize("f", [
        lambda: Atom("<=", math.nan), lambda: Atom(">=", math.inf),
        lambda: Atom("<=", -math.inf),
        lambda: Exists(1, (EdgeAtom("<=", 1.0),), Atom(">=", math.nan)),
    ], ids=[f"f{i}" for i in range(4)])
    def test_non_finite_threshold_rejected(self, path3, f):
        # built by hand (the parser and instantiate never produce these), the
        # atom is rejected at construction, before it reaches the evaluator
        with pytest.raises(InputError):
            sat_table(path3, f())

    def test_one_check_per_query(self, path3, monkeypatch):
        calls = []

        def counting_desugar(f):
            calls.append(f)
            return desugar(f)

        monkeypatch.setattr(gtl.semantics, "desugar", counting_desugar)
        pos = GraphTemporalTrajectory(path3.graph, path3.node_labels,
                                      path3.edge_labels, label=1)
        f = parse("F x >= 0.8")
        coverage([path3] * 4, f)
        misclassification_rate([pos] * 4, f)
        assert len(calls) == 2

    def test_differential_against_oracle(self, six_node, path3):
        rng = np.random.default_rng(7)
        for traj in (six_node, path3):
            for _ in range(150):
                f = random_formula(rng, depth=3)
                assert np.array_equal(sat_table(traj, f),
                                      oracle_table(traj, f)), str(f)

    def test_differential_random_trajectories(self):
        rng = np.random.default_rng(11)
        g = LabeledGraph.complete(["a", "b", "c", "d"])
        for _ in range(60):
            traj = random_trajectory(rng, g, L=4)
            f = random_formula(rng, depth=3)
            assert np.array_equal(sat_table(traj, f),
                                  oracle_table(traj, f)), str(f)


class TestCoverageAndMr:
    def test_coverage(self, path3):
        f = parse("F x >= 0.8")  # holds at time 1 for a and b, not c
        assert coverage([path3], f) == pytest.approx(2 / 3)
        assert coverage([path3, path3], f) == pytest.approx(2 / 3)

    def test_mr_complement(self, path3):
        pos = GraphTemporalTrajectory(path3.graph, path3.node_labels,
                                      path3.edge_labels, label=1)
        neg = GraphTemporalTrajectory(path3.graph, path3.node_labels,
                                      path3.edge_labels, label=-1)
        f = parse("F x >= 0.8")
        mr_f = misclassification_rate([pos, neg], f)
        mr_not = misclassification_rate([pos, neg], parse("! (F x >= 0.8)"))
        assert mr_f + mr_not == pytest.approx(1.0)

    def test_mr_counts_all_nodes(self, path3):
        # f holds at 2 of 3 nodes: pos errors 1/3, neg errors 2/3
        pos = GraphTemporalTrajectory(path3.graph, path3.node_labels,
                                      path3.edge_labels, label=1)
        f = parse("F x >= 0.8")
        assert misclassification_rate([pos], f) == pytest.approx(1 / 3)

    def test_mr_requires_labels(self, path3):
        with pytest.raises(InputError):
            misclassification_rate([path3], parse("x <= 1"))


class TestTrajectorySets:
    """One stacked table per query over the whole set."""

    def test_stacked_table_against_oracle(self):
        rng = np.random.default_rng(23)
        for case in range(80):
            g = random_graph(rng, int(rng.integers(1, 6)), 0.0 if case % 5 == 0 else 0.5)
            L, N = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            trajs = [GraphTemporalTrajectory(g, t.node_labels, t.edge_labels,
                                             label=int(rng.choice([1, -1])))
                     for t in (random_trajectory(rng, g, L) for _ in range(N))]
            f = random_formula(rng, depth=3)
            tab = gtl.semantics._table(trajs, f)
            assert tab.shape == (N, g.n_nodes, L)
            oracles = [oracle_table(t, f) for t in trajs]
            for n in range(N):
                assert np.array_equal(tab[n], oracles[n]), (case, str(f))
            size = N * g.n_nodes
            assert coverage(trajs, f) == sum(int(o[:, 0].sum()) for o in oracles) / size
            wrong = sum(int((o[:, 0] != (t.label == 1)).sum()) for t, o in zip(trajs, oracles))
            assert misclassification_rate(trajs, f) == wrong / size

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_one_reach_per_neighbor_predicate(self, path3, monkeypatch, n):
        calls = []

        def counting_reach(graph, edge_labels, chain):
            calls.append(chain)
            return gtl.graph.reach(graph, edge_labels, chain)

        monkeypatch.setattr(gtl.semantics, "reach", counting_reach)
        pos = GraphTemporalTrajectory(path3.graph, path3.node_labels,
                                      path3.edge_labels, label=1)
        # two neighbor predicates, one inside the other
        f = parse("F E 1 via (y <= 1) : (x >= 0.5 & E 1 via (y <= 2) : x <= 0.5)")
        coverage([path3] * n, f)
        assert len(calls) == 2
        misclassification_rate([pos] * n, f)
        assert len(calls) == 4

    def test_horizons_must_agree(self, path3):
        short = GraphTemporalTrajectory(path3.graph, path3.node_labels[:, :2],
                                        path3.edge_labels[:, :2], label=1)
        pos = GraphTemporalTrajectory(path3.graph, path3.node_labels,
                                      path3.edge_labels, label=1)
        with pytest.raises(InputError):
            coverage([path3, short], parse("x <= 1"))
        with pytest.raises(InputError):
            misclassification_rate([pos, short], parse("x <= 1"))

    def test_graphs_must_agree(self, path3):
        other = GraphTemporalTrajectory(
            LabeledGraph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")]),
            path3.node_labels, path3.edge_labels, label=1)
        pos = GraphTemporalTrajectory(path3.graph, path3.node_labels,
                                      path3.edge_labels, label=1)
        with pytest.raises(InputError):
            misclassification_rate([pos, other], parse("x <= 1"))


def chains_of(f):
    """The distinct neighbor chains of f after desugaring."""
    return {g.chain for g in _subformulas(desugar(f)) if isinstance(g, Exists)}


class TestEvaluator:
    """One evaluator answers many queries over one set, as a search run does."""

    CHAINS = [(EdgeAtom("<=", 1.0),), (EdgeAtom("<=", 2.0),),
              (EdgeAtom(">=", 1.0), EdgeAtom("<=", 2.0)), (EdgeAtom("<=", 1.5),)]

    def queries(self, rng, n):
        """Random formulas whose chains repeat, change and come back: each
        query is a fresh formula, a repeat of an earlier one, or one of those
        joined to a neighbor predicate over a chain drawn from CHAINS."""
        seen = []
        for _ in range(n):
            r = rng.random()
            f = seen[int(rng.integers(len(seen)))] if seen and r < 0.3 else random_formula(rng, depth=2)
            if r > 0.6:
                chain = self.CHAINS[int(rng.integers(len(self.CHAINS)))]
                f = And(f, Exists(int(rng.integers(1, 3)), chain, Atom(">=", 0.5)))
            seen.append(f)
            yield f

    def test_query_sequence_against_fresh_tables_and_oracle(self, monkeypatch):
        calls = []

        def counting_reach(graph, edge_labels, chain):
            calls.append(tuple(chain))
            return gtl.graph.reach(graph, edge_labels, chain)

        rng = np.random.default_rng(31)
        g = random_graph(rng, 5, 0.6)
        trajs = [random_trajectory(rng, g, L=4) for _ in range(3)]
        evaluator = gtl.semantics._Evaluator.of(trajs)
        previous = set()
        for f in self.queries(rng, 200):
            monkeypatch.setattr(gtl.semantics, "reach", counting_reach)
            calls.clear()
            tab = evaluator.tables(desugar(f), {})
            walked = len(calls)
            monkeypatch.undo()
            chains = chains_of(f)
            # holds exactly this query's chains, and walked only the new ones
            assert set(evaluator.reaches) == chains, str(f)
            assert walked == len(chains - previous), str(f)
            previous = chains
            assert np.array_equal(tab, gtl.semantics._table(trajs, f)), str(f)
            for n, traj in enumerate(trajs):
                assert np.array_equal(tab[n], oracle_table(traj, f)), str(f)

    def test_editing_a_table_changes_no_later_one(self, path3):
        f = parse("F E 1 via (y <= 1) : x >= 0.5")
        g = parse("E 2 via (y <= 1) : x >= 0.5")
        evaluator = gtl.semantics._Evaluator.of([path3, path3])
        tab = evaluator.tables(desugar(f), {})
        want_f, want_g = tab.copy(), sat_table(path3, g)
        tab[:] = ~tab
        assert np.array_equal(evaluator.tables(desugar(f), {}), want_f)
        evaluator.tables(desugar(f), {})[:] = True
        for n in range(2):
            assert np.array_equal(evaluator.tables(desugar(g), {})[n], want_g)

    def test_checks_stay_per_query(self, path3):
        evaluator = gtl.semantics._Evaluator.of([path3])
        with pytest.raises(UsageError):
            evaluator.tables(desugar(parse("E 1 via (y <= 1) : x >= ?c")), {})
        f = parse("E 1 via (y <= 1) : x >= 0.5")
        assert np.array_equal(evaluator.tables(desugar(f), {})[0], sat_table(path3, f))


class TestOneValueCheck:
    """instantiate and tables check a parameter value the same way."""

    @pytest.mark.parametrize("text, theta", [
        ("F[<=?i] x >= 2", {"i": 1e300}),
        ("F[<=?i] x >= 2", {"i": -(2 ** 53) - 2}),
        ("E ?N via (y <= 1) : x >= 0.5", {"N": 1e300}),
        ("x <= ?c", {"c": 10 ** 400}),
        ("E 1 via (y <= ?d) : x >= 0.5", {"d": -math.inf}),
    ], ids=["bound 1e300", "bound below -2**53", "count 1e300", "threshold 10**400",
            "chain -inf"])
    def test_both_routes_reject(self, path3, text, theta):
        f = parse(text)
        with pytest.raises(UsageError):
            instantiate(f, theta)
        # the bad value second, after a good one, on the valuation axis
        good = {"i": 1, "N": 1, "c": 0.5, "d": 1.0}
        values = {n: [good[n], v] for n, v in theta.items()}
        with pytest.raises(UsageError):
            gtl.semantics._Evaluator.of([path3]).tables(desugar(f), values)

    def test_largest_integer_accepted(self, path3):
        f = parse("F[<=?i] x >= 0.5")
        g = instantiate(f, {"i": 2.0 ** 53})
        assert g.bound.hi == 2 ** 53 and type(g.bound.hi) is int
        tabs = gtl.semantics._Evaluator.of([path3]).tables(desugar(f), {"i": [2 ** 53, 1]})
        assert np.array_equal(tabs[0, 0], sat_table(path3, g))
        assert np.array_equal(tabs[1, 0], sat_table(path3, parse("F[<=1] x >= 0.5")))


class TestValuationAxis:
    """One query over K valuations of a template equals K ground queries."""

    HAND = [  # slot kinds and shapes the random templates rarely reach
        "E ?N via (y >= ?d) via (y <= 2) : F[>=?i][<=?j] x >= ?c",
        "G (x >= ?a -> F[<=?i] E ?N via (y <= ?d) : x <= ?c)",
        "x <= 0.5 U[<=?i] x >= ?c",
        "x <= ?a U[>=?i][<=?j] E 1 via (y <= 1) : x >= 0.5",
        "E ?N via (y <= 1) : x >= 0.5",
        "G[>=?i] F[<=?j] x >= 0.5",
    ]

    @staticmethod
    def template(rng):
        """A random formula with about half of its literal slots made parameters."""
        f = random_formula(rng, depth=3)
        names = iter(f"p{i}" for i in range(100))
        return parse(re.sub(r"-?\d+(\.\d+)?",
                            lambda m: f"?{next(names)}" if rng.random() < 0.5 else m.group(),
                            print_formula(f)))

    @staticmethod
    def valuations(rng, tpl, K):
        """K valuations of tpl; few distinct values, so chains and slots repeat."""
        thetas = [{} for _ in range(K)]
        for name, info in free_parameters(tpl).items():
            for theta in thetas:
                theta[name] = (int(rng.integers(0, 5)) if info.kind == "integer"
                               else float(rng.choice([0.2, 0.5, 1.0, 2.0, rng.random() * 3])))
        return thetas

    def test_against_one_query_per_valuation(self):
        rng = np.random.default_rng(41)
        g = random_graph(rng, 5, 0.6)
        trajs = [random_trajectory(rng, g, L=4) for _ in range(3)]
        evaluator = gtl.semantics._Evaluator.of(trajs)
        templates = [parse(t) for t in self.HAND] + [self.template(rng) for _ in range(150)]
        seen = set()
        for tpl in templates:
            text = print_formula(tpl)
            seen |= {kind for kind, pattern in [
                ("atom", r"x [<>]= \?"), ("count", r"E \?"), ("chain", r"y [<>]= \?"),
                ("lo", r"\[>=\?"), ("hi", r"\[<=\?"), ("paired", r"\]\[<="),
                ("zero lo", r"\[>=0\]"), ("implies", "->")] if re.search(pattern, text)}
            K = int(rng.integers(1, 7))
            thetas = self.valuations(rng, tpl, K)
            values = {n: np.array([theta[n] for theta in thetas]) for n in free_parameters(tpl)}
            tabs = evaluator.tables(desugar(tpl), values)
            tabs = np.broadcast_to(tabs, (K,) + tabs.shape[-3:])
            for k, theta in enumerate(thetas):
                want = gtl.semantics._table(trajs, instantiate(tpl, theta))
                assert np.array_equal(tabs[k], want), (text, theta)
        assert seen == {"atom", "count", "chain", "lo", "hi", "paired", "zero lo", "implies"}

    def test_shared_edge_block(self):
        # one (|E|, L) edge block for all N: its reach arrays serve any node
        # labels, so x may change between queries
        rng = np.random.default_rng(43)
        g = random_graph(rng, 5, 0.6)
        edge = random_trajectory(rng, g, L=4).edge_labels
        shared = gtl.semantics._Evaluator(g, None, edge)
        for _ in range(60):
            tpl = self.template(rng)
            trajs = [GraphTemporalTrajectory(g, rng.random((5, 4)), edge)
                     for _ in range(int(rng.integers(1, 4)))]
            thetas = self.valuations(rng, tpl, int(rng.integers(1, 4)))
            values = {n: np.array([theta[n] for theta in thetas]) for n in free_parameters(tpl)}
            shared.x = np.array([t.node_labels for t in trajs])
            want = gtl.semantics._Evaluator.of(trajs).tables(desugar(tpl), values)
            assert np.array_equal(shared.tables(desugar(tpl), values), want), print_formula(tpl)

    def test_zero_lower_bound_column(self, path3):
        # desugar keeps G[>=?i] but drops a literal G[>=0]: both give G's table
        tpl = parse("G[>=?i] x <= 0.5")
        tabs = gtl.semantics._Evaluator.of([path3]).tables(desugar(tpl), {"i": np.array([0, 1])})
        assert np.array_equal(tabs[0, 0], sat_table(path3, parse("G x <= 0.5")))
        assert np.array_equal(tabs[1, 0], sat_table(path3, parse("G[>=1] x <= 0.5")))

    @pytest.mark.parametrize("values", [
        {"c": np.array([0.5])},                       # no value for N
        {"N": np.array([1, 2]), "c": np.array([0.5, math.nan])},
        {"N": np.array([1, math.inf]), "c": np.array([0.5, 0.5])},
        {"N": np.array([1, 1.5]), "c": np.array([0.5, 0.5])},
    ], ids=["missing", "nan", "inf", "fractional"])
    def test_slot_values_checked(self, path3, values):
        g = desugar(parse("E ?N via (y <= 1) : x >= ?c"))
        with pytest.raises(UsageError):
            gtl.semantics._Evaluator.of([path3]).tables(g, values)
