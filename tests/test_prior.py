"""Prior model, exact satisfaction probability, information gain."""

import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import gtl.prior
from gtl.automata import Dfa, skeleton, to_dfa
from gtl.datagen import SwarmScenario, gen_swarm
from gtl.errors import InputError, OutOfScopeError, UsageError
from gtl.formula import (
    Atom, EdgeAtom, Exists, FalseF, TrueF, classify_subtype, desugar, instantiate, parse,
)
from gtl.graph import LabeledGraph, reach
from gtl.prior import (
    PriorModel, compute_ig, counters, load_prior, satisfaction_probability,
)

from conftest import (
    letter_distribution, letter_oracle, prob_oracle, prob_oracle_all, random_graph,
    static_reach, two_bin_prior,
)


def one_node_prior(L=2):
    g = LabeledGraph(["a"], [])
    return two_bin_prior(g, L)


def default_pmf_prior(L=2):
    """Every node on one shared pmf, so no node id is looked up in pmf."""
    g = LabeledGraph(["a"], [])
    return PriorModel(g, L, ((0.0, 1.0), (1.0, 2.0)), {}, {},
                      default_pmf=np.array([0.5, 0.5]))


class TestPriorModel:
    def test_validation(self):
        g = LabeledGraph(["a"], [])
        with pytest.raises(InputError):
            PriorModel(g, 2, ((0.0, 1.0), (0.5, 2.0)),
                       {"a": np.tile([0.5, 0.5], (2, 1))}, {})
        with pytest.raises(InputError):
            PriorModel(g, 2, ((0.0, 1.0),), {"a": np.tile([0.7], (2, 1))}, {})
        with pytest.raises(InputError):
            PriorModel(g, 2, ((0.0, 1.0),), {"a": np.ones((3, 1))}, {})

    def test_non_finite_pmf_rejected(self):
        g = LabeledGraph(["a"], [])
        with pytest.raises(InputError):  # NaN passes both the sign and the sum test
            PriorModel(g, 2, ((0.0, 1.0), (1.0, 2.0)),
                       {"a": np.array([[math.nan, 0.5], [0.5, 0.5]])}, {})

    @pytest.mark.parametrize("label", [math.nan, math.inf, -math.inf])
    def test_non_finite_edge_label_rejected(self, label):
        # a NaN label reaches no neighbor, so IG would read 0.0 without a word
        g = LabeledGraph(["a", "b"], [("e1", "a", "b")])
        with pytest.raises(InputError, match="finite"):
            PriorModel(g, 1, ((0.0, 1.0),),
                       {v: np.ones((1, 1)) for v in g.nodes}, {"e1": label})

    def test_missing_edge_label(self):
        g = LabeledGraph(["a", "b"], [("e1", "a", "b")])
        with pytest.raises(InputError):
            PriorModel(g, 1, ((0.0, 1.0),),
                       {v: np.ones((1, 1)) for v in g.nodes}, {})

    def test_default_pmf(self):
        g = LabeledGraph(["a", "b"], [])
        p = PriorModel(g, 2, ((0.0, 1.0), (1.0, 2.0)), {},
                       {}, default_pmf=np.array([0.25, 0.75]))
        assert np.allclose(p.node_pmf("b"), [[0.25, 0.75], [0.25, 0.75]])

    def test_mass_array(self):
        g = LabeledGraph(["a", "b", "c"], [])
        rows = np.array([[0.1, 0.9], [0.6, 0.4]])
        p = PriorModel(g, 2, ((0.0, 1.0), (1.0, 2.0)), {"b": rows}, {},
                       default_pmf=np.array([0.25, 0.75]))
        assert p.masses.shape == (3, 2, 2) and not p.masses.flags.writeable
        assert np.array_equal(p.masses[1], rows)
        assert np.array_equal(p.masses[[0, 2]], np.tile([0.25, 0.75], (2, 2, 1)))
        assert all(np.array_equal(p.node_pmf(v), p.masses[i]) for i, v in enumerate(g.nodes))
        with pytest.raises(InputError, match="unknown node id"):
            p.node_pmf("z")

    @pytest.mark.parametrize("default, ok", [
        ([0.25, 0.75], True), ([[0.25, 0.75]], True),
        ([[0.25, 0.75], [0.25, 0.75]], False), ([1.0], False), ([[[0.25, 0.75]]], False),
    ])
    def test_default_pmf_shape(self, default, ok):
        # default_pmf serves as one row for every time, as its L-fold tile would
        g = LabeledGraph(["a"], [])
        make = lambda: PriorModel(g, 2, ((0.0, 1.0), (1.0, 2.0)), {}, {},  # noqa: E731
                                  default_pmf=np.array(default))
        if ok:
            assert np.array_equal(make().node_pmf("a"), [[0.25, 0.75]] * 2)
        else:
            with pytest.raises(InputError, match=r"must have shape \(2, 2\)"):
                make()

    @pytest.mark.parametrize("L", [10 ** 30, 10 ** 8])
    def test_huge_horizon_rejected_before_allocation(self, L):
        # 1 node x L x 2 bins passes the cap of 10^8 mass cells; nothing of
        # size L is allocated first
        g = LabeledGraph(["a"], [])
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=f"horizon L={L} is too long"):
                PriorModel(g, L, ((0.0, 1.0), (1.0, 2.0)), {}, {},
                           default_pmf=np.array([0.5, 0.5]))
            assert tracemalloc.get_traced_memory()[1] < 10 ** 6
        finally:
            tracemalloc.stop()

    def test_compared_by_identity(self):
        # field-wise == would compare the pmf arrays and raise
        prior, twin = one_node_prior(), one_node_prior()
        assert prior == prior and prior != twin
        assert prior in [twin, prior] and twin not in [prior]
        assert len({prior, twin, prior}) == 2

    def test_json_round_trip(self, tmp_path):
        prior = one_node_prior()
        path = tmp_path / "prior.json"
        path.write_text(json.dumps(prior.to_json_dict()))
        back = load_prior(path, prior.graph)
        assert back.bins == prior.bins and back.L == prior.L
        assert np.allclose(back.node_pmf("a"), prior.node_pmf("a"))

    @pytest.mark.parametrize("key, value, match", [
        ("L", 2.5, "prior['L'] must be a JSON integer"),
        ("L", True, "prior['L'] must be a JSON integer"),
        ("L", "2", "prior['L'] must be a JSON integer"),
        ("edge_labels", {"e1": 1.0, "e9": 1.0}, "prior['edge_labels'] has unknown key 'e9'"),
        ("edge_labels", {"e1": "1.0"}, "prior['edge_labels']['e1'] must be a JSON number"),
        ("bins", [[0, 1], [1, "2"]], "prior['bins'][1][1] must be a JSON number"),
    ])
    def test_json_fields_are_not_coerced(self, key, value, match):
        g = LabeledGraph(["a", "b"], [("e1", "a", "b")])
        d = two_bin_prior(g, 2).to_json_dict()
        d[key] = value
        with pytest.raises(InputError, match=re.escape(match)):
            PriorModel.from_json_dict(d, g)


class TestAtomProbability:
    def test_within_bin_uniform(self):
        prior = one_node_prior()
        # bins (0,1), (1,2) with mass 0.5 each; x <= 1.5 covers 0.5 + 0.25
        assert letter_distribution(prior, [parse("x <= 1.5")], "a", 1)[1] == pytest.approx(0.75)
        assert letter_distribution(prior, [Atom(">=", 0.5)], "a", 2)[1] == pytest.approx(0.75)
        assert letter_distribution(prior, [parse("x <= 0")], "a", 1)[1] == 0.0
        assert letter_distribution(prior, [parse("x >= 1")], "a", 1)[1] == pytest.approx(0.5)

    def test_parametric_atom_rejected(self):
        with pytest.raises(UsageError):
            letter_distribution(one_node_prior(), [parse("x <= ?c")], "a", 1)

    def test_unknown_node_rejected_with_default_pmf(self):
        with pytest.raises(InputError):
            letter_distribution(default_pmf_prior(), [parse("x <= 1")], "zzz", 1)


class TestStaticReach:
    def test_reach_and_exists(self, six_node):
        prior = two_bin_prior(
            six_node.graph, 1,
            edge_labels={e: six_node.edge_label(e, 1)
                         for e in six_node.graph.edges})
        chain = parse("E 1 via (y <= 1) : x <= 1").chain
        assert sorted(static_reach(prior, "v4", chain)) == ["v1", "v5"]
        # 2-of-2 independent successes with per-node P(x <= 1) = 0.5
        p = satisfaction_probability(prior, parse("E 2 via (y <= 1) : x <= 1"), "v4")
        assert p == pytest.approx(0.25)
        # asking for 3 of 2 reachable nodes is impossible
        p = satisfaction_probability(prior, parse("E 3 via (y <= 1) : x <= 1"), "v4")
        assert p == 0.0

    def test_equals_reach_row(self):
        rng = np.random.default_rng(5)
        for n, p_edge in [(1, 0.0), (4, 0.0), (5, 0.5), (6, 0.8), (7, 1.0)]:
            g = random_graph(rng, n, p_edge)
            y = np.round(rng.random(g.n_edges) * 3, 1)
            prior = two_bin_prior(g, 1, edge_labels=dict(zip(g.edges, y)))
            for hops in (1, 2, 3):
                chain = [EdgeAtom(str(rng.choice(["<=", ">="])), float(rng.choice([1.0, 2.0])))
                         for _ in range(hops)]
                R = reach(g, y.reshape(g.n_edges, 1), chain)
                for vi, v in enumerate(g.nodes):
                    want = [g.nodes[u] for u in np.flatnonzero(R[0, vi])]
                    assert static_reach(prior, v, chain) == want


class TestLetterDistribution:
    def test_single_atom(self):
        prior = one_node_prior()
        dist = letter_distribution(prior, [parse("x <= 1.5")], "a", 1)
        assert np.allclose(dist, [0.25, 0.75])
        assert dist.sum() == pytest.approx(1.0)

    def test_correlated_atoms_not_independent(self):
        # x <= 0.6 implies x <= 1.4, so the joint letter {ap1 only} has the
        # whole mass of (0.6, 1.4] and {ap0 only} is impossible
        prior = one_node_prior()
        aps = [parse("x <= 0.6"), parse("x <= 1.4")]
        dist = letter_distribution(prior, aps, "a", 1)
        assert dist[0b01] == pytest.approx(0.0)
        assert dist[0b11] == pytest.approx(0.3)
        assert dist[0b10] == pytest.approx(0.4)
        assert dist[0b00] == pytest.approx(0.3)

    def test_exists_letter(self, six_node):
        prior = two_bin_prior(
            six_node.graph, 1,
            edge_labels={e: six_node.edge_label(e, 1)
                         for e in six_node.graph.edges})
        f = parse("E 2 via (y <= 1) : x >= 1")
        dist = letter_distribution(prior, [f], "v4", 1)
        # both of v4's reached nodes must land at x >= 1 (P = 0.5 each)
        assert dist[1] == pytest.approx(0.25)
        assert dist.sum() == pytest.approx(1.0)

    def test_independence_fallback(self, six_node, monkeypatch):
        prior = two_bin_prior(
            six_node.graph, 1,
            edge_labels={e: six_node.edge_label(e, 1)
                         for e in six_node.graph.edges})
        aps = [parse("x <= 0.6"), parse("E 2 via (y <= 1) : x >= 1")]
        p0 = letter_distribution(prior, [aps[0]], "v4", 1)[1]
        monkeypatch.setattr(gtl.prior, "MAX_DP_STATES", 1)
        with pytest.warns(UserWarning, match="independence"):
            dist = letter_distribution(prior, aps, "v4", 1)
        p1 = 0.25  # both of v4's two reached nodes at x >= 1
        assert np.allclose(dist, [(1 - p0) * (1 - p1), p0 * (1 - p1),
                                  (1 - p0) * p1, p0 * p1])

    def test_one_time_step_matches_all_times(self, monkeypatch):
        """letter_distribution runs the DP on time k alone, and its answer
        is row k of the all-times route."""
        g = LabeledGraph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
        aps = [parse("x <= 0.6"), parse("E 1 via (y <= 2) : x >= 1"),
               parse("E 2 via (y <= 2) : x <= 1.4")]
        count_dp = gtl.prior._count_dp
        rows = []

        def recording_dp(*args):
            out = count_dp(*args)
            rows.append(len(out))
            return out

        monkeypatch.setattr(gtl.prior, "_count_dp", recording_dp)
        for seed in range(5):
            prior = two_bin_prior(g, 4, rng_np=np.random.default_rng(seed),
                                  edge_labels={"e1": 1.0, "e2": 2.0})
            table = gtl.prior._letter_table(prior, aps, {})
            for vi, v in enumerate(g.nodes):
                full = gtl.prior._letters(*table, [vi])[0]
                for k in range(1, prior.L + 1):
                    rows.clear()
                    got = letter_distribution(prior, aps, v, k)
                    assert np.array_equal(got, full[k - 1]), (seed, v, k)
                    assert rows == [1]

    def test_unknown_node_rejected_with_default_pmf(self):
        with pytest.raises(InputError):
            letter_distribution(default_pmf_prior(), [parse("x <= 1.5")], "zzz", 1)


THREE_BINS = ((0.0, 0.5), (0.5, 1.2), (1.2, 2.0))


def three_bin_prior(g, L, rng, edge_labels, default=False):
    """Random three-bin prior; default=True puts every node on one default_pmf."""
    if default:
        return PriorModel(g, L, THREE_BINS, {}, edge_labels,
                          default_pmf=rng.dirichlet([1.0] * 3))
    return PriorModel(g, L, THREE_BINS,
                      {v: rng.dirichlet([1.0] * 3, size=L) for v in g.nodes}, edge_labels)


def random_letter_aps(rng):
    """Two to four bare atoms and neighbor letters; thresholds include the bin
    edges 0.5 and 1.2, counts include 0 and counts above any reach size."""
    aps = []
    for _ in range(rng.integers(2, 5)):
        atom = Atom(str(rng.choice(["<=", ">="])), float(rng.choice([0.3, 0.5, 0.8, 1.2, 1.5])))
        if rng.random() < 0.3:
            aps.append(atom)
        else:
            hops = rng.integers(1, 3)
            chain = tuple(EdgeAtom("<=", float(rng.choice([1.0, 2.0]))) for _ in range(hops))
            aps.append(Exists(int(rng.choice([0, 1, 2, 3, 6])), chain, atom))
    return aps


class TestLetterOracle:
    """letter_distribution against exhaustive enumeration of cell assignments."""

    @pytest.mark.parametrize("seed", range(16))
    def test_random_graphs_and_priors(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = random_graph(rng, int(rng.integers(3, 5)), 0.7)
        edge_labels = {e: float(rng.choice([1.0, 2.0])) for e in g.edges}
        prior = three_bin_prior(g, 2, rng, edge_labels, default=seed % 4 == 3)
        aps = random_letter_aps(rng)
        for v in g.nodes:
            for k in (1, 2):
                got = letter_distribution(prior, aps, v, k)
                assert np.allclose(got, letter_oracle(prior, aps, v, k), rtol=0, atol=1e-12), \
                    (aps, v, k)

    def test_shared_nodes_and_edge_cases(self):
        # path a - b - c plus an isolated node d; two y <= 1 hops from a reach a and c
        g = LabeledGraph(["a", "b", "c", "d"], [("e1", "a", "b"), ("e2", "b", "c")])
        prior = three_bin_prior(g, 2, np.random.default_rng(4), {"e1": 1.0, "e2": 1.0})
        two_hops = "via (y <= 1) via (y <= 1)"
        aps = [parse(t) for t in [
            "x <= 0.8",  # bare atom at v, which is also in its own two-hop reach
            f"E 1 {two_hops} : x >= 0.8",
            "E 2 via (y <= 1) : x <= 0.5",  # threshold on a bin edge
            "E 0 via (y <= 1) : x >= 1.2",  # n = 0 always holds
            "E 3 via (y <= 1) : x >= 0.3",  # n above every reach size here
            "E 1 via (y >= 5) : x <= 1.5",  # empty reach
        ]]
        assert static_reach(prior, "a", aps[1].chain) == ["a", "c"]
        for v in g.nodes:
            for k in (1, 2):
                got = letter_distribution(prior, aps, v, k)
                assert np.allclose(got, letter_oracle(prior, aps, v, k), rtol=0, atol=1e-12), \
                    (v, k)

    def test_fallback_is_product_of_oracle_marginals(self, monkeypatch):
        g = LabeledGraph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
        prior = three_bin_prior(g, 2, np.random.default_rng(6), {"e1": 1.0, "e2": 2.0})
        aps = [parse(t) for t in ["x <= 0.8", "E 2 via (y <= 2) : x >= 0.5",
                                  "E 1 via (y <= 2) via (y <= 2) : x <= 1.5"]]
        monkeypatch.setattr(gtl.prior, "MAX_DP_STATES", 1)
        for v in g.nodes:
            for k in (1, 2):
                with pytest.warns(UserWarning, match="independence"):
                    got = letter_distribution(prior, aps, v, k)
                marg = [letter_oracle(prior, [ap], v, k)[1] for ap in aps]
                want = [math.prod(p if letter >> i & 1 else 1 - p for i, p in enumerate(marg))
                        for letter in range(1 << len(aps))]
                assert np.allclose(got, want, rtol=0, atol=1e-12), (v, k)


def letters_loop(tables, preds, vi):
    """(L, 2^|preds|) letter array at node index vi of a one-table
    `_letter_table`: the per-node array DP that the batched route replaced,
    kept as its differential oracle."""
    [(masses, truth)] = tables
    m, L = len(preds), masses.shape[1]
    ns = [n for n, _ in preds]
    hits = np.array([r[vi] for _, r in preds], dtype=bool).reshape(m, len(masses))
    caps = np.minimum(ns, hits.sum(axis=1))
    dp = np.zeros((L,) + tuple(int(c) + 1 for c in caps[::-1]))
    dp[(slice(None),) + (0,) * m] = 1.0
    for u in np.flatnonzero(hits.any(axis=0)):
        touch = np.flatnonzero(hits[:, u])
        pattern_mass = {}
        for c, pattern in enumerate(map(tuple, truth[touch].T)):
            pattern_mass[pattern] = pattern_mass.get(pattern, 0.0) + masses[u, :, c]
        new = np.zeros_like(dp)
        for pattern, mass in pattern_mass.items():
            moved = dp
            for j, hit in zip(touch, pattern):
                if hit:
                    moved = gtl.prior._bump(moved, m - j)
            new += mass.reshape((L,) + (1,) * m) * moved
        dp = new
    for j in range(m):
        holds = np.eye(2)[(np.arange(caps[j] + 1) >= ns[j]).astype(int)]
        dp = np.moveaxis(np.moveaxis(dp, m - j, -1) @ holds, -1, m - j)
    return dp.reshape(L, -1)


class TestBatchedLetters:
    """The batched (node, time) DP against the per-node DP, bit for bit."""

    def check(self, prior, aps):
        table = gtl.prior._letter_table(prior, aps, {})
        nodes = list(range(prior.graph.n_nodes))
        got = gtl.prior._letters(*table, nodes)
        for vi in nodes:
            assert np.array_equal(got[vi], letters_loop(*table, vi)), (aps, vi)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_unequal_reach(self, seed):
        rng = np.random.default_rng(300 + seed)
        g = random_graph(rng, int(rng.integers(4, 8)), 0.5)
        edge_labels = {e: float(rng.choice([1.0, 2.0])) for e in g.edges}
        prior = three_bin_prior(g, int(rng.integers(1, 5)), rng, edge_labels)
        self.check(prior, random_letter_aps(rng))

    def test_empty_and_unequal_reach(self):
        # path a - b - c - d plus isolated e: reach sizes 0 to 2 across nodes
        g = LabeledGraph(["a", "b", "c", "d", "e"],
                         [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "d")])
        rng = np.random.default_rng(8)
        prior = three_bin_prior(g, 3, rng, {"e1": 1.0, "e2": 1.0, "e3": 2.0})
        aps = [parse(t) for t in ["x <= 0.8", "E 2 via (y <= 1) : x >= 0.5",
                                  "E 3 via (y <= 2) : x <= 1.2",
                                  "E 1 via (y <= 1) via (y <= 1) : x >= 0.3",
                                  "E 1 via (y >= 5) : x <= 1.5"]]
        assert [len(static_reach(prior, v, aps[2].chain)) for v in g.nodes] == [1, 2, 2, 1, 0]
        self.check(prior, aps)

    def test_fallback_nodes_beside_batched_ones(self, monkeypatch):
        # a star: the hub reaches four leaves, each leaf only the hub
        g = LabeledGraph(["h", "p", "q", "r", "s"],
                         [(f"e{i}", "h", v) for i, v in enumerate("pqrs")])
        prior = three_bin_prior(g, 3, np.random.default_rng(9), {f"e{i}": 1.0 for i in range(4)})
        aps = [parse(t) for t in ["E 4 via (y <= 1) : x >= 0.5", "E 4 via (y <= 1) : x <= 1.2"]]
        table = gtl.prior._letter_table(prior, aps, {})
        monkeypatch.setattr(gtl.prior, "MAX_DP_STATES", 24)  # the hub needs 25, a leaf 4
        with pytest.warns(UserWarning, match="independence") as caught:
            got = gtl.prior._letters(*table, [0, 1, 2, 3, 4])
        assert len(caught) == 1
        [(masses, truth)], preds = table
        hits = np.array([r[0] for _, r in preds])
        want_hub = gtl.prior._independent_letters(masses, truth, [4, 4], hits)
        assert np.array_equal(got[0], want_hub)
        for vi in range(1, 5):
            assert np.array_equal(got[vi], letters_loop(*table, vi))

    def test_pooled_state_over_the_cap_runs_per_node(self, monkeypatch):
        # caps (2, 0) at one node and (0, 2) at another pool to 9 states
        g = LabeledGraph(["a", "b", "c", "d"], [("e1", "a", "b"), ("e2", "a", "c"),
                                                ("e3", "c", "d"), ("e4", "b", "d")])
        prior = three_bin_prior(g, 2, np.random.default_rng(10),
                                {"e1": 1.0, "e2": 1.0, "e3": 2.0, "e4": 2.0})
        aps = [parse(t) for t in ["E 2 via (y <= 1) : x >= 0.5", "E 2 via (y >= 2) : x <= 1.2"]]
        monkeypatch.setattr(gtl.prior, "MAX_DP_STATES", 8)
        self.check(prior, aps)

    # three predicates whose thresholds each alphabet fills in, and the
    # number of sources that each node of path a - b - c - d plus the
    # isolated e then has
    STACKED = {
        "with a bare atom": (["x <= {}", "E 1 via (y <= 1) : x >= {}",
                              "E 2 via (y <= 2) : x <= {}"], [2, 3, 3, 2, 1]),
        "neighbors only": (["E 2 via (y <= 1) : x >= {}", "E 1 via (y <= 2) : x <= {}",
                            "E 1 via (y <= 2) : x >= {}"], [1, 2, 2, 1, 0]),
    }

    @pytest.mark.parametrize("shape", STACKED)
    @pytest.mark.parametrize("thresholds", [
        # each list has an alphabet with two equal thresholds: one cell fewer
        [(0.3, 0.8, 1.5), (1.5, 0.5, 1.5)],
        [(0.3, 0.8, 1.5), (0.8, 0.8, 1.2), (1.2, 0.5, 0.8)],
        [(0.3, 0.8, 1.5), (1.5, 0.3, 0.8), (0.5, 1.2, 1.2), (0.8, 0.8, 0.8)],
    ])
    def test_stacked_tables(self, shape, thresholds):
        g = LabeledGraph(["a", "b", "c", "d", "e"],
                         [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "d")])
        prior = three_bin_prior(g, 3, np.random.default_rng(11),
                                {"e1": 1.0, "e2": 1.0, "e3": 2.0})
        texts, sources = self.STACKED[shape]
        rows, tables = {}, []
        for ts in thresholds:
            table, preds = gtl.prior._letter_table(
                prior, [parse(t.format(x)) for t, x in zip(texts, ts)], rows)
            tables += table
        assert len({truth.shape[1] for _, truth in tables}) > 1
        assert np.array([r for _, r in preds]).any(axis=0).sum(axis=1).tolist() == sources
        nodes = list(range(g.n_nodes))
        got = gtl.prior._letters(tables, preds, nodes)
        for p, table in enumerate(tables):
            for vi in nodes:
                assert np.array_equal(got[vi, p * prior.L:(p + 1) * prior.L],
                                      letters_loop([table], preds, vi)), (p, vi)


def grid_graph(n):
    """The n x n four-neighbour grid, nodes g{row}_{col}."""
    nodes = [f"g{i}_{j}" for i in range(n) for j in range(n)]
    edges = [(f"h{i}_{j}", f"g{i}_{j}", f"g{i}_{j + 1}") for i in range(n) for j in range(n - 1)]
    edges += [(f"v{i}_{j}", f"g{i}_{j}", f"g{i + 1}_{j}") for i in range(n - 1) for j in range(n)]
    return LabeledGraph(nodes, edges)


class TestSlotSteps:
    """The letter DP steps once per reach slot, however large the graph."""

    def test_steps_follow_reach_size_not_graph_size(self, monkeypatch):
        g = grid_graph(20)
        prior = PriorModel(g, 30, ((0.0, 4.0), (4.0, 8.0), (8.0, 12.0)), {},
                           {e: 1.0 for e in g.edges}, default_pmf=np.array([0.2, 0.5, 0.3]))
        table = gtl.prior._letter_table(prior, [parse("E 2 via (y <= 1) : x >= 5")], {})
        [(_, truth)], [(_, reach_rows)] = table
        sources = reach_rows.sum(axis=1).max()
        patterns = len({tuple(cell) for cell in truth.T})
        assert (sources, patterns) == (4, 2)
        bump, steps = gtl.prior._bump, []

        def counting_bump(dp, axis):
            steps.append(axis)
            return bump(dp, axis)

        monkeypatch.setattr(gtl.prior, "_bump", counting_bump)
        gtl.prior._letters(*table, list(range(g.n_nodes)))
        assert 0 < len(steps) <= sources * patterns


class TestLift:
    """The padded one-call type-II lift against one tail per node."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_against_per_node_tails(self, n, seed):
        rng = np.random.default_rng(700 + seed)
        reached = rng.random((7, 6)) < 0.5
        reached[0] = False  # an isolated node
        reached[1] = np.arange(6) == 3  # one reached node
        betas = rng.random(6)
        betas[rng.integers(6)], betas[rng.integers(6)] = 0.0, 1.0
        got = gtl.prior._lift(betas, n, reached)
        want = np.array([gtl.prior._poisson_binomial_tail(betas[r], n) for r in reached])
        assert np.array_equal(got, want)

    def test_no_node_reaches_anything(self):
        reached = np.zeros((3, 4), dtype=bool)
        assert np.array_equal(gtl.prior._lift(np.full(4, 0.5), 0, reached), np.ones(3))
        assert np.array_equal(gtl.prior._lift(np.full(4, 0.5), 1, reached), np.zeros(3))


class TestLetterMemory:
    def test_peak_does_not_grow_with_the_horizon(self, monkeypatch):
        # five E 9 letters on K_10: 10^5 DP states per time step
        g = LabeledGraph.complete([f"n{i}" for i in range(10)])
        aps = [parse(f"E 9 via (y <= 1) : x {t}")
               for t in ["<= 0.3", "<= 0.8", ">= 1.0", ">= 1.5", "<= 1.4"]]
        monkeypatch.setattr(gtl.prior, "MAX_DP_STATES", 2 * 10 ** 5)  # two rows per chunk

        def peak(L):
            prior = three_bin_prior(g, L, np.random.default_rng(0), {e: 1.0 for e in g.edges})
            tracemalloc.start()
            try:
                letter_distribution(prior, aps, "n0", L)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        base = peak(2)
        assert base > 10 ** 6 and peak(8) <= 1.5 * base

    def test_dense_graph_peak_stays_at_the_per_node_route(self):
        # on K_200 every node has 199 sources, so the slot DP steps once per
        # graph node, as the per-node DP it replaced did; that DP peaked at
        # 2.24 MB under tracemalloc (numpy 2.4), and the slot DP, which
        # gathers one slot at a time, may not pass 1.25 times that
        g = LabeledGraph.complete([f"n{i}" for i in range(200)])
        prior = PriorModel(g, 200, THREE_BINS, {}, {e: 1.0 for e in g.edges},
                           default_pmf=np.array([0.2, 0.5, 0.3]))
        f, nodes = parse("G E 1 via (y <= 1) : x <= 0.5"), g.nodes[:20]
        compute_ig(prior, f, nodes)  # first-call allocations are not the DP's
        tracemalloc.start()
        try:
            compute_ig(prior, f, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2.24e6


class TestSatisfactionProbability:
    def test_boundary_atom_spot_value(self):
        prior = one_node_prior(L=2)
        p = satisfaction_probability(prior, parse("F[<=1] x >= 1"), "a")
        assert p == pytest.approx(0.75, abs=1e-12)

    def test_constants(self):
        prior = one_node_prior()
        assert satisfaction_probability(prior, parse("TRUE"), "a") == 1.0
        assert satisfaction_probability(prior, parse("FALSE"), "a") == 0.0

    @pytest.mark.parametrize("text", [
        "F[<=1] x >= 1",
        "G x <= 1.5",
        "x <= 0.5 U x >= 1",
        "G (x >= 1 -> F[<=1] x <= 0.5)",
        "F[>=1][<=2] x >= 0.7",
        "! F x >= 1.2",
        "F E 1 via (y <= 1) : x >= 1",
        "G[<=1] E 2 via (y <= 2) : x <= 0.8",
    ])
    def test_against_enumeration_oracle(self, text):
        g = LabeledGraph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
        rng = np.random.default_rng(13)
        prior = two_bin_prior(g, 3, rng_np=rng,
                              edge_labels={"e1": 1.0, "e2": 2.0})
        f = parse(text)
        for v in g.nodes:
            got = satisfaction_probability(prior, f, v)
            want = prob_oracle(prior, f, v)
            assert got == pytest.approx(want, abs=1e-10), (text, v)

    def test_type_two_against_oracle(self):
        g = LabeledGraph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
        rng = np.random.default_rng(17)
        prior = two_bin_prior(g, 2, rng_np=rng,
                              edge_labels={"e1": 1.0, "e2": 1.0})
        for text in ["E 1 via (y <= 1) : F x >= 1",
                     "E 2 via (y <= 1) : G x <= 1.5",
                     "E 2 via (y <= 1) via (y <= 1) : F[<=1] x >= 0.8"]:
            f = parse(text)
            want = prob_oracle_all(prior, f)
            probs = compute_ig(prior, f).probabilities
            for v in g.nodes:
                got = satisfaction_probability(prior, f, v)
                assert got == pytest.approx(want[v], abs=1e-10), (text, v)
                assert probs[v] == got, (text, v)

    @pytest.mark.parametrize("text", [
        "G x >= 1",
        "G x >= 1 & G[<=2] E 1 via (y <= 1) : x >= 1",
        "G E 1 via (y <= 1) : x >= 1",
        "E 1 via (y <= 1) : G x >= 1",  # type-II, safe body
    ])
    def test_small_safe_probabilities_to_relative_precision(self, text):
        # P below 1e-6, where an absolute tolerance sees nothing: every
        # digit of P must match the oracle, not only those above 1e-16
        g = LabeledGraph(["a", "b"], [("e1", "a", "b")])
        rng = np.random.default_rng(19)
        L = 5
        high = rng.uniform(0.005, 0.03, size=(2, L))
        prior = PriorModel(g, L, ((0.0, 1.0), (1.0, 2.0)),
                           {v: np.stack([1 - h, h], axis=1) for v, h in zip(g.nodes, high)},
                           {"e1": 1.0})
        f = parse(text)
        want = prob_oracle_all(prior, f)
        probs = compute_ig(prior, f).probabilities
        for v in g.nodes:
            assert 0.0 < want[v] < 1e-6, (text, v)
            assert probs[v] == pytest.approx(want[v], rel=1e-9, abs=0.0), (text, v)

    def test_type_two_out_of_scope_body_rejected_at_every_node(self):
        # c reaches nothing, yet the body is still neither co-safe nor safe
        g = LabeledGraph(["a", "b", "c"], [("e1", "a", "b")])
        prior = two_bin_prior(g, 2)
        f = parse("E 1 via (y <= 1) : (F x >= 1 & G x <= 1.5)")
        for v in g.nodes:
            with pytest.raises(OutOfScopeError):
                satisfaction_probability(prior, f, v)
        with pytest.raises(OutOfScopeError):
            compute_ig(prior, f, nodes=["c"])

    def test_unknown_node_rejected_with_default_pmf(self):
        for text in ["F x >= 1", "TRUE"]:
            with pytest.raises(InputError):
                satisfaction_probability(default_pmf_prior(), parse(text), "zzz")

    def test_out_of_fragment_rejected(self):
        prior = one_node_prior()
        with pytest.raises(OutOfScopeError):
            satisfaction_probability(prior, parse("F x >= 1 & G x <= 1.5"), "a")

    def test_ungrounded_rejected(self):
        with pytest.raises(UsageError):
            satisfaction_probability(one_node_prior(), parse("x <= ?c"), "a")


class TestCounters:
    def test_transition_evals_scale_with_horizon(self):
        f = parse("G (x >= 1 -> F[<=1] x <= 0.5)")
        g = LabeledGraph(["a"], [])

        def evals(L):
            prior = two_bin_prior(g, L)
            before = counters["transition_evals"]
            satisfaction_probability(prior, f, "a")
            return counters["transition_evals"] - before

        e1, e2 = evals(4), evals(8)
        assert e2 == 2 * e1


class TestOneRoute:
    @pytest.mark.parametrize("text", [
        "G (x >= 1 -> F[<=1] x <= 0.5)",  # type-I, safe
        "F E 1 via (y <= 1) : x >= 1",  # type-I with a neighbor letter
        "E 1 via (y <= 1) : G x <= 1.5",  # type-II: one DFA for every reached node
    ])
    def test_one_dfa_and_one_desugar_per_call(self, monkeypatch, text):
        calls = {"to_dfa": 0, "desugar": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in calls:
            monkeypatch.setattr(gtl.prior, name, counting(name, getattr(gtl.prior, name)))
        g = LabeledGraph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
        prior = two_bin_prior(g, 3, rng_np=np.random.default_rng(3))
        f = parse(text)
        compute_ig(prior, f)
        assert calls == {"to_dfa": 1, "desugar": 1}
        satisfaction_probability(prior, f, "b")
        assert calls == {"to_dfa": 2, "desugar": 2}

    def test_one_static_reach_per_chain_per_call(self, monkeypatch):
        calls = []

        def counting_reach(graph, edge_labels, chain):
            calls.append(tuple(chain))
            return reach(graph, edge_labels, chain)

        monkeypatch.setattr(gtl.prior, "reach", counting_reach)
        g = LabeledGraph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
        prior = two_bin_prior(g, 3, rng_np=np.random.default_rng(3),
                              edge_labels={"e1": 1.0, "e2": 2.0})
        # three neighbor letters over two distinct chains
        f = parse("F (E 1 via (y <= 1) : x >= 1 & E 2 via (y <= 1) : x <= 0.5)"
                  " | F E 1 via (y <= 2) : x >= 1")
        compute_ig(prior, f)
        assert len(calls) == len(set(calls)) == 2
        calls.clear()
        compute_ig(prior, parse("E 1 via (y <= 2) : G x <= 1.5"))  # type-II
        assert len(calls) == 1

    def test_matches_per_state_recursion(self):
        """The vectorized recursion against the per-state loop it replaced."""
        g = LabeledGraph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
        prior = two_bin_prior(g, 4, rng_np=np.random.default_rng(8),
                              edge_labels={"e1": 1.0, "e2": 2.0})
        for text in ["F[<=2] x >= 1", "x <= 0.5 U x >= 1",
                     "F (x >= 1 & E 1 via (y <= 2) : x <= 0.8)"]:
            f = parse(text)
            dfa, aps = to_dfa(f)
            for v in g.nodes:
                u = dfa.accepting.astype(float)
                for k in range(prior.L, 0, -1):
                    dist = letter_distribution(prior, aps, v, k)
                    u = np.array([np.dot(dist, u[dfa.transitions[q]])
                                  for q in range(dfa.n_states)])
                assert satisfaction_probability(prior, f, v) == \
                    pytest.approx(u[dfa.initial], abs=1e-12), (text, v)


def probabilities_one_by_one(prior, f, nodes):
    """{v: P} through the unbatched route that front scoring replaced, kept
    as its differential oracle: the formula's own DFA, its own letter DP
    and one backward recursion per node.  Like the route, it clips each
    reported P to [0, 1] but not the betas that feed a type-II tail."""
    g = desugar(f)
    if isinstance(g, (TrueF, FalseF)):
        return dict.fromkeys(nodes, float(isinstance(g, TrueF)))
    sub = classify_subtype(g)
    if not sub.typeII:
        probs = inner_one_by_one(prior, g, nodes)
    else:
        rows, names = gtl.prior._reach_rows(prior, g.chain), prior.graph.nodes
        reached = {v: [names[u] for u in np.flatnonzero(rows[prior.graph.node_index[v]])]
                   for v in nodes}
        betas = inner_one_by_one(prior, g.body, sorted({u for r in reached.values() for u in r}))
        probs = {v: float(gtl.prior._poisson_binomial_tail([betas[u] for u in r], int(g.count)))
                 for v, r in reached.items()}
    return {v: min(max(p, 0.0), 1.0) for v, p in probs.items()}


def inner_one_by_one(prior, f, nodes):
    dfa, aps = to_dfa(f)
    letters = gtl.prior._letters(*gtl.prior._letter_table(prior, aps, {}),
                                 [prior.graph.node_index[v] for v in nodes])
    probs = {}
    for v, word in zip(nodes, letters):
        u = dfa.accepting.astype(float)
        for row in word[::-1]:
            u = u[dfa.transitions] @ row
        probs[v] = float(u[dfa.initial])
    return probs


def scored_target(f):
    """The formula whose DFA the prior route runs for f."""
    g = desugar(f)
    return g.body if classify_subtype(g).typeII else g


# front-scoring templates: free time bounds and counts span several
# skeletons, a free chain threshold ?d changes the reach rows per point,
# and thresholds drawn from one small pool merge predicates and reorder
# the truth table within one skeleton
FRONT_TEMPLATES = [
    "F[<=?i] (x >= ?a & E ?N via (y <= ?d) : x <= ?c)",  # co-safe
    "G (x >= ?a -> G[<=?i] E ?N via (y <= ?d) : x <= ?c)",  # safe
    "x <= ?a U[<=?i] (x >= ?c | E ?N via (y <= 1) : x >= ?e)",
    "F x >= ?a & F[<=?i] x >= ?c",  # merges its two predicates at a = c
    "F[<=?i] (E 1 via (y <= 2) : x >= ?a & E ?N via (y <= 2) : x >= ?c)",
    "E ?N via (y <= ?d) : F[<=?i] (x >= ?a & x <= ?c)",  # type-II
    "E ?N via (y <= 1) : G (x <= ?a | x >= ?c)",  # type-II, safe body
]


class TestFrontScoring:
    """Scoring a whole front in one call against one unbatched call per
    formula: equal probabilities bit for bit, and one DFA per skeleton that
    is exactly the automaton to_dfa builds for each of its members."""

    def front(self, rng, text, L):
        thresholds = [0.3, 0.5, 0.8, 1.2, 1.5]
        return [instantiate(parse(text), {
            "a": float(rng.choice(thresholds)), "c": float(rng.choice(thresholds)),
            "e": float(rng.choice(thresholds)),
            "i": int(rng.integers(1, L + 1)), "N": int(rng.integers(0, 3)),
            "d": float(rng.choice([1.0, 2.0]))}) for _ in range(int(rng.integers(2, 9)))]

    @pytest.mark.parametrize("seed", range(12))
    def test_random_fronts(self, monkeypatch, seed):
        rng = np.random.default_rng(500 + seed)
        g = random_graph(rng, int(rng.integers(3, 6)), 0.6)
        prior = three_bin_prior(g, int(rng.integers(1, 4)), rng,
                                {e: float(rng.choice([1.0, 2.0])) for e in g.edges})
        built = []

        def recording_to_dfa(f):
            out = to_dfa(f)
            built.append(out[0])
            return out

        monkeypatch.setattr(gtl.prior, "to_dfa", recording_to_dfa)
        for text in FRONT_TEMPLATES:
            formulas = self.front(rng, text, prior.L)
            nodes = list(g.nodes) if rng.random() < 0.7 else list(g.nodes[:2])
            built.clear()
            reports = gtl.prior._info_gains(prior, formulas, nodes)
            for f, rep in zip(formulas, reports):
                assert rep.probabilities == probabilities_one_by_one(prior, f, nodes), str(f)
            keys = {}
            for f in formulas:
                key, aps = skeleton(scored_target(f))
                keys.setdefault(key, []).append(aps)
            assert len(built) == len(keys), text
            for dfa, (key, members) in zip(built, keys.items()):
                for f in formulas:
                    target = scored_target(f)
                    if skeleton(target)[0] != key:
                        continue
                    own, aps = to_dfa(target)
                    shared = Dfa(aps, dfa.transitions, dfa.accepting, dfa.initial)
                    assert shared.to_dot() == own.to_dot(), str(f)

    @pytest.mark.parametrize("text, valuations, n_skeletons, n_letter_calls", [
        # a < c and a > c reorder the truth table within one skeleton, a = c
        # merges the two predicates, and i = 1 is a second time bound
        ("F x >= ?a & F[<=?i] x >= ?c",
         [(0.5, 0.8, 2, 1, 1.0), (1.2, 0.8, 2, 1, 1.0), (0.8, 0.8, 2, 1, 1.0),
          (0.5, 0.8, 1, 1, 1.0)], 3, 3),
        # one skeleton; the chain threshold d and the count N change a
        # predicate's reach rows and count, so each needs its own DP
        ("G (x >= ?a -> G[<=?i] E ?N via (y <= ?d) : x <= ?c)",
         [(0.5, 0.8, 2, 1, 1.0), (1.2, 0.8, 2, 1, 1.0), (0.5, 0.8, 2, 1, 2.0),
          (0.5, 1.2, 2, 2, 1.0)], 1, 3),
        # two predicates on one chain, saturated at n = 1 from b's two
        # neighbors: a < c and a > c order the same terms differently
        ("F (E 1 via (y <= 2) : x >= ?a & E 1 via (y <= 2) : x >= ?c)",
         [(0.5, 0.8, 2, 1, 1.0), (1.2, 0.8, 2, 1, 1.0), (0.3, 1.5, 2, 1, 1.0)], 1, 1),
        # type-II: d changes the reached nodes whose bodies are scored
        ("E ?N via (y <= ?d) : F[<=?i] (x >= ?a & x <= ?c)",
         [(0.5, 0.8, 2, 1, 1.0), (1.2, 0.8, 2, 1, 1.0), (0.5, 0.8, 2, 1, 2.0),
          (0.5, 1.2, 2, 2, 1.0)], 1, 2),
    ])
    def test_hand_picked_fronts(self, monkeypatch, text, valuations, n_skeletons,
                                n_letter_calls):
        calls = {"to_dfa": 0, "_letters": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in calls:
            monkeypatch.setattr(gtl.prior, name, counting(name, getattr(gtl.prior, name)))
        # d = 1 reaches a and b, d = 2 also c; d is isolated
        g = LabeledGraph(["a", "b", "c", "d"], [("e1", "a", "b"), ("e2", "b", "c")])
        prior = three_bin_prior(g, 3, np.random.default_rng(11), {"e1": 1.0, "e2": 2.0})
        formulas = [instantiate(parse(text), dict(zip("aciNd", val))) for val in valuations]
        reports = gtl.prior._info_gains(prior, formulas)
        assert calls == {"to_dfa": n_skeletons, "_letters": n_letter_calls}
        for f, rep in zip(formulas, reports):
            assert rep.probabilities == probabilities_one_by_one(prior, f, list(g.nodes)), str(f)


class TestClippedBounds:
    """Words have length L, so the prior route lowers every time bound
    above L to L before it builds an automaton."""

    SHAPES = ["F[<=?b] x >= 1", "G[<=?b] x <= 1.2", "x <= 1.5 U[<=?b] x >= 0.8",
              "F[>=?b] x >= 1", "G[>=?b] x <= 1.2",
              "G (x >= 1 -> F[<=?b] E 1 via (y <= 1) : x <= 0.5)",
              "E 1 via (y <= 1) : F[<=?b] x >= 0.8"]

    @pytest.mark.parametrize("seed", range(4))
    def test_bounds_past_the_horizon_equal_the_horizon(self, seed):
        rng = np.random.default_rng(700 + seed)
        g = LabeledGraph(["a", "b"], [("e1", "a", "b")])
        prior = two_bin_prior(g, int(rng.integers(1, 4)), rng_np=rng)
        for text in self.SHAPES:
            at_L = compute_ig(prior, instantiate(parse(text), {"b": prior.L})).probabilities
            past = instantiate(parse(text), {"b": prior.L + 1})
            assert at_L == pytest.approx(prob_oracle_all(prior, past), abs=1e-12), text
            for b in range(prior.L + 1, prior.L + 6):
                f = instantiate(parse(text), {"b": b})
                assert compute_ig(prior, f).probabilities == at_L, (text, b)
                assert probabilities_one_by_one(prior, f, list(g.nodes)) == \
                    pytest.approx(at_L, abs=1e-12), (text, b)

    def test_long_bound_builds_a_small_automaton(self, monkeypatch):
        built = []

        def recording_to_dfa(f):
            out = to_dfa(f)
            built.append(out[0].n_states)
            return out

        monkeypatch.setattr(gtl.prior, "to_dfa", recording_to_dfa)
        prior = two_bin_prior(LabeledGraph(["a"], []), 4, rng_np=np.random.default_rng(1))
        rep = compute_ig(prior, parse("F[<=3000] x <= 1"))
        assert rep.probabilities == compute_ig(prior, parse("F[<=4] x <= 1")).probabilities
        assert built[0] == built[1] < 10
        unclipped, _ = to_dfa(parse("F[<=30] x <= 1"))  # to_dfa keeps its bounds
        assert unclipped.n_states > 30

    def test_four_sibling_bounds_at_a_ten_step_horizon(self):
        # clipped to [<=10], the four bounds give a monitor of 12^4 states
        rng = np.random.default_rng(5)
        L, bins = 10, tuple((float(k), float(k + 1)) for k in range(5))
        pmf = rng.dirichlet(np.ones(5), size=L)
        prior = PriorModel(LabeledGraph(["a"], []), L, bins, {"a": pmf}, {})
        f = parse("F[<=50] x <= 1 & F[<=50] x >= 3 & F[<=50] x <= 2 & F[<=50] x >= 4")
        hits = [{0}, {3, 4}, {0, 1}, {4}]  # the bins where each atom holds
        want = 0.0  # inclusion-exclusion over the atoms never seen
        for never in itertools.product([False, True], repeat=4):
            barred = set().union(*(h for h, n in zip(hits, never) if n))
            miss = 1.0 - pmf[:, sorted(barred)].sum(axis=1)
            want += (-1) ** sum(never) * np.prod(miss)
        assert satisfaction_probability(prior, f, "a") == pytest.approx(want, abs=1e-12)


class TestInfoGain:
    def test_trivial_formulas_zero(self):
        prior = one_node_prior()
        assert compute_ig(prior, parse("TRUE")).average_ig == 0.0
        assert compute_ig(prior, parse("FALSE")).average_ig == 0.0
        # alternate spellings of truth are also detected after desugaring
        assert compute_ig(prior, parse("x <= 1 -> x <= 1")).info_gain == \
            {"a": 0.0}

    def test_spot_value(self):
        prior = one_node_prior(L=2)
        rep = compute_ig(prior, parse("F[<=1] x >= 1"))
        assert rep.average_ig == pytest.approx(-math.log(0.75) / 2, abs=1e-12)
        assert rep.probabilities["a"] == pytest.approx(0.75, abs=1e-12)
        assert rep.units == "nats per time step"

    @pytest.mark.parametrize("text, nodes", [
        ("G x >= 1", ["a"]),
        ("E 1 via (y <= 1) : G x >= 1", ["a", "b"]),  # type-II, safe body
    ])
    def test_safe_formula_keeps_its_small_probability(self, text, nodes):
        # P(x >= 1) = 0.1 at every step, so P = 1e-20 and IG = ln 10: far
        # below the 1e-16 that a complement 1 - P(not g) can resolve
        g = LabeledGraph(nodes, [("e1", "a", "b")] if len(nodes) == 2 else [])
        prior = PriorModel(g, 20, ((0.0, 1.0), (1.0, 2.0)), {}, dict.fromkeys(g.edges, 1.0),
                           default_pmf=np.array([0.9, 0.1]))
        rep = compute_ig(prior, parse(text))
        for v in nodes:
            assert rep.probabilities[v] == pytest.approx(1e-20, rel=1e-12), v
            assert rep.info_gain[v] == pytest.approx(math.log(10), rel=1e-12), v

    def test_probability_rounded_above_one_gains_zero(self, monkeypatch):
        # a P a few ulps above 1 would give an IG of about -1e-16
        monkeypatch.setattr(gtl.prior, "_probabilities",
                            lambda prior, formulas, nodes: [{"a": 1.0 + 2.2e-15}])
        rep = compute_ig(one_node_prior(), parse("G x <= 1.5"))
        assert rep.info_gain == {"a": 0.0}
        assert math.copysign(1.0, rep.average_ig) == 1.0

    def test_reported_probability_stays_in_unit_interval(self):
        # the ig-sweep benchmark's first swarm prior at run seed 0 (two
        # density bins, Laplace-smoothed counts over 10 training runs): the
        # recursion sums to P = 1 + 1.8e-15 at v11 before the clip
        sc = SwarmScenario(seed=2773201285)
        train = gen_swarm(sc, 10)
        g = train[0].graph
        low = sum((t.node_labels < 0.125).astype(float) for t in train)
        pmf = {v: np.stack([low[i] + 1, len(train) - low[i] + 1], axis=1) / (len(train) + 2)
               for i, v in enumerate(g.nodes)}
        el = sc.edge_labels(g)
        prior = PriorModel(g, sc.L, ((0.0, 0.125), (0.125, 1.0)), pmf,
                           {e: float(el[j, 0]) for j, e in enumerate(g.edges)})
        f = parse("F[>=2][<=8] E 2 via (y <= 1.5) : x <= 0.11")
        rep = compute_ig(prior, f)
        assert rep.probabilities["v11"] == 1.0 and rep.info_gain["v11"] == 0.0
        assert all(0.0 <= p <= 1.0 for p in rep.probabilities.values())
        assert satisfaction_probability(prior, f, "v11") == 1.0

    def test_zero_probability_zero_ig(self):
        prior = one_node_prior()
        rep = compute_ig(prior, parse("G x >= 5"))
        assert rep.probabilities["a"] == 0.0
        assert rep.info_gain["a"] == 0.0

    def test_node_subset(self, six_node):
        prior = two_bin_prior(
            six_node.graph, 2,
            edge_labels={e: six_node.edge_label(e, 1)
                         for e in six_node.graph.edges})
        rep = compute_ig(prior, parse("F x >= 1"), nodes=["v1", "v2"])
        assert set(rep.probabilities) == {"v1", "v2"}
        with pytest.raises(InputError):
            compute_ig(prior, parse("F x >= 1"), nodes=["zzz"])
