"""Data generation: prior sampling, the swarm scenario, planted datasets."""

import math

import numpy as np
import pytest

import gtl.datagen
import gtl.semantics
from gtl.errors import InfeasibleError, InputError, UsageError
from gtl.datagen import (
    SwarmScenario, gen_planted, gen_swarm, sample_prior, swarm_constraint,
)
from gtl.formula import parse, print_formula
from gtl.graph import GraphTemporalTrajectory, LabeledGraph
from gtl.prior import PriorModel
from gtl.semantics import sat_table

from conftest import two_bin_prior


def sample_prior_loop(prior, n, seed=None):
    """The per-(node, time) reference: one `choice` and one `uniform` call each."""
    rng = np.random.default_rng(seed)
    g = prior.graph
    L, B = prior.L, len(prior.bins)
    lo = np.array([b[0] for b in prior.bins])
    hi = np.array([b[1] for b in prior.bins])
    out = []
    for _ in range(n):
        nl = np.zeros((g.n_nodes, L))
        for i, v in enumerate(g.nodes):
            pmf = prior.node_pmf(v)
            for k in range(L):
                b = rng.choice(B, p=pmf[k] / pmf[k].sum())
                nl[i, k] = rng.uniform(lo[b], hi[b])
        out.append(nl)
    return out


def gen_swarm_loop(scenario, n):
    """The one-proposal-at-a-time reference: L `dirichlet` calls, a
    trajectory and a `sat_table` call per proposal.  Returns the
    trajectories and the number of proposals."""
    rng = np.random.default_rng(scenario.seed)
    g = scenario.graph()
    el = scenario.edge_labels(g)
    f = swarm_constraint()
    out = []
    proposals = 0
    while len(out) < n:
        if (proposals >= gtl.datagen._MAX_PROPOSALS
                and len(out) / proposals < gtl.datagen._RATE_FLOOR):
            raise InfeasibleError(
                f"swarm acceptance rate {len(out)}/{proposals} fell below "
                f"{gtl.datagen._RATE_FLOOR:%} — constraint too tight for the proposal"
            )
        proposals += 1
        nl = np.zeros((g.n_nodes, scenario.L))
        x = rng.dirichlet([scenario.alpha] * g.n_nodes)
        nl[:, 0] = x
        for k in range(1, scenario.L):
            fresh = rng.dirichlet([scenario.alpha] * g.n_nodes)
            x = scenario.smoothing * x + (1 - scenario.smoothing) * fresh
            x = x / x.sum()
            nl[:, k] = x
        traj = GraphTemporalTrajectory(g, nl, el.copy())
        if sat_table(traj, f)[:, 0].all():
            out.append(traj)
    return out, proposals


def gen_planted_loop(separator, prior, n_pos, n_neg, seed=None, node_frac=0.95):
    """The one-proposal-at-a-time reference: a `sample_prior` call from a
    seed of its own and a `sat_table` call per proposal.  Returns the
    labeled trajectories and the number of proposals."""
    rng = np.random.default_rng(seed)
    pos, neg = [], []
    proposals = 0
    stalled = 0
    while len(pos) < n_pos or len(neg) < n_neg:
        if stalled >= gtl.datagen._STALL_LIMIT or proposals >= gtl.datagen._MAX_PROPOSALS:
            raise InfeasibleError(
                f"planted acceptance stalled after {proposals} proposals "
                f"({len(pos)}/{n_pos} positive, {len(neg)}/{n_neg} negative) — "
                "the separator splits the prior too unevenly"
            )
        proposals += 1
        stalled += 1
        traj = sample_prior(prior, 1, seed=rng.integers(2 ** 63))[0]
        frac = float(sat_table(traj, separator)[:, 0].mean())
        if frac >= node_frac and len(pos) < n_pos:
            pos.append(GraphTemporalTrajectory(
                traj.graph, traj.node_labels, traj.edge_labels, label=1))
            stalled = 0
        elif frac <= 1 - node_frac and len(neg) < n_neg:
            neg.append(GraphTemporalTrajectory(
                traj.graph, traj.node_labels, traj.edge_labels, label=-1))
            stalled = 0
    return pos + neg, proposals


def assert_same_outcome(block_call, loop_call):
    """Both calls return equal trajectories, or raise the same error."""
    try:
        want, _ = loop_call()
    except (InfeasibleError, UsageError) as exc:
        with pytest.raises(type(exc)) as got:
            block_call()
        assert str(got.value) == str(exc)
        return
    got = block_call()
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.node_labels, b.node_labels)
        assert np.array_equal(a.edge_labels, b.edge_labels)
        assert a.label == b.label


def six_node_prior():
    """A complete graph of six nodes, L = 3, two equally likely bins, and
    static edge labels 3 and 1 in turn, so a (y <= 2) hop skips some edges."""
    g = LabeledGraph.complete([f"n{i}" for i in range(6)])
    return PriorModel(g, 3, ((0.0, 0.9), (1.1, 2.0)),
                      {v: np.tile([0.5, 0.5], (3, 1)) for v in g.nodes},
                      {e: 3.0 if i % 2 == 0 else 1.0 for i, e in enumerate(g.edges)})


CHAIN_SEPARATORS = (
    "E 2 via (y <= 2) : x >= 1",
    "E 1 via (y <= 2) via (y <= 2) : F x <= 0.9 & E 1 via (y <= 2) : x >= 1",
)
SEEDS = range(20)


class TestBlocksEqualLoop:
    """The block samplers against the one-proposal-at-a-time loops."""

    @pytest.mark.parametrize("text", CHAIN_SEPARATORS)
    def test_planted_neighbor_chain(self, text):
        prior, sep = six_node_prior(), parse(text)
        for seed in SEEDS:
            assert_same_outcome(lambda: gen_planted(sep, prior, 3, 3, seed=seed),
                                lambda: gen_planted_loop(sep, prior, 3, 3, seed=seed))

    def test_planted_zero_edge_one_node_graph(self):
        prior = two_bin_prior(LabeledGraph(["a"], []), 3)
        sep = parse("x >= 1.5 | E 1 via (y <= 1) : x >= 1")
        for seed in SEEDS:
            assert_same_outcome(lambda: gen_planted(sep, prior, 2, 2, seed=seed),
                                lambda: gen_planted_loop(sep, prior, 2, 2, seed=seed))

    def test_planted_stall(self, monkeypatch):
        # the stall limit spans three blocks; the message names the proposal count
        monkeypatch.setattr(gtl.datagen, "_STALL_LIMIT", 150)
        prior = two_bin_prior(LabeledGraph(["a"], []), 1)
        for seed in SEEDS:
            assert_same_outcome(lambda: gen_planted(parse("TRUE"), prior, 1, 1, seed=seed),
                                lambda: gen_planted_loop(parse("TRUE"), prior, 1, 1, seed=seed))

    def test_planted_proposal_cap(self, monkeypatch):
        monkeypatch.setattr(gtl.datagen, "_MAX_PROPOSALS", 100)
        prior, sep = six_node_prior(), parse("F E 4 via (y <= 2) : x >= 1")
        for seed in SEEDS:
            assert_same_outcome(lambda: gen_planted(sep, prior, 3, 3, seed=seed),
                                lambda: gen_planted_loop(sep, prior, 3, 3, seed=seed))

    def test_planted_free_parameter(self):
        prior, sep = six_node_prior(), parse("E 2 via (y <= 2) : x >= ?c")
        for seed in SEEDS:
            assert_same_outcome(lambda: gen_planted(sep, prior, 1, 1, seed=seed),
                                lambda: gen_planted_loop(sep, prior, 1, 1, seed=seed))

    @pytest.mark.parametrize("rows, cols, L, n", [(3, 3, 6, 3), (2, 2, 4, 1)])
    def test_swarm(self, rows, cols, L, n):
        # nine nodes take the per-row density sum past numpy's 8-element
        # pairwise block; the 2 x 2 scenario rejects for several blocks
        for seed in SEEDS:
            sc = SwarmScenario(rows=rows, cols=cols, L=L, seed=seed)
            assert_same_outcome(lambda: gen_swarm(sc, n), lambda: gen_swarm_loop(sc, n))

    def test_swarm_rate_floor(self, monkeypatch):
        monkeypatch.setattr(gtl.datagen, "_MAX_PROPOSALS", 100)
        monkeypatch.setattr(gtl.datagen, "_RATE_FLOOR", 0.5)
        for seed in SEEDS:
            sc = SwarmScenario(rows=2, cols=2, L=4, seed=seed)
            assert_same_outcome(lambda: gen_swarm(sc, 5), lambda: gen_swarm_loop(sc, 5))


class TestOneQueryPerBlock:
    @pytest.mark.parametrize("which", ["planted", "swarm"])
    def test_counts(self, monkeypatch, which):
        # each chain is walked once per call, each block is one query, and
        # only accepted proposals become trajectories
        calls = {"reach": [], "tables": 0, "trajectories": 0}

        def counting_reach(graph, edge_labels, chain):
            calls["reach"].append(tuple(chain))
            return gtl.graph.reach(graph, edge_labels, chain)

        def counting_tables(self, g, values):
            calls["tables"] += 1
            return tables(self, g, values)

        def counting_trajectory(*args, **kwargs):
            calls["trajectories"] += 1
            return GraphTemporalTrajectory(*args, **kwargs)

        if which == "planted":
            prior, sep = six_node_prior(), parse(CHAIN_SEPARATORS[1])
            want, proposals = gen_planted_loop(sep, prior, 4, 4, seed=3)
            run = lambda: gen_planted(sep, prior, 4, 4, seed=3)  # noqa: E731
            chains = {sep.left.chain, sep.right.chain}
        else:
            sc = SwarmScenario(rows=2, cols=2, L=4, seed=3)
            want, proposals = gen_swarm_loop(sc, 2)
            run = lambda: gen_swarm(sc, 2)  # noqa: E731
            chains = {swarm_constraint().sub.right.sub.chain}
        tables = gtl.semantics._Evaluator.tables
        monkeypatch.setattr(gtl.semantics, "reach", counting_reach)
        monkeypatch.setattr(gtl.semantics._Evaluator, "tables", counting_tables)
        monkeypatch.setattr(gtl.datagen, "GraphTemporalTrajectory", counting_trajectory)
        got = run()
        assert len(got) == len(want)
        assert proposals > gtl.datagen._BLOCK  # more than one block
        assert len(calls["reach"]) == len(chains) and set(calls["reach"]) == chains
        assert calls["tables"] == math.ceil(proposals / gtl.datagen._BLOCK)
        assert calls["trajectories"] == len(got)


class TestSamplePrior:
    @pytest.mark.parametrize("bins", [2, 3, 9, 13])
    def test_equals_loop_reference(self, bins):
        # 9 and 13 bins take numpy's pairwise summation past its 8-element block
        rng = np.random.default_rng(bins)
        g = LabeledGraph.complete(["a", "b", "c", "d"])
        pmf = {}
        for v in g.nodes[1:]:  # node "a" takes default_pmf
            p = rng.random((4, bins)) * (rng.random((4, bins)) > 0.3)
            p[:, 0] += 0.01
            pmf[v] = p / p.sum(axis=1, keepdims=True)
        default = rng.dirichlet([1.0] * bins)
        prior = PriorModel(g, 4, tuple((float(i), i + 0.7) for i in range(bins)),
                           pmf, {e: 1.0 for e in g.edges}, default_pmf=default)
        for seed in range(8):
            got = [t.node_labels for t in sample_prior(prior, 3, seed=seed)]
            want = sample_prior_loop(prior, 3, seed=seed)
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))

    def test_planted_prior_equals_loop_reference(self):
        g = LabeledGraph.complete([f"n{i}" for i in range(20)])
        prior = PriorModel(g, 2, ((0.0, 0.9), (1.1, 2.0)),
                           {v: np.tile([0.5, 0.5], (2, 1)) for v in g.nodes},
                           {e: 1.0 for e in g.edges})
        for seed in range(5):
            got = [t.node_labels for t in sample_prior(prior, 2, seed=seed)]
            assert all(np.array_equal(a, b) for a, b in
                       zip(got, sample_prior_loop(prior, 2, seed=seed), strict=True))

    def test_point_mass_bin(self):
        g = LabeledGraph(["a"], [])
        prior = PriorModel(g, 2, ((0.0, 1.0), (1.0, 2.0)),
                           {"a": np.tile([0.0, 1.0], (2, 1))}, {})
        for t in sample_prior(prior, 5, seed=0):
            assert (t.node_labels >= 1.0).all()
            assert (t.node_labels <= 2.0).all()

    def test_empirical_frequencies(self):
        g = LabeledGraph(["a"], [])
        prior = two_bin_prior(g, 1)
        trajs = sample_prior(prior, 2000, seed=1)
        frac = np.mean([t.node_labels[0, 0] < 1.0 for t in trajs])
        # binomial(2000, 0.5): 4 sigma is about 0.045
        assert abs(frac - 0.5) < 0.05

    def test_n_zero_and_determinism(self):
        g = LabeledGraph(["a"], [])
        prior = two_bin_prior(g, 1)
        assert sample_prior(prior, 0, seed=0) == []
        a = sample_prior(prior, 3, seed=42)
        b = sample_prior(prior, 3, seed=42)
        assert all(np.array_equal(x.node_labels, y.node_labels)
                   for x, y in zip(a, b))
        with pytest.raises(InputError):
            sample_prior(prior, -1)


class TestSwarmScenario:
    def test_graph_shape(self):
        sc = SwarmScenario()
        g = sc.graph()
        assert g.n_nodes == 9 and g.n_edges == 36
        el = sc.edge_labels(g)
        assert el.shape == (36, sc.L)
        # grid neighbors sit at distance 1, the far corners at 2 sqrt 2
        assert el.min() == pytest.approx(1.0)
        assert el.max() == pytest.approx(np.sqrt(8))

    def test_constraint_shape(self):
        f = swarm_constraint()
        text = print_formula(f)
        assert text.startswith("G (x >= 0.125 ->")
        assert "E 1 via (y <= 1)" in text

    def test_gen_swarm_self_check(self):
        sc = SwarmScenario(L=6, seed=3)
        trajs = gen_swarm(sc, 4)
        f = swarm_constraint()
        assert len(trajs) == 4
        for t in trajs:
            assert sat_table(t, f)[:, 0].all()
            # densities stay a distribution at every step
            assert np.allclose(t.node_labels.sum(axis=0), 1.0)

    def test_gen_swarm_deterministic(self):
        sc = SwarmScenario(L=4, seed=5)
        a = gen_swarm(sc, 2)
        b = gen_swarm(sc, 2)
        assert all(np.array_equal(x.node_labels, y.node_labels)
                   for x, y in zip(a, b))

    @pytest.mark.parametrize("field", ["rows", "cols"])
    def test_grid_above_ten_rejected(self, field):
        # node ids v{r}{c} would collide: (1, 10) and (11, 0) both give v110
        with pytest.raises(InputError, match=f"{field} must be <= 10, got 11"):
            SwarmScenario(**{field: 11})
        g = SwarmScenario(rows=10, cols=10).graph()
        assert g.n_nodes == 100 and len(set(g.nodes)) == 100

    def test_validation(self):
        with pytest.raises(InputError, match="n must be >= 0"):
            gen_swarm(SwarmScenario(), -3)
        with pytest.raises(InputError):
            SwarmScenario(rows=0)
        with pytest.raises(InputError):
            SwarmScenario(smoothing=1.0)

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.5), ("seed", True), ("rows", 2.5), ("cols", True),
        ("L", 0), ("alpha", 0.0), ("alpha", -1.0), ("alpha", math.nan), ("alpha", math.inf)])
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(InputError, match=field):
            SwarmScenario(**{field: value})


class TestGenPlanted:
    def test_labels_and_margin(self):
        g = LabeledGraph.complete(["a", "b", "c", "d"])
        prior = two_bin_prior(g, 2)
        sep = parse("F x >= 1")
        data = gen_planted(sep, prior, 5, 5, seed=0)
        assert [t.label for t in data] == [1] * 5 + [-1] * 5
        for t in data:
            frac = sat_table(t, sep)[:, 0].mean()
            assert frac >= 0.95 if t.label == 1 else frac <= 0.05

    def test_ungenerable_class_aborts(self):
        g = LabeledGraph(["a"], [])
        prior = two_bin_prior(g, 1)
        with pytest.raises(InfeasibleError):
            gen_planted(parse("TRUE"), prior, 1, 1, seed=0)

    @pytest.mark.parametrize("n_pos, n_neg", [(-1, 1), (1, -1), (1.5, 1), (True, 1), (1, 2.0)])
    def test_negative_count_rejected(self, n_pos, n_neg):
        prior = two_bin_prior(LabeledGraph(["a"], []), 1)
        with pytest.raises(InputError, match="n_pos and n_neg must be >= 0"):
            gen_planted(parse("F x >= 1"), prior, n_pos, n_neg, seed=0)
        assert gen_planted(parse("x >= ?c"), prior, 0, 0, seed=0) == []


class TestIntegerInputs:
    @pytest.mark.parametrize("seed", [-1, 2.0, True])
    def test_bad_seed_rejected(self, seed):
        prior = two_bin_prior(LabeledGraph(["a"], []), 1)
        with pytest.raises(InputError, match="seed must be >= 0 and an integer"):
            sample_prior(prior, 1, seed=seed)
        with pytest.raises(InputError, match="seed must be >= 0 and an integer"):
            gen_planted(parse("F x >= 1"), prior, 1, 1, seed=seed)

    def test_fractional_count_rejected(self):
        prior = two_bin_prior(LabeledGraph(["a"], []), 1)
        with pytest.raises(InputError, match="n must be >= 0 and an integer"):
            sample_prior(prior, 2.5)
        with pytest.raises(InputError, match="n must be >= 0 and an integer"):
            gen_swarm(SwarmScenario(), 2.5)

    @pytest.mark.parametrize("seed", [None, 0, np.int64(3), np.uint32(2 ** 32 - 1)])
    def test_none_and_numpy_integers_accepted(self, seed):
        prior = two_bin_prior(LabeledGraph(["a"], []), 1)
        assert len(sample_prior(prior, 2, seed=seed)) == 2
        assert SwarmScenario(seed=seed).seed is seed
