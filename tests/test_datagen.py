"""Data generation: prior sampling, the swarm scenario, planted datasets."""

import numpy as np
import pytest

from gtl.errors import InfeasibleError, InputError
from gtl.datagen import (
    SwarmScenario, gen_planted, gen_swarm, sample_prior, swarm_constraint,
)
from gtl.formula import parse, print_formula
from gtl.graph import LabeledGraph
from gtl.prior import PriorModel
from gtl.semantics import sat_vector

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
            assert sat_vector(t, f).all()
            # densities stay a distribution at every step
            assert np.allclose(t.node_labels.sum(axis=0), 1.0)

    def test_gen_swarm_deterministic(self):
        sc = SwarmScenario(L=4, seed=5)
        a = gen_swarm(sc, 2)
        b = gen_swarm(sc, 2)
        assert all(np.array_equal(x.node_labels, y.node_labels)
                   for x, y in zip(a, b))

    def test_validation(self):
        with pytest.raises(InputError):
            SwarmScenario(rows=0)
        with pytest.raises(InputError):
            SwarmScenario(smoothing=1.0)


class TestGenPlanted:
    def test_labels_and_margin(self):
        g = LabeledGraph.complete(["a", "b", "c", "d"])
        prior = two_bin_prior(g, 2)
        sep = parse("F x >= 1")
        data = gen_planted(sep, prior, 5, 5, seed=0)
        assert [t.label for t in data] == [1] * 5 + [-1] * 5
        for t in data:
            frac = sat_vector(t, sep).mean()
            assert frac >= 0.95 if t.label == 1 else frac <= 0.05

    def test_ungenerable_class_aborts(self):
        g = LabeledGraph(["a"], [])
        prior = two_bin_prior(g, 1)
        with pytest.raises(InfeasibleError):
            gen_planted(parse("TRUE"), prior, 1, 1, seed=0)
