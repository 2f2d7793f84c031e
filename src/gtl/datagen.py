"""Synthetic trajectory generators: prior sampling, the swarm-density
scenario, and planted two-class datasets.

All generators are deterministic per seed and re-verify their own output
through the evaluation module, so anything they return satisfies the
advertised property by construction.

The rejection samplers `gen_swarm` and `gen_planted` draw proposals in
blocks of `_BLOCK` and check each block with one evaluator query on the
static edge labels that all proposals share, so each neighbor chain is
walked once per call.  Proposals are still taken in order, under the same
checks and from the same per-proposal draws, so the output is draw for
draw that of a one-proposal-at-a-time loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InputError
from .formula import Always, Atom, Bound, EdgeAtom, Exists, Implies, _check_int
from .graph import GraphTemporalTrajectory, LabeledGraph
from .prior import PriorModel
from .semantics import _Evaluator, _ground

_MAX_PROPOSALS = 10 ** 6
_RATE_FLOOR = 1e-3
_STALL_LIMIT = 10_000  # proposals without an accept before giving up
_BLOCK = 64  # proposals drawn and checked per evaluator query
_NODE_FRAC = 0.95  # least share of a planted trajectory's nodes that vote its label


def _check_seed(seed):
    """A generator seed is None or a non-negative integer."""
    if seed is not None:
        _check_int("seed", seed, 0)


def _prior_sampler(prior: PriorModel):
    """The prior's static (|E|, L) edge block, and the map from uniform draws
    u, (..., |V|, L, 2), to node labels, (..., |V|, L).

    Each (node, time) entry takes its two doubles in turn, one for the bin
    and one for the value, and the bin is found the way `Generator.choice`
    finds it (the count of the normalized cdf at or below the draw), so the
    labels are those of one `choice` and one `uniform` call per entry.
    """
    g = prior.graph
    L = prior.L
    lo = np.array([b[0] for b in prior.bins])
    hi = np.array([b[1] for b in prior.bins])
    edge = np.array([[prior.static_edge_labels[e]] * L for e in g.edges],
                    dtype=float).reshape(g.n_edges, L)
    pmf = prior.masses
    cdf = np.cumsum(pmf / pmf.sum(axis=-1, keepdims=True), axis=-1)
    cdf /= cdf[..., -1:]

    def labels(u):
        b = np.count_nonzero(cdf <= u[..., :1], axis=-1)
        return lo[b] + (hi[b] - lo[b]) * u[..., 1]

    return edge, labels


def sample_prior(prior: PriorModel, n: int, seed=None) -> list:
    """n independent trajectories: bin per pmf, uniform within the bin."""
    _check_int("n", n, 0)
    _check_seed(seed)
    g = prior.graph
    edge, labels = _prior_sampler(prior)
    nl = labels(np.random.default_rng(seed).random((n, g.n_nodes, prior.L, 2)))
    return [GraphTemporalTrajectory(g, nl[i], edge.copy()) for i in range(n)]


def _checked_proposals(graph: LabeledGraph, edge, f, propose):
    """Proposals in order, each as (node labels, truth of f per node at time 1).

    propose(k) draws the node labels of the next k proposals, (k, |V|, L),
    which share the (|E|, L) edge labels `edge`; each block is checked with
    one query of one evaluator.  A proposal's labels are a view into its
    block, so a kept one is copied.  A free parameter in f is a usage error
    at the first proposal.
    """
    g = _ground(f)
    evaluator = _Evaluator(graph, None, edge)
    while True:
        evaluator.x = propose(_BLOCK)
        yield from zip(evaluator.x, evaluator.tables(g, {})[..., 0])


# ---------------------------------------------------------------------------
# swarm-density scenario

@dataclass(frozen=True)
class SwarmScenario:
    """Complete graph over a rows x cols grid of subregions; edge labels are
    Euclidean distances between cell centroids (unit spacing); node labels
    are densities summing to 1 at every time."""

    rows: int = 3
    cols: int = 3
    L: int = 12
    seed: int = 0
    smoothing: float = 0.85  # weight on the previous step in proposals
    alpha: float = 2.0  # Dirichlet concentration of proposals

    def __post_init__(self):
        for name in ("rows", "cols", "L"):
            _check_int(name, getattr(self, name), 1)
        for name in ("rows", "cols"):  # node ids v{r}{c} are distinct up to 10 x 10
            if getattr(self, name) > 10:
                raise InputError(f"{name} must be <= 10, got {getattr(self, name)}")
        _check_seed(self.seed)
        if not 0 <= self.smoothing < 1:
            raise InputError("smoothing must be in [0, 1)")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise InputError(f"alpha must be finite and > 0, got {self.alpha}")

    def graph(self) -> LabeledGraph:
        names = [f"v{r}{c}" for r in range(self.rows) for c in range(self.cols)]
        return LabeledGraph.complete(names)

    def edge_labels(self, graph: LabeledGraph) -> np.ndarray:
        pos = {f"v{r}{c}": (r, c)
               for r in range(self.rows) for c in range(self.cols)}
        el = np.zeros((graph.n_edges, self.L))
        for j, e in enumerate(graph.edges):
            a, b = graph.endpoints[e]
            el[j, :] = math.dist(pos[a], pos[b])
        return el


def swarm_constraint():
    """Whenever a subregion's density reaches 1/8, some subregion within
    distance 1 stays reachable with density at most 1/9 for the next 2 steps."""
    trigger = Atom(">=", 1.0 / 8.0)
    relief = Exists(1, (EdgeAtom("<=", 1.0),), Atom("<=", 1.0 / 9.0))
    return Always(Implies(trigger, Always(relief, Bound(None, 2))))


def gen_swarm(scenario: SwarmScenario, n: int) -> list:
    """n density trajectories each satisfying the swarm constraint at every node."""
    _check_int("n", n, 0)
    rng = np.random.default_rng(scenario.seed)
    g = scenario.graph()
    el = scenario.edge_labels(g)
    alpha, s, L = [scenario.alpha] * g.n_nodes, scenario.smoothing, scenario.L

    def propose(k):
        draws = rng.dirichlet(alpha, size=(k, L))  # the L draws of each proposal in turn
        nl = np.empty((k, g.n_nodes, L))
        x = draws[:, 0]
        nl[:, :, 0] = x
        for t in range(1, L):
            x = s * x + (1 - s) * draws[:, t]
            x = x / x.sum(axis=-1, keepdims=True)  # contiguous rows, each summed as a (|V|,) array
            nl[:, :, t] = x
        return nl

    checked = _checked_proposals(g, el, swarm_constraint(), propose)
    out = []
    proposals = 0
    while len(out) < n:
        if proposals >= _MAX_PROPOSALS and len(out) / proposals < _RATE_FLOOR:
            raise InfeasibleError(
                f"swarm acceptance rate {len(out)}/{proposals} fell below "
                f"{_RATE_FLOOR:%} — constraint too tight for the proposal"
            )
        proposals += 1
        nl, holds = next(checked)
        if holds.all():
            out.append(GraphTemporalTrajectory(g, nl.copy(), el))
    return out


# ---------------------------------------------------------------------------
# planted classification data

def gen_planted(separator, prior: PriorModel, n_pos: int, n_neg: int,
                seed=None) -> list:
    """Labeled dataset where the separator votes +1 on at least 95% of the
    nodes of every +1 trajectory and -1 on at least 95% of every -1
    trajectory, so its misclassification rate is at most 0.05."""
    for n in (n_pos, n_neg):
        _check_int("n_pos and n_neg", n, 0)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    g = prior.graph
    edge, labels = _prior_sampler(prior)
    shape = (g.n_nodes, prior.L, 2)

    def propose(k):  # each proposal samples the prior from a seed of its own
        return labels(np.array([np.random.default_rng(rng.integers(2 ** 63)).random(shape)
                                for _ in range(k)]))

    checked = _checked_proposals(g, edge, separator, propose)
    pos, neg = [], []
    proposals = 0
    stalled = 0  # proposals since the last accept into a class still needed
    while len(pos) < n_pos or len(neg) < n_neg:
        if stalled >= _STALL_LIMIT or proposals >= _MAX_PROPOSALS:
            raise InfeasibleError(
                f"planted acceptance stalled after {proposals} proposals "
                f"({len(pos)}/{n_pos} positive, {len(neg)}/{n_neg} negative) — "
                "the separator splits the prior too unevenly"
            )
        proposals += 1
        stalled += 1
        nl, votes = next(checked)
        frac = np.count_nonzero(votes) / g.n_nodes
        if frac >= _NODE_FRAC and len(pos) < n_pos:
            pos.append(GraphTemporalTrajectory(g, nl.copy(), edge, label=1))
            stalled = 0
        elif frac <= 1 - _NODE_FRAC and len(neg) < n_neg:
            neg.append(GraphTemporalTrajectory(g, nl.copy(), edge, label=-1))
            stalled = 0
    return pos + neg
