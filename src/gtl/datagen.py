"""Synthetic trajectory generators: prior sampling, the swarm-density
scenario, and planted two-class datasets.

All generators are deterministic per seed and re-verify their own output
through the evaluation module, so anything they return satisfies the
advertised property by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InputError
from .formula import Always, Atom, Bound, EdgeAtom, Exists, Implies
from .graph import GraphTemporalTrajectory, LabeledGraph
from .prior import PriorModel
from .semantics import sat_vector

_MAX_PROPOSALS = 10 ** 6
_RATE_FLOOR = 1e-3
_STALL_LIMIT = 10_000  # proposals without an accept before giving up


def sample_prior(prior: PriorModel, n: int, seed=None) -> list:
    """n independent trajectories: bin per pmf, uniform within the bin.

    Each (trajectory, node, time) takes two doubles in turn, one for the bin
    and one for the value, and the bin is found the way `Generator.choice`
    finds it (the count of the normalized cdf at or below the draw), so the
    samples are those of one `choice` and one `uniform` call per entry.
    """
    if n < 0:
        raise InputError("n must be >= 0")
    rng = np.random.default_rng(seed)
    g = prior.graph
    L, B = prior.L, len(prior.bins)
    lo = np.array([b[0] for b in prior.bins])
    hi = np.array([b[1] for b in prior.bins])
    edge = np.array([[prior.static_edge_labels[e]] * L for e in g.edges],
                    dtype=float).reshape(g.n_edges, L)
    pmf = np.array([prior.node_pmf(v) for v in g.nodes]).reshape(g.n_nodes, L, B)
    cdf = np.cumsum(pmf / pmf.sum(axis=-1, keepdims=True), axis=-1)
    cdf /= cdf[..., -1:]
    u = rng.random((n, g.n_nodes, L, 2))
    b = np.count_nonzero(cdf <= u[..., :1], axis=-1)
    nl = lo[b] + (hi[b] - lo[b]) * u[..., 1]
    return [GraphTemporalTrajectory(g, nl[i], edge.copy()) for i in range(n)]


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
        if self.rows < 1 or self.cols < 1 or self.L < 1:
            raise InputError("scenario dimensions must be positive")
        if not 0 <= self.smoothing < 1:
            raise InputError("smoothing must be in [0, 1)")

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
    rng = np.random.default_rng(scenario.seed)
    g = scenario.graph()
    el = scenario.edge_labels(g)
    f = swarm_constraint()
    out = []
    proposals = 0
    while len(out) < n:
        if proposals >= _MAX_PROPOSALS and len(out) / proposals < _RATE_FLOOR:
            raise InfeasibleError(
                f"swarm acceptance rate {len(out)}/{proposals} fell below "
                f"{_RATE_FLOOR:%} — constraint too tight for the proposal"
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
        if sat_vector(traj, f).all():
            out.append(traj)
    return out


# ---------------------------------------------------------------------------
# planted classification data

def gen_planted(separator, prior: PriorModel, n_pos: int, n_neg: int,
                seed=None, node_frac: float = 0.95) -> list:
    """Labeled dataset where the separator votes +1 on at least node_frac of
    the nodes of every +1 trajectory and -1 on at least node_frac of every
    -1 trajectory, so its misclassification rate is at most 1 - node_frac."""
    rng = np.random.default_rng(seed)
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
        traj = sample_prior(prior, 1, seed=rng.integers(2 ** 63))[0]
        frac = float(sat_vector(traj, separator).mean())
        if frac >= node_frac and len(pos) < n_pos:
            pos.append(GraphTemporalTrajectory(
                traj.graph, traj.node_labels, traj.edge_labels, label=1))
            stalled = 0
        elif frac <= 1 - node_frac and len(neg) < n_neg:
            neg.append(GraphTemporalTrajectory(
                traj.graph, traj.node_labels, traj.edge_labels, label=-1))
            stalled = 0
    return pos + neg
