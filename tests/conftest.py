"""Shared fixtures and independent brute-force oracles.

The oracles re-derive satisfaction, satisfaction probability and joint
letter distributions from first principles (set recursion over indices;
exhaustive enumeration of bin trajectories or of one time step's cells)
without touching the table evaluator, the DFA machinery or the letter DP,
so agreement is meaningful.
"""

import itertools
import random

import numpy as np
import pytest

from gtl.formula import (
    Always, And, Atom, Bound, EdgeAtom, Eventually, Exists, FalseF, Implies,
    Not, Or, TrueF, Until, parse,
)
from gtl.graph import GraphTemporalTrajectory, LabeledGraph
from gtl.prior import PriorModel, _letter_table, _letters, _reach_rows


@pytest.fixture
def six_node():
    """Six-node fixture with hand-checked neighbor operations:
    pi=(x<=0) holds at {v3, v6}; rho=(y>=2) holds
    at {e1, e4, e6, e8}; one y<=1 hop from v4 reaches {v1, v5} and two hops
    reach {v2, v4}; E2 via (y<=1): x>=1 holds exactly at {v4, v5}."""
    g = LabeledGraph(
        ["v1", "v2", "v3", "v4", "v5", "v6"],
        [
            ("e1", "v1", "v3"), ("e2", "v1", "v4"), ("e3", "v4", "v5"),
            ("e4", "v4", "v6"), ("e5", "v1", "v2"), ("e6", "v3", "v6"),
            ("e7", "v2", "v5"), ("e8", "v2", "v6"),
        ],
    )
    x = np.array([[1.0], [2.0], [0.0], [1.0], [3.0], [-1.0]])
    y = np.array([[2.0], [1.0], [1.0], [2.0], [1.8], [3.0], [1.0], [2.0]])
    return GraphTemporalTrajectory(g, x, y)


@pytest.fixture
def path3():
    """Three-node path a - b - c with three time steps."""
    g = LabeledGraph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
    x = np.array([[0.1, 0.9, 0.4], [0.8, 0.2, 0.6], [0.5, 0.5, 0.5]])
    y = np.array([[1.0, 1.0, 2.0], [2.0, 1.0, 1.0]])
    return GraphTemporalTrajectory(g, x, y)


# ---------------------------------------------------------------------------
# satisfaction oracle: direct recursion over (node, time)

def neighbor_op(traj, sources, k, chain):
    """Nodes reachable from `sources` through the edge-atom chain at time k:
    a set walk over adjacency lists, one edge test at a time, the reference
    that `reach` is held to."""
    g = traj.graph
    adjacency = [[] for _ in g.nodes]
    for j, (a, b) in enumerate(g.edge_ends.tolist()):
        adjacency[a].append((j, b))
        adjacency[b].append((j, a))
    frontier = {g.index_of(v) for v in sources}
    y = traj.edge_labels[:, k - 1]
    for e in chain:
        frontier = {u for i in frontier for j, u in adjacency[i] if e.holds(y[j])}
    return {g.nodes[i] for i in frontier}


def sat_oracle(traj, f, v, k):
    L = traj.L
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Atom):
        x = traj.node_label(v, k)
        return x <= f.threshold if f.op == "<=" else x >= f.threshold
    if isinstance(f, Not):
        return not sat_oracle(traj, f.sub, v, k)
    if isinstance(f, And):
        return sat_oracle(traj, f.left, v, k) and sat_oracle(traj, f.right, v, k)
    if isinstance(f, Or):
        return sat_oracle(traj, f.left, v, k) or sat_oracle(traj, f.right, v, k)
    if isinstance(f, Implies):
        return (not sat_oracle(traj, f.left, v, k)) or sat_oracle(traj, f.right, v, k)
    if isinstance(f, Exists):
        reach = neighbor_op(traj, {v}, k, f.chain)
        hits = sum(1 for u in reach if sat_oracle(traj, f.body, u, k))
        return hits >= f.count
    if isinstance(f, (Eventually, Always, Until)):
        b = f.bound
        if b is not None and b.lo is not None and b.hi is not None:
            # a paired window is the conjunction of its single-sided halves
            halves = (Bound(b.lo, None), Bound(None, b.hi))
            if isinstance(f, Until):
                parts = [Until(f.left, f.right, h) for h in halves]
            else:
                parts = [type(f)(f.sub, h) for h in halves]
            return all(sat_oracle(traj, p, v, k) for p in parts)
        lo, hi = _window_oracle(L, k, b)
        if isinstance(f, Eventually):
            return any(sat_oracle(traj, f.sub, v, j) for j in range(lo, hi + 1))
        if isinstance(f, Always):
            return all(sat_oracle(traj, f.sub, v, j) for j in range(lo, hi + 1))
        for j in range(lo, hi + 1):
            if sat_oracle(traj, f.right, v, j) and all(
                    sat_oracle(traj, f.left, v, m) for m in range(k, j + 1)):
                return True
        return False
    raise TypeError(f)


def _window_oracle(L, k, bound):
    lo = k if bound is None or bound.lo is None else k + bound.lo
    hi = L if bound is None or bound.hi is None else min(k + bound.hi, L)
    return lo, hi


# ---------------------------------------------------------------------------
# probability oracle: exhaustive enumeration over refined-bin trajectories

def collect_thresholds(f):
    out = set()
    if isinstance(f, Atom):
        out.add(float(f.threshold))
    for attr in ("sub", "left", "right", "body"):
        g = getattr(f, attr, None)
        if g is not None:
            out |= collect_thresholds(g)
    return out


def refined_cells(prior, thresholds):
    """[(a, b, parent bin)]: the prior's bins cut at the thresholds inside them."""
    cells = []
    for lo, hi in prior.bins:
        cuts = [lo] + sorted(t for t in thresholds if lo < t < hi) + [hi]
        for a, b in zip(cuts, cuts[1:]):
            cells.append((a, b, (lo, hi)))
    return cells


def cell_mass(prior, u, k, cell):
    """Prior mass of node u's label landing in the cell at time k."""
    a, b, parent = cell
    p = prior.node_pmf(u)[k - 1][prior.bins.index(parent)]
    return p * (b - a) / (parent[1] - parent[0])


def prob_oracle_all(prior, f):
    """Per-node prior mass of all bin-cell trajectories satisfying f at time 1.

    Bins are refined at the formula's thresholds so each cell is constant."""
    cells = refined_cells(prior, collect_thresholds(f))
    g = prior.graph
    V, L = g.n_nodes, prior.L
    el = np.array([[prior.static_edge_labels[e]] * L for e in g.edges],
                  dtype=float).reshape(g.n_edges, L)
    totals = {v: 0.0 for v in g.nodes}
    for assign in itertools.product(range(len(cells)), repeat=V * L):
        mass = 1.0
        nl = np.zeros((V, L))
        for idx, c in enumerate(assign):
            u, k = divmod(idx, L)
            a, b, _ = cells[c]
            mass *= cell_mass(prior, g.nodes[u], k + 1, cells[c])
            nl[u, k] = 0.5 * (a + b)
        if mass == 0.0:
            continue
        traj = GraphTemporalTrajectory(g, nl, el)
        for v in g.nodes:
            if sat_oracle(traj, f, v, 1):
                totals[v] += mass
    return totals


def prob_oracle(prior, f, v):
    return prob_oracle_all(prior, f)[v]


def letter_oracle(prior, aps, v, k):
    """Joint distribution over the aps' bitmask letters at (v, k).

    Enumerates every refined-cell assignment of the nodes the aps touch; reach
    sets come from `neighbor_op` on the static edge labels and each letter bit
    from `sat_oracle`, so nothing of gtl.prior but the model itself is used."""
    g = prior.graph
    cells = refined_cells(prior, set().union(*map(collect_thresholds, aps)))
    el = np.array([[prior.static_edge_labels[e]] for e in g.edges],
                  dtype=float).reshape(g.n_edges, 1)
    probe = GraphTemporalTrajectory(g, np.zeros((g.n_nodes, 1)), el)
    involved = {v}
    for ap in aps:
        if isinstance(ap, Exists):
            involved |= neighbor_op(probe, {v}, 1, ap.chain)
    involved = sorted(involved)
    out = np.zeros(1 << len(aps))
    for assign in itertools.product(cells, repeat=len(involved)):
        mass = 1.0
        nl = np.zeros((g.n_nodes, 1))
        for u, cell in zip(involved, assign):
            mass *= cell_mass(prior, u, k, cell)
            nl[g.node_index[u], 0] = 0.5 * (cell[0] + cell[1])
        traj = GraphTemporalTrajectory(g, nl, el)
        out[sum(1 << i for i, ap in enumerate(aps) if sat_oracle(traj, ap, v, 1))] += mass
    return out


# ---------------------------------------------------------------------------
# one-row views of the prior's letter route, for tests that compare at (v, k)

def letter_distribution(prior, aps, v, k):
    """The joint letter distribution at (v, k): the letter DP of `_letters`
    on time k's cell masses alone."""
    [(masses, truth)], preds = _letter_table(prior, aps, {})
    return _letters([(masses[:, k - 1:k], truth)], preds, [prior.graph.index_of(v)])[0, 0]


def static_reach(prior, v, chain):
    """Nodes reachable from v through the chain under the static edge labels."""
    row = _reach_rows(prior, chain)[prior.graph.index_of(v)]
    return [prior.graph.nodes[u] for u in np.flatnonzero(row)]


# ---------------------------------------------------------------------------
# random formula generator (shared by differential tests)

def random_formula(rng, depth, allow_exists=True):
    if depth == 0:
        if allow_exists and rng.random() < 0.3:
            return Exists(rng.choice([1, 2]),
                          (EdgeAtom("<=", rng.choice([1.0, 2.0])),),
                          Atom(rng.choice(["<=", ">="]), rng.choice([0.3, 0.6])))
        return Atom(rng.choice(["<=", ">="]), rng.choice([0.2, 0.5, 0.8]))
    kind = rng.choice(["not", "and", "or", "impl", "F", "G", "U", "Fb", "Gb", "Ub"])
    a = random_formula(rng, depth - 1, allow_exists)
    b = random_formula(rng, depth - 1, allow_exists)
    if kind == "not":
        return Not(a)
    if kind == "and":
        return And(a, b)
    if kind == "or":
        return Or(a, b)
    if kind == "impl":
        return Implies(a, b)
    if kind == "F":
        return Eventually(a)
    if kind == "G":
        return Always(a)
    if kind == "U":
        return Until(a, b)
    lo = rng.choice([None, 0, 1, 2])
    hi = rng.choice([None, 1, 3])
    if lo is None and hi is None:
        lo = 1
    if lo is not None and hi is not None and hi < lo:
        lo, hi = hi, lo
        if lo == hi:
            hi = lo + 1
    bound = Bound(lo, hi)
    if kind == "Fb":
        return Eventually(a, bound)
    if kind == "Gb":
        return Always(a, bound)
    return Until(a, b, bound)


def random_graph(rng, n_nodes, p_edge):
    """Nodes n0.. with each possible edge present with probability p_edge."""
    nodes = [f"n{i}" for i in range(n_nodes)]
    edges = [(f"e{i}_{j}", nodes[i], nodes[j]) for i in range(n_nodes)
             for j in range(i + 1, n_nodes) if rng.random() < p_edge]
    return LabeledGraph(nodes, edges)


def random_trajectory(rng_np, g, L, edge_scale=3.0):
    return GraphTemporalTrajectory(
        g, rng_np.random((g.n_nodes, L)), rng_np.random((g.n_edges, L)) * edge_scale)


def two_bin_prior(g, L, rng_np=None, edge_labels=None):
    """Uniform or random two-bin prior on [0, 2]."""
    if edge_labels is None:
        edge_labels = {e: 1.0 for e in g.edges}
    if rng_np is None:
        pmf = {v: np.tile([0.5, 0.5], (L, 1)) for v in g.nodes}
    else:
        pmf = {v: rng_np.dirichlet([1.5, 1.5], size=L) for v in g.nodes}
    return PriorModel(g, L, ((0.0, 1.0), (1.0, 2.0)), pmf, edge_labels)


# ---------------------------------------------------------------------------
# knee oracle: the staircase enumerated from the maximal infeasible points

def knee_oracle(unsat_points):
    """Every candidate built from the maximal points' coordinates (plus 0)
    that lies under some maximal point and strictly under none; weakly
    dominated candidates and those with a coordinate at 1 are included."""
    pts = list(unsat_points)
    M = [p for p in pts if not any(q != p and all(a >= b for a, b in zip(q, p))
                                   for q in pts)]
    z = len(M[0])
    coords = [sorted({m[i] for m in M} | {0.0}) for i in range(z)]
    return [c for c in itertools.product(*coords)
            if any(all(a >= b for a, b in zip(m, c)) for m in M)
            and not any(all(a > b for a, b in zip(m, c)) for m in M)]
