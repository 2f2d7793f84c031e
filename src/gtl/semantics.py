"""Finite-trace satisfaction semantics for GTL formulas.

Evaluation is table-based: for a trajectory and a parameter-free formula we
compute one |V| x L boolean table per subformula, memoized for the length of
one call and then dropped.
Temporal quantifiers range over future time indices clipped to [1, L]:
an unwitnessed co-safe obligation at the trace end is false, an unviolated
safe obligation is true.  Until requires the left operand to hold at the
witness index as well (inclusive interval).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InputError, UsageError
from .formula import (
    Always, And, Atom, Eventually, Exists, FalseF, Formula, Implies, Not, Or,
    TrueF, Until, desugar, is_ground,
)
from .graph import GraphTemporalTrajectory, reach


def sat_table(traj: GraphTemporalTrajectory, f: Formula) -> np.ndarray:
    """Boolean table T with T[v, k-1] iff (traj, v, k) |= f."""
    return next(_tables([traj], f))


def _tables(trajectories, f):
    """The table of f on each trajectory in turn.

    Groundness is checked and f desugared once per call; each table is
    evaluated with a memo of its own, so nothing outlives the call.
    """
    if not is_ground(f):
        raise UsageError("formula still has free parameters; instantiate it first")
    g = desugar(f)
    for traj in trajectories:
        yield _eval(traj, g, {})


def _eval(traj, f, cache):
    def rec(g):
        if g not in cache:
            cache[g] = _eval(traj, g, cache)
        return cache[g]

    V, L = traj.graph.n_nodes, traj.L
    if isinstance(f, TrueF):
        return np.ones((V, L), dtype=bool)
    if isinstance(f, FalseF):
        return np.zeros((V, L), dtype=bool)
    if isinstance(f, Atom):
        return f.prop().holds(traj.node_labels)
    if isinstance(f, Not):
        return ~rec(f.sub)
    if isinstance(f, And):
        return rec(f.left) & rec(f.right)
    if isinstance(f, Or):
        return rec(f.left) | rec(f.right)
    if isinstance(f, Implies):
        return ~rec(f.left) | rec(f.right)
    if isinstance(f, Exists):
        R = reach(traj.graph, traj.edge_labels, [e.prop() for e in f.chain])
        counts = (R & rec(f.body).T[:, None, :]).sum(axis=2)  # (L, V)
        return (counts >= f.count).T
    if isinstance(f, Eventually):
        return _eventually(rec(f.sub), f.bound)
    if isinstance(f, Always):
        return ~_eventually(~rec(f.sub), f.bound)
    if isinstance(f, Until):
        return _until(rec(f.left), rec(f.right), f.bound)
    raise TypeError(f"not a formula node: {f!r}")


def _window(L, k, bound):
    """Future indices (0-based, inclusive) the quantifier at time k ranges over."""
    lo = k if bound is None or bound.lo is None else k + bound.lo
    hi = L - 1 if bound is None or bound.hi is None else min(k + bound.hi, L - 1)
    return lo, hi


def _eventually(tab, bound):
    V, L = tab.shape
    out = np.zeros((V, L), dtype=bool)
    for k in range(L):
        lo, hi = _window(L, k, bound)
        if lo <= hi:
            out[:, k] = tab[:, lo : hi + 1].any(axis=1)
    return out


def _until(a, b, bound):
    V, L = a.shape
    # unbounded recursion: U[k] = a[k] & (b[k] | U[k+1])
    u = np.zeros((V, L), dtype=bool)
    u[:, L - 1] = a[:, L - 1] & b[:, L - 1]
    for k in range(L - 2, -1, -1):
        u[:, k] = a[:, k] & (b[:, k] | u[:, k + 1])
    if bound is None:
        return u
    out = np.zeros((V, L), dtype=bool)
    prefix_all = np.cumsum(~a, axis=1)  # count of !a in a[:, :k+1]
    for k in range(L):
        lo = k if bound.lo is None else k + bound.lo
        if bound.lo is not None:
            # a must hold on [k, lo-1] and the unbounded until must hold at lo
            if lo > L - 1:
                continue
            holds = prefix_all[:, lo - 1] - (prefix_all[:, k - 1] if k > 0 else 0) == 0 if lo > k else True
            out[:, k] = u[:, lo] & holds
        else:
            hi = min(k + bound.hi, L - 1)
            # witness k' in [k, hi] with b[k'] and a on [k, k']
            acc = np.zeros(V, dtype=bool)
            a_run = np.ones(V, dtype=bool)
            for kp in range(k, hi + 1):
                a_run &= a[:, kp]
                acc |= a_run & b[:, kp]
            out[:, k] = acc
    return out


def sat(traj: GraphTemporalTrajectory, f: Formula, v: str, k: int) -> bool:
    """(traj, v, k) |= f for a parameter-free formula."""
    traj._check_time(k)
    if v not in traj.graph.node_index:
        raise InputError(f"unknown node id {v!r}")
    return bool(sat_table(traj, f)[traj.graph.node_index[v], k - 1])


def sat_signature(traj: GraphTemporalTrajectory, f: Formula, v: str) -> int:
    """+1 iff the formula holds at node v at time index 1, else -1."""
    return 1 if sat(traj, f, v, 1) else -1


def sat_vector(traj: GraphTemporalTrajectory, f: Formula) -> np.ndarray:
    """Satisfaction at time index 1 for all nodes (bool, shape |V|)."""
    return sat_table(traj, f)[:, 0]


def coverage(trajectories: Sequence[GraphTemporalTrajectory], f: Formula) -> float:
    """Averaged proportion of nodes at which f holds across the set."""
    if not trajectories:
        raise UsageError("coverage of an empty trajectory set is undefined")
    graph = trajectories[0].graph
    if any(t.graph is not graph for t in trajectories):
        raise InputError("all trajectories must share one graph")
    total = sum(int(tab[:, 0].sum()) for tab in _tables(trajectories, f))
    return total / (graph.n_nodes * len(trajectories))


def misclassification_rate(trajectories: Sequence[GraphTemporalTrajectory], f: Formula) -> float:
    """Fraction of (trajectory, node) pairs whose signature disagrees with the label."""
    if not trajectories:
        raise UsageError("misclassification rate of an empty dataset is undefined")
    if any(t.label not in (1, -1) for t in trajectories):
        raise InputError("every trajectory needs a classification label of +1 or -1")
    wrong = 0
    for t, tab in zip(trajectories, _tables(trajectories, f)):
        sig = np.where(tab[:, 0], 1, -1)
        wrong += int((sig != t.label).sum())
    return wrong / (trajectories[0].graph.n_nodes * len(trajectories))
