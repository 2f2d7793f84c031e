"""Finite-trace satisfaction semantics for GTL formulas.

Evaluation is table-based and works on a whole trajectory set at once.
An evaluator is opened on a set whose N trajectories share one graph and
one horizon L; it stacks their node labels into one (N, |V|, L) array and
their edge labels into one (|E|, N*L) block, once.  Each query computes
one (N, |V|, L) boolean table per subformula, memoized for the length of
the query and then dropped.  A neighbor predicate makes one `reach` call
over the whole block for its chain, and after the query the evaluator
keeps the (N*L, |V|, |V|) reach arrays that the query used, so a next
query that repeats one of those chains walks no edges for it.  What an
evaluator holds is thus the stacked labels and the distinct reach arrays
of one formula.  It lives for one search run (one PSO run, one template's
identification); the public functions open one per call, and no state
outlives the run or is written to a trajectory.
The evaluator's one query method, `tables`, evaluates a desugared formula
at K valuations in one pass, each parameter slot a (K, 1, 1, 1) column, so
a table that depends on one gains a leading (K,) axis.  A search compiles
its template once, then makes one query per PSO iteration or coverage
query.  A neighbor chain with parametric thresholds walks one `reach` per
distinct literal chain among the valuations.
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
    Always, And, Atom, EdgeAtom, Eventually, Exists, FalseF, Formula, Not, Or,
    Param, TrueF, Until, _checked_value, desugar, is_ground,
)
from .graph import GraphTemporalTrajectory, reach


def sat_table(traj: GraphTemporalTrajectory, f: Formula) -> np.ndarray:
    """Boolean table T with T[v, k-1] iff (traj, v, k) |= f."""
    return _table([traj], f)[0]


def _table(trajectories, f):
    """Stacked table S with S[n, v, k-1] iff (trajectories[n], v, k) |= f, f ground."""
    if not is_ground(f):
        raise UsageError("formula still has free parameters; instantiate it first")
    return _Evaluator(trajectories).tables(desugar(f), {})


class _Evaluator:
    """Tables of many formulas over one trajectory set, for one search run."""

    def __init__(self, trajectories):
        graph, L = trajectories[0].graph, trajectories[0].L
        if any(t.graph is not graph or t.L != L for t in trajectories):
            raise InputError("all trajectories must share one graph and one horizon L")
        self.graph = graph
        self.x = np.array([t.node_labels for t in trajectories])  # (N, |V|, L)
        self.y = np.concatenate([t.edge_labels for t in trajectories], axis=1)  # (|E|, N*L)
        self.reaches = {}  # literal chain -> float32 (N, L, |V|, |V|) reach array of the last query

    def tables(self, g, values):
        """Stacked tables of the desugared formula g at K valuations, in one pass.

        values maps each parameter of g to an array of its K values, checked
        as `instantiate` checks one.  The result has a leading axis of length
        K, the valuations in order; a subformula whose slots are all literals
        (a ground g too) is evaluated once, without that axis.
        """
        kept, self.reaches = self.reaches, {}
        N, V, L = self.x.shape

        def reach_of(chain):
            if chain not in self.reaches:
                self.reaches[chain] = kept[chain] if chain in kept else reach(
                    self.graph, self.y, chain).reshape(N, L, V, V).astype(np.float32)
            return self.reaches[chain]

        def value(v, kind):
            if isinstance(v, Param):
                return np.reshape(_checked_value(v, kind, values), (-1, 1, 1, 1))
            return v

        return _eval(self.x, g, {}, reach_of, value)


def _eval(x, f, cache, reach_of, value):
    """Table of the desugared formula f over the (N, |V|, L) labels x.

    value(slot, kind) gives a slot's literal, or a parameter's (K, 1, 1, 1)
    column of per-valuation values; a table that depends on a column has a
    leading (K,) axis, so every operation below works on the trailing axes.
    """
    def rec(g):
        if g not in cache:
            cache[g] = _eval(x, g, cache, reach_of, value)
        return cache[g]

    if isinstance(f, TrueF):
        return np.ones(x.shape, dtype=bool)
    if isinstance(f, FalseF):
        return np.zeros(x.shape, dtype=bool)
    if isinstance(f, Atom):
        t = value(f.threshold, "continuous")
        return x <= t if f.op == "<=" else x >= t
    if isinstance(f, Not):
        return ~rec(f.sub)
    if isinstance(f, And):
        return rec(f.left) & rec(f.right)
    if isinstance(f, Or):
        return rec(f.left) | rec(f.right)
    if isinstance(f, Exists):
        body = rec(f.body).astype(np.float32)
        if not any(isinstance(e.threshold, Param) for e in f.chain):
            counts = _counts(reach_of(f.chain), body)
        else:  # one reach per distinct literal chain among the valuations
            chains = _literal_chains(f.chain, value)
            groups = {}
            for k, chain in enumerate(chains):
                groups.setdefault(chain, []).append(k)
            counts = np.empty((len(chains),) + x.shape, dtype=np.float32)
            for chain, ks in groups.items():
                counts[ks] = _counts(reach_of(chain), body[ks] if body.ndim > x.ndim else body)
        return counts >= value(f.count, "integer")
    if isinstance(f, Eventually):
        return _until(None, rec(f.sub), f.bound, value)
    if isinstance(f, Always):
        return ~_until(None, ~rec(f.sub), f.bound, value)
    if isinstance(f, Until):
        return _until(rec(f.left), rec(f.right), f.bound, value)
    raise TypeError(f"not a formula node: {f!r}")


def _literal_chains(chain, value):
    """The literal chain of each valuation, for a chain with parametric thresholds."""
    cols = np.broadcast_arrays(*(np.ravel(value(e.threshold, "continuous")) for e in chain))
    return [tuple(EdgeAtom(e.op, float(t)) for e, t in zip(chain, row)) for row in zip(*cols)]


def _counts(R, body):
    """C[..., n, v, k] = #{u : R[n, k, v, u] and body[..., n, u, k]}, as one
    float32 matmul with the valuations on its last axis (counts <= |V| are exact)."""
    N, V, L = body.shape[-3:]
    B = body.reshape(-1, N, V, L).transpose(1, 3, 2, 0)  # (N, L, V, K)
    return (R @ B).transpose(3, 0, 2, 1).reshape(body.shape)


def _until(a, b, bound, value):
    """Table of a U b under a single-sided bound, or of F b if a is None.

    At time k a witness of b is sought in [k+lo, min(k+hi, j-1, L-1)], where
    j is the first index >= k at which a fails; the hits in each window are
    a difference of one cumulative sum of b along time.  A per-valuation
    bound gives (K, 1, 1, L) windows.
    """
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
    return (lo <= hi) & (_at(c, hi + 1) > _at(c, lo))


def _at(c, i):
    """c read along its last axis at i: one index row of shape (L,) for all
    cells, or (broadcast) per cell."""
    if i.ndim == 1:
        return c[..., i]
    n = max(c.ndim, i.ndim)
    return np.take_along_axis(c[(None,) * (n - c.ndim)], i[(None,) * (n - i.ndim)], axis=-1)


def sat(traj: GraphTemporalTrajectory, f: Formula, v: str, k: int) -> bool:
    """(traj, v, k) |= f for a parameter-free formula."""
    traj._check_time(k)
    vi = traj.graph.index_of(v)
    return bool(sat_table(traj, f)[vi, k - 1])


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
    return float(_coverage(_table(trajectories, f)))


def misclassification_rate(trajectories: Sequence[GraphTemporalTrajectory], f: Formula) -> float:
    """Fraction of (trajectory, node) pairs whose signature disagrees with the label."""
    if not trajectories:
        raise UsageError("misclassification rate of an empty dataset is undefined")
    positive = _positive(trajectories)
    return _misclassification(_table(trajectories, f), positive)


def _positive(trajectories):
    """Per trajectory, whether its label is +1; every label must be +1 or -1."""
    if any(t.label not in (1, -1) for t in trajectories):
        raise InputError("every trajectory needs a classification label of +1 or -1")
    return np.array([t.label == 1 for t in trajectories])


def _coverage(table):
    """Share of the (trajectory, node) pairs of a stacked table that hold at
    time 1; per valuation, if the table has a valuation axis."""
    sat1 = table[..., 0]
    return np.count_nonzero(sat1, axis=(-2, -1)) / (sat1.shape[-2] * sat1.shape[-1])


def _misclassification(table, positive):
    """Share of the (trajectory, node) pairs of a stacked table whose truth at
    time 1 disagrees with their trajectory's label."""
    return int(_misclassified(table, positive)) / (table.shape[0] * table.shape[1])


def _misclassified(table, positive):
    """How many (trajectory, node) pairs of a stacked table disagree with
    their label at time 1; per valuation, if the table has a valuation axis."""
    return np.count_nonzero(table[..., 0] != positive[:, None], axis=(-2, -1))
