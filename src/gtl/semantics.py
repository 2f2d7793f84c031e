"""Finite-trace satisfaction semantics for GTL formulas.

Evaluation is table-based and works on a whole trajectory set at once.
An evaluator is opened on a set whose N trajectories share one graph and
one horizon L; it stacks their node labels into one (N, |V|, L) array and
their edge labels into one (|E|, N*L) block, once.  Each query computes
one (N, |V|, L) boolean table per subformula, memoized for the length of
the query and then dropped.  A neighbor predicate makes one `reach` call
over the whole block for its chain, and after the query the evaluator
keeps the (N, L, |V|, |V|) reach arrays that the query used, so a next
query that repeats one of those chains walks no edges for it.  What an
evaluator holds is thus the stacked labels and the distinct reach arrays
of one formula.  It lives for one search run (one PSO run, one template's
identification); the public functions open one per call, and no state
outlives the run or is written to a trajectory.
An evaluator can also be opened on such arrays directly, with one
(|E|, L) edge block that all N share: its reach arrays then have a leading
axis of 1 and serve any node labels, so a data generator checks block
after block of proposals and walks each chain once.
Both query methods are one recursive walk, `_eval`, over one memo.
`tables` evaluates a desugared formula at K valuations in one pass, each
parameter slot a (K, 1, 1, 1) column, so a table that depends on one gains
a leading (K,) axis; a search compiles its template once, then makes one
query per PSO iteration or coverage query.  A neighbor chain with
parametric thresholds walks one `reach` per distinct literal chain among
the valuations.  `cuts` names one node-label threshold p: a node with p
beneath it gives per cell a critical value and a direction, so that its
truth at any value of p is one comparison, and every other node gives its
table.  A temporal node sets up its windows once for both kinds of result,
and a window that runs to the trace end is one accumulate for both.
Temporal quantifiers range over future time indices clipped to [1, L]:
an unwitnessed co-safe obligation at the trace end is false, an unviolated
safe obligation is true.  Until requires the left operand to hold at the
witness index as well (inclusive interval).
"""

from __future__ import annotations

import math
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
    return _Evaluator.of(trajectories).tables(_ground(f), {})


def _ground(f):
    """The desugared form of f, which must have no free parameters."""
    if not is_ground(f):
        raise UsageError("formula still has free parameters; instantiate it first")
    return desugar(f)


class _Evaluator:
    """Tables of many formulas over one trajectory set, for one search run."""

    def __init__(self, graph, x, y):
        """Open on node labels x, (N, |V|, L), and an edge block y: (|E|, N*L),
        the trajectories' columns in turn, or (|E|, L), shared by all N, whose
        reach arrays serve any x, so x may then be replaced between queries."""
        self.graph, self.x, self.y = graph, x, y
        self.reaches = {}  # literal chain -> float32 (N or 1, L, |V|, |V|) reach array of the last query

    @classmethod
    def of(cls, trajectories):
        """Open on a trajectory set, its labels stacked once."""
        graph, L = trajectories[0].graph, trajectories[0].L
        if any(t.graph is not graph or t.L != L for t in trajectories):
            raise InputError("all trajectories must share one graph and one horizon L")
        return cls(graph, np.array([t.node_labels for t in trajectories]),
                   np.concatenate([t.edge_labels for t in trajectories], axis=1))

    def tables(self, g, values):
        """Stacked tables of the desugared formula g at K valuations, in one pass.

        values maps each parameter of g to an array of its K values, checked
        as `instantiate` checks one.  The result has a leading axis of length
        K, the valuations in order; a subformula whose slots are all literals
        (a ground g too) is evaluated once, without that axis.
        """
        return _eval(self.x, g, {}, *self._query(values))

    def cuts(self, g, name, values):
        """Cut table (cut, s) of the desugared formula g in its node-label
        threshold `name`: g holds at a cell for the value v of `name`
        exactly when s*v >= cut there.

        values gives every other parameter of g, as `tables` takes them.
        cut is a float array of the table's shape, with a leading axis of
        length K if it depends on a column; s is +1 or -1.
        """
        return _eval(self.x, g, {}, *self._query(values), p=Param(name))

    def _query(self, values):
        """The reach_of and value functions of one query at the valuations values."""
        kept, self.reaches = self.reaches, {}
        V, L = self.x.shape[1:]

        def reach_of(chain):
            if chain not in self.reaches:
                self.reaches[chain] = kept[chain] if chain in kept else reach(
                    self.graph, self.y, chain).reshape(-1, L, V, V).astype(np.float32)
            return self.reaches[chain]

        def value(v, kind):
            if isinstance(v, Param):
                return np.reshape(_checked_value(v, kind, values), (-1, 1, 1, 1))
            return v

        return reach_of, value


def _eval(x, f, cache, reach_of, value, p=None):
    """Table of the desugared formula f over the (N, |V|, L) labels x, or,
    if the parameter p, a node-label threshold, lies beneath f, its cut
    table (cut, s): f holds at a cell for p = v exactly when s*v >= cut there.

    value(slot, kind) gives a slot's literal, or a parameter's (K, 1, 1, 1)
    column of per-valuation values; a table that depends on a column has a
    leading (K,) axis, so every operation below works on the trailing axes.
    p fills a single slot of a template, and desugaring copies a slot only
    under `&` and with its polarity, so f is monotone in p and a cut table
    is exact.  Under `&` or `|` an operand's table B keeps or settles the
    other's cut: where(B, cut, +inf) for `&`, where(B, -inf, cut) for `|`.
    """
    def rec(g):
        if g not in cache:
            cache[g] = _eval(x, g, cache, reach_of, value, p)
        return cache[g]

    cls = type(f)
    if cls is TrueF:
        return np.ones(x.shape, dtype=bool)
    if cls is FalseF:
        return np.zeros(x.shape, dtype=bool)
    if cls is Atom:
        if p is not None and f.threshold == p:
            return (x, 1) if f.op == "<=" else (-x, -1)
        t = value(f.threshold, "continuous")
        return x <= t if f.op == "<=" else x >= t
    if cls is Not:
        a = rec(f.sub)
        if type(a) is not tuple:
            return ~a
        cut, s = a  # s*v < cut, over floats; +inf (never) becomes -inf (always)
        out = np.negative(cut)
        with np.errstate(over="ignore"):  # the successor of the largest float is +inf
            np.nextafter(out, np.inf, out=out)
        out[cut == np.inf] = -np.inf
        return out, -s
    if cls is And or cls is Or:
        a, b = rec(f.left), rec(f.right)
        if type(a) is not tuple and type(b) is not tuple:
            return a & b if cls is And else a | b
        if type(a) is not tuple:
            a, b = b, a
        if type(b) is tuple:
            return (np.maximum(a[0], b[0]) if cls is And else np.minimum(a[0], b[0])), a[1]
        return (np.where(b, a[0], np.inf) if cls is And else np.where(b, -np.inf, a[0])), a[1]
    if cls is Exists:  # its lambdas take their arrays as defaults: no cells on every _eval call
        body, n = rec(f.body), value(f.count, "integer")
        if type(body) is tuple:
            cut, s = body
            return _per_chain(f.chain, reach_of, value, x.shape, float, lambda R, ks, cut=cut, n=n:
                              _nth_smallest(R, cut[ks] if cut.ndim > x.ndim else cut,
                                            n[ks] if np.ndim(n) else n)), s
        body = body.astype(np.float32)
        counts = _per_chain(f.chain, reach_of, value, x.shape, np.float32, lambda R, ks, body=body:
                            _counts(R, body[ks] if body.ndim > x.ndim else body))
        return counts >= n
    if cls is Eventually or cls is Always or cls is Until:
        return _temporal(f, rec, value)
    raise TypeError(f"not a formula node: {f!r}")


def _per_chain(chain, reach_of, value, shape, dtype, count):
    """count(R, ks) under the reach array R of a literal chain, ks = slice(None);
    for a chain with parametric thresholds, one call per distinct literal chain
    among the valuations, ks the valuations that share it, stacked in order
    into a (K,) + shape array of dtype."""
    if not any(isinstance(e.threshold, Param) for e in chain):
        return count(reach_of(chain), slice(None))
    cols = [np.ravel(value(e.threshold, "continuous")).tolist() for e in chain]
    K = max(map(len, cols))
    groups = {}  # threshold row -> the valuations that have it
    for k, row in enumerate(zip(*(c * K if len(c) == 1 else c for c in cols), strict=True)):
        groups.setdefault(row, []).append(k)
    out = np.empty((K,) + shape, dtype=dtype)
    for row, ks in groups.items():
        out[ks] = count(reach_of(tuple(EdgeAtom(e.op, float(t)) for e, t in zip(chain, row))), ks)
    return out


def _counts(R, body):
    """C[..., n, v, k] = #{u : R[n, k, v, u] and body[..., n, u, k]}, as one
    float32 matmul with the valuations on its last axis (counts <= |V| are exact);
    an R with a leading axis of 1 (a shared edge block) serves every n."""
    N, V, L = body.shape[-3:]
    B = body.reshape(-1, N, V, L).transpose(1, 3, 2, 0)  # (N, L, V, K)
    return (R @ B).transpose(3, 0, 2, 1).reshape(body.shape)


def _temporal(f, rec, value):
    """Table or cut table of F b, G b or a U b, the node f with its
    operands' results read through rec, under a single-sided bound.

    At time k the window is [k+lo, min(k+hi, j-1, L-1)], where j is the
    first index >= k at which U's left operand fails.  F and U hold when b
    holds somewhere in the window, G when b holds all over it, so an empty
    window holds for G alone; over cuts, F and U take the window's least
    cut and G its greatest.  A window of F or G that runs to the trace end
    is one reversed accumulate of b read at k+lo: or/and over a table,
    min/max over a cut table (exact: the values `_extreme` gives, but for
    the sign of a zero where 0.0 and -0.0 tie).  Any other window is a
    difference of one cumulative sum along time, of b's hits for F and U,
    of its misses for G; over cuts, an `_extreme`.  With p in U's left
    operand, a U b needs a from k through the first witness of b in the
    window: the greatest cut of a over [k, that witness], +inf if none.
    A per-valuation bound gives (K, 1, 1, L) windows.
    """
    always, until = type(f) is Always, type(f) is Until
    a = rec(f.left) if until else None
    b = rec(f.right if until else f.sub)
    lo, hi = (None, None) if f.bound is None else (f.bound.lo, f.bound.hi)
    cut = type(b) is tuple
    L = (b[0] if cut else b).shape[-1]
    lo = None if lo is None else np.minimum(np.arange(L) + value(lo, "integer"), L)
    if hi is None and not until:
        if cut:
            c, fill, op = (b[0], -np.inf, np.maximum) if always else (b[0], np.inf, np.minimum)
        else:
            c, fill, op = b, always, (np.logical_and if always else np.logical_or)
        acc = np.empty(c.shape[:-1] + (L + 1,), dtype=c.dtype)
        acc[..., L] = fill  # the empty window past the trace end
        op.accumulate(c[..., ::-1], axis=-1, out=acc[..., L - 1::-1])
        return (_at(acc, lo), b[1]) if cut else _at(acc, lo)
    k = np.arange(L)
    hi = np.minimum(k + (L if hi is None else value(hi, "integer")), L - 1)
    if until and type(a) is tuple:
        witness = np.full(b.shape[:-1] + (L + 1,), L)  # first index >= i where b holds, L if none
        np.minimum.accumulate(np.where(b, k, L)[..., ::-1], axis=-1, out=witness[..., L - 1::-1])
        first = _at(witness, lo)
        return np.where(first <= hi, _extreme(a[0], k, np.minimum(first, L - 1), np.maximum),
                        np.inf), a[1]
    if until:
        fails = np.minimum.accumulate(np.where(a, L, k)[..., ::-1], axis=-1)[..., ::-1]
        hi = np.minimum(hi, fails - 1)
    if cut:
        return _extreme(b[0], k if lo is None else lo, hi,
                        np.maximum if always else np.minimum), b[1]
    # c counts the misses of b for G, its hits for F and U; an empty window
    # (lo > hi) reads a count <= 0
    c = np.zeros(b.shape[:-1] + (L + 1,), dtype=np.int64)
    np.cumsum(~b if always else b, axis=-1, out=c[..., 1:])
    end, start = _at(c, hi + 1), _at(c, lo)
    return end <= start if always else end > start


def _at(c, i):
    """c, of length L + 1 along its last axis, read there at i: at each
    k < L itself if i is None, else at one index row of shape (L,) for all
    cells, or (broadcast) per cell."""
    if i is None:
        return c[..., :-1]
    if i.ndim == 1:
        return c[..., i]
    n = max(c.ndim, i.ndim)
    return np.take_along_axis(c[(None,) * (n - c.ndim)], i[(None,) * (n - i.ndim)], axis=-1)


def _nth_smallest(R, cut, n):
    """T[..., m, v, k] = the n-th smallest of cut[..., m, u, k] over the nodes u
    that R[m, k, v] reaches (R holds 0 or 1): -inf for n <= 0, +inf when
    fewer than n are reached.  n is a literal or a (K, 1, 1, 1) column.
    Each distinct body table along the valuation axis is ranked once, one
    trajectory at a time in one (L, |V|, |V| + 2) buffer whose first and
    last columns hold the -inf and +inf that counts out of [1, |V|] read."""
    N, V, L = cut.shape[-3:]
    bodies = cut.reshape(-1, N, V, L)
    counts = np.ravel(n)
    K = max(len(bodies), len(counts))
    groups = {b"": (bodies[0], slice(None))} if len(bodies) == 1 else {}
    for k in range(K if len(bodies) > 1 else 0):
        groups.setdefault(bodies[k].tobytes(), (bodies[k], []))[1].append(k)
    ranked = np.empty((L, V, V + 2))  # ranked[k, v, 1 + u]: body[m, u, k] if v reaches u
    ranked[..., 0], ranked[..., -1] = -np.inf, np.inf
    unreached = np.empty((L, V, V), dtype=np.float32)  # +inf where v does not reach u, else -inf
    out = np.empty((K, N, V, L))
    for body, ks in groups.values():
        at = np.clip(np.broadcast_to(counts, (K,))[ks], 0, V + 1)
        for m in range(N):
            np.multiply(np.subtract(0.5, R[min(m, len(R) - 1)], out=unreached), np.inf,
                        out=unreached)
            np.maximum(body[m].T[:, None, :], unreached, out=ranked[..., 1:-1])
            ranked.sort(axis=-1)
            out[ks, m] = np.take(ranked, at, axis=-1).transpose(2, 1, 0)
    return out if cut.ndim > 3 or np.ndim(n) > 0 else out[0]


def _extreme(c, lo, hi, op):
    """op, np.minimum or np.maximum, of the cut table c along time over the
    window [lo, hi] of each cell, and op's identity (+inf or -inf) where
    the window is empty; lo and hi broadcast against c, with hi <= L - 1.

    Level j of a sparse table holds op over [i, i + 2**j), so a window of
    length n is two overlapping blocks of the level with 2**j <= n < 2**(j+1).
    Time leads the cells' axes here, so that the cells sharing one window
    (all the axes after the windows' own) are one row of each level.
    """
    fill = np.inf if op is np.minimum else -np.inf
    shape = np.broadcast_shapes(c.shape, np.shape(lo), np.shape(hi))
    own = np.broadcast_shapes(np.shape(lo), np.shape(hi))
    own = (1,) * (len(shape) - len(own)) + own
    a = max((i + 1 for i, d in enumerate(own[:-1]) if d > 1), default=0)  # the windows' axes
    L, rows, cols = shape[-1], math.prod(shape[:a]), math.prod(shape[a:-1])
    level = np.moveaxis(np.broadcast_to(c, shape), -1, a).copy().reshape(rows, L, cols)
    lo, hi = (np.broadcast_to(np.broadcast_to(w, own).reshape(own[:a] + own[-1:]),
                              shape[:a] + (L,)).reshape(-1) for w in (lo, hi))
    n = np.maximum(hi - lo + 1, 0)
    start = np.repeat(np.arange(rows) * L, L) + lo  # a window's first row of the level
    out = np.empty((rows * L, cols))
    out[n == 0] = fill
    flat = level.reshape(rows * L, cols)
    w, most = 1, n.max()
    while w <= most:
        here = np.flatnonzero((n >= w) & (n < 2 * w))
        out[here] = op(flat[start[here]], flat[start[here] + n[here] - w])
        if 2 * w <= most:  # level 2w; its last w columns are never read
            op(level[:, :L - w], level[:, w:], out=level[:, :L - w])
        w *= 2
    return np.moveaxis(out.reshape(shape[:a] + (L,) + shape[a:-1]), a, -1)


def sat(traj: GraphTemporalTrajectory, f: Formula, v: str, k: int) -> bool:
    """(traj, v, k) |= f for a parameter-free formula."""
    traj._check_time(k)
    vi = traj.graph.index_of(v)
    return bool(sat_table(traj, f)[vi, k - 1])


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
