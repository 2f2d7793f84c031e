"""Factored prior over trajectories and exact satisfaction probabilities.

The prior assigns every (node, time) an independent histogram over a shared
set of label bins, with within-bin uniformity, and holds edge labels fixed.
Satisfaction probabilities run a backward recursion over the formula's DFA
using exact joint letter distributions.  Words have length L, so time
bounds above L are lowered to L first.  Every atomic predicate counts as
"at least n of a reach set satisfy a proposition": a bare atom is 1 of [v],
`E n via chain : atom` is n of v's static reach.  A letter table cuts the
real line into cells at its thresholds, which gives every node an
(L, cells) mass table; one array DP over a flat (node, time) batch axis
counts each predicate's successes and yields an (L, letters) array per node.
An outer neighbor-count predicate (type-II) lifts per-neighbor probabilities
through a Poisson-binomial tail.  Information gain is reported in nats per
time step.

Several formulas, such as the points of an identification front, are
scored in one call: formulas whose automata share a skeleton (the formula
with its predicates numbered, `automata.skeleton`) share one DFA and one
backward recursion over all their (formula, node) words, and those whose
predicates differ only in their thresholds share one letter DP, their
letter tables stacked on the time axis.  The results are those of one call
per formula, bit for bit.  `compute_ig` is the one-formula case.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .automata import skeleton, to_dfa
from .errors import InputError, OutOfScopeError, UsageError
from .formula import (
    Atom, Bound, Exists, FalseF, Formula, Not, Param, TrueF, _children, _keep, _rebuild,
    classify_subtype, desugar, is_ground,
)
from .graph import _MALFORMED, LabeledGraph, _read_json, reach

#: running totals used by the complexity tests; see reset_counters().
counters = {"transition_evals": 0}
#: DP states above which a joint letter distribution assumes independence
MAX_DP_STATES = 10 ** 6


def reset_counters():
    counters["transition_evals"] = 0


@dataclass(frozen=True)
class PriorModel:
    """Independent per-(node, time) histograms over shared bins.

    pmf maps node id -> (L, B) array; nodes absent from the map use
    default_pmf at every time.  Edge labels are constant over time.
    """

    graph: LabeledGraph
    L: int
    bins: tuple  # tuple[(lo, hi), ...], disjoint, covering the support
    pmf: dict
    static_edge_labels: dict
    default_pmf: np.ndarray | None = None

    def __post_init__(self):
        if self.L < 1:
            raise InputError("horizon L must be >= 1")
        if not self.bins:
            raise InputError("prior needs at least one bin")
        prev_hi = None
        for lo, hi in self.bins:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise InputError(f"bad bin [{lo}, {hi})")
            if prev_hi is not None and lo < prev_hi:
                raise InputError("bins must be disjoint and sorted")
            prev_hi = hi
        B = len(self.bins)
        for v in self.pmf:
            if v not in self.graph.node_index:
                raise InputError(f"pmf references unknown node {v!r}")
        for v in self.graph.nodes:
            p = self.node_pmf(v)
            if p.shape != (self.L, B):
                raise InputError(f"pmf for {v!r} must have shape ({self.L}, {B})")
            if not np.isfinite(p).all() or (p < 0).any() or (abs(p.sum(axis=1) - 1.0) > 1e-9).any():
                raise InputError(f"pmf for {v!r} is not a probability vector")
        for e in self.graph.edges:
            if e not in self.static_edge_labels:
                raise InputError(f"prior is missing an edge label for {e!r}")
            if not math.isfinite(self.static_edge_labels[e]):
                raise InputError(f"prior edge label for {e!r} must be finite")

    def node_pmf(self, v: str) -> np.ndarray:
        self.graph.index_of(v)  # an unknown id is an input error
        p = self.pmf.get(v)
        if p is None:
            if self.default_pmf is None:
                raise InputError(f"no pmf for node {v!r} and no default_pmf")
            p = np.tile(self.default_pmf, (self.L, 1))
        return np.asarray(p, dtype=float)

    @classmethod
    def from_json_dict(cls, d, graph: LabeledGraph) -> "PriorModel":
        try:
            L = int(d["L"])
            bins = tuple((float(lo), float(hi)) for lo, hi in d["bins"])
            edge_labels = {str(k): float(x) for k, x in d["edge_labels"].items()}
            pmf = {v: np.asarray(rows, dtype=float) for v, rows in d.get("pmf", {}).items()}
            default = d.get("default_pmf")
            default = np.asarray(default, dtype=float) if default is not None else None
        except _MALFORMED as exc:
            raise InputError(f"malformed prior file: {exc}") from exc
        return cls(graph=graph, L=L, bins=bins, pmf=pmf,
                   static_edge_labels=edge_labels, default_pmf=default)

    def to_json_dict(self):
        d = {
            "L": self.L,
            "bins": [list(b) for b in self.bins],
            "edge_labels": dict(self.static_edge_labels),
            "pmf": {v: np.asarray(p, dtype=float).tolist() for v, p in self.pmf.items()},
        }
        if self.default_pmf is not None:
            d["default_pmf"] = np.asarray(self.default_pmf, dtype=float).tolist()
        return d


def load_prior(path, graph: LabeledGraph) -> PriorModel:
    return PriorModel.from_json_dict(_read_json(path), graph)


# ---------------------------------------------------------------------------
# cell masses: the real line cut once at a call's thresholds

def _check_time(prior, k):
    if not 1 <= k <= prior.L:
        raise InputError(f"time index {k} outside 1..{prior.L}")


def _cell_masses(prior, atoms):
    """(masses, truth) for the real line cut into cells at the atoms'
    distinct thresholds: masses[u, k - 1, c] is the prior mass of node u's
    label in cell c at time k, truth[j, c] whether atoms[j] holds on cell c."""
    for a in atoms:
        if isinstance(a.threshold, Param):
            raise UsageError(f"atom still parameterized by {a.threshold}")
    ts, rank = np.unique(np.array([a.threshold for a in atoms], dtype=float),
                         return_inverse=True)
    edges = np.concatenate(([-np.inf], ts, [np.inf]))
    lo, hi = np.array(prior.bins).T
    # share of each bin inside each cell, under within-bin uniformity
    overlap = np.minimum(hi[:, None], edges[1:]) - np.maximum(lo[:, None], edges[:-1])
    share = np.maximum(overlap, 0.0) / (hi - lo)[:, None]
    masses = np.stack([prior.node_pmf(u) for u in prior.graph.nodes]) @ share
    # cell c lies above ts[:c] and below ts[c:]
    below = np.arange(len(ts) + 1) <= rank[:, None]
    le = np.array([a.op == "<=" for a in atoms], dtype=bool)
    return masses, np.where(le[:, None], below, ~below)


def atom_probability(prior: PriorModel, atom: Atom, v: str, k: int) -> float:
    """Probability that the atom holds at (v, k) under the prior."""
    vi = prior.graph.index_of(v)
    _check_time(prior, k)
    masses, truth = _cell_masses(prior, [atom])
    return float(masses[vi, k - 1] @ truth[0])


def static_reach(prior: PriorModel, v: str, chain) -> list[str]:
    """Nodes reachable from v through the chain under the static edge labels."""
    row = _static_reach_rows(prior, chain)[prior.graph.index_of(v)]
    return [prior.graph.nodes[u] for u in np.flatnonzero(row)]


def _static_reach_rows(prior, chain) -> np.ndarray:
    """(V, V) bool: row v marks static_reach(prior, v, chain), from one reach array."""
    g = prior.graph
    labels = np.array([prior.static_edge_labels[e] for e in g.edges], dtype=float)
    return reach(g, labels.reshape(g.n_edges, 1), chain)[0]


def _poisson_binomial_tail(probs, n: int):
    """P(at least n successes) for independent Bernoulli trials, one trial
    per row of probs; trailing axes (such as time) are carried along."""
    probs = np.asarray(probs, dtype=float)
    if n <= 0:
        return np.ones(probs.shape[1:])
    if n > len(probs):
        return np.zeros(probs.shape[1:])
    # dp[c] = P(c successes so far), with all counts >= n pooled at n
    dp = np.zeros((n + 1,) + probs.shape[1:])
    dp[0] = 1.0
    for p in probs:
        pooled = dp[n] + dp[n - 1] * p
        dp[1:n] = dp[1:n] * (1 - p) + dp[:n - 1] * p
        dp[0] *= 1 - p
        dp[n] = pooled
    return dp[n]


# ---------------------------------------------------------------------------
# joint letter distribution

def letter_distribution(prior: PriorModel, aps, v: str, k: int) -> np.ndarray:
    """Exact joint distribution over predicate bitmasks at (v, k).

    Factors over the nodes the predicates touch; predicates sharing nodes
    stay exactly correlated.  Above MAX_DP_STATES DP states, falls back to
    predicate independence with a warning.
    """
    vi = prior.graph.index_of(v)
    _check_time(prior, k)
    [(masses, truth)], preds = _letter_table(prior, aps)
    # the DP on time k's masses alone, so its cost does not grow with L
    return _letters([(masses[:, k - 1:k], truth)], preds, [vi])[0, 0]


def _letter_table(prior, aps, rows=None):
    """([(masses, truth)], preds) of one alphabet: the cell masses and truth
    table of the aps' atoms, and each ap as (n, rows): it holds at v when at
    least n of the nodes marked in rows[v] satisfy its atom.  A bare atom is
    1 of [v]; `rows` maps each chain to its static reach rows, so a chain
    is reached once however many alphabets share the dict."""
    rows = {} if rows is None else rows
    own = np.eye(prior.graph.n_nodes, dtype=bool)
    preds, atoms = [], []
    for ap in aps:
        if isinstance(ap, Atom):
            preds.append((1, own))
            atoms.append(ap)
        elif isinstance(ap, Exists):
            if ap.chain not in rows:
                rows[ap.chain] = _static_reach_rows(prior, ap.chain)
            preds.append((int(ap.count), rows[ap.chain]))
            atoms.append(ap.body)
        else:
            raise UsageError(f"not an atomic predicate: {ap}")
    return [_cell_masses(prior, atoms)], preds


def _letters(tables, preds, nodes) -> np.ndarray:
    """(len(nodes), T, 2^|preds|) joint letter distributions at the node
    indices `nodes`, all times of every table.

    Each table is one (masses, truth) pair of `_letter_table` for predicates
    that differ only in their thresholds, and the tables are stacked on the
    time axis: T is the sum of their time steps.  A node whose DP needs more
    than MAX_DP_STATES states per time step falls back to predicate
    independence.  The others share one array DP over a flat (node, time)
    batch axis, run in chunks of at most MAX_DP_STATES cells.  The state has
    one axis per predicate counting its successes so far, pooled at the
    largest min(n, |reach|) over the batch's nodes.
    """
    m, V = len(preds), len(tables[0][0])
    T = sum(masses.shape[1] for masses, _ in tables)
    ns = np.array([n for n, _ in preds], dtype=int)
    hits = np.array([r[nodes] for _, r in preds], dtype=bool).reshape(m, len(nodes), V)
    caps = np.minimum(ns[:, None], hits.sum(axis=2))
    out = np.empty((len(nodes), T, 1 << m))
    batch = []
    for i in range(len(nodes)):
        states = math.prod(int(c) + 1 for c in caps[:, i])
        if states > MAX_DP_STATES:
            warnings.warn(
                f"joint letter distribution needs {states} DP states (cap {MAX_DP_STATES}); "
                "falling back to predicate independence"
            )
            out[i] = np.concatenate([_independent_letters(masses, truth, ns, hits[:, i])
                                     for masses, truth in tables])
        else:
            batch.append(i)
    if not batch:
        return out
    # nodes whose pooled state would pass the cap run one by one
    pooled = math.prod(int(c) + 1 for c in caps[:, batch].max(axis=1))
    flat = out.reshape(len(nodes) * T, -1)
    for group in [batch] if pooled <= MAX_DP_STATES else [[i] for i in batch]:
        group_caps = caps[:, group].max(axis=1)
        node_of_row, time_of_row = np.repeat(group, T), np.tile(np.arange(T), len(group))
        step = max(1, MAX_DP_STATES // math.prod(int(c) + 1 for c in group_caps))
        for lo in range(0, len(node_of_row), step):
            rows = slice(lo, lo + step)
            flat[node_of_row[rows] * T + time_of_row[rows]] = _count_dp(
                tables, ns, hits, group_caps, node_of_row[rows], time_of_row[rows])
    return out


def _count_dp(tables, ns, hits, caps, node_of_row, time_of_row):
    """(rows, 2^m) letter rows for the (node, time) pairs of one chunk.

    Source nodes are taken in index order.  A row moves only where the
    source touches one of its node's predicates, so each row takes exactly
    the steps of its own node's DP; rows whose node is touched by the same
    predicates move together.  Predicate j counts on axis m - j, so the
    letters come out in bitmask order.
    """
    m, n_rows = len(ns), len(node_of_row)
    dp = np.zeros((n_rows,) + tuple(int(c) + 1 for c in caps[::-1]))
    dp[(slice(None),) + (0,) * m] = 1.0
    # touched[i, u]: bitmask of the predicates of node i that source u touches
    touched = np.tensordot(1 << np.arange(m), hits, axes=1)
    moves = {}  # bitmask -> [(count axes to bump, (V, T) mass)], one per truth pattern
    for u in np.flatnonzero(touched[np.unique(node_of_row)].any(axis=0)):
        row_keys = touched[node_of_row, u]
        for key in sorted(set(row_keys.tolist()) - {0}):
            if key not in moves:
                moves[key] = _moves(tables, m, key)
            sel = np.flatnonzero(row_keys == key)
            whole = len(sel) == n_rows
            cur = dp if whole else dp[sel]
            new = None
            for axes, mass in moves[key]:
                moved = cur
                for axis in axes:
                    moved = _bump(moved, axis)
                term = mass[u, time_of_row[sel]].reshape((-1,) + (1,) * m) * moved
                if new is None:
                    new = term
                else:
                    new += term
            if whole:
                dp = new
            else:
                dp[sel] = new
    for j in range(m):
        # count -> (predicate false, predicate true)
        holds = np.eye(2)[(np.arange(caps[j] + 1) >= ns[j]).astype(int)]
        dp = np.moveaxis(np.moveaxis(dp, m - j, -1) @ holds, -1, m - j)
    return dp.reshape(n_rows, -1)


def _moves(tables, m, key):
    """One DP step's terms for a source touching the predicates in bitmask
    key: per truth pattern of those predicates, the count axes it bumps and
    its (V, T) mass, each table's block summed over its cells in order.

    Along the real line each >= predicate turns true once and each <= one
    false once, so ordering the patterns by (>= true) - (<= true) gives every
    table its own order of first cells.  A table without a pattern has zero
    mass there, which adds exactly nothing to its rows.
    """
    touch = [j for j in range(m) if key >> j & 1]
    # a >= predicate holds on the top cell, a <= one does not
    signs = [1 if ge else -1 for ge in tables[0][1][touch, -1]]
    blocks = {}  # pattern -> {table index: (V, L) mass}
    for p, (masses, truth) in enumerate(tables):
        for c, pattern in enumerate(map(tuple, truth[touch].T)):
            block = blocks.setdefault(pattern, {})
            block[p] = block.get(p, 0.0) + masses[:, :, c]
    ends = np.cumsum([masses.shape[1] for masses, _ in tables])
    moves = []
    for pattern in sorted(blocks, key=lambda pat: sum(s for s, hit in zip(signs, pat) if hit)):
        if len(tables) == 1:
            mass = blocks[pattern][0]
        else:
            mass = np.zeros((len(tables[0][0]), ends[-1]))
            for p, block in blocks[pattern].items():
                mass[:, ends[p] - block.shape[1]:ends[p]] = block
        moves.append(([m - j for j, hit in zip(touch, pattern) if hit], mass))
    return moves


def _bump(dp, axis):
    """dp after one more success on a count axis, pooled at its last index."""
    out = np.zeros_like(dp)
    lead = (slice(None),) * axis
    out[lead + (slice(1, None),)] = dp[lead + (slice(None, -1),)]
    out[lead + (-1,)] += dp[lead + (-1,)]
    return out


def _independent_letters(masses, truth, ns, hits):
    """The letter array as a product of per-predicate marginals, each a
    Poisson-binomial tail over the predicate's reached nodes."""
    marg = np.stack([_poisson_binomial_tail(masses[h] @ t.astype(float), n)
                     for n, h, t in zip(ns, hits, truth)], axis=1)
    bits = (np.arange(1 << len(ns))[:, None] >> np.arange(len(ns))) & 1
    return np.where(bits, marg[:, None, :], 1 - marg[:, None, :]).prod(axis=2)


# ---------------------------------------------------------------------------
# satisfaction probability (backward DFA recursion)

def satisfaction_probability(prior: PriorModel, f: Formula, v: str) -> float:
    """Exact probability that a prior-drawn trajectory satisfies f at (v, 1)."""
    return _probabilities(prior, [f], [v])[0][v]


def _clip_bounds(f, L):
    """f with every time bound above L lowered to L.  On words of length L
    the two are equivalent: from every time, either bound reaches past the
    word's end."""
    g = _rebuild(f, lambda h: _clip_bounds(h, L), _keep)
    b = getattr(g, "bound", None)
    if b is None or max(b.lo or 0, b.hi or 0) <= L:
        return g
    return type(g)(*_children(g), bound=Bound(None if b.lo is None else min(b.lo, L),
                                              None if b.hi is None else min(b.hi, L)))


@dataclass
class _Run:
    """One formula's DFA run: the co-safe target (f itself, or !f for a
    safe f) over the words of the node indices `nodes`; `accept` holds one
    acceptance probability per node once `_accept` has run."""

    target: Formula
    safe: bool
    nodes: list
    accept: np.ndarray | None = None

    def probabilities(self) -> list:
        """Per node, P that the formula holds: the acceptance, or its
        complement for a safe formula."""
        probs = [float(a) for a in self.accept]
        return [1.0 - p for p in probs] if self.safe else probs


def _run(f, sub, nodes):
    if not (sub.cosafe or sub.safe):
        raise OutOfScopeError(
            "formula is neither syntactically co-safe nor safe; its satisfaction "
            "is not decidable on finite prefixes"
        )
    return _Run(f if sub.cosafe else Not(f), not sub.cosafe, nodes)


def _probabilities(prior, formulas, nodes) -> list:
    """[{v: P(f at (v, 1))} for f in formulas].

    Each formula is checked, desugared, clipped to the horizon and
    classified once.  A type-I formula is one DFA run over every node; a
    type-II one runs its body over the nodes its outer chain reaches and
    lifts their probabilities through a Poisson-binomial tail.  All runs are
    scored together by `_accept`.
    """
    index = [prior.graph.index_of(v) for v in nodes]
    names = prior.graph.nodes
    rows = {}  # chain -> static reach rows, shared by every run of the call
    parts = []  # per formula: a constant, or (run, None), or (run, (count, reached names))
    for f in formulas:
        if not is_ground(f):
            raise UsageError("formula still has free parameters; instantiate it first")
        g = _clip_bounds(desugar(f), prior.L)
        if isinstance(g, (TrueF, FalseF)):
            parts.append(1.0 if isinstance(g, TrueF) else 0.0)
            continue
        sub = classify_subtype(g)
        if sub.typeII:
            if not isinstance(g, Exists):
                raise OutOfScopeError("type-II route needs a neighbor predicate at the root")
            if g.chain not in rows:
                rows[g.chain] = _static_reach_rows(prior, g.chain)
            reached = [[names[u] for u in np.flatnonzero(rows[g.chain][i])] for i in index]
            inner = sorted({u for r in reached for u in r})
            run = _run(g.body, classify_subtype(g.body), [prior.graph.node_index[u] for u in inner])
            parts.append((run, (int(g.count), reached)))
        elif sub.typeI:
            parts.append((_run(g, sub, index), None))
        else:
            raise OutOfScopeError(
                "satisfaction probability supports only formulas whose neighbor "
                "predicates wrap atoms, or one outer neighbor predicate over a "
                "neighbor-free formula"
            )
    _accept(prior, [part[0] for part in parts if isinstance(part, tuple)], rows)
    out = []
    for part in parts:
        if not isinstance(part, tuple):
            out.append(dict.fromkeys(nodes, part))
            continue
        run, lift = part
        if lift is None:
            out.append(dict(zip(nodes, run.probabilities())))
            continue
        count, reached = lift
        betas = dict(zip((names[u] for u in run.nodes), run.probabilities()))
        out.append({v: float(_poisson_binomial_tail([betas[u] for u in r], count))
                    for v, r in zip(nodes, reached)})
    return out


def _accept(prior, runs, rows):
    """Fill every run's acceptance probabilities.

    Runs whose targets share a skeleton (`automata.skeleton`) share one DFA
    and one backward recursion over all their (run, node) words.  Within a
    skeleton, runs whose predicates differ only in their thresholds, over
    the same nodes, share one `_letters` call with one letter table each.
    A single run computes no skeleton key.
    """
    if len(runs) == 1:
        groups = [[(runs[0], None)]]
    else:
        by_key = {}
        for run in runs:
            key, aps = skeleton(run.target)
            by_key.setdefault(key, []).append((run, aps))
        groups = list(by_key.values())
    for group in groups:
        dfa, first_aps = to_dfa(group[0][0].target, prior.L)
        letter_groups = {}  # (predicate shapes, nodes) -> [slots in group, tables, preds]
        for slot, (run, aps) in enumerate(group):
            aps = first_aps if aps is None else aps
            tables, preds = _letter_table(prior, aps, rows)
            shape = (tuple((ap.op,) if isinstance(ap, Atom) else (ap.body.op, ap.count, ap.chain)
                           for ap in aps), tuple(run.nodes))
            entry = letter_groups.setdefault(shape, [[], [], preds])
            entry[0].append(slot)
            entry[1] += tables
        words = [None] * len(group)
        for slots, tables, preds in letter_groups.values():
            stacked = _letters(tables, preds, group[slots[0]][0].nodes)
            per_run = stacked.reshape(len(stacked), len(slots), prior.L, stacked.shape[2])
            for p, slot in enumerate(slots):
                words[slot] = per_run[:, p]
        accept = _acceptance(dfa, words[0] if len(words) == 1 else np.concatenate(words))
        for (run, _), end in zip(group, np.cumsum([len(w) for w in words])):
            run.accept = accept[end - len(run.nodes):end]


def _acceptance(dfa, words) -> np.ndarray:
    """P that each word, drawn row by row from one (L, letters) array of the
    (N, L, letters) stack, is accepted.  `take` keeps each word's gathered
    values contiguous, so each step is one matrix-vector product per word,
    the same as for a word on its own."""
    u = np.tile(dfa.accepting.astype(float), (len(words), 1))
    for k in range(words.shape[1] - 1, -1, -1):
        u = (u.take(dfa.transitions, axis=1) @ words[:, k, :, None])[..., 0]
    counters["transition_evals"] += dfa.n_states * dfa.n_letters * words.shape[1] * len(words)
    return u[:, dfa.initial]


# ---------------------------------------------------------------------------
# information gain

@dataclass
class InfoGainReport:
    probabilities: dict  # node -> P
    info_gain: dict  # node -> nats per time step
    average_ig: float
    units: str = "nats per time step"


def compute_ig(prior: PriorModel, f: Formula, nodes=None) -> InfoGainReport:
    """Per-node and average information gain of observing that f holds.

    IG_v = -ln(P_v)/L; tautologies, contradictions, and zero-probability
    formulas yield 0.
    """
    return _info_gains(prior, [f], nodes)[0]


def _info_gains(prior, formulas, nodes=None) -> list:
    """compute_ig of every formula, scored together by one _probabilities call."""
    nodes = list(prior.graph.nodes if nodes is None else nodes)
    if not nodes:
        raise UsageError("empty node subset")
    reports = []
    for probs in _probabilities(prior, formulas, nodes):
        # P = 1 exactly (tautologies among them) gains 0, not -0
        igs = {v: 0.0 if p <= 0.0 or p == 1.0 else -math.log(p) / prior.L
               for v, p in probs.items()}
        reports.append(InfoGainReport(probabilities=probs, info_gain=igs,
                                      average_ig=sum(igs.values()) / len(nodes)))
    return reports
