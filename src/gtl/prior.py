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
The DP steps by reach slot: its s-th step adds every row's own s-th source
node, so it takes as many steps as the largest source count, not one per
graph node.  An outer neighbor-count predicate (type-II) lifts per-neighbor
probabilities through one Poisson-binomial tail over all nodes, stepped by
reach slot the same way.  Rows with fewer sources are padded with steps
that change nothing, exactly.  Information gain is reported in nats per
time step.  Co-safe, safe and constant formulas alike are scored through
their own automaton, which accepts a word of length L exactly when the
formula holds on it.

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
from dataclasses import dataclass, field

import numpy as np

from .automata import skeleton, to_dfa
from .errors import InputError, OutOfScopeError, UsageError
from .formula import (
    Atom, Bound, Exists, Formula, Param, _children, _keep, _rebuild, classify_subtype, desugar,
    is_ground,
)
from .graph import LabeledGraph, _Json, _read_json, reach

#: running totals: readers take differences across the work they measure
counters = {"transition_evals": 0}
#: DP states above which a joint letter distribution assumes independence
MAX_DP_STATES = 10 ** 6


#: node x time x bin cells above which a prior's mass array is refused
MAX_MASS_CELLS = 10 ** 8


@dataclass(frozen=True, eq=False)  # compared by identity, like LabeledGraph
class PriorModel:
    """Independent per-(node, time) histograms over shared bins.

    pmf maps node id -> (L, B) array; nodes absent from the map use
    default_pmf at every time.  Edge labels are constant over time.
    Construction builds and checks every node's histograms once, as the
    read-only (|V|, L, B) array `masses` in graph node order; an L whose
    array would pass MAX_MASS_CELLS is refused before anything is allocated.
    """

    graph: LabeledGraph
    L: int
    bins: tuple  # tuple[(lo, hi), ...], disjoint, covering the support
    pmf: dict
    static_edge_labels: dict
    default_pmf: np.ndarray | None = None
    masses: np.ndarray = field(init=False, repr=False)

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
        V, L, B = self.graph.n_nodes, self.L, len(self.bins)
        if V * int(L) * B > MAX_MASS_CELLS:  # in Python ints, which do not wrap
            raise InputError(f"horizon L={L} is too long: {V} nodes x L x {B} bins passes "
                             f"the cap of {MAX_MASS_CELLS} prior mass cells")
        for v in self.pmf:
            if v not in self.graph.node_index:
                raise InputError(f"pmf references unknown node {v!r}")
        # default_pmf as one row: it serves every time when it has shape (1, B)
        default = None if self.default_pmf is None else np.tile(self.default_pmf, (1, 1))
        masses = np.empty((V, L, B))
        for i, v in enumerate(self.graph.nodes):
            p = self.pmf.get(v)
            if p is None:
                if default is None:
                    raise InputError(f"no pmf for node {v!r} and no default_pmf")
                p = default
            if np.shape(p) != ((1, B) if p is default else (L, B)):
                raise InputError(f"pmf for {v!r} must have shape ({L}, {B})")
            masses[i] = p
        bad = (~np.isfinite(masses).all(axis=(1, 2)) | (masses < 0).any(axis=(1, 2))
               | (abs(masses.sum(axis=2) - 1.0) > 1e-9).any(axis=1))
        if bad.any():
            v = self.graph.nodes[int(np.argmax(bad))]
            raise InputError(f"pmf for {v!r} is not a probability vector")
        for e in self.graph.edges:
            if e not in self.static_edge_labels:
                raise InputError(f"prior is missing an edge label for {e!r}")
            if not math.isfinite(self.static_edge_labels[e]):
                raise InputError(f"prior edge label for {e!r} must be finite")
        masses.flags.writeable = False
        object.__setattr__(self, "masses", masses)

    def node_pmf(self, v: str) -> np.ndarray:
        """Node v's (L, B) histograms, a read-only view into `masses`."""
        return self.masses[self.graph.index_of(v)]

    @classmethod
    def from_json_dict(cls, d, graph: LabeledGraph) -> "PriorModel":
        d = _Json.wrap(d, "prior")
        L = d["L"].int()
        bins = tuple(tuple(b.numbers(2)) for b in d["bins"].list())
        B = len(bins)
        labels = d["edge_labels"].keyed(graph.edges)
        edge_labels = {e: x.real() for e, x in zip(graph.edges, labels)}
        table, default = d.get("pmf", {}), d.get("default_pmf")
        pmf = {v: np.array([row.numbers(B) for row in table[v].list()]) for v in table.obj()}
        return cls(graph=graph, L=L, bins=bins, pmf=pmf, static_edge_labels=edge_labels,
                   default_pmf=None if default.value is None else np.array(default.numbers(B)))

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
    masses = prior.masses @ share
    # cell c lies above ts[:c] and below ts[c:]
    below = np.arange(len(ts) + 1) <= rank[:, None]
    le = np.array([a.op == "<=" for a in atoms], dtype=bool)
    return masses, np.where(le[:, None], below, ~below)


def _reach_rows(prior, chain) -> np.ndarray:
    """(V, V) bool: row v marks the nodes reachable from v through the chain
    under the static edge labels, from one reach array."""
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


def _slots(mask):
    """(S, rows) slots of a 2-D bool mask: [s, i] is the column of row i's
    s-th marked entry, columns ascending, or one past the last column where
    row i has fewer than s + 1; S is the largest count of a row."""
    counts = mask.sum(axis=1)
    row, col = np.nonzero(mask)  # row-major, so each row's columns ascend
    slots = np.full((counts.max(initial=0), len(mask)), mask.shape[1])
    slots[np.arange(len(row)) - (np.cumsum(counts) - counts)[row], row] = col
    return slots


def _lift(betas, n: int, reached):
    """P(at least n of the nodes marked in each row of reached succeed),
    node u with probability betas[u]: one tail over an (S, rows) array of
    each row's reached betas in index order, S the largest reach, padded
    with trials of p = 0.0.  A padded trial leaves every count exactly as it
    is, so each row reads the tail over its own reached nodes bit for bit."""
    return _poisson_binomial_tail(np.append(betas, 0.0)[_slots(reached)], n)


# ---------------------------------------------------------------------------
# joint letter distribution

def _letter_table(prior, aps, rows):
    """([(masses, truth)], preds) of one alphabet: the cell masses and truth
    table of the aps' atoms, and each ap as (n, rows): it holds at v when at
    least n of the nodes marked in rows[v] satisfy its atom.  A bare atom is
    1 of [v]; `rows` maps each chain to its static reach rows, so a chain
    is reached once however many alphabets share the dict."""
    own = np.eye(prior.graph.n_nodes, dtype=bool)
    preds, atoms = [], []
    for ap in aps:
        if isinstance(ap, Atom):
            preds.append((1, own))
            atoms.append(ap)
        elif isinstance(ap, Exists):
            if ap.chain not in rows:
                rows[ap.chain] = _reach_rows(prior, ap.chain)
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
    largest min(n, |reach|) over the batch's nodes.  A node's sources, the
    nodes that one of its predicates reaches, are numbered as slots in index
    order, so the DP takes as many steps as the largest source count, not
    one per graph node.
    """
    m, V = len(preds), len(tables[0][0])
    T = sum(masses.shape[1] for masses, _ in tables)
    ns = np.array([n for n, _ in preds], dtype=int)
    hits = np.array([r[nodes] for _, r in preds], dtype=bool).reshape(m, len(nodes), V)
    caps = np.minimum(ns[:, None], hits.sum(axis=2))
    out = np.empty((len(nodes), T, 1 << m))
    # a float product is exact far above MAX_DP_STATES
    states = np.prod(caps + 1.0, axis=0)
    for i in np.flatnonzero(states > MAX_DP_STATES):
        warnings.warn(
            f"joint letter distribution needs {math.prod(int(c) + 1 for c in caps[:, i])} "
            f"DP states (cap {MAX_DP_STATES}); falling back to predicate independence"
        )
        out[i] = np.concatenate([_independent_letters(masses, truth, ns, hits[:, i])
                                 for masses, truth in tables])
    batch = np.flatnonzero(states <= MAX_DP_STATES)
    if not len(batch):
        return out
    # touched[i, u]: bitmask of the predicates of node i that source u
    # touches; the padding source V touches none
    touched = np.zeros((len(nodes), V + 1), dtype=np.intp)
    touched[:, :V] = ((1 << np.arange(m)) @ hits.reshape(m, len(nodes) * V)).reshape(len(nodes), V)
    slots = _slots(touched[:, :V] != 0)
    sources = slots, touched[np.arange(len(nodes)), slots]
    stack = _stack(tables, V, T)
    # nodes whose pooled state would pass the cap run one by one
    pooled = math.prod(int(c) + 1 for c in caps[:, batch].max(axis=1))
    flat = out.reshape(len(nodes) * T, -1)
    for group in [batch] if pooled <= MAX_DP_STATES else [[i] for i in batch]:
        group_caps = caps[:, group].max(axis=1)
        node_of_row, time_of_row = np.repeat(group, T), np.arange(len(group) * T) % T
        step = max(1, MAX_DP_STATES // math.prod(int(c) + 1 for c in group_caps))
        for lo in range(0, len(node_of_row), step):
            rows = slice(lo, lo + step)
            flat[node_of_row[rows] * T + time_of_row[rows]] = _count_dp(
                stack, ns, group_caps, sources, node_of_row[rows], time_of_row[rows])
    return out


def _stack(tables, V, T):
    """(cells, codes, order) of letter tables stacked on the time axis:
    cells[c, u, t] is source u's mass in cell c at stacked time t, 0.0 past
    the last cell of t's table, and the padding source u = V has mass 1.0
    on cell 0; codes[t, c] is the bitmask of the predicates that hold on
    that cell, and order the 2^m truth patterns by ascending (>= predicates
    true) - (<= predicates true).

    Along the real line each >= predicate turns true once and each <= one
    false once, so that count rises strictly from one cell's pattern of any
    predicate subset to the next: within one table, `order` is the cells'
    order.
    """
    m = len(tables[0][1])
    cells = np.zeros((max(t.shape[1] for _, t in tables), V + 1, T))
    cells[0, V] = 1.0
    codes = np.zeros((T, len(cells)), dtype=np.intp)
    start = 0
    for masses, truth in tables:
        end, width = start + masses.shape[1], masses.shape[2]
        cells[:width, :V, start:end] = masses.transpose(2, 0, 1)
        codes[start:end, :width] = (1 << np.arange(m)) @ truth
        start = end
    # a >= predicate holds on the top cell, a <= one does not
    signs = np.where(tables[0][1][:, -1], 1, -1)
    bits = np.arange(1 << m)[:, None] >> np.arange(m) & 1
    return cells, codes, np.argsort(bits @ signs, kind="stable")


def _count_dp(stack, ns, caps, sources, node_of_row, time_of_row):
    """(rows, 2^m) letter rows for the (node, time) pairs of one chunk.

    Slot s moves each row by its own node's s-th source: the row sums the
    source's cell masses per truth pattern of the predicates that source
    touches, cells in order from 0.0, and adds the patterns' moves in
    `_stack`'s order, which within one table is its cells' order.  A row
    past its last source moves by exactly 1.0 on the empty pattern, and a
    pattern its table lacks adds exactly 0.0, so each row takes exactly the
    steps of its own node's DP.  Predicate j counts on axis m - j, so the
    letters come out in bitmask order.
    """
    cells, codes, order = stack
    m, n_rows = len(ns), len(node_of_row)
    dp = np.zeros((n_rows,) + tuple(int(c) + 1 for c in caps[::-1]))
    dp[(slice(None),) + (0,) * m] = 1.0
    # masses[c, u * T + t] is cell c of source u at stacked time t, and
    # cell_codes[c, r] the patterns of row r's cell c; a pattern's weights
    # sit at [pattern * n_rows + r] of a flat (2^m, rows) array
    masses, cell_codes = cells.reshape(len(cells), -1), codes[time_of_row].T
    slots, keys = sources
    starts, rows = slots * cells.shape[2], np.arange(n_rows)
    for start, key in zip(starts, keys):
        key = key[node_of_row]
        if not key.any():
            break  # slots fill from 0: no row of the chunk has a later source
        got = masses.take(start[node_of_row] + time_of_row, axis=1)
        at = (cell_codes & key) * n_rows + rows
        # bincount adds in input order: each weight is 0.0 plus its cells in order
        weight = np.bincount(at.ravel(), weights=got.ravel(),
                             minlength=(1 << m) * n_rows).reshape(-1, n_rows)
        # a pattern that no row weighs would add exactly 0.0 everywhere
        present, new = weight.any(axis=1), None
        for b in order[present[order]]:
            moved = dp
            for j in range(m):
                if b >> j & 1:
                    moved = _bump(moved, m - j)
            term = weight[b].reshape((-1,) + (1,) * m) * moved
            if new is None:
                new = term
            else:
                new += term
        dp = new
    for j in range(m):
        # count -> (predicate false, predicate true)
        holds = np.eye(2)[(np.arange(caps[j] + 1) >= ns[j]).astype(int)]
        dp = np.moveaxis(np.moveaxis(dp, m - j, -1) @ holds, -1, m - j)
    return dp.reshape(n_rows, -1)


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


def _probabilities(prior, formulas, nodes) -> list:
    """[{v: P(f at (v, 1))} for f in formulas].

    Each formula is checked, desugared, clipped to the horizon and
    classified once, and appends one run to a list: its target and the node
    indices whose words the target reads.  A type-I formula is its own
    target and runs over every node; a type-II one runs its body over the
    nodes its outer chain reaches and lifts their probabilities through a
    Poisson-binomial tail.  Co-safe, safe and constant targets all take
    this one route.  All runs are scored together by `_accept`.
    """
    index = [prior.graph.index_of(v) for v in nodes]
    rows = {}  # chain -> static reach rows, shared by every run of the call
    runs = []  # (target, node indices)
    parts = []  # per formula: its lift, None or (count, reach rows)
    for f in formulas:
        if not is_ground(f):
            raise UsageError("formula still has free parameters; instantiate it first")
        g = _clip_bounds(desugar(f), prior.L)
        sub = classify_subtype(g)
        if sub.typeII:
            if not isinstance(g, Exists):
                raise OutOfScopeError("type-II route needs a neighbor predicate at the root")
            if g.chain not in rows:
                rows[g.chain] = _reach_rows(prior, g.chain)
            reached = rows[g.chain][index]
            run_nodes, lift = np.flatnonzero(reached.any(axis=0)), (int(g.count), reached)
            g = g.body
            sub = classify_subtype(g)
        elif sub.typeI:
            run_nodes, lift = index, None
        else:
            raise OutOfScopeError(
                "satisfaction probability supports only formulas whose neighbor "
                "predicates wrap atoms, or one outer neighbor predicate over a "
                "neighbor-free formula"
            )
        if not (sub.cosafe or sub.safe):
            raise OutOfScopeError(
                "formula is neither syntactically co-safe nor safe; its satisfaction "
                "is not decidable on finite prefixes"
            )
        runs.append((g, run_nodes))
        parts.append(lift)
    out = []
    for lift, accept in zip(parts, _accept(prior, runs, rows)):
        if lift is not None:
            count, reached = lift
            betas = np.zeros(prior.graph.n_nodes)
            betas[reached.any(axis=0)] = accept
            accept = _lift(betas, count, reached)
        # the recursion sums in floating point and may land a few ulps
        # outside [0, 1]; only the reported P is clipped
        out.append(dict(zip(nodes, np.clip(accept, 0.0, 1.0).tolist())))
    return out


def _accept(prior, runs, rows) -> list:
    """Per (target, node indices) run, the acceptance probability of each of
    its nodes' words.

    Runs whose targets share a skeleton (`automata.skeleton`) share one DFA
    and one backward recursion over all their (run, node) words.  Within a
    skeleton, runs whose predicates differ only in their thresholds, over
    the same nodes, share one `_letters` call with one letter table each.
    """
    groups = {}  # skeleton key -> (first target, [(run number, aps)])
    for r, (target, _) in enumerate(runs):
        key, aps = skeleton(target)
        groups.setdefault(key, (target, []))[1].append((r, aps))
    accepts = [None] * len(runs)
    for target, group in groups.values():
        dfa, _ = to_dfa(target)  # bounds already clipped to L
        letter_groups = {}  # (predicate shapes, nodes) -> [slots in group, tables, preds, nodes]
        for slot, (r, aps) in enumerate(group):
            tables, preds = _letter_table(prior, aps, rows)
            nodes = runs[r][1]
            shape = (tuple((ap.op,) if isinstance(ap, Atom) else (ap.body.op, ap.count, ap.chain)
                           for ap in aps), tuple(nodes))
            entry = letter_groups.setdefault(shape, [[], [], preds, nodes])
            entry[0].append(slot)
            entry[1] += tables
        words = [None] * len(group)
        for slots, tables, preds, nodes in letter_groups.values():
            stacked = _letters(tables, preds, nodes)
            per_run = stacked.reshape(len(stacked), len(slots), prior.L, stacked.shape[2])
            for p, slot in enumerate(slots):
                words[slot] = per_run[:, p]
        accept, start = _acceptance(dfa, np.concatenate(words)), 0
        for (r, _), w in zip(group, words):
            accepts[r], start = accept[start:start + len(w)], start + len(w)
    return accepts


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
        # P = 1 (tautologies among them) gains 0, not -0, and so does a P
        # rounded a few ulps above 1
        igs = {v: 0.0 if p <= 0.0 or p >= 1.0 else -math.log(p) / prior.L
               for v, p in probs.items()}
        reports.append(InfoGainReport(probabilities=probs, info_gain=igs,
                                      average_ig=sum(igs.values()) / len(nodes)))
    return reports
