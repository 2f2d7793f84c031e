"""Factored prior over trajectories and exact satisfaction probabilities.

The prior assigns every (node, time) an independent histogram over a shared
set of label bins, with within-bin uniformity, and holds edge labels fixed.
Satisfaction probabilities run a backward recursion over the formula's DFA
using exact joint letter distributions; an outer neighbor-count predicate
(type-II) lifts per-neighbor probabilities through a Poisson-binomial tail.
Information gain is reported in nats per time step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .automata import extract_aps, to_dfa
from .errors import InputError, OutOfScopeError, UsageError
from .formula import (
    Atom, Exists, FalseF, Formula, Not, TrueF, classify_subtype, desugar,
    is_ground,
)
from .graph import LabeledGraph, NodeProposition, _read_json

#: running totals used by the complexity tests; see reset_counters().
counters = {"transition_evals": 0}


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
            if (p < 0).any() or (abs(p.sum(axis=1) - 1.0) > 1e-9).any():
                raise InputError(f"pmf for {v!r} is not a probability vector")
        for e in self.graph.edges:
            if e not in self.static_edge_labels:
                raise InputError(f"prior is missing an edge label for {e!r}")

    def node_pmf(self, v: str) -> np.ndarray:
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
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed prior file: {exc}") from exc
        pmf = {v: np.asarray(rows, dtype=float) for v, rows in d.get("pmf", {}).items()}
        default = d.get("default_pmf")
        default = np.asarray(default, dtype=float) if default is not None else None
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
# predicate probabilities

def _bin_fraction(lo, hi, prop: NodeProposition) -> float:
    """Fraction of the interval [lo, hi) inside the proposition's region."""
    if prop.op == "<=":
        return min(max((prop.threshold - lo) / (hi - lo), 0.0), 1.0)
    return min(max((hi - prop.threshold) / (hi - lo), 0.0), 1.0)


def atom_probability(prior: PriorModel, prop, v: str, k: int) -> float:
    """Probability that the node proposition holds at (v, k) under the prior."""
    if isinstance(prop, Atom):
        prop = prop.prop()
    if not 1 <= k <= prior.L:
        raise InputError(f"time index {k} outside 1..{prior.L}")
    p = prior.node_pmf(v)[k - 1]
    return float(sum(p[i] * _bin_fraction(lo, hi, prop)
                     for i, (lo, hi) in enumerate(prior.bins)))


def static_reach(prior: PriorModel, v: str, chain) -> list[str]:
    """Nodes reachable from v through the chain under the static edge labels."""
    g = prior.graph
    if v not in g.node_index:
        raise InputError(f"unknown node id {v!r}")
    props = [e.prop() if hasattr(e, "prop") else e for e in chain]
    frontier = {g.node_index[v]}
    for prop in props:
        nxt = set()
        for j, eid in enumerate(g.edges):
            if prop.holds(prior.static_edge_labels[eid]):
                ia, ib = g.edge_ends[j]
                if ia in frontier:
                    nxt.add(int(ib))
                if ib in frontier:
                    nxt.add(int(ia))
        frontier = nxt
    return [g.nodes[i] for i in sorted(frontier)]


def _poisson_binomial_tail(probs, n: int) -> float:
    """P(at least n successes) for independent Bernoulli trials."""
    if n <= 0:
        return 1.0
    if n > len(probs):
        return 0.0
    # dp[c] = P(c successes so far), with all counts >= n pooled at n
    dp = np.zeros(n + 1)
    dp[0] = 1.0
    for p in probs:
        pooled = dp[n] + dp[n - 1] * p
        dp[1:n] = dp[1:n] * (1 - p) + dp[:n - 1] * p
        dp[0] *= 1 - p
        dp[n] = pooled
    return float(dp[n])


def exists_probability(prior: PriorModel, n: int, chain, prop, v: str, k: int) -> float:
    """Probability that >= n nodes reachable from v satisfy prop at time k."""
    reach = static_reach(prior, v, chain)
    probs = [atom_probability(prior, prop, u, k) for u in reach]
    return _poisson_binomial_tail(probs, n)


# ---------------------------------------------------------------------------
# joint letter distribution

def letter_distribution(prior: PriorModel, aps, v: str, k: int,
                        cap: int = 10 ** 6) -> np.ndarray:
    """Exact joint distribution over predicate bitmasks at (v, k).

    Factors over the nodes the predicates touch; predicates sharing nodes
    stay exactly correlated.  Above the DP state-space cap, falls back to
    predicate independence with a warning.
    """
    n_ap = len(aps)
    bare = []  # (ap index, NodeProposition)
    exist = []  # (ap index, N, reach list, NodeProposition)
    for i, ap in enumerate(aps):
        if isinstance(ap, Atom):
            bare.append((i, ap.prop()))
        elif isinstance(ap, Exists):
            reach = static_reach(prior, v, ap.chain)
            exist.append((i, int(ap.count), reach, ap.body.prop()))
        else:
            raise UsageError(f"not an atomic predicate: {ap}")

    states = 1 << len(bare)
    for _, n, reach, _ in exist:
        states *= min(n, len(reach)) + 1
    if states > cap:
        warnings.warn(
            f"joint letter distribution needs {states} DP states (cap {cap}); "
            "falling back to predicate independence"
        )
        return _independent_letters(prior, aps, bare, exist, v, k)

    # per involved node: distribution over the local truth vector of all
    # propositions that touch it
    involved = sorted({u for _, _, reach, _ in exist for u in reach} | {v})
    node_props = {u: [] for u in involved}  # list of (slot, prop)
    # slots: 0..len(bare)-1 are bare-atom bits (only at v), then one count
    # slot per exists predicate
    for j, (_, prop) in enumerate(bare):
        node_props[v].append(("bare", j, prop))
    for j, (_, _, reach, prop) in enumerate(exist):
        for u in reach:
            node_props[u].append(("count", j, prop))

    caps = [min(n, len(reach)) for _, n, reach, _ in exist]
    dp = {(0,) * (len(bare) + len(exist)): 1.0}
    for u in involved:
        props = node_props[u]
        if not props:
            continue
        local = _local_truth_distribution(prior, u, k, [p for _, _, p in props])
        new = {}
        for state, mass in dp.items():
            for truth, q in local:
                if q == 0.0:
                    continue
                s = list(state)
                for (kind, j, _), t in zip(props, truth):
                    if not t:
                        continue
                    if kind == "bare":
                        s[j] = 1
                    else:
                        slot = len(bare) + j
                        s[slot] = min(s[slot] + 1, caps[j])
                key = tuple(s)
                new[key] = new.get(key, 0.0) + mass * q
        dp = new

    out = np.zeros(1 << n_ap)
    for state, mass in dp.items():
        letter = 0
        for j, (i, _) in enumerate(bare):
            if state[j]:
                letter |= 1 << i
        for j, (i, n, reach, _) in enumerate(exist):
            if len(reach) >= n and state[len(bare) + j] >= caps[j]:
                letter |= 1 << i
        out[letter] += mass
    return out


def _local_truth_distribution(prior, u, k, props):
    """[(truth tuple, probability)] for the given propositions at (u, k)."""
    # subdivide each bin at the thresholds that fall inside it
    thresholds = sorted({p.threshold for p in props})
    pmf = prior.node_pmf(u)[k - 1]
    masses = {}
    for i, (lo, hi) in enumerate(prior.bins):
        cuts = [lo] + [t for t in thresholds if lo < t < hi] + [hi]
        for a, b in zip(cuts, cuts[1:]):
            mid = 0.5 * (a + b)
            truth = tuple(p.holds(mid) for p in props)
            masses[truth] = masses.get(truth, 0.0) + pmf[i] * (b - a) / (hi - lo)
    return list(masses.items())


def _independent_letters(prior, aps, bare, exist, v, k):
    marg = np.zeros(len(aps))
    for i, prop in bare:
        marg[i] = atom_probability(prior, prop, v, k)
    for i, n, reach, prop in exist:
        probs = [atom_probability(prior, prop, u, k) for u in reach]
        marg[i] = _poisson_binomial_tail(probs, n)
    out = np.ones(1 << len(aps))
    for letter in range(len(out)):
        for i in range(len(aps)):
            out[letter] *= marg[i] if letter & (1 << i) else 1 - marg[i]
    return out


# ---------------------------------------------------------------------------
# satisfaction probability (backward DFA recursion)

def _dfa_probability(prior: PriorModel, f: Formula, v: str, cap: int) -> float:
    """P over the prior that the word of (v, 1..L) is accepted by f's DFA."""
    dfa, aps = to_dfa(f, prior.L)
    n_letters = dfa.n_letters
    u = dfa.accepting.astype(float)
    for ell in range(prior.L, 0, -1):
        dist = letter_distribution(prior, aps, v, ell, cap=cap)
        nxt = np.zeros(dfa.n_states)
        for q in range(dfa.n_states):
            nxt[q] = float(np.dot(dist, u[dfa.transitions[q]]))
        counters["transition_evals"] += dfa.n_states * n_letters
        u = nxt
    return float(u[dfa.initial])


def satisfaction_probability(prior: PriorModel, f: Formula, v: str,
                             cap: int = 10 ** 6) -> float:
    """Exact probability that a prior-drawn trajectory satisfies f at (v, 1)."""
    if not is_ground(f):
        raise UsageError("formula still has free parameters; instantiate it first")
    g = desugar(f)
    if isinstance(g, TrueF):
        return 1.0
    if isinstance(g, FalseF):
        return 0.0
    sub = classify_subtype(g)
    if sub.typeII:
        root = g
        if not isinstance(root, Exists):
            raise OutOfScopeError("type-II route needs a neighbor predicate at the root")
        inner = root.body
        reach = static_reach(prior, v, root.chain)
        n = int(root.count)
        if len(reach) < n:
            return 0.0
        betas = [_inner_probability(prior, inner, u, cap) for u in reach]
        return _poisson_binomial_tail(betas, n)
    if sub.typeI:
        return _inner_probability(prior, g, v, cap)
    raise OutOfScopeError(
        "satisfaction probability supports only formulas whose neighbor "
        "predicates wrap atoms, or one outer neighbor predicate over a "
        "neighbor-free formula"
    )


def _inner_probability(prior, f, v, cap):
    sub = classify_subtype(f)
    if sub.cosafe:
        return _dfa_probability(prior, f, v, cap)
    if sub.safe:
        return 1.0 - _dfa_probability(prior, Not(f), v, cap)
    raise OutOfScopeError(
        "formula is neither syntactically co-safe nor safe; its satisfaction "
        "is not decidable on finite prefixes"
    )


# ---------------------------------------------------------------------------
# information gain

@dataclass
class InfoGainReport:
    probabilities: dict  # node -> P
    info_gain: dict  # node -> nats per time step
    average_ig: float
    units: str = "nats per time step"


def compute_ig(prior: PriorModel, f: Formula, nodes=None,
               cap: int = 10 ** 6) -> InfoGainReport:
    """Per-node and average information gain of observing that f holds.

    IG_v = -ln(P_v)/L; tautologies, contradictions, and zero-probability
    formulas yield 0.
    """
    if nodes is None:
        nodes = list(prior.graph.nodes)
    else:
        nodes = list(nodes)
        for v in nodes:
            if v not in prior.graph.node_index:
                raise InputError(f"unknown node id {v!r}")
        if not nodes:
            raise UsageError("empty node subset")
    g = desugar(f)
    trivial = isinstance(g, (TrueF, FalseF))
    probs, igs = {}, {}
    for v in nodes:
        p = satisfaction_probability(prior, f, v, cap=cap)
        probs[v] = p
        igs[v] = 0.0 if (trivial or p <= 0.0) else -math.log(p) / prior.L
    avg = sum(igs.values()) / len(nodes)
    return InfoGainReport(probabilities=probs, info_gain=igs, average_ig=avg)
