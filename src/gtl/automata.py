"""DFA translation of GTL formulas over atomic-predicate alphabets.

Construction is by formula progression: a state is the residual obligation
(kept as a DNF over temporal subformulas) that the remaining suffix of the
word must satisfy.  Bounded operators count their bounds down; unbounded
ones stay symbolic, so one automaton serves every horizon.  At word end a
state accepts iff its residual holds on the empty suffix (eventualities
unwitnessed are false, invariants unviolated are true), which matches the
finite-trace semantics of the evaluation module exactly.

Letters are bitmasks over an ordered atomic-predicate list: either bare
node propositions or neighbor-count predicates applied to one proposition.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, OutOfScopeError, UsageError
from .formula import (
    Always, And, Atom, Bound, Eventually, Exists, FalseF, Formula, Not, Or,
    TrueF, Until, _children, _subformulas, desugar, is_ground,
)
from .semantics import sat_table

TRUE_DNF = frozenset({frozenset()})
FALSE_DNF = frozenset()


# ---------------------------------------------------------------------------
# atomic predicates

def extract_aps(f: Formula) -> list[Formula]:
    """Ordered, duplicate-free list of atomic predicates of f.

    Predicates are bare atoms or neighbor-count predicates over an atom.
    A neighbor predicate with a non-atomic body cannot be letterized.
    """
    aps = []

    def walk(g):
        if isinstance(g, Exists) and not isinstance(g.body, Atom):
            raise OutOfScopeError(
                "neighbor predicate with a non-atomic body has no letter encoding; "
                "use the type-II route for an outer neighbor predicate"
            )
        if isinstance(g, (Atom, Exists)):
            if g not in aps:
                aps.append(g)
        else:
            for h in _children(g):
                walk(h)

    walk(f)
    return aps


def label_word(traj, v: str, aps: list[Formula]) -> list[int]:
    """The length-L word of traj at node v: letter k holds the predicates true at time k."""
    if v not in traj.graph.node_index:
        raise InputError(f"unknown node id {v!r}")
    vi = traj.graph.node_index[v]
    word = [0] * traj.L
    for bit, ap in enumerate(aps):
        tab = sat_table(traj, ap)
        for k in range(traj.L):
            if tab[vi, k]:
                word[k] |= 1 << bit
    return word


# ---------------------------------------------------------------------------
# DNF machinery over obligation literals

def _implies_lit(l1, l2):
    """Conservative syntactic check that obligation literal l1 implies l2."""
    (f1, s1), (f2, s2) = l1, l2
    if s1 != s2 or not s1:
        return False
    if f1 == f2:
        return True
    if type(f1) is not type(f2):
        return False
    if isinstance(f1, (Eventually, Always)):
        if f1.sub != f2.sub:
            return False
        b1, b2 = f1.bound, f2.bound
        lo1, hi1 = _bound_parts(b1)
        lo2, hi2 = _bound_parts(b2)
        if isinstance(f1, Always):
            # G[>=lo][<=hi] windows: smaller lo and larger hi is stronger;
            # unbounded (lo=0, hi=inf) is strongest.
            return lo1 <= lo2 and hi1 >= hi2
        # F: a tighter window is stronger
        return lo1 >= lo2 and hi1 <= hi2
    if isinstance(f1, Until):
        if f1.left != f2.left or f1.right != f2.right:
            return False
        lo1, hi1 = _bound_parts(f1.bound)
        lo2, hi2 = _bound_parts(f2.bound)
        return lo1 >= lo2 and hi1 <= hi2
    return False


def _bound_parts(b):
    if b is None:
        return 0, float("inf")
    lo = b.lo if b.lo is not None else 0
    hi = b.hi if b.hi is not None else float("inf")
    return lo, hi


def _simplify_clause(clause):
    """Drop literals implied by stronger ones; None if contradictory."""
    lits = list(clause)
    for f, s in lits:
        if (f, not s) in clause:
            return None
    keep = []
    for i, l1 in enumerate(lits):
        implied = False
        for j, l2 in enumerate(lits):
            if i != j and _implies_lit(l2, l1) and not (_implies_lit(l1, l2) and j > i):
                implied = True
                break
        if not implied:
            keep.append(l1)
    return frozenset(keep)


def _absorb(clauses):
    out = []
    for c in clauses:
        if any(c2 <= c and c2 != c for c2 in clauses):
            continue
        if c not in out:
            out.append(c)
    return frozenset(out)


def or_dnf(*dnfs):
    clauses = set()
    for d in dnfs:
        clauses |= d
    if frozenset() in clauses:
        return TRUE_DNF
    return _absorb(clauses)


def and_dnf(a, b):
    clauses = set()
    for c1 in a:
        for c2 in b:
            c = _simplify_clause(c1 | c2)
            if c is not None:
                clauses.add(c)
    if frozenset() in clauses:
        return TRUE_DNF
    return _absorb(clauses)


def negate_dnf(d):
    acc = TRUE_DNF
    for clause in d:
        neg = frozenset(frozenset({(f, not s)}) for f, s in clause)
        if not neg:  # negation of TRUE clause
            return FALSE_DNF
        acc = and_dnf(acc, neg)
        if acc == FALSE_DNF:
            return FALSE_DNF
    return acc


def _lit(f):
    return frozenset({frozenset({(f, True)})})


# ---------------------------------------------------------------------------
# progression

def _prog(f, letter, ap_bits):
    """DNF of next-step obligations given that f must hold now and the
    current letter is `letter`."""
    if isinstance(f, TrueF):
        return TRUE_DNF
    if isinstance(f, FalseF):
        return FALSE_DNF
    if isinstance(f, (Atom, Exists)):
        return TRUE_DNF if letter & (1 << ap_bits[f]) else FALSE_DNF
    if isinstance(f, Not):
        return negate_dnf(_prog(f.sub, letter, ap_bits))
    if isinstance(f, And):
        return and_dnf(_prog(f.left, letter, ap_bits), _prog(f.right, letter, ap_bits))
    if isinstance(f, Or):
        return or_dnf(_prog(f.left, letter, ap_bits), _prog(f.right, letter, ap_bits))
    if isinstance(f, Eventually):
        lo, hi = _bound_parts(f.bound)
        if lo >= 1:
            return _lit(Eventually(f.sub, _dec_lo(f.bound)))
        now = _prog(f.sub, letter, ap_bits)
        if hi == 0:
            return now
        rest = Eventually(f.sub, _dec_hi(f.bound))
        return or_dnf(now, _lit(rest))
    if isinstance(f, Always):
        lo, hi = _bound_parts(f.bound)
        if lo >= 1:
            return _lit(Always(f.sub, _dec_lo(f.bound)))
        now = _prog(f.sub, letter, ap_bits)
        if hi == 0:
            return now
        rest = Always(f.sub, _dec_hi(f.bound))
        return and_dnf(now, _lit(rest))
    if isinstance(f, Until):
        lo, hi = _bound_parts(f.bound)
        pa = _prog(f.left, letter, ap_bits)
        if lo >= 1:
            return and_dnf(pa, _lit(Until(f.left, f.right, _dec_lo(f.bound))))
        pb = _prog(f.right, letter, ap_bits)
        now = and_dnf(pa, pb)
        if hi == 0:
            return now
        rest = Until(f.left, f.right, _dec_hi(f.bound))
        return or_dnf(now, and_dnf(pa, _lit(rest)))
    raise TypeError(f"not a formula node: {f!r}")


def _dec_lo(bound):
    lo = bound.lo - 1
    return Bound(lo if lo > 0 else None, bound.hi)


def _dec_hi(bound):
    if bound is None or bound.hi is None:
        return bound
    return Bound(bound.lo, bound.hi - 1)


def _prog_state(state, letter, ap_bits):
    out = FALSE_DNF
    for clause in state:
        acc = TRUE_DNF
        for f, s in clause:
            d = _prog(f, letter, ap_bits)
            acc = and_dnf(acc, d if s else negate_dnf(d))
            if acc == FALSE_DNF:
                break
        out = or_dnf(out, acc)
        if out == TRUE_DNF:
            break
    return out


def _empty(f):
    """Truth of an obligation on the empty suffix past the trace end."""
    if isinstance(f, TrueF):
        return True
    if isinstance(f, (FalseF, Atom, Exists, Until, Eventually)):
        return False
    if isinstance(f, Always):
        return True
    if isinstance(f, Not):
        return not _empty(f.sub)
    if isinstance(f, And):
        return _empty(f.left) and _empty(f.right)
    if isinstance(f, Or):
        return _empty(f.left) or _empty(f.right)
    raise TypeError(f"not a formula node: {f!r}")


def _empty_state(state):
    return any(all(_empty(f) == s for f, s in clause) for clause in state)


# ---------------------------------------------------------------------------
# the automaton

@dataclass
class Dfa:
    aps: list  # ordered atomic predicates; alphabet is bitmasks over them
    transitions: np.ndarray  # (K, 2^|aps|) int
    accepting: np.ndarray  # (K,) bool
    initial: int = 0
    state_labels: list = field(default_factory=list)

    @property
    def n_states(self):
        return self.transitions.shape[0]

    @property
    def n_letters(self):
        return self.transitions.shape[1]

    def step(self, q, letter):
        if not 0 <= letter < self.n_letters:
            raise InputError(f"letter {letter} outside alphabet of size {self.n_letters}")
        return int(self.transitions[q, letter])

    def run_word(self, word) -> bool:
        q = self.initial
        for letter in word:
            q = self.step(q, letter)
        return bool(self.accepting[q])

    def to_dot(self) -> str:
        lines = ["digraph dfa {", "  rankdir=LR;", '  hidden [shape=none, label=""];']
        for q in range(self.n_states):
            shape = "doublecircle" if self.accepting[q] else "circle"
            lines.append(f'  q{q} [shape={shape}, label="q{q}"];')
        lines.append(f"  hidden -> q{self.initial};")
        for q in range(self.n_states):
            by_target = {}
            for letter in range(self.n_letters):
                by_target.setdefault(int(self.transitions[q, letter]), []).append(letter)
            for tgt, letters in by_target.items():
                label = ",".join(self._letter_text(l) for l in letters)
                lines.append(f'  q{q} -> q{tgt} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)

    def _letter_text(self, letter):
        if not self.aps:
            return "{}"
        names = [str(ap) for bit, ap in enumerate(self.aps) if letter & (1 << bit)]
        return "{" + ";".join(names) + "}"


def to_dfa(f: Formula, L: int | None = None) -> tuple[Dfa, list[Formula]]:
    """Build the DFA accepting exactly the words of trajectories satisfying f.

    Returns (dfa, atomic predicate list).  The automaton is horizon-aware
    only through its end-of-word acceptance rule, so the same automaton is
    valid for every word length; L is used to warn about clipped bounds.
    """
    if not is_ground(f):
        raise UsageError("formula still has free parameters; instantiate it first")
    f = desugar(f)
    if L is not None:
        for b in _all_bounds(f):
            if b > L:
                warnings.warn(f"time bound {b} exceeds horizon {L}; clipped by the finite-trace rule")
    aps = extract_aps(f)
    ap_bits = {ap: i for i, ap in enumerate(aps)}
    n_letters = 1 << len(aps)

    if isinstance(f, TrueF):
        init = TRUE_DNF
    elif isinstance(f, FalseF):
        init = FALSE_DNF
    else:
        init = _lit(f)

    states = {init: 0}
    order = [init]
    trans = []
    queue = [init]
    while queue:
        s = queue.pop(0)
        row = []
        for letter in range(n_letters):
            t = _prog_state(s, letter, ap_bits)
            if t not in states:
                states[t] = len(order)
                order.append(t)
                queue.append(t)
            row.append(states[t])
        trans.append(row)
    transitions = np.array(trans, dtype=np.int64).reshape(len(order), n_letters)
    accepting = np.array([_empty_state(s) for s in order], dtype=bool)
    dfa = Dfa(aps=aps, transitions=transitions, accepting=accepting, initial=0,
              state_labels=[_state_text(s) for s in order])
    return minimize(dfa), aps


def _all_bounds(f):
    return [v for g in _subformulas(f) if isinstance(g, (Eventually, Always, Until)) and g.bound
            for v in (g.bound.lo, g.bound.hi) if v is not None]


def _state_text(state):
    if state == TRUE_DNF:
        return "TRUE"
    if state == FALSE_DNF:
        return "FALSE"
    parts = []
    for clause in sorted(state, key=lambda c: sorted(str(l) for l in c)):
        lits = [("" if s else "!") + str(g) for g, s in sorted(clause, key=str)]
        parts.append(" & ".join(lits))
    return " | ".join(f"({p})" for p in parts)


def minimize(dfa: Dfa) -> Dfa:
    """Partition-refinement minimization over reachable states."""
    # reachable states only
    reach = {dfa.initial}
    stack = [dfa.initial]
    while stack:
        q = stack.pop()
        for letter in range(dfa.n_letters):
            t = int(dfa.transitions[q, letter])
            if t not in reach:
                reach.add(t)
                stack.append(t)
    reach = sorted(reach)
    remap = {q: i for i, q in enumerate(reach)}
    trans = dfa.transitions[reach]
    trans = np.vectorize(remap.get)(trans) if len(reach) else trans
    acc = dfa.accepting[reach]
    labels = [dfa.state_labels[q] for q in reach] if dfa.state_labels else []

    n = len(reach)
    block = [1 if acc[q] else 0 for q in range(n)]
    while True:
        sig = {}
        new_block = [0] * n
        for q in range(n):
            key = (block[q], tuple(block[int(trans[q, a])] for a in range(dfa.n_letters)))
            if key not in sig:
                sig[key] = len(sig)
            new_block[q] = sig[key]
        if new_block == block:
            break
        block = new_block
    k = max(block) + 1
    new_trans = np.zeros((k, dfa.n_letters), dtype=np.int64)
    new_acc = np.zeros(k, dtype=bool)
    new_labels = [""] * k
    for q in range(n):
        b = block[q]
        new_acc[b] = acc[q]
        if labels:
            new_labels[b] = labels[q]
        for a in range(dfa.n_letters):
            new_trans[b, a] = block[int(trans[q, a])]
    return Dfa(aps=dfa.aps, transitions=new_trans, accepting=new_acc,
               initial=block[remap[dfa.initial]], state_labels=new_labels)


def run_word(dfa: Dfa, word) -> bool:
    return dfa.run_word(word)
