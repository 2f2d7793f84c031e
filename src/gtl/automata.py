"""DFA translation of GTL formulas over atomic-predicate alphabets.

Construction is by formula progression: a state is the residual obligation
(kept as a DNF over temporal subformulas) that the remaining suffix of the
word must satisfy.  Bounded operators count their bounds down; unbounded
ones stay symbolic, so one automaton serves every horizon.  F, G and U
share one progression rule: F b is TRUE U b, and G joins "now" and "later"
by conjunction.  At word end a state accepts iff its residual holds on the
empty suffix (eventualities unwitnessed are false, invariants unviolated
are true), which matches the finite-trace semantics of the evaluation
module exactly.

A residual DNF is only absorbed (no clause contains another); literals
are never checked for implication, so a clause may even contradict
itself.  Semantically equal residuals can thus become distinct states,
and `minimize` merges them.  The minimal DFA is unique, so the result
does not depend on which of two equivalent residuals progression met.

Letters are bitmasks over an ordered atomic-predicate list: either bare
node propositions or neighbor-count predicates applied to one proposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, OutOfScopeError, UsageError
from .formula import (
    Always, And, Atom, Bound, Eventually, Exists, FalseF, Formula, Not, Or,
    TrueF, Until, _children, _keep, _rebuild, _subformulas, desugar, is_ground,
)
from .semantics import _table

TRUE_DNF = frozenset({frozenset()})
FALSE_DNF = frozenset()
#: states above which to_dfa stops construction, before minimization
MAX_DFA_STATES = 10 ** 4


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


def skeleton(f: Formula) -> tuple[Formula, list[Formula]]:
    """(key, aps): f with each atomic predicate replaced by the placeholder
    atom `x <= i`, i its index in aps = extract_aps(f).

    Progression sees a predicate only through its letter bit, so formulas
    with equal keys have the same automaton: to_dfa gives each of them the
    same transitions, acceptance and initial state, over its own aps.  Equal
    thresholds that merge two predicates of one formula change its aps and
    hence its key.
    """
    aps = extract_aps(f)
    index = {ap: i for i, ap in enumerate(aps)}

    def sub(g):
        i = index.get(g)
        return _rebuild(g, sub, _keep) if i is None else Atom("<=", i)

    return sub(f), aps


def label_word(traj, v: str, aps: list[Formula]) -> list[int]:
    """The length-L word of traj at node v: letter k holds the predicates true at time k."""
    vi = traj.graph.index_of(v)
    rows = [_table([traj], ap)[0, vi] for ap in aps]
    return [sum(int(row[k]) << bit for bit, row in enumerate(rows)) for k in range(traj.L)]


# ---------------------------------------------------------------------------
# DNF machinery over obligation literals

def _absorb(clauses):
    """The clauses of a set that no other clause strictly contains."""
    return frozenset([c for c in clauses if not any(c2 < c for c2 in clauses)])


def or_dnf(*dnfs):
    clauses = set()
    for d in dnfs:
        clauses |= d
    if frozenset() in clauses:
        return TRUE_DNF
    return _absorb(clauses)


def and_dnf(a, b):
    clauses = {c1 | c2 for c1 in a for c2 in b}
    if frozenset() in clauses:
        return TRUE_DNF
    return _absorb(clauses)


def _lit(f):
    return frozenset({frozenset({(f, True)})})


# ---------------------------------------------------------------------------
# progression

class _Progression:
    """Formula progression over one alphabet, memoized for one to_dfa call.

    The residuals of one automaton keep meeting the same obligations under
    the same letters, so _prog results are kept per (formula, letter) and
    conjunction and negation results per argument.  The memo lives as long
    as the object, which to_dfa drops when it returns.
    """

    def __init__(self, ap_bits):
        self.ap_bits = ap_bits
        self.memo = {}

    def and_(self, a, b):
        key = ("and", a, b)
        d = self.memo.get(key)
        if d is None:
            d = self.memo[key] = and_dnf(a, b)
        return d

    def negate(self, d):
        key = ("not", d)
        acc = self.memo.get(key)
        if acc is not None:
            return acc
        acc = TRUE_DNF
        for clause in d:
            neg = frozenset(frozenset({(f, not s)}) for f, s in clause)
            if not neg:  # negation of TRUE clause
                acc = FALSE_DNF
                break
            acc = self.and_(acc, neg)
            if acc == FALSE_DNF:
                break
        self.memo[key] = acc
        return acc

    def prog(self, f, letter):
        """DNF of next-step obligations given that f must hold now and the
        current letter is `letter`."""
        key = (f, letter)
        d = self.memo.get(key)
        if d is None:
            d = self.memo[key] = self._prog(f, letter)
        return d

    def _prog(self, f, letter):
        if isinstance(f, TrueF):
            return TRUE_DNF
        if isinstance(f, FalseF):
            return FALSE_DNF
        if isinstance(f, (Atom, Exists)):
            return TRUE_DNF if letter & (1 << self.ap_bits[f]) else FALSE_DNF
        if isinstance(f, Not):
            return self.negate(self.prog(f.sub, letter))
        if isinstance(f, And):
            return self.and_(self.prog(f.left, letter), self.prog(f.right, letter))
        if isinstance(f, Or):
            return or_dnf(self.prog(f.left, letter), self.prog(f.right, letter))
        if isinstance(f, (Eventually, Always, Until)):
            # F b is TRUE U b; G b joins "now" and "later" with and_, not or
            *left, right = kids = _children(f)
            pa = self.prog(left[0], letter) if left else None

            def guard(d):
                return d if pa is None else self.and_(pa, d)

            lo, hi = _bound_parts(f.bound)
            if lo >= 1:
                return guard(_lit(type(f)(*kids, bound=_dec_lo(f.bound))))
            now = guard(self.prog(right, letter))
            if hi == 0:
                return now
            later = guard(_lit(type(f)(*kids, bound=_dec_hi(f.bound))))
            return self.and_(now, later) if isinstance(f, Always) else or_dnf(now, later)
        raise TypeError(f"not a formula node: {f!r}")

    def state(self, state, letter):
        """The residual DNF after reading `letter` in `state`."""
        out = FALSE_DNF
        for clause in state:
            acc = TRUE_DNF
            for f, s in clause:
                d = self.prog(f, letter)
                acc = self.and_(acc, d if s else self.negate(d))
                if acc == FALSE_DNF:
                    break
            out = or_dnf(out, acc)
            if out == TRUE_DNF:
                break
        return out


def _bound_parts(b):
    if b is None:
        return 0, float("inf")
    lo = b.lo if b.lo is not None else 0
    hi = b.hi if b.hi is not None else float("inf")
    return lo, hi


def _dec_lo(bound):
    lo = bound.lo - 1
    return Bound(lo if lo > 0 else None, bound.hi)


def _dec_hi(bound):
    if bound is None or bound.hi is None:
        return bound
    return Bound(bound.lo, bound.hi - 1)


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


def to_dfa(f: Formula) -> tuple[Dfa, list[Formula]]:
    """Build the DFA accepting exactly the words of trajectories satisfying f.

    Returns (dfa, atomic predicate list).  The automaton is horizon-aware
    only through its end-of-word acceptance rule, so the same automaton is
    valid for every word length.  Construction stops with an input error
    once it passes MAX_DFA_STATES states.
    """
    if not is_ground(f):
        raise UsageError("formula still has free parameters; instantiate it first")
    f = desugar(f)
    aps = extract_aps(f)
    prog = _Progression({ap: i for i, ap in enumerate(aps)})
    n_letters = 1 << len(aps)
    init = _lit(f)
    states = {init: 0}
    order = [init]
    trans = []
    queue = [init]
    while queue:
        s = queue.pop(0)
        row = []
        for letter in range(n_letters):
            t = prog.state(s, letter)
            if t not in states:
                if len(order) == MAX_DFA_STATES:
                    raise InputError(
                        f"automaton passes {MAX_DFA_STATES} states; the formula's largest "
                        f"time bound is {max(_all_bounds(f), default='none')}")
                states[t] = len(order)
                order.append(t)
                queue.append(t)
            row.append(states[t])
        trans.append(row)
    transitions = np.array(trans, dtype=np.int64).reshape(len(order), n_letters)
    accepting = np.array([_empty_state(s) for s in order], dtype=bool)
    dfa = Dfa(aps=aps, transitions=transitions, accepting=accepting, initial=0)
    return minimize(dfa), aps


def _all_bounds(f):
    return [v for g in _subformulas(f) if isinstance(g, (Eventually, Always, Until)) and g.bound
            for v in (g.bound.lo, g.bound.hi) if v is not None]


def minimize(dfa: Dfa) -> Dfa:
    """Partition-refinement minimization over reachable states."""
    rows = dfa.transitions.tolist()
    # reachable states only
    reach = {dfa.initial}
    stack = [dfa.initial]
    while stack:
        for t in rows[stack.pop()]:
            if t not in reach:
                reach.add(t)
                stack.append(t)
    reach = sorted(reach)
    remap = {q: i for i, q in enumerate(reach)}
    trans = [[remap[t] for t in rows[q]] for q in reach]
    acc = dfa.accepting[reach]

    block = [1 if a else 0 for a in acc]
    while True:
        sig = {}
        new_block = [sig.setdefault((block[q], tuple([block[t] for t in row])), len(sig))
                     for q, row in enumerate(trans)]
        if new_block == block:
            break
        block = new_block
    k = max(block) + 1
    new_trans = np.zeros((k, dfa.n_letters), dtype=np.int64)
    new_acc = np.zeros(k, dtype=bool)
    for q, row in enumerate(trans):
        new_acc[block[q]] = acc[q]
        new_trans[block[q]] = [block[t] for t in row]
    return Dfa(aps=dfa.aps, transitions=new_trans, accepting=new_acc,
               initial=block[remap[dfa.initial]])
