"""DFA translation of GTL formulas over atomic-predicate alphabets.

Construction is two breadth-first passes.  The first builds a monitor that
reads a word backward, last letter first, where a future-time formula is a
past-time one: its truth at a letter follows from its children's truth
there and one bounded integer per temporal subformula (Havelund & Rosu,
TACAS 2002).  A monitor state is those integers and whether the formula
holds at the letter just read.  It starts on the empty suffix past the
trace end, where F and U are false and G is true, as in the finite-trace
semantics of the evaluation module.  The second pass determinizes the
monitor's reverse, from the set of states where the formula holds.  Every
monitor state is reachable, so the sets reached form the minimal DFA of
the formula's words (Brzozowski, 1962), and numbering them breadth first,
letters in order, makes the automaton a function of the language alone.

Letters are bitmasks over an ordered atomic-predicate list: either bare
node propositions or neighbor-count predicates applied to one proposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, OutOfScopeError, UsageError
from .formula import (
    TRUE, Always, And, Atom, Eventually, Exists, FalseF, Formula, Not, Or, Until,
    _children, _keep, _rebuild, _subformulas, desugar, is_ground,
)
from .semantics import _table

#: states above which to_dfa stops building the DFA
MAX_DFA_STATES = 10 ** 4
#: states above which to_dfa stops building the monitor, where sibling
#: bounds multiply: `F[<=h] a & F[<=h] b` has (h+2)^2 monitor states and 3h+3
#: DFA states.  Near the cap a build takes 2 to 13 s over 4 to 32 letters.
MAX_MONITOR_STATES = 10 ** 5


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

    The monitor sees a predicate only through its letter bit, so formulas
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
    """The minimal DFA of the words of trajectories satisfying f, and f's
    atomic predicates.

    One automaton serves every word length: only its acceptance at word
    end sees the horizon.  Construction stops with an input error once the
    monitor passes MAX_MONITOR_STATES states or the DFA MAX_DFA_STATES.
    """
    if not is_ground(f):
        raise UsageError("formula still has free parameters; instantiate it first")
    f = desugar(f)
    aps = extract_aps(f)
    trans, holds = _monitor(f, aps)
    back, m = trans.T, len(holds)  # back[letter, p]: p's successor on the letter
    sets = _Numbering(f, MAX_DFA_STATES, "states")  # sets of monitor states, as packed bits
    sets[np.packbits(holds).tobytes()]  # the first: the states where f holds
    rows, accepting = [], []
    for key in sets.order:
        s = np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=m)
        accepting.append(bool(s[0]))
        rows.append([sets[t.tobytes()] for t in np.packbits(s[back], axis=1)])
    return Dfa(aps=aps, transitions=np.array(rows, dtype=np.int64).reshape(len(rows), -1),
               accepting=np.array(accepting, dtype=bool), initial=0), aps


class _Numbering(dict):
    """Breadth-first numbers for up to `limit` states, called `noun` in the
    error: an unseen state gets the next number; `order` lists them by number."""

    def __init__(self, f, limit, noun):
        super().__init__()
        self.f, self.limit, self.noun, self.order = f, limit, noun, []

    def __missing__(self, state):
        if len(self.order) == self.limit:
            bounds = [v for g in _subformulas(self.f) if isinstance(g, (Eventually, Always, Until))
                      and g.bound for v in (g.bound.lo, g.bound.hi) if v is not None]
            raise InputError(f"automaton passes {self.limit} {self.noun}; the formula's "
                             f"largest time bound is {max(bounds, default='none')}")
        self[state] = len(self.order)
        self.order.append(state)
        return self[state]


# ---------------------------------------------------------------------------
# the monitor on reversed words

_NOT, _AND, _OR, _NEAR, _FAR = range(5)


def _monitor(f, aps):
    """(transitions, holds) of the desugared f's monitor on reversed words:
    an (M, 2^|aps|) successor array from start state 0, and whether f holds
    at the letter each state has just read."""
    rows, steps, init, root = _program(f, aps)
    states = _Numbering(f, MAX_MONITOR_STATES, "monitor states")
    # the start: on the empty suffix every atomic predicate is false, as in letter 0
    states[_advance(steps, init, rows[0][:], root, empty=True)]
    trans = np.fromiter((states[_advance(steps, comps, r[:], root)]  # 8 bytes a transition
                         for comps, _ in states.order for r in rows), dtype=np.int64)
    holds = np.array([h for _, h in states.order])
    return trans.reshape(len(holds), len(rows)), holds


def _program(f, aps):
    """(rows, steps, init, root): the desugared f compiled for the monitor.

    Nodes are numbered in post-order, equal subformulas once, node 0 always
    true; an atomic predicate is a leaf, so an `E` body is not entered.
    rows[letter] lists every node's truth at that letter, exact for nodes
    with no temporal operator beneath them.  steps evaluates the others,
    children first, as tuples (op, node, a, b, slot, n, neg).

    A temporal node keeps one integer in its slot of the components.  Its
    guard is node a (U's left operand, else node 0) and its witness node b
    (U's right operand, F's body, or G's body negated: neg).  Under [<=n]
    the integer is the distance to the nearest witness within the guard's
    current run, capped at n+1; otherwise the distance to the farthest one,
    capped at n (the lower bound, or 0), or -1 for none.  F and U hold when
    a witness is found, G when none is.  init holds the integers on the
    empty suffix.
    """
    bit = {ap: i for i, ap in enumerate(aps)}
    letters = np.arange(1 << len(aps))
    cols, index, dynamic = [np.ones(letters.shape, dtype=bool)], {TRUE: 0}, [False]
    steps, init = [], []

    def visit(g):
        if g in index:
            return index[g]
        kids = () if isinstance(g, (Atom, Exists)) else tuple(map(visit, _children(g)))
        i = index[g] = len(cols)
        if isinstance(g, (Atom, Exists)):
            col, step = (letters >> bit[g]) & 1 == 1, None
        elif isinstance(g, FalseF):
            col, step = ~cols[0], None
        elif isinstance(g, Not):
            col, step = ~cols[kids[0]], (_NOT, i, kids[0], 0, 0, 0, False)
        elif isinstance(g, And):
            col, step = cols[kids[0]] & cols[kids[1]], (_AND, i, *kids, 0, 0, False)
        elif isinstance(g, Or):
            col, step = cols[kids[0]] | cols[kids[1]], (_OR, i, *kids, 0, 0, False)
        else:
            a, b = kids if isinstance(g, Until) else (0, kids[0])
            lo, hi = (None, None) if g.bound is None else (g.bound.lo, g.bound.hi)
            n = (lo or 0) if hi is None else hi
            col = cols[0]  # a placeholder
            step = (_FAR if hi is None else _NEAR, i, a, b, len(init), n, isinstance(g, Always))
            init.append(-1 if hi is None else n + 1)
        cols.append(col)
        dynamic.append(isinstance(g, (Eventually, Always, Until)) or any(dynamic[k] for k in kids))
        if dynamic[i]:
            steps.append(step)
        return i

    root = visit(f)
    return np.array(cols).T.tolist(), steps, tuple(init), root


def _advance(steps, comps, v, root, empty=False):
    """The monitor state after reading the letter whose node row is v, from
    the components of the suffix after it: (components, f holds).  Evaluates
    the steps' nodes into v.  On the empty suffix F and U are false, G is
    true, and the components stay."""
    c = list(comps)
    for op, i, a, b, j, n, neg in steps:
        if op == _NOT:
            v[i] = not v[a]
        elif op == _AND:
            v[i] = v[a] and v[b]
        elif op == _OR:
            v[i] = v[a] or v[b]
        elif empty:
            v[i] = neg
        elif op == _NEAR:
            c[j] = x = n + 1 if not v[a] else 0 if v[b] != neg else min(c[j] + 1, n + 1)
            v[i] = (x <= n) != neg
        else:
            x = c[j]
            c[j] = x = -1 if not v[a] else min(x + 1, n) if x >= 0 else 0 if v[b] != neg else -1
            v[i] = (x >= n) != neg
    return tuple(c), v[root]
