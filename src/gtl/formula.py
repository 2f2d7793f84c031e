"""pGTL formula abstract syntax, text grammar, and structural analyses.

Formulas are immutable trees.  Thresholds, neighbor counts and time bounds
are either literals or named parameters (written `?name` in the concrete
syntax); a parameter-free formula is a GTL formula and can be evaluated.

Grammar (whitespace-insensitive)::

    formula  := implic
    implic   := orexpr [ "->" implic ]
    orexpr   := andexpr { "|" andexpr }
    andexpr  := until { "&" until }
    until    := unary [ "U" [bound] until ]
    unary    := "!" unary | ("G"|"F") [bound] unary | exists
              | atom | "(" formula ")" | "TRUE" | "FALSE"
    bound    := "[>=" intval "]" | "[<=" intval "]" | "[>=" intval "][<=" intval "]"
    exists   := "E" intval { "via" "(" edgeatom ")" } ":" unary
    atom     := "x" ("<="|">=") numval     edgeatom := "y" ("<="|">=") numval
    intval   := integer | "?" name         numval   := number | "?" name

An integer literal is at most 2^53 in magnitude, so it is exact as a float.
A time bound and a neighbor count are never negative.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from .errors import InputError, ParseError, UsageError


@dataclass(frozen=True)
class Param:
    name: str

    def __str__(self):
        return f"?{self.name}"


Value = Union[int, float, Param]


def _check_threshold(what, op, threshold):
    """Threshold predicates compare with <= or >= against a finite number;
    a parameter is checked as the literal that instantiate puts in its place."""
    if op not in ("<=", ">="):
        raise InputError(f"{what} operator must be <= or >=, got {op!r}")
    try:
        finite = isinstance(threshold, Param) or math.isfinite(threshold)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise InputError(f"{what} threshold must be finite, got {threshold}")


def _fmt_value(v: Value) -> str:
    if isinstance(v, Param):
        return str(v)
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return str(v)


@dataclass(frozen=True)
class EdgeAtom:
    """Edge proposition: y <= t or y >= t, t literal or parameter."""

    op: str
    threshold: Value

    def __post_init__(self):
        _check_threshold("edge proposition", self.op, self.threshold)

    def holds(self, values):
        """Whether the proposition holds on edge label(s) values; the
        threshold is compared as a float."""
        if isinstance(self.threshold, Param):
            raise UsageError(f"edge proposition still parameterized by {self.threshold}")
        t = float(self.threshold)
        return values <= t if self.op == "<=" else values >= t

    def __str__(self):
        return f"y {self.op} {_fmt_value(self.threshold)}"


@dataclass(frozen=True)
class Bound:
    """Time bound on a temporal operator: >= lo, <= hi, or both (paired)."""

    lo: Optional[Value] = None
    hi: Optional[Value] = None

    def __post_init__(self):
        for v in (self.lo, self.hi):
            if v is not None and not isinstance(v, Param) and v < 0:
                raise InputError(f"time bound must be non-negative, got {v}")

    @property
    def paired(self):
        return self.lo is not None and self.hi is not None

    def __str__(self):
        parts = []
        if self.lo is not None:
            parts.append(f"[>={_fmt_value(self.lo)}]")
        if self.hi is not None:
            parts.append(f"[<={_fmt_value(self.hi)}]")
        return "".join(parts)


class Formula:
    """Base class; all nodes are frozen dataclasses and hashable (see _node)."""

    _hash = None  # a node's own cached hash shadows this once computed

    def __getstate__(self):
        # the cached hash is salted per process, so pickles never carry it
        state = {k: v for k, v in self.__dict__.items() if k != "_hash"}
        return state or None

    def __and__(self, other):
        return And(self, other)

    def __or__(self, other):
        return Or(self, other)

    def __invert__(self):
        return Not(self)

    def __str__(self):
        return print_formula(self)


def _node(cls):
    """A frozen-dataclass formula node that computes its structural hash on
    first use and keeps it outside its fields, so ==, repr and pickles never
    see it.  The evaluator's table memo, skeleton grouping and the DFA
    monitor's node index hash the same subtrees many times over."""
    cls = dataclass(frozen=True)(cls)
    structural = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = structural(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    return cls


@_node
class TrueF(Formula):
    pass


@_node
class FalseF(Formula):
    pass


@_node
class Atom(Formula):
    op: str  # "<=" or ">="
    threshold: Value

    def __post_init__(self):
        _check_threshold("node proposition", self.op, self.threshold)


@_node
class Exists(Formula):
    count: Value
    chain: tuple  # tuple[EdgeAtom, ...]
    body: Formula

    def __post_init__(self):
        if not self.chain:
            raise InputError("neighbor chain must have length >= 1")
        if not isinstance(self.count, Param) and self.count < 0:
            raise InputError(f"neighbor count must be non-negative, got {self.count}")


@_node
class Not(Formula):
    sub: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Until(Formula):
    left: Formula
    right: Formula
    bound: Optional[Bound] = None


@_node
class Eventually(Formula):
    sub: Formula
    bound: Optional[Bound] = None


@_node
class Always(Formula):
    sub: Formula
    bound: Optional[Bound] = None


TRUE = TrueF()
FALSE = FalseF()


# ---------------------------------------------------------------------------
# structure: _children, _rebuild and _signed_slots (with its direction table
# _SLOT_SIGN) are the only places that know which fields are subformulas or
# slots.  Node kinds are matched exactly; formula nodes are not meant to be
# subclassed.

def _children(f):
    """Direct subformulas of f, in slot order."""
    cls = type(f)
    if cls is And or cls is Or or cls is Implies or cls is Until:
        return (f.left, f.right)
    if cls is Not or cls is Eventually or cls is Always:
        return (f.sub,)
    if cls is Exists:
        return (f.body,)
    if cls is Atom or cls is TrueF or cls is FalseF:
        return ()
    raise TypeError(f"not a formula node: {f!r}")


def _rebuild(f, sub, param):
    """f with each direct subformula g replaced by sub(g) and each parameter
    slot p by param(p, kind); literal slots are kept.

    Slots are visited before subformulas, both in slot order.  A node whose
    parts all come back unchanged is returned as is, so a pass that changes
    nothing allocates nothing.
    """
    cls = type(f)
    if cls is Atom:
        t = param(f.threshold, "continuous") if isinstance(f.threshold, Param) else f.threshold
        return f if t is f.threshold else Atom(f.op, t)
    if cls is Exists:
        count = param(f.count, "integer") if isinstance(f.count, Param) else f.count
        chain, i = f.chain, 0
        for e in f.chain:
            if isinstance(e.threshold, Param):
                t = param(e.threshold, "continuous")
                if t is not e.threshold:
                    chain = chain[:i] + (EdgeAtom(e.op, t),) + chain[i + 1:]
            i += 1
        body = sub(f.body)
        if count is f.count and chain is f.chain and body is f.body:
            return f
        return Exists(count, chain, body)
    if cls is And or cls is Or or cls is Implies:
        left, right = sub(f.left), sub(f.right)
        return f if left is f.left and right is f.right else cls(left, right)
    if cls is Not:
        s = sub(f.sub)
        return f if s is f.sub else Not(s)
    if cls is Eventually or cls is Always or cls is Until:
        b = f.bound
        if b is not None:
            lo = param(b.lo, "integer") if isinstance(b.lo, Param) else b.lo
            hi = param(b.hi, "integer") if isinstance(b.hi, Param) else b.hi
            if lo is not b.lo or hi is not b.hi:
                b = Bound(lo, hi)
        if cls is Until:
            left, right = sub(f.left), sub(f.right)
            if left is f.left and right is f.right and b is f.bound:
                return f
            return Until(left, right, b)
        s = sub(f.sub)
        return f if s is f.sub and b is f.bound else cls(s, b)
    if cls is TrueF or cls is FalseF:
        return f
    raise TypeError(f"not a formula node: {f!r}")


#: what raising a slot's value does to satisfaction of its node, the node's
#: subformulas held fixed: 1 eases it, -1 hardens it, 0 can do either.  A
#: threshold's sign follows its comparison; a neighbor count's and a time
#: bound's (lo, hi) follow the node kind.
_SLOT_SIGN = {"<=": 1, ">=": -1, Exists: -1,
              Eventually: (-1, 1), Always: (1, -1), Until: (0, 0)}


def _signed_slots(f):
    """(value, sign) of each slot of node f, literal or parameter; see _SLOT_SIGN."""
    cls = type(f)
    if cls is Atom:
        return ((f.threshold, _SLOT_SIGN[f.op]),)
    if cls is Exists:
        return ((f.count, _SLOT_SIGN[Exists]), *((e.threshold, _SLOT_SIGN[e.op]) for e in f.chain))
    if (cls is Eventually or cls is Always or cls is Until) and f.bound is not None:
        lo, hi = _SLOT_SIGN[cls]
        return ((f.bound.lo, lo), (f.bound.hi, hi))
    return ()


def _subformulas(f):
    """f and all its subformulas, in pre-order."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        out.append(g)
        stack.extend(reversed(_children(g)))
    return out


def _map_params(f, param):
    """f with every parameter slot p replaced by param(p, kind)."""

    def sub(g):
        return _rebuild(g, sub, param)

    return sub(f)


def _keep(p, kind):
    return p


# ---------------------------------------------------------------------------
# printing

_LEVEL_IMPLIC, _LEVEL_OR, _LEVEL_AND, _LEVEL_UNTIL, _LEVEL_UNARY = range(5)


def print_formula(f: Formula) -> str:
    return _print(f, _LEVEL_IMPLIC)


#: binary kinds: operator, own level, and the levels of the left and right operands
_INFIX = {Implies: ("->", _LEVEL_IMPLIC, _LEVEL_OR, _LEVEL_IMPLIC),
          Or: ("|", _LEVEL_OR, _LEVEL_OR, _LEVEL_AND),
          And: ("&", _LEVEL_AND, _LEVEL_AND, _LEVEL_UNTIL),
          Until: ("U", _LEVEL_UNTIL, _LEVEL_UNARY, _LEVEL_UNTIL)}
_PREFIX = {Not: "!", Eventually: "F", Always: "G"}


def _print(f, ctx):
    cls = type(f)
    bound = getattr(f, "bound", None) or ""
    if cls in _INFIX:
        op, level, left, right = _INFIX[cls]
        text = f"{_print(f.left, left)} {op}{bound} {_print(f.right, right)}"
        return f"({text})" if ctx > level else text
    if cls in _PREFIX:
        return f"{_PREFIX[cls]}{bound} {_print(f.sub, _LEVEL_UNARY)}"
    if cls is Atom:
        return f"x {f.op} {_fmt_value(f.threshold)}"
    if cls is Exists:
        vias = " ".join(f"via ({e})" for e in f.chain)
        return f"E {_fmt_value(f.count)} {vias} : {_print(f.body, _LEVEL_UNARY)}"
    if cls is TrueF or cls is FalseF:
        return "TRUE" if cls is TrueF else "FALSE"
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>-?\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<param>\?[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|->|[()\[\]|&!:])
  | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
""",
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        val = m.group()
        if kind != "ws":
            tokens.append((kind, val, line, col))
        nl = val.count("\n")
        if nl:
            line += nl
            col = len(val) - val.rfind("\n")
        else:
            col += len(val)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


#: the largest magnitude of an integer literal or integer parameter value; up
#: to it, counts, time bounds and thresholds are exact as floats
_MAX_INT = 2 ** 53


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, msg, expected=()):
        kind, val, line, col = self.peek()
        shown = val if kind != "eof" else "end of input"
        raise ParseError(f"{msg}, got {shown!r}", line, col, expected)

    def expect(self, val):
        kind, v, line, col = self.peek()
        if v != val:
            self.error(f"expected {val!r}", expected=(val,))
        return self.next()

    def parse(self):
        f = self.implic()
        if self.peek()[0] != "eof":
            self.error("trailing input after formula")
        return f

    def implic(self):
        left = self.orexpr()
        if self.peek()[1] == "->":
            self.next()
            return Implies(left, self.implic())
        return left

    def orexpr(self):
        f = self.andexpr()
        while self.peek()[1] == "|":
            self.next()
            f = Or(f, self.andexpr())
        return f

    def andexpr(self):
        f = self.untilexpr()
        while self.peek()[1] == "&":
            self.next()
            f = And(f, self.untilexpr())
        return f

    def untilexpr(self):
        left = self.unary()
        if self.peek()[1] == "U":
            self.next()
            bound = self.maybe_bound()
            return Until(left, self.untilexpr(), bound)
        return left

    def maybe_bound(self):
        if self.peek()[1] != "[":
            return None
        lo = hi = None
        self.expect("[")
        op = self.peek()[1]
        if op not in ("<=", ">="):
            self.error("expected '>=' or '<=' inside bound", expected=(">=", "<="))
        self.next()
        val = self.intval()
        self.expect("]")
        if op == ">=":
            lo = val
        else:
            hi = val
        if self.peek()[1] == "[" and lo is not None:
            self.expect("[")
            if self.peek()[1] != "<=":
                self.error("expected '<=' in second bound", expected=("<=",))
            self.next()
            hi = self.intval()
            self.expect("]")
        return Bound(lo, hi)

    def intval(self):
        kind, val, line, col = self.peek()
        if kind == "param":
            self.next()
            return Param(val[1:])
        if kind == "num":
            if "." in val or "e" in val or "E" in val:
                raise ParseError("expected an integer", line, col)
            return self.integer()
        self.error("expected integer or parameter", expected=("integer", "?name"))

    def numval(self):
        kind, val, _, _ = self.peek()
        if kind == "param":
            self.next()
            return Param(val[1:])
        if kind == "num":
            if "." in val or "e" in val or "E" in val:
                self.next()
                return float(val)
            return self.integer()
        self.error("expected number or parameter", expected=("number", "?name"))

    def integer(self):
        """The integer literal at the cursor; one that a float cannot hold
        exactly is out of range."""
        _, val, line, col = self.next()
        # the length test comes first: int() refuses strings of over 4,300 digits
        if len(val.lstrip("-0")) > 16 or abs(int(val)) > _MAX_INT:
            raise ParseError("integer literal out of range (magnitude above 2**53)", line, col)
        return int(val)

    def unary(self):
        kind, val, _, _ = self.peek()
        if val == "!":
            self.next()
            return Not(self.unary())
        if val in ("G", "F"):
            self.next()
            bound = self.maybe_bound()
            sub = self.unary()
            return Always(sub, bound) if val == "G" else Eventually(sub, bound)
        if val == "E":
            self.next()
            count = self.intval()
            chain = []
            while self.peek()[1] == "via":
                self.next()
                self.expect("(")
                chain.append(self.atom("y", EdgeAtom))
                self.expect(")")
            if not chain:
                self.error("'E' needs at least one 'via (...)' hop", expected=("via",))
            self.expect(":")
            return Exists(count, tuple(chain), self.unary())
        if val == "TRUE":
            self.next()
            return TRUE
        if val == "FALSE":
            self.next()
            return FALSE
        if val == "x":
            return self.atom("x", Atom)
        if val == "(":
            self.next()
            f = self.implic()
            self.expect(")")
            return f
        self.error("expected a formula", expected=("!", "G", "F", "E", "x", "(", "TRUE", "FALSE"))

    def atom(self, letter, cls):
        """A threshold predicate on letter ("x" for a node, "y" for an edge)."""
        self.expect(letter)
        op = self.peek()[1]
        if op not in ("<=", ">="):
            self.error(f"expected '<=' or '>=' after {letter!r}", expected=("<=", ">="))
        self.next()
        return cls(op, self.numval())


def parse(text: str) -> Formula:
    """Parse formula text; parse(print_formula(f)) is structurally equal to f."""
    f = _Parser(text).parse()
    free_parameters(f)  # validates parameter uniqueness
    return f


# ---------------------------------------------------------------------------
# parameters and instantiation

@dataclass(frozen=True)
class ParamInfo:
    name: str
    kind: str  # "continuous" | "integer"


def free_parameters(f: Formula) -> dict[str, ParamInfo]:
    """Free parameters in slot order; raises if a name is reused."""
    out = {}

    def note(p, kind):
        if p.name in out:
            raise InputError(f"parameter {p.name!r} used in more than one position")
        out[p.name] = ParamInfo(p.name, kind)
        return p

    _map_params(f, note)
    return out


def _checked_value(p, kind, valuation):
    """Parameter p's value (a Python int or float) or values (an int64 or
    float array) in the valuation, checked: present, finite and, in an
    integer slot, integral and at most 2^53 in magnitude."""
    if p.name not in valuation:
        raise UsageError(f"missing value for parameter {p.name!r}")
    x = valuation[p.name]
    try:
        a = np.asarray(x, dtype=float)
    except OverflowError:  # an int beyond the float range
        a = np.array(math.inf)
    for v in a.ravel().tolist():  # as Python floats: numpy is slow on one value
        if not math.isfinite(v):
            raise UsageError(f"parameter {p.name!r} needs finite values, got {x}")
        if kind == "integer" and (abs(v - round(v)) > 1e-9 or abs(round(v)) > _MAX_INT):
            raise UsageError(f"parameter {p.name!r} needs integral values of "
                             f"magnitude at most 2**53, got {x}")
    if kind == "integer":
        a = a.round().astype(np.int64)
    return a.item() if a.ndim == 0 else a


def _check_int(name, value, least):
    """Raise InputError unless value is an integer (not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise InputError(f"{name} must be >= {least} and an integer, got {value!r}")


def instantiate(f: Formula, valuation: Mapping[str, float]) -> Formula:
    """Replace every parameter position with its value from the valuation."""
    return _map_params(f, lambda p, kind: _checked_value(p, kind, valuation))


def is_ground(f: Formula) -> bool:
    return not free_parameters(f)


def rename_parameters(f: Formula, mapping: Mapping[str, str]) -> Formula:
    """Rename free parameters; names absent from the mapping are kept."""
    return _map_params(f, lambda p, kind: Param(mapping.get(p.name, p.name)))


# ---------------------------------------------------------------------------
# desugaring

def desugar(f: Formula) -> Formula:
    """Rewrite Implies to !a | b and split paired time bounds into conjunctions.

    A zero lower bound is dropped (>=0 is vacuous).  The result uses only
    single-sided bounds and no Implies nodes; it is the semantic ground truth
    for paired-bound operators.
    """
    if isinstance(f, (Atom, TrueF, FalseF)):
        return f
    if isinstance(f, Implies):
        return Or(Not(desugar(f.left)), desugar(f.right))
    g = _rebuild(f, desugar, _keep)
    if not isinstance(g, (Eventually, Always, Until)) or g.bound is None:
        return g
    b = g.bound
    if b.paired:
        # split before normalizing: a paired zero lower bound still
        # contributes its unbounded half (G[>=0] is G, not vacuous)
        kind, kids = type(g), _children(g)
        return And(kind(*kids, bound=_norm_bound(Bound(b.lo, None))),
                   kind(*kids, bound=Bound(None, b.hi)))
    norm = _norm_bound(b)
    return g if norm is b else type(g)(*_children(g), bound=norm)


def _norm_bound(bound):
    """A single-sided bound, or None if it is empty or a vacuous >=0."""
    if (bound.lo is None or bound.lo == 0) and bound.hi is None:
        return None
    return bound


def nnf(f: Formula) -> Formula:
    """Push negations inward; Not survives only on Atom, Exists, and Until."""
    return _nnf(desugar(f))


#: the kind that a negation turns each kind into as it moves inward; a
#: negation stays on the kinds absent here (Atom, Exists and Until)
_DUAL = {And: Or, Or: And, Eventually: Always, Always: Eventually, TrueF: FalseF, FalseF: TrueF}


def _nnf(f):
    """Negation normal form of the desugared f."""
    return _nnf_not(f.sub) if type(f) is Not else _rebuild(f, _nnf, _keep)


def _nnf_not(f):
    """Negation normal form of !f, for the desugared f."""
    cls = type(f)
    if cls is Not:
        return _nnf(f.sub)
    dual = _DUAL.get(cls)
    if dual is None:
        return Not(_nnf(f))
    kids = map(_nnf_not, _children(f))
    return dual(*kids, f.bound) if cls is Eventually or cls is Always else dual(*kids)


# ---------------------------------------------------------------------------
# polarity

POL_U, POL_POS, POL_NEG, POL_MIX = "U", "+", "-", "M"


def polarity(f: Formula, p: str) -> str:
    """Direction in which increasing parameter p eases satisfaction.

    Returns one of "U", "+", "-", "M".  Derived operators are desugared
    first.  Each slot that holds p gives its direction from _SLOT_SIGN,
    reversed under an odd number of negations; the answer is "U" for no
    slot, their common sign, or "M" if they disagree or one is an Until
    bound.
    """
    signs, stack = set(), [(desugar(f), 1)]
    while stack:
        g, parity = stack.pop()
        for v, sign in _signed_slots(g):
            if isinstance(v, Param) and v.name == p:
                signs.add(parity * sign)
        if type(g) is Not:
            parity = -parity
        for h in _children(g):
            stack.append((h, parity))
    if signs == {1}:
        return POL_POS
    if signs == {-1}:
        return POL_NEG
    return POL_MIX if signs else POL_U


# ---------------------------------------------------------------------------
# size and subtype

def formula_size(f: Formula) -> int:
    """Number of Boolean connectives: And/Or nodes plus one per Implies.

    Paired time bounds contribute nothing (they are counted as written,
    not as their desugared conjunction).
    """
    return sum(isinstance(g, (And, Or, Implies)) for g in _subformulas(f))


@dataclass(frozen=True)
class Subtype:
    typeI: bool
    typeII: bool
    cosafe: bool
    safe: bool


def _in_fragment(f, free) -> bool:
    """Whether an NNF formula lies in the fragment whose temporal operators
    of the classes in `free` take any bound, every other one only [<=i]:
    F and U free give the co-safe fragment, G free the safe one.  Negation
    sits on atoms only."""
    if isinstance(f, Not):
        return isinstance(f.sub, Atom)
    if isinstance(f, (Eventually, Always, Until)) and not isinstance(f, free):
        if f.bound is None or f.bound.hi is None or f.bound.lo is not None:
            return False
    return all(_in_fragment(g, free) for g in _children(f))


def classify_subtype(f: Formula) -> Subtype:
    """Type-I/type-II and syntactically co-safe/safe flags.

    Grammars are checked on the negation normal form after desugaring.
    A bare atom counts as type-I; type-II requires a leading neighbor
    predicate wrapping a neighbor-free formula.
    """
    n = nnf(f)
    type1 = all(isinstance(g.body, Atom) for g in _subformulas(n) if isinstance(g, Exists))
    type2 = isinstance(n, Exists) and not any(isinstance(g, Exists) for g in _subformulas(n.body))
    return Subtype(typeI=type1, typeII=type2, cosafe=_in_fragment(n, (Eventually, Until)),
                   safe=_in_fragment(n, Always))
