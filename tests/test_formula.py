"""Language module: parsing, printing, parameters, polarity, size, subtypes."""

import math
import pickle
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtl.errors import InputError, ParseError, UsageError
from gtl.formula import (
    Always, And, Atom, Bound, EdgeAtom, Eventually, Exists, FALSE, FalseF, Implies,
    Not, Or, Param, TRUE, TrueF, Until, _MAX_INT, _children, _fmt_value, _subformulas,
    classify_subtype, desugar, formula_size, free_parameters, instantiate, is_ground,
    nnf, parse, polarity, print_formula, rename_parameters,
)
from gtl.semantics import _Evaluator, sat_table
from gtl.templates import builtin_templates, default_box

from conftest import random_formula, random_graph, random_trajectory


class TestParsePrint:
    @pytest.mark.parametrize("text", [
        "x <= 0.5",
        "x >= ?b",
        "TRUE",
        "FALSE",
        "! x >= 0.2",
        "x <= 0.1 & x >= 0.05 | x <= 0.9",
        "x <= 0.1 -> x >= 0.05 -> x <= 0.9",
        "G x <= 1",
        "F[>=2][<=5] x >= 0.7",
        "G[<=3] F[<=1] x >= 0.7",
        "x <= 0.3 U x >= 0.7",
        "x <= 0.3 U[>=1] x >= 0.7",
        "x <= 0.3 U[>=1][<=4] x >= 0.7",
        "E 2 via (y <= 1) : x >= 1",
        "E ?N via (y <= ?a) : x >= ?b",
        "E 1 via (y <= 1) via (y >= 0.5) : (x <= 0.4 | ! x >= 0.2)",
        "G (x >= 0.125 -> F[<=2] E 1 via (y <= 1) : x <= 0.111)",
    ])
    def test_round_trip(self, text):
        f = parse(text)
        assert parse(print_formula(f)) == f

    def test_precedence(self):
        f = parse("x <= 1 | x <= 2 & x <= 3")
        assert isinstance(f, Or) and isinstance(f.right, And)
        f = parse("x <= 1 -> x <= 2 -> x <= 3")
        assert isinstance(f, Implies) and isinstance(f.right, Implies)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("G (x <= 1")
        assert err.value.line == 1
        assert err.value.col > 1
        assert err.value.expected

    @pytest.mark.parametrize("text, col", [
        ("x <= 1" + "0" * 400, 6),
        ("E 1 via (y <= 1" + "0" * 400 + ") : x <= 1", 15),
        ("E 1" + "0" * 400 + " via (y <= 1) : x <= 1", 3),
        ("F[<=1" + "0" * 400 + "] x <= 1", 5),
        ("F[<=9007199254740993] x <= 1", 5),
        ("x >= -9007199254740993", 6),
    ])
    def test_oversized_integer_literal_rejected_at_its_token(self, text, col):
        with pytest.raises(ParseError, match="integer literal out of range") as err:
            parse(text)
        assert (err.value.line, err.value.col) == (1, col)

    def test_largest_integer_literal_accepted(self):
        f = parse("F[<=9007199254740992] x <= -9007199254740992")
        assert f.bound.hi == 2 ** 53 and f.sub.threshold == -2 ** 53

    @pytest.mark.parametrize("text, letter, col", [
        ("x -> 1", "x", 3),
        ("G x", "x", 4),
        ("E 1 via (y & 1) : x <= 1", "y", 12),
        ("E 1 via (y) : x <= 1", "y", 11),
    ])
    def test_predicate_needs_a_comparison(self, text, letter, col):
        with pytest.raises(ParseError, match=f"expected '<=' or '>=' after '{letter}'") as err:
            parse(text)
        assert (err.value.line, err.value.col, err.value.expected) == (1, col, ("<=", ">="))

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            parse("x <= 1 @ x >= 2")

    def test_duplicate_parameter_name_rejected(self):
        with pytest.raises(InputError):
            free_parameters(parse("x <= ?a U x >= ?a"))

    @given(st.recursive(
        st.sampled_from(["x <= 0.5", "x >= 1", "TRUE",
                         "E 1 via (y <= 1) : x >= 0.3"]),
        lambda inner: st.one_of(
            st.tuples(inner).map(lambda t: f"! ({t[0]})"),
            st.tuples(inner, inner).map(lambda t: f"({t[0]}) & ({t[1]})"),
            st.tuples(inner, inner).map(lambda t: f"({t[0]}) | ({t[1]})"),
            st.tuples(inner, inner).map(lambda t: f"({t[0]}) -> ({t[1]})"),
            st.tuples(inner).map(lambda t: f"F[<=3] ({t[0]})"),
            st.tuples(inner).map(lambda t: f"G[>=1] ({t[0]})"),
            st.tuples(inner, inner).map(lambda t: f"({t[0]}) U ({t[1]})"),
        ), max_leaves=8))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_property(self, text):
        f = parse(text)
        assert parse(print_formula(f)) == f


class TestParameters:
    def test_free_parameters_in_slot_order(self):
        f = parse("G[>=?i1][<=?i2] E ?N via (y <= ?d) : x >= ?c")
        names = list(free_parameters(f))
        assert names == ["i1", "i2", "N", "d", "c"]
        kinds = {n: p.kind for n, p in free_parameters(f).items()}
        assert kinds == {"i1": "integer", "i2": "integer", "N": "integer",
                         "d": "continuous", "c": "continuous"}

    def test_instantiate(self):
        f = parse("F[<=?i] x >= ?c")
        g = instantiate(f, {"i": 3, "c": 0.7})
        assert g == parse("F[<=3] x >= 0.7")
        assert is_ground(g) and not is_ground(f)

    def test_instantiate_gives_python_numbers(self):
        g = instantiate(parse("F[<=?i] E ?N via (y <= ?d) : x >= ?c"),
                        {"i": 3.0, "N": np.int64(2), "d": 1, "c": np.float32(0.5)})
        assert type(g.bound.hi) is int and g.bound.hi == 3
        assert type(g.sub.count) is int and g.sub.count == 2
        assert type(g.sub.chain[0].threshold) is float and g.sub.chain[0].threshold == 1.0
        assert type(g.sub.body.threshold) is float and g.sub.body.threshold == 0.5

    def test_instantiate_rejects_fractional_integer(self):
        with pytest.raises(UsageError):
            instantiate(parse("F[<=?i] x >= 1"), {"i": 2.5})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("text", ["x >= ?c", "F[<=?i] x >= 1"])
    def test_instantiate_rejects_non_finite(self, text, bad):
        name = next(iter(free_parameters(parse(text))))
        with pytest.raises(UsageError):
            instantiate(parse(text), {name: bad})

    def test_instantiate_missing_value(self):
        with pytest.raises(UsageError):
            instantiate(parse("x >= ?c"), {})

    def test_rename(self):
        f = parse("F[<=?i] x >= ?c")
        g = rename_parameters(f, {"i": "g0_i", "c": "g0_c"})
        assert list(free_parameters(g)) == ["g0_i", "g0_c"]
        assert instantiate(g, {"g0_i": 1, "g0_c": 0.5}) == instantiate(
            f, {"i": 1, "c": 0.5})


class TestTimeBounds:
    @pytest.mark.parametrize("text", [
        "F[<=-2] x >= 1", "G[>=-2] x <= 1", "x <= 0 U[<=-1] x >= 1", "F[>=-1][<=3] x >= 1",
        "G[>=1][<=-3] x >= 1",
    ])
    def test_negative_literal_rejected_at_parse(self, text):
        with pytest.raises(InputError, match="time bound must be non-negative"):
            parse(text)

    def test_negative_value_rejected_at_instantiate(self):
        with pytest.raises(InputError, match="time bound must be non-negative, got -3"):
            instantiate(parse("F[<=?i] x >= 1"), {"i": -3})
        with pytest.raises(InputError, match="time bound must be non-negative, got -1"):
            instantiate(parse("G[>=?i] x >= 1"), {"i": -1})

    @pytest.mark.parametrize("lo, hi", [(-1, None), (None, -1), (2, -1), (-5, 3)])
    def test_negative_literal_rejected_at_construction(self, lo, hi):
        with pytest.raises(InputError, match="time bound must be non-negative"):
            Bound(lo, hi)

    def test_zero_and_parameter_bounds_kept(self):
        assert parse("F[<=0] x >= 1").bound == Bound(None, 0)
        assert parse("G[>=0][<=0] x >= 1").bound == Bound(0, 0)
        assert Bound(Param("i"), Param("j")).paired


class TestNeighborCounts:
    def test_negative_literal_rejected_at_parse(self):
        with pytest.raises(InputError, match="neighbor count must be non-negative, got -1"):
            parse("E -1 via (y <= 1) : x >= 1")

    def test_negative_value_rejected_at_instantiate(self):
        with pytest.raises(InputError, match="neighbor count must be non-negative, got -2"):
            instantiate(parse("E ?N via (y <= 1) : x >= 1"), {"N": -2})

    def test_negative_literal_rejected_at_construction(self):
        with pytest.raises(InputError, match="neighbor count must be non-negative"):
            Exists(-1, (EdgeAtom("<=", 1),), Atom(">=", 1))

    def test_zero_and_parameter_counts_kept(self):
        assert parse("E 0 via (y <= 1) : x >= 1").count == 0
        assert Exists(Param("N"), (EdgeAtom("<=", 1),), Atom(">=", 1)).count == Param("N")


class TestAtomValidation:
    @pytest.mark.parametrize("cls", [Atom, EdgeAtom])
    @pytest.mark.parametrize("op, threshold", [
        ("<=", math.nan), (">=", math.inf), ("<=", -math.inf), ("<", 1.0), ("==", 1.0),
    ])
    def test_rejected_at_construction(self, cls, op, threshold):
        with pytest.raises(InputError):
            cls(op, threshold)

    @pytest.mark.parametrize("cls", [Atom, EdgeAtom])
    def test_int_beyond_float_range_rejected(self, cls):
        with pytest.raises(InputError, match="finite"):
            cls("<=", 10 ** 400)

    @pytest.mark.parametrize("cls", [Atom, EdgeAtom])
    def test_parameter_and_finite_literals_accepted(self, cls):
        assert cls("<=", Param("c")).threshold == Param("c")
        assert cls(">=", 2).threshold == 2
        assert cls("<=", -0.5).threshold == -0.5


class TestDesugar:
    def test_implies(self):
        assert desugar(parse("x <= 1 -> x >= 2")) == Or(Not(Atom("<=", 1)),
                                                        Atom(">=", 2))

    def test_paired_bound_splits(self):
        f = desugar(parse("F[>=2][<=5] x >= 1"))
        assert f == And(Eventually(Atom(">=", 1), Bound(2, None)),
                        Eventually(Atom(">=", 1), Bound(None, 5)))

    def test_zero_lower_bound_dropped(self):
        assert desugar(Eventually(Atom(">=", 1), Bound(0, None))) == \
            Eventually(Atom(">=", 1), None)

    def test_paired_zero_lower_bound_keeps_unbounded_half(self):
        # G[>=0] is plain G, so the conjunction must keep the full suffix;
        # dropping it would make G[>=0][<=2] weaker than G[>=1][<=2]
        f = desugar(parse("G[>=0][<=2] x >= 1"))
        assert f == And(Always(Atom(">=", 1), None),
                        Always(Atom(">=", 1), Bound(None, 2)))

    def test_nnf_pushes_negations(self):
        f = nnf(parse("! (x <= 1 & F x >= 2)"))
        assert isinstance(f, Or)
        assert isinstance(f.right, Always)


class TestPolarity:
    @pytest.mark.parametrize("text,param,want", [
        ("x <= ?p", "p", "+"),
        ("x >= ?p", "p", "-"),
        ("! x <= ?p", "p", "-"),
        ("F[<=?p] x >= 1", "p", "+"),
        ("F[>=?p] x >= 1", "p", "-"),
        ("G[<=?p] x >= 1", "p", "-"),
        ("G[>=?p] x >= 1", "p", "+"),
        ("E ?p via (y <= 1) : x >= 1", "p", "-"),
        ("E 1 via (y <= ?p) : x >= 1", "p", "+"),
        ("E 1 via (y >= ?p) : x >= 1", "p", "-"),
        ("x <= ?p & x <= 1", "p", "+"),
        ("x <= ?p | x >= ?q", "p", "+"),
        ("x <= ?p | x >= ?q", "q", "-"),
        ("x <= ?p -> x >= 1", "p", "-"),
        ("G (x >= ?a -> F[<=2] x <= ?b)", "a", "+"),
        ("G (x >= ?a -> F[<=2] x <= ?b)", "b", "+"),
        ("x <= ?p U x >= 1", "p", "+"),
        ("x <= 1 U[<=?p] x >= 2", "p", "M"),
        ("x <= ?p & x >= ?p2", "p2", "-"),
        ("x <= 1", "p", "U"),
        ("x <= ?p & x >= ?q", "q", "-"),
    ])
    def test_table(self, text, param, want):
        assert polarity(parse(text), param) == want

    def test_mixed(self):
        # p eases the left conjunct and hardens the right one; parse rejects
        # the reuse of a name, so the formula is built from the AST
        f = And(Atom("<=", Param("p")), Not(Atom("<=", Param("p"))))
        assert polarity(f, "p") == "M"
        assert polarity(Always(Atom(">=", Param("p")), Bound(None, Param("p"))), "p") == "-"
        assert polarity(parse("(x <= ?p) U[>=?p2] (x >= 1)"), "p2") == "M"

    def test_paired_bound_duplication_is_safe(self):
        # desugaring duplicates the quantifier, not the parameter
        assert polarity(parse("F[>=?i1][<=?i2] x >= 1"), "i1") == "-"
        assert polarity(parse("F[>=?i1][<=?i2] x >= 1"), "i2") == "+"


class TestSizeAndSubtype:
    @pytest.mark.parametrize("text,size", [
        ("x <= 1", 0),
        ("G F x <= 1", 0),
        ("x <= 1 & x >= 0", 1),
        ("x <= 1 -> x >= 0", 1),
        ("(x <= 1 & x >= 0) | x <= 2", 2),
        ("G (x >= 0.1 -> F[<=2] E 1 via (y <= 1) : x <= 0.2)", 1),
        ("F[>=1][<=3] x <= 1", 0),
    ])
    def test_size(self, text, size):
        assert formula_size(parse(text)) == size

    def test_subtype_examples(self):
        s = classify_subtype(parse("G (x <= 1 -> F[<=2] E 2 via (y <= 1) : x >= 1)"))
        assert (s.typeI, s.typeII, s.cosafe, s.safe) == (True, False, False, True)
        s = classify_subtype(parse("E 2 via (y <= 1) : G[>=1][<=3] x >= 1"))
        assert (s.typeI, s.typeII, s.cosafe, s.safe) == (False, True, False, True)
        s = classify_subtype(parse("x <= 1"))
        assert (s.typeI, s.typeII, s.cosafe, s.safe) == (True, False, True, True)

    def test_cosafe_vs_safe(self):
        s = classify_subtype(parse("F x >= 1"))
        assert s.cosafe and not s.safe
        s = classify_subtype(parse("G x >= 1"))
        assert s.safe and not s.cosafe
        s = classify_subtype(parse("F x >= 1 & G x <= 2"))
        assert not s.cosafe and not s.safe

    def test_constants(self):
        assert formula_size(TRUE) == 0
        s = classify_subtype(FALSE)
        assert s.cosafe and s.safe


# ---------------------------------------------------------------------------
# properties of the structural traversal, over ground and parameterized trees

def random_template(rng, depth, names):
    """A random formula whose slots are parameters about half the time, with
    paired bounds and multi-hop neighbor chains."""
    def slot(literal):
        if rng.random() < 0.5:
            names.append(f"p{len(names)}")
            return Param(names[-1])
        return literal

    if depth == 0:
        if rng.random() < 0.4:
            chain = tuple(EdgeAtom(rng.choice(["<=", ">="]), slot(1.5))
                          for _ in range(rng.choice([1, 2, 3])))
            return Exists(slot(2), chain, Atom("<=", slot(0.5)))
        return Atom(rng.choice(["<=", ">="]), slot(0.25))
    kind = rng.choice(["not", "and", "or", "impl", "F", "G", "U", "E"])
    a = random_template(rng, depth - 1, names)
    if kind == "not":
        return Not(a)
    if kind == "E":
        return Exists(slot(1), (EdgeAtom("<=", slot(1.0)),), a)
    if kind in ("and", "or", "impl", "U"):
        b = random_template(rng, depth - 1, names)
        if kind != "U":
            return {"and": And, "or": Or, "impl": Implies}[kind](a, b)
    lo, hi = rng.choice([(None, 3), (1, None), (0, 2), (1, 3), (0, None)])
    bound = Bound(None if lo is None else slot(lo), None if hi is None else slot(hi))
    if kind == "U":
        return Until(a, b, bound)
    return (Eventually if kind == "F" else Always)(a, bound)


def corpus():
    rng = random.Random(5)
    out = [random_formula(rng, depth) for depth in (1, 2, 3, 4) for _ in range(40)]
    out += [random_template(rng, depth, []) for depth in (1, 2, 3) for _ in range(60)]
    return out


def valuation_for(f, rng):
    return {n: rng.randint(1, 3) if p.kind == "integer" else rng.uniform(0.0, 2.0)
            for n, p in free_parameters(f).items()}


class TestTraversal:
    def test_size_counts_printed_connectives(self):
        for f in corpus():
            text = print_formula(f)
            assert formula_size(f) == text.count("&") + text.count("|") + text.count("->"), text

    def test_rename_and_instantiate(self):
        rng = random.Random(6)
        for f in corpus():
            names = list(free_parameters(f))
            mapping = {n: f"r_{n}" for n in names}
            renamed = rename_parameters(f, mapping)
            assert list(free_parameters(renamed)) == [mapping[n] for n in names]
            assert rename_parameters(renamed, {new: old for old, new in mapping.items()}) == f
            val = valuation_for(f, rng)
            ground = instantiate(f, val)
            assert instantiate(renamed, {mapping[n]: x for n, x in val.items()}) == ground
            assert free_parameters(ground) == {}, print_formula(f)

    @pytest.mark.parametrize("thing", [None, 3, "x <= 1", Bound(1, 2), EdgeAtom("<=", 1)])
    def test_children_rejects_non_nodes(self, thing):
        with pytest.raises(TypeError):
            _children(thing)


class TestCachedHash:
    """A node keeps its hash once computed; nothing else may see it."""

    TEXTS = ["TRUE", "x <= 0.5", "G[>=2][<=8] F[<=3] E 2 via (y <= 1.5) : x <= 0.11",
             "G (x >= 0.125 -> F[<=3] E 2 via (y <= 1.5) : x <= 0.11)",
             "x <= 0.1 U[<=2] ! x >= 0.9"]

    @pytest.mark.parametrize("text", TEXTS)
    def test_pickle_repr_and_eq_unchanged_by_hashing(self, text):
        f = parse(text)
        before = (pickle.dumps(f), repr(f))
        h = hash(f)
        assert (pickle.dumps(f), repr(f)) == before
        assert f == parse(text) and not f != parse(text)
        assert hash(pickle.loads(before[0])) == h

    def test_rebuilt_node_hashes_as_parsed(self):
        template = parse("F[>=?i1][<=?i2] G[<=?i3] E ?N via (y <= ?d) : x <= ?c")
        hash(template)
        val = {"i1": 2, "i2": 8, "i3": 3, "N": 2, "d": 1.5, "c": 0.11}
        g = instantiate(template, val)
        fresh = parse("F[>=2][<=8] G[<=3] E 2 via (y <= 1.5) : x <= 0.11")
        assert g == fresh and hash(g) == hash(fresh)
        assert hash(g.sub) == hash(fresh.sub)

    def test_distinct_nodes_stay_distinct_in_sets(self):
        a, b = parse("F[<=1] x >= 1"), parse("F[<=2] x >= 1")
        hash(a)
        assert len({a, b, parse("F[<=1] x >= 1")}) == 2


# ---------------------------------------------------------------------------
# the per-kind dispatches that printing, nnf and polarity replaced, kept
# verbatim as the reference they must match

_LEVEL_IMPLIC, _LEVEL_OR, _LEVEL_AND, _LEVEL_UNTIL, _LEVEL_UNARY = range(5)


def _print(f, ctx):
    if isinstance(f, TrueF):
        return "TRUE"
    if isinstance(f, FalseF):
        return "FALSE"
    if isinstance(f, Atom):
        return f"x {f.op} {_fmt_value(f.threshold)}"
    if isinstance(f, Implies):
        text = f"{_print(f.left, _LEVEL_OR)} -> {_print(f.right, _LEVEL_IMPLIC)}"
        return f"({text})" if ctx > _LEVEL_IMPLIC else text
    if isinstance(f, Or):
        text = f"{_print(f.left, _LEVEL_OR)} | {_print(f.right, _LEVEL_AND)}"
        return f"({text})" if ctx > _LEVEL_OR else text
    if isinstance(f, And):
        text = f"{_print(f.left, _LEVEL_AND)} & {_print(f.right, _LEVEL_UNTIL)}"
        return f"({text})" if ctx > _LEVEL_AND else text
    if isinstance(f, Until):
        b = str(f.bound) if f.bound else ""
        text = f"{_print(f.left, _LEVEL_UNARY)} U{b} {_print(f.right, _LEVEL_UNTIL)}"
        return f"({text})" if ctx > _LEVEL_UNTIL else text
    if isinstance(f, Not):
        return f"! {_print(f.sub, _LEVEL_UNARY)}"
    if isinstance(f, Eventually):
        b = str(f.bound) if f.bound else ""
        return f"F{b} {_print(f.sub, _LEVEL_UNARY)}"
    if isinstance(f, Always):
        b = str(f.bound) if f.bound else ""
        return f"G{b} {_print(f.sub, _LEVEL_UNARY)}"
    if isinstance(f, Exists):
        vias = " ".join(f"via ({e})" for e in f.chain)
        return f"E {_fmt_value(f.count)} {vias} : {_print(f.body, _LEVEL_UNARY)}"
    raise TypeError(f"not a formula node: {f!r}")


def _nnf(f, neg):
    if isinstance(f, TrueF):
        return FALSE if neg else TRUE
    if isinstance(f, FalseF):
        return TRUE if neg else FALSE
    if isinstance(f, Not):
        return _nnf(f.sub, not neg)
    if isinstance(f, And):
        l, r = _nnf(f.left, neg), _nnf(f.right, neg)
        return Or(l, r) if neg else And(l, r)
    if isinstance(f, Or):
        l, r = _nnf(f.left, neg), _nnf(f.right, neg)
        return And(l, r) if neg else Or(l, r)
    if isinstance(f, Eventually):
        sub = _nnf(f.sub, neg)
        return Always(sub, f.bound) if neg else Eventually(sub, f.bound)
    if isinstance(f, Always):
        sub = _nnf(f.sub, neg)
        return Eventually(sub, f.bound) if neg else Always(sub, f.bound)
    if isinstance(f, Until):
        g = Until(_nnf(f.left, False), _nnf(f.right, False), f.bound)
        return Not(g) if neg else g
    if isinstance(f, (Atom, Exists)):
        if isinstance(f, Exists):
            f = Exists(f.count, f.chain, _nnf(f.body, False))
        return Not(f) if neg else f
    raise TypeError(f"not a formula node: {f!r}")


POL_U, POL_POS, POL_NEG, POL_MIX = "U", "+", "-", "M"


def _pol_neg(a):
    """Polarity under negation: + and - swap, U and M stay."""
    return POL_NEG if a == POL_POS else POL_POS if a == POL_NEG else a


def _pol_comp(a, b):
    """Polarity of two parts combined: U is neutral, equal signs keep,
    anything else is M."""
    return b if a == POL_U or a == b else a if b == POL_U else POL_MIX


def _is_p(value, p):
    return isinstance(value, Param) and value.name == p


def _polarity(f, p):
    if isinstance(f, (TrueF, FalseF)):
        return POL_U
    if isinstance(f, Atom):
        if _is_p(f.threshold, p):
            return POL_POS if f.op == "<=" else POL_NEG
        return POL_U
    if isinstance(f, Not):
        return _pol_neg(_polarity(f.sub, p))
    if isinstance(f, (And, Or)):
        # a | b == !(!a & !b), and negation commutes with combining
        return _pol_comp(_polarity(f.left, p), _polarity(f.right, p))
    if isinstance(f, Until):
        if f.bound is not None and (_is_p(f.bound.lo, p) or _is_p(f.bound.hi, p)):
            return POL_MIX
        return _pol_comp(_polarity(f.left, p), _polarity(f.right, p))
    if isinstance(f, Eventually):
        acc = _polarity(f.sub, p)
        if f.bound is not None:
            if _is_p(f.bound.hi, p):
                acc = _pol_comp(POL_POS, acc)
            if _is_p(f.bound.lo, p):
                acc = _pol_comp(POL_NEG, acc)
        return acc
    if isinstance(f, Always):
        # G~i a == ! F~i !a
        inner = Eventually(Not(f.sub), f.bound)
        return _pol_neg(_polarity(inner, p))
    if isinstance(f, Exists):
        acc = _polarity(f.body, p)
        for e in f.chain:
            if _is_p(e.threshold, p):
                acc = _pol_comp(POL_POS if e.op == "<=" else POL_NEG, acc)
        if _is_p(f.count, p):
            acc = _pol_comp(POL_NEG, acc)
        return acc
    raise TypeError(f"not a formula node: {f!r}")


#: formulas with TRUE and FALSE, which neither random generator draws
_CONSTANT_TEXTS = [
    "G[>=1][<=3] (x >= 0.5 -> !(x <= 1 U[<=2] E 2 via (y <= 1) via (y >= 0.5) : x >= 2)) "
    "| F TRUE & FALSE",
    "! (TRUE & ! FALSE) -> F[>=2] ! TRUE",
    "!! (x <= ?a) U[>=?i] G[<=?j] ! F[>=1][<=?k] FALSE",
    "! G[>=?i][<=?j] (TRUE | E ?N via (y >= ?d) : ! x <= ?c)",
]


def _reference_corpus(group):
    """(formula, parameter names to query) pairs of one group."""
    rng = random.Random(31)
    if group == "random_formula":
        return [(random_formula(rng, depth), []) for depth in range(5) for _ in range(400)]
    if group == "random_template":
        fs = [random_template(rng, depth, []) for depth in range(4) for _ in range(500)]
        return [(f, list(free_parameters(f))) for f in fs]
    if group == "reused_names":
        # two names shared by every slot, which parse would reject
        fs = [random_template(rng, depth, []) for depth in (1, 2, 3) for _ in range(200)]
        return [(rename_parameters(f, {n: f"q{i % 2}" for i, n in enumerate(free_parameters(f))}),
                 ["q0", "q1"]) for f in fs]
    fs = [t.formula for kind in ("type-I", "type-II") for op in ("<=", ">=")
          for t in builtin_templates(kind, default_box(8), pi_op=op)]
    fs += [parse("G (x >= ?a -> G[<=?i3] E ?N via (y <= ?d) : x <= ?c)"),
           parse("E ?N via (y <= 2) : x >= ?c"), parse("E ?N via (y <= 2) : x <= ?c"),
           parse("E 15 via (y <= 2) : x >= 1 & E 1 via (y <= 2) : x <= 0.9")]
    fs += [parse(text) for text in _CONSTANT_TEXTS]
    return [(f, list(free_parameters(f))) for f in fs]


class TestReplacedDispatches:
    """print_formula, nnf and polarity against the dispatches they replaced."""

    @pytest.mark.parametrize("group", ["random_formula", "random_template", "reused_names",
                                       "library"])
    def test_matches_reference(self, group):
        corpus = _reference_corpus(group)
        assert len(corpus) >= (24 if group == "library" else 600)
        for f, names in corpus:
            text = print_formula(f)
            assert text == _print(f, _LEVEL_IMPLIC)
            d = desugar(f)
            assert nnf(f) == _nnf(d, False), text
            for name in names + ["absent"]:
                assert polarity(f, name) == _polarity(d, name), (text, name)


# ---------------------------------------------------------------------------
# nnf and polarity against the semantics, independent of both implementations

class TestAnalysesAgainstSemantics:
    def test_polarity_direction_holds_on_tables(self):
        """Raising a "+" parameter never turns a true cell false, and
        raising a "-" one never turns a false cell true."""
        rng, rng_np = random.Random(8), np.random.default_rng(8)

        def draw(kind):
            return rng.randint(0, 5) if kind == "integer" else rng.uniform(-0.5, 3.5)

        checked = {"+": 0, "-": 0}
        changed = 0
        for trial in range(40):
            g = random_graph(rng, 4, 0.6)
            evaluator = _Evaluator.of([random_trajectory(rng_np, g, 5) for _ in range(3)])
            for _ in range(5):
                f = random_template(rng, rng.choice([1, 2, 3]), [])
                params = free_parameters(f)
                base = {n: draw(p.kind) for n, p in params.items()}
                for name, info in params.items():
                    sign = polarity(f, name)
                    if sign not in checked:
                        continue
                    raised = sorted(draw(info.kind) for _ in range(6))
                    values = {n: np.full(len(raised), v) for n, v in base.items()}
                    values[name] = np.array(raised)
                    t = np.broadcast_to(evaluator.tables(desugar(f), values),
                                        (len(raised),) + evaluator.x.shape)
                    before, after = t[:-1], t[1:]
                    lost = before & ~after if sign == "+" else after & ~before
                    assert not lost.any(), (print_formula(f), name, sign, raised)
                    checked[sign] += 1
                    changed += bool((before != after).any())
        assert min(checked.values()) >= 100 and changed >= 100, (checked, changed)

    def test_nnf_keeps_tables_and_negates_only_leaves(self):
        rng, rng_np = random.Random(9), np.random.default_rng(9)
        ground = [instantiate(parse(text), {"a": 0.5, "i": 1, "j": 2, "k": 3, "N": 1,
                                            "d": 1.0, "c": 0.4})
                  for text in _CONSTANT_TEXTS]
        for trial in range(40):
            traj = random_trajectory(rng_np, random_graph(rng, 4, 0.6), 5)
            for f in ground + [random_formula(rng, rng.choice([1, 2, 3, 4])) for _ in range(6)]:
                n = nnf(f)
                for h in _subformulas(n):
                    assert type(h) is not Implies
                    assert type(h) is not Not or type(h.sub) in (Atom, Exists, Until), \
                        print_formula(n)
                assert np.array_equal(sat_table(traj, n), sat_table(traj, f)), print_formula(f)


# ---------------------------------------------------------------------------
# the tokenizer and hand-written precedence parser that the table-driven
# parser replaced, kept verbatim as the reference it must match

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


def _reference_parse(text):
    f = _Parser(text).parse()
    free_parameters(f)  # validates parameter uniqueness
    return f


#: characters that mutations insert: the grammar's, varied whitespace and
#: line ends, and non-ASCII letters and digits (\d matches Arabic-Indic ones)
_TEXT_CHARS = list("xy<=>-0123456789.eE?abN!&|()[]:FGUE via TRUEFALSE  ") + [
    "\n", "\t", "\r\n", "\r", "é", "٣", " ", " "]


def _mutated_text(rng, text):
    """text with one to three random character or token edits."""
    for _ in range(rng.randint(1, 3)):
        i, j = sorted(rng.randrange(len(text) + 1) for _ in range(2))
        edit = rng.randrange(4)
        if edit == 0:  # delete a span
            text = text[:i] + text[j:]
        elif edit == 1:  # insert a character
            text = text[:i] + rng.choice(_TEXT_CHARS) + text[i:]
        elif edit == 2:  # replace a character
            text = text[:i] + rng.choice(_TEXT_CHARS) + text[i + 1:]
        else:  # duplicate a span
            text = text[:j] + text[i:j] + text[j:]
    return text


def _parser_corpus(seed, n):
    """n texts: printed random_formula and random_template draws, mutations
    of them, and random strings over _TEXT_CHARS."""
    rng = random.Random(seed)
    texts = []
    while len(texts) < n:
        if rng.random() < 0.5:
            f = random_formula(rng, rng.randrange(5))
        else:
            f = random_template(rng, rng.randrange(4), [])
        text = print_formula(f)
        roll = rng.random()
        if roll < 0.3:
            texts.append(text)
        elif roll < 0.85:
            texts.append(_mutated_text(rng, text))
        else:
            texts.append("".join(rng.choice(_TEXT_CHARS) for _ in range(rng.randrange(30))))
    return texts


def _parse_outcome(parse_text, text):
    """The formula parse_text builds from text, or its error's type, message,
    line, column and expected tokens."""
    try:
        return parse_text(text)
    except ParseError as err:
        return ParseError, str(err), err.line, err.col, err.expected
    except InputError as err:  # a literal that a node's constructor refuses
        return InputError, str(err)


class TestReplacedParser:
    """parse against the tokenizer and parser it replaced, on texts well
    below the depth limit, which the replaced parser did not have."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference(self, seed):
        texts = _parser_corpus(seed, 10_000)
        kinds = {"formula": 0, ParseError: 0, InputError: 0}
        for text in texts:
            want = _parse_outcome(_reference_parse, text)
            assert _parse_outcome(parse, text) == want, repr(text)
            kinds[want[0] if isinstance(want, tuple) else "formula"] += 1
        # InputError comes from a negative bound or count, or a name used twice
        assert kinds["formula"] >= 3_000 and kinds[ParseError] >= 3_000 and kinds[InputError], kinds
