"""Language module: parsing, printing, parameters, polarity, size, subtypes."""

import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtl.errors import InputError, ParseError, UsageError
from gtl.formula import (
    Always, And, Atom, Bound, EdgeAtom, Eventually, Exists, FALSE, Implies,
    Not, Or, Param, TRUE, Until, _children, classify_subtype, desugar,
    formula_size, free_parameters, instantiate, is_ground, nnf, parse,
    polarity, print_formula, rename_parameters,
)

from conftest import random_formula


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
        # p eases the left conjunct and hardens the right one
        f = And(Atom("<=", Param("p")), Not(Atom("<=", Param("p2"))))
        # same-name reuse is rejected upstream, so emulate via Until bound
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
