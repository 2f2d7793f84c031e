"""Template boxes, JSON IO, and the built-in library."""

import json
from time import perf_counter

import pytest

from gtl.classify import _round_integers
from gtl.errors import InputError
from gtl.formula import parse, print_formula
from gtl.identify import _axes, map_pi, map_pi_inv, snap
from gtl.templates import (
    ParamSpec, Template, builtin_templates, default_box, load_templates,
    save_templates,
)


class TestParamSpec:
    def test_frozen(self):
        assert ParamSpec(1.0, 1.0, "continuous").frozen
        assert ParamSpec(2, 2, "integer").frozen
        assert ParamSpec(0.4, 1.6, "integer").frozen  # one integer inside
        assert not ParamSpec(1.0, 2.0, "continuous").frozen

    def test_grid(self):
        assert list(ParamSpec(0, 3, "integer").grid()) == [0, 1, 2, 3]
        with pytest.raises(InputError):
            ParamSpec(0, 3, "continuous").grid()

    def test_validation(self):
        with pytest.raises(InputError):
            ParamSpec(2.0, 1.0, "continuous")
        with pytest.raises(InputError):  # an integer box that holds no integer
            ParamSpec(0.5, 0.7, "integer")
        with pytest.raises(InputError):
            ParamSpec(0, 1, "boolean")

    def test_wide_integer_box_costs_constant_time(self):
        # a grid of 10^9 + 1 values is never listed: every caller clamps,
        # indexes or counts it in O(1)
        box = {"N": ParamSpec(0, 10 ** 9, "integer")}
        t0 = perf_counter()
        assert len(box["N"].grid()) == 10 ** 9 + 1
        assert _round_integers({"N": 2e9}, box) == {"N": 10 ** 9}
        assert _round_integers({"N": -3.4}, box) == {"N": 0}
        assert _axes(Template(parse("E ?N via (y <= 1) : x >= 1"), box)) == (["N"], {})
        w = map_pi({"N": 250_000_000}, box, {"N": "+"}, ["N"])
        assert w == (0.25,)
        assert map_pi_inv(w, box, {"N": "+"}, ["N"]) == {"N": 250_000_000}
        assert snap((0.3,), box, {"N": "+"}, ["N"]) == (0.3,)
        assert perf_counter() - t0 < 0.1

    @pytest.mark.parametrize("lo, hi", [("-Infinity", "1"), ("0", "Infinity"),
                                        ("-Infinity", "Infinity"), ("NaN", "1")])
    def test_non_finite_range_rejected(self, lo, hi):
        text = '{"formula": "x >= ?c", "params": {"c": {"min": %s, "max": %s}}}' % (lo, hi)
        with pytest.raises(InputError, match="finite"):
            Template.from_json_dict(json.loads(text))


    @pytest.mark.parametrize("lo, hi", [(0, 1e300), (-1e300, 0), (0, 2 ** 53 + 2)])
    def test_integer_range_beyond_2_53_rejected(self, lo, hi):
        d = {"formula": "F[<=?i] x >= 2",
             "params": {"i": {"kind": "integer", "min": lo, "max": hi}}}
        with pytest.raises(InputError, match="2\\*\\*53"):
            Template.from_json_dict(d)
        # the largest admissible ends still make a box
        assert ParamSpec(-(2 ** 53), 2 ** 53, "integer").grid()[-1] == 2 ** 53


class TestTemplate:
    def test_box_must_match_parameters(self):
        f = parse("F[<=?i] x >= ?c")
        box = {"i": ParamSpec(0, 3, "integer"), "c": ParamSpec(0, 1, "continuous")}
        t = Template(f, box)
        assert t.param_names == ["i", "c"]
        with pytest.raises(InputError):
            Template(f, {"i": box["i"]})
        with pytest.raises(InputError):
            Template(f, dict(box, extra=ParamSpec(0, 1, "continuous")))

    def test_integer_slot_enforced(self):
        f = parse("F[<=?i] x >= 1")
        with pytest.raises(InputError):
            Template(f, {"i": ParamSpec(0, 3, "continuous")})

    def test_instantiate(self):
        f = parse("F[<=?i] x >= ?c")
        t = Template(f, {"i": ParamSpec(0, 3, "integer"),
                         "c": ParamSpec(0, 1, "continuous")})
        assert t.instantiate({"i": 2, "c": 0.5}) == parse("F[<=2] x >= 0.5")

    def test_json_round_trip(self, tmp_path):
        box = default_box(6)
        tpls = builtin_templates("type-I", box)
        path = tmp_path / "tpl.json"
        save_templates(path, tpls)
        back = load_templates(path)
        assert len(back) == len(tpls)
        assert all(a.formula == b.formula and a.box == b.box
                   for a, b in zip(back, tpls))

    def test_load_single_dict(self, tmp_path):
        path = tmp_path / "one.json"
        save_templates(path, builtin_templates("type-II", default_box(6))[:1])
        path.write_text(path.read_text()[1:-1])  # unwrap the array
        assert len(load_templates(path)) == 1


class TestBuiltinLibrary:
    def test_counts_and_names(self):
        box = default_box(6)
        t1 = builtin_templates("type-I", box)
        t2 = builtin_templates("type-II", box)
        assert [t.name for t in t1] == [f"P1-{i}" for i in range(1, 7)]
        assert [t.name for t in t2] == [f"P2-{i}" for i in range(1, 5)]

    def test_window_bounds_disjoint(self):
        box = default_box(6)
        box["i2"] = ParamSpec(1, 5, "integer")  # overlaps i1's range
        with pytest.raises(InputError):
            builtin_templates("type-I", box)

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            builtin_templates("type-III", default_box(6))

    def test_op_injection(self):
        t = builtin_templates("type-II", default_box(6), pi_op=">=")[0]
        assert print_formula(t.formula).endswith("x >= ?c")
