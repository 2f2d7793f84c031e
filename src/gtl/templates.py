"""Parametric formula templates: JSON IO and the built-in library.

A template bundles a parametric formula with a box of admissible values per
parameter.  The built-in library has six type-I shapes (temporal structure
around a neighbor-count predicate) and four type-II shapes (one outer
neighbor-count predicate around a temporal formula).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import InputError
from .formula import (
    _MAX_INT, Formula, _checked_value, _map_params, desugar, free_parameters, instantiate, parse,
    print_formula,
)
from .graph import _MALFORMED, _read_json


@dataclass(frozen=True)
class ParamSpec:
    min: float
    max: float
    kind: str  # "continuous" | "integer"

    def __post_init__(self):
        if self.kind not in ("continuous", "integer"):
            raise InputError(f"unknown parameter kind {self.kind!r}")
        if not (math.isfinite(self.min) and math.isfinite(self.max)) or (
                self.kind == "integer" and max(abs(self.min), abs(self.max)) > _MAX_INT):
            raise InputError(f"parameter range [{self.min}, {self.max}] must be finite, "
                             "and within 2**53 in magnitude for an integer parameter")
        if not self.min <= self.max or (self.kind == "integer" and not self.grid()):
            raise InputError(f"empty parameter range [{self.min}, {self.max}]")

    @property
    def frozen(self) -> bool:
        """A degenerate range pins the parameter to a single value."""
        if self.kind == "continuous":
            return self.min == self.max
        return len(self.grid()) == 1

    def grid(self) -> range:
        """Admissible values for integer parameters, as a range: its length,
        ends, indexing and .index() cost O(1) however wide the box."""
        if self.kind != "integer":
            raise InputError("grid() is only defined for integer parameters")
        lo = math.ceil(self.min - 1e-9)
        hi = math.floor(self.max + 1e-9)
        return range(lo, hi + 1)


@dataclass(frozen=True)
class Template:
    formula: Formula
    box: dict  # name -> ParamSpec
    name: str = ""

    def __post_init__(self):
        params = free_parameters(self.formula)
        missing = set(params) - set(self.box)
        extra = set(self.box) - set(params)
        if missing:
            raise InputError(f"template box is missing parameters {sorted(missing)}")
        if extra:
            raise InputError(f"template box has unknown parameters {sorted(extra)}")
        for name, info in params.items():
            if info.kind == "integer" and self.box[name].kind != "integer":
                raise InputError(f"parameter {name!r} sits in an integer slot")

    @property
    def param_names(self):
        """Parameter names in slot order of the formula."""
        return list(free_parameters(self.formula))

    @property
    def pinned(self) -> dict:
        """Each frozen parameter's one admissible value, in slot order."""
        box = self.box
        return {n: box[n].grid()[0] if box[n].kind == "integer" else box[n].min
                for n in self.param_names if box[n].frozen}

    def instantiate(self, valuation) -> Formula:
        return instantiate(self.formula, valuation)

    def compile(self) -> Formula:
        """The formula both searches evaluate: frozen parameters written in
        as literals, then desugared once (so a frozen zero lower bound is
        dropped, as `instantiate` then `desugar` drops it)."""
        pinned = self.pinned
        return desugar(_map_params(self.formula, lambda p, kind: (
            _checked_value(p, kind, pinned) if p.name in pinned else p)))

    def to_json_dict(self):
        d = {
            "formula": print_formula(self.formula),
            "params": {
                n: {"min": s.min, "max": s.max, "kind": s.kind}
                for n, s in self.box.items()
            },
        }
        if self.name:
            d["name"] = self.name
        return d

    @classmethod
    def from_json_dict(cls, d) -> "Template":
        try:
            f = parse(d["formula"])
            box = {
                n: ParamSpec(float(s["min"]), float(s["max"]), s.get("kind", "continuous"))
                for n, s in d["params"].items()
            }
        except _MALFORMED as exc:
            raise InputError(f"malformed template: {exc}") from exc
        return cls(formula=f, box=box, name=d.get("name", ""))


def load_templates(path) -> list[Template]:
    """Load one template or a JSON array of templates."""
    data = _read_json(path)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise InputError("a template file holds one template object or a list of them")
    return [Template.from_json_dict(d) for d in data]


def save_templates(path, templates):
    with open(path, "w") as fh:
        json.dump([t.to_json_dict() for t in templates], fh, indent=2)


# ---------------------------------------------------------------------------
# built-in library

_P1_SHAPES = [
    ("P1-1", "G[>=?i1][<=?i2] E ?N via (y <= ?d) : x {op} ?c"),
    ("P1-2", "F[>=?i1][<=?i2] E ?N via (y <= ?d) : x {op} ?c"),
    ("P1-3", "G[>=?i1][<=?i2] F[<=?i3] E ?N via (y <= ?d) : x {op} ?c"),
    ("P1-4", "F[>=?i1][<=?i2] G[<=?i3] E ?N via (y <= ?d) : x {op} ?c"),
    ("P1-5", "G (x {op1} ?a -> G[<=?i3] E ?N via (y <= ?d) : x {op} ?c)"),
    ("P1-6", "G (x {op1} ?a -> F[<=?i3] E ?N via (y <= ?d) : x {op} ?c)"),
]

_P2_SHAPES = [
    ("P2-1", "E ?N via (y <= ?d) : G[>=?i1][<=?i2] x {op} ?c"),
    ("P2-2", "E ?N via (y <= ?d) : F[>=?i1][<=?i2] x {op} ?c"),
    ("P2-3", "E ?N via (y <= ?d) : G[>=?i1][<=?i2] F[<=?i3] x {op} ?c"),
    ("P2-4", "E ?N via (y <= ?d) : F[>=?i1][<=?i2] G[<=?i3] x {op} ?c"),
]


def builtin_templates(kind: str, box: dict, pi_op: str = "<=",
                      pi1_op: str = ">=") -> list[Template]:
    """The built-in template library.

    kind is "type-I" or "type-II".  box maps parameter names (i1, i2, i3, N,
    d, c, and a for the implication shapes) to ParamSpec; shapes that do not
    use a name ignore its entry.  pi_op fixes the inner atom direction and
    pi1_op the trigger atom of the implication shapes.  Paired window bounds
    (i1, i2) need box ranges with i1.max < i2.min so every box point is a
    valid window.
    """
    if kind == "type-I":
        shapes = _P1_SHAPES
    elif kind == "type-II":
        shapes = _P2_SHAPES
    else:
        raise InputError(f"unknown template kind {kind!r}")
    if "i1" in box and "i2" in box and not box["i1"].max < box["i2"].min:
        raise InputError("paired bounds need i1.max < i2.min so i1 < i2 holds boxwide")
    out = []
    for name, text in shapes:
        f = parse(text.format(op=pi_op, op1=pi1_op))
        spec = {n: box[n] for n in free_parameters(f)}
        out.append(Template(formula=f, box=spec, name=name))
    return out


def default_box(L: int, label_range=(0.0, 1.0), max_count: int = 3,
                max_edge: float = 3.0) -> dict:
    """A reasonable box for the built-in shapes at horizon L."""
    if L < 2:
        raise InputError("horizon must be >= 2 for windowed templates")
    mid = (L - 1) // 2
    lo, hi = label_range
    return {
        "i1": ParamSpec(0, mid, "integer"),
        "i2": ParamSpec(mid + 1, L - 1, "integer"),
        "i3": ParamSpec(0, L - 1, "integer"),
        "N": ParamSpec(1, max_count, "integer"),
        "d": ParamSpec(1, max_edge, "continuous"),
        "c": ParamSpec(lo, hi, "continuous"),
        "a": ParamSpec(lo, hi, "continuous"),
    }
