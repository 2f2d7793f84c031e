"""Information-guided parameter identification by monotone front search.

Template parameters are normalized to [0,1]^z so that larger coordinates
always make the formula easier to satisfy (polarity-aware affine maps).
The coverage-feasible region is then up-closed and its minimal front is
approximated by binary-search queries issued from the knee points of the
known-infeasible staircase, which each infeasible query updates in place;
the returned valuation maximizes average information gain over the
approximated front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import ge, sub

from .errors import InputError, UsageError
from .formula import polarity, print_formula
from .prior import PriorModel, _info_gains
from .semantics import _coverage, _Evaluator
from .templates import Template

_ROUND = 12  # normalized coordinates are rounded to stabilize set membership


# ---------------------------------------------------------------------------
# normalization

def _axes(template: Template):
    """(ordered free parameter names, pinned valuation for frozen ones)."""
    pinned = template.pinned
    return [n for n in template.param_names if n not in pinned], pinned


def _polarities(template: Template, names):
    pols = {}
    for name in names:
        p = polarity(template.formula, name)
        if p not in ("+", "-"):
            raise InputError(
                f"parameter {name!r} has polarity {p!r} in {print_formula(template.formula)}; "
                "identification needs every parameter monotone (+ or -)"
            )
        pols[name] = p
    return pols


def map_pi(theta, box, polarities, names) -> tuple:
    """Normalize a valuation's free parameters `names` to [0,1]^z; larger
    always means easier."""
    out = []
    for name in names:
        spec = box[name]
        if spec.kind == "integer":
            grid = spec.grid()
            try:
                idx = grid.index(int(round(theta[name])))
            except ValueError:
                raise InputError(f"{theta[name]} is not admissible for {name!r}")
            w = idx / (len(grid) - 1)
        else:
            w = (theta[name] - spec.min) / (spec.max - spec.min)
        if polarities[name] == "-":
            w = 1.0 - w
        if not -1e-9 <= w <= 1 + 1e-9:
            raise InputError(f"{name!r}={theta[name]} lies outside its box")
        out.append(round(min(max(w, 0.0), 1.0), _ROUND))
    return tuple(out)


def map_pi_inv(omega, box, polarities, names) -> dict:
    """Map a normalized point back to a valuation of the free parameters
    `names`; integers snap to the grid."""
    if len(omega) != len(names):
        raise UsageError(f"point has {len(omega)} coordinates, expected {len(names)}")
    theta = {}
    for w, name in zip(omega, names):
        spec = box[name]
        if polarities[name] == "-":
            w = 1.0 - w
        if spec.kind == "integer":
            grid = spec.grid()
            theta[name] = grid[int(round(w * (len(grid) - 1)))]
        else:
            theta[name] = spec.min + w * (spec.max - spec.min)
    return theta


# ---------------------------------------------------------------------------
# staircase geometry

def _dominates(a, b):
    """a >= b componentwise."""
    return all(map(ge, a, b))


def _lift(knees, u, steps) -> list:
    """The knees left after the infeasible point u is added.

    A knee k is the least point of a region not yet classified: the points
    x with x_i > k_i on a real axis and x_i >= k_i on an integer one.
    `steps[i]` is the number of grid intervals of integer axis i, None for a
    real axis.  Every knee below u is replaced by its lifts past u, one axis
    at a time: to u_i on a real axis, to the grid value after u_i on an
    integer one.  Lifts that leave the cube, have an empty region (a real
    coordinate at 1) or lie above another knee are dropped.  (A knee that
    meets u on a real axis, whose region does not hold u, comes back as its
    own lift there, and its other lifts lie above it.)

    A lift on axis i differs from a knee h <= u on axis i alone, so a kept
    knee o (one with o_j > u_j on some axis j) lies below it only if j = i
    and u_i < o_i <= w_i: never on a real axis, where w_i = u_i.  So each
    lift is checked against the lifts kept before it in sorted order (a lift
    below another sorts before it, and a lift dropped for lying above a point
    leaves that point below the later ones too) and, on an integer axis,
    against the kept knees in that slot.
    """
    axes = []  # (axis, coordinate of its lifts) on the axes whose lifts stay in the cube
    for i, m in enumerate(steps):
        w = round((round(u[i] * m) + 1) / m, _ROUND) if m else u[i]
        if w < 1 or (m and w == 1):
            axes.append((i, w))
    kept, lifts = [], {}  # lift -> its axis
    for k in knees:
        if not _dominates(u, k):
            kept.append(k)
            continue
        for i, w in axes:
            lifts[k[:i] + (w,) + k[i + 1:]] = i
    rivals = {i: [o for o in kept if u[i] < o[i] <= w] for i, w in axes if steps[i]}
    out = []
    for k in sorted(lifts):  # a point below k sorts before it
        if not any(_dominates(k, o) for o in chain(out, rivals.get(lifts[k], ()))):
            out.append(k)
    return kept + out


def _gap(point, t) -> float:
    """How far t sits above the point: its largest excess on one axis, or 0."""
    return max(0.0, *map(sub, t, point))


def _gap_to_front(point, front) -> float:
    """How far the satisfying front sits above the point (one-sided, min over front)."""
    return min(_gap(point, t) for t in front)


class _Staircase:
    """The search's bookkeeping: the feasible front, and each knee of the
    infeasible staircase with its gap to that front.

    Each new point costs work for that point alone.  A feasible point t can
    only lower a gap, to the gap to t: the front points it removes lie above
    it, so none of them held a minimum.  An infeasible point keeps the knees
    that it does not lie above, with their gaps, and measures the new lifts
    against the whole front.
    """

    def __init__(self, z, steps):
        self.steps = steps
        self.front = [(1.0,) * z]
        zero = (0.0,) * z  # the hardest corner counts as infeasible
        self.gaps = {k: _gap_to_front(k, self.front) for k in _lift([zero], zero, steps)}

    def widest(self):
        """(gap, knee) of the knee farthest below the front, ties to the
        least knee; (0.0, None) once no knee is left."""
        knee = min(self.gaps, key=lambda k: (-self.gaps[k], k), default=None)
        return (0.0, None) if knee is None else (self.gaps[knee], knee)

    def feasible(self, t):
        self.front = [f for f in self.front if not _dominates(f, t)] + [t]
        for k, gap in self.gaps.items():
            self.gaps[k] = min(gap, _gap(k, t))

    def infeasible(self, u):
        old = self.gaps
        self.gaps = {k: old[k] if k in old else _gap_to_front(k, self.front)
                     for k in _lift(list(old), u, self.steps)}


# ---------------------------------------------------------------------------
# the identification loop

@dataclass
class TemplateResult:
    template: Template
    feasible: bool
    reason: str = ""
    formula: object = None
    valuation: dict = field(default_factory=dict)
    omega: tuple = ()
    coverage: float = 0.0
    average_ig: float = 0.0
    info_gain: dict = field(default_factory=dict)
    front: list = field(default_factory=list)
    n_queries: int = 0
    achieved_gap: float = float("inf")
    approximate: bool = False
    query_log: list = field(default_factory=list)


@dataclass
class IdentifyReport:
    results: list  # TemplateResult, sorted by average IG, feasible first

    @property
    def best(self):
        for r in self.results:
            if r.feasible:
                return r
        return None


def identify(trajectories, prior: PriorModel, templates, p_th: float = 0.98,
             eps: float = 0.05, budget: int = 500) -> IdentifyReport:
    """Per template: approximate the minimal coverage-feasible front, then
    return the front point with maximal average information gain."""
    if not 0 < p_th <= 1:
        raise InputError("p_th must be in (0, 1]")
    if not 0 < eps < 1:
        raise InputError("eps must be in (0, 1)")
    if budget < 1:
        raise InputError("budget must be at least 1 query")
    if not trajectories:
        raise UsageError("empty trajectory set")
    results = [_identify_one(trajectories, prior, t, p_th, eps, budget)
               for t in templates]
    results.sort(key=lambda r: (not r.feasible, -r.average_ig))
    return IdentifyReport(results=results)


def _identify_one(trajs, prior, template, p_th, eps, budget):
    res = TemplateResult(template=template, feasible=False)
    try:
        names, pinned = _axes(template)
        pols = _polarities(template, names)
    except InputError as exc:
        res.reason = str(exc)
        return res
    box = template.box
    z = len(names)

    known = {}  # omega -> (coverage, valuation)
    evaluator = _Evaluator.of(trajs)  # one per template: labels stacked once, reach reused
    compiled = template.compile()  # frozen parameters are literals, free ones columns

    def query(omega):
        theta = map_pi_inv(omega, box, pols, names)
        table = evaluator.tables(compiled, {n: [theta[n]] for n in names})
        cov = _coverage(table).item()  # one valuation, or none if compiled is ground
        theta.update(pinned)
        known[omega] = cov, theta
        res.query_log.append({"omega": list(omega), "theta": dict(theta), "coverage": cov})
        res.n_queries += 1
        return cov

    steps = [len(box[n].grid()) - 1 if box[n].kind == "integer" else None
             for n in names]
    # the corners lie on every grid: a free integer axis has >= 2 points
    cov1 = query((1.0,) * z)
    if cov1 < p_th:
        res.reason = (f"even the easiest corner reaches coverage {cov1:.4f} "
                      f"< p_th={p_th}")
        res.coverage = cov1
        return res
    stairs = _Staircase(z, steps)
    while True:
        res.achieved_gap, knee = stairs.widest()
        if res.achieved_gap <= eps:
            break
        if res.n_queries >= budget:
            res.approximate = True
            break
        # knee + r/2, floored onto integer grids, lies in the knee's region
        # and above no front point, so every query is new and informative
        half = res.achieved_gap / 2
        cand = tuple(round(math.floor(min(w + half, 1.0) * m + 1e-9) / m, _ROUND)
                     if m else round(min(w + half, 1.0), _ROUND)
                     for w, m in zip(knee, steps))
        if query(cand) >= p_th:
            stairs.feasible(cand)
        else:
            stairs.infeasible(cand)

    # each front point was queried, with its valuation; one call scores them all
    omegas = sorted(stairs.front)
    formulas = [template.instantiate(known[omega][1]) for omega in omegas]
    best = None
    for omega, f, rep in zip(omegas, formulas, _info_gains(prior, formulas)):
        if best is None or rep.average_ig > best[2].average_ig + 1e-15:
            best = (omega, f, rep)
    res.omega, res.formula, rep = best
    res.feasible = True
    res.coverage, res.valuation = known[res.omega]
    res.average_ig, res.info_gain = rep.average_ig, rep.info_gain
    res.front = [list(w) for w in omegas]
    return res

