"""Formula inference for two-class trajectory data: exact or PSO fits plus
prune-and-grow.

Each template's parameters are tuned against the nodal misclassification
rate.  A box with one real threshold on node labels, or none, and an
integer grid no larger than the swarm is solved exactly, in one query: at
each grid point the rate is a step function of the threshold, and one sort
of the data's critical values finds its least pieces (Asarin et al., RV 2011; Bakhirkin et al., HSCC 2018).
Every other box is tuned by global-best particle swarm optimization.  If
no primitive is accurate enough, templates above the pruning threshold are
discarded and the survivors are combined with conjunctions and
disjunctions of growing size (joint re-optimization, warm-started at the
primitives' optima) until the accuracy target is met or the size budget
runs out.  Negated primitives join the pool so that either class can carry
the positive signature.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, UsageError
from .formula import (
    And, Atom, Formula, Not, Or, Param, _check_int, _subformulas, formula_size, print_formula,
    rename_parameters,
)
from .semantics import _Evaluator, _misclassified, _positive, misclassification_rate
from .templates import Template


@dataclass(frozen=True)
class PsoConfig:
    swarm: int = 40
    iterations: int = 100
    inertia: float = 0.7
    cognitive: float = 1.5
    social: float = 1.5
    seed: int = 0

    def __post_init__(self):
        _check_int("swarm", self.swarm, 1)
        _check_int("iterations", self.iterations, 0)
        _check_int("seed", self.seed, 0)
        if not all(map(math.isfinite, (self.inertia, self.cognitive, self.social))):
            raise InputError("PSO coefficients must be finite")


def _rounded(positions, box, names):
    """positions with the integer columns rounded half to even and clipped to their grids."""
    integer = [box[n].kind == "integer" for n in names]
    grids = [box[n].grid() if i else range(1) for n, i in zip(names, integer)]  # range(1): unused
    return np.where(integer, np.clip(np.rint(positions), [g[0] for g in grids],
                                     [g[-1] for g in grids]), positions)


def pso_minimize_mr(template: Template, data, cfg: PsoConfig,
                    warm_starts=()) -> tuple[dict, float]:
    """Global-best PSO over the template box; returns (theta, MR).

    Integer dimensions are rounded at every fitness evaluation.  Optional
    warm_starts (valuations inside the box) replace the first particles'
    initial positions.  The template is compiled once per run, and each
    swarm step is one array step and one query of its unseen valuations.
    """
    if not data:
        raise UsageError("empty dataset")
    names = template.param_names
    box = template.box
    warm_starts = list(warm_starts)  # validated and placed: a generator is read once
    for theta in warm_starts:
        for n in names:
            if n not in theta:
                raise InputError(f"warm start {theta} has no value for parameter {n!r}")
            tol = 1e-9 if box[n].kind == "integer" else 0.0  # as ParamSpec.grid() allows
            if not box[n].min - tol <= theta[n] <= box[n].max + tol:
                raise InputError(f"warm start {n}={theta[n]} lies outside the box "
                                 f"[{box[n].min}, {box[n].max}]")
    lo = np.array([box[n].min for n in names])
    hi = np.array([box[n].max for n in names])
    width = hi - lo
    vmax = 0.5 * width
    rng = np.random.default_rng(cfg.seed)
    positive = _positive(data)
    evaluator = _Evaluator.of(data)  # one per run: labels stacked once, reach reused
    formula = template.compile()
    size = len(data) * data[0].graph.n_nodes  # (trajectory, node) pairs
    cache = {}  # rounded valuation -> misclassified pairs

    def fitness(positions):
        """MR of each particle; unseen valuations share one query, first-seen first."""
        keys = list(map(tuple, _rounded(positions, box, names).tolist()))
        new = list(dict.fromkeys(key for key in keys if key not in cache))
        if new:
            values = dict(zip(names, np.array(new).T))
            wrong = _misclassified(evaluator.tables(formula, values), positive)
            cache.update(zip(new, np.broadcast_to(wrong, len(new)).tolist()))
        return np.array([cache[key] for key in keys]) / size

    pos = lo + rng.random((cfg.swarm, len(names))) * width
    for i, theta in zip(range(cfg.swarm), warm_starts):
        pos[i] = [theta[n] for n in names]
    vel = (rng.random((cfg.swarm, len(names))) - 0.5) * width

    pbest, pbest_val = pos.copy(), fitness(pos)
    g = int(np.argmin(pbest_val))
    gbest, gbest_val = pbest[g].copy(), pbest_val[g]

    for _ in range(cfg.iterations):
        if gbest_val == 0.0:
            break
        r1 = rng.random((cfg.swarm, len(names)))
        r2 = rng.random((cfg.swarm, len(names)))
        vel = (cfg.inertia * vel
               + cfg.cognitive * r1 * (pbest - pos)
               + cfg.social * r2 * (gbest - pos))
        vel = np.clip(vel, -vmax, vmax)
        pos = np.clip(pos + vel, lo, hi)
        val = fitness(pos)
        better = val < pbest_val
        pbest[better], pbest_val[better] = pos[better], val[better]
        g = int(np.argmin(val))  # every pbest is >= gbest: only a new least MR moves it
        if val[g] < gbest_val:
            gbest, gbest_val = pos[g].copy(), val[g]
    rounded = zip(names, _rounded(gbest, box, names))
    return {n: int(v) if box[n].kind == "integer" else v for n, v in rounded}, float(gbest_val)


# ---------------------------------------------------------------------------
# exact threshold axis

def _fit(template: Template, data, cfg: PsoConfig, warm_starts=()) -> tuple[dict, float, str]:
    """(theta, MR, search) of one template: "exact" when its box has at most
    one free continuous parameter, a node-label threshold, and an integer
    grid of at most cfg.swarm points, so that the whole grid is one query
    no larger than PSO's first; "pso", through `pso_minimize_mr`, otherwise."""
    box, names = template.box, template.param_names
    free = [n for n in names if not box[n].frozen]
    real = [n for n in free if box[n].kind == "continuous"]
    ints = [n for n in free if box[n].kind == "integer"]
    node_threshold = not real or any(isinstance(g, Atom) and g.threshold == Param(real[0])
                                     for g in _subformulas(template.formula))
    points = math.prod(len(box[n].grid()) for n in ints)
    if len(real) > 1 or not node_threshold or points > cfg.swarm:
        return (*pso_minimize_mr(template, data, cfg, warm_starts), "pso")
    if not data:
        raise UsageError("empty dataset")
    positive = _positive(data)
    evaluator = _Evaluator.of(data)
    formula = template.compile()
    pairs = np.repeat(positive, data[0].graph.n_nodes)  # per (trajectory, node) pair
    rows = list(itertools.product(*(box[n].grid() for n in ints)))
    values = dict(zip(ints, np.array(rows, dtype=np.int64).T))
    if real:
        cut, s = evaluator.cuts(formula, real[0], values)
        c = np.broadcast_to(cut[..., 0], (len(rows),) + cut.shape[-3:-1]).reshape(len(rows), -1)
        count, i, q = _sweep(c, pairs, *sorted((s * box[real[0]].min, s * box[real[0]].max)))
    else:
        wrong = np.broadcast_to(_misclassified(evaluator.tables(formula, values), positive),
                                len(rows))
        i = int(np.argmin(wrong))
        count = int(wrong[i])
    theta = {**dict(zip(ints, rows[i])), **template.pinned}
    if real:
        theta[real[0]] = s * q
    return {n: theta[n] for n in names}, count / len(pairs), "exact"


def _sweep(c, positive, lo, hi):
    """The best piece of q in [lo, hi] over K rows of cuts c, (K, M): a pair
    holds at q when q >= its cut, so the misclassified count (positives with
    cut > q, negatives with cut <= q) is constant on each piece [c_i, c_i+1)
    between the distinct cuts in the box.  Returns (count, row, q) of the
    least count, then the widest piece, the first row, the lowest piece; q
    is the piece's midpoint, or its left end if the midpoint does not fall
    below its right end."""
    K = len(c)
    order = np.argsort(c, axis=1, kind="stable")
    cs = np.take_along_axis(c, order, axis=1)
    step = np.where(positive, -1, 1)  # a pair's change to the count once q >= its cut
    base = np.count_nonzero(positive)
    nxt = np.concatenate([cs[:, 1:], np.full((K, 1), np.inf)], axis=1)
    starts = np.concatenate([np.full((K, 1), lo), cs], axis=1)
    ends = np.minimum(np.concatenate([np.min(np.where(c > lo, c, np.inf), axis=1, keepdims=True),
                                      nxt], axis=1), hi)
    counts = base + np.concatenate([np.where(c <= lo, step, 0).sum(axis=1, keepdims=True),
                                    np.cumsum(step[order], axis=1)], axis=1)
    valid = np.concatenate([np.ones((K, 1), dtype=bool), (cs < nxt) & (cs > lo) & (cs <= hi)],
                           axis=1)
    least = counts == np.min(counts, where=valid, initial=counts.max())
    width = np.subtract(ends, starts, where=valid & least, out=np.full(valid.shape, -np.inf))
    r, j = divmod(int(np.argmax(width == width.max())), width.shape[1])  # valid starts rise along j
    a, b = starts[r, j], ends[r, j]
    m = a + (b - a) / 2
    return int(counts[r, j]), r, float(m if m < b else a)


# ---------------------------------------------------------------------------
# prune and grow

@dataclass
class ClassifierResult:
    success: bool
    formula: Formula | None
    train_mr: float
    size: int
    stage1: list  # per-primitive {name, theta, mr, search}
    search_log: list = field(default_factory=list)


def _combine(components, ops):
    """Build a Template for op(...op(c0, c1)..., ck) with renamed parameters.

    components: list of (Template, theta); ops: list of And/Or classes, one
    per join.  Returns (template, warm_start valuation).
    """
    parts, boxes, warm = [], {}, {}
    for i, (tpl, theta) in enumerate(components):
        mapping = {n: f"g{i}_{n}" for n in tpl.param_names}
        parts.append(rename_parameters(tpl.formula, mapping))
        for n, spec in tpl.box.items():
            boxes[mapping[n]] = spec
        for n, v in theta.items():
            warm[mapping[n]] = v
    f = parts[0]
    for op, part in zip(ops, parts[1:]):
        f = op(f, part)
    name = f" {'&' if ops and ops[0] is And else '|'} ".join(
        t.name or "?" for t, _ in components)
    return Template(formula=f, box=boxes, name=name), warm


def infer_classifier(data, templates, m_th: float = 0.02, eta_th: int = 3,
                     mhat_th: float = 0.1, cfg: PsoConfig | None = None) -> ClassifierResult:
    """Prune-and-grow inference of a classifying formula.

    Succeeds as soon as any candidate reaches MR <= m_th; candidates never
    exceed size eta_th.  The growing stage re-optimizes every combination
    jointly, warm-started from its parts' stage-1 parameters.
    """
    if not 0 <= m_th < mhat_th < 1:
        raise InputError("thresholds must satisfy 0 <= m_th < mhat_th < 1")
    _check_int("eta_th", eta_th, 1)
    if cfg is None:
        cfg = PsoConfig()
    labels = {t.label for t in data}
    if not labels <= {1, -1}:
        raise InputError("every trajectory needs a +1/-1 label")

    pool = []
    for t in templates:
        pool.append(t)
        pool.append(Template(formula=Not(t.formula), box=t.box,
                             name=f"!({t.name or print_formula(t.formula)})"))

    result = ClassifierResult(success=False, formula=None, train_mr=1.1,
                              size=0, stage1=[])
    best = None  # (mr, size, formula)

    def consider(formula, mr, note, search):
        nonlocal best
        size = formula_size(formula)
        result.search_log.append({"candidate": print_formula(formula),
                                  "mr": mr, "size": size, "stage": note, "search": search})
        if size <= eta_th and (best is None or mr < best[0]):
            best = (mr, size, formula)

    stage1 = []
    for i, t in enumerate(pool):
        theta, mr, search = _fit(t, data, replace(cfg, seed=cfg.seed + i))
        stage1.append({"name": t.name or print_formula(t.formula),
                       "template": t, "theta": theta, "mr": mr, "search": search})
        consider(t.instantiate(theta), mr, "primitive", search)
    result.stage1 = [{k: v for k, v in row.items() if k != "template"}
                     for row in stage1]

    if best is not None and best[0] <= m_th:
        return _finish(result, best, data, m_th)

    kept = [row for row in stage1 if row["mr"] < mhat_th]
    if not kept:
        return _finish(result, best, data, m_th)
    kept.sort(key=lambda r: r["mr"])

    for arity in range(2, len(kept) + 1):
        combos = sorted(itertools.combinations(kept, arity),
                        key=lambda rows: sum(r["mr"] for r in rows))
        grew = False
        for rows in combos:
            for ops in itertools.product((And, Or), repeat=arity - 1):
                tpl, warm = _combine([(r["template"], r["theta"]) for r in rows],
                                     list(ops))
                if formula_size(tpl.formula) > eta_th:
                    continue
                grew = True
                theta, mr, search = _fit(
                    tpl, data, replace(cfg, seed=cfg.seed + 1000 + arity),
                    warm_starts=[warm])
                consider(tpl.instantiate(theta), mr, f"grow-{arity}", search)
                if mr <= m_th:
                    return _finish(result, best, data, m_th)
        if not grew:
            break

    return _finish(result, best, data, m_th)


def _finish(result, best, data, m_th):
    if best is None:  # no candidate fits eta_th
        result.train_mr, result.formula, result.size = 1.0, None, 0
        return result
    mr, size, formula = best
    # recompute, never trust the cached search value
    actual = misclassification_rate(data, formula)
    result.formula = formula
    result.train_mr = actual
    result.size = size
    result.success = actual <= m_th
    return result
