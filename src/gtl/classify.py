"""Formula inference for two-class trajectory data: PSO plus prune-and-grow.

Each primitive template's parameters are tuned by global-best particle swarm
optimization against the nodal misclassification rate.  If no primitive is
accurate enough, templates above the pruning threshold are discarded and
the survivors are combined with conjunctions and disjunctions of growing
size (joint re-optimization, warm-started at the primitives' optima) until
the accuracy target is met or the size budget runs out.  Negated primitives
join the pool so that either class can carry the positive signature.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, UsageError
from .formula import (
    And, Formula, Not, Or, formula_size, print_formula, rename_parameters,
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
        if self.swarm < 1:
            raise InputError("swarm size must be >= 1")
        if self.iterations < 0:
            raise InputError("iteration count must be >= 0")
        if not all(map(math.isfinite, (self.inertia, self.cognitive, self.social))):
            raise InputError("PSO coefficients must be finite")


def _round_integers(theta, box):
    out = {}
    for name, spec in box.items():
        v = theta[name]
        if spec.kind == "integer":
            grid = spec.grid()
            v = min(max(int(round(v)), grid[0]), grid[-1])
        out[name] = v
    return out


def pso_minimize_mr(template: Template, data, cfg: PsoConfig,
                    warm_starts=()) -> tuple[dict, float]:
    """Global-best PSO over the template box; returns (theta, MR).

    Integer dimensions are rounded at every fitness evaluation.  Optional
    warm_starts (valuations inside the box) replace the first particles'
    initial positions.  The template is compiled once per run, and each
    swarm step evaluates the valuations it has not seen before in one query.
    """
    if not data:
        raise UsageError("empty dataset")
    names = template.param_names
    box = template.box
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
    evaluator = _Evaluator(data)  # one per run: labels stacked once, reach reused
    formula = template.compile()
    size = len(data) * data[0].graph.n_nodes  # (trajectory, node) pairs
    cache = {}

    def fitness(positions):
        """(MR, theta) of each particle; the uncached valuations share one query."""
        thetas = [_round_integers(dict(zip(names, p)), box) for p in positions]
        keys = [tuple(theta[n] for n in names) for theta in thetas]
        new = {key: theta for key, theta in zip(keys, thetas) if key not in cache}
        if new:
            values = {n: np.array([theta[n] for theta in new.values()], dtype=float)
                      for n in names}
            wrong = _misclassified(evaluator.tables(formula, values), positive)
            for key, w in zip(new, np.broadcast_to(wrong, len(new))):
                cache[key] = int(w) / size
        return [(cache[key], theta) for key, theta in zip(keys, thetas)]

    pos = lo + rng.random((cfg.swarm, len(names))) * width
    for i, theta in enumerate(warm_starts):
        if i >= cfg.swarm:
            break
        pos[i] = [theta[n] for n in names]
    vel = (rng.random((cfg.swarm, len(names))) - 0.5) * width

    pbest = pos.copy()
    pbest_val = np.empty(cfg.swarm)
    pbest_theta = [None] * cfg.swarm
    for i, (val, theta) in enumerate(fitness(pos)):
        pbest_val[i], pbest_theta[i] = val, theta
    g = int(np.argmin(pbest_val))
    gbest, gbest_val, gbest_theta = pbest[g].copy(), pbest_val[g], pbest_theta[g]

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
        for i, (val, theta) in enumerate(fitness(pos)):
            if val < pbest_val[i]:
                pbest_val[i], pbest[i], pbest_theta[i] = val, pos[i].copy(), theta
                if val < gbest_val:
                    gbest_val, gbest, gbest_theta = val, pos[i].copy(), theta
    return gbest_theta, float(gbest_val)


# ---------------------------------------------------------------------------
# prune and grow

@dataclass
class ClassifierResult:
    success: bool
    formula: Formula | None
    train_mr: float
    size: int
    stage1: list  # per-primitive {name, mr, theta}
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
    if eta_th < 1:
        raise InputError("eta_th must be >= 1")
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

    def consider(formula, mr, note):
        nonlocal best
        size = formula_size(formula)
        result.search_log.append({"candidate": print_formula(formula),
                                  "mr": mr, "size": size, "stage": note})
        if size <= eta_th and (best is None or mr < best[0]):
            best = (mr, size, formula)

    stage1 = []
    for i, t in enumerate(pool):
        theta, mr = pso_minimize_mr(t, data, replace(cfg, seed=cfg.seed + i))
        stage1.append({"name": t.name or print_formula(t.formula),
                       "template": t, "theta": theta, "mr": mr})
        consider(t.instantiate(theta), mr, "primitive")
    result.stage1 = [{k: v for k, v in row.items() if k != "template"}
                     for row in stage1]

    if best is not None and best[0] <= m_th:
        return _finish(result, best, data, m_th)

    kept = [row for row in stage1 if row["mr"] < mhat_th]
    if not kept:
        result.train_mr = best[0] if best else 1.0
        result.formula = best[2] if best else None
        result.size = best[1] if best else 0
        return result
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
                theta, mr = pso_minimize_mr(
                    tpl, data, replace(cfg, seed=cfg.seed + 1000 + arity),
                    warm_starts=[warm])
                consider(tpl.instantiate(theta), mr, f"grow-{arity}")
                if mr <= m_th:
                    return _finish(result, best, data, m_th)
        if not grew:
            break

    return _finish(result, best, data, m_th)


def _finish(result, best, data, m_th):
    mr, size, formula = best
    # recompute, never trust the cached search value
    actual = misclassification_rate(data, formula)
    result.formula = formula
    result.train_mr = actual
    result.size = size
    result.success = actual <= m_th
    return result
