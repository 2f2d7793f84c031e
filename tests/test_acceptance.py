"""End-to-end acceptance gate.

Nine checks covering probability computation, automata soundness,
information gain, parameter monotonicity, identification, classification,
and cost scaling.  Each test prints one PASS/FAIL line on the terminal so
the gate can be read off a plain ``pytest -v`` run.
"""

import math
import time

import numpy as np
import pytest

from gtl.automata import label_word, to_dfa
from gtl.classify import PsoConfig, infer_classifier
from gtl.datagen import SwarmScenario, gen_planted, gen_swarm
from gtl.formula import Not, parse, polarity
from gtl.graph import LabeledGraph
from gtl.identify import identify, map_pi_inv
from gtl.prior import (
    PriorModel, compute_ig, counters,
    satisfaction_probability,
)
from gtl.semantics import coverage, misclassification_rate, sat
from gtl.templates import ParamSpec, Template, builtin_templates, default_box

from conftest import (
    prob_oracle_all, random_formula, random_trajectory, two_bin_prior,
)


def report(capsys, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        line = f"\n[{tag}] {name}"
        if detail:
            line += f"  ({detail})"
        print(line)
    assert ok, f"{name}: {detail}"


def path2():
    return LabeledGraph(["a", "b"], [("e1", "a", "b")])


def path3():
    return LabeledGraph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])


# ---------------------------------------------------------------------------
# 1. closed-form probabilities match exhaustive enumeration


def test_c1_probability_matches_enumeration_oracle(capsys):
    t0 = time.monotonic()
    box = default_box(3, label_range=(0.0, 2.0), max_count=2, max_edge=2.5)
    val = {"i1": 1, "i2": 2, "i3": 1, "N": 1, "d": 1.5, "c": 0.9, "a": 1.1}
    shapes = builtin_templates("type-I", box) + builtin_templates("type-II", box)
    # the implication shapes carry two node thresholds, which squares the
    # oracle's cell count; run them on two nodes, the rest on three
    g3 = path3()
    g2 = path2()
    prior3 = two_bin_prior(g3, 3, rng_np=np.random.default_rng(0),
                           edge_labels={"e1": 1.0, "e2": 2.0})
    prior2 = two_bin_prior(g2, 3, rng_np=np.random.default_rng(0),
                           edge_labels={"e1": 1.0})
    worst = 0.0
    checked = 0
    for t in shapes:
        prior = prior2 if "a" in t.param_names else prior3
        f = t.instantiate({n: val[n] for n in t.param_names})
        want = prob_oracle_all(prior, f)
        for v in prior.graph.nodes:
            p = satisfaction_probability(prior, f, v)
            worst = max(worst, abs(p - want[v]))
            checked += 1
    dt = time.monotonic() - t0
    ok = worst < 1e-10 and dt < 60.0
    report(capsys, "C1 probability vs enumeration oracle", ok,
           f"{checked} node probabilities, max err {worst:.2e}, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 2. recursive satisfaction agrees with the DFA run on the label word


def test_c2_sat_agrees_with_dfa(capsys):
    rng = np.random.default_rng(2026)
    g = LabeledGraph.complete(["a", "b", "c"])
    cases = 0
    bad = 0
    for _ in range(250):
        f = random_formula(rng, depth=3)
        dfa, aps = to_dfa(f)
        ndfa, naps = to_dfa(Not(f))
        for _ in range(10):
            traj = random_trajectory(rng, g, L=4)
            for v in ("a", "b"):
                want = sat(traj, f, v, 1)
                if dfa.run_word(label_word(traj, v, aps)) != want:
                    bad += 1
                if ndfa.run_word(label_word(traj, v, naps)) != (not want):
                    bad += 1
                cases += 2
    ok = cases == 10_000 and bad == 0
    report(capsys, "C2 satisfaction vs DFA word acceptance", ok,
           f"{cases} cases, {bad} disagreements")


# ---------------------------------------------------------------------------
# 3. boolean constants carry no information


def test_c3_constants_zero_information(capsys):
    prior = two_bin_prior(path3(), 3)
    reps = [compute_ig(prior, parse("TRUE")), compute_ig(prior, parse("FALSE"))]
    ok = all(r.average_ig == 0.0 and set(r.info_gain.values()) == {0.0}
             for r in reps)
    report(capsys, "C3 IG(TRUE) = IG(FALSE) = 0 exactly", ok)


# ---------------------------------------------------------------------------
# 4. spot value under a uniform one-node prior


def test_c4_spot_value(capsys):
    g = LabeledGraph(["a"], [])
    prior = two_bin_prior(g, 2)
    f = parse("F[<=1] x >= 1")
    p = satisfaction_probability(prior, f, "a")
    ig = compute_ig(prior, f).average_ig
    ok = abs(p - 0.75) < 1e-12 and abs(ig + math.log(0.75) / 2) < 1e-12
    report(capsys, "C4 spot value P = 0.75, IG = -ln(0.75)/2", ok,
           f"P err {abs(p - 0.75):.2e}")


# ---------------------------------------------------------------------------
# 5. easing any parameter never lowers the probability; strictly larger
#    probability (oracle-confirmed) means strictly smaller information gain


def test_c5_monotonicity_and_ig_ordering(capsys):
    rng = np.random.default_rng(1)
    g = path3()
    prior = two_bin_prior(g, 4, rng_np=rng,
                          edge_labels={"e1": 1.0, "e2": 2.0})
    box = default_box(4, label_range=(0.0, 2.0), max_count=2, max_edge=2.5)

    def rand_theta(t):
        th = {}
        for n, spec in t.box.items():
            if spec.kind == "integer":
                th[n] = int(rng.choice(spec.grid()))
            else:
                th[n] = float(rng.uniform(spec.min, spec.max))
        return th

    def ease(t, th):
        out = dict(th)
        for n, spec in t.box.items():
            pol = polarity(t.formula, n)
            if pol == "+":
                out[n] = (th[n] + (spec.max - th[n]) * rng.random()
                          if spec.kind == "continuous"
                          else int(rng.integers(th[n], spec.grid()[-1] + 1)))
            elif pol == "-":
                out[n] = (spec.min + (th[n] - spec.min) * rng.random()
                          if spec.kind == "continuous"
                          else int(rng.integers(spec.grid()[0], th[n] + 1)))
        return out

    violations = 0
    pairs = 0
    for kind in ("type-I", "type-II"):
        tpls = builtin_templates(kind, box)
        per = 1000 // len(tpls) + 1
        done = 0
        for t in tpls:
            for _ in range(per):
                if done >= 1000:
                    break
                th = rand_theta(t)
                th2 = ease(t, th)
                p1 = satisfaction_probability(prior, t.instantiate(th), "b")
                p2 = satisfaction_probability(prior, t.instantiate(th2), "b")
                if p1 > p2 + 1e-12:
                    violations += 1
                pairs += 1
                done += 1

    # strict cases at L = 2, confirmed against the enumeration oracle
    g2 = path2()
    prior2 = two_bin_prior(g2, 2, rng_np=np.random.default_rng(4),
                           edge_labels={"e1": 1.0})
    t = builtin_templates("type-I", default_box(2, label_range=(0.0, 2.0),
                                                max_count=2, max_edge=2.5))[1]
    strict = 0
    for c_tight, c_loose in [(0.4, 1.2), (0.7, 1.6), (0.9, 1.9)]:
        f1 = t.instantiate({"i1": 0, "i2": 1, "N": 1, "d": 1.5, "c": c_tight})
        f2 = t.instantiate({"i1": 0, "i2": 1, "N": 1, "d": 1.5, "c": c_loose})
        o1 = prob_oracle_all(prior2, f1)["a"]
        o2 = prob_oracle_all(prior2, f2)["a"]
        assert o1 < o2 - 1e-12, "oracle should confirm a strict ordering"
        ig1 = compute_ig(prior2, f1, nodes=["a"]).average_ig
        ig2 = compute_ig(prior2, f2, nodes=["a"]).average_ig
        if ig1 > ig2:
            strict += 1

    ok = pairs == 2000 and violations == 0 and strict == 3
    report(capsys, "C5 parameter monotonicity and IG ordering", ok,
           f"{pairs} dominated pairs, {violations} violations, "
           f"{strict}/3 strict IG orderings")


# ---------------------------------------------------------------------------
# 6. the staircase search localizes fronts quickly and certifiably


def test_c6_front_localization(capsys):
    from test_identify import cont_box, flat_prior, make_dataset

    t0 = time.monotonic()
    # one parameter: running max exactly 5.0, so the tightest feasible
    # instance of F x >= c is c = 5.0
    data = make_dataset([[1.0, 5.0, 2.0], [5.0, 0.5, 3.0]], 3)
    t1 = Template(parse("F x >= ?c"), cont_box(c=(0.0, 10.0)))
    res1 = identify(data, flat_prior(3), [t1], p_th=1.0, eps=0.05).best
    one_ok = (res1 is not None and res1.feasible
              and abs(res1.valuation["c"] - 5.0) <= 0.5
              and res1.achieved_gap <= 0.05 and res1.n_queries <= 30
              and res1.average_ig > 0)

    # two parameters: every reported front point must re-verify as
    # coverage-feasible, and the winner must maximize IG on the front
    data2 = make_dataset([[2.0, 6.0], [6.0, 3.0]], 2)
    t2 = Template(parse("F (x >= ?c1 & x <= ?c2)"),
                  cont_box(c1=(0.0, 10.0), c2=(0.0, 10.0)))
    res2 = identify(data2, flat_prior(2), [t2], p_th=1.0, eps=0.1).best
    pols, names = {"c1": "-", "c2": "+"}, ["c1", "c2"]
    front_ok = res2 is not None and res2.feasible and bool(res2.front)
    if front_ok:
        probs = []
        for w in res2.front:
            theta = map_pi_inv(w, t2.box, pols, names)
            inst = t2.instantiate(theta)
            front_ok &= coverage(data2, inst) >= 1.0
            probs.append(satisfaction_probability(flat_prior(2), inst, "a"))
        got = satisfaction_probability(flat_prior(2), res2.formula, "a")
        front_ok &= got <= min(p for p in probs if p > 0) + 1e-9

    dt = time.monotonic() - t0
    ok = one_ok and front_ok and dt < 120.0
    report(capsys, "C6 front localization and certificate", ok,
           f"1-param: {res1.n_queries} queries, gap {res1.achieved_gap:.3f}; "
           f"2-param front of {len(res2.front) if res2 else 0}; {dt:.1f}s")


# ---------------------------------------------------------------------------
# 7. identification recovers an informative constraint from swarm data


def test_c7_swarm_identification(capsys):
    from test_identify import swarm_prior

    t0 = time.monotonic()
    sc = SwarmScenario(seed=100)
    train = gen_swarm(sc, 10)
    held = gen_swarm(SwarmScenario(seed=101), 10)

    prior = swarm_prior(sc, train)

    tpl = Template(
        parse("G (x >= ?a -> G[<=?i3] E ?N via (y <= ?d) : x <= ?c)"),
        {"a": ParamSpec(0.05, 0.4, "continuous"),
         "c": ParamSpec(0.112, 0.2, "continuous"),
         "i3": ParamSpec(2, 2, "integer"),
         "N": ParamSpec(1, 1, "integer"),
         "d": ParamSpec(1.0, 1.0, "continuous")})
    res = identify(train, prior, [tpl], p_th=0.98, eps=0.05).best

    dt = time.monotonic() - t0
    cov_t = coverage(train, res.formula) if res else 0.0
    cov_h = coverage(held, res.formula) if res else 0.0
    ok = (res is not None and res.feasible and cov_t == 1.0 and cov_h >= 0.98
          and res.average_ig > 0
          and res.valuation["a"] > res.valuation["c"] and dt < 600.0)
    report(capsys, "C7 swarm constraint identification", ok,
           f"train cov {cov_t:.3f}, held-out cov {cov_h:.3f}, "
           f"IG {res.average_ig:.4f}, a {res.valuation['a']:.3f} > "
           f"c {res.valuation['c']:.3f}, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 8. classification recovers a planted conjunctive separator


def test_c8_planted_classification(capsys):
    t0 = time.monotonic()
    g = LabeledGraph.complete([f"n{i}" for i in range(20)])
    prior = PriorModel(g, 2, ((0.0, 0.9), (1.1, 2.0)),
                       {v: np.tile([0.5, 0.5], (2, 1)) for v in g.nodes},
                       {e: 1.0 for e in g.edges})
    sep = parse("E 15 via (y <= 2) : x >= 1 & E 1 via (y <= 2) : x <= 0.9")
    tpls = [
        Template(parse("E ?N via (y <= 2) : x >= ?c"),
                 {"N": ParamSpec(1, 19, "integer"),
                  "c": ParamSpec(0.0, 2.0, "continuous")}),
        Template(parse("E ?N via (y <= 2) : x <= ?c"),
                 {"N": ParamSpec(1, 19, "integer"),
                  "c": ParamSpec(0.0, 2.0, "continuous")}),
    ]
    good = 0
    rows = []
    for seed in range(10):
        train = gen_planted(sep, prior, 5, 5, seed=seed)
        held = gen_planted(sep, prior, 5, 5, seed=1000 + seed)
        res = infer_classifier(train, tpls, m_th=0.02, eta_th=3, mhat_th=0.1,
                               cfg=PsoConfig(seed=seed))
        mr_t = misclassification_rate(train, res.formula)
        mr_h = misclassification_rate(held, res.formula)
        hit = res.success and mr_t <= 0.02 and mr_h <= 0.10
        good += hit
        rows.append(f"seed {seed}: mrT {mr_t:.2f} mrH {mr_h:.2f}")
    dt = time.monotonic() - t0
    ok = good >= 9 and dt < 900.0
    report(capsys, "C8 planted-separator classification", ok,
           f"{good}/10 seeds within thresholds, {dt:.0f}s")


# ---------------------------------------------------------------------------
# 9. probability cost scales linearly in the horizon


def test_c9_linear_cost_scaling(capsys):
    g = path3()
    f = parse("G (x <= 1 -> F[<=1] x >= 1)")
    evals = []
    for L in (8, 16):
        prior = two_bin_prior(g, L)
        before = counters["transition_evals"]
        satisfaction_probability(prior, f, "a")
        evals.append(counters["transition_evals"] - before)
    ratio = evals[1] / evals[0]
    ok = abs(ratio - 2.0) <= 0.2
    report(capsys, "C9 transition evaluations double with L", ok,
           f"{evals[0]} -> {evals[1]} (ratio {ratio:.3f})")
