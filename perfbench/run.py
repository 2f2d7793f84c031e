"""gtl benchmark: seeded workloads, timed end to end and, traced, per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; the program is imported from its
`src/`.  One workload runs in this interpreter; `--workload all` runs each
in a fresh interpreter of its own, so caches and peak RSS never carry over.

A run sets up the workload's instances from the seed (each set-up timed),
then repeats passes over them: at least one pass, and more while another
fits in `--seconds`.  Every output is checked, and every pass must repeat
the first pass's outputs exactly.  `--trace 0` reports the end-to-end
metrics; `--trace 1` adds one traced pass and reports the per-layer metrics
of that pass (see README.md).  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import Stat, Tracer

# one thread: the workloads measure the Python layers, not a BLAS pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("classify-planted", "identify-swarm", "ig-sweep")

END_TO_END_UNITS = {"run_s": "s", "op_s_p50": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}

# traced span -> the statistics reported for it
SPAN_STATS = {
    "graph.hop_matrix": ("calls", "self_s"),
    "graph.reach_matrix": ("calls", "distinct_ratio"),
    "semantics.sat_table": ("calls", "self_s"),
    "semantics.misclassification_rate": ("calls", "mean_s"),
    "semantics.coverage": ("calls", "mean_s"),
    "formula.desugar": ("calls", "self_s"),
    "formula.instantiate": ("calls",),
    # to_dfa's own helpers (and_dnf, minimize, ...) are public spans too, so
    # total_s is the whole construction
    "automata.to_dfa": ("calls", "self_s", "total_s", "distinct_ratio"),
    "prior.letter_distribution": ("calls", "self_s"),
    "prior.static_reach": ("calls", "self_s"),
    "prior.satisfaction_probability": ("calls", "self_s"),
    "identify.knee_points": ("calls", "self_s"),
    "classify.pso_minimize_mr": ("calls", "self_s"),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "mean_s": "s",
              "distinct_ratio": "ratio"}
COUNTER_UNITS = {"automata.dfa_states": "count", "automata.dfa_letters": "count",
                 "prior.transition_evals": "count", "prior.letter_fallbacks": "count",
                 "identify.knee_truncations": "count", "trace.overhead": "ratio"}


def per_layer_units():
    units = {f"{span}.{stat}": STAT_UNITS[stat]
             for span, stats in SPAN_STATS.items() for stat in stats}
    units.update(COUNTER_UNITS)
    return units


def run_pass(ops):
    """Run every operation once; returns (pass seconds, op seconds, outputs)."""
    times, outputs = [], []
    start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        outputs.append(op())
        times.append(perf_counter() - t0)
    return perf_counter() - start, times, outputs


def traced_pass(ops):
    """One pass with every gtl public function wrapped; returns
    (pass seconds, outputs, counters from the program and the wrappers)."""
    import gtl.prior

    extra = {"automata.dfa_states": 0, "automata.dfa_letters": 0}

    def on_dfa(result):
        extra["automata.dfa_states"] += result[0].n_states
        extra["automata.dfa_letters"] += result[0].n_letters

    tracer = Tracer(
        # a reach matrix depends on the trajectory's edge labels, which every
        # fresh copy of one trajectory shares
        keys={"graph.reach_matrix": lambda traj, chain, k: (id(traj.edge_labels), tuple(chain), k),
              "automata.to_dfa": lambda f, L=None: f},
        results={"automata.to_dfa": on_dfa})
    evals0 = gtl.prior.counters["transition_evals"]
    with tracer:
        seconds, _, outputs = run_pass(ops)
    extra["prior.transition_evals"] = gtl.prior.counters["transition_evals"] - evals0
    return seconds, outputs, tracer.stats, extra


def stat_values(st):
    n = st.calls
    return {"calls": n, "self_s": st.self_s, "total_s": st.total_s,
            "mean_s": st.total_s / n if n else 0.0,
            "distinct_ratio": len(st.keys) / n if n else 0.0}


def layer_metrics(stats, extra, overhead):
    values = {f"{span}.{stat}": stat_values(stats.get(span, Stat()))[stat]
              for span, wanted in SPAN_STATS.items() for stat in wanted}
    values.update(extra)
    values["prior.letter_fallbacks"] = stats.get("prior.letter_distribution", Stat()).warnings
    values["identify.knee_truncations"] = stats.get("identify.knee_points", Stat()).warnings
    values["trace.overhead"] = overhead
    return values


def measure(name, seed, seconds, trace, small=False):
    """Run one workload in this interpreter; returns (report, result line)."""
    import numpy as np
    from workloads import WORKLOADS, IgSweep, sub_seed

    wl = WORKLOADS[name](small=small)
    setup_seeds = [sub_seed(seed, r) for r in range(wl.setups)]
    setup_times, instances = [], []
    for s in setup_seeds:
        t0 = perf_counter()
        inst = wl.setup(s)
        setup_times.append(perf_counter() - t0)
        if len(instances) < wl.instances:
            instances.append(inst)
    run_ops = [functools.partial(wl.run, inst) for inst in instances]

    pass_times, op_times, prints = [], [], []
    window = perf_counter()
    while True:
        secs, times, outputs = run_pass(run_ops)
        pass_times.append(secs)
        op_times += times
        prints.append([wl.fingerprint(out) for out in outputs])
        if len(prints) == 1:
            first_outputs = outputs
        if perf_counter() - window + secs > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks, quality = [], {}
    for inst, out in zip(instances, first_outputs):
        ok, q = wl.check(inst, out)
        checks.append(ok)
        for key, val in q.items():
            quality.setdefault(key, []).append(val)
    failed = sum(not ok or fp != first for pass_prints in prints
                 for ok, fp, first in zip(checks, pass_prints, prints[0]))
    problems = []
    if failed:
        problems.append(f"{failed} operations failed their checks or changed output")
    if isinstance(wl, IgSweep):
        bad = wl.reference_mismatches()
        if bad:
            problems.append(f"average IG differs from the recorded reference for {bad}")

    if trace:
        t_secs, t_outputs, stats, extra = traced_pass(run_ops)
        if [wl.fingerprint(out) for out in t_outputs] != prints[0]:
            problems.append("traced outputs differ from untraced outputs")
        metrics = layer_metrics(stats, extra, t_secs / statistics.median(pass_times))
        units = per_layer_units()
    else:
        metrics = {"run_s": statistics.median(pass_times),
                   "op_s_p50": statistics.median(op_times),
                   "setup_s": statistics.median(setup_times),
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS

    report = {
        "workload": name, "seed": seed, "setup_seeds": setup_seeds,
        "ops_per_pass": len(run_ops), "passes": len(pass_times),
        "ops": len(op_times), "ops_failed": failed,
        "problems": problems,
        "quality": {k: statistics.fmean(v) for k, v in quality.items()},
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(),
    }
    result = {"correct": not problems, "attempted": len(op_times), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return report, result


def run_all(args):
    """Each workload in a fresh interpreter; prints their lines and a summary."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--small"] if args.small else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= line["correct"]
        attempted += line["attempted"]
        failed += line["failed"]
        metrics.update({f"{name}.{k}": v for k, v in line["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced sizes, for the harness's smoke test only")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "gtl" / "__init__.py").is_file():
        print(f"error: no gtl sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    report, result = measure(args.workload, args.seed, args.seconds, args.trace,
                             small=args.small)
    for key, m in result["metrics"].items():
        print(f"{args.workload}  {key:<40} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
