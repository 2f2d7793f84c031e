"""Smoke test of the benchmark harness at reduced size.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=None):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd or HERE.parent,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_declared_metric_is_emitted(workload, trace, section):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "0.2",
                     "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: m["unit"] for k, m in line["metrics"].items()} == want


def test_wrappers_are_removed_afterwards():
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import gtl
    from gtl.formula import parse
    from tracing import Tracer, gtl_modules, leftover_wrappers

    namespaces = [gtl, *gtl_modules().values()]
    before = [dict(vars(ns)) for ns in namespaces]
    filters, showwarning = list(warnings.filters), warnings.showwarning
    tracer = Tracer()
    with tracer:
        assert "gtl.prior.to_dfa" in leftover_wrappers()
        # a call through a name copied by `from .automata import to_dfa`
        sys.modules["gtl.prior"].to_dfa(parse("F x >= 1"))
    assert tracer.stats["automata.to_dfa"].calls == 1
    assert leftover_wrappers() == []
    for ns, attrs in zip(namespaces, before):
        assert all(getattr(ns, k) is v for k, v in attrs.items()), ns.__name__
    assert warnings.filters == filters and warnings.showwarning is showwarning


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "ig-sweep", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
