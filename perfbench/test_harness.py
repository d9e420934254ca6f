"""Smoke test of the benchmark harness at tiny sizes.

Every workload runs untraced and traced with a zero time budget (the minimum
number of passes), and must report exactly the metrics BENCHMARK.json names,
with their units, and no operation may fail.  The benchmark must also
refuse to run, without printing a result, where the fundiv sources are
missing.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

import defects
import run
import workloads

BENCH = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in BENCH["workloads"]]


def test_benchmark_names_the_harness_workloads():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_reports_every_metric(workload, trace):
    result = run.run(workload, seed=3, seconds=0.0, trace=trace, size="tiny", setup_probes=1)
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert result["correct"], result["failures"]
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= 1
    if trace and workload == "inject_paired":
        assert result["metrics"]["simulate.useful_step_frac"]["value"] == 1.0
    if trace and workload == "ruin_mc":
        assert 0.0 < result["metrics"]["simulate.useful_step_frac"]["value"] < 1.0
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", NAMES[0], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_kappa_cap_keeps_the_breakeven_search_resolvable():
    p = defects.BETA2_HANG
    cap = workloads.kappa_cap(p)
    assert 1.0 < cap < workloads.KAPPA_CAP
    runner = run.Runner()
    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        ok, kstar = runner.op("breakeven", lambda: workloads.injections.breakeven_kappa(p, kappa_cap=cap),
                              limit_s=5.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert ok, runner.records[-1]
    assert 1.0 < kstar < cap
