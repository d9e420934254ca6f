"""Run one fundiv benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop: one caller in this process runs passes of the workload back
to back for about S seconds, and reports medians.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs a few untraced passes, then one pass
with every layer's public functions wrapped, and prints the per-layer
metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results,
provenance and the span table go to ``.perfbench_out/`` in the checkout.
See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter, perf_counter_ns, thread_time_ns

import numpy as np

import calibrate
import defects
import streams
import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = workloads.ROOT / ".perfbench_out"

#: Workloads taken out as unsteady, with the reason; recorded in every result.
DROPPED_WORKLOADS = {
    "wide_cli": (
        "fundiv simulate, 100k one-year paths: its Python-bound pass time followed the shared "
        "machine's speed swings, with a ten-seed quartile spread of 0.05-0.25; ruin_mc now runs "
        "through cli.main and the params file instead"
    ),
}

#: Setup probes per untraced run; their median is ``setup_s``.
SETUP_PROBES = 7
MIN_PASSES = 3
MIN_UNTRACED_PASSES_TRACED_RUN = 2
#: No pass starts after this many seconds, so a run ends well inside 180 s.
HARD_STOP_S = 120.0

#: Untraced per-operation timings of ``analytic``: op -> (metric stem, scale, unit).
OP_TIMINGS = {
    "analytic.beta0": ("closed_form.beta0_us", 1e6, "us"),
    "analytic.value": ("closed_form.value_us", 1e6, "us"),
    "analytic.kappa_from_barrier": ("injections.kappa_from_barrier_us", 1e6, "us"),
    "analytic.beta2": ("injections.beta2_ms", 1e3, "ms"),
    "analytic.breakeven": ("injections.breakeven_ms", 1e3, "ms"),
    "analytic.solvency_analytic": ("verify.solvency_analytic_ms", 1e3, "ms"),
    "analytic.solvency_fd": ("verify.solvency_fd_ms", 1e3, "ms"),
    "analytic.injection_analytic": ("verify.injection_analytic_ms", 1e3, "ms"),
    "analytic.injection_fd": ("verify.injection_fd_ms", 1e3, "ms"),
}
LEMMA_OPS = tuple(op for op in OP_TIMINGS if op.startswith("analytic.solvency") or op.startswith("analytic.injection"))


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that exceeded its time limit.

    A BaseException so that no ``except Exception`` in the code under test
    can swallow it.
    """


def _alarm(signum, frame):
    raise OpTimeout()


class Runner:
    """Runs operations under a time limit, checks them and records the outcome.

    Status of an operation: ``ok``; ``error`` (raised); ``timeout``;
    ``verdict`` (a lemma report flags a condition at the optimal barrier);
    ``wrong`` (an output disagrees with its reference).  Only ``wrong``
    makes the run incorrect; every status but ``ok`` is a failed operation.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.tracer: tracing.Tracer | None = None
        self.pass_no = -1
        self.phase = "probe"
        #: Time that pass walls leave out: output checks, and operations that
        #: hit their time limit (the limit, not the program, sets that time).
        self.excluded_ns = 0
        #: Samples machine speed during the untraced passes (``calibrate.py``).
        self.sampler = calibrate.Sampler()

    @property
    def traced(self) -> bool:
        return self.tracer is not None and self.tracer.active

    def _limited(self, fn, limit_s: float):
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, limit_s)
                return "ok", fn()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
        except OpTimeout:
            return "timeout", None
        except Exception as exc:  # the operation under test failed; record it and go on
            return "error", exc

    def op(self, name, fn, check=None, verdict=False, limit_s=60.0, group=None):
        run_id = len(self.records)
        tr = self.tracer if self.traced else None
        if tr is not None:
            tr.run_id = run_id
            root = tr.open(tracing.OP_PREFIX + name)
        sampler = self.sampler
        first, sampled_cpu, sampled_wall = len(sampler.samples), sampler.cpu_ns, sampler.wall_ns
        t0, c0 = perf_counter_ns(), thread_time_ns()
        status, value = self._limited(fn, limit_s)
        elapsed = perf_counter_ns() - t0 - (sampler.wall_ns - sampled_wall)
        cpu = thread_time_ns() - c0 - (sampler.cpu_ns - sampled_cpu)
        ref = sampler.ref_ns(first)
        if status == "timeout":
            self.excluded_ns += elapsed
        if tr is not None:
            tr.close(root, failed=status != "ok")
        message = repr(value) if status == "error" else None
        if status == "ok" and check is not None:
            if tr is not None:
                tr.active = False
            c0 = perf_counter_ns()
            cstatus, message = self._limited(lambda: check(value), limit_s)
            self.excluded_ns += perf_counter_ns() - c0
            if tr is not None:
                tr.active = True
            if cstatus != "ok":
                status, message = ("timeout", "check timed out") if cstatus == "timeout" else (
                    "wrong", f"check raised {message!r}")
            elif message is not None:
                status = "verdict" if verdict else "wrong"
        self.records.append(dict(
            name=name, group=group, pass_no=self.pass_no, phase=self.phase, status=status,
            elapsed_ns=elapsed, cpu_ns=cpu, ref_ns=ref, message=message,
        ))
        return status == "ok", value


def norm_ns(record: dict) -> float:
    """An operation's CPU time at the calibration speed (``calibrate.REF_NS`` per sample)."""
    return record["cpu_ns"] * calibrate.REF_NS / record["ref_ns"]


def probe_defects() -> list[dict]:
    """Run each known-defect repro of ``defects.py`` once; none is an operation of the workload."""
    probe = Runner()
    found = []
    for name, call, check, limit_s in defects.cases():
        probe.op(name, call, check=check, verdict=True, limit_s=limit_s)
        r = probe.records[-1]
        found.append(dict(name=name, reproduced=r["status"] in ("timeout", "verdict"), status=r["status"],
                          message=r["message"]))
    return found


# ---------------------------------------------------------------------------
# measurement


def _children_cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def measure_setup(name: str, seed: int, size: str, tmp_root: Path, probes: int) -> list[float]:
    """CPU time (user + system) of ``probes`` fresh processes that each set the workload up,
    at the calibration speed measured just before and after each."""
    times = []
    for _ in range(probes):
        tmp = Path(tempfile.mkdtemp(dir=tmp_root))
        try:
            ref = calibrate.sample_ns(5)
            before = _children_cpu_s()
            subprocess.run(
                [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed), size, str(tmp)],
                capture_output=True, text=True, timeout=60, check=True,
            )
            cpu = _children_cpu_s() - before
            ref = 0.5 * (ref + calibrate.sample_ns(5))
            times.append(cpu * calibrate.REF_NS / ref)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return times


def timed_pass(st, runner: Runner, repeat: bool = False) -> tuple[float, int]:
    """Run one pass; return its wall time less ``Runner.excluded_ns``, and its work."""
    runner.pass_no += 1
    excluded = runner.excluded_ns
    t0 = perf_counter_ns()
    work = workloads.run_pass(st, runner, repeat)
    return (perf_counter_ns() - t0 - (runner.excluded_ns - excluded)) * 1e-9, work


def run_passes(st, runner: Runner, budget_s: float, min_passes: int) -> tuple[list[float], list[int]]:
    walls, works = [], []
    start = perf_counter()
    while True:
        wall, work = timed_pass(st, runner)
        walls.append(wall)
        works.append(work)
        elapsed = perf_counter() - start
        if elapsed > HARD_STOP_S:
            break
        if len(walls) >= min_passes and elapsed + statistics.median(walls) > budget_s:
            break
    return walls, works


def pass_time(records: list[dict], key=norm_ns) -> float:
    """CPU time of one pass at the calibration speed, robust to interference on a shared machine.

    Each operation of the pass takes the median of its untraced times over
    the passes; the pass time is their sum.  CPU time leaves out the time the
    process waits for a processor, the calibration takes out the drift of
    the processor's speed, and a burst that slows part of one pass moves no
    median.  Operations that hit their time limit stay out, as in the pass
    walls.  ``key`` gives an operation's time in ns.
    """
    times: dict[tuple, list[float]] = defaultdict(list)
    for r in records:
        if r["phase"] == "untraced" and r["status"] != "timeout":
            times[(r["name"], r["group"])].append(key(r))
    return sum(statistics.median(v) for v in times.values()) * 1e-9


def _count_hooks(tr: tracing.Tracer) -> None:
    def on_simulate(tr, args, kwargs, result):
        cfg = result.config
        steps = workloads.n_steps(cfg)
        tr.count("path_steps_scheduled", cfg.n_paths * steps)
        tr.count("path_steps_useful", workloads.useful_steps(result))
        tr.count("draws_scheduled", 2 * cfg.n_paths * steps)
        tr.count("streams", cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths)

    def on_csv(tr, args, kwargs, result):
        first = args[0]
        rows = first.result_a if hasattr(first, "result_a") else first
        tr.count("csv_rows", rows.pv_dividends.size)

    tr.on_return("simulate.simulate_paths", on_simulate)
    tr.on_return("simulate.write_paths_csv", on_csv)
    tr.on_return("simulate.write_paired_csv", on_csv)


def _run_name_counts(a: dict, run_id: int) -> Counter:
    return Counter(a["name_id"][a["run_id"] == run_id].tolist())


def count_repeat_check(tr: tracing.Tracer, runner: Runner, first: list[int], again: list[int]) -> str | None:
    """Per-operation call and work counts of a re-traced prefix must equal the first trace."""
    a = tr.arrays()

    def ok_ops(ids):
        return {(runner.records[i]["name"], runner.records[i]["group"]): i
                for i in ids if runner.records[i]["status"] == "ok"}

    before = ok_ops(first)
    for key, j in ok_ops(again).items():
        i = before.get(key)
        if i is not None and (_run_name_counts(a, i) != _run_name_counts(a, j)
                              or tr.run_counters({i}) != tr.run_counters({j})):
            return f"counts of {key[0]} (set {key[1]}) differ between two traces"
    return None


def _pct(values: list[float]) -> tuple[float, float, int]:
    if not values:
        return 0.0, 0.0, 0
    return float(np.percentile(values, 50)), float(np.percentile(values, 90)), len(values)


def op_timing_metrics(runner: Runner) -> dict[str, tuple[float, str]]:
    """p50 and p90 over parameter sets of each op's median untraced time (as ``pass_time``), with the count."""
    per_set: dict[tuple[str, object], list[float]] = defaultdict(list)
    for r in runner.records:
        if r["phase"] == "untraced" and r["status"] == "ok" and r["name"] in OP_TIMINGS:
            per_set[(r["name"], r["group"])].append(norm_ns(r))
    out = {}
    for op, (stem, scale, unit) in OP_TIMINGS.items():
        samples = [statistics.median(v) * 1e-9 * scale for (name, _), v in per_set.items() if name == op]
        p50, p90, n = _pct(samples)
        out[f"{stem}_p50"] = (p50, unit)
        out[f"{stem}_p90"] = (p90, unit)
        out[f"{stem}_n"] = (n, "count")
    lemma_s = sum(norm_ns(r) for r in runner.records
                  if r["phase"] == "untraced" and r["status"] == "ok" and r["name"] in LEMMA_OPS) * 1e-9
    lemma_n = sum(1 for r in runner.records
                  if r["phase"] == "untraced" and r["status"] == "ok" and r["name"] in LEMMA_OPS)
    out["verify.grid_points_per_s"] = (lemma_n * workloads.verify.N_GRID / lemma_s if lemma_s else 0.0, "1/s")
    return out


def trace_overhead(records: list[dict], traced_ok: set[int]) -> float:
    """Traced time over untraced median time of the same operations, minus one.

    Compared operation by operation, so that time limits (longer when
    traced) and failed operations do not enter.
    """
    untraced: dict[tuple, list[int]] = defaultdict(list)
    for r in records:
        if r["phase"] == "untraced" and r["status"] == "ok":
            untraced[(r["name"], r["group"])].append(r["elapsed_ns"])
    traced = base = 0.0
    for i in traced_ok:
        times = untraced.get((records[i]["name"], records[i]["group"]))
        if times:
            traced += records[i]["elapsed_ns"]
            base += statistics.median(times)
    return traced / base - 1.0 if base else 0.0


def layer_metrics(st, runner: Runner, tr: tracing.Tracer, traced_ids: list[int],
                  known_defects: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced pass, over its operations that succeeded."""
    records = runner.records
    ok_ids = {i for i in traced_ids if records[i]["status"] == "ok"}
    groups: dict[int, list[int]] = defaultdict(list)
    for i in traced_ids:
        if isinstance(records[i]["group"], int):  # the operations of one parameter set
            groups[records[i]["group"]].append(i)
    full_groups = [ids for ids in groups.values() if all(records[i]["status"] == "ok" for i in ids)]
    set_ids = {i for ids in full_groups for i in ids}
    n_sets = len(full_groups)

    s = tr.summary(ok_ids)
    per_set = tr.summary(set_ids)
    work = tr.run_counters(ok_ids)

    def ratio(num, den):
        return num / den if den else 0.0

    paired_calls = s.calls("simulate.paired_compare")
    csv_s = s.total_s("simulate.write_paths_csv") + s.total_s("simulate.write_paired_csv")
    m: dict[str, tuple[float, str]] = {
        "simulate.simulate_paths_s": (s.self_s("simulate.simulate_paths"), "s"),
        "simulate.simulate_paths_calls": (s.calls("simulate.simulate_paths"), "count"),
        "simulate.simulate_paths_calls_per_paired_compare": (
            ratio(s.calls("simulate.simulate_paths", parent="simulate.paired_compare"), paired_calls), "count"),
        "simulate.path_steps_scheduled": (work["path_steps_scheduled"], "count"),
        "simulate.path_steps_useful": (work["path_steps_useful"], "count"),
        "simulate.useful_step_frac": (ratio(work["path_steps_useful"], work["path_steps_scheduled"]), "ratio"),
        "simulate.draws_scheduled": (work["draws_scheduled"], "count"),
        "simulate.streams": (work["streams"], "count"),
        "simulate.paired_compare_s": (s.total_s("simulate.paired_compare"), "s"),
        "simulate.summarize_ms": (ratio(s.total_s("simulate.summarize") * 1e3, s.calls("simulate.summarize")), "ms"),
        "simulate.write_csv_s": (csv_s, "s"),
        "simulate.csv_rows_per_s": (ratio(work["csv_rows"], csv_s), "1/s"),
        "simulate.csv_bytes": (st.seen.get("csv_bytes", 0), "bytes"),
        "simulate.abs_z": (st.seen.get("abs_z", 0.0), "ratio"),
        "params.validate_calls_per_set": (ratio(per_set.calls("params.validate"), n_sets), "count"),
        "params.read_params_file_ms": (
            ratio(s.total_s("params.read_params_file") * 1e3, s.calls("params.read_params_file")), "ms"),
        "closed_form.exponents_calls_per_set": (ratio(per_set.calls("closed_form.exponents"), n_sets), "count"),
        "injections.psi_calls_per_beta2": (
            ratio(s.calls("injections.psi", parent="injections.optimal_barrier_beta2"),
                  s.calls("injections.optimal_barrier_beta2")), "count"),
        "cli.main_s": (s.total_s("cli.main"), "s"),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (s.layer_self_s(layer), "s")
    m.update(op_timing_metrics(runner))
    m["trace.overhead_frac"] = (trace_overhead(records, ok_ids), "ratio")
    m["trace.spans"] = (s.n_spans, "count")
    m["known_defects.reproduced"] = (sum(d["reproduced"] for d in known_defects), "count")
    return m


# ---------------------------------------------------------------------------
# provenance


def _git_commit() -> str:
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(st, seconds: float, trace: bool) -> dict:
    src = hashlib.sha256()
    for path in sorted((workloads.SRC / "fundiv").glob("*.py")):
        src.update(path.read_bytes())
    return dict(
        workload=st.name, seed=st.seed, seconds=seconds, trace=int(trace),
        geometry=st.geometry, nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
        cpu_model=_cpu_model(), python=platform.python_version(), numpy=np.__version__,
        fundiv=workloads.fundiv.__version__, git_commit=_git_commit(), fundiv_source_sha256=src.hexdigest(),
        dropped_workloads=DROPPED_WORKLOADS,
    )


# ---------------------------------------------------------------------------
# main


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        setup_probes: int = SETUP_PROBES) -> dict:
    """Run one workload and return the result record (metrics, counts, provenance)."""
    OUT_DIR.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        setup_times = [] if trace else measure_setup(workload, seed, size, tmp_root, setup_probes)
        st = workloads.setup(workload, seed, size, tmp_root)
        known_defects = probe_defects()
        runner = Runner()
        for name, call, check in streams.probe_ops():
            runner.op(name, call, check=check)

        runner.phase = "untraced"
        budget = seconds / 2 if trace else seconds
        runner.sampler.start()
        try:
            walls, works = run_passes(st, runner, budget,
                                      MIN_UNTRACED_PASSES_TRACED_RUN if trace else MIN_PASSES)
        finally:
            runner.sampler.stop()
        metrics: dict[str, tuple[float, str]]
        spans_path = None
        if trace:
            tr = tracing.Tracer()
            _count_hooks(tr)
            tr.install()
            runner.tracer = tr
            try:
                runner.phase = "traced"
                first = len(runner.records)
                timed_pass(st, runner)
                traced_ids = list(range(first, len(runner.records)))
                runner.phase = "repeat"
                again_start = len(runner.records)
                timed_pass(st, runner, repeat=True)
                again_ids = list(range(again_start, len(runner.records)))
                tr.active = False
                runner.op("trace.count_repeat",
                          lambda: count_repeat_check(tr, runner, traced_ids, again_ids),
                          check=lambda msg: msg)
            finally:
                tr.uninstall()
            metrics = layer_metrics(st, runner, tr, traced_ids, known_defects)
            spans_path = OUT_DIR / f"{workload}-seed{seed}-spans.npz"
            tr.write(spans_path)
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            norm = pass_time(runner.records)
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "pass_norm_s": (norm, "s"),
                "norm_work_per_s": (statistics.median(works) / norm, "1/s"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
        statuses = Counter(r["status"] for r in runner.records)
        failures = [r for r in runner.records if r["status"] != "ok"]
        return dict(
            correct=statuses["wrong"] == 0,
            attempted=len(runner.records),
            failed=len(failures),
            metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            statuses=dict(statuses),
            failures=[dict(name=r["name"], group=r["group"], status=r["status"], message=r["message"])
                      for r in failures[:100]],
            known_defects=known_defects,
            pass_walls_s=walls,
            pass_cpu_s=pass_time(runner.records, key=lambda r: r["cpu_ns"]),
            calibration_ns=statistics.median(runner.sampler.samples),
            setup_samples_s=setup_times,
            work_unit=workloads.WORKLOADS[workload].work_unit,
            spans=str(spans_path.relative_to(workloads.ROOT)) if spans_path else None,
            provenance=provenance(st, seconds, trace),
        )
    finally:
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(tmp_root, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")

    for name, m in result["metrics"].items():
        print(f"{name:52s} {m['value']:>18.6g} {m['unit']}")
    for f in result["failures"][:10]:
        print(f"failed: {f['name']} set={f['group']} {f['status']}: {f['message']}")
    for d in result["known_defects"]:
        print(f"known defect {d['name']}: {'reproduced' if d['reproduced'] else 'not reproduced'} ({d['status']})")
    print(f"statuses {json.dumps(result['statuses'])}  work unit: {result['work_unit']}")
    print("provenance " + json.dumps(result["provenance"]))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
