"""The benchmark workloads: inputs from the seed, one pass, output checks.

``setup`` builds everything a workload's passes need (this is what
``setup_s`` times), and ``run_pass`` performs one pass as a sequence of
``runner.op`` calls and returns the work it scheduled.  Every op carries its
own check.  A check of a value (a number against its reference, a count, a
repeat of the same outputs) returns a message on failure and marks the
output wrong; a lemma report that flags a condition at the optimal barrier
is a failed verdict, counted as a failed operation.

Why these workloads:

* ``ruin_mc`` - ``fundiv simulate`` through ``cli.main`` with a params file:
  the ruin-stopped beta0* policy on the criterion-07 geometry, per-path CSV
  out.  About 90% of scheduled path-steps fall after ruin, so engine stepping
  dominates and alive-path compaction shows its full effect here.  It is the
  only workload through ``cli`` and the params-file parser.
* ``inject_paired`` - common-random-number comparison of the optimal
  double barrier with a detuned one.  No path stops, so compaction predicts
  no change; it is the only workload where ``paired_compare`` simulates
  twice and the only one stepping the injection branch.
* ``analytic`` - random valid parameter sets through every closed form and
  both lemma checks in analytic mode, plus the finite-difference lemma checks
  on the acceptance suite's sets; ``simulate`` is untouched.

No operation of these workloads fails on the code as it stands.  Inputs stay
clear of the known defects listed in ``defects.py``, which every run
reproduces separately.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import fundiv  # noqa: E402
from fundiv import cli, closed_form, injections, params, simulate, verify  # noqa: E402

if Path(fundiv.__file__).resolve().parent != (SRC / "fundiv").resolve():
    raise ImportError(f"fundiv was imported from {fundiv.__file__}, not from {SRC}")

#: Baseline parameters of the acceptance suite (tests/helpers.P1).
P1 = dict(mu_A=0.05, mu_L=0.02, sigma_A=0.3, sigma_L=0.1, rho=0.0, delta=0.06, alpha0=1.0)

#: Largest accepted |Monte Carlo mean - closed form| / SE.  Grid monitoring
#: biases ruin_mc by about +1.5 SE; six leaves room for seed noise while a
#: broken engine or closed form still fails.
MAX_ABS_Z = 6.0

#: Per-operation time limits.  The slowest analytic operation (kappa*, or a
#: finite-difference lemma check) took at most about 30 ms on a 2-core Xeon,
#: so a limit is only hit by an operation that does not end; kappa* makes
#: ~10k calls that tracing wraps, hence the larger traced limit.
LIMIT_ANALYTIC_S = 1.0
LIMIT_ANALYTIC_TRACED_S = 3.0
LIMIT_MC_S = 60.0

#: Default cap of ``injections.breakeven_kappa``'s search.
KAPPA_CAP = 1e3

#: Geometry per size; "tiny" is for the harness smoke test only.
GEOMETRY = {
    "ruin_mc": {
        "full": dict(x1_0=2.0, x2_0=1.0, dt=1.0 / 50.0, horizon_T=120.0, n_paths=10_000),
        "tiny": dict(x1_0=2.0, x2_0=1.0, dt=1.0 / 12.0, horizon_T=120.0, n_paths=200),
    },
    "inject_paired": {
        "full": dict(x1_0=1.5, x2_0=1.0, dt=1.0 / 50.0, horizon_T=120.0, n_paths=5_000, kappa=1.05),
        "tiny": dict(x1_0=1.5, x2_0=1.0, dt=1.0 / 12.0, horizon_T=120.0, n_paths=200, kappa=1.05),
    },
    "analytic": {
        "full": dict(n_sets=150, repeat_sets=5),
        "tiny": dict(n_sets=3, repeat_sets=1),
    },
}


def n_steps(cfg) -> int:
    """Steps the engine schedules for a run (as ``simulate._validate_run`` does)."""
    return int(round(cfg.horizon_T / cfg.dt))


def useful_steps(result) -> int:
    """Sum over paths of min(ruin step, n_steps): the steps that move a live path."""
    steps = n_steps(result.config)
    ruin_step = np.minimum(np.rint(result.ruin_time / result.config.dt), steps)
    return int(np.where(result.censored, steps, ruin_step).sum())


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _z(mean: float, se: float, target: float) -> float:
    return abs(mean - target) / se


@dataclass
class State:
    """Everything a workload's passes share: inputs, targets and what checks saw."""

    name: str
    seed: int
    geometry: dict
    tmp_dir: Path
    inputs: dict = field(default_factory=dict)
    seen: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# ruin_mc


def _setup_ruin_mc(st: State) -> None:
    g = st.geometry
    config = st.tmp_dir / "params.cfg"
    config.write_text("".join(f"{k} = {v!r}\n" for k, v in P1.items()), encoding="utf-8")
    out = st.tmp_dir / "paths.csv"
    st.inputs.update(
        out=out,
        argv=[
            "simulate", "--config", str(config), "--policy", "unconstrained",
            "--x1_0", repr(g["x1_0"]), "--x2_0", repr(g["x2_0"]), "--dt", repr(g["dt"]),
            "--horizon_T", repr(g["horizon_T"]), "--n_paths", str(g["n_paths"]),
            "--seed", str(st.seed), "--output", str(out),
        ],
    )


def _check_repeat(st: State, key: str, digest: str) -> str | None:
    first = st.seen.setdefault(key, digest)
    return None if digest == first else f"{key}: outputs differ from the first pass"


def _run_ruin_mc(st: State, runner, repeat: bool = False) -> int:
    g = st.geometry

    def check(code):
        if code != 0:
            return f"cli.main returned {code}"
        data = st.inputs["out"].read_bytes()
        st.seen["csv_bytes"] = len(data)
        lines = data.decode("utf-8").splitlines()
        header = lines.index("path_index,pv_dividends,pv_injections,ruin_time,censored")
        rows = lines[header + 1:lines.index("", header)]
        if len(rows) != g["n_paths"]:
            return f"CSV has {len(rows)} rows, expected {g['n_paths']}"
        pvd = np.array([float(r.split(",")[1]) for r in rows])
        if not (np.all(np.isfinite(pvd)) and np.all(pvd >= 0.0)):
            return "pv_dividends not finite and nonnegative"
        z_line = [line for line in lines if line.startswith("z_score_vs_closed_form = ")]
        if not z_line:
            return "no z-score line in the output"
        z = abs(float(z_line[0].split("=", 1)[1]))
        st.seen["abs_z"] = z
        if not z <= MAX_ABS_Z:
            return f"abs_z {z:.3f} exceeds {MAX_ABS_Z}"
        return _check_repeat(st, "cli_output", hashlib.sha256(data).hexdigest())

    runner.op("ruin_mc.cli_main", lambda: cli.main(list(st.inputs["argv"])), check=check, limit_s=LIMIT_MC_S)
    return g["n_paths"] * int(round(g["horizon_T"] / g["dt"]))


# ---------------------------------------------------------------------------
# inject_paired


def _setup_inject_paired(st: State) -> None:
    g = st.geometry
    p = params.validate(params.ModelParams(**P1, kappa=g["kappa"]))
    beta2 = injections.optimal_barrier_beta2(p)
    st.inputs.update(
        p=p,
        policy_a=simulate.DoubleBarrier(beta=beta2, gamma=p.alpha0),
        policy_b=simulate.DoubleBarrier(beta=1.25 * beta2, gamma=p.alpha0),
        cfg=simulate.SimConfig(
            x1_0=g["x1_0"], x2_0=g["x2_0"], dt=g["dt"], horizon_T=g["horizon_T"],
            n_paths=g["n_paths"], seed=st.seed,
        ),
        target=injections.value_injections(g["x1_0"], g["x2_0"], beta2, p.alpha0, p),
        csv=st.tmp_dir / "paired.csv",
    )


def _run_inject_paired(st: State, runner, repeat: bool = False) -> int:
    i = st.inputs
    cfg = i["cfg"]
    steps = n_steps(cfg)

    def check(paired):
        a, b = paired.result_a, paired.result_b
        for arm in (a, b):
            if useful_steps(arm) != cfg.n_paths * steps:
                return "a path stopped although no DoubleBarrier path can be ruined"
        if not paired.mean_diff > 3.0 * paired.se_diff:
            return f"optimal arm does not beat the detuned one: {paired.mean_diff} +- {paired.se_diff}"
        z = _z(a.summary.mean_net_value, a.summary.se_net_value, i["target"])
        st.seen["abs_z"] = z
        if not z <= MAX_ABS_Z:
            return f"abs_z {z:.3f} exceeds {MAX_ABS_Z}"
        return _check_repeat(
            st, "paired", _digest(a.pv_dividends, a.pv_injections, b.pv_dividends, b.pv_injections)
        )

    ok, paired = runner.op(
        "inject_paired.paired_compare",
        lambda: simulate.paired_compare(cfg, i["policy_a"], i["policy_b"], i["p"]),
        check=check, limit_s=LIMIT_MC_S,
    )
    if ok:
        def write():
            with open(i["csv"], "w", encoding="utf-8", newline="") as fh:
                simulate.write_paired_csv(paired, fh)

        def check_csv(_):
            with open(i["csv"], "rb") as fh:
                data = fh.read()
            st.seen["csv_bytes"] = len(data)
            rows = data.count(b"\n") - 1
            if rows != cfg.n_paths:
                return f"paired CSV has {rows} rows, expected {cfg.n_paths}"
            return _check_repeat(st, "paired_csv", hashlib.sha256(data).hexdigest())

        runner.op("inject_paired.write_paired_csv", write, check=check_csv, limit_s=LIMIT_MC_S)
    return 2 * cfg.n_paths * steps


# ---------------------------------------------------------------------------
# analytic


def _draw_set(rng: np.random.Generator) -> dict:
    """One valid set, over the ranges of tests/helpers.random_params(with_kappa=True).

    Also draws the solvency floor alpha1 and the funding ratio (as a fraction
    of the log-range [alpha0, 3 beta0*]) where the value is evaluated.
    """
    sigma_a = rng.uniform(0.05, 0.6)
    sigma_l = rng.uniform(0.02, 0.5)
    rho = rng.uniform(-0.95, 0.95)
    mu_l = rng.uniform(-0.02, 0.04)
    mu_a = mu_l + rng.uniform(0.005, 0.06)
    delta = max(mu_a, 0.0) + rng.uniform(0.002, 0.05)
    alpha0 = rng.uniform(0.3, 2.5)
    kappa = 1.0 + rng.uniform(0.01, 1.5)
    p = params.validate(
        params.ModelParams(
            mu_A=mu_a, mu_L=mu_l, sigma_A=sigma_a, sigma_L=sigma_l, rho=rho, delta=delta,
            alpha0=alpha0, kappa=kappa,
        )
    )
    return dict(p=p, p1=replace(p, alpha1=alpha0 * rng.uniform(1.05, 3.0)), r_frac=rng.uniform())


def kappa_cap(p) -> float:
    """Cap for the kappa* search: the default, or lower where beta2* would not resolve.

    ``optimal_barrier_beta2`` bisects to 1e-12 alpha0 and never returns once
    the float spacing at beta2* exceeds that (``defects.BETA2_HANG``).  beta2*
    grows with kappa, so capping kappa at the cost that makes 2**(e + 52)
    optimal, with 2**e <= 1e-12 alpha0 (a float spacing of at most half the
    tolerance), keeps every solve of the search resolvable.
    """
    beta_res = 2.0 ** (math.floor(math.log2(1e-12 * p.alpha0)) + 52)
    try:
        return min(KAPPA_CAP, injections.kappa_from_barrier(beta_res, p.alpha0, p))
    except OverflowError:  # that cost is beyond float range, so far above the cap
        return KAPPA_CAP


#: Finite-difference lemma checks, on the sets where the acceptance suite
#: (criterion 06) asserts they pass: P1 with alpha1 = 1.2 (free optimum) and
#: 5.0 (floor binding), and P1 with kappa = 1.05.  On random sets their
#: verdicts at the optimum are limited by rounding (``defects.py``).
FD_SOLVENCY_ALPHA1 = (1.2, 5.0)
FD_INJECTION_KAPPA = 1.05


def _setup_analytic(st: State) -> None:
    rng = np.random.default_rng(st.seed)
    sets = [_draw_set(rng) for _ in range(st.geometry["n_sets"])]
    for s in sets:
        s["kappa_cap"] = kappa_cap(s["p"])
    base = params.ModelParams(**P1)
    fd = [(f"solvency.alpha1={a1}", "solvency_fd", replace(base, alpha1=a1)) for a1 in FD_SOLVENCY_ALPHA1]
    fd.append((f"injection.kappa={FD_INJECTION_KAPPA}", "injection_fd", replace(base, kappa=FD_INJECTION_KAPPA)))
    st.inputs.update(sets=sets, fd_cases=[(g, op, params.validate(p)) for g, op, p in fd])


def _foc_gap(p, beta0: float) -> float:
    """Log-gap of the first-order condition D'(beta0) = 0 of the beta0* maximisation."""
    e = closed_form.exponents(p)
    z1, z2 = e.zeta1, e.zeta2
    lw = math.log(beta0 / p.alpha0)
    return abs(math.log(z1 * (z1 - 1.0)) + (z1 - 2.0) * lw - math.log(z2 * (z2 - 1.0)) - (z2 - 2.0) * lw)


def _floor_value(p, kappa: float) -> float:
    pk = replace(p, kappa=kappa)
    beta2 = injections.optimal_barrier_beta2(pk)
    return injections.value_injections(p.alpha0, 1.0, beta2, p.alpha0, pk)


def _lemma_verdict(report) -> str | None:
    if report.passed:
        return None
    bad = [f"{c.condition_id} {c.worst_violation:.3g} > {c.tolerance:g}" for c in report.condition_results
           if not c.passed]
    return f"{report.problem} lemma ({report.mode}) fails at the optimal barrier: {', '.join(bad)}"


def _run_analytic(st: State, runner, repeat: bool = False) -> int:
    sets = st.inputs["sets"][: st.geometry["repeat_sets"]] if repeat else st.inputs["sets"]
    limit = LIMIT_ANALYTIC_TRACED_S if runner.traced else LIMIT_ANALYTIC_S
    for k, s in enumerate(sets):
        p, p1 = s["p"], s["p1"]

        def op(name, fn, check, verdict=False):
            return runner.op(f"analytic.{name}", fn, check=check, verdict=verdict, limit_s=limit, group=k)

        def check_beta0(b):
            gap = _foc_gap(p, b)
            return None if gap <= 1e-9 else f"beta0* misses its first-order condition by {gap:.3g}"

        ok0, beta0 = op("beta0", lambda: closed_form.optimal_barrier_beta0(p), check_beta0)
        if ok0:
            r = p.alpha0 * (3.0 * beta0 / p.alpha0) ** s["r_frac"]

            def check_value(v):
                twice = closed_form.value_unconstrained(2.0 * r, 2.0, beta0, p)
                if v >= 0.0 and abs(twice - 2.0 * v) <= 1e-12 * max(1.0, abs(v)):
                    return None
                return f"value {v!r} is negative or not homogeneous ({twice!r})"

            op("beta1", lambda: closed_form.constrained_barrier_beta1(p1),
               lambda b: None if b == max(beta0, p1.alpha1) else f"beta1* {b!r} != max(beta0*, alpha1)")
            op("value", lambda: closed_form.value_unconstrained(r, 1.0, beta0, p), check_value)

        ok2, beta2 = op("beta2", lambda: injections.optimal_barrier_beta2(p),
                        lambda b: None if p.alpha0 < b < math.inf else f"beta2* {b!r} outside (alpha0, inf)")
        if ok2:
            op("kappa_from_barrier", lambda: injections.kappa_from_barrier(beta2, p.alpha0, p),
               lambda kk: None if abs(kk - p.kappa) <= 1e-9 * p.kappa else f"kappa round trip {kk!r} != {p.kappa!r}")

        cap = s["kappa_cap"]

        def check_kstar(ks):
            if 1.0 < ks < cap and abs(_floor_value(p, ks)) <= 1e-7 * p.alpha0:
                return None
            return f"kappa* {ks!r} does not zero the floor value"

        ok3, kstar = op("breakeven", lambda: injections.breakeven_kappa(p, kappa_cap=cap), check_kstar)
        op("solvency_analytic", lambda: verify.check_solvency_lemma(p1), _lemma_verdict, verdict=True)
        if ok3:
            # The injection lemma's nonnegative condition rightly fails for kappa >= kappa*.
            pk = replace(p, kappa=0.5 * (1.0 + kstar))
            op("injection_analytic", lambda: verify.check_injection_lemma(pk), _lemma_verdict, verdict=True)
        op("smooth_fit", lambda: verify.check_smooth_fit(p, "solvency"),
           lambda x: None if abs(x) <= 1e-9 else f"smooth-fit residual {x!r}")
    for group, name, p in st.inputs["fd_cases"]:
        check = verify.check_solvency_lemma if name.startswith("solvency") else verify.check_injection_lemma
        runner.op(f"analytic.{name}", lambda: check(p, mode="finite-difference"), check=_lemma_verdict,
                  verdict=True, limit_s=limit, group=group)
    # Work is the random parameter sets; any failed operation counts in ``failed``.
    return len(sets)


@dataclass(frozen=True)
class Workload:
    setup: object
    run_pass: object
    #: What ``norm_work_per_s`` counts for this workload.
    work_unit: str


WORKLOADS = {
    "ruin_mc": Workload(_setup_ruin_mc, _run_ruin_mc, "path-steps"),
    "inject_paired": Workload(_setup_inject_paired, _run_inject_paired, "path-steps"),
    "analytic": Workload(_setup_analytic, _run_analytic, "parameter sets"),
}


def setup(name: str, seed: int, size: str, tmp_dir: Path) -> State:
    st = State(name=name, seed=seed, geometry=GEOMETRY[name][size], tmp_dir=tmp_dir)
    WORKLOADS[name].setup(st)
    return st


def run_pass(st: State, runner, repeat: bool = False) -> int:
    """One pass, returning the work it scheduled.

    ``repeat`` runs only the prefix that the count-repeat check re-traces:
    the first few parameter sets of ``analytic``, the whole pass elsewhere.
    """
    return WORKLOADS[st.name].run_pass(st, runner, repeat)
