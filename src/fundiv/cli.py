"""Command-line interface: barriers, values, simulation, sweeps, verification.

Parameters come from a flat ``key = value`` config file (--config) and/or
individual flags named exactly like the model fields; flags override file
values, and the effective parameter set is echoed as ``# key = value``
comment lines at the top of every output for provenance.

Exit codes: 0 success, 1 validation error, 2 domain error (including failed
verification), 3 numerical failure (including a closed form that overflows a
float), 4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import sys
from dataclasses import MISSING, asdict, fields, replace
from typing import get_type_hints

import numpy as np

from . import closed_form, injections, simulate, verify
from .errors import ConfigError, DomainError, NoBreakeven, NumericalError, ParameterError
from .params import (
    OPTIONAL_FIELDS,
    REQUIRED_FIELDS,
    ModelParams,
    _flat_text,
    _fmt,
    from_mapping,
    read_params_file,
)

_ALL_FIELDS = REQUIRED_FIELDS + OPTIONAL_FIELDS

#: The flags each sweep kind reads, with their defaults; a string names a parameter or
#: beta2*, after an optional factor, and ``cmd_sweep`` resolves it for the run.
_SWEEP_FLAGS = {
    "beta2-vs-kappa": {"kappa_min": 1.01, "kappa_max": 3.0, "steps": 21},
    "value-surface": {
        "ratio": "alpha0", "gamma_min": "alpha0", "gamma_max": "beta2*", "gamma_steps": 11,
        "beta_min": "alpha0", "beta_max": "2 beta2*", "beta_steps": 21,
    },
    "breakeven": {"sigma_A_min": "0.6 sigma_A", "sigma_A_max": "1.4 sigma_A", "steps": 21},
}
#: Each sweep flag and the kinds that read it.
_SWEEP_KINDS_OF = {
    flag: [kind for kind, owned in _SWEEP_FLAGS.items() if flag in owned]
    for flags in _SWEEP_FLAGS.values()
    for flag in flags
}
#: The policy each ``--policy`` name builds from its closed-form value ``fn``.
_POLICIES = {
    "unconstrained": lambda fn, p: simulate.UnconstrainedBarrier(beta=fn.beta),
    "solvency": lambda fn, p: simulate.SolvencyConstrained(beta=fn.beta, alpha1=p.alpha1),
    "double": lambda fn, p: simulate.DoubleBarrier(beta=fn.beta, gamma=fn.gamma),
}
#: The ``verify`` function that checks each problem's lemma (looked up when called).
_LEMMAS = {"solvency": "check_solvency_lemma", "injection": "check_injection_lemma"}
#: The exit code of each error ``main`` reports, first match wins; any other error propagates.
_EXIT_CODES = {ParameterError: 1, ConfigError: 1, DomainError: 2,
               NumericalError: 3, OverflowError: 3, OSError: 4}


def _gather_params(args: argparse.Namespace) -> ModelParams:
    values: dict[str, float] = {}
    if args.config:
        values.update(read_params_file(args.config))
    flagged = {
        name: getattr(args, name) for name in _ALL_FIELDS if getattr(args, name) is not None
    }
    values.update(flagged)
    if not args.config and not flagged:
        raise ParameterError(
            "parameters", None, "supply --config and/or individual parameter flags"
        )
    return from_mapping(values)


@contextlib.contextmanager
def _open_output(target: str | None, p: ModelParams):
    """Open ``target`` (stdout if unset) and echo the effective parameters into it first."""
    stream = open(target, "w", encoding="utf-8", newline="") if target else None
    with stream or contextlib.nullcontext(sys.stdout) as fh:
        echo = {name: value for name in _ALL_FIELDS if (value := getattr(p, name)) is not None}
        fh.write(_flat_text(echo, prefix="# "))
        yield fh


def _value_fn(
    kind: str, p: ModelParams, beta: float | None = None, gamma: float | None = None
) -> closed_form.ClosedFormValue:
    """Value function of a problem (or policy) at barrier ``beta``, the optimum if unset.

    The ruin-stopped problem pays at beta0*, the solvency-constrained one at
    beta1* = max(beta0*, alpha1), and a solvency barrier below alpha1 is
    rejected as ``simulate`` rejects it; the injection problem (policy
    ``double``) pays at beta2* and injects at ``gamma``, alpha0 if unset.
    """
    if kind in ("injection", "double"):
        beta = injections.optimal_barrier_beta2(p) if beta is None else beta
        return injections.double_barrier_value(beta, p.alpha0 if gamma is None else gamma, p)
    if beta is None and kind == "solvency":
        beta = closed_form.constrained_barrier_beta1(p)
    elif beta is None:
        beta = closed_form.optimal_barrier_beta0(p)
    fn = closed_form.closed_form_value(beta, p)
    if kind == "solvency":
        simulate._check_floor(beta, p.alpha1, p)
    return fn


def _checked_read(fn: closed_form.ClosedFormValue, x1: float, x2: float) -> tuple:
    """The value of ``fn`` and its first partials at (x1, x2); a non-finite one is an overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        read = (fn.evaluate(x1, x2), *fn.partials(x1, x2)[:2])
    if not np.isfinite(read).all():
        raise NumericalError(f"value {read[0]!r} or its slopes overflow at ({x1!r}, {x2!r})")
    return read


# --------------------------------------------------------------------------
# subcommands


def cmd_barriers(args: argparse.Namespace, p: ModelParams) -> int:
    record = closed_form.exponents(p)._asdict()
    optima = {"0": _value_fn("unconstrained", p)}
    if p.alpha1 is not None:
        optima["1"] = _value_fn("solvency", p)
    if p.kappa is not None:
        optima["2"] = _value_fn("injection", p)
    for star, fn in optima.items():
        record[f"beta{star}_star"] = fn.beta
        if fn.kappa is not None:  # only the injection problem has a ray to report
            record["gamma_star"] = fn.gamma
        record[f"value_at_beta{star}"] = _checked_read(fn, fn.beta, 1.0)[0]
    with _open_output(args.output, p) as fh:
        fh.write(_flat_text(record))
    return 0


def cmd_value(args: argparse.Namespace, p: ModelParams) -> int:
    if args.gamma is not None and args.problem != "injection":
        raise ConfigError(f"--gamma has no injection ray to set for --problem {args.problem}")
    for flag, given in (("x1", args.x1), ("x2", args.x2), ("scale", args.scale)):
        if not math.isfinite(given):
            raise DomainError(f"--{flag} {given!r} must be finite")
    if not args.scale > 0.0:
        raise DomainError(f"--scale {args.scale!r} must be positive")
    x1, x2 = args.x1 * args.scale, args.x2 * args.scale
    fn = _value_fn(args.problem, p, args.beta, args.gamma)
    value, d1, d2 = _checked_read(fn, x1, x2)
    ratio = x1 / x2
    if ratio > fn.beta:
        branch = "above-barrier"
    elif ratio < fn.gamma:  # evaluate rejects ratios below alpha0, so gamma is a real ray
        branch = "below-injection"
    else:
        branch = "continuation"
    record = {"problem": args.problem, "x1": x1, "x2": x2, "beta": fn.beta}
    if fn.kappa is not None:
        record["gamma"] = fn.gamma
    record.update(value=value, branch=branch, dvalue_dx1=d1, dvalue_dx2=d2)
    with _open_output(args.output, p) as fh:
        fh.write(_flat_text(record))
    return 0


def _build_policy(args: argparse.Namespace, p: ModelParams, suffix: str = ""):
    """The policy named by ``--policy<suffix>`` and its closed-form value function."""
    kind = getattr(args, "policy" + suffix)
    fn = _value_fn(kind, p, getattr(args, "beta" + suffix), args.gamma)
    return _POLICIES[kind](fn, p), fn


def cmd_simulate(args: argparse.Namespace, p: ModelParams) -> int:
    cfg = simulate.SimConfig(**{f.name: getattr(args, f.name) for f in fields(simulate.SimConfig)})
    if args.paired != (args.policy_b is not None) or (args.beta_b is not None and not args.paired):
        raise ConfigError("--policy_b and --beta_b need --paired, and --paired needs --policy_b")
    if args.gamma is not None and "double" not in (args.policy, args.policy_b):
        raise ConfigError("--gamma needs a double policy")
    if args.paired:
        policy_a, fn_a = _build_policy(args, p)
        policy_b, fn_b = _build_policy(args, p, suffix="_b")
        paired = simulate.paired_compare(cfg, policy_a, policy_b, p)
        record = {"policy_a": policy_a, "policy_b": policy_b,
                  "mean_diff": paired.mean_diff, "se_diff": paired.se_diff}
        for tag, res, fn in (("a", paired.result_a, fn_a), ("b", paired.result_b, fn_b)):
            s = res.summary
            record[f"mean_pv_dividends_{tag}"] = s.mean_pv_dividends
            record[f"cv_pv_dividends_{tag}"] = s.cv_pv_dividends
            record[f"mean_ruin_time_censored_{tag}"] = s.mean_ruin_time_censored
            record[f"closed_form_value_{tag}"] = _checked_read(fn, cfg.x1_0, cfg.x2_0)[0]
        with _open_output(args.output, p) as fh:
            simulate.write_paired_csv(paired, fh)
            fh.write("\n" + _flat_text(record))
        return 0
    policy, fn = _build_policy(args, p)
    result = simulate.simulate_paths(cfg, policy, p)
    cf_value = _checked_read(fn, cfg.x1_0, cfg.x2_0)[0]
    s = result.summary  # without injections the net fields equal the dividend ones bit for bit
    z = (s.mean_net_value - cf_value) / s.se_net_value if s.se_net_value > 0.0 else float("nan")
    record = {"policy": policy, **asdict(s), "closed_form_value": cf_value,
              "z_score_vs_closed_form": z}
    with _open_output(args.output, p) as fh:
        simulate.write_paths_csv(result, fh)
        fh.write("\n" + _flat_text(record))
    return 0


def cmd_sweep(args: argparse.Namespace, p: ModelParams) -> int:
    owned = _SWEEP_FLAGS[args.kind]
    for flag in _SWEEP_KINDS_OF:
        value = getattr(args, flag)
        if value is not None and flag not in owned:
            raise ConfigError(f"--{flag} does not apply to --kind {args.kind}")
        if value is not None and flag.endswith("steps") and value < 0:
            raise ConfigError(f"--{flag} {value} must not be negative")
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"--{flag} {value} must be finite")
    beta2 = functools.cache(lambda: injections.optimal_barrier_beta2(p))  # solved when named
    for flag, default in owned.items():
        if getattr(args, flag) is not None:
            continue
        if isinstance(default, str):
            factor, _, name = default.rpartition(" ")
            default = (beta2() if name == "beta2*" else getattr(p, name)) * float(factor or 1)
        setattr(args, flag, default)
    for lo in (flag for flag in owned if flag.endswith("_min")):
        hi = lo.replace("_min", "_max")
        low, high = getattr(args, lo), getattr(args, hi)
        if not math.isfinite(high - low):
            raise ConfigError(f"the span --{lo} {low} to --{hi} {high} overflows a float")
    rows: list[str] = []
    if args.kind == "beta2-vs-kappa":
        header = "kappa,beta2_star"
        for kappa in np.linspace(args.kappa_min, args.kappa_max, args.steps):
            pk = replace(p, kappa=float(kappa))
            rows.append(f"{_fmt(kappa)},{_fmt(injections.optimal_barrier_beta2(pk))}")
    elif args.kind == "value-surface":
        header = "gamma,beta,value"
        gammas = np.linspace(args.gamma_min, args.gamma_max, args.gamma_steps)
        betas = np.linspace(args.beta_min, args.beta_max, args.beta_steps)
        for gamma, beta in itertools.product(gammas, betas):
            if beta > gamma >= p.alpha0:
                fn = injections.double_barrier_value(float(beta), float(gamma), p)
                value = _checked_read(fn, args.ratio, 1.0)[0]
                rows.append(f"{_fmt(gamma)},{_fmt(beta)},{_fmt(value)}")
            else:
                rows.append(f"{_fmt(gamma)},{_fmt(beta)},")  # infeasible cell
    else:  # breakeven
        header = "sigma_A,kappa_star,beta2_star"
        for sigma_a in np.linspace(args.sigma_A_min, args.sigma_A_max, args.steps):
            pk = replace(p, sigma_A=float(sigma_a))
            try:
                kappa_star = injections.breakeven_kappa(pk)
            except NoBreakeven:
                rows.append(f"{_fmt(sigma_a)},,")  # no breakeven in the searched range
                continue
            rows.append(
                f"{_fmt(sigma_a)},{_fmt(kappa_star)},"
                f"{_fmt(injections.optimal_barrier_beta2(replace(pk, kappa=kappa_star)))}"
            )
    with _open_output(args.output, p) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")
    return 0


def cmd_verify(args: argparse.Namespace, p: ModelParams) -> int:
    problems = tuple(_LEMMAS) if args.problem == "both" else (args.problem,)
    if args.barrier_override is not None and len(problems) > 1:
        raise ConfigError("--barrier-override needs an explicit --problem")
    reports = [
        getattr(verify, _LEMMAS[problem])(p, barrier=args.barrier_override, mode=args.mode)
        for problem in problems
    ]
    with _open_output(args.output, p) as fh:
        fh.write("\n\n".join(r.to_text() for r in reports) + "\n")
    return 0 if all(r.passed for r in reports) else 2


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fundiv",
        description="Optimal dividend barriers on a funding ratio, with Monte Carlo checks.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    shared = argparse.ArgumentParser(add_help=False)  # the flags every subcommand takes
    group = shared.add_argument_group("model parameters")
    group.add_argument("--config", help="flat 'key = value' parameter file")
    for name in _ALL_FIELDS:
        group.add_argument(f"--{name}", type=float, default=None, help=f"model field {name}")
    shared.add_argument("--output", default=None, help="write output to this file (default stdout)")

    def command(name, func, text) -> argparse.ArgumentParser:
        p_cmd = sub.add_parser(name, parents=[shared], help=text)
        p_cmd.set_defaults(func=func)
        return p_cmd

    command("barriers", cmd_barriers, "print exponents, optimal barriers, barrier values")

    p_val = command("value", cmd_value, "evaluate a value function at a point")
    p_val.add_argument("--problem", choices=("unconstrained", "solvency", "injection"),
                       required=True)
    p_val.add_argument("--x1", type=float, required=True)
    p_val.add_argument("--x2", type=float, required=True)
    p_val.add_argument("--beta", type=float, default=None, help="barrier override")
    p_val.add_argument("--gamma", type=float, default=None, help="injection ray override")
    p_val.add_argument("--scale", type=float, default=1.0,
                       help="multiply both coordinates (homogeneity check)")

    p_sim = command("simulate", cmd_simulate, "Monte Carlo paths under a policy")
    p_sim.add_argument("--policy", choices=_POLICIES, required=True)
    p_sim.add_argument("--beta", type=float, default=None, help="barrier override")
    p_sim.add_argument("--gamma", type=float, default=None, help="injection ray override")
    run_types = get_type_hints(simulate.SimConfig)
    for f in fields(simulate.SimConfig):
        how = {"action": "store_true"} if run_types[f.name] is bool else {"type": run_types[f.name]}
        how.update({"required": True} if f.default is MISSING else {"default": f.default})
        p_sim.add_argument(f"--{f.name}", **how)
    p_sim.add_argument("--paired", action="store_true",
                       help="run a second policy on the same shocks")
    p_sim.add_argument("--policy_b", choices=_POLICIES, default=None)
    p_sim.add_argument("--beta_b", type=float, default=None)

    p_swp = command("sweep", cmd_sweep, "parameter sweeps as CSV")
    p_swp.add_argument("--kind", choices=_SWEEP_FLAGS, required=True)
    for flag, kinds in _SWEEP_KINDS_OF.items():
        p_swp.add_argument(
            f"--{flag}", type=int if flag.endswith("steps") else float, default=None,
            help=f"--kind {' or '.join(kinds)} only (default {_SWEEP_FLAGS[kinds[0]][flag]})",
        )

    p_ver = command("verify", cmd_verify, "check the verification-lemma conditions")
    p_ver.add_argument("--problem", choices=(*_LEMMAS, "both"), default="both")
    p_ver.add_argument("--barrier-override", dest="barrier_override", type=float, default=None)
    p_ver.add_argument("--mode", choices=verify.MODES, default="analytic")

    return parser


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    """Write ``--flag -1e-3`` as ``--flag=-1e-3``.

    argparse reads a token such as ``-1e-3``, ``-2.`` or ``-inf`` as an option, not a value.
    """
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and "=" not in flag and token.startswith("-") and _is_number(token):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args, _gather_params(args))
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
