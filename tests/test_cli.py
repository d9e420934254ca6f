"""Command-line interface: parameter sources, subcommand outputs, exit codes,
and byte-level determinism of simulation output."""

import argparse
import math
import os
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

import fundiv
from fundiv import (
    ConfigError,
    DomainError,
    DoubleBarrier,
    MissingParameter,
    ModelParams,
    NoBreakeven,
    NumericalError,
    ParameterError,
    SimConfig,
    SimSummary,
    SolvencyConstrained,
    UnconstrainedBarrier,
    cli,
    constrained_barrier_beta1,
    injections,
    kappa_from_barrier,
    optimal_barrier_beta2,
    simulate_paths,
    value_injections,
    value_unconstrained,
)
from fundiv.cli import build_parser, main
from helpers import DEGENERATE_ROOTS, P1, make_params

P1_BETA0 = 3.406023481382157
P1_VALUE_2_1 = 1.134040332600657


@pytest.fixture
def p1_config(tmp_path):
    path = tmp_path / "p1.cfg"
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in P1.items()), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def keys(text):
    """The keys of the 'key = value' lines of an output, in order, skipping comments and CSV."""
    return [line.partition(" = ")[0] for line in text.splitlines()
            if " = " in line and not line.startswith("#")]


def echo_keys(text):
    """The keys of the '# key = value' parameter echo, in order."""
    return [line[2:].partition(" = ")[0] for line in text.splitlines() if line.startswith("# ")]


def kv(text):
    """Parse the 'key = value' lines of an output, skipping comments and CSV."""
    out = {}
    for line in text.splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def test_barriers_from_config(capsys, p1_config):
    rc, out, err = run_cli(capsys, "barriers", "--config", p1_config)
    assert rc == 0
    assert err == ""
    assert out.startswith("# mu_A = ")
    values = kv(out)
    assert float(values["sigma_tilde_sq"]) == pytest.approx(0.1, rel=1e-15)
    assert float(values["beta0_star"]) == pytest.approx(P1_BETA0, rel=1e-12)
    assert "beta1_star" not in values
    assert "beta2_star" not in values


def test_barriers_optional_fields_extend_output(capsys, p1_config):
    rc, out, _ = run_cli(
        capsys, "barriers", "--config", p1_config, "--alpha1", "5.0", "--kappa", "1.05"
    )
    assert rc == 0
    values = kv(out)
    assert float(values["beta1_star"]) == 5.0  # floor binds above beta0*
    assert float(values["beta2_star"]) == pytest.approx(1.8110002691689329, rel=1e-10)
    assert float(values["gamma_star"]) == 1.0
    assert float(values["value_at_beta1"]) == pytest.approx(4.1059722734260955, rel=1e-12)


def test_flags_override_config_values(capsys, p1_config):
    rc, base_out, _ = run_cli(capsys, "barriers", "--config", p1_config)
    rc2, out, _ = run_cli(capsys, "barriers", "--config", p1_config, "--sigma_A", "0.25")
    assert rc == rc2 == 0
    assert "# sigma_A = 0.25\n" in out
    assert float(kv(out)["beta0_star"]) != float(kv(base_out)["beta0_star"])


def test_parameters_must_come_from_somewhere(capsys):
    rc, _, err = run_cli(capsys, "barriers")
    assert rc == 1
    assert err.startswith("error:")


def test_bad_config_line_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mu_A 0.05\n", encoding="utf-8")
    rc, _, err = run_cli(capsys, "barriers", "--config", str(path))
    assert rc == 1
    assert "error:" in err


def test_unknown_parameter_key_exits_1(capsys, tmp_path):
    path = tmp_path / "junk.cfg"
    path.write_text("volatility = 0.3\n", encoding="utf-8")
    rc, _, err = run_cli(capsys, "barriers", "--config", str(path))
    assert rc == 1
    assert "unknown parameter" in err


def test_config_key_set_twice_exits_1(capsys, tmp_path, p1_config):
    path = tmp_path / "twice.cfg"
    text = Path(p1_config).read_text(encoding="utf-8")
    path.write_text(text + "alpha0 = 1.5\n", encoding="utf-8")
    rc, out, err = run_cli(capsys, "barriers", "--config", str(path))
    assert rc == 1
    assert out == ""
    assert err.startswith("error: alpha0 = ") and "lines 7 and 8" in err


def test_value_point_and_homogeneity(capsys, p1_config):
    rc, out, _ = run_cli(
        capsys, "value", "--config", p1_config,
        "--problem", "unconstrained", "--x1", "2.0", "--x2", "1.0",
    )
    assert rc == 0
    values = kv(out)
    assert float(values["value"]) == pytest.approx(P1_VALUE_2_1, rel=1e-12)
    assert values["branch"] == "continuation"

    rc, scaled_out, _ = run_cli(
        capsys, "value", "--config", p1_config,
        "--problem", "unconstrained", "--x1", "2.0", "--x2", "1.0", "--scale", "7.0",
    )
    assert rc == 0
    scaled = kv(scaled_out)
    assert float(scaled["value"]) == pytest.approx(7.0 * P1_VALUE_2_1, rel=1e-12)
    assert float(scaled["dvalue_dx1"]) == pytest.approx(float(values["dvalue_dx1"]), rel=1e-12)


def test_value_branch_labels(capsys, p1_config):
    rc, out, _ = run_cli(
        capsys, "value", "--config", p1_config,
        "--problem", "unconstrained", "--x1", "10.0", "--x2", "1.0",
    )
    assert rc == 0
    assert kv(out)["branch"] == "above-barrier"

    rc, out, _ = run_cli(
        capsys, "value", "--config", p1_config, "--kappa", "1.05",
        "--problem", "injection", "--x1", "1.1", "--x2", "1.0", "--gamma", "1.3",
    )
    assert rc == 0
    values = kv(out)
    assert values["branch"] == "below-injection"
    assert float(values["dvalue_dx1"]) == pytest.approx(1.05, rel=1e-12)


def test_value_domain_failures_exit_2(capsys, p1_config):
    rc, _, err = run_cli(
        capsys, "value", "--config", p1_config,
        "--problem", "unconstrained", "--x1", "2.0", "--x2", "1.0", "--scale", "0.0",
    )
    assert rc == 2
    assert "error:" in err

    rc, _, err = run_cli(
        capsys, "value", "--config", p1_config,
        "--problem", "unconstrained", "--x1", "0.5", "--x2", "1.0",
    )
    assert rc == 2


def test_value_overflow_exits_3(capsys, p1_config):
    # u^zeta2 overflows on the band under a barrier of 1e300.
    rc, out, err = run_cli(
        capsys, "value", "--config", p1_config, "--problem", "unconstrained",
        "--beta", "1e300", "--x1", "1e299", "--x2", "1.0",
    )
    assert rc == 3
    assert out == ""
    assert err.startswith("error:") and "Warning" not in err

    # A finite point given whose scaled coordinates overflow is a numerical failure too.
    rc, out, err = run_cli(
        capsys, "value", "--config", p1_config, "--problem", "unconstrained",
        "--x1", "1e300", "--x2", "1.0", "--scale", "1e10",
    )
    assert rc == 3
    assert out == ""
    assert "overflow" in err


@pytest.mark.parametrize("flag, point", [
    ("--x1", ("--x1", "nan", "--x2", "1.0")),
    ("--x2", ("--x1", "2.0", "--x2=-inf")),
    ("--scale", ("--x1", "2.0", "--x2", "1.0", "--scale", "inf")),
    ("--x2", ("--x1", "2.0", "--x2", "-inf")),
])
def test_value_non_finite_point_exits_2(capsys, p1_config, flag, point):
    rc, out, err = run_cli(
        capsys, "value", "--config", p1_config, "--problem", "unconstrained", *point,
    )
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {flag} ") and err.rstrip().endswith("must be finite")


@pytest.mark.parametrize("overrides", DEGENERATE_ROOTS, ids=str)
@pytest.mark.parametrize("cmd", ["barriers", "verify"])
def test_degenerate_roots_exit_3(capsys, p1_config, cmd, overrides):
    flags = [f"--{k}={v!r}" for k, v in overrides.items()]
    rc, out, err = run_cli(
        capsys, cmd, "--config", p1_config, "--alpha1", "1.2", "--kappa", "1.05", *flags
    )
    assert rc == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("value", "--problem", "injection", "--beta", "1e200", "--x1", "2", "--x2", "1"),
    ("verify", "--problem", "injection", "--barrier-override", "1e200"),
])
def test_closed_form_overflow_exits_3(capsys, p1_config, argv):
    # The name predates band weights built from powers no larger than one: a 1e200
    # barrier has finite weights, so value prints the never-pay value and verify a
    # failing report.
    rc, out, err = run_cli(capsys, argv[0], "--config", p1_config, "--kappa", "1.05", *argv[1:])
    assert err == ""
    if argv[0] == "value":
        assert rc == 0
        assert kv(out)["value"] == "-0.89180803104083184"
    else:
        assert rc == 2
        assert "passed = false" in out


def test_value_on_a_wide_injection_band_keeps_its_digits(capsys, p1_config):
    # The weight B once cancelled every digit here: value 645710740595.34058 and
    # dvalue_dx1 21339.67 on the payout ray, whose slope is one.
    rc, out, err = run_cli(
        capsys, "value", "--config", p1_config, "--problem", "injection", "--delta", "0.5",
        "--kappa", "1.05", "--beta", "1e8", "--x1", "1e8", "--x2", "1",
    )
    assert (rc, err) == (0, "")
    values = kv(out)
    assert float(values["value"]) == pytest.approx(30258697.283875, rel=1e-12)
    assert float(values["dvalue_dx1"]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_barriers_overflowing_barrier_value_exits_3(capsys, p1_config):
    # beta1* = alpha1 = 1e300 has finite band weights, but the value on its ray overflows.
    rc, out, err = run_cli(capsys, "barriers", "--config", p1_config, "--alpha1", "1e300")
    assert (rc, out) == (3, "")
    assert err == "error: value inf or its slopes overflow at (1e+300, 1.0)\n"


def test_infinite_parameter_exits_1(capsys, p1_config, tmp_path):
    rc, out, err = run_cli(capsys, "barriers", "--config", p1_config, "--alpha1", "inf")
    assert (rc, out) == (1, "")
    assert err == "error: alpha1 = inf violates requirement: alpha1 must be finite\n"

    cfg = tmp_path / "inf.cfg"
    cfg.write_text("".join(f"{k} = {'inf' if k == 'sigma_A' else repr(v)}\n" for k, v in P1.items()))
    rc, out, err = run_cli(capsys, "barriers", "--config", str(cfg))
    assert (rc, out) == (1, "")
    assert err == "error: sigma_A = inf violates requirement: sigma_A must be finite\n"

    rc, out, err = run_cli(capsys, "barriers", "--config", p1_config, "--mu_L", "-inf")
    assert (rc, out) == (1, "")
    assert err == "error: mu_L = -inf violates requirement: mu_L must be finite\n"


def test_subnormal_alpha0_exits_1(capsys, p1_config):
    rc, out, err = run_cli(capsys, "barriers", "--config", p1_config, "--alpha0", "1e-310")
    assert (rc, out) == (1, "")
    assert err == ("error: alpha0 = 1e-310 violates requirement: "
                   f"alpha0 >= {sys.float_info.min!r}, a normal float\n")


@pytest.mark.filterwarnings("error")
def test_simulate_start_ratio_overflow_exits_1(capsys, p1_config):
    # The engine rejects the start before any closed form is read there; nothing may warn.
    rc, out, err = run_cli(
        capsys, "simulate", "--config", p1_config, "--policy", "unconstrained",
        "--x1_0", "1e300", "--x2_0", "1e-300", "--dt", "0.25", "--horizon_T", "1.0",
        "--n_paths", "6", "--seed", "4",
    )
    assert (rc, out) == (1, "")
    assert err == "error: start ratio x1_0 / x2_0 = 1e+300 / 1e-300 overflows a float\n"


@pytest.mark.filterwarnings("error")
def test_simulate_start_ratio_of_minus_inf_exits_1(capsys, p1_config):
    rc, out, err = run_cli(
        capsys, "simulate", "--config", p1_config, "--policy", "unconstrained",
        "--x1_0=-1e300", "--x2_0", "1e-300", "--dt", "0.25", "--horizon_T", "1.0",
        "--n_paths", "6", "--seed", "4",
    )
    assert (rc, out) == (1, "")
    assert err == "error: start ratio -inf lies below alpha0 = 1.0\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("paired", [(), ("--paired", "--policy_b", "unconstrained")],
                         ids=["single", "paired"])
@pytest.mark.parametrize("x1_0, x2_0", [(0.5, 1.0), (2.0, 0.0), (2.0, -1.0), (-1e300, 1e-300)])
def test_simulate_bad_start_exits_1_with_the_engine_message(capsys, p1_config, x1_0, x2_0,
                                                            paired):
    # The engine checks the start; no closed form is read at a start it rejects.
    cfg = SimConfig(x1_0=x1_0, x2_0=x2_0, dt=0.25, horizon_T=1.0, n_paths=6, seed=4)
    with pytest.raises(ConfigError) as engine:
        simulate_paths(cfg, UnconstrainedBarrier(beta=P1_BETA0), make_params())
    rc, out, err = run_cli(
        capsys, "simulate", "--config", p1_config, "--policy", "unconstrained", *paired,
        f"--x1_0={x1_0!r}", f"--x2_0={x2_0!r}", "--dt", "0.25", "--horizon_T", "1.0",
        "--n_paths", "6", "--seed", "4",
    )
    assert (rc, out) == (1, "")
    assert err == f"error: {engine.value}\n"


def test_value_injection_needs_kappa(capsys, p1_config):
    rc, _, err = run_cli(
        capsys, "value", "--config", p1_config,
        "--problem", "injection", "--x1", "1.5", "--x2", "1.0",
    )
    assert rc == 1
    assert "kappa" in err


def test_simulate_csv_summary_and_z_score(capsys, p1_config):
    rc, out, _ = run_cli(
        capsys, "simulate", "--config", p1_config,
        "--policy", "unconstrained", "--x1_0", "2.0", "--x2_0", "1.0",
        "--dt", "0.25", "--horizon_T", "1.0", "--n_paths", "6", "--seed", "4",
    )
    assert rc == 0
    lines = out.splitlines()
    header_at = lines.index("path_index,pv_dividends,pv_injections,ruin_time,censored")
    assert len(lines[header_at + 1 : header_at + 7]) == 6
    values = kv(out)
    assert values["n_paths"] == "6"
    assert float(values["closed_form_value"]) == pytest.approx(P1_VALUE_2_1, rel=1e-12)
    assert "z_score_vs_closed_form" in values
    assert values["policy"].startswith("UnconstrainedBarrier(")


def test_simulate_double_and_solvency_targets_and_z_scores(capsys, p1_config):
    p = make_params(kappa=1.05, alpha1=1.5)
    geometry = ("--x1_0", "2.0", "--x2_0", "1.0", "--dt", "0.25", "--horizon_T", "4.0",
                "--n_paths", "200", "--seed", "3")
    beta2, beta1 = optimal_barrier_beta2(p), constrained_barrier_beta1(p)
    targets = {
        ("--policy", "double", "--gamma", "1.1"): (
            DoubleBarrier(beta=beta2, gamma=1.1),
            value_injections(2.0, 1.0, beta2, 1.1, p),
        ),
        ("--policy", "solvency", "--alpha1", "1.5"): (
            SolvencyConstrained(beta=beta1, alpha1=1.5),
            value_unconstrained(2.0, 1.0, beta1, p),
        ),
    }
    runs = {}
    for policy, (simulated, target) in targets.items():
        rc, out, _ = run_cli(
            capsys, "simulate", "--config", p1_config, "--kappa", "1.05", *policy, *geometry
        )
        assert rc == 0
        values = runs[policy[1]] = kv(out)
        assert values["policy"] == repr(simulated)
        cf = float(values["closed_form_value"])
        assert cf == target
        mean, se = float(values["mean_net_value"]), float(values["se_net_value"])
        assert float(values["z_score_vs_closed_form"]) == (mean - cf) / se
    # The double barrier injects here, so its z-score must read the net value,
    # which differs from the dividend mean; the solvency run never injects.
    assert runs["double"]["mean_net_value"] != runs["double"]["mean_pv_dividends"]
    assert runs["solvency"]["mean_net_value"] == runs["solvency"]["mean_pv_dividends"]


def test_simulate_run_flags_are_the_simconfig_fields():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in sub.choices["simulate"]._actions}
    others = {"help", "config", "output", "policy", "beta", "gamma", "paired", "policy_b", "beta_b"}
    model = {f.name for f in fields(fundiv.ModelParams)}
    assert set(flags) - others - model == {f.name for f in fields(SimConfig)}
    for f in fields(SimConfig):
        action = flags[f.name]
        assert action.required == (f.default is MISSING), f.name
        if not action.required:
            assert action.default == f.default, f.name
        if f.name == "antithetic":
            assert isinstance(action, argparse._StoreTrueAction)
        else:
            assert action.type is {"n_paths": int, "seed": int, "n_workers": int}.get(f.name, float)


def test_every_subcommand_takes_config_the_model_fields_and_output():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    shared = {"config", *(f.name for f in fields(fundiv.ModelParams)), "output"}
    assert set(sub.choices) == {"barriers", "value", "simulate", "sweep", "verify"}
    for name, parser in sub.choices.items():
        assert shared <= {a.dest for a in parser._actions}, name


def test_simulate_config_errors_exit_1(capsys, p1_config):
    rc, _, err = run_cli(
        capsys, "simulate", "--config", p1_config,
        "--policy", "unconstrained", "--x1_0", "2.0", "--x2_0", "1.0",
        "--dt", "0.25", "--horizon_T", "1.0", "--n_paths", "5", "--seed", "4",
        "--antithetic",
    )
    assert rc == 1
    assert "even" in err

    rc, _, err = run_cli(
        capsys, "simulate", "--config", p1_config,
        "--policy", "unconstrained", "--x1_0", "2.0", "--x2_0", "1.0",
        "--dt", "0.25", "--horizon_T", "1.0", "--n_paths", "4", "--seed", "4",
        "--paired",
    )
    assert rc == 1
    assert "policy_b" in err

    rc, out, _ = run_cli(  # a switch takes no value, negative or not
        capsys, "simulate", "--config", p1_config,
        "--policy", "unconstrained", "--x1_0", "2.0", "--x2_0", "1.0",
        "--dt", "0.25", "--horizon_T", "1.0", "--n_paths", "4", "--seed", "4",
        "--antithetic", "-1",
    )
    assert (rc, out) == (1, "")


SIM_RUN = ("--x1_0", "2.0", "--x2_0", "1.0", "--dt", "0.25", "--horizon_T", "1.0",
           "--n_paths", "4", "--seed", "4")


@pytest.mark.parametrize("argv", [
    ("simulate", "--policy", "double", "--beta", "inf", *SIM_RUN),
    ("value", "--problem", "injection", "--beta", "inf", "--x1", "2", "--x2", "1"),
    ("verify", "--problem", "injection", "--barrier-override", "inf"),
])
def test_double_barrier_at_infinity_exits_3(capsys, p1_config, argv):
    # The name predates band weights built from powers no larger than one: at
    # beta = inf they are finite, so simulate and value read the never-pay value,
    # and verify stops at its lemma grid, as for the ruin-stopped problem.
    rc, out, err = run_cli(capsys, argv[0], "--config", p1_config, "--kappa", "1.05", *argv[1:])
    if argv[0] == "verify":
        assert (rc, out) == (2, "")
        assert err == "error: the lemma grid [alpha0, 3 barrier] overflows at barrier = inf\n"
        return
    assert (rc, err) == (0, "")
    key = "closed_form_value" if argv[0] == "simulate" else "value"
    assert kv(out)[key] == "-0.89180803104083184"


@pytest.mark.parametrize("argv,flag", [
    (("simulate", "--policy", "unconstrained", "--policy_b", "double", *SIM_RUN), "--policy_b"),
    (("simulate", "--policy", "unconstrained", "--beta_b", "2.5", *SIM_RUN), "--beta_b"),
    (("simulate", "--policy", "unconstrained", "--gamma", "1.1", *SIM_RUN), "--gamma"),
    (("simulate", "--policy", "solvency", "--alpha1", "1.5", "--gamma", "1.1", "--paired",
      "--policy_b", "unconstrained", *SIM_RUN), "--gamma"),
    (("value", "--problem", "unconstrained", "--gamma", "1.1", "--x1", "2", "--x2", "1"),
     "--gamma"),
    (("value", "--problem", "solvency", "--alpha1", "1.5", "--gamma", "1.1", "--x1", "2",
      "--x2", "1"), "--gamma"),
])
def test_flags_the_command_would_ignore_exit_1(capsys, p1_config, argv, flag):
    rc, out, err = run_cli(capsys, argv[0], "--config", p1_config, "--kappa", "1.05", *argv[1:])
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and flag in err


def test_simulate_paired_output(capsys, p1_config):
    rc, out, _ = run_cli(
        capsys, "simulate", "--config", p1_config,
        "--policy", "unconstrained", "--beta", "1.5",
        "--paired", "--policy_b", "unconstrained", "--beta_b", "2.5",
        "--x1_0", "2.0", "--x2_0", "1.0",
        "--dt", "0.25", "--horizon_T", "1.0", "--n_paths", "6", "--seed", "4",
    )
    assert rc == 0
    assert "path_index,pv_dividends_a,pv_dividends_b,diff_pv_dividends," in out
    values = kv(out)
    assert "mean_diff" in values and "se_diff" in values
    assert values["policy_a"] == "UnconstrainedBarrier(beta=1.5)"
    assert values["policy_b"] == "UnconstrainedBarrier(beta=2.5)"
    assert float(values["closed_form_value_a"]) != float(values["closed_form_value_b"])


def test_simulate_output_bytes_identical_across_workers(tmp_path, p1_config, capsys):
    outputs = []
    for workers, name in ((1, "w1.csv"), (3, "w3.csv")):
        target = tmp_path / name
        rc, _, _ = run_cli(
            capsys, "simulate", "--config", p1_config,
            "--policy", "unconstrained", "--x1_0", "2.0", "--x2_0", "1.0",
            "--dt", "0.25", "--horizon_T", "1.0", "--n_paths", "6", "--seed", "4",
            "--n_workers", str(workers), "--output", str(target),
        )
        assert rc == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    ("barriers", "--alpha1", "1.2", "--kappa", "1.05"),
    ("value", "--problem", "unconstrained", "--x1", "2.0", "--x2", "1.0"),
    ("simulate", "--policy", "unconstrained", "--x1_0", "2.0", "--x2_0", "1.0",
     "--dt", "0.25", "--horizon_T", "1.0", "--n_paths", "6", "--seed", "4"),
    ("sweep", "--kappa", "1.05", "--kind", "beta2-vs-kappa", "--steps", "3"),
    ("verify", "--alpha1", "1.2", "--problem", "solvency"),
], ids=lambda argv: argv[0])
def test_output_file_holds_the_stdout_bytes(tmp_path, capsys, p1_config, argv):
    rc, out, err = run_cli(capsys, argv[0], "--config", p1_config, *argv[1:])
    target = tmp_path / "out.txt"
    rc_file, out_file, err_file = run_cli(
        capsys, argv[0], "--config", p1_config, *argv[1:], "--output", str(target),
    )
    assert rc == rc_file == 0
    assert err == err_file == out_file == ""
    assert out.startswith("# mu_A = 0.050000000000000003\n")
    assert target.read_bytes() == out.encode("utf-8")


def test_sweep_beta2_vs_kappa(capsys, p1_config):
    rc, out, _ = run_cli(
        capsys, "sweep", "--config", p1_config, "--kind", "beta2-vs-kappa",
        "--kappa_min", "1.05", "--kappa_max", "1.6", "--steps", "5",
    )
    assert rc == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows[0] == "kappa,beta2_star"
    assert len(rows) == 6
    barriers = [float(r.split(",")[1]) for r in rows[1:]]
    assert barriers == sorted(barriers)
    assert barriers[0] < barriers[-1]


@pytest.mark.parametrize("argv, msg", [
    (("sweep", "--alpha0", "1e307", "--kind", "beta2-vs-kappa",
      "--kappa_min", "1.01", "--kappa_max", "5", "--steps", "3"), None),
    (("barriers", "--alpha0", "1e308", "--kappa", "1.05"),
     "psi is still positive at the largest float, beta = 1.7976931348623157e+308"),
], ids=["beta2-vs-kappa", "barriers"])
def test_beta2_beyond_float_range_exits_3(capsys, p1_config, argv, msg):
    # The name predates the bracket that stops at the largest float: beta2*(5) ~
    # 1.16e308 lies below it and is printed (msg None).
    rc, out, err = run_cli(capsys, argv[0], "--config", p1_config, *argv[1:])
    if msg is None:
        assert (rc, err) == (0, "")
        p = make_params(alpha0=1e307)
        for row in out.splitlines()[-3:]:
            kappa, beta2 = map(float, row.split(","))
            assert kappa_from_barrier(beta2, p.alpha0, p) == pytest.approx(kappa, rel=1e-12)
        return
    assert (rc, out) == (3, "")
    assert err == f"error: {msg}\n"


def test_sweep_breakeven_at_a_huge_alpha0_prints_the_kappa_star_of_alpha0_1(capsys, p1_config):
    # kappa* depends on beta2*/alpha0 alone; a search at alpha0 = 1e307 itself overflows.
    columns = []
    for alpha0 in ("1", "1e307"):
        rc, out, err = run_cli(
            capsys, "sweep", "--config", p1_config, "--alpha0", alpha0,
            "--kind", "breakeven", "--steps", "2",
        )
        assert (rc, err) == (0, "")
        columns.append([row[1] for row in _breakeven_rows(out)])
    assert columns[0] == columns[1] and all(columns[0])


def test_sweep_value_surface_marks_infeasible_cells(capsys, p1_config):
    rc, out, _ = run_cli(
        capsys, "sweep", "--config", p1_config, "--kappa", "1.05",
        "--kind", "value-surface", "--gamma_steps", "3", "--beta_steps", "4",
    )
    assert rc == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows[0] == "gamma,beta,value"
    assert len(rows) == 1 + 3 * 4
    empties = [r for r in rows[1:] if r.endswith(",")]
    filled = [r for r in rows[1:] if not r.endswith(",")]
    assert empties and filled  # beta grid starts at alpha0, below the first gamma
    for row in filled:
        gamma, beta, value = map(float, row.split(","))
        assert beta > gamma
        assert math.isfinite(value)  # may be negative: injections are forced


@pytest.mark.parametrize("argv", [
    ("barriers", "--alpha1", "1.2"),
    ("value", "--problem", "injection", "--x1", "2", "--x2", "1"),
    ("simulate", "--policy", "unconstrained", *SIM_RUN),
    ("simulate", "--policy", "unconstrained", "--paired", "--policy_b", "double", *SIM_RUN),
    ("sweep", "--kind", "value-surface", "--gamma_steps", "3", "--beta_steps", "4"),
], ids=["barriers", "value", "simulate", "simulate-paired", "value-surface"])
def test_printed_closed_forms_come_from_the_checked_read(capsys, p1_config, monkeypatch, argv):
    checked, reads = cli._checked_read, []

    def spy(fn, x1, x2):
        read = checked(fn, x1, x2)
        reads.extend(read)
        return read

    monkeypatch.setattr(cli, "_checked_read", spy)
    rc, out, _ = run_cli(capsys, argv[0], "--config", p1_config, "--kappa", "1.05", *argv[1:])
    assert rc == 0
    if argv[0] == "sweep":
        rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
        printed = [float(row[2]) for row in rows[1:] if row[2]]
    else:
        printed = [float(v) for k, v in kv(out).items()
                   if k.startswith(("value", "dvalue", "closed_form_value"))]
    assert printed and all(v in reads for v in printed)


def test_sweep_breakeven_direction(capsys, p1_config):
    rc, out, _ = run_cli(
        capsys, "sweep", "--config", p1_config, "--kind", "breakeven",
        "--sigma_A_min", "0.25", "--sigma_A_max", "0.35", "--steps", "3",
    )
    assert rc == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows[0] == "sigma_A,kappa_star,beta2_star"
    stars = [float(r.split(",")[1]) for r in rows[1:]]
    assert len(stars) == 3
    # recapitalisation tolerates a higher cost when the business is safer
    assert stars[0] > stars[1] > stars[2]


def test_sweep_breakeven_leaves_rows_without_a_breakeven_blank(capsys, p1_config):
    # At sigma_A = 15150 and 30000 no kappa* lies above KAPPA_LO.
    rc, out, err = run_cli(
        capsys, "sweep", "--config", p1_config, "--kind", "breakeven",
        "--sigma_A_min", "300", "--sigma_A_max", "30000", "--steps", "3",
    )
    assert (rc, err) == (0, "")
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows[2:] == ["15150,,", "30000,,"]
    sigma_a, kappa_star, beta2_star = map(float, rows[1].split(","))
    assert sigma_a == 300.0 and kappa_star > 1.0 and beta2_star > P1["alpha0"]


@pytest.mark.parametrize("kind, flag", [
    ("beta2-vs-kappa", "--steps"),
    ("breakeven", "--steps"),
    ("value-surface", "--gamma_steps"),
    ("value-surface", "--beta_steps"),
])
def test_sweep_negative_count_exits_1(capsys, p1_config, kind, flag):
    rc, out, err = run_cli(
        capsys, "sweep", "--config", p1_config, "--kappa", "1.05", "--kind", kind, flag, "-1",
    )
    assert rc == 1
    assert out == ""
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize("kind, flag", [
    ("beta2-vs-kappa", "--sigma_A_min"),
    ("beta2-vs-kappa", "--gamma_min"),
    ("beta2-vs-kappa", "--ratio"),
    ("value-surface", "--kappa_max"),
    ("value-surface", "--steps"),
    ("breakeven", "--kappa_min"),
    ("breakeven", "--beta_steps"),
])
def test_sweep_rejects_flags_of_other_kinds(capsys, p1_config, kind, flag):
    rc, out, err = run_cli(
        capsys, "sweep", "--config", p1_config, "--kappa", "1.05", "--kind", kind, flag, "2",
    )
    assert rc == 1
    assert out == ""
    assert f"error: {flag} does not apply to --kind {kind}" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("kind, flag", [
    (kind, flag) for kind, owned in cli._SWEEP_FLAGS.items()
    for flag in owned if not flag.endswith("steps")
])
def test_sweep_non_finite_float_flag_exits_1_naming_it(capsys, p1_config, kind, flag, text):
    # "--flag -inf" is spaced, so -inf reaches the check through _join_negative_values.
    rc, out, err = run_cli(
        capsys, "sweep", "--config", p1_config, "--kappa", "1.05", "--kind", kind,
        f"--{flag}", text,
    )
    assert (rc, out) == (1, "")
    assert err == f"error: --{flag} {text} must be finite\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, lo", [
    (kind, flag) for kind, owned in cli._SWEEP_FLAGS.items()
    for flag in owned if flag.endswith("_min")
])
def test_sweep_span_that_overflows_exits_1_naming_both_flags(capsys, p1_config, kind, lo):
    # Both bounds are finite, but their difference is not: np.linspace would
    # warn and fill the grid with nan.
    hi = lo.replace("_min", "_max")
    rc, out, err = run_cli(
        capsys, "sweep", "--config", p1_config, "--kappa", "1.05", "--kind", kind,
        f"--{lo}", "-1.7e308", f"--{hi}", "1.7e308",
    )
    assert (rc, out) == (1, "")
    assert err == f"error: the span --{lo} -1.7e+308 to --{hi} 1.7e+308 overflows a float\n"


def test_verify_overflowing_barrier_exits_2_with_a_report(capsys, p1_config):
    rc, out, err = run_cli(
        capsys, "verify", "--config", p1_config, "--alpha1", "1.2",
        "--problem", "solvency", "--barrier-override", "1e300",
    )
    assert rc == 2
    assert "passed = false" in out
    assert err == ""


@pytest.mark.parametrize("barrier", ["inf", "1e308"])
def test_verify_lemma_grid_past_float_range_exits_2_naming_the_barrier(capsys, p1_config,
                                                                        barrier):
    rc, out, err = run_cli(
        capsys, "verify", "--config", p1_config, "--alpha1", "1.2",
        "--problem", "solvency", "--barrier-override", barrier,
    )
    assert (rc, out) == (2, "")
    assert err == ("error: the lemma grid [alpha0, 3 barrier] overflows at barrier = "
                   f"{float(barrier)!r}\n")


def test_verify_both_problems_pass(capsys, p1_config):
    rc, out, _ = run_cli(
        capsys, "verify", "--config", p1_config, "--alpha1", "1.2", "--kappa", "1.05",
    )
    assert rc == 0
    assert out.count("passed = true") == 2
    assert "problem = solvency" in out
    assert "problem = injection" in out


def test_verify_detuned_barrier_exits_2(capsys, p1_config):
    rc, out, _ = run_cli(
        capsys, "verify", "--config", p1_config, "--alpha1", "1.2",
        "--problem", "solvency", "--barrier-override", str(1.1 * P1_BETA0),
    )
    assert rc == 2
    assert "passed = false" in out
    assert "FAIL" in out


def test_verify_override_needs_explicit_problem(capsys, p1_config):
    rc, _, err = run_cli(
        capsys, "verify", "--config", p1_config, "--alpha1", "1.2", "--kappa", "1.05",
        "--barrier-override", "2.0",
    )
    assert rc == 1
    assert "problem" in err


def test_verify_missing_alpha1_exits_1(capsys, p1_config):
    rc, _, err = run_cli(capsys, "verify", "--config", p1_config, "--problem", "solvency")
    assert rc == 1
    assert "alpha1" in err


@pytest.mark.parametrize("floor, error", [
    ((), "a SolvencyConstrained policy needs its floor alpha1"),
    (("--alpha1", "1.5"), "policy beta = 1.2 must be >= its floor alpha1 = 1.5"),
])
@pytest.mark.parametrize("command", [
    ("value", "--problem", "solvency", "--x1", "2", "--x2", "1"),
    ("simulate", "--policy", "solvency", *SIM_RUN),
])
def test_solvency_barrier_below_its_floor_exits_1(capsys, p1_config, floor, error, command):
    # value and simulate share simulate's floor rule for a solvency barrier.
    rc, out, err = run_cli(capsys, command[0], "--config", p1_config, *floor, "--beta", "1.2",
                           *command[1:])
    assert (rc, out) == (1, "")
    assert err == f"error: {error}\n"


def test_value_solvency_barrier_at_its_floor_is_accepted(capsys, p1_config):
    rc, out, _ = run_cli(capsys, "value", "--config", p1_config, "--alpha1", "1.5",
                         "--problem", "solvency", "--beta", "1.5", "--x1", "2", "--x2", "1")
    assert rc == 0
    assert kv(out)["beta"] == "1.5"


def test_simulate_solvency_missing_alpha1_exits_1(capsys, p1_config):
    rc, _, err = run_cli(
        capsys, "simulate", "--config", p1_config,
        "--policy", "solvency", "--beta", "2.0", "--x1_0", "2.0", "--x2_0", "1.0",
        "--dt", "0.25", "--horizon_T", "1.0", "--n_paths", "4", "--seed", "4",
    )
    assert rc == 1
    assert "alpha1" in err


def test_unwritable_output_exits_4(capsys, p1_config):
    rc, _, err = run_cli(
        capsys, "barriers", "--config", p1_config,
        "--output", "/nonexistent-dir/out.txt",
    )
    assert rc == 4
    assert "error:" in err


@pytest.mark.parametrize("error, code", [
    (ParameterError("sigma_A", -1.0, "sigma_A > 0"), 1),
    (MissingParameter("kappa", "the model"), 1),
    (ConfigError("a run set up inconsistently"), 1),
    (DomainError("a point outside the domain"), 2),
    (NumericalError("a search that failed"), 3),
    (NoBreakeven("no sign change"), 3),
    (OverflowError("a float that overflowed"), 3),
    (OSError("a file that failed"), 4),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_each_error_class_exits_with_its_code(capsys, monkeypatch, p1_config, error, code):
    def fail(args, p):
        raise error

    monkeypatch.setattr(cli, "cmd_barriers", fail)
    assert run_cli(capsys, "barriers", "--config", p1_config) == (code, "", f"error: {error}\n")


def test_an_unmapped_error_propagates(monkeypatch, p1_config):
    def fail(args, p):
        raise RuntimeError("a bug")

    monkeypatch.setattr(cli, "cmd_barriers", fail)
    with pytest.raises(RuntimeError, match="a bug"):
        main(["barriers", "--config", p1_config])


def test_help_and_bad_usage_exit_codes(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "no-such-command")[0] == 1
    assert run_cli(capsys)[0] == 1


def test_module_entry_point(p1_config):
    # The child process imports the same fundiv as this one, installed or not.
    src = str(Path(fundiv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fundiv.cli", "barriers", "--config", p1_config],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "beta0_star = " in proc.stdout


# ---------------------------------------------------------------------------
# The shape of every 'key = value' block

SUMMARY_KEYS = [f.name for f in fields(SimSummary)]


@pytest.mark.parametrize("extra, optional", [
    ((), []),
    (("--kappa", "1.05"), ["kappa"]),
    (("--kappa", "1.05", "--alpha1", "1.2"), ["alpha1", "kappa"]),
])
def test_parameter_echo_lists_the_set_fields_in_model_order(capsys, tmp_path, extra, optional):
    cfg = tmp_path / "reversed.cfg"
    cfg.write_text("".join(f"{k} = {v!r}\n" for k, v in reversed(P1.items())), encoding="utf-8")
    rc, out, _ = run_cli(capsys, "barriers", "--config", str(cfg), *extra)
    assert rc == 0
    order = [f.name for f in fields(ModelParams)]
    assert echo_keys(out) == [name for name in order if name in P1 or name in optional]
    assert out.startswith("# mu_A = 0.050000000000000003\n")


@pytest.mark.parametrize("extra, optima", [
    ((), ["beta0_star", "value_at_beta0"]),
    (("--alpha1", "1.2"), ["beta0_star", "value_at_beta0", "beta1_star", "value_at_beta1"]),
    (("--kappa", "1.05"),
     ["beta0_star", "value_at_beta0", "beta2_star", "gamma_star", "value_at_beta2"]),
])
def test_barriers_keys(capsys, p1_config, extra, optima):
    rc, out, _ = run_cli(capsys, "barriers", "--config", p1_config, *extra)
    assert rc == 0
    assert keys(out) == ["sigma_tilde_sq", "zeta1", "zeta2", *optima]


@pytest.mark.parametrize("problem", ["unconstrained", "solvency", "injection"])
def test_value_keys(capsys, p1_config, problem):
    rc, out, _ = run_cli(capsys, "value", "--config", p1_config, "--alpha1", "1.2",
                         "--kappa", "1.05", "--problem", problem, "--x1", "2", "--x2", "1")
    assert rc == 0
    ray = ["gamma"] if problem == "injection" else []
    assert keys(out) == ["problem", "x1", "x2", "beta", *ray,
                         "value", "branch", "dvalue_dx1", "dvalue_dx2"]
    assert kv(out)["problem"] == problem


def test_simulate_summary_block_keys_flags_and_round_trip(capsys, p1_config):
    rc, out, _ = run_cli(
        capsys, "simulate", "--config", p1_config, "--policy", "unconstrained", "--beta", "1.5",
        "--x1_0", "2.0", "--x2_0", "1.0", "--dt", "0.25", "--horizon_T", "2.0",
        "--n_paths", "8", "--seed", "99",
    )
    assert rc == 0
    names = keys(out)
    assert names == ["policy", *SUMMARY_KEYS, "closed_form_value", "z_score_vs_closed_form"]
    assert len(SUMMARY_KEYS) == 11 and names[1] == "n_paths"
    values = kv(out)
    assert values["n_paths"] == "8"
    cfg = SimConfig(x1_0=2.0, x2_0=1.0, dt=0.25, horizon_T=2.0, n_paths=8, seed=99)
    summary = simulate_paths(cfg, UnconstrainedBarrier(beta=1.5), make_params()).summary
    for name in SUMMARY_KEYS:
        expected = getattr(summary, name)
        if math.isnan(expected):
            assert values[name] == "nan", name
        else:
            assert float(values[name]) == expected, name  # 17 digits round-trip


def test_simulate_paired_block_keys(capsys, p1_config):
    rc, out, _ = run_cli(
        capsys, "simulate", "--config", p1_config, "--policy", "unconstrained",
        "--paired", "--policy_b", "unconstrained", "--beta_b", "2.5", *SIM_RUN,
    )
    assert rc == 0
    per_arm = ["mean_pv_dividends", "cv_pv_dividends", "mean_ruin_time_censored",
               "closed_form_value"]
    assert keys(out) == ["policy_a", "policy_b", "mean_diff", "se_diff",
                         *(f"{key}_{tag}" for tag in "ab" for key in per_arm)]


# ---------------------------------------------------------------------------
# Negative flag values and numerical failures

@pytest.mark.parametrize("flag, value", [
    ("mu_L", "-1e-3"), ("mu_L", "-2."), ("mu_L", "-1E2"), ("mu_L", "-0.01"), ("rho", "-5e-1"),
])
def test_negative_value_in_any_float_form_reaches_the_program(capsys, p1_config, flag, value):
    joined = run_cli(capsys, "barriers", "--config", p1_config, f"--{flag}={value}")
    spaced = run_cli(capsys, "barriers", "--config", p1_config, f"--{flag}", value)
    assert spaced == joined
    rc, out, err = spaced
    assert (rc, err) == (0, "")
    assert kv(out.replace("# ", ""))[flag] == format(float(value), ".17g")


# Valid sets with a large |zeta1|, where the score psi once left float range
# although beta2* exists; t* = beta2*/alpha0 is 1.00947 and 1.000915.
# zeta1 ~ -1011 and alpha0 ~ 0.0036: beta**zeta1 alone overflowed a float.
PSI_OVERFLOW = dict(
    mu_A=0.44869723100587794, mu_L=0.4387518284798846, sigma_A=0.0012974440670251866,
    sigma_L=0.0038951674803763456, rho=-0.279192758402081, delta=0.44873372196967615,
    alpha0=0.003643519668279969,
)
# zeta1 ~ -6186 and alpha0 ~ 22.8: the four-power score underflowed to -0.0
# just above alpha0, so beta2*'s bracket failed.
NO_BRACKET = dict(
    mu_A=-0.24258647357075377, mu_L=-0.46145861051615045, sigma_A=0.00287457527431201,
    sigma_L=0.011219668493694213, rho=0.9823890196369006, delta=1.981083166859843e-06,
    alpha0=22.832203961460266,
)


def _flags(params):
    return [f"--{key}={value!r}" for key, value in params.items()]


def _breakeven_rows(out):
    return [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]


@pytest.mark.parametrize("argv", [
    ("barriers",),
    ("value", "--problem", "injection", "--x1", "0.01", "--x2", "1"),
    ("verify", "--problem", "injection"),
    ("sweep", "--kind", "breakeven", "--steps", "3"),
], ids=lambda argv: argv[0])
def test_psi_overflow_exits_3_naming_psi(capsys, argv):
    # The name predates psi = kappa - kappa(t): every command on this set succeeds.
    rc, out, err = run_cli(capsys, argv[0], *_flags(PSI_OVERFLOW), "--kappa", "1.05", *argv[1:])
    assert (rc, err) == (0, "")
    values = kv(out)
    if argv[0] == "barriers":
        assert float(values["beta2_star"]) / PSI_OVERFLOW["alpha0"] == pytest.approx(
            1.00947, abs=1e-5
        )
    elif argv[0] == "value":
        assert math.isfinite(float(values["value"]))
    elif argv[0] == "verify":
        assert values["passed"] == "true"
    else:
        rows = _breakeven_rows(out)
        assert len(rows) == 3 and all(len(row) == 3 for row in rows)


def test_no_bracket_set_solves_beta2_and_reports_no_breakeven(capsys):
    rc, out, err = run_cli(capsys, "barriers", *_flags(NO_BRACKET), "--kappa", "1.05")
    assert (rc, err) == (0, "")
    p = make_params(**NO_BRACKET, kappa=1.05)
    beta2 = float(kv(out)["beta2_star"])
    assert beta2 / p.alpha0 == pytest.approx(1.000915, abs=1e-6)
    assert kappa_from_barrier(beta2, p.alpha0, p) == pytest.approx(1.05, rel=1e-9)

    rc, out, err = run_cli(capsys, "sweep", *_flags(NO_BRACKET), "--kind", "breakeven",
                           "--steps", "3")
    assert (rc, err) == (0, "")
    rows = _breakeven_rows(out)
    assert len(rows) == 3 and all(row[1:] == ["", ""] for row in rows)


def test_beta2_bracket_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(injections, "_kappa_of_ratio", lambda t, p: p.kappa)
    rc, out, err = run_cli(capsys, "barriers", *_flags(P1), "--kappa", "1.05")
    assert (rc, out) == (3, "")
    assert err == (
        "error: psi(1.000000000001) = 0.0 is not positive; no root bracket just above alpha0\n"
    )


def test_sweep_breakeven_reports_a_failed_search(capsys, monkeypatch):
    # Only NoBreakeven blanks a row; any other failure of the search ends the sweep.
    def fail(p, kappa_cap=1e3):
        raise NumericalError("psi(1.0) = -0.0 is not positive; no root bracket just above alpha0")

    monkeypatch.setattr(injections, "breakeven_kappa", fail)
    rc, out, err = run_cli(capsys, "sweep", *_flags(P1), "--kind", "breakeven", "--steps", "3")
    assert (rc, out) == (3, "")
    assert err.startswith("error: psi(1.0) = -0.0 is not positive")
