"""The paper's theorem against an oracle that assumes no barrier: Howard policy iteration
on the Hamilton-Jacobi-Bellman equation (tests/hjb.py) pays first at the closed-form
barriers, converges to the closed-form values and injects only at the floor."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fundiv import (
    breakeven_kappa,
    closed_form_value,
    constrained_barrier_beta1,
    double_barrier_value,
    optimal_barrier_beta0,
    optimal_barrier_beta2,
)
from helpers import make_params, random_params
from hjb import INJECT, RUIN, hjb_oracle, oracle_barrier

N = 400


def solve(p, problem, n=N):
    """The oracle's (ratios, values, policy), the closed-form barrier and value, and the
    grid step of ``problem`` on a grid up to four times that barrier."""
    if problem == "injection":
        beta = optimal_barrier_beta2(p)
        fn, kw = double_barrier_value(beta, p.alpha0, p), dict(kappa=p.kappa)
    elif problem == "solvency":
        beta = constrained_barrier_beta1(p)
        fn, kw = closed_form_value(beta, p), dict(alpha1=p.alpha1)
    else:
        beta = optimal_barrier_beta0(p)
        fn, kw = closed_form_value(beta, p), {}
    r, v, policy = hjb_oracle(p, 4.0 * beta, n, **kw)
    return r, v, policy, beta, fn, math.log(4.0 * beta / p.alpha0) / n


def assert_pays_at_the_barrier(p, problem):
    r, _, policy, beta, _, h = solve(p, problem)
    assert abs(math.log(oracle_barrier(r, policy) / beta)) <= 2.0 * h
    # Only the floor injects, and only where injections are allowed; else it is ruined.
    floor = [0] if problem == "injection" else []
    assert np.flatnonzero(policy == INJECT).tolist() == floor
    assert (policy[0] == RUIN) == (problem != "injection")


@pytest.mark.parametrize("problem, overrides", [
    ("ruin", {}),
    ("solvency", dict(alpha1=1.2)),  # the free optimum beta0* in charge
    ("solvency", dict(alpha1=5.0)),  # the floor binds: beta1* = alpha1
    ("injection", dict(kappa=1.05)),
], ids=["ruin", "solvency-alpha1=1.2", "solvency-alpha1=5", "injection"])
def test_oracle_pays_at_the_closed_form_barrier_on_p1(problem, overrides):
    assert_pays_at_the_barrier(make_params(**overrides), problem)


def test_oracle_pays_at_the_closed_form_barriers_on_random_sets():
    # Injection at halfway to kappa*, where injecting at the floor beats ruin.
    rng = np.random.default_rng(19)
    for _ in range(10):
        p = random_params(rng)
        assert_pays_at_the_barrier(p, "ruin")
        assert_pays_at_the_barrier(replace(p, alpha1=p.alpha0 * rng.uniform(1.05, 3.0)), "solvency")
        kappa = 0.5 * (1.0 + breakeven_kappa(p, kappa_cap=10.0))
        assert_pays_at_the_barrier(replace(p, kappa=kappa), "injection")


@pytest.mark.parametrize("problem, overrides, lowest_order", [
    ("ruin", {}, 1.5),  # the barrier's place on the grid makes the error uneven
    ("injection", dict(kappa=1.05), 1.8),  # the ghost node keeps the floor row second order
], ids=["ruin", "injection"])
def test_oracle_value_converges_to_the_closed_form(problem, overrides, lowest_order):
    p = make_params(**overrides)
    errors = []
    for n in (200, 400, 800):
        r, v, _, _, fn, _ = solve(p, problem, n)
        errors.append(float(np.max(np.abs(v - fn.evaluate(r, 1.0)))))
    assert errors[0] > errors[1] > errors[2]
    assert math.log2(errors[0] / errors[2]) / 2.0 >= lowest_order


def test_an_oracle_with_sigma_a_off_by_ten_percent_misses_beta0():
    # The negative control: the oracle resolves the barrier finely enough to tell.
    p = make_params()
    n = 4 * N
    r, _, policy, beta, _, h = solve(p, "ruin", n)
    assert abs(math.log(oracle_barrier(r, policy) / beta)) <= 2.0 * h
    r, _, policy = hjb_oracle(replace(p, sigma_A=1.1 * p.sigma_A), 4.0 * beta, n)
    assert abs(math.log(oracle_barrier(r, policy) / beta)) >= 10.0 * h
