"""Two-sided (injection + payout) value function: coefficients, seam
conditions, the Psi root, cost recovery, and the break-even cost."""

import math
import signal
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fundiv import (
    DomainError,
    NoBreakeven,
    NumericalError,
    breakeven_kappa,
    check_injection_lemma,
    double_barrier_value,
    kappa_from_barrier,
    optimal_barrier_beta2,
    psi,
    value_injections,
    value_unconstrained,
)
from fundiv.injections import _value_at_floor
from helpers import P1, make_params, psi_four_powers, random_params, solve_band_coefficients

# Frozen values for the baseline set with kappa = 1.05.
P1_BETA2 = 1.8110002691689329
P1_KAPPA_STAR = 1.3328096070053026
KAPPA_STAR_SIGMA_A_025 = 1.4636444531827926

# A draw over the random_params ranges at kappa = 1e3 where beta2*/alpha0 is
# ~3.4e4, so the float spacing at the root exceeds the bisection tolerance
# 1e-12 alpha0.
WIDE_SPACING = dict(
    mu_A=0.024327338201298447,
    mu_L=0.0041935311076611685,
    sigma_A=0.4210642201960036,
    sigma_L=0.47161364019787533,
    rho=-0.5064380045951415,
    delta=0.028855806107720764,
    alpha0=1.668597355802255,
    kappa=1e3,
)


def kparams(**overrides):
    return make_params(kappa=1.05, **overrides)


def test_coefficients_match_linear_solve():
    rng = np.random.default_rng(23)
    for _ in range(50):
        p = random_params(rng, with_kappa=True)
        beta2 = optimal_barrier_beta2(p)
        for beta in (beta2, 1.7 * beta2):
            v = double_barrier_value(beta, p.alpha0, p)
            c1 = v.A * p.alpha0 ** -v.exponents.zeta1
            c2 = v.B * p.alpha0 ** -v.exponents.zeta2
            ref1, ref2 = solve_band_coefficients(beta, p.alpha0, p)
            assert c1 == pytest.approx(ref1, rel=1e-9)
            assert c2 == pytest.approx(ref2, rel=1e-9)


def test_seam_slopes():
    p = kparams()
    dv = double_barrier_value(P1_BETA2, p.alpha0, p)
    eps = 1e-12
    assert dv.partials(P1_BETA2 * (1 - eps), 1.0)[0] == pytest.approx(1.0, abs=1e-9)
    assert dv.partials(P1_BETA2 * (1 + eps), 1.0)[0] == 1.0
    assert dv.partials(p.alpha0 * (1 + eps), 1.0)[0] == pytest.approx(p.kappa, abs=1e-9)


def test_seam_slopes_interior_injection_ray():
    # with gamma above the ruin level, the region below gamma is in-domain
    # and the value is linear there with slope kappa
    p = kparams()
    gamma = 1.3
    dv = double_barrier_value(2.5, gamma, p)
    eps = 1e-12
    assert dv.partials(gamma * (1 + eps), 1.0)[0] == pytest.approx(p.kappa, abs=1e-9)
    assert dv.partials(gamma * (1 - eps), 1.0)[0] == p.kappa


def test_linear_extensions_beyond_band():
    p = kparams()
    dv = double_barrier_value(P1_BETA2, p.alpha0, p)
    v_top = dv.evaluate(P1_BETA2, 1.0)
    assert dv.evaluate(P1_BETA2 + 0.7, 1.0) == pytest.approx(v_top + 0.7, rel=1e-13)
    # below an interior injection ray, sliding down costs kappa per unit
    gamma = 1.3
    dvi = double_barrier_value(2.5, gamma, p)
    v_floor = dvi.evaluate(gamma, 1.0)
    assert dvi.evaluate(gamma - 0.2, 1.0) == pytest.approx(
        v_floor - p.kappa * 0.2, rel=1e-12
    )
    # the ruin ray itself stays in-domain
    assert math.isfinite(dvi.evaluate(p.alpha0, 1.0))


def test_states_below_ruin_level_rejected():
    p = kparams()
    dv = double_barrier_value(P1_BETA2, p.alpha0, p)
    with pytest.raises(DomainError):
        dv.evaluate(0.7, 1.0)


def test_homogeneity():
    p = kparams()
    for scale in (0.2, 3.0, 40.0):
        assert value_injections(1.4 * scale, scale, P1_BETA2, 1.0, p) == pytest.approx(
            scale * value_injections(1.4, 1.0, P1_BETA2, 1.0, p), rel=1e-12
        )


def test_injection_band_requires_valid_geometry():
    p = kparams()
    with pytest.raises(DomainError):
        double_barrier_value(P1_BETA2, 0.8, p)  # gamma below alpha0
    with pytest.raises(DomainError):
        double_barrier_value(1.0, 1.0, p)  # beta not above gamma
    with pytest.raises(DomainError, match="gamma = 0.8 must be >= alpha0"):
        psi(P1_BETA2, 0.8, p)
    with pytest.raises(DomainError, match="beta = 1.0 must be >= gamma = 1.1"):
        psi(1.0, 1.1, p)


def test_overflowing_band_weights_name_the_barrier():
    p = make_params(kappa=1.05)
    with pytest.raises(NumericalError, match=r"beta = 1e\+200, gamma = 1\.0"):
        double_barrier_value(1e200, 1.0, p)
    # kappa_from_barrier keeps the bare OverflowError, which callers catch to
    # tell a cost beyond float range from a failed computation.
    with pytest.raises(OverflowError):
        kappa_from_barrier(1e200, 1.0, p)


def test_psi_positive_at_floor_and_single_crossing():
    p = kparams()
    assert psi(p.alpha0, p.alpha0, p) > 0.0
    grid = np.geomspace(p.alpha0, 20.0 * P1_BETA2, 800)
    signs = np.sign([psi(b, p.alpha0, p) for b in grid])
    # strictly one sign change, positive then negative
    changes = np.nonzero(np.diff(signs))[0]
    assert len(changes) == 1
    assert signs[0] > 0 > signs[-1]


def test_psi_decreasing_in_beta():
    p = kparams()
    grid = np.geomspace(p.alpha0 * 1.0001, 10.0 * P1_BETA2, 400)
    vals = [psi(b, p.alpha0, p) for b in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_optimal_barrier_beta2_root_and_frozen_value():
    p = kparams()
    b2 = optimal_barrier_beta2(p)
    assert b2 == pytest.approx(P1_BETA2, rel=1e-12)
    assert abs(psi(b2, p.alpha0, p)) < 1e-8


def test_optimal_barrier_beta2_matches_value_maximization():
    # Independent oracle: the root of Psi maximizes the two-sided value at a
    # fixed interior point over the barrier level (coarse grid + golden
    # section; a derivative-free argmax saturates near sqrt(eps)*beta).
    p = kparams()
    grid = np.geomspace(p.alpha0 * 1.0001, 8.0, 2000)
    vals = [value_injections(1.2, 1.0, b, p.alpha0, p) for b in grid]
    i = int(np.argmax(vals))
    a, b = grid[i - 1], grid[i + 1]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    while b - a > 1e-12:
        if value_injections(1.2, 1.0, c, p.alpha0, p) > value_injections(1.2, 1.0, d, p.alpha0, p):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    assert optimal_barrier_beta2(p) == pytest.approx(0.5 * (a + b), rel=1e-6)


def test_kappa_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(50):
        p = random_params(rng, with_kappa=True)
        b2 = optimal_barrier_beta2(p)
        assert kappa_from_barrier(b2, p.alpha0, p) == pytest.approx(p.kappa, rel=1e-9)


def test_beta2_returns_where_float_spacing_exceeds_tolerance():
    p = make_params(base=WIDE_SPACING)

    def hang(*_):
        raise TimeoutError("optimal_barrier_beta2 did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        b2 = optimal_barrier_beta2(p)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert math.ulp(b2) > 1e-12 * p.alpha0
    assert kappa_from_barrier(b2, p.alpha0, p) == pytest.approx(p.kappa, rel=1e-9)


def test_beta2_increasing_in_kappa():
    p = kparams()
    kappas = np.linspace(1.01, 3.0, 25)
    barriers = [optimal_barrier_beta2(replace(p, kappa=float(k))) for k in kappas]
    assert all(b > a for a, b in zip(barriers, barriers[1:]))


def test_injection_value_exceeds_payout_only_value_inside_band():
    # For moderate costs the option to inject is worth something.
    p = kparams()
    from fundiv import optimal_barrier_beta0

    b0 = optimal_barrier_beta0(p)
    for r in (1.05, 1.3, 1.6):
        assert value_injections(r, 1.0, P1_BETA2, 1.0, p) > value_unconstrained(r, 1.0, b0, p)


def test_breakeven_kappa_frozen_and_sign_change():
    p = make_params()
    ks = breakeven_kappa(p)
    assert ks == pytest.approx(P1_KAPPA_STAR, rel=1e-8)
    # value at the injection ray changes sign across kappa*
    assert _value_at_floor(p, 0.95 * ks) > 0.0
    assert _value_at_floor(p, 1.05 * ks) < 0.0
    assert abs(_value_at_floor(p, ks)) < 1e-8


def test_breakeven_kappa_rises_when_asset_risk_falls():
    lower_risk = make_params(sigma_A=0.25)
    assert breakeven_kappa(lower_risk) == pytest.approx(KAPPA_STAR_SIGMA_A_025, rel=1e-8)
    assert breakeven_kappa(lower_risk) > breakeven_kappa(make_params())


def test_breakeven_no_root_below_cap_raises():
    p = make_params()
    with pytest.raises(NoBreakeven):
        breakeven_kappa(p, kappa_cap=1.2)  # kappa* ~ 1.33 lies above this cap


def test_psi_overflow_names_beta_and_gamma():
    # The name predates psi = kappa - kappa(t).  zeta1 ~ -1011 and alpha0 ~
    # 0.0036: beta**zeta1 leaves float range just above alpha0, kappa(t) does not.
    p = make_params(
        mu_A=0.44869723100587794, mu_L=0.4387518284798846, sigma_A=0.0012974440670251866,
        sigma_L=0.0038951674803763456, rho=-0.279192758402081, delta=0.44873372196967615,
        alpha0=0.003643519668279969, kappa=1.05,
    )
    near = psi(p.alpha0 * (1.0 + 1e-12), p.alpha0, p)
    assert math.isfinite(near) and near > 0.0
    assert psi(p.alpha0 * 1e10, p.alpha0, p) == -math.inf
    b2 = optimal_barrier_beta2(p)
    assert b2 / p.alpha0 == pytest.approx(1.00947, abs=1e-5)
    assert kappa_from_barrier(b2, p.alpha0, p) == pytest.approx(1.05, rel=1e-9)
    assert check_injection_lemma(p).passed


def test_infinite_barrier_costs_infinity():
    p = kparams()
    assert kappa_from_barrier(math.inf, p.alpha0, p) == math.inf
    assert psi(math.inf, p.alpha0, p) == -math.inf


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(1.0, 50.0))
def test_psi_sign_matches_the_four_power_score(seed, t):
    p = random_params(np.random.default_rng(seed), with_kappa=True)
    beta = t * p.alpha0
    try:
        reference, scale = psi_four_powers(beta, p.alpha0, p)
    except OverflowError:
        return
    if math.isfinite(reference) and abs(reference) > 1e-9 * scale:
        assert np.sign(psi(beta, p.alpha0, p)) == np.sign(reference)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_psi_decreases_into_the_overflow_region(seed):
    p = random_params(np.random.default_rng(seed), with_kappa=True)
    vals = [psi(b, p.alpha0, p) for b in p.alpha0 * np.geomspace(1.0, 1e305, 400)]
    first_inf = vals.index(-math.inf)  # raises if the grid never leaves float range
    assert all(v == -math.inf for v in vals[first_inf:])
    assert all(b < a for a, b in zip(vals[:first_inf], vals[1:first_inf]))
