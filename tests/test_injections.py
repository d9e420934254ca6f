"""Two-sided (injection + payout) value function: coefficients, seam
conditions, the Psi root, cost recovery, and the break-even cost."""

import math
import re
import signal
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fundiv import (
    ClosedFormValue,
    DomainError,
    NoBreakeven,
    NumericalError,
    breakeven_kappa,
    check_injection_lemma,
    closed_form_value,
    double_barrier_value,
    injections,
    kappa_from_barrier,
    optimal_barrier_beta0,
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
    # The name predates band weights built from powers no larger than one, which
    # cannot overflow: at 1e200 they are finite.
    p = make_params(kappa=1.05)
    fn = double_barrier_value(1e200, 1.0, p)
    assert math.isfinite(fn.A) and math.isfinite(fn.B)
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


def returns_in_time(fn, *args):
    """fn(*args), failing with TimeoutError if it has not returned within 5 s."""

    def hang(*_):
        raise TimeoutError(f"{fn.__name__} did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_beta2_returns_where_float_spacing_exceeds_tolerance():
    p = make_params(base=WIDE_SPACING)
    b2 = returns_in_time(optimal_barrier_beta2, p)
    assert math.ulp(b2) > 1e-12 * p.alpha0
    assert kappa_from_barrier(b2, p.alpha0, p) == pytest.approx(p.kappa, rel=1e-9)


@pytest.mark.parametrize("overrides, msg", [
    # beta2* = 1.81 alpha0 at kappa = 1.05 lies beyond the largest float.
    (dict(alpha0=1e308, kappa=1.05),
     "psi is still positive at the largest float, beta = 1.7976931348623157e+308"),
    # beta2* ~ 1.16e308 at kappa = 5, where lo + hi would overflow.
    (dict(alpha0=1e307, kappa=5.0), None),
    # beta2* ~ 1.28e308, where the float spacing exceeds the 1e-12 alpha0 tolerance.
    (dict(base=WIDE_SPACING, alpha0=3.8e303), None),
], ids=["bracket-end", "midpoint", "wide-spacing"])
def test_beta2_beyond_float_range_raises(overrides, msg):
    # The name predates the bracket that stops at the largest float: a root
    # below it is returned (msg None), and only one beyond it raises.
    p = make_params(**overrides)
    if msg is None:
        b2 = returns_in_time(optimal_barrier_beta2, p)
        assert 1e308 < b2 < math.inf
        assert kappa_from_barrier(b2, p.alpha0, p) == pytest.approx(p.kappa, rel=1e-12)
        return
    with pytest.raises(NumericalError, match=f"^{re.escape(msg)}$") as details:
        returns_in_time(optimal_barrier_beta2, p)
    assert type(details.value) is NumericalError


def test_beta2_at_a_huge_kappa_returns():
    # beta2* ~ 9.0e58 alpha0 > 2**60 alpha0: the bracket doubles until psi turns.
    p = make_params(kappa=1e100)
    b2 = optimal_barrier_beta2(p)
    assert kappa_from_barrier(b2, p.alpha0, p) == pytest.approx(1e100, rel=1e-9)


def test_beta2_increasing_in_kappa():
    p = kparams()
    kappas = np.linspace(1.01, 3.0, 25)
    barriers = [optimal_barrier_beta2(replace(p, kappa=float(k))) for k in kappas]
    assert all(b > a for a, b in zip(barriers, barriers[1:]))


def test_injection_value_exceeds_payout_only_value_inside_band():
    # For moderate costs the option to inject is worth something.
    p = kparams()
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


def test_floor_value_is_bit_identical_to_the_value_on_the_injection_ray():
    rng = np.random.default_rng(2024)
    kappas = [injections.KAPPA_LO, 1.01, 1.3, 2.0, 10.0]
    for p in [make_params()] + [random_params(rng, with_kappa=True) for _ in range(30)]:
        for kappa in kappas:
            pk = replace(p, kappa=kappa)
            on_ray = value_injections(p.alpha0, 1.0, optimal_barrier_beta2(pk), p.alpha0, pk)
            assert _value_at_floor(p, kappa).hex() == on_ray.hex()


def test_breakeven_kappa_reads_no_scalar_evaluate(monkeypatch):
    def refuse(self, x1, x2):
        raise AssertionError("the kappa* search evaluated a value function")

    monkeypatch.setattr(ClosedFormValue, "evaluate", refuse)
    assert breakeven_kappa(make_params()) == P1_KAPPA_STAR


def reference_breakeven(value, p, kappa_cap=1e3):
    """kappa* by bisection over the whole [KAPPA_LO, kappa_cap], solving every
    midpoint; returns kappa* and the midpoints in the order solved."""
    lo, hi = injections.KAPPA_LO, kappa_cap
    mids = []
    while hi - lo > 1e-10 * lo:
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        if value(p, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), mids


def record_floor_solves(monkeypatch, value):
    """Route breakeven_kappa's floor values through ``value``, recording (kappa, value)."""
    solves = []

    def recorded(p, kappa):
        solves.append((kappa, value(p, kappa)))
        return solves[-1][1]

    monkeypatch.setattr(injections, "_value_at_floor", recorded)
    return solves


def sample_bounds(sample):
    """(a, b): the largest sample kappa at and below which every value is
    positive, and the smallest at and above which none is."""
    a = max(k for k, _ in sample if all(v > 0.0 for k2, v in sample if k2 <= k))
    b = min(k for k, _ in sample if not any(v > 0.0 for k2, v in sample if k2 >= k))
    return a, b


def test_breakeven_kappa_is_bit_identical_to_the_full_bisection():
    rng = np.random.default_rng(2025)
    for p in [make_params()] + [random_params(rng, with_kappa=True) for _ in range(30)]:
        for cap in (1e3, 10.0):
            reference, _ = reference_breakeven(_value_at_floor, p, cap)
            assert breakeven_kappa(p, kappa_cap=cap).hex() == reference.hex()


def test_breakeven_kappa_solves_only_between_the_sample_bounds(monkeypatch):
    # A deterministic work count: it repeats exactly, unlike a timing.
    p = make_params()
    _, mids = reference_breakeven(_value_at_floor, p)
    solves = record_floor_solves(monkeypatch, _value_at_floor)
    assert breakeven_kappa(p) == P1_KAPPA_STAR
    lo_off, hi_off = math.log(injections.KAPPA_LO - 1.0), math.log(1e3 - 1.0)
    inner = [1.0 + math.exp(lo_off + (hi_off - lo_off) * i / 7.0) for i in range(1, 7)]
    assert [k for k, _ in solves[:8]] == [injections.KAPPA_LO, 1e3, *inner]
    a, b = sample_bounds(sorted(solves[:8]))
    assert [k for k, _ in solves[8:]] == [m for m in mids if a < m < b]
    assert (len(solves), 8 + len(mids)) == (41, 51)


def test_breakeven_kappa_solves_every_midpoint_where_the_sample_wobbles(monkeypatch):
    # Within the 1e-12 slack the sample reads a tiny negative value at 1.0193 and
    # a tiny positive one at 1.7192; the full bisection ends at the sign change at 1.01.
    def wobbly(p, kappa):
        if kappa < 1.01 or 1.6 <= kappa < 1.75:
            return 1e-13
        return -1e-13 if kappa < 1.6 else -(kappa - 1.75) - 1e-13

    p = make_params()
    reference, mids = reference_breakeven(wobbly, p)
    solves = record_floor_solves(monkeypatch, wobbly)
    assert breakeven_kappa(p).hex() == reference.hex()
    assert reference == pytest.approx(1.01, rel=1e-9)
    sample = sorted(solves[:8])
    assert [v > 0.0 for _, v in sample] == [True] * 4 + [False, True, False, False]
    a, b = sample_bounds(sample)
    assert (a, b) == (sample[3][0], sample[6][0])
    assert [k for k, _ in solves[8:]] == [m for m in mids if a < m < b]


def test_breakeven_kappa_rises_when_asset_risk_falls():
    lower_risk = make_params(sigma_A=0.25)
    assert breakeven_kappa(lower_risk) == pytest.approx(KAPPA_STAR_SIGMA_A_025, rel=1e-8)
    assert breakeven_kappa(lower_risk) > breakeven_kappa(make_params())


@pytest.mark.parametrize("overrides", [
    *(dict(alpha0=a) for a in (sys.float_info.min, 1e-300, 1e-5, 1.0, 1e300, 1e305, 1e307)),
    dict(alpha0=1e-5, alpha1=2e-5),
], ids=lambda o: ",".join(f"{k}={v!r}" for k, v in o.items()))
def test_breakeven_kappa_does_not_depend_on_alpha0(overrides):
    # kappa* is a function of the ratio beta2*/alpha0; a search at the caller's alpha0
    # overflows at 1e305.
    assert breakeven_kappa(make_params(**overrides)).hex() == P1_KAPPA_STAR.hex()


def test_breakeven_kappa_matches_its_closed_form():
    # Zero floor value and smooth fit together put beta2*(kappa*) at beta0*, so
    # kappa* = kappa(beta0*/alpha0); the search stops at 1e-10 relative.
    rng = np.random.default_rng(2026)
    for p in [make_params()] + [random_params(rng, with_kappa=True) for _ in range(30)]:
        ks = breakeven_kappa(p)
        beta0 = optimal_barrier_beta0(p)
        closed = injections._kappa_of_ratio(beta0 / p.alpha0, p)
        assert ks == pytest.approx(closed, rel=1e-9)
        assert optimal_barrier_beta2(replace(p, kappa=ks)) == pytest.approx(beta0, rel=1e-8)


def test_kappa_of_the_ruin_stopped_barrier_is_the_breakeven_cost():
    # kappa_c = kappa(beta0*/alpha0) without the kappa* search: it is the ruin-stopped
    # slope on the floor, the band optimal at kappa_c is [alpha0, beta0*] with a zero
    # floor value A + B, and the floor value changes sign there.
    def band(kappa):
        pk = replace(p, kappa=kappa)
        return double_barrier_value(optimal_barrier_beta2(pk), p.alpha0, pk)

    rng = np.random.default_rng(3001)
    for p in [make_params()] + [random_params(rng, with_kappa=True) for _ in range(30)]:
        beta0 = optimal_barrier_beta0(p)
        kc = injections._kappa_of_ratio(beta0 / p.alpha0, p)
        slope = closed_form_value(beta0, p).partials(p.alpha0, 1.0)[0]
        assert slope == pytest.approx(kc, rel=1e-14, abs=0.0)
        at_kc = band(kc)
        assert abs(at_kc.beta - beta0) <= 1e-12 * p.alpha0
        assert abs(at_kc.A + at_kc.B) <= 1e-12 * p.alpha0
        below, above = (band(1.0 + (kc - 1.0) * (1.0 + f)) for f in (-1e-6, 1e-6))
        assert below.A + below.B > 0.0 > above.A + above.B


def test_injection_band_below_breakeven_is_worth_at_least_the_ruin_stopped_value():
    # Below kappa*, running beta0* until ruin and the band after it is a feasible
    # injection policy, so the optimal band is worth at least the ruin-stopped value.
    rng = np.random.default_rng(7)
    for p in [make_params()] + [random_params(rng, with_kappa=True) for _ in range(40)]:
        ks = breakeven_kappa(p)
        beta0 = optimal_barrier_beta0(p)
        for f in (0.5, 0.9, 0.99):
            pk = replace(p, kappa=1.0 + f * (ks - 1.0))
            beta2 = optimal_barrier_beta2(pk)
            grid = np.geomspace(p.alpha0, 3.0 * max(beta0, beta2), 512)
            ruin_stopped = closed_form_value(beta0, p).evaluate(grid, 1.0)
            band = double_barrier_value(beta2, p.alpha0, pk).evaluate(grid, 1.0)
            slack = 1e-12 * np.max(np.abs(ruin_stopped))
            assert np.all(band >= ruin_stopped - slack), (p, f)


def test_breakeven_no_root_below_cap_raises():
    p = make_params()
    with pytest.raises(NoBreakeven):
        breakeven_kappa(p, kappa_cap=1.2)  # kappa* ~ 1.33 lies above this cap


@pytest.mark.parametrize("cap", [math.nan, math.inf, 1.0, injections.KAPPA_LO, 0.5])
def test_breakeven_kappa_rejects_a_cap_naming_it(cap):
    msg = f"kappa_cap = {cap!r} must be finite and above {injections.KAPPA_LO!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(msg)}$"):
        breakeven_kappa(make_params(), kappa_cap=cap)


@pytest.mark.parametrize("kappa_of_ratio, msg", [
    (lambda t, p: p.kappa,
     "psi(1.000000000001) = 0.0 is not positive; no root bracket just above alpha0"),
    (lambda t, p: 1.0,
     "psi is still positive at the largest float, beta = 1.7976931348623157e+308"),
], ids=["no-positive-score-above-alpha0", "no-sign-change-before-the-bracket-overflows"])
def test_beta2_bracket_failures(monkeypatch, kappa_of_ratio, msg):
    monkeypatch.setattr(injections, "_kappa_of_ratio", kappa_of_ratio)
    with pytest.raises(NumericalError, match=f"^{re.escape(msg)}$") as details:
        optimal_barrier_beta2(make_params(kappa=1.05))
    assert type(details.value) is NumericalError


def test_breakeven_kappa_rejects_a_floor_value_that_rises(monkeypatch):
    # Positive at KAPPA_LO and negative at the cap, so only the sample check can object:
    # the value steps up between the sample points 1.0193 and 1.7192.
    def rising(p, kappa):
        return 1.0 if kappa < 1.5 else 2.0 if kappa < 100.0 else -1.0

    monkeypatch.setattr(injections, "_value_at_floor", rising)
    msg = "floor value rose from 1.0 at kappa=1.0192959423148769 to 2.0 at kappa=1.7191715370885636"
    with pytest.raises(NumericalError, match=f"^{re.escape(msg)}$") as details:
        breakeven_kappa(make_params())
    assert type(details.value) is NumericalError


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


@pytest.mark.parametrize("beta", [math.inf, 1e300, 1e200])
def test_double_barrier_weights_that_are_not_finite_raise(beta):
    # The name predates band weights built from powers no larger than one: at a
    # barrier that never pays they are finite, and at beta = inf the payout term
    # vanishes, so V = kappa gamma / zeta1 u^zeta1 x2.
    p = kparams()
    fn = double_barrier_value(beta, 1.0, p)
    assert math.isfinite(fn.A) and math.isfinite(fn.B)
    if beta == math.inf:
        assert fn.B == 0.0
    z1 = fn.exponents.zeta1
    never_pay = p.kappa / z1 * 2.0**z1
    assert value_injections(2.0, 1.0, beta, 1.0, p) == pytest.approx(never_pay, rel=1e-14)


def test_band_slopes_hold_on_wide_bands():
    # B = (kappa gamma - zeta1 A) / zeta2 cancelled every digit on wide bands: on
    # P1 at delta = 0.5 the payout-ray slope read 21339.67 at beta/gamma = 1e8.
    rng = np.random.default_rng(29)
    sets = [make_params(delta=0.5, kappa=1.05)]
    sets += [random_params(rng, with_kappa=True) for _ in range(30)]
    for p in sets:
        gamma = p.alpha0
        for t in (2.0, 1e4, 1e8, 1e12):
            fn = double_barrier_value(t * gamma, gamma, p)
            assert fn.partials(t * gamma, 1.0)[0] == pytest.approx(1.0, rel=1e-12), (p, t)
            assert fn.partials(gamma, 1.0)[0] == pytest.approx(p.kappa, rel=1e-12), (p, t)


def test_ruin_stopped_value_of_an_infinite_barrier_stays_zero():
    # A barrier that never pays: finite weights and the exact value zero.
    fn = closed_form_value(math.inf, make_params())
    assert math.isfinite(fn.A) and math.isfinite(fn.B)
    assert fn.evaluate(2.0, 1.0) == 0.0


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
