"""Exponents, barrier value function, and optimal barrier of the payout-only
problem, checked against independent oracles and structural identities."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fundiv import (
    ClosedFormValue,
    DomainError,
    Exponents,
    NumericalError,
    closed_form_value,
    constrained_barrier_beta1,
    double_barrier_value,
    exponents,
    optimal_barrier_beta0,
    optimal_barrier_beta2,
    value_unconstrained,
)
from helpers import (
    DEGENERATE_ROOTS,
    P1,
    golden_argmax_denominator,
    make_params,
    random_params,
)

# Frozen values for the baseline set, cross-checked against the oracles below.
P1_ZETA1 = -0.7165151389911679
P1_ZETA2 = 1.1165151389911678
P1_BETA0 = 3.406023481382157
P1_VALUE_AT_BARRIER = 2.554517611036619


def test_exponents_baseline():
    e = exponents(make_params())
    assert e.sigma_tilde_sq == pytest.approx(0.10, abs=1e-15)
    assert e.zeta1 == pytest.approx(P1_ZETA1, rel=1e-14)
    assert e.zeta2 == pytest.approx(P1_ZETA2, rel=1e-14)


def test_exponents_bracket_zero_and_one():
    rng = np.random.default_rng(7)
    for _ in range(200):
        e = exponents(random_params(rng))
        assert e.zeta1 < 0.0 < 1.0 < e.zeta2


@settings(max_examples=200, deadline=None)
@given(
    sigma_a=st.floats(0.05, 0.6),
    sigma_l=st.floats(0.02, 0.5),
    rho=st.floats(-0.95, 0.95),
    mu_l=st.floats(-0.02, 0.04),
    gap=st.floats(0.005, 0.06),
    spread=st.floats(0.002, 0.05),
    alpha0=st.floats(0.3, 2.5),
)
def test_exponents_satisfy_characteristic_quadratic(
    sigma_a, sigma_l, rho, mu_l, gap, spread, alpha0
):
    p = make_params(
        mu_A=mu_l + gap,
        mu_L=mu_l,
        sigma_A=sigma_a,
        sigma_L=sigma_l,
        rho=rho,
        delta=max(mu_l + gap, 0.0) + spread,
        alpha0=alpha0,
    )
    e = exponents(p)
    a = 0.5 * e.sigma_tilde_sq
    b = p.mu_A - p.mu_L - 0.5 * e.sigma_tilde_sq
    c = p.mu_L - p.delta
    for z in (e.zeta1, e.zeta2):
        residual = a * z * z + b * z + c
        scale = abs(a * z * z) + abs(b * z) + abs(c)
        assert abs(residual) <= 1e-12 * scale
    # sum/product of roots
    assert e.zeta1 + e.zeta2 == pytest.approx(1.0 + 2.0 * (p.mu_L - p.mu_A) / e.sigma_tilde_sq,
                                              rel=1e-12)
    assert e.zeta1 * e.zeta2 == pytest.approx(2.0 * (p.mu_L - p.delta) / e.sigma_tilde_sq,
                                              rel=1e-12)


def test_exponents_contract():
    e = exponents(make_params())
    assert Exponents._fields == ("sigma_tilde_sq", "zeta1", "zeta2")
    assert (e.sigma_tilde_sq, e.zeta1, e.zeta2) == (0.1, P1_ZETA1, P1_ZETA2)
    assert repr(e) == (
        "Exponents(sigma_tilde_sq=0.1, zeta1=-0.7165151389911679, zeta2=1.1165151389911678)"
    )
    with pytest.raises(AttributeError):
        e.zeta1 = 0.0
    again = exponents(make_params())
    assert again == e and hash(again) == hash(e)
    assert Exponents(0.1, P1_ZETA1, P1_ZETA2) == e
    assert list(e._asdict().items()) == [
        ("sigma_tilde_sq", 0.1), ("zeta1", P1_ZETA1), ("zeta2", P1_ZETA2)
    ]


def test_closed_form_value_repr():
    cf = closed_form_value(2.0, make_params())
    assert isinstance(cf, ClosedFormValue)
    assert repr(cf) == (
        "ClosedFormValue(beta=2.0, gamma=1.0, alpha0=1.0, kappa=None, "
        "exponents=Exponents(sigma_tilde_sq=0.1, zeta1=-0.7165151389911679, "
        "zeta2=1.1165151389911678), A=-0.700058606223302, B=0.700058606223302)"
    )


@pytest.mark.parametrize("overrides", DEGENERATE_ROOTS, ids=str)
def test_degenerate_roots_raise_numerical_error(overrides):
    with pytest.raises(NumericalError):
        exponents(make_params(**overrides))


def test_value_zero_at_ruin_ray():
    cf = closed_form_value(P1_BETA0, make_params())
    assert cf.evaluate(1.0, 1.0) == 0.0
    assert cf.evaluate(2.5, 2.5) == 0.0  # ratio alpha0 at another scale


def test_value_below_ruin_level_rejected():
    cf = closed_form_value(P1_BETA0, make_params())
    with pytest.raises(DomainError):
        cf.evaluate(0.5, 1.0)
    with pytest.raises(DomainError):
        closed_form_value(0.7, make_params())  # barrier below alpha0


def test_overflowing_band_weight_names_the_barrier():
    # zeta2 = 3.30 at delta = 0.5, so (1e300)^(zeta2 - 1) is beyond float range.
    with pytest.raises(NumericalError, match=r"beta = 1e\+300"):
        closed_form_value(1e300, make_params(delta=0.5))


def test_slope_one_at_any_barrier():
    # The pasting condition dv/dx1 = 1 at the barrier holds for every level,
    # optimal or not.
    p = make_params()
    for beta in (1.5, P1_BETA0, 6.0):
        cf = closed_form_value(beta, p)
        d1_below = cf.partials(beta * (1 - 1e-12), 1.0)[0]
        d1_above = cf.partials(beta * (1 + 1e-12), 1.0)[0]
        assert d1_below == pytest.approx(1.0, abs=1e-9)
        assert d1_above == 1.0


def test_linear_above_barrier():
    p = make_params()
    cf = closed_form_value(2.0, p)
    v2 = cf.evaluate(2.0, 1.0)
    assert cf.evaluate(3.5, 1.0) == pytest.approx(1.5 + v2, rel=1e-14)
    assert cf.evaluate(10.0, 1.0) == pytest.approx(8.0 + v2, rel=1e-14)


@settings(max_examples=100, deadline=None)
@given(scale=st.floats(0.01, 100.0), ratio=st.floats(1.0, 12.0))
def test_homogeneity_degree_one(scale, ratio):
    p = make_params()
    v1 = value_unconstrained(ratio, 1.0, P1_BETA0, p)
    v2 = value_unconstrained(scale * ratio, scale, P1_BETA0, p)
    assert v2 == pytest.approx(scale * v1, rel=1e-12, abs=1e-12)


def value_case(name):
    """The ruin-stopped value at beta0*, or the injection value at gamma = alpha0 or 1.3."""
    if name == "ruin-stopped":
        return closed_form_value(P1_BETA0, make_params())
    pk = make_params(kappa=1.05)
    if name == "injection":
        return double_barrier_value(optimal_barrier_beta2(pk), pk.alpha0, pk)
    return double_barrier_value(2.5, 1.3, pk)


VALUE_CASES = ("ruin-stopped", "injection", "injection-interior-gamma")


def test_partials_satisfy_euler_identity():
    # Degree-1 homogeneity forces x1*V_x1 + x2*V_x2 = V.  The ratios cover
    # every branch: below gamma (interior gamma only), the band, above beta.
    for cf, r in itertools.product(map(value_case, VALUE_CASES), (1.01, 1.5, 2.7, 3.3, 4.0, 9.0)):
        x1, x2 = r * 1.7, 1.7
        d1, d2, d11, d22, d12 = cf.partials(x1, x2)
        v = cf.evaluate(x1, x2)
        assert x1 * d1 + x2 * d2 == pytest.approx(v, rel=1e-12, abs=1e-12)
        assert x1 * d11 + x2 * d12 == pytest.approx(0.0, abs=1e-12 * max(1.0, abs(d11) * x1))
        assert x1 * d12 + x2 * d22 == pytest.approx(0.0, abs=1e-12 * max(1.0, abs(d22) * x2))


def test_partials_match_finite_differences():
    h = 1e-6
    for cf, x1 in itertools.product(map(value_case, VALUE_CASES), (1.1, 2.0, 3.0, 5.0)):
        x2 = 1.0
        d1, d2 = cf.partials(x1, x2)[:2]
        fd1 = (cf.evaluate(x1 + h, x2) - cf.evaluate(x1 - h, x2)) / (2 * h)
        fd2 = (cf.evaluate(x1, x2 + h) - cf.evaluate(x1, x2 - h)) / (2 * h)
        assert d1 == pytest.approx(fd1, rel=1e-8)
        assert d2 == pytest.approx(fd2, rel=1e-8)


@pytest.mark.parametrize("name", VALUE_CASES)
def test_array_calls_match_scalar_calls(name):
    # Ratios on every branch and on both rays: below gamma (interior gamma
    # only), gamma, the band, beta, above beta; x2 broadcast against x1.
    cf = value_case(name)
    ratios = np.array([1.1, cf.gamma, 1.5, 2.0, cf.beta, 1.2 * cf.beta, 9.0])
    ratios = ratios[ratios >= cf.alpha0]
    x2 = np.array([[0.5], [1.0], [3.7]])
    x1 = ratios * x2
    values = cf.evaluate(x1, x2)
    parts = cf.partials(x1, x2)
    assert values.shape == x1.shape
    assert all(d.shape == x1.shape for d in parts)
    for (i, j), v in np.ndenumerate(values):
        scalar_value = cf.evaluate(float(x1[i, j]), float(x2[i, 0]))
        scalar_parts = cf.partials(float(x1[i, j]), float(x2[i, 0]))
        assert type(scalar_value) is float
        assert all(type(d) is float for d in scalar_parts)
        assert v == scalar_value
        assert tuple(d[i, j] for d in parts) == scalar_parts


def test_array_with_an_entry_below_alpha0_rejected():
    cf = value_case("injection-interior-gamma")
    with pytest.raises(DomainError, match="0.9"):
        cf.evaluate(np.array([2.0, 0.9, 1.5]), 1.0)
    with pytest.raises(DomainError, match="0.9"):
        cf.partials(np.array([2.0, 0.9, 1.5]), 1.0)
    with pytest.raises(DomainError, match="x2"):
        cf.evaluate(2.0, np.array([1.0, -1.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x1, x2", [(math.nan, 1.0), (math.inf, math.inf)])
def test_nan_ratio_rejected(x1, x2):
    cf = closed_form_value(P1_BETA0, make_params())
    for method in (cf.evaluate, cf.partials):
        with pytest.raises(DomainError, match="^x1/x2 = nan "):
            method(x1, x2)
        with pytest.raises(DomainError, match="^x1/x2 = nan "):
            method(np.array([2.0, x1, 0.5]), np.array([1.0, x2, 1.0]))
        with pytest.raises(DomainError, match="^x1/x2 = 0.5 "):
            method(np.array([2.0, 0.5, x1]), np.array([1.0, 1.0, x2]))


@pytest.mark.filterwarnings("error")
def test_ratio_past_float_range_is_quiet():
    # x1/x2 overflows to inf: above the barrier, so the value is x1 and the slopes are linear.
    cf = closed_form_value(P1_BETA0, make_params())
    assert cf.evaluate(1e300, 1e-300) == 1e300
    assert repr(cf.partials(1e300, 1e-300)) == "(1.0, -0.8515058703455378, 0.0, 0.0, -0.0)"


def test_both_problems_share_one_value_class():
    assert type(value_case("ruin-stopped")) is type(value_case("injection"))


def test_value_increasing_in_ratio():
    p = make_params()
    grid = np.linspace(1.0, 8.0, 200)
    vals = [value_unconstrained(r, 1.0, P1_BETA0, p) for r in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_optimal_barrier_baseline_frozen():
    assert optimal_barrier_beta0(make_params()) == pytest.approx(P1_BETA0, rel=1e-14)


def test_optimal_barrier_matches_golden_section_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = random_params(rng)
        assert optimal_barrier_beta0(p) == pytest.approx(
            golden_argmax_denominator(p), rel=1e-10
        )


def test_optimal_barrier_dominates_neighbours():
    p = make_params()
    b0 = optimal_barrier_beta0(p)
    v_opt = value_unconstrained(1.4, 1.0, b0, p)
    for beta in (0.8 * b0, 0.95 * b0, 1.05 * b0, 1.3 * b0):
        assert value_unconstrained(1.4, 1.0, beta, p) < v_opt


def test_value_at_barrier_identity():
    # At the optimal level the at-barrier value collapses to
    # beta0 * x2 * (mu_A - mu_L)/(delta - mu_L).
    p = make_params()
    b0 = optimal_barrier_beta0(p)
    cf = closed_form_value(b0, p)
    expected = b0 * (p.mu_A - p.mu_L) / (p.delta - p.mu_L)
    assert cf.value_at_barrier() == pytest.approx(expected, rel=1e-12)
    assert cf.value_at_barrier() == pytest.approx(P1_VALUE_AT_BARRIER, rel=1e-14)


def test_value_at_barrier_rejects_x2_as_evaluate_does():
    cf = closed_form_value(P1_BETA0, make_params())
    for x2 in (-1.0, 0.0, math.nan):
        msg = f"x2 = {x2!r} must be positive"
        with pytest.raises(DomainError, match=f"^{msg}$"):
            cf.evaluate(P1_BETA0 * abs(x2), x2)
        with pytest.raises(DomainError, match=f"^{msg}$"):
            cf.value_at_barrier(x2)
    for x2 in (1.0, 3.7):
        assert cf.value_at_barrier(x2) == x2 * cf.evaluate(cf.beta, 1.0)


def test_constrained_barrier_two_regimes():
    loose = make_params(alpha1=1.2)
    binding = make_params(alpha1=5.0)
    assert constrained_barrier_beta1(loose) == pytest.approx(P1_BETA0, rel=1e-14)
    assert constrained_barrier_beta1(binding) == 5.0
    # constrained value never exceeds the unconstrained optimum
    v_u = value_unconstrained(2.0, 1.0, P1_BETA0, binding)
    assert value_unconstrained(2.0, 1.0, constrained_barrier_beta1(binding), binding) < v_u


def test_constrained_value_requires_alpha1():
    from fundiv import MissingParameter

    with pytest.raises(MissingParameter):
        constrained_barrier_beta1(make_params())
