"""Shared fixtures and independent numerical oracles for the test suite.

The oracles deliberately avoid the closed-form solutions under test: barriers
are located by golden-section search (with a derivative-sign polish, since a
derivative-free argmax is limited to ~sqrt(eps) relative accuracy on a flat
maximum), and band coefficients come from solving the slope conditions as a
plain 2x2 linear system.
"""

from __future__ import annotations

import math

import numpy as np

from fundiv import ModelParams, exponents, from_mapping, validate

# Baseline parameter set used throughout: moderate volatility, zero
# correlation, 3% drift gap, 6% discounting, ruin at funding ratio 1.
P1 = dict(
    mu_A=0.05,
    mu_L=0.02,
    sigma_A=0.3,
    sigma_L=0.1,
    rho=0.0,
    delta=0.06,
    alpha0=1.0,
)

# Low-volatility variant (sigma_tilde^2 = 0.008 <= delta - mu_A = 0.01).
# The kappa -> 1 limit of the injection barrier behaves like
# beta2* - alpha0 ~ alpha0 * sqrt((kappa-1) * sigma_tilde^2 / (delta - mu_A)),
# so the 1e-3 * alpha0 bound at kappa = 1 + 1e-6 needs sigma_tilde^2 at or
# below delta - mu_A; P1's sigma_tilde^2 = 0.1 gives ~3.2e-3 instead.
LOWVOL = dict(
    mu_A=0.05,
    mu_L=0.02,
    sigma_A=0.08,
    sigma_L=0.04,
    rho=0.0,
    delta=0.06,
    alpha0=1.0,
)

# Overrides of P1 that pass validation but whose characteristic roots leave
# float precision, so exponents raises NumericalError: zeta2 rounds to 1
# (sigma_A or sigma_L 1e8, sigma_A 1e77), a root overflows (mu_L -1e300,
# sigma_A 1e78), sigma~^2 is 0 or inf (rho next to 1 at equal sigmas,
# sigma_A 1e155), half of sigma~^2 underflows to 0 (sigma_A 2.3e-162) and
# the linear coefficient and the discriminant both underflow to 0.
DEGENERATE_ROOTS = [
    dict(sigma_A=1e8),
    dict(sigma_L=1e8),
    dict(sigma_A=1e77),
    dict(mu_L=-1e300),
    dict(sigma_A=1e78),
    dict(sigma_A=1.478497532159144, sigma_L=1.478497532159144, rho=0.9999999999999999),
    dict(sigma_A=1e155),
    dict(sigma_A=2.3e-162, sigma_L=1e-170),
    dict(mu_A=5e-201, mu_L=0.0, sigma_A=1e-100, sigma_L=1e-170, delta=1e-200),
]


def make_params(base=P1, **overrides) -> ModelParams:
    return validate(from_mapping({**base, **overrides}))


def random_params(rng: np.random.Generator, with_kappa: bool = False) -> ModelParams:
    """A random parameter set satisfying every validity constraint."""
    sigma_a = rng.uniform(0.05, 0.6)
    sigma_l = rng.uniform(0.02, 0.5)
    rho = rng.uniform(-0.95, 0.95)
    mu_l = rng.uniform(-0.02, 0.04)
    mu_a = mu_l + rng.uniform(0.005, 0.06)
    delta = max(mu_a, 0.0) + rng.uniform(0.002, 0.05)
    alpha0 = rng.uniform(0.3, 2.5)
    raw = dict(
        mu_A=mu_a,
        mu_L=mu_l,
        sigma_A=sigma_a,
        sigma_L=sigma_l,
        rho=rho,
        delta=delta,
        alpha0=alpha0,
    )
    if with_kappa:
        raw["kappa"] = 1.0 + rng.uniform(0.01, 1.5)
    return validate(from_mapping(raw))


def golden_argmax_denominator(p: ModelParams) -> float:
    """Independent oracle for the optimal unconstrained barrier.

    The barrier value is proportional to 1/|D(beta)| with
    D(beta) = zeta1*w^(zeta1-1) - zeta2*w^(zeta2-1), w = beta/alpha0, D < 0,
    so the optimum maximizes D.  Golden-section search narrows the bracket,
    then bisection on the sign of D' polishes the argmax to machine
    precision (D itself is flat to rounding within ~sqrt(eps) of the max).
    """
    e = exponents(p)
    z1, z2, a0 = e.zeta1, e.zeta2, p.alpha0

    def dee(beta: float) -> float:
        w = beta / a0
        return z1 * w ** (z1 - 1.0) - z2 * w ** (z2 - 1.0)

    def dee_prime(beta: float) -> float:
        w = beta / a0
        return (z1 * (z1 - 1.0) * w ** (z1 - 2.0) - z2 * (z2 - 1.0) * w ** (z2 - 2.0)) / a0

    lo = a0 * (1.0 + 1e-12)
    hi = 2.0 * a0
    while dee_prime(hi) > 0.0:
        hi *= 2.0
        if hi > 2.0**60 * a0:
            raise RuntimeError("failed to bracket the denominator maximum")

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    while b - a > 1e-6 * b:
        if dee(c) > dee(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)

    # Polish: D'(alpha0+) > 0 and D'(hi) < 0 always hold, so widening the
    # golden bracket a little (clipped to [lo, hi]) gives a sign bracket.
    width = b - a
    a = max(lo, a - 5.0 * width)
    b = min(hi, b + 5.0 * width)
    while b - a > 1e-14 * b:
        mid = 0.5 * (a + b)
        if dee_prime(mid) > 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def solve_band_coefficients(beta: float, gamma: float, p: ModelParams) -> tuple[float, float]:
    """Independent oracle for the two-sided band coefficients.

    Solves the slope conditions v'(beta) = 1, v'(gamma) = kappa for
    v(r) = C1*r^zeta1 + C2*r^zeta2 as a literal 2x2 linear system.
    """
    e = exponents(p)
    z1, z2 = e.zeta1, e.zeta2
    lhs = np.array(
        [
            [z1 * beta ** (z1 - 1.0), z2 * beta ** (z2 - 1.0)],
            [z1 * gamma ** (z1 - 1.0), z2 * gamma ** (z2 - 1.0)],
        ]
    )
    rhs = np.array([1.0, p.kappa])
    c1, c2 = np.linalg.solve(lhs, rhs)
    return float(c1), float(c2)


def psi_four_powers(beta: float, gamma: float, p: ModelParams) -> tuple[float, float]:
    """Reference for the payout-barrier score as four powers of beta and gamma.

    Returns the score

        zeta1 (kappa (zeta1 - zeta2) gamma^(1-zeta2) beta^zeta1
               + (zeta2 - 1) gamma^(zeta1-zeta2) beta + (1 - zeta1) beta^(1+zeta1-zeta2)),

    which is psi times the positive factor zeta1 (zeta1 - zeta2)
    gamma^(1+zeta1-zeta2) t^zeta1 with t = beta/gamma, and the sum of its
    terms' magnitudes.
    Raises ``OverflowError`` where a power leaves float range.
    """
    e = exponents(p)
    z1, z2 = e.zeta1, e.zeta2
    terms = (
        p.kappa * (z1 - z2) * gamma ** (1.0 - z2) * beta**z1,
        (z2 - 1.0) * gamma ** (z1 - z2) * beta,
        (1.0 - z1) * beta ** (1.0 + z1 - z2),
    )
    return z1 * sum(terms), abs(z1) * sum(abs(term) for term in terms)
