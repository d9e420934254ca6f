"""Closed-form dividend values and optimal barriers for the ruin-stopped firm.

A barrier strategy with level ``beta`` pays out just enough to keep the
funding ratio r = x1/x2 at or below ``beta``; the firm is closed the first
time r reaches ``alpha0``.  Inside the continuation band the expected
discounted dividend stream V solves the generator equation (A - delta)V = 0
and, being homogeneous of degree one in (x1, x2), is a combination of the
power solutions

    x1^zeta * x2^(1 - zeta),

where zeta solves the characteristic quadratic

    (sigma~^2 / 2) zeta^2 + (mu_A - mu_L - sigma~^2 / 2) zeta + (mu_L - delta) = 0,
    sigma~^2 = sigma_A^2 + sigma_L^2 - 2 rho sigma_A sigma_L.

The quadratic has one negative root zeta1 and one root zeta2 > 1 whenever the
parameters validate; :func:`exponents` returns them, with sigma~^2, as an
immutable named tuple, and raises :class:`NumericalError` where the float roots
leave zeta1 < 0 < 1 < zeta2 < inf (a huge sigma~^2 rounds zeta2 to 1).
Pinning the value to zero at the ruin ray and its x1-slope to one at the
payout ray gives, with u = r / alpha0 and w = beta / alpha0 >= 1,

    V(x1, x2; beta) = x2 * A * (u^zeta1 - u^zeta2),
    A               = alpha0 w^(1-zeta2) / (zeta1 w^(zeta1-zeta2) - zeta2),

on the band (both powers at most one, so A cannot overflow), and the linear
continuation x1 - beta x2 + V(beta x2, x2; beta) above it: the case
gamma = alpha0, B = -A of :class:`ClosedFormValue`, which also holds the band
with forced injections.
The payout level maximising V turns the one-sided second derivative at the
barrier to zero (smooth fit) and is

    beta0* = alpha0 * (zeta1 (zeta1 - 1) / (zeta2 (zeta2 - 1)))^(1 / (zeta2 - zeta1)),

with base and exponent both positive.  A solvency floor alpha1 simply lifts
the barrier to beta1* = max(beta0*, alpha1).

All powers are evaluated in log space, exp(zeta * ln u), so extreme
exponents neither overflow nor lose the exact zero at u = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericalError
from .params import ModelParams, require_alpha1

__all__ = [
    "Exponents",
    "ClosedFormValue",
    "exponents",
    "closed_form_value",
    "value_unconstrained",
    "optimal_barrier_beta0",
    "constrained_barrier_beta1",
]


def _rpow(base: float, expo: float) -> float:
    """base**expo for base > 0, computed as exp(expo * log(base))."""
    return math.exp(expo * math.log(base))


class Exponents(NamedTuple):
    """Roots of the characteristic quadratic plus the combined variance."""

    sigma_tilde_sq: float
    zeta1: float
    zeta2: float


def exponents(p: ModelParams) -> Exponents:
    """Solve the characteristic quadratic; ``p`` holds the invariants since construction.

    Uses the cancellation-free quadratic formula (larger-magnitude root from
    the discriminant, the other from the product of roots) so that both roots
    carry full relative precision; the two roots straddle [0, 1] because the
    quadratic is negative at 0 and at 1.  Returns an immutable named tuple.

    Raises :class:`NumericalError` when the roots leave float precision: half
    of sigma~^2 is not a positive finite float, the linear coefficient and the
    discriminant both underflow to zero, or the float roots miss
    zeta1 < 0 < 1 < zeta2 < inf (a huge sigma~^2 rounds zeta2 to 1).
    """
    s2 = p.sigma_A * p.sigma_A + p.sigma_L * p.sigma_L - 2.0 * p.rho * p.sigma_A * p.sigma_L
    a = 0.5 * s2
    if not 0.0 < a < math.inf:
        raise NumericalError(f"sigma_tilde_sq = {s2!r}: half of it must be positive and finite")
    b = p.mu_A - p.mu_L - a
    c = p.mu_L - p.delta
    disc = b * b - 4.0 * a * c  # c < 0 and a > 0, so this is positive unless 4ac underflows
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    if q == 0.0:
        raise NumericalError("the quadratic's linear coefficient and discriminant both underflow to 0")
    r1 = q / a
    r2 = c / q
    z1, z2 = min(r1, r2), max(r1, r2)
    if not (z1 < 0.0 and 1.0 < z2 < math.inf):
        raise NumericalError(f"roots zeta1 = {z1!r}, zeta2 = {z2!r} miss zeta1 < 0 < 1 < zeta2 < inf")
    return Exponents(s2, z1, z2)


@dataclass(frozen=True)
class ClosedFormValue:
    """Piecewise value of a barrier policy, for both dividend problems.

    On the band gamma <= r <= beta of the funding ratio r = x1/x2 the value
    is x2 * (A u^zeta1 + B u^zeta2) with u = r / gamma.  Above the payout ray
    it continues linearly with slope one (pay the overshoot), below the
    injection ray with slope ``kappa`` (inject up to gamma).  The ruin-stopped
    value is the case gamma = alpha0, B = -A, which is exactly zero on the
    ruin ray; ratios below alpha0 are rejected, so it never uses ``kappa``.

    ``evaluate`` and ``partials`` take scalars or broadcastable arrays and
    pick the branch per entry; a NaN ratio is rejected as one below alpha0.
    The powers are taken at the ratio clipped to the band, so a branch an
    entry does not use neither overflows nor warns.
    """

    beta: float
    gamma: float
    alpha0: float
    kappa: float | None
    exponents: Exponents
    A: float
    B: float

    def _branches(self, x1, x2):
        """(x1, x2) as arrays, the ratio clipped to the band, the slope off the band
        (0 on it) and A u^zeta1, B u^zeta2 at the clipped ratio."""
        x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
        if not (x2 > 0.0).all():
            raise DomainError(f"x2 = {float(x2[~(x2 > 0.0)][0])!r} must be positive")
        # A ratio past float range is inf, above beta; inf / inf is NaN, rejected below.
        with np.errstate(over="ignore", invalid="ignore"):
            r = x1 / x2
        if not (r >= self.alpha0).all():
            raise DomainError(
                f"x1/x2 = {float(np.asarray(r)[~(r >= self.alpha0)][0])!r} lies below the ruin "
                f"level alpha0 = {self.alpha0!r}"
            )
        slope = np.where(r > self.beta, 1.0, 0.0)
        if self.gamma > self.alpha0:  # only then can a ratio lie below the injection ray
            slope = np.where(r < self.gamma, self.kappa, slope)
        rc = np.minimum(np.maximum(r, self.gamma), self.beta)
        lu = np.log(rc / self.gamma)
        z1, z2 = self.exponents.zeta1, self.exponents.zeta2
        return x1, x2, rc, slope, self.A * np.exp(z1 * lu), self.B * np.exp(z2 * lu)

    def band_terms(self, r: float) -> tuple[float, float]:
        """A u^zeta1 and B u^zeta2 at one band ratio r >= gamma, in Python floats; where
        u^zeta2 passes float range, B u^zeta2 is taken in log space, inf only past it too."""
        u = r / self.gamma
        try:
            t2 = self.B * _rpow(u, self.exponents.zeta2)
        except OverflowError:
            lt = math.log(abs(self.B)) + self.exponents.zeta2 * math.log(u) if self.B else -math.inf
            try:
                t2 = math.copysign(math.exp(lt), self.B)
            except OverflowError:
                t2 = self.B * math.inf
        return self.A * _rpow(u, self.exponents.zeta1), t2  # u^zeta1 <= 1

    def band_root(self, k1: float, k2: float) -> float | None:
        """The ratio strictly inside (gamma, beta) where k1 A u^zeta1 + k2 B u^zeta2 changes
        sign, or None: it changes sign once at most, where u^(zeta2 - zeta1) = -k1 A / (k2 B)."""
        x, y = k1 * self.A, k2 * self.B
        if not (x < 0.0 < y or y < 0.0 < x):
            return None
        z1, z2 = self.exponents.zeta1, self.exponents.zeta2
        lu = (math.log(abs(x)) - math.log(abs(y))) / (z2 - z1)
        return self.gamma * math.exp(lu) if 0.0 < lu < math.log(self.beta / self.gamma) else None

    def value_at_barrier(self, x2: float = 1.0) -> float:
        """Value on the payout ray, V(beta * x2, x2)."""
        if not x2 > 0.0:
            raise DomainError(f"x2 = {float(x2)!r} must be positive")
        return x2 * self.evaluate(self.beta, 1.0)

    def evaluate(self, x1: float | np.ndarray, x2: float | np.ndarray) -> float | np.ndarray:
        """Value at (x1, x2), a float for scalars; both barrier rays use the band formula."""
        x1, x2, rc, slope, t1, t2 = self._branches(x1, x2)
        return _scalar(x2 * (t1 + t2) + slope * (x1 - rc * x2))

    def partials(self, x1: float | np.ndarray, x2: float | np.ndarray) -> tuple:
        """Exact branch partials (dV/dx1, dV/dx2, d2V/dx1^2, d2V/dx2^2, d2V/dx1dx2).

        Each entry has the broadcast shape of (x1, x2), a float for scalars.
        """
        x1, x2, rc, slope, t1, t2 = self._branches(x1, x2)
        z1, z2, band = self.exponents.zeta1, self.exponents.zeta2, slope == 0.0
        d1 = np.where(band, (z1 * t1 + z2 * t2) / rc, slope)
        d2 = np.where(band, (1.0 - z1) * t1 + (1.0 - z2) * t2, (t1 + t2) - slope * rc)
        curv = np.where(band, z1 * (z1 - 1.0) * t1 + z2 * (z2 - 1.0) * t2, 0.0)
        # One factor at a time: rc * rc overflows for ratios above ~1.3e154.
        return tuple(
            _scalar(d) for d in (d1, d2, curv / rc / rc / x2, curv / x2, -curv / rc / x2)
        )


def _scalar(a: np.ndarray) -> float | np.ndarray:
    """A 0-d result as a float, any other as the array."""
    return float(a) if a.ndim == 0 else a


def closed_form_value(beta: float, p: ModelParams) -> ClosedFormValue:
    """Ruin-stopped value at any admissible barrier; with w = beta/alpha0, B = -A and
    A = alpha0 w^(1-zeta2) / (zeta1 w^(zeta1-zeta2) - zeta2), which cannot overflow."""
    e = exponents(p)
    if not beta >= p.alpha0:
        raise DomainError(f"barrier beta = {beta!r} must be >= alpha0 = {p.alpha0!r}")
    w = beta / p.alpha0
    a = p.alpha0 * _rpow(w, 1.0 - e.zeta2) / (e.zeta1 * _rpow(w, e.zeta1 - e.zeta2) - e.zeta2)
    return ClosedFormValue(
        beta=beta, gamma=p.alpha0, alpha0=p.alpha0, kappa=None, exponents=e, A=a, B=-a
    )


def value_unconstrained(x1: float, x2: float, beta: float, p: ModelParams) -> float:
    """Expected discounted dividends of the barrier-``beta`` strategy at (x1, x2)."""
    return closed_form_value(beta, p).evaluate(x1, x2)


def optimal_barrier_beta0(p: ModelParams) -> float:
    """Payout level maximising the unconstrained dividend value.

    Written with positive base and positive exponent so the log-space power
    is well defined: zeta1 (zeta1 - 1) > zeta2 (zeta2 - 1) > 0.
    """
    e = exponents(p)
    ratio = (e.zeta1 * (e.zeta1 - 1.0)) / (e.zeta2 * (e.zeta2 - 1.0))
    return p.alpha0 * _rpow(ratio, 1.0 / (e.zeta2 - e.zeta1))


def constrained_barrier_beta1(p: ModelParams) -> float:
    """Optimal barrier when dividends are forbidden below ``alpha1``.

    The floor only binds when it exceeds the free optimum:
    beta1* = max(beta0*, alpha1).
    """
    alpha1 = require_alpha1(p)
    return max(optimal_barrier_beta0(p), alpha1)
