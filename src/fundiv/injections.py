"""Dividend values when shareholders must recapitalise instead of liquidating.

With forced injections the funding ratio is kept inside a band [gamma, beta]:
overshoot above ``beta`` is paid out, shortfall below ``gamma`` is injected at
proportional cost ``kappa`` > 1, and ruin never happens.  On the band the
value is the two-power combination

    V(x1, x2) = x2 (A u^zeta1 + B u^zeta2),      u = x1 / (gamma x2),

with the weights pinned by the slope conditions dV/dx1 = 1 on the payout
ray and dV/dx1 = kappa on the injection ray.  Below gamma the value continues
linearly with slope kappa (inject immediately up to gamma), above beta with
slope one (pay the overshoot immediately).  The value is a
:class:`~fundiv.closed_form.ClosedFormValue`, the same class as the
ruin-stopped value.

Scaling both barriers by the same factor scales the value, so the optimal
injection ray is the lowest admissible one, gamma* = alpha0.  The band is
optimal exactly when the ratio t = beta/gamma satisfies kappa(t) = kappa,

    kappa(t) = ((1 - zeta1) t^(1-zeta2) + (zeta2 - 1) t^(1-zeta1)) / (zeta2 - zeta1),

the smooth-fit condition (zero one-sided second derivative) at beta.  As
kappa(1) = 1 and kappa(t) increases without bound, the score psi = kappa -
kappa(t) is positive at beta = gamma, strictly decreasing, and has a unique
root beta2*.  It is the four-power score of beta and gamma divided by the
positive factor zeta1 (zeta1 - zeta2) gamma^(1+zeta1-zeta2) t^zeta1.  The same
kappa(t) gives the injection cost that makes a given barrier pair optimal,
which is used both for round-trip testing and for break-even analysis.  The
break-even cost kappa* reads each floor value on the injection ray as
x2 (A + B), with no scalar numpy read inside its search, and solves one only
where its 8-point monotonicity sample leaves the sign open.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .closed_form import ClosedFormValue, _rpow, exponents
from .errors import DomainError, NoBreakeven, NumericalError
from .params import ModelParams, require_kappa

__all__ = [
    "double_barrier_value",
    "value_injections",
    "psi",
    "optimal_barrier_beta2",
    "kappa_from_barrier",
    "breakeven_kappa",
]

#: Bracket-expansion cap for the psi root: beta <= alpha0 * 2**MAX_DOUBLINGS.
MAX_DOUBLINGS = 60

#: Lowest injection cost the kappa* search starts from.
KAPPA_LO = 1.0 + 1e-8


def _check_band(beta: float, gamma: float, p: ModelParams) -> None:
    if not gamma >= p.alpha0:
        raise DomainError(f"gamma = {gamma!r} must be >= alpha0 = {p.alpha0!r}")
    if not beta > gamma:
        raise DomainError(f"beta = {beta!r} must exceed gamma = {gamma!r}")


def double_barrier_value(beta: float, gamma: float, p: ModelParams) -> ClosedFormValue:
    """Build the piecewise value function for a fixed barrier pair.

    The band weights follow from dV/dx1 = kappa on the injection ray and
    dV/dx1 = 1 on the payout ray; with t = beta/gamma >= 1, the only base
    ever raised to a power,

        A = gamma (1 - kappa t^(zeta2-1)) / (zeta1 t^(zeta1-1) (1 - t^(zeta2-zeta1))),
        B = (kappa gamma - zeta1 A) / zeta2.
    """
    e = exponents(p)
    kappa = float(require_kappa(p))
    _check_band(beta, gamma, p)
    z1, z2 = e.zeta1, e.zeta2
    t = beta / gamma
    try:
        a = gamma * (1.0 - kappa * _rpow(t, z2 - 1.0)) / (
            z1 * _rpow(t, z1 - 1.0) * (1.0 - _rpow(t, z2 - z1))
        )
    except OverflowError:
        a = math.nan
    b = (kappa * gamma - z1 * a) / z2
    if not (math.isfinite(a) and math.isfinite(b)):  # t = inf gives nan, not OverflowError
        raise NumericalError(f"band weights overflow at beta = {beta!r}, gamma = {gamma!r}")
    return ClosedFormValue(
        beta=beta, gamma=gamma, alpha0=p.alpha0, kappa=kappa, exponents=e, A=a, B=b
    )


def value_injections(x1: float, x2: float, beta: float, gamma: float, p: ModelParams) -> float:
    """Expected discounted dividends net of kappa-weighted injections at (x1, x2)."""
    return double_barrier_value(beta, gamma, p).evaluate(x1, x2)


def _kappa_of_ratio(t: float, p: ModelParams) -> float:
    """kappa(t) for t >= 1; both terms are positive, so they never cancel."""
    e = exponents(p)
    z1, z2 = e.zeta1, e.zeta2
    return ((1.0 - z1) * _rpow(t, 1.0 - z2) + (z2 - 1.0) * _rpow(t, 1.0 - z1)) / (z2 - z1)


def psi(beta: float, gamma: float, p: ModelParams) -> float:
    """Optimality score kappa - kappa(beta/gamma), whose unique root in ``beta``
    is the best payout barrier.

    Equal to kappa - 1 > 0 at beta = gamma, strictly decreasing, and -inf
    where kappa(t) leaves float range.
    """
    kappa = require_kappa(p)
    if not gamma >= p.alpha0:
        raise DomainError(f"gamma = {gamma!r} must be >= alpha0 = {p.alpha0!r}")
    if not beta >= gamma:
        raise DomainError(f"beta = {beta!r} must be >= gamma = {gamma!r}")
    try:
        return kappa - _kappa_of_ratio(beta / gamma, p)
    except OverflowError:
        return -math.inf


def optimal_barrier_beta2(p: ModelParams) -> float:
    """Optimal payout barrier with injections pinned at gamma* = alpha0.

    Bisection on :func:`psi` with initial bracket
    [alpha0 * (1 + 1e-12), 2 * alpha0]; the upper end is doubled until the
    sign changes (at most ``MAX_DOUBLINGS`` times) and the root is located to
    an absolute tolerance of 1e-12 * alpha0, or to adjacent floats where
    their spacing is wider.  A bracket end or midpoint past the largest float
    raises :class:`NumericalError`.
    """
    gamma = p.alpha0
    lo = p.alpha0 * (1.0 + 1e-12)
    hi = p.alpha0
    f_lo = psi(lo, gamma, p)
    if not f_lo > 0.0:
        raise NumericalError(
            f"psi({lo!r}) = {f_lo!r} is not positive; no root bracket just above alpha0"
        )
    for _ in range(MAX_DOUBLINGS + 1):
        if 2.0 * hi == math.inf:
            raise NumericalError(f"psi is still positive at beta = {hi!r}, whose double overflows")
        hi *= 2.0
        if not psi(hi, gamma, p) > 0.0:
            break
    else:
        raise NumericalError(f"psi did not change sign below alpha0 * 2**{MAX_DOUBLINGS}")
    tol = 1e-12 * p.alpha0
    while True:
        mid = 0.5 * (lo + hi)
        # Done at the tolerance, or at adjacent floats where it is below their spacing.
        if not (hi - lo > tol and lo < mid < hi):
            if mid == math.inf:  # lo + hi overflowed
                raise NumericalError(f"the root bracket [{lo!r}, {hi!r}] has no finite midpoint")
            return mid
        if psi(mid, gamma, p) > 0.0:
            lo = mid
        else:
            hi = mid


def kappa_from_barrier(beta: float, gamma: float, p: ModelParams) -> float:
    """Injection cost kappa(beta/gamma) for which the pair (beta, gamma) is the
    optimal band; +inf at beta = inf, ``OverflowError`` where it leaves float
    range.  ``p.kappa`` itself is ignored; only the market parameters enter.
    """
    _check_band(beta, gamma, p)
    return _kappa_of_ratio(beta / gamma, p)


def _value_at_floor(p: ModelParams, kappa: float) -> float:
    """Net value started on the injection ray, under the optimal barrier for ``kappa``.

    On that ray u = 1 and V = x2 (A + B), so V(alpha0, 1) is read from the weights.
    """
    pk = replace(p, kappa=kappa)
    fn = double_barrier_value(optimal_barrier_beta2(pk), p.alpha0, pk)
    return fn.A + fn.B


def breakeven_kappa(p: ModelParams, kappa_cap: float = 1e3) -> float:
    """Largest injection cost at which recapitalising at the floor still adds value.

    Finds kappa* with V(alpha0, 1; beta2*(kappa*), alpha0) = 0 by bisection
    over [KAPPA_LO, kappa_cap].  The start value must be positive and the cap
    value negative, otherwise :class:`NoBreakeven` is raised; monotone decay
    of the floor value in kappa is asserted on an 8-point sample first and a
    violation raises :class:`NumericalError` rather than guessing at a
    bracket.  The bisection then solves beta2* only at midpoints between the
    two sample points around the root and takes every other midpoint's sign
    from the sample.  Wherever the floor value keeps its sign outside those
    two points, as it does on the 600 benchmark sets checked, this returns
    the float that a solve at every midpoint gives.  ``p.kappa`` is ignored;
    a cap that is not a finite number above ``KAPPA_LO`` raises
    :class:`DomainError`.
    """
    if not KAPPA_LO < kappa_cap < math.inf:
        raise DomainError(f"kappa_cap = {kappa_cap!r} must be finite and above {KAPPA_LO!r}")
    f_lo = _value_at_floor(p, KAPPA_LO)
    f_hi = _value_at_floor(p, kappa_cap)
    if not f_lo > 0.0:
        raise NoBreakeven(
            f"floor value {f_lo!r} at kappa = {KAPPA_LO!r} is already nonpositive"
        )
    if not f_hi < 0.0:
        raise NoBreakeven(f"floor value {f_hi!r} at kappa = {kappa_cap!r} is still positive")
    # Sample on a log grid in (kappa - 1), whose ends are the two values just
    # solved; allow only rounding-level wobble.
    lo_off, hi_off = math.log(KAPPA_LO - 1.0), math.log(kappa_cap - 1.0)
    inner = [1.0 + math.exp(lo_off + (hi_off - lo_off) * i / 7.0) for i in range(1, 7)]
    sample = [KAPPA_LO, *inner, kappa_cap]
    values = [f_lo, *(_value_at_floor(p, k) for k in inner), f_hi]
    for (ka, va), (kb, vb) in zip(zip(sample, values), zip(sample[1:], values[1:])):
        if vb > va + 1e-12 * max(1.0, abs(va)):
            raise NumericalError(
                f"floor value rose from {va!r} at kappa={ka!r} to {vb!r} at kappa={kb!r}"
            )
    # Decay fixes the sign outside (a, b): positive up to a, the last of the
    # sample's leading positive values, and nonpositive from b, the first of its
    # trailing nonpositive ones.  Only a midpoint strictly between them is
    # solved; the midpoints are those of the bisection over the whole range.
    positive = [v > 0.0 for v in values]
    a = sample[positive.index(False) - 1]
    b = sample[len(positive) - positive[::-1].index(True)]
    lo, hi = KAPPA_LO, kappa_cap
    while hi - lo > 1e-10 * lo:
        mid = 0.5 * (lo + hi)
        if mid <= a or (mid < b and _value_at_floor(p, mid) > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
