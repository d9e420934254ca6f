"""Checks of the verification-lemma conditions behind each closed form.

Each candidate value function must satisfy a short list of analytic
conditions (nonnegativity, pasting smoothness at the barrier, slope bounds,
and the sign of the discounted generator) at every funding ratio r >= alpha0
for the verification argument to go through.  A report gives the worst
violation per condition and where it occurs, so a correct barrier passes at
rounding level while a perturbed one fails loudly.  A NaN anywhere fails its
condition and is reported where it first occurs.

The generator of the asset-liability diffusion acts on smooth f as

    A f = mu_A x1 f_x1 + mu_L x2 f_x2
          + (sigma_A^2 / 2) x1^2 f_x1x1 + (sigma_L^2 / 2) x2^2 f_x2x2
          + rho sigma_A sigma_L x1 x2 f_x1x2.

The value is homogeneous of degree one, so every check sits on the ray
x2 = 1, at funding ratios r, and each x2 above is 1.  There V_x2 = V - r V_x1,
V_x2x2 = r^2 V_x1x1 and V_x1x2 = -r V_x1x1, so every pasting row is the
x1-slope or the x1-curvature at a ray, read from inside the band.  Residuals
of (A - delta)f are reported relative to the sum of the magnitudes of the
individual terms, which is the natural scale for a sum that should cancel.

Each lemma writes its conditions once, as one list of rows: a row applies
its violation formula to a list of reads (a ratio with the value, x1-slope,
x2-slope, x1-curvature and residual there) or to the pasting scalars, and
reports the worst.  The two modes differ only in the reads they supply, both
in Python floats.

Analytic mode certifies each condition exactly on the whole half-line
[alpha0, inf), from a few reads of the band formula.  On the band
[alpha0, beta] the value is A u^zeta1 + B u^zeta2 with u = r / alpha0, and
its slope and curvature are two-power sums too.  A two-power sum
a u^p + b u^q turns at most once, where u^(q - p) = -a p / (b q), so its
extremes on an interval lie at the ends or there.  (A - delta) takes u^zeta
to Q(zeta) u^zeta, Q the sum of the generator's raw terms on that power, so
the band residual is A Q(zeta1) u^zeta1 + B Q(zeta2) u^zeta2 over the sum
of its terms' magnitudes, each term a two-power sum of one sign change at
most: between those sign changes it is a ratio of linear functions of
u^(zeta2 - zeta1), so its extremes lie at the band ends or at them.  Above
beta the value is linear, and one read stands for that whole branch: its
residual (mu_A - delta) r + (mu_L - delta)(V(beta) - beta) falls as r
grows, over its terms' magnitudes too where it is positive, so its supremum
is at its lowest ratio.  Each row reports where its worst lies.

Finite-difference mode reads the same conditions on a dense logarithmic
grid of funding ratios [alpha0, 3 beta], in one array pass over the whole
grid, with central 9-point stencils of steps 1e-5 relative to each
coordinate, evaluating all nine points of every stencil in one call; a grid
point whose stencil would reach below alpha0 or straddle the payout barrier
is skipped rather than differenced across the edge or the kink.  Its pasting
rows are one-sided differences from inside the band, whose step toward the
other ray is the same relative step, capped at half the gap.  Every
difference divides by one step at a time: a squared step can leave float
range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .closed_form import closed_form_value, constrained_barrier_beta1, optimal_barrier_beta0
from .errors import DomainError
from .injections import double_barrier_value, optimal_barrier_beta2
from .params import ModelParams, _flat_text, _render, require_alpha1, require_kappa

__all__ = [
    "ConditionResult",
    "VerificationReport",
    "check_solvency_lemma",
    "check_injection_lemma",
    "check_smooth_fit",
]

N_GRID = 512
FD_REL_STEP = 1e-5
TOL_EQUALITY_ANALYTIC = 1e-8
TOL_EQUALITY_FD = 1e-4
TOL_INEQUALITY = 1e-10
#: Each mode's (equality, inequality) tolerances.  Finite-difference sign checks inherit
#: the stencil's truncation error, so the tight rounding slack is analytic-only.
MODES = {
    "analytic": (TOL_EQUALITY_ANALYTIC, TOL_INEQUALITY),
    "finite-difference": (TOL_EQUALITY_FD, TOL_EQUALITY_FD),
}


@dataclass(frozen=True)
class ConditionResult:
    """Worst violation of one lemma condition."""

    condition_id: str
    worst_violation: float
    location: float  # funding ratio of the worst violation
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of every condition of one lemma: on [ratio_lo, inf) exactly (analytic mode)
    or on the log grid [ratio_lo, 3 barrier] (finite-difference mode)."""

    problem: str
    barrier: float
    mode: str
    ratio_lo: float
    condition_results: tuple[ConditionResult, ...]
    passed: bool

    def to_text(self) -> str:
        if self.mode == "analytic":
            grid = f"[{_render(self.ratio_lo)}, inf) (exact)"
        else:
            grid = f"[{_render(self.ratio_lo)}, {_render(3.0 * self.barrier)}] x {N_GRID} (log)"
        head = {"problem": self.problem, "barrier": self.barrier, "mode": self.mode, "grid": grid}
        conditions = "".join(
            f"{c.condition_id}: worst = {c.worst_violation:.6e} at r = {c.location:.9g} "
            f"(tol = {c.tolerance:.1e}) {'PASS' if c.passed else 'FAIL'}\n"
            for c in self.condition_results
        )
        return (_flat_text(head) + conditions + _flat_text({"passed": self.passed}))[:-1]


#: Offsets of the 9-point central stencil, in steps of x1 (first row) and of x2.
_STENCIL = np.array([[0, 1, -1, 0, 0, 1, 1, -1, -1], [0, 0, 0, 1, -1, 1, -1, 1, -1]], dtype=float)


def _stencil_span(r):
    """Range of funding ratios touched by the 9-point central stencil at (r, 1)."""
    h1, h2 = FD_REL_STEP * r, FD_REL_STEP
    return (r - h1) / (1.0 + h2), (r + h1) / (1.0 - h2)


def _fd_partials(fn, r):
    """Value and central-difference partials at (r, 1) from one evaluation of the stencil."""
    h1, h2 = FD_REL_STEP * r, FD_REL_STEP
    u, v = _STENCIL.reshape(2, 9, *(1,) * np.ndim(r))
    f0, fp, fm, gp, gm, fpp, fpm, fmp, fmm = fn.evaluate(r + u * h1, 1.0 + v * h2)
    d1 = (fp - fm) / (2.0 * h1)
    d2 = (gp - gm) / (2.0 * h2)
    d11 = (fp - 2.0 * f0 + fm) / h1 / h1
    d22 = (gp - 2.0 * f0 + gm) / h2 / h2
    d12 = (fpp - fpm - fmp + fmm) / (4.0 * h1) / h2
    return f0, (d1, d2, d11, d22, d12)


def _generator_terms(partials, r, p: ModelParams):
    """The five terms of A f at (r, 1), from the partials of f.

    The ratio multiplies its partial one factor at a time: r * r overflows
    for ratios above ~1.3e154 where the term itself is finite.
    """
    d1, d2, d11, d22, d12 = partials
    return (
        p.mu_A * r * d1,
        p.mu_L * d2,
        0.5 * p.sigma_A * p.sigma_A * r * (r * d11),
        0.5 * p.sigma_L * p.sigma_L * d22,
        p.rho * p.sigma_A * p.sigma_L * r * d12,
    )


def _ray(fn, r: float, toward: float) -> tuple[float, float]:
    """dV/dx1 and d2V/dx1^2 at (r, 1) from the side of ``toward``: second-order one-sided
    differences from r, r - h and r - 2h, h stepping toward ``toward`` by FD_REL_STEP r
    capped at half the gap (none: NaN)."""
    h = math.copysign(min(FD_REL_STEP * r, abs(r - toward) / 2), r - toward)
    f0, f1, f2 = fn.evaluate(r - np.array([0.0, 1.0, 2.0]) * h, 1.0)
    return (3.0 * f0 - 4.0 * f1 + f2) / (2.0 * h), (f0 - 2.0 * f1 + f2) / h / h


def _tolerances(mode: str) -> tuple[float, float]:
    """The (equality, inequality) tolerances of ``mode``; an unknown mode raises ValueError."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; use {' or '.join(map(repr, MODES))}")
    return MODES[mode]


class _Read(NamedTuple):
    """One ratio's value, x1-slope, x2-slope, x1-curvature and residual; a value read
    leaves the rest NaN."""

    r: float
    value: float
    d1: float = math.nan
    d2: float = math.nan
    d11: float = math.nan
    gen: float = math.nan


def _grid_pass(fn, p: ModelParams, level: float):
    """Read ``fn`` at the ``N_GRID`` ratios of the lemma grid [alpha0, 3 level] at once.

    Returns a value read at every grid ratio (its partials and residual NaN)
    and a full read at every ratio whose stencil lies at or above alpha0 and
    on one side of the kink at ``level``: the central-difference partials and
    (A - delta)H / scale there, in Python floats.
    """
    if not math.isfinite(3.0 * level):
        raise DomainError(f"the lemma grid [alpha0, 3 barrier] overflows at barrier = {level!r}")
    r = np.geomspace(p.alpha0, 3.0 * level, N_GRID)
    value = fn.evaluate(r, 1.0)
    lo, hi = _stencil_span(r)
    r_eff = r[(lo >= p.alpha0) & ((hi < level) | (level < lo))]
    value_eff, parts = _fd_partials(fn, r_eff)
    terms = (*_generator_terms(parts, r_eff, p), -p.delta * value_eff)
    gen = sum(terms) / np.maximum(sum(np.abs(t) for t in terms), 1e-300)
    columns = (r_eff, value_eff, *parts[:3], gen)
    return (list(map(_Read, r.tolist(), value.tolist())),
            list(map(_Read, *(c.tolist() for c in columns))))


def _worst(condition_id: str, candidates: list, tolerance: float) -> ConditionResult:
    """The worst of (violation, ratio) candidates, the first NaN or else the first largest;
    no candidate counts as a pass at 0."""
    nans = [c for c in candidates if c[0] != c[0]]
    worst, at = nans[0] if nans else max(candidates, key=itemgetter(0), default=(0.0, math.nan))
    worst += 0.0  # a zero worst is +0, never -0
    return ConditionResult(condition_id, worst, at, tolerance, worst <= tolerance)


def _report(problem: str, level: float, mode: str, p: ModelParams, rows) -> VerificationReport:
    conditions = tuple(rows)
    return VerificationReport(
        problem=problem,
        barrier=level,
        mode=mode,
        ratio_lo=p.alpha0,
        condition_results=conditions,
        passed=all(c.passed for c in conditions),
    )


def _plus(x: float) -> float:
    """max(0, x) that keeps a NaN."""
    return 0.0 if x <= 0.0 else x


def _finite(*xs: float) -> float:
    """0 where every scalar is finite, else inf: the violation of a boundedness row."""
    return 0.0 if all(map(math.isfinite, xs)) else math.inf


class _Band:
    """Python-float reads of a barrier value on its band [gamma, beta] and above it.

    On the band each generator term, and the value, is a two-power sum
    coef(zeta1) A u^zeta1 + coef(zeta2) B u^zeta2, the coefficients read off
    the raw generator terms of one power at (1, 1); their sum Q(zeta), not
    one rebuilt from sigma~^2, shows how far the float roots are from solving
    the generator equation.  The band ends bound the value from below on
    [gamma, inf): it rises with slope one above the barrier, and it turns
    inside the band only where A and B share a sign, which it then keeps, and
    at a minimum only where that sign is positive.
    """

    def __init__(self, fn, p: ModelParams):
        self.fn, self.p, self.z1, self.z2 = fn, p, fn.exponents.zeta1, fn.exponents.zeta2
        self.c1, self.c2 = self.z1 * (self.z1 - 1.0), self.z2 * (self.z2 - 1.0)
        self.coef1, self.coef2 = ((*_generator_terms((z, 1.0 - z, c, c, -c), 1.0, p), -p.delta)
                                  for z, c in ((self.z1, self.c1), (self.z2, self.c2)))
        self.q1, self.q2 = sum(self.coef1), sum(self.coef2)
        #: Coefficient pairs of the distinct terms: the kinks of the residual's scale.
        self.terms = ((self.z1, self.z2), (1.0 - self.z1, 1.0 - self.z2), (self.c1, self.c2),
                      (1.0, 1.0))

    def read(self, r: float) -> _Read:
        z1, z2 = self.z1, self.z2
        t1, t2 = self.fn.band_terms(r)
        scale = sum(abs(a * t1 + b * t2) for a, b in zip(self.coef1, self.coef2))
        return _Read(
            r, t1 + t2, (z1 * t1 + z2 * t2) / r, (1.0 - z1) * t1 + (1.0 - z2) * t2,
            (self.c1 * t1 + self.c2 * t2) / r / r,
            (self.q1 * t1 + self.q2 * t2) / max(scale, 1e-300),
        )

    def linear(self, top: _Read, lo: float) -> _Read:
        """The linear branch above the barrier read ``top``, for all of [lo, inf), lo >= beta.

        There the value is r + c with c = V(beta) - beta, its x2-slope, and the
        residual's numerator (mu_A - delta) r + (mu_L - delta) c falls as r
        grows; where it is positive so does its quotient by the terms'
        magnitudes, so the residual's supremum on [lo, inf) is its read at lo.
        """
        p, c, value = self.p, top.value - top.r, top.value + (lo - top.r)
        terms = (p.mu_A * lo, p.mu_L * c, -p.delta * value)
        return _Read(lo, value, 1.0, c, 0.0, sum(terms) / max(sum(map(abs, terms)), 1e-300))

    def sweep(self, lo: _Read, hi: _Read, *pairs: tuple[float, float]) -> list[_Read]:
        """lo, in increasing order the ratios strictly between where k1 A u^zeta1 +
        k2 B u^zeta2 changes sign for each (k1, k2) of ``pairs`` (once at most each), and
        hi.  The slope turns where the pair (zeta1 (zeta1 - 1), zeta2 (zeta2 - 1)) changes
        sign; the residual is a ratio of linear functions of u^(zeta2 - zeta1) between the
        sign changes of its terms."""
        roots = (self.fn.band_root(k1, k2) for k1, k2 in pairs)
        inner = sorted(r for r in roots if r is not None and lo.r < r < hi.r)
        return [lo, *map(self.read, inner), hi]


def check_solvency_lemma(
    p: ModelParams, *, barrier: float | None = None, mode: str = "analytic"
) -> VerificationReport:
    """Check the six verification conditions of the solvency-constrained problem.

    ``barrier`` defaults to the optimal constrained level and may be
    overridden to demonstrate that suboptimal barriers fail.  Conditions:

    1. nonnegative          -- H >= 0 for every r >= alpha0
    2. c1-pasting           -- dH/dx1 = 1 at the barrier, read from below
    3. bounded-partials     -- first partials finite
    4. slope-at-least-one   -- dH/dx1 >= 1 wherever paying is allowed (r >= alpha1)
    5. generator-zero-band  -- (A - delta)H = 0 strictly inside (alpha0, barrier)
    6. generator-nonpositive-above -- (A - delta)H <= 0 for r > alpha1
    """
    tol_eq, tol_ineq = _tolerances(mode)
    alpha1 = require_alpha1(p)
    level = constrained_barrier_beta1(p) if barrier is None else float(barrier)
    cf = closed_form_value(level, p)
    if mode == "analytic":
        band = _Band(cf, p)
        floor, top = band.read(p.alpha0), band.read(level)
        linear = band.linear(top, max(alpha1, level))
        values, reads, d1_top = [floor, top], [floor, top, linear], top.d1  # see _Band
        inside = band.sweep(floor, top, *band.terms) if p.alpha0 < level else []
        pay = above = [linear]
        if alpha1 <= level:
            paying = band.read(alpha1)
            pay = [*band.sweep(paying, top, (band.c1, band.c2)), linear]
            if alpha1 < level:  # a binding floor puts the barrier at alpha1: no band above it
                above = [*band.sweep(paying, top, *band.terms), linear]
    else:
        with np.errstate(all="ignore"):  # the report shows where values stop being finite
            values, reads = _grid_pass(cf, p, level)
            d1_top = float(_ray(cf, level, p.alpha0)[0])  # a barrier at alpha0 fails on NaN
        inside = [x for x in reads if p.alpha0 < x.r < level]
        pay = [x for x in reads if x.r >= alpha1]
        above = [x for x in reads if x.r > alpha1]
    return _report("solvency", level, mode, p, [
        _worst("nonnegative", [(_plus(-x.value) / max(1.0, abs(x.value)), x.r) for x in values],
               TOL_INEQUALITY),
        _worst("c1-pasting", [(abs(d1_top - 1.0), level)], tol_eq),
        _worst("bounded-partials", [(_finite(x.d1, x.d2), x.r) for x in reads], TOL_INEQUALITY),
        _worst("slope-at-least-one", [(_plus(1.0 - x.d1), x.r) for x in pay], tol_ineq),
        _worst("generator-zero-band", [(abs(x.gen), x.r) for x in inside], tol_eq),
        _worst("generator-nonpositive-above", [(_plus(x.gen), x.r) for x in above], tol_ineq),
    ])


def check_injection_lemma(
    p: ModelParams, *, barrier: float | None = None, mode: str = "analytic"
) -> VerificationReport:
    """Check the five verification conditions of the capital-injection problem.

    The injection ray is pinned at gamma* = alpha0; ``barrier`` defaults to
    the optimal payout level.  Conditions:

    1. c2-pasting     -- dH/dx1 = 1 and d2H/dx1^2 = 0 (relative to mid-band) at the
                         barrier from below, and dH/dx1 = kappa at alpha0 from above
    2. nonnegative    -- H >= 0 for every r >= alpha0
    3. generator-sign -- (A - delta)H <= 0 everywhere
    4. slope-corridor -- 1 <= dH/dx1 <= kappa
    5. bounded-dx2    -- the x2-partial is finite
    """
    tol_eq, tol_ineq = _tolerances(mode)
    kappa = require_kappa(p)
    level = optimal_barrier_beta2(p) if barrier is None else float(barrier)
    dv = double_barrier_value(level, p.alpha0, p)
    mid = 0.5 * (p.alpha0 + level)
    if mode == "analytic":
        band = _Band(dv, p)
        floor, top = band.read(p.alpha0), band.read(level)
        linear = band.linear(top, level)
        values, reads = [floor, top], [floor, top, linear]  # the band ends bound H: see _Band
        residual = [*band.sweep(floor, top, *band.terms), linear]
        slope = [*band.sweep(floor, top, (band.c1, band.c2)), linear]
        d1_top, d11_top, d1_floor, d11_mid = top.d1, top.d11, floor.d1, band.read(mid).d11
    else:
        with np.errstate(all="ignore"):
            values, reads = _grid_pass(dv, p, level)
            d1_top, d11_top = map(float, _ray(dv, level, p.alpha0))
            d1_floor = float(_ray(dv, p.alpha0, level)[0])  # the stencil stays below the kink
            d11_mid = float(_ray(dv, mid, level)[1])
        residual = slope = reads
    pasting = [(abs(d1_top - 1.0), level), (abs(d11_top) / max(abs(d11_mid), 1e-300), level),
               (abs(d1_floor - kappa) / kappa, p.alpha0)]
    return _report("injection", level, mode, p, [
        _worst("c2-pasting", pasting, tol_eq),
        _worst("nonnegative", [(_plus(-x.value) / max(1.0, abs(x.value)), x.r) for x in values],
               TOL_INEQUALITY),
        _worst("generator-sign", [(_plus(x.gen), x.r) for x in residual], tol_ineq),
        _worst("slope-corridor", [(_plus(max(1.0 - x.d1, x.d1 - kappa)), x.r) for x in slope],
               tol_ineq),
        _worst("bounded-dx2", [(_finite(x.d2), x.r) for x in reads], TOL_INEQUALITY),
    ])


def check_smooth_fit(p: ModelParams, problem: str) -> float | None:
    """Normalised one-sided second derivative at the optimal payout barrier.

    Returns d2V/dx1^2 just below the barrier divided by the same quantity at
    the middle of the continuation band; at the true optimum this is zero up
    to rounding.  For the solvency problem with a binding floor
    (alpha1 > beta0*) the barrier sits at the constraint, smooth fit does not
    apply, and ``None`` is returned.
    """
    if problem == "solvency":
        beta0 = optimal_barrier_beta0(p)
        if p.alpha1 is not None and p.alpha1 > beta0:
            return None
        fn = closed_form_value(beta0, p)
    elif problem == "injection":
        fn = double_barrier_value(optimal_barrier_beta2(p), p.alpha0, p)
    else:
        raise ValueError(f"unknown problem {problem!r}; use 'solvency' or 'injection'")
    d11_barrier, d11_mid = fn.partials(np.array([fn.beta, 0.5 * (p.alpha0 + fn.beta)]), 1.0)[2]
    if d11_mid == 0.0:
        raise DomainError("mid-band curvature vanished; cannot normalise smooth fit")
    return float(d11_barrier / abs(d11_mid))
