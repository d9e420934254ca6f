"""Grid checks of the verification-lemma conditions behind each closed form.

Each candidate value function must satisfy a short list of analytic
conditions (nonnegativity, pasting smoothness at the barrier, slope bounds,
and the sign of the discounted generator) for the verification argument to
go through.  This module evaluates those conditions on a dense logarithmic
grid of funding ratios, in one array pass over the whole grid, and reports
the worst violation per condition, so a correct barrier passes at rounding
level while a perturbed one fails loudly.  A NaN anywhere fails its
condition and is reported where it first occurs.

The generator of the asset-liability diffusion acts on smooth f as

    A f = mu_A x1 f_x1 + mu_L x2 f_x2
          + (sigma_A^2 / 2) x1^2 f_x1x1 + (sigma_L^2 / 2) x2^2 f_x2x2
          + rho sigma_A sigma_L x1 x2 f_x1x2.

The value is homogeneous of degree one, so every check sits on the ray
x2 = 1: the grid is one of funding ratios r, and each x2 above is 1.
Residuals of (A - delta)f are reported relative to the sum of the magnitudes
of the individual terms, which is the natural scale for a sum that should
cancel.  Finite-difference mode uses central 9-point stencils on the same
arrays, with steps 1e-5 relative to each coordinate, and evaluates all nine
points of every stencil in one call; a grid point whose stencil would
straddle the payout barrier moves three stencil widths off it rather than
being differenced across the kink.  A one-sided stencil on one ray steps
toward the other by the same relative step, capped at half the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Worst violation of one lemma condition over the grid."""

    condition_id: str
    worst_violation: float
    location: float  # funding ratio of the worst violation
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of every condition of one lemma on the log grid [ratio_lo, 3 barrier]."""

    problem: str
    barrier: float
    mode: str
    ratio_lo: float
    condition_results: tuple[ConditionResult, ...]
    passed: bool

    def to_text(self) -> str:
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
    """Central-difference partials at (r, 1) from one evaluation of the stencil."""
    h1, h2 = FD_REL_STEP * r, FD_REL_STEP
    u, v = _STENCIL.reshape(2, 9, *(1,) * np.ndim(r))
    f0, fp, fm, gp, gm, fpp, fpm, fmp, fmm = fn.evaluate(r + u * h1, 1.0 + v * h2)
    d1 = (fp - fm) / (2.0 * h1)
    d2 = (gp - gm) / (2.0 * h2)
    d11 = (fp - 2.0 * f0 + fm) / (h1 * h1)
    d22 = (gp - 2.0 * f0 + gm) / (h2 * h2)
    d12 = (fpp - fpm - fmp + fmm) / (4.0 * h1 * h2)
    parts = d1, d2, d11, d22, d12
    return parts if np.ndim(r) else tuple(map(float, parts))


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


def _clear_of_kink(r: np.ndarray, level: float, edge: float) -> np.ndarray:
    """Move each point whose stencil straddles the kink at ``level`` three stencil widths
    off it, on its own side unless that falls to ``edge`` or below."""
    lo, hi = _stencil_span(r)
    width = np.maximum(hi - r, r - lo)
    shifted = level + np.where(r >= level, 1.0, -1.0) * 3.0 * width
    shifted = np.where(shifted <= edge, level + 3.0 * width, shifted)
    return np.where((lo <= level) & (level <= hi), shifted, r)


def _one_sided(fn, r: float, toward: float) -> tuple[float, float]:
    """Second-order one-sided d/dx1 and d2/dx1^2 at (r, 1) from r, r - h and r - 2h,
    stepping toward ``toward`` by FD_REL_STEP r capped at half the gap (none: NaN)."""
    h = math.copysign(min(FD_REL_STEP * r, abs(r - toward) / 2), r - toward)
    if h == 0.0:
        return math.nan, math.nan
    f0, f1, f2 = fn.evaluate(r - np.array([0.0, 1.0, 2.0]) * h, 1.0)
    d1 = (3.0 * f0 - 4.0 * f1 + f2) / (2.0 * h)
    d11 = (f0 - 2.0 * f1 + f2) / (h * h)
    return d1, d11


def _tolerances(mode: str) -> tuple[float, float]:
    """The (equality, inequality) tolerances of ``mode``; an unknown mode raises ValueError."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; use {' or '.join(map(repr, MODES))}")
    return MODES[mode]


def _grid_pass(fn, p: ModelParams, level: float, mode: str):
    """Evaluate ``fn`` at the ``N_GRID`` ratios of the lemma grid [alpha0, 3 level] at once.

    Returns arrays of the grid ratios r, the values H(r, 1), the ratios
    r_eff where the partials were taken (r, or off the kink at ``level`` in fd
    mode), the partials at r_eff (one row each) and (A - delta)H / scale at r_eff.
    """
    if not math.isfinite(3.0 * level):
        raise DomainError(f"the lemma grid [alpha0, 3 barrier] overflows at barrier = {level!r}")
    r = np.geomspace(p.alpha0, 3.0 * level, N_GRID)
    value = fn.evaluate(r, 1.0)
    if mode == "analytic":
        r_eff, parts = r, fn.partials(r, 1.0)
    else:
        # Keep the whole stencil inside the domain (ratios >= alpha0) and off the kink.
        edge = p.alpha0 * (1.0 + 10.0 * FD_REL_STEP)
        r_eff = _clear_of_kink(np.maximum(r, edge), level, edge)
        parts = _fd_partials(fn, r_eff)
    terms = (*_generator_terms(parts, r_eff, p), -p.delta * fn.evaluate(r_eff, 1.0))
    gen = sum(terms) / np.maximum(sum(np.abs(t) for t in terms), 1e-300)
    return r, value, r_eff, np.column_stack(parts), gen


def _pasting(fn, level: float, mode: str, mid_curvature=None) -> list[float]:
    """Pasting violations at the payout barrier, band branch against the linear one.

    Analytic mode compares both slopes, finite-difference mode the x1-slope
    from below.  Given the mid-band second partials, the one-sided second
    partials at the barrier (zero at the optimum) are compared too, each
    normalised by its mid-band counterpart.
    """
    if mode == "analytic":
        below = fn.partials(level, 1.0)
        above_d2 = fn.value_at_barrier(1.0) - level
        out = [abs(below[0] - 1.0), abs(below[1] - above_d2) / max(1.0, abs(above_d2))]
        curvatures = below[2:]
    else:
        # One-sided from below: only the fd truncation term; a barrier at alpha0 fails on NaN.
        d1b, d11b = _one_sided(fn, level, fn.alpha0)
        out = [abs(d1b - 1.0)]
        curvatures = (d11b,)
    if mid_curvature is not None:
        out += [abs(c) / max(abs(m), 1e-300) for c, m in zip(curvatures, mid_curvature)]
    return out


def _negativity(value: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, -value) / np.maximum(1.0, np.abs(value))


def _worst(condition_id: str, violation, location, tolerance: float) -> ConditionResult:
    """Largest violation of one condition and the first ratio where it occurs.

    No point checked counts as a pass at 0; a NaN anywhere fails the
    condition and is reported at the first NaN.  A zero worst is +0, never -0.
    """
    v = np.asarray(violation, dtype=float)
    if v.size == 0:
        worst, at = 0.0, math.nan
    else:
        nans = np.flatnonzero(np.isnan(v))
        i = int(nans[0]) if nans.size else int(np.argmax(v))
        worst, at = float(v[i]) + 0.0, float(location[i])
    return ConditionResult(
        condition_id=condition_id,
        worst_violation=worst,
        location=at,
        tolerance=tolerance,
        passed=bool(worst <= tolerance),
    )


def _report(problem: str, level: float, mode: str, p: ModelParams, table) -> VerificationReport:
    """Reduce a table of (condition id, violations, locations, tolerance) to a report."""
    conditions = tuple(_worst(*row) for row in table)
    return VerificationReport(
        problem=problem,
        barrier=level,
        mode=mode,
        ratio_lo=p.alpha0,
        condition_results=conditions,
        passed=all(c.passed for c in conditions),
    )


@np.errstate(over="ignore", invalid="ignore")  # the report shows where values stop being finite
def check_solvency_lemma(
    p: ModelParams, *, barrier: float | None = None, mode: str = "analytic"
) -> VerificationReport:
    """Check the six verification conditions of the solvency-constrained problem.

    ``barrier`` defaults to the optimal constrained level and may be
    overridden to demonstrate that suboptimal barriers fail.  Conditions:

    1. nonnegative          -- H >= 0 on the whole grid
    2. c1-pasting           -- one-sided slopes match across the barrier
    3. bounded-partials     -- first partials finite on the compact grid
    4. slope-at-least-one   -- dH/dx1 >= 1 wherever paying is allowed (r >= alpha1)
    5. generator-zero-band  -- (A - delta)H = 0 strictly inside (alpha0, barrier)
    6. generator-nonpositive-above -- (A - delta)H <= 0 for r > alpha1
    """
    tol_eq, tol_ineq = _tolerances(mode)
    alpha1 = require_alpha1(p)
    level = constrained_barrier_beta1(p) if barrier is None else float(barrier)
    cf = closed_form_value(level, p)
    r, value, r_eff, parts, gen = _grid_pass(cf, p, level, mode)
    pasting = _pasting(cf, level, mode)
    pay = r_eff >= alpha1
    band = (p.alpha0 < r_eff) & (r_eff < level)
    above = r_eff > alpha1
    finite = np.isfinite(parts[:, :2]).all(axis=1)
    return _report("solvency", level, mode, p, [
        ("nonnegative", _negativity(value), r, TOL_INEQUALITY),
        ("c1-pasting", pasting, [level] * len(pasting), tol_eq),
        ("bounded-partials", np.where(finite, 0.0, math.inf), r_eff, TOL_INEQUALITY),
        ("slope-at-least-one", np.maximum(0.0, 1.0 - parts[pay, 0]), r_eff[pay], tol_ineq),
        ("generator-zero-band", np.abs(gen[band]), r_eff[band], tol_eq),
        ("generator-nonpositive-above", np.maximum(0.0, gen[above]), r_eff[above], tol_ineq),
    ])


@np.errstate(over="ignore", invalid="ignore")
def check_injection_lemma(
    p: ModelParams, *, barrier: float | None = None, mode: str = "analytic"
) -> VerificationReport:
    """Check the five verification conditions of the capital-injection problem.

    The injection ray is pinned at gamma* = alpha0; ``barrier`` defaults to
    the optimal payout level.  Conditions:

    1. c2-pasting     -- slopes and one-sided second partials match at the barrier,
                         and the slope on the injection ray equals kappa
    2. nonnegative    -- H >= 0 on the whole grid
    3. generator-sign -- (A - delta)H <= 0 everywhere
    4. slope-corridor -- 1 <= dH/dx1 <= kappa
    5. bounded-dx2    -- the x2-partial is finite on the compact grid
    """
    tol_eq, tol_ineq = _tolerances(mode)
    kappa = require_kappa(p)
    level = optimal_barrier_beta2(p) if barrier is None else float(barrier)
    dv = double_barrier_value(level, p.alpha0, p)
    r, value, r_eff, parts, gen = _grid_pass(dv, p, level, mode)
    # The x2 and mixed curvatures are tied to the x1 curvature by homogeneity,
    # so each is normalised by the matching mid-band curvature magnitude.
    mid_curvature = dv.partials(0.5 * (p.alpha0 + level), 1.0)[2:]
    if mode == "analytic":
        d1_floor = dv.partials(p.alpha0, 1.0)[0]
    else:
        # The stencil steps up from alpha0 and stays below the barrier's kink.
        d1_floor = _one_sided(dv, p.alpha0, level)[0]
    pasting = _pasting(dv, level, mode, mid_curvature) + [abs(d1_floor - kappa) / kappa]
    d1 = parts[:, 0]
    return _report("injection", level, mode, p, [
        ("c2-pasting", pasting, [level] * (len(pasting) - 1) + [p.alpha0], tol_eq),
        ("nonnegative", _negativity(value), r, TOL_INEQUALITY),
        ("generator-sign", np.maximum(0.0, gen), r_eff, tol_ineq),
        ("slope-corridor", np.maximum(np.maximum(0.0, 1.0 - d1), d1 - kappa), r_eff, tol_ineq),
        ("bounded-dx2", np.where(np.isfinite(parts[:, 1]), 0.0, math.inf), r_eff, TOL_INEQUALITY),
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
