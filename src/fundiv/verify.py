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

Residuals of (A - delta)f are reported relative to the sum of the magnitudes
of the individual terms, which is the natural scale for a sum that should
cancel.  Finite-difference mode uses central stencils with relative step
1e-5 (floored at 1e-9) on the same arrays; grid points whose stencil would
straddle a barrier kink are shifted off the seam rather than differenced
across it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import closed_form_value, constrained_barrier_beta1, optimal_barrier_beta0
from .errors import DomainError, SeamError
from .injections import double_barrier_value, optimal_barrier_beta2
from .params import ModelParams, require_alpha1, require_kappa

__all__ = [
    "GridSpec",
    "ConditionResult",
    "VerificationReport",
    "generator_apply",
    "check_solvency_lemma",
    "check_injection_lemma",
    "check_smooth_fit",
]

N_GRID = 512
FD_REL_STEP = 1e-5
FD_MIN_STEP = 1e-9
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
class GridSpec:
    """Where a lemma check was evaluated."""

    ratio_lo: float
    ratio_hi: float
    n_points: int


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
    """Outcome of every condition of one verification lemma."""

    problem: str
    barrier: float
    mode: str
    grid_spec: GridSpec
    condition_results: tuple[ConditionResult, ...]
    passed: bool

    def to_text(self) -> str:
        lines = [
            f"problem = {self.problem}",
            f"barrier = {self.barrier:.17g}",
            f"mode = {self.mode}",
            f"grid = [{self.grid_spec.ratio_lo:.17g}, {self.grid_spec.ratio_hi:.17g}] "
            f"x {self.grid_spec.n_points} (log)",
        ]
        for c in self.condition_results:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{c.condition_id}: worst = {c.worst_violation:.6e} at r = {c.location:.9g} "
                f"(tol = {c.tolerance:.1e}) {status}"
            )
        lines.append(f"passed = {str(self.passed).lower()}")
        return "\n".join(lines)


def _steps(x1, x2):
    """Central-difference steps at (x1, x2), from the module constants at call time."""
    return tuple(np.maximum(FD_REL_STEP * np.abs(x), FD_MIN_STEP) for x in (x1, x2))


def _stencil_span(x1, x2, h1, h2):
    """Range of funding ratios touched by the 9-point central stencil."""
    lo = (x1 - h1) / (x2 + h2)
    with np.errstate(divide="ignore", invalid="ignore"):
        hi = np.where(x2 - h2 > 0.0, (x1 + h1) / (x2 - h2), math.inf)
    return lo, hi


def _fd_partials(fn, x1, x2):
    ev = fn.evaluate
    h1, h2 = _steps(x1, x2)
    f0 = ev(x1, x2)
    fp = ev(x1 + h1, x2)
    fm = ev(x1 - h1, x2)
    gp = ev(x1, x2 + h2)
    gm = ev(x1, x2 - h2)
    fpp = ev(x1 + h1, x2 + h2)
    fpm = ev(x1 + h1, x2 - h2)
    fmp = ev(x1 - h1, x2 + h2)
    fmm = ev(x1 - h1, x2 - h2)
    d1 = (fp - fm) / (2.0 * h1)
    d2 = (gp - gm) / (2.0 * h2)
    d11 = (fp - 2.0 * f0 + fm) / (h1 * h1)
    d22 = (gp - 2.0 * f0 + gm) / (h2 * h2)
    d12 = (fpp - fpm - fmp + fmm) / (4.0 * h1 * h2)
    return d1, d2, d11, d22, d12


def _partials(fn, x1, x2, mode: str):
    """Exact branch partials in analytic mode, central differences otherwise."""
    if mode == "analytic":
        return fn.partials(x1, x2)
    return _fd_partials(fn, x1, x2)


def generator_apply(fn, x1: float, x2: float, p: ModelParams, mode: str = "analytic") -> float:
    """Apply the diffusion generator A to the value object ``fn`` at (x1, x2).

    Analytic mode uses the exact branch partials ``fn.partials(x1, x2)``;
    finite-difference mode uses central differences of ``fn.evaluate`` with
    the relative step ``FD_REL_STEP`` (floored at ``FD_MIN_STEP``), and a
    stencil straddling a kink in ``fn.seam_ratios`` raises
    :class:`SeamError`.  An object without ``partials`` raises
    :class:`TypeError`.
    """
    _tolerances(mode)
    if not hasattr(fn, "partials"):
        raise TypeError(f"{fn!r} is not a value object with exact partials")
    if mode != "analytic":
        h1, h2 = _steps(x1, x2)
        lo, hi = _stencil_span(x1, x2, h1, h2)
        for seam in fn.seam_ratios:
            if lo <= seam <= hi:
                raise SeamError(
                    f"stencil around x1/x2 = {x1 / x2!r} spans [{float(lo)!r}, {float(hi)!r}] "
                    f"and straddles the kink at {seam!r}"
                )
    return sum(_generator_terms(_partials(fn, x1, x2, mode), x1, x2, p))


def _generator_terms(partials, x1, x2, p: ModelParams):
    """The five terms of A f at (x1, x2), from the partials of f.

    Each coordinate multiplies its partial one at a time: x1 * x1 overflows
    for ratios above ~1.3e154 where the term itself is finite.
    """
    d1, d2, d11, d22, d12 = partials
    return (
        p.mu_A * x1 * d1,
        p.mu_L * x2 * d2,
        0.5 * p.sigma_A * p.sigma_A * x1 * (x1 * d11),
        0.5 * p.sigma_L * p.sigma_L * x2 * (x2 * d22),
        p.rho * p.sigma_A * p.sigma_L * x1 * (x2 * d12),
    )


def _clear_of_seams(r: np.ndarray, seams: tuple[float, ...], lo_limit: float) -> np.ndarray:
    """Shift each evaluation point (not the stencil) off the first kink its stencil straddles."""
    for _ in range(8):
        h1, h2 = _steps(r, 1.0)
        span_lo, span_hi = _stencil_span(r, 1.0, h1, h2)
        seam = np.full(r.shape, math.nan)
        for s in reversed(seams):
            seam = np.where((span_lo <= s) & (s <= span_hi), s, seam)
        hit = ~np.isnan(seam)
        if not hit.any():
            return r
        width = np.maximum(span_hi - r, r - span_lo)
        shifted = seam + np.where(r >= seam, 1.0, -1.0) * 3.0 * width
        shifted = np.where(shifted <= lo_limit, seam + 3.0 * width, shifted)
        r = np.where(hit, shifted, r)
    raise SeamError(f"could not move evaluation point clear of kinks near r = {float(r[hit][0])!r}")


def _one_sided(fn, r: float, side: float) -> tuple[float, float]:
    """Second-order one-sided d/dx1 and d2/dx1^2 at (r, 1): from below for side 1, above for -1."""
    h = side * _steps(r, 1.0)[0]
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
    r_eff where the partials were taken (r, or off a kink in fd mode), the
    partials at r_eff (one row each) and (A - delta)H / scale at r_eff.
    """
    r = np.geomspace(p.alpha0, 3.0 * level, N_GRID)
    value = fn.evaluate(r, 1.0)
    r_eff = r
    if mode != "analytic":
        # Keep the whole stencil inside the domain (ratios >= alpha0) and off kinks.
        edge = p.alpha0 * (1.0 + 10.0 * FD_REL_STEP)
        r_eff = _clear_of_seams(np.maximum(r, edge), fn.seam_ratios, edge)
    parts = _partials(fn, r_eff, 1.0, mode)
    terms = (*_generator_terms(parts, r_eff, 1.0, p), -p.delta * fn.evaluate(r_eff, 1.0))
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
        # One-sided slope from below carries only the fd truncation term.
        d1b, d11b = _one_sided(fn, level, 1.0)
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
        grid_spec=GridSpec(ratio_lo=p.alpha0, ratio_hi=3.0 * level, n_points=N_GRID),
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
        d1_floor = _one_sided(dv, p.alpha0, -1.0)[0]
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
        level = beta0
    elif problem == "injection":
        require_kappa(p)
        level = optimal_barrier_beta2(p)
        fn = double_barrier_value(level, p.alpha0, p)
    else:
        raise ValueError(f"unknown problem {problem!r}; use 'solvency' or 'injection'")
    d11_barrier, d11_mid = fn.partials(np.array([level, 0.5 * (p.alpha0 + level)]), 1.0)[2]
    if d11_mid == 0.0:
        raise DomainError("mid-band curvature vanished; cannot normalise smooth fit")
    return float(d11_barrier / abs(d11_mid))
