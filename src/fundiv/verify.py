"""Grid checks of the verification-lemma conditions behind each closed form.

Each candidate value function must satisfy a short list of analytic
conditions (nonnegativity, pasting smoothness at the barrier, slope bounds,
and the sign of the discounted generator) for the verification argument to
go through.  This module evaluates those conditions on a dense logarithmic
grid of funding ratios and reports the worst violation per condition, so a
correct barrier passes at rounding level while a perturbed one fails loudly.

The generator of the asset-liability diffusion acts on smooth f as

    A f = mu_A x1 f_x1 + mu_L x2 f_x2
          + (sigma_A^2 / 2) x1^2 f_x1x1 + (sigma_L^2 / 2) x2^2 f_x2x2
          + rho sigma_A sigma_L x1 x2 f_x1x2.

Residuals of (A - delta)f are reported relative to the sum of the magnitudes
of the individual terms, which is the natural scale for a sum that should
cancel.  Finite-difference mode uses central stencils with relative step
1e-5 (floored at 1e-9); grid points whose stencil would straddle a barrier
kink are shifted off the seam rather than differenced across it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import closed_form_value, constrained_barrier_beta1, optimal_barrier_beta0
from .errors import DomainError, SeamError
from .injections import double_barrier_value, optimal_barrier_beta2
from .params import ModelParams, require_alpha1, require_kappa, validate

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

_FD_MODES = ("finite-difference", "fd")


@dataclass(frozen=True)
class GridSpec:
    """Where a lemma check was evaluated."""

    ratio_lo: float
    ratio_hi: float
    n_points: int
    spacing: str = "log"
    x2: float = 1.0


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
            f"x {self.grid_spec.n_points} ({self.grid_spec.spacing})",
        ]
        for c in self.condition_results:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{c.condition_id}: worst = {c.worst_violation:.6e} at r = {c.location:.9g} "
                f"(tol = {c.tolerance:.1e}) {status}"
            )
        lines.append(f"passed = {str(self.passed).lower()}")
        return "\n".join(lines)


def _steps(x1: float, x2: float, h_rel: float, h_min: float) -> tuple[float, float]:
    return max(h_rel * abs(x1), h_min), max(h_rel * abs(x2), h_min)


def _stencil_span(x1: float, x2: float, h1: float, h2: float) -> tuple[float, float]:
    """Range of funding ratios touched by the 9-point central stencil."""
    lo = (x1 - h1) / (x2 + h2)
    hi = (x1 + h1) / (x2 - h2) if x2 - h2 > 0.0 else math.inf
    return lo, hi


def _evaluator(fn):
    if hasattr(fn, "evaluate"):
        return fn.evaluate
    if callable(fn):
        return fn
    raise TypeError(f"cannot evaluate {fn!r}")


def _fd_partials(
    fn, x1: float, x2: float, h_rel: float, h_min: float
) -> tuple[float, float, float, float, float]:
    ev = _evaluator(fn)
    h1, h2 = _steps(x1, x2, h_rel, h_min)
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


def generator_apply(
    fn,
    x1: float,
    x2: float,
    p: ModelParams,
    mode: str = "analytic",
    *,
    h_rel: float = FD_REL_STEP,
    h_min: float = FD_MIN_STEP,
    seams: tuple[float, ...] | None = None,
) -> float:
    """Apply the diffusion generator A to ``fn`` at (x1, x2).

    In analytic mode ``fn`` must expose exact branch partials via
    ``fn.partials(x1, x2)``; in finite-difference mode only evaluation is
    needed (``fn.evaluate`` or a plain callable) and central differences are
    used.  ``seams`` (default: ``fn.seam_ratios`` when present) are funding
    ratios with kinks; a stencil straddling one raises :class:`SeamError`.
    """
    validate(p)
    if mode == "analytic":
        if not hasattr(fn, "partials"):
            raise TypeError("analytic mode needs an object with exact partials")
        parts = fn.partials(x1, x2)
    elif mode in _FD_MODES:
        if seams is None:
            seams = tuple(getattr(fn, "seam_ratios", ()))
        h1, h2 = _steps(x1, x2, h_rel, h_min)
        lo, hi = _stencil_span(x1, x2, h1, h2)
        for seam in seams:
            if lo <= seam <= hi:
                raise SeamError(
                    f"stencil around x1/x2 = {x1 / x2!r} spans [{lo!r}, {hi!r}] "
                    f"and straddles the kink at {seam!r}"
                )
        parts = _fd_partials(fn, x1, x2, h_rel, h_min)
    else:
        raise ValueError(f"unknown mode {mode!r}; use 'analytic' or 'finite-difference'")
    return sum(_generator_terms(parts, x1, x2, p))


def _generator_terms(
    partials: tuple[float, float, float, float, float], x1: float, x2: float, p: ModelParams
) -> tuple[float, float, float, float, float]:
    """The five terms of A f at (x1, x2), from the partials of f."""
    d1, d2, d11, d22, d12 = partials
    return (
        p.mu_A * x1 * d1,
        p.mu_L * x2 * d2,
        0.5 * p.sigma_A * p.sigma_A * x1 * x1 * d11,
        0.5 * p.sigma_L * p.sigma_L * x2 * x2 * d22,
        p.rho * p.sigma_A * p.sigma_L * x1 * x2 * d12,
    )


def _gen_residual(
    value: float, partials: tuple[float, float, float, float, float], x1: float, x2: float, p: ModelParams
) -> float:
    """(A - delta)f relative to the sum of the magnitudes of its terms."""
    terms = (*_generator_terms(partials, x1, x2, p), -p.delta * value)
    return math.fsum(terms) / max(sum(abs(t) for t in terms), 1e-300)


def _clear_of_seams(r: float, seams: tuple[float, ...], lo_limit: float, h_rel: float, h_min: float) -> float:
    """Shift the evaluation point (not the stencil) off any kink it straddles."""
    for _ in range(8):
        h1, h2 = _steps(r, 1.0, h_rel, h_min)
        span_lo, span_hi = _stencil_span(r, 1.0, h1, h2)
        offending = [s for s in seams if span_lo <= s <= span_hi]
        if not offending:
            return r
        seam = offending[0]
        width = max(span_hi - r, r - span_lo)
        direction = 1.0 if r >= seam else -1.0
        shifted = seam + direction * 3.0 * width
        if shifted <= lo_limit:
            shifted = seam + 3.0 * width
        r = shifted
    raise SeamError(f"could not move evaluation point clear of kinks near r = {r!r}")


def _one_sided(ev, r: float, h: float) -> tuple[float, float]:
    """Second-order one-sided d/dx1 and d2/dx1^2 at (r, 1): from below for h > 0, above for h < 0."""
    f0 = ev(r, 1.0)
    f1 = ev(r - h, 1.0)
    f2 = ev(r - 2.0 * h, 1.0)
    d1 = (3.0 * f0 - 4.0 * f1 + f2) / (2.0 * h)
    d11 = (f0 - 2.0 * f1 + f2) / (h * h)
    return d1, d11


def _partials_at(fn, r: float, mode: str, seams: tuple[float, ...], alpha0: float):
    """Branch partials at (r, 1), shifting the point off seams in fd mode."""
    if mode == "analytic":
        return r, fn.partials(r, 1.0)
    # Keep the whole stencil inside the domain (ratios >= alpha0) and off kinks.
    edge = alpha0 * (1.0 + 10.0 * FD_REL_STEP)
    r_eff = _clear_of_seams(max(r, edge), seams, edge, FD_REL_STEP, FD_MIN_STEP)
    return r_eff, _fd_partials(fn, r_eff, 1.0, FD_REL_STEP, FD_MIN_STEP)


def _tol_equality(mode: str) -> float:
    return TOL_EQUALITY_ANALYTIC if mode == "analytic" else TOL_EQUALITY_FD


def _tol_inequality(mode: str) -> float:
    # Sign checks on finite-difference estimates inherit the truncation error
    # of the stencil, so the tight rounding slack only applies in analytic mode.
    return TOL_INEQUALITY if mode == "analytic" else TOL_EQUALITY_FD


def _normalize_mode(mode: str) -> str:
    if mode == "analytic":
        return mode
    if mode in _FD_MODES:
        return "finite-difference"
    raise ValueError(f"unknown mode {mode!r}; use 'analytic' or 'finite-difference'")


def _grid_pass(fn, p: ModelParams, level: float, n_points: int, mode: str):
    """Evaluate ``fn`` once per ratio of the lemma grid [alpha0, 3 level].

    Returns arrays of the grid ratios r, the values H(r, 1), the ratios
    r_eff where the partials were taken (r, or off a kink in fd mode), the
    partials at r_eff (one row each) and (A - delta)H / scale at r_eff.
    """
    seams = fn.seam_ratios
    rows = []
    for r in np.geomspace(p.alpha0, 3.0 * level, n_points):
        r = float(r)
        value = fn.evaluate(r, 1.0)
        r_eff, parts = _partials_at(fn, r, mode, seams, p.alpha0)
        value_eff = fn.evaluate(r_eff, 1.0) if r_eff != r else value
        gen = _gen_residual(value_eff, parts, r_eff, 1.0, p)
        rows.append((r, value, r_eff, gen, *parts))
    cols = np.array(rows, dtype=float).reshape(-1, 9)
    return cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 4:], cols[:, 3]


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
        h1, _ = _steps(level, 1.0, FD_REL_STEP, FD_MIN_STEP)
        d1b, d11b = _one_sided(fn.evaluate, level, h1)
        out = [abs(d1b - 1.0)]
        curvatures = (d11b,)
    if mid_curvature is not None:
        out += [abs(c) / max(abs(m), 1e-300) for c, m in zip(curvatures, mid_curvature)]
    return out


def _negativity(value: np.ndarray) -> np.ndarray:
    return np.fmax(0.0, -value) / np.fmax(1.0, np.abs(value))


def _worst(condition_id: str, violation, location, tolerance: float) -> ConditionResult:
    """Largest violation of one condition and the first ratio where it occurs.

    No point checked counts as a pass at 0; a NaN counts only at the first
    point, where it fails the condition.
    """
    v = np.asarray(violation, dtype=float)
    if v.size == 0:
        worst, at = 0.0, math.nan
    else:
        i = 0 if math.isnan(v[0]) else int(np.nanargmax(v))
        worst, at = float(v[i]), float(location[i])
    return ConditionResult(
        condition_id=condition_id,
        worst_violation=worst,
        location=at,
        tolerance=tolerance,
        passed=bool(worst <= tolerance),
    )


def _report(
    problem: str, level: float, mode: str, p: ModelParams, n_points: int, table
) -> VerificationReport:
    """Reduce a table of (condition id, violations, locations, tolerance) to a report."""
    conditions = tuple(_worst(*row) for row in table)
    return VerificationReport(
        problem=problem,
        barrier=level,
        mode=mode,
        grid_spec=GridSpec(ratio_lo=p.alpha0, ratio_hi=3.0 * level, n_points=n_points),
        condition_results=conditions,
        passed=all(c.passed for c in conditions),
    )


def check_solvency_lemma(
    p: ModelParams,
    *,
    barrier: float | None = None,
    n_points: int = N_GRID,
    mode: str = "analytic",
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
    validate(p)
    mode = _normalize_mode(mode)
    alpha1 = require_alpha1(p)
    level = constrained_barrier_beta1(p) if barrier is None else float(barrier)
    cf = closed_form_value(level, p)
    tol_eq, tol_ineq = _tol_equality(mode), _tol_inequality(mode)
    r, value, r_eff, parts, gen = _grid_pass(cf, p, level, n_points, mode)
    pasting = _pasting(cf, level, mode)
    pay = r_eff >= alpha1
    band = (p.alpha0 < r_eff) & (r_eff < level)
    above = r_eff > alpha1
    finite = np.isfinite(parts[:, :2]).all(axis=1)
    return _report("solvency", level, mode, p, n_points, [
        ("nonnegative", _negativity(value), r, TOL_INEQUALITY),
        ("c1-pasting", pasting, [level] * len(pasting), tol_eq),
        ("bounded-partials", np.where(finite, 0.0, math.inf), r_eff, TOL_INEQUALITY),
        ("slope-at-least-one", np.fmax(0.0, 1.0 - parts[pay, 0]), r_eff[pay], tol_ineq),
        ("generator-zero-band", np.abs(gen[band]), r_eff[band], tol_eq),
        ("generator-nonpositive-above", np.fmax(0.0, gen[above]), r_eff[above], tol_ineq),
    ])


def check_injection_lemma(
    p: ModelParams,
    *,
    barrier: float | None = None,
    n_points: int = N_GRID,
    mode: str = "analytic",
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
    validate(p)
    mode = _normalize_mode(mode)
    kappa = require_kappa(p)
    level = optimal_barrier_beta2(p) if barrier is None else float(barrier)
    dv = double_barrier_value(level, p.alpha0, p)
    tol_eq, tol_ineq = _tol_equality(mode), _tol_inequality(mode)
    r, value, r_eff, parts, gen = _grid_pass(dv, p, level, n_points, mode)
    # The x2 and mixed curvatures are tied to the x1 curvature by homogeneity,
    # so each is normalised by the matching mid-band curvature magnitude.
    mid_curvature = dv.partials(0.5 * (p.alpha0 + level), 1.0)[2:]
    if mode == "analytic":
        d1_floor = dv.partials(p.alpha0, 1.0)[0]
    else:
        hg, _ = _steps(p.alpha0, 1.0, FD_REL_STEP, FD_MIN_STEP)
        d1_floor = _one_sided(dv.evaluate, p.alpha0, -hg)[0]
    pasting = _pasting(dv, level, mode, mid_curvature) + [abs(d1_floor - kappa) / kappa]
    d1 = parts[:, 0]
    return _report("injection", level, mode, p, n_points, [
        ("c2-pasting", pasting, [level] * (len(pasting) - 1) + [p.alpha0], tol_eq),
        ("nonnegative", _negativity(value), r, TOL_INEQUALITY),
        ("generator-sign", np.fmax(0.0, gen), r_eff, tol_ineq),
        ("slope-corridor", np.fmax(np.fmax(0.0, 1.0 - d1), d1 - kappa), r_eff, tol_ineq),
        ("bounded-dx2", np.where(np.isfinite(parts[:, 1]), 0.0, math.inf), r_eff, TOL_INEQUALITY),
    ])


def check_smooth_fit(p: ModelParams, problem: str = "solvency") -> float | None:
    """Normalised one-sided second derivative at the optimal payout barrier.

    Returns d2V/dx1^2 just below the barrier divided by the same quantity at
    the middle of the continuation band; at the true optimum this is zero up
    to rounding.  For the solvency problem with a binding floor
    (alpha1 > beta0*) the barrier sits at the constraint, smooth fit does not
    apply, and ``None`` is returned.
    """
    validate(p)
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
    mid = 0.5 * (p.alpha0 + level)
    d11_barrier = fn.partials(level, 1.0)[2]
    d11_mid = fn.partials(mid, 1.0)[2]
    if d11_mid == 0.0:
        raise DomainError("mid-band curvature vanished; cannot normalise smooth fit")
    return d11_barrier / abs(d11_mid)
