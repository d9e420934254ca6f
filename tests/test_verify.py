"""Verification-lemma grid checks: correct barriers pass in both modes,
perturbed barriers fail loudly, and the generator helpers behave."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from fundiv import (
    ClosedFormValue,
    DomainError,
    MissingParameter,
    breakeven_kappa,
    check_injection_lemma,
    check_smooth_fit,
    check_solvency_lemma,
    closed_form_value,
    double_barrier_value,
    exponents,
    optimal_barrier_beta0,
    optimal_barrier_beta2,
    verify,
)
from helpers import P1, make_params, random_params


def solvency_params(alpha1=1.2):
    return make_params(alpha1=alpha1)


def injection_params():
    return make_params(kappa=1.05)


def condition(report, condition_id):
    matches = [c for c in report.condition_results if c.condition_id == condition_id]
    assert len(matches) == 1, f"{condition_id!r} not found in {report.condition_results}"
    return matches[0]


def optimal_case(problem):
    """(parameters, optimal barrier, value) of ``problem`` on P1, the value as its lemma builds it."""
    if problem == "solvency":
        p = solvency_params()
        level = optimal_barrier_beta0(p)
        return p, level, closed_form_value(level, p)
    p = injection_params()
    level = optimal_barrier_beta2(p)
    return p, level, double_barrier_value(level, p.alpha0, p)  # gamma = alpha0


@pytest.mark.parametrize("mode", ["analytic", "finite-difference"])
@pytest.mark.parametrize("alpha1", [1.2, 5.0])
def test_solvency_lemma_passes_at_optimum(mode, alpha1):
    # alpha1 = 1.2 leaves the free optimum in charge; alpha1 = 5.0 binds.
    p = solvency_params(alpha1)
    report = check_solvency_lemma(p, mode=mode)
    assert report.problem == "solvency"
    assert report.mode == mode
    expected = max(optimal_barrier_beta0(p), alpha1)
    assert report.barrier == pytest.approx(expected, rel=1e-13)
    assert report.passed
    assert all(c.passed for c in report.condition_results)
    assert "worst = -" not in report.to_text()  # a zero worst prints as +0
    ids = [c.condition_id for c in report.condition_results]
    assert ids == [
        "nonnegative",
        "c1-pasting",
        "bounded-partials",
        "slope-at-least-one",
        "generator-zero-band",
        "generator-nonpositive-above",
    ]


@pytest.mark.parametrize("mode", ["analytic", "finite-difference"])
def test_injection_lemma_passes_at_optimum(mode):
    p = injection_params()
    report = check_injection_lemma(p, mode=mode)
    assert report.problem == "injection"
    assert report.barrier == pytest.approx(optimal_barrier_beta2(p), rel=1e-13)
    assert report.passed
    assert "worst = -" not in report.to_text()
    ids = [c.condition_id for c in report.condition_results]
    assert ids == [
        "c2-pasting",
        "nonnegative",
        "generator-sign",
        "slope-corridor",
        "bounded-dx2",
    ]


def test_fd_mode_alias():
    # "fd" is not a mode: the lemma checks take the CLI's two names only.
    p = make_params(alpha1=1.2, kappa=1.05)
    for check in (check_solvency_lemma, check_injection_lemma):
        with pytest.raises(ValueError, match="unknown mode 'fd'"):
            check(p, mode="fd")


def test_perturbed_solvency_barrier_fails_loudly():
    # A barrier 10% off the optimum must break a sign condition by a margin
    # far above the tolerance, not by a rounding whisker.
    p = solvency_params()
    beta0 = optimal_barrier_beta0(p)

    high = check_solvency_lemma(p, barrier=1.1 * beta0)
    assert not high.passed
    slope = condition(high, "slope-at-least-one")
    assert not slope.passed
    assert slope.worst_violation > 100.0 * slope.tolerance

    low = check_solvency_lemma(p, barrier=0.9 * beta0)
    assert not low.passed
    gen = condition(low, "generator-nonpositive-above")
    assert not gen.passed
    assert gen.worst_violation > 100.0 * gen.tolerance


def test_perturbed_injection_barrier_fails_loudly():
    p = injection_params()
    beta2 = optimal_barrier_beta2(p)

    high = check_injection_lemma(p, barrier=1.1 * beta2)
    assert not high.passed
    pasting = condition(high, "c2-pasting")
    assert not pasting.passed
    assert pasting.worst_violation > 100.0 * pasting.tolerance

    low = check_injection_lemma(p, barrier=0.9 * beta2)
    assert not low.passed
    gen = condition(low, "generator-sign")
    assert not gen.passed
    assert gen.worst_violation > 100.0 * gen.tolerance


@pytest.mark.parametrize(
    "problem, factor, condition_id",
    [
        ("solvency", 1.1, "slope-at-least-one"),
        ("solvency", 0.9, "generator-nonpositive-above"),
        ("injection", 1.1, "c2-pasting"),
        ("injection", 0.9, "c2-pasting"),
    ],
)
def test_perturbed_barriers_fail_loudly_in_finite_difference_mode(problem, factor, condition_id):
    # The negative controls above, judged from finite differences: a barrier 10% off the
    # optimum still breaks a condition by several times the stencil's looser tolerance.
    p, level, _ = optimal_case(problem)
    check = check_solvency_lemma if problem == "solvency" else check_injection_lemma
    report = check(p, barrier=factor * level, mode="finite-difference")
    assert not report.passed
    flagged = condition(report, condition_id)
    assert not flagged.passed
    assert flagged.worst_violation >= 5.0 * flagged.tolerance


def test_smooth_fit_vanishes_at_optimal_barriers():
    fit_solvency = check_smooth_fit(solvency_params(), "solvency")
    assert abs(fit_solvency) <= 1e-6
    fit_injection = check_smooth_fit(injection_params(), "injection")
    assert abs(fit_injection) <= 1e-6


def test_smooth_fit_not_applicable_when_floor_binds():
    assert check_smooth_fit(solvency_params(alpha1=5.0), "solvency") is None


def test_smooth_fit_rejects_a_vanished_mid_band_curvature(monkeypatch):
    def flat(beta, p):
        return replace(closed_form_value(beta, p), A=0.0, B=0.0)

    monkeypatch.setattr(verify, "closed_form_value", flat)
    msg = "mid-band curvature vanished; cannot normalise smooth fit"
    with pytest.raises(DomainError, match=f"^{msg}$") as details:
        check_smooth_fit(solvency_params(), "solvency")
    assert type(details.value) is DomainError


def test_smooth_fit_unknown_problem():
    with pytest.raises(ValueError):
        check_smooth_fit(solvency_params(), "liquidation")


def generator(parts, r, p):
    return sum(verify._generator_terms(parts, r, p))


def test_generator_identity_inside_band():
    # (A - delta)V = 0 on the continuation band, so A V = delta V exactly.
    p = make_params()
    cf = closed_form_value(optimal_barrier_beta0(p), p)
    for r in (1.2, 2.0, 3.0):
        av = generator(cf.partials(r, 1.0), r, p)
        assert av == pytest.approx(p.delta * cf.evaluate(r, 1.0), rel=1e-12)


def test_generator_fd_matches_analytic():
    p = make_params()
    cf = closed_form_value(optimal_barrier_beta0(p), p)
    pk = injection_params()
    dv = double_barrier_value(optimal_barrier_beta2(pk), pk.alpha0, pk)
    for fn, r, q in [(cf, 2.0, p), (cf, 5.0, p), (dv, 1.4, pk)]:
        approx = generator(verify._fd_partials(fn, r)[1], r, q)
        assert approx == pytest.approx(generator(fn.partials(r, 1.0), r, q), rel=1e-4, abs=1e-8)


def test_generator_fd_is_second_order(monkeypatch):
    # Central differences: halving h should quarter the error, i.e. the
    # log-error/log-h slope sits near 2.  Step pair chosen large enough that
    # truncation still dominates float rounding in the second differences.
    h_coarse, h_fine = 3e-3, 1e-3

    def fd_error(value_fn, r, p, h_rel):
        monkeypatch.setattr(verify, "FD_REL_STEP", h_rel)
        exact = generator(value_fn.partials(r, 1.0), r, p)
        return abs(generator(verify._fd_partials(value_fn, r)[1], r, p) - exact)

    def slope(value_fn, r, p):
        err_coarse, err_fine = (fd_error(value_fn, r, p, h) for h in (h_coarse, h_fine))
        return math.log(err_coarse / err_fine) / math.log(h_coarse / h_fine)

    p = make_params()
    cf = closed_form_value(optimal_barrier_beta0(p), p)
    for r in (1.5, 2.0, 2.8):
        assert 1.8 <= slope(cf, r, p) <= 2.2

    pk = injection_params()
    dv = double_barrier_value(optimal_barrier_beta2(pk), pk.alpha0, pk)
    assert 1.8 <= slope(dv, 1.4, pk) <= 2.2



def nine_call_partials(fn, x1, x2=1.0):
    """The central-difference partials from nine separate evaluations: the reference."""
    ev = fn.evaluate
    h1, h2 = verify.FD_REL_STEP * x1, verify.FD_REL_STEP * x2
    f0 = ev(x1, x2)
    fp, fm = ev(x1 + h1, x2), ev(x1 - h1, x2)
    gp, gm = ev(x1, x2 + h2), ev(x1, x2 - h2)
    fpp, fpm = ev(x1 + h1, x2 + h2), ev(x1 + h1, x2 - h2)
    fmp, fmm = ev(x1 - h1, x2 + h2), ev(x1 - h1, x2 - h2)
    return (
        (fp - fm) / (2.0 * h1),
        (gp - gm) / (2.0 * h2),
        (fp - 2.0 * f0 + fm) / h1 / h1,
        (gp - 2.0 * f0 + gm) / h2 / h2,
        (fpp - fpm - fmp + fmm) / (4.0 * h1) / h2,
    )


def test_one_stencil_evaluation_matches_nine():
    rng = np.random.default_rng(2024)
    for p in [injection_params(), *(random_params(rng, with_kappa=True) for _ in range(3))]:
        for fn in (
            closed_form_value(optimal_barrier_beta0(p), p),
            double_barrier_value(optimal_barrier_beta2(p), p.alpha0, p),
        ):
            edge = p.alpha0 * (1.0 + 10.0 * verify.FD_REL_STEP)
            grid = np.geomspace(edge, 3.0 * fn.beta, verify.N_GRID)
            value, parts = verify._fd_partials(fn, grid)
            assert np.array_equal(value, fn.evaluate(grid, 1.0))
            for got, want in zip(parts, nine_call_partials(fn, grid)):
                assert np.array_equal(got, want)
            r = float(grid[verify.N_GRID // 3])
            value, parts = verify._fd_partials(fn, r)
            assert (value, parts) == (fn.evaluate(r, 1.0), nine_call_partials(fn, r))

def test_lemma_checks_require_their_optional_parameter():
    with pytest.raises(MissingParameter):
        check_solvency_lemma(make_params())
    with pytest.raises(MissingParameter):
        check_injection_lemma(make_params())
    # beta2* and the injection smooth fit rely on psi's own check for kappa.
    msg = "parameter 'kappa' is required for the capital-injection problem"
    with pytest.raises(MissingParameter, match=f"^{msg}$"):
        optimal_barrier_beta2(make_params())
    with pytest.raises(MissingParameter, match=f"^{msg}$"):
        check_smooth_fit(make_params(), "injection")


def test_report_to_text_shape():
    report = check_solvency_lemma(solvency_params())
    text = report.to_text()
    lines = text.splitlines()
    assert lines[0] == "problem = solvency"
    assert lines[1].startswith("barrier = ")
    assert lines[2] == "mode = analytic"
    assert lines[3].startswith("grid = [")
    for c, line in zip(report.condition_results, lines[4:-1]):
        assert line.startswith(f"{c.condition_id}: worst = ")
        assert "(tol = " in line
        assert line.endswith("PASS")
    assert lines[-1] == "passed = true"
    assert not text.endswith("\n")
    assert float(lines[1].partition(" = ")[2]) == report.barrier  # 17 digits round-trip

    bad = check_solvency_lemma(solvency_params(), barrier=2.0 * P1["alpha0"])
    bad_text = bad.to_text()
    assert "FAIL" in bad_text
    assert bad_text.splitlines()[-1] == "passed = false"


def test_nan_anywhere_fails_its_condition():
    # One reduction over candidate (violation, ratio) pairs serves both modes.
    row = verify._worst("cond", [(0.0, 1.0), (math.nan, 2.0), (0.0, 3.0), (math.nan, 4.0)], 1e-10)
    assert math.isnan(row.worst_violation)
    assert row.location == 2.0
    assert not row.passed
    report = verify._report("solvency", 3.0, "analytic", make_params(), [row])
    assert "cond: worst = nan at r = 2 (tol = 1.0e-10) FAIL" in report.to_text().splitlines()
    assert not report.passed


def test_a_condition_without_grid_points_passes_at_zero():
    # A barrier at alpha0 leaves the band (alpha0, barrier) empty, in either mode.
    for mode in verify.MODES:
        report = check_solvency_lemma(solvency_params(), barrier=P1["alpha0"], mode=mode)
        band = condition(report, "generator-zero-band")
        assert band.worst_violation == 0.0 and band.passed
        assert math.isnan(band.location)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["analytic", "finite-difference"])
def test_lemma_grid_that_overflows_names_the_barrier(mode):
    # 3 barrier is the fd grid's top end; past float range the grid would read [alpha0, inf].
    # Analytic mode has no grid: it judges such a barrier on [alpha0, inf) and fails it.
    cases = [(check_solvency_lemma, solvency_params(), b) for b in (math.inf, 1e308)]
    # Where z2 - z1 is just above 1, the band weights stay finite at barrier 1e308.
    flat = make_params(mu_A=0.02001, mu_L=0.02, delta=0.02002, kappa=1.05)
    cases.append((check_injection_lemma, flat, 1e308))
    # At inf the band weights are finite, so the grid fails as in the solvency check.
    cases.append((check_injection_lemma, injection_params(), math.inf))
    for check, p, barrier in cases:
        if mode == "finite-difference":
            with pytest.raises(DomainError, match=re.escape(f"overflows at barrier = {barrier!r}")):
                check(p, barrier=barrier, mode=mode)
        else:
            report = check(p, barrier=barrier, mode=mode)
            assert "grid = [1, inf) (exact)" in report.to_text().splitlines()
            assert not report.passed


@pytest.mark.parametrize("check", [check_solvency_lemma, check_injection_lemma])
def test_finite_difference_lemma_at_a_tiny_floor_raises_no_warning(check):
    # A RuntimeWarning is an error in this suite.
    p = make_params(alpha0=1e-200, alpha1=1.2e-200, kappa=1.05)
    report = check(p, mode="finite-difference")
    assert report.ratio_lo == 1e-200 and report.mode == "finite-difference"
    assert report.passed


def test_non_finite_generator_residuals_fail_the_lemma():
    # At a barrier of 1e300 the value itself overflows far up the fd grid: evaluate's power
    # u^zeta2 leaves float range there.
    report = check_solvency_lemma(solvency_params(), barrier=1e300, mode="finite-difference")
    above = condition(report, "generator-nonpositive-above")
    assert math.isnan(above.worst_violation)
    assert not above.passed
    assert not report.passed


@pytest.mark.parametrize("barrier", [1e300, 1e308])
def test_exact_rows_stay_finite_where_the_band_power_alone_overflows(barrier):
    # u^zeta2 passes float range at these barriers, B u^zeta2 does not: the band reads stay
    # finite, and the detuned barrier still fails on its slope alone.
    report = check_solvency_lemma(solvency_params(), barrier=barrier)
    assert all(math.isfinite(c.worst_violation) for c in report.condition_results)
    assert condition(report, "bounded-partials").worst_violation == 0.0
    assert condition(report, "generator-zero-band").worst_violation < 1e-15
    assert condition(report, "generator-nonpositive-above").worst_violation == 0.0
    flagged = [c.condition_id for c in report.condition_results if not c.passed]
    assert flagged == ["slope-at-least-one"]
    pasting = condition(check_injection_lemma(injection_params(), barrier=1e300), "c2-pasting")
    assert pasting.worst_violation == pytest.approx(0.1165, rel=1e-3) and not pasting.passed


def test_generator_rows_stay_finite_where_squares_overflow():
    # At the barrier 1e200, r * r overflows and the generator terms do not, so the
    # detuned barrier is judged, not failed on a NaN.
    report = check_solvency_lemma(solvency_params(), barrier=1e200)
    assert "grid = [1, inf) (exact)" in report.to_text().splitlines()
    assert all(math.isfinite(c.worst_violation) for c in report.condition_results)
    flagged = [c.condition_id for c in report.condition_results if not c.passed]
    assert flagged == ["slope-at-least-one"]


@pytest.mark.parametrize("mode", ["analytic", "finite-difference"])
@pytest.mark.parametrize("problem", ["solvency", "injection"])
def test_grid_pass_matches_per_point_calls(problem, mode, monkeypatch):
    # The array pass against scalar calls at each point: the same arithmetic
    # per entry, except the residual's sum, which was an fsum per point.
    p, level, fn = optimal_case(problem)
    monkeypatch.setattr(verify, "N_GRID", 64)
    if mode == "analytic":
        # No grid: the certificates' Python-float reads of the band formula against the
        # array calls at the same ratios, equal up to math's exp and log against numpy's.
        band = verify._Band(fn, p)
        for x in np.geomspace(p.alpha0, level, verify.N_GRID).tolist():
            read = band.read(x)
            d1, d2, d11, _, _ = fn.partials(x, 1.0)
            got, want = (read.value, read.d1, read.d2, read.d11), (fn.evaluate(x, 1.0), d1, d2, d11)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-15)
            assert abs(read.gen) <= 8 * np.finfo(float).eps
        return
    values, reads = verify._grid_pass(fn, p, level)
    r = np.geomspace(p.alpha0, 3.0 * level, verify.N_GRID)
    assert [x.r for x in values] == r.tolist()
    for x in values:
        assert x.value == fn.evaluate(x.r, 1.0)
    # Kept exactly where the whole stencil lies at or above alpha0 and misses the kink.
    spans = [verify._stencil_span(float(x)) for x in r]
    keep = [lo >= p.alpha0 and not lo <= level <= hi for lo, hi in spans]
    assert not keep[0] and sum(keep) == r.size - 1  # r[0] = alpha0
    assert [x.r for x in reads] == r[keep].tolist()
    for x in reads:
        value, scalar_parts = verify._fd_partials(fn, x.r)
        assert (x.value, x.d1, x.d2, x.d11) == (value, *scalar_parts[:3])
        terms = (*verify._generator_terms(scalar_parts, x.r, p), -p.delta * fn.evaluate(x.r, 1.0))
        expected = math.fsum(terms) / max(sum(abs(t) for t in terms), 1e-300)
        assert x.gen == pytest.approx(expected, rel=0, abs=8 * np.finfo(float).eps)


@pytest.mark.parametrize("problem", ["solvency", "injection"])
def test_fd_rows_skip_ratios_within_a_stencil_of_the_kink_and_of_alpha0(problem, monkeypatch):
    # Grid ratios placed within one stencil half-width of the barrier and of alpha0 are
    # not differenced; those 1.5 half-widths or more off either are.
    p, level, fn = optimal_case(problem)
    width = 2.0 * verify.FD_REL_STEP  # the stencil's half-width relative to r
    near = [level * (1.0 + width * o) for o in (-0.9, -0.5, 0.0, 0.5, 0.9)]
    near += [p.alpha0 * (1.0 + width * o) for o in (0.0, 0.5, 0.9)]
    far = [level * (1.0 + width * o) for o in (-3.0, -1.5, 1.5, 3.0)]
    far += [p.alpha0 * (1.0 + width * o) for o in (1.5, 3.0)]
    grid = np.array(sorted(near + far))
    monkeypatch.setattr(verify.np, "geomspace", lambda *args: grid)
    values, reads = verify._grid_pass(fn, p, level)
    assert [x.r for x in values] == grid.tolist()
    assert [x.r for x in reads] == sorted(far)
    assert all(math.isfinite(x.d1 + x.d2 + x.d11 + x.gen) for x in reads)


def test_fd_barrier_overrides_just_above_alpha0():
    # The one-sided pasting stencil below the barrier stays at or above alpha0; a barrier
    # at alpha0 leaves it no room, so that row reads NaN and fails.
    p = solvency_params()
    at_floor = check_solvency_lemma(p, barrier=p.alpha0, mode="finite-difference")
    pasting = condition(at_floor, "c1-pasting")
    assert math.isnan(pasting.worst_violation) and not pasting.passed
    assert not at_floor.passed
    just_above = p.alpha0 * (1.0 + 1e-5)
    for check, q in ((check_solvency_lemma, p), (check_injection_lemma, injection_params())):
        report = check(q, barrier=just_above, mode="finite-difference")
        assert report.barrier == just_above
        assert all(math.isfinite(c.worst_violation) for c in report.condition_results)


class Recorder:
    """A value whose ``evaluate`` records every ratio it is asked for."""

    def __init__(self, fn):
        self.fn, self.ratios = fn, []

    def evaluate(self, x1, x2):
        self.ratios += np.ravel(x1).tolist()
        return self.fn.evaluate(x1, x2)


def test_fd_floor_slope_stencil_stays_below_the_barrier():
    # The floor slope's one-sided stencil alpha0, alpha0 + h, alpha0 + 2h must not pass the
    # payout kink at the barrier, so for barriers just above alpha0 its step is capped at half
    # the gap, and the slope it reads is still kappa.
    p = injection_params()
    for rel in (1e-5, 1.5e-5):
        barrier = p.alpha0 * (1.0 + rel)
        fn = Recorder(double_barrier_value(barrier, p.alpha0, p))
        d1_floor, _ = verify._ray(fn, p.alpha0, barrier)
        assert min(fn.ratios) == p.alpha0 and max(fn.ratios) <= barrier
        assert abs(d1_floor - p.kappa) / p.kappa < verify.TOL_EQUALITY_FD


@pytest.mark.parametrize("factor", [1.1, 0.9])
def test_both_modes_read_one_pasting_quantity(factor):
    # Both modes apply one row list to their own reads, so a detuned barrier fails the same
    # rows in each, by the same worst at the same ratio up to the stencil's error and the
    # grid's spacing.  Each c2-pasting row is the x1-slope or x1-curvature at a ray in both.
    for problem in ("solvency", "injection"):
        p, level, _ = optimal_case(problem)
        check = check_solvency_lemma if problem == "solvency" else check_injection_lemma
        analytic, fd = (check(p, barrier=factor * level, mode=mode).condition_results
                        for mode in ("analytic", "finite-difference"))
        failed = [c.condition_id for c in analytic if not c.passed]
        assert failed and failed == [c.condition_id for c in fd if not c.passed]
        for a, f in zip(analytic, fd):
            if a.condition_id in failed:
                assert a.worst_violation == pytest.approx(f.worst_violation, rel=0.03), (a, f)
                assert a.location == pytest.approx(f.location, rel=0.01), (a, f)
        pasting = [(a, f) for a, f in zip(analytic, fd) if a.condition_id == "c2-pasting"]
        for a, f in pasting:
            assert a.location == f.location
            assert a.worst_violation == pytest.approx(f.worst_violation, rel=1e-3)


@pytest.mark.parametrize("alpha0", [1e-300, 1e-160, 1e-12, 1e-6, 1e160, 1e300])
def test_fd_lemmas_pass_at_any_alpha0(alpha0):
    # The steps are relative, so a small ruin level keeps every stencil inside the domain,
    # and each difference divides by one step at a time, so none leaves float range.
    ps = make_params(alpha0=alpha0, alpha1=1.2 * alpha0)
    pk = make_params(alpha0=alpha0, kappa=1.05)
    assert check_solvency_lemma(ps, mode="finite-difference").passed
    assert check_injection_lemma(pk, mode="finite-difference").passed


def test_fd_pasting_reads_no_analytic_partials(monkeypatch):
    # Finite-difference mode checks the closed form from its values alone: with the
    # curvatures of ClosedFormValue.partials inflated 1e4 times, the fd report is unchanged
    # and the detuned barrier still fails c2-pasting loudly.
    p = injection_params()
    barrier = 1.1 * optimal_barrier_beta2(p)
    honest = check_injection_lemma(p, barrier=barrier, mode="finite-difference")
    partials = ClosedFormValue.partials

    def inflated(self, x1, x2):
        d1, d2, d11, d22, d12 = partials(self, x1, x2)
        return d1, d2, 1e4 * d11, 1e4 * d22, 1e4 * d12

    monkeypatch.setattr(ClosedFormValue, "partials", inflated)
    report = check_injection_lemma(p, barrier=barrier, mode="finite-difference")
    pasting = condition(report, "c2-pasting")
    assert not pasting.passed
    assert pasting.worst_violation >= 100.0 * pasting.tolerance
    assert report == honest
    # The worst is the barrier curvature over the one-sided one at mid-band.
    fn = double_barrier_value(barrier, p.alpha0, p)
    d11_mid = verify._ray(fn, 0.5 * (p.alpha0 + barrier), barrier)[1]
    assert pasting.worst_violation == abs(verify._ray(fn, barrier, p.alpha0)[1]) / abs(d11_mid)


def dense_worsts(problem, p, fn, n):
    """Worst violation per condition of ``fn`` over n log-spaced ratios of [alpha0, 3 beta],
    from the array evaluation and exact partials: the grid check the certificates replace."""
    level = fn.beta
    r = np.geomspace(p.alpha0, 3.0 * level, n)
    value = fn.evaluate(r, 1.0)
    parts = fn.partials(r, 1.0)
    d1, d2 = parts[:2]
    terms = (*verify._generator_terms(parts, r, p), -p.delta * value)
    gen = sum(terms) / np.maximum(sum(np.abs(t) for t in terms), 1e-300)
    top_d1, _, top_d11, _, _ = fn.partials(level, 1.0)

    def worst(v):
        return float(np.max(v)) if v.size else 0.0

    rows = {"nonnegative": worst(np.maximum(0.0, -value) / np.maximum(1.0, np.abs(value)))}
    if problem == "solvency":
        rows["c1-pasting"] = abs(top_d1 - 1.0)
        rows["bounded-partials"] = 0.0 if np.isfinite([d1, d2]).all() else math.inf
        rows["slope-at-least-one"] = worst(np.maximum(0.0, 1.0 - d1[r >= p.alpha1]))
        rows["generator-zero-band"] = worst(np.abs(gen[(p.alpha0 < r) & (r < level)]))
        rows["generator-nonpositive-above"] = worst(np.maximum(0.0, gen[r > p.alpha1]))
    else:
        mid_d11 = fn.partials(0.5 * (p.alpha0 + level), 1.0)[2]
        floor_d1 = fn.partials(p.alpha0, 1.0)[0]
        rows["c2-pasting"] = max(abs(top_d1 - 1.0), abs(top_d11) / max(abs(mid_d11), 1e-300),
                                 abs(floor_d1 - p.kappa) / p.kappa)
        rows["generator-sign"] = worst(np.maximum(0.0, gen))
        rows["slope-corridor"] = worst(np.maximum(np.maximum(0.0, 1.0 - d1), d1 - p.kappa))
        rows["bounded-dx2"] = 0.0 if np.isfinite(d2).all() else math.inf
    return rows


@pytest.mark.parametrize("problem", ["solvency", "injection"])
def test_exact_checks_agree_with_a_dense_grid(problem):
    # On [alpha0, 3 barrier] the certificates take the exact supremum, so each worst is at
    # least that of 20,001 grid ratios, up to rounding, and every verdict is the same.  Each
    # injection set runs at its drawn cost (mostly above kappa*, where the value turns
    # negative) and halfway to kappa*, below which the optimum passes.
    rng = np.random.default_rng(3232)
    cases = []
    for _ in range(20):
        p = random_params(rng, with_kappa=True)
        p = replace(p, alpha1=p.alpha0 * rng.uniform(1.05, 3.0))
        cases.append(p)
        if problem == "injection":
            cases.append(replace(p, kappa=0.5 * (1.0 + breakeven_kappa(p, kappa_cap=10.0))))
    check = check_solvency_lemma if problem == "solvency" else check_injection_lemma
    for p in cases:
        optimum = optimal_barrier_beta0(p) if problem == "solvency" else optimal_barrier_beta2(p)
        for factor in (0.5, 0.9, 1.0, 1.1, 2.0):
            level = factor * max(optimum, p.alpha1) if problem == "solvency" else factor * optimum
            if level <= p.alpha0:  # no band to check
                continue
            fn = (closed_form_value(level, p) if problem == "solvency"
                  else double_barrier_value(level, p.alpha0, p))
            assert_certifies(check(p, barrier=level), dense_worsts(problem, p, fn, 20_001))


def assert_certifies(report, dense):
    """Each exact worst is at least the dense grid's, up to rounding, with the same verdict."""
    assert {c.condition_id for c in report.condition_results} == set(dense)
    for c in report.condition_results:
        grid = dense[c.condition_id]
        assert c.worst_violation >= grid * (1.0 - 1e-9) - 1e-12, (c, grid)
        assert c.passed == (grid <= c.tolerance), (c, grid)


@pytest.mark.parametrize("nudge", [1e-6, -1e-6])
@pytest.mark.parametrize("root", ["zeta1", "zeta2"])
@pytest.mark.parametrize("problem", ["solvency", "injection"])
def test_a_band_off_the_characteristic_roots_is_judged_as_on_a_dense_grid(problem, root, nudge,
                                                                          monkeypatch):
    # A root nudged off leaves a band residual of ~1e-7 relative, of either sign: the exact
    # check reads no less than the dense grid, with its verdicts.  Over a band reaching past
    # the smooth-fit ratio, where the curvature terms vanish, the residual peaks inside it.
    p, level, _ = optimal_case(problem)
    if problem == "solvency":
        build, fn = "closed_form_value", closed_form_value(2.0 * level, p)
    else:
        build, fn = "double_barrier_value", double_barrier_value(2.0 * level, p.alpha0, p)
    off = replace(fn, exponents=fn.exponents._replace(
        **{root: getattr(fn.exponents, root) * (1.0 + nudge)}))
    monkeypatch.setattr(verify, build, lambda *args: off)
    check = check_solvency_lemma if problem == "solvency" else check_injection_lemma
    report = check(p, barrier=off.beta)
    if problem == "solvency":
        assert not condition(report, "generator-zero-band").passed
    assert_certifies(report, dense_worsts(problem, p, off, 20_001))


def test_exact_check_flags_a_dip_between_grid_points(monkeypatch):
    # A hand-built band value that falls through zero just below its barrier: V(beta) is
    # -1e-9, and V < 0 only within ~2e-9 of beta, where no ratio of the 512-point grid lies.
    p = solvency_params()
    e = exponents(p)
    beta = 2.0
    dip = ClosedFormValue(beta=beta, gamma=p.alpha0, alpha0=p.alpha0, kappa=None, exponents=e,
                          A=1.0, B=-(beta ** e.zeta1 + 1e-9) / beta ** e.zeta2)
    assert -1.1e-9 < dip.evaluate(beta, 1.0) < -0.9e-9 < 0.0 < dip.evaluate(beta * (1 - 1e-8), 1.0)
    monkeypatch.setattr(verify, "closed_form_value", lambda level, q: dip)
    exact = condition(check_solvency_lemma(p, barrier=beta), "nonnegative")
    assert not exact.passed
    assert exact.worst_violation == pytest.approx(1e-9, rel=0.1) and exact.location == beta
    grid = condition(check_solvency_lemma(p, barrier=beta, mode="finite-difference"), "nonnegative")
    assert grid.passed and grid.worst_violation == 0.0
    assert dense_worsts("solvency", p, dip, verify.N_GRID)["nonnegative"] == 0.0
