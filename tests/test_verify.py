"""Verification-lemma grid checks: correct barriers pass in both modes,
perturbed barriers fail loudly, and the generator helpers behave."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fundiv import (
    DomainError,
    MissingParameter,
    NumericalError,
    check_injection_lemma,
    check_smooth_fit,
    check_solvency_lemma,
    closed_form_value,
    double_barrier_value,
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
        approx = generator(verify._fd_partials(fn, r), r, q)
        assert approx == pytest.approx(generator(fn.partials(r, 1.0), r, q), rel=1e-4, abs=1e-8)


def test_generator_fd_is_second_order(monkeypatch):
    # Central differences: halving h should quarter the error, i.e. the
    # log-error/log-h slope sits near 2.  Step pair chosen large enough that
    # truncation still dominates float rounding in the second differences.
    h_coarse, h_fine = 3e-3, 1e-3

    def fd_error(value_fn, r, p, h_rel):
        monkeypatch.setattr(verify, "FD_REL_STEP", h_rel)
        exact = generator(value_fn.partials(r, 1.0), r, p)
        return abs(generator(verify._fd_partials(value_fn, r), r, p) - exact)

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
        (fp - 2.0 * f0 + fm) / (h1 * h1),
        (gp - 2.0 * f0 + gm) / (h2 * h2),
        (fpp - fpm - fmp + fmm) / (4.0 * h1 * h2),
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
            for got, want in zip(verify._fd_partials(fn, grid), nine_call_partials(fn, grid)):
                assert np.array_equal(got, want)
            r = float(grid[verify.N_GRID // 3])
            scalar = verify._fd_partials(fn, r)
            assert all(type(d) is float for d in scalar)
            assert scalar == nine_call_partials(fn, r)

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
    row = verify._worst("cond", [0.0, math.nan, 0.0], [1.0, 2.0, 3.0], 1e-10)
    assert math.isnan(row.worst_violation)
    assert row.location == 2.0
    assert not row.passed
    report = verify._report("solvency", 3.0, "analytic", make_params(), [
        ("cond", [0.0, math.nan, 0.0], [1.0, 2.0, 3.0], 1e-10),
    ])
    assert "cond: worst = nan at r = 2 (tol = 1.0e-10) FAIL" in report.to_text().splitlines()
    assert not report.passed


def test_a_condition_without_grid_points_passes_at_zero():
    # A barrier at alpha0 leaves the band (alpha0, barrier) empty.
    report = check_solvency_lemma(solvency_params(), barrier=P1["alpha0"])
    band = condition(report, "generator-zero-band")
    assert band.worst_violation == 0.0 and band.passed
    assert math.isnan(band.location)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["analytic", "finite-difference"])
def test_lemma_grid_that_overflows_names_the_barrier(mode):
    # 3 barrier is the grid's top end; past float range the grid would read [alpha0, inf].
    for barrier in (math.inf, 1e308):
        with pytest.raises(DomainError, match=re.escape(f"overflows at barrier = {barrier!r}")):
            check_solvency_lemma(solvency_params(), barrier=barrier, mode=mode)
    # Where z2 - z1 is just above 1, the band weights stay finite at barrier 1e308.
    flat = make_params(mu_A=0.02001, mu_L=0.02, delta=0.02002, kappa=1.05)
    with pytest.raises(DomainError, match=re.escape("overflows at barrier = 1e+308")):
        check_injection_lemma(flat, barrier=1e308, mode=mode)
    # At inf the band weights fail first.
    with pytest.raises(NumericalError, match="^band weights overflow at beta = inf"):
        check_injection_lemma(injection_params(), barrier=math.inf, mode=mode)


def test_non_finite_generator_residuals_fail_the_lemma():
    # At a barrier of 1e300 the value itself overflows far up the grid.
    report = check_solvency_lemma(solvency_params(), barrier=1e300)
    above = condition(report, "generator-nonpositive-above")
    assert math.isnan(above.worst_violation)
    assert not above.passed
    assert not report.passed


def test_generator_rows_stay_finite_where_squares_overflow():
    # The grid runs to r = 3e200: r * r and rc * rc overflow there, the generator
    # terms do not, so the detuned barrier is judged, not failed on a NaN.
    report = check_solvency_lemma(solvency_params(), barrier=1e200)
    assert "grid = [1, 2.9999999999999999e+200] x 512 (log)" in report.to_text().splitlines()
    assert all(math.isfinite(c.worst_violation) for c in report.condition_results)
    flagged = [c.condition_id for c in report.condition_results if not c.passed]
    assert flagged == ["slope-at-least-one"]


@pytest.mark.parametrize("mode", ["analytic", "finite-difference"])
@pytest.mark.parametrize("problem", ["solvency", "injection"])
def test_grid_pass_matches_per_point_calls(problem, mode, monkeypatch):
    # The array pass against scalar calls at each point: the same arithmetic
    # per entry, except the residual's sum, which was an fsum per point.
    if problem == "solvency":
        p = solvency_params()
        level = optimal_barrier_beta0(p)
        fn = closed_form_value(level, p)
    else:
        p = injection_params()
        level = optimal_barrier_beta2(p)
        fn = double_barrier_value(level, p.alpha0, p)  # gamma = alpha0, as the lemma builds it
    monkeypatch.setattr(verify, "N_GRID", 64)
    r, value, r_eff, parts, gen = verify._grid_pass(fn, p, level, mode)
    edge = p.alpha0 * (1.0 + 10.0 * verify.FD_REL_STEP)
    for i in range(r.size):
        assert value[i] == fn.evaluate(float(r[i]), 1.0)
        x = float(r_eff[i])
        if mode == "analytic":
            assert x == r[i]
        else:
            # Off the kink, and moved only where the stencil straddled it.
            lo, hi = verify._stencil_span(x)
            assert not lo <= level <= hi
            if x != max(r[i], edge):
                assert abs(x - r[i]) <= 1e-3 * r[i]
        scalar_parts = (
            fn.partials(x, 1.0) if mode == "analytic" else verify._fd_partials(fn, x)
        )
        assert tuple(parts[i]) == tuple(scalar_parts)
        terms = (*verify._generator_terms(scalar_parts, x, p), -p.delta * fn.evaluate(x, 1.0))
        expected = math.fsum(terms) / max(sum(abs(t) for t in terms), 1e-300)
        assert gen[i] == pytest.approx(expected, rel=0, abs=8 * np.finfo(float).eps)


@settings(max_examples=300, deadline=None)
@given(
    alpha0=st.floats(1e-12, 1e6),
    kink=st.one_of(st.floats(1.0, 1.001), st.floats(1.0, 1e3)),
    offsets=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
)
def test_points_on_kinks_move_clear_of_them(alpha0, kink, offsets):
    # Points within three stencil widths of the kink and of the grid's lower edge:
    # one shift clears the kink, and every stencil stays at or above alpha0.
    edge = alpha0 * (1.0 + 10.0 * verify.FD_REL_STEP)
    level = alpha0 * kink
    width = 2.0 * verify.FD_REL_STEP  # the stencil's half-width relative to r
    r = np.maximum([c * (1.0 + width * o) for c in (level, edge) for o in offsets], edge)
    moved = verify._clear_of_kink(r, level, edge)
    lo, hi = verify._stencil_span(moved)
    assert ((hi < level) | (level < lo)).all()
    assert (moved >= edge).all() and (lo >= alpha0).all()
    lo0, hi0 = verify._stencil_span(r)
    straddled = (lo0 <= level) & (level <= hi0)
    assert (moved[~straddled] == r[~straddled]).all()
    assert (abs(moved - r) <= 1e-4 * r).all()
    assert (r[moved < level] < level).all()  # only a move up, off the edge, switches side


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


def test_fd_floor_slope_stencil_stays_below_the_barrier(monkeypatch):
    # The floor slope's one-sided stencil alpha0, alpha0 + h, alpha0 + 2h must not reach the
    # payout kink at the barrier, so for barriers just above alpha0 its step is capped at half
    # the gap.  With the barrier rows left out, c2-pasting's worst entry is the floor row.
    monkeypatch.setattr(verify, "_pasting", lambda *args: [])
    p = injection_params()
    for rel in (1e-5, 1.5e-5):
        report = check_injection_lemma(p, barrier=p.alpha0 * (1.0 + rel), mode="finite-difference")
        floor = condition(report, "c2-pasting")
        assert floor.location == p.alpha0
        assert floor.worst_violation < verify.TOL_EQUALITY_FD


@pytest.mark.parametrize("alpha0", [1e-6, 1e-12])
def test_fd_lemmas_pass_at_small_alpha0(alpha0):
    # The steps are relative, so a small ruin level keeps every stencil inside the domain.
    ps = make_params(alpha0=alpha0, alpha1=1.2 * alpha0)
    pk = make_params(alpha0=alpha0, kappa=1.05)
    assert check_solvency_lemma(ps, mode="finite-difference").passed
    assert check_injection_lemma(pk, mode="finite-difference").passed
