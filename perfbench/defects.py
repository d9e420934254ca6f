"""Known defects of fundiv, reproduced on every run of the benchmark.

The workloads' inputs stay clear of these defects, so that no operation of
a workload fails on the code as it stands; each is reproduced here instead,
on a fixed parameter set drawn over the ranges of
``tests/helpers.random_params``.  An outcome is recorded in every result
(``known_defects``) and counted in the per-layer metric
``known_defects.reproduced``; it is not a failed operation.  A fix shows as
a case that no longer reproduces.
"""

from __future__ import annotations

from workloads import KAPPA_CAP, injections, params, verify


def _params(**kw):
    return params.validate(params.ModelParams(**kw))


#: beta2*/alpha0 exceeds 2e4 here at kappa = 1e3.  The bisection tolerance
#: 1e-12 alpha0 lies below the float spacing of the root, so the loop never
#: ends; ``breakeven_kappa`` meets it at its default cap (~1 in 20 random sets).
BETA2_HANG = _params(
    mu_A=0.024327338201298447, mu_L=0.0041935311076611685, sigma_A=0.4210642201960036,
    sigma_L=0.47161364019787533, rho=-0.5064380045951415, delta=0.028855806107720764,
    alpha0=1.668597355802255, kappa=KAPPA_CAP,
)

#: At kappa = (1 + kappa*) / 2 the finite-difference injection lemma flags
#: c2-pasting at the optimal barrier (7e-4 > 1e-4) where analytic mode passes:
#: the one-sided second difference with step 1e-5 beta is rounding-limited
#: (~1 in 10 random sets).
INJECTION_FD_PASTING = _params(
    mu_A=-0.0025464459133118372, mu_L=-0.008288493265753462, sigma_A=0.4548378853996101,
    sigma_L=0.3219648901116894, rho=-0.9288553396688111, delta=0.04553793991638941,
    alpha0=0.8202243417842323, kappa=1.0005455683521849,
)

#: The finite-difference solvency lemma flags generator-zero-band
#: (1.2e-4 > 1e-4) at the optimal barrier where analytic mode passes
#: (~1 in 600 random sets).
SOLVENCY_FD_ZERO_BAND = _params(
    mu_A=0.0006935549259695691, mu_L=-0.011011067247472276, sigma_A=0.39565233883339956,
    sigma_L=0.4498000523032823, rho=-0.6270219422081157, delta=0.006362627930043984,
    alpha0=1.4753082519282295, alpha1=3.8711756050442108,
)

#: The hang case is stopped after this long.
HANG_LIMIT_S = 0.5


def _flags(condition_id: str, other_mode_passes):
    def check(report):
        flagged = [c.condition_id for c in report.condition_results if not c.passed]
        if condition_id in flagged and other_mode_passes():
            return f"flags {condition_id} at the optimal barrier; analytic mode passes"
        return None

    return check


def cases():
    """(name, call, check, limit_s) per defect.

    The defect reproduces when the call does not end within ``limit_s`` or
    ``check`` returns a message; any other outcome means it no longer shows.
    """
    inj, solv = INJECTION_FD_PASTING, SOLVENCY_FD_ZERO_BAND
    return [
        ("injections.optimal_barrier_beta2.hang",
         lambda: injections.optimal_barrier_beta2(BETA2_HANG), None, HANG_LIMIT_S),
        ("verify.injection_fd.c2-pasting",
         lambda: verify.check_injection_lemma(inj, mode="finite-difference"),
         _flags("c2-pasting", lambda: verify.check_injection_lemma(inj).passed), 10.0),
        ("verify.solvency_fd.generator-zero-band",
         lambda: verify.check_solvency_lemma(solv, mode="finite-difference"),
         _flags("generator-zero-band", lambda: verify.check_solvency_lemma(solv).passed), 10.0),
    ]

