"""Stream-contract probe: per-path outputs must not depend on how paths are run.

Each path owns a counter-based Philox stream, so a fixed seed pins every
per-path output bit for bit, for any worker count and for both arms of a
common-random-number pairing.  The probe runs a single, an antithetic and a
paired simulation at one and at two workers (the core count of the machine
the digests were recorded on), hashes the per-path arrays and compares the
hash with the digest recorded below.  A speed-up that changes a digest has
changed results, not just time.

The digests were recorded with numpy 2.4 on x86-64.  A different numpy or a
CPU without the same SIMD ``exp`` path may change the last bits of the
outputs; then the digests are re-recorded by a benchmark change, never by a
change that claims a gain.
"""

from __future__ import annotations

import hashlib

import numpy as np

SEED = 20220310
N_PATHS = 64
WORKER_COUNTS = (1, 2)

#: sha256 of the per-path outputs of each probe run, for every worker count.
DIGESTS = {
    "single": "9a95548ad62a83d00c2a1c5fd165b25d9c725f9f6964ee123ca2c8c3b59ce63f",
    "antithetic": "9edcc2c595c1b24c1cea1804507a571597f10e23322aeceb3aedc6d2e13a4a76",
    "paired": "6e808e108f451eee2d840ab33b9dd6d857a0bf07bf65ee82c67e8acdd7937f8c",
}


def _cases():
    # Imported here, after workloads.py has put the checkout's src/ on the path.
    from fundiv import closed_form, injections, params, simulate

    p = params.validate(
        params.ModelParams(
            mu_A=0.05, mu_L=0.02, sigma_A=0.3, sigma_L=0.1, rho=0.3, delta=0.06, alpha0=1.0, kappa=1.05
        )
    )
    beta0 = closed_form.optimal_barrier_beta0(p)
    beta2 = injections.optimal_barrier_beta2(p)

    def cfg(x1_0, antithetic, workers):
        return simulate.SimConfig(
            x1_0=x1_0, x2_0=1.0, dt=1.0 / 12.0, horizon_T=20.0, n_paths=N_PATHS, seed=SEED,
            antithetic=antithetic, n_workers=workers,
        )

    ruin = simulate.UnconstrainedBarrier(beta=beta0)

    def paired(workers):
        pc = simulate.paired_compare(
            cfg(1.5, False, workers),
            simulate.DoubleBarrier(beta=beta2, gamma=p.alpha0),
            simulate.DoubleBarrier(beta=1.25 * beta2, gamma=p.alpha0),
            p,
        )
        return [pc.result_a, pc.result_b]

    return {
        "single": lambda w: [simulate.simulate_paths(cfg(2.0, False, w), ruin, p)],
        "antithetic": lambda w: [simulate.simulate_paths(cfg(2.0, True, w), ruin, p)],
        "paired": paired,
    }


def digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        for arr in (r.pv_dividends, r.pv_injections, r.ruin_time, r.censored):
            h.update(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())
    return h.hexdigest()


def probe_ops():
    """(name, call, check) for each probe run; ``check`` returns None or a failure message."""
    cases = _cases()
    ops = []
    for kind, run in cases.items():
        for workers in WORKER_COUNTS:
            def check(results, kind=kind, workers=workers):
                got = digest(results)
                if got != DIGESTS[kind]:
                    return f"stream digest of {kind} at {workers} workers is {got}, expected {DIGESTS[kind]}"
                return None

            ops.append((f"streams.{kind}.w{workers}", lambda run=run, w=workers: run(w), check))
    return ops
