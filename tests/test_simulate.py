"""Monte Carlo engine: config validation, determinism across workers,
antithetic pairing, control ordering, and the summary statistics."""

import io
import math
import re
import statistics
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fundiv import (
    ConfigError,
    DoubleBarrier,
    MissingParameter,
    SimConfig,
    SolvencyConstrained,
    UnconstrainedBarrier,
    closed_form_value,
    constrained_barrier_beta1,
    exponents,
    optimal_barrier_beta0,
    optimal_barrier_beta2,
    paired_compare,
    simulate,
    simulate_paths,
    summarize,
    write_paired_csv,
    write_paths_csv,
)
from helpers import P1, make_params

BASE_CFG = SimConfig(x1_0=2.0, x2_0=1.0, dt=0.25, horizon_T=2.0, n_paths=8, seed=99)


def assert_same_paths(a, b):
    for field in ("pv_dividends", "pv_injections", "ruin_time", "censored"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def test_config_rejections():
    p = make_params()
    pol = UnconstrainedBarrier(beta=1.5)
    bad = [
        (replace(BASE_CFG, dt=0.0), pol, p),
        (replace(BASE_CFG, dt=-0.1), pol, p),
        (replace(BASE_CFG, horizon_T=0.0), pol, p),
        (replace(BASE_CFG, n_paths=0), pol, p),
        (replace(BASE_CFG, n_paths=7, antithetic=True), pol, p),
        (replace(BASE_CFG, seed=-1), pol, p),
        (replace(BASE_CFG, seed=2**128), pol, p),
        (replace(BASE_CFG, n_workers=0), pol, p),
        (replace(BASE_CFG, x2_0=0.0), pol, p),
        (replace(BASE_CFG, x1_0=0.5), pol, p),  # starts below the ruin ray
        (replace(BASE_CFG, dt=4.0), pol, p),  # horizon shorter than one step
        (replace(BASE_CFG, dt=0.3), pol, p),  # 2.0 is not a whole number of steps
        (replace(BASE_CFG, x1_0=math.inf), pol, p),
        (replace(BASE_CFG, x1_0=math.nan), pol, p),
        (replace(BASE_CFG, x1_0=1e300, x2_0=1e-300), pol, p),  # the start ratio overflows to inf
        (replace(BASE_CFG, seed=True), pol, p),
        (replace(BASE_CFG, seed=np.bool_(True)), pol, p),
        (replace(BASE_CFG, seed=np.float64(99.0)), pol, p),
        (replace(BASE_CFG, seed=np.int64(-1)), pol, p),
        (replace(BASE_CFG, dt=math.inf), pol, p),
        (replace(BASE_CFG, horizon_T=math.inf), pol, p),
        (replace(BASE_CFG, dt=5e-324), pol, p),  # horizon_T / dt overflows to inf
        (replace(BASE_CFG, n_paths=2.5), pol, p),
        (replace(BASE_CFG, n_paths=True), pol, p),
        (replace(BASE_CFG, n_workers=1.5), pol, p),
        (replace(BASE_CFG, n_workers=True), pol, p),
        (BASE_CFG, UnconstrainedBarrier(beta=0.5), p),
        (BASE_CFG, SolvencyConstrained(beta=2.0, alpha1=1.0), p),
        (BASE_CFG, SolvencyConstrained(beta=1.1, alpha1=1.2), p),
        (BASE_CFG, SolvencyConstrained(beta=2.0, alpha1=None), p),
        (BASE_CFG, DoubleBarrier(beta=2.0, gamma=0.5), make_params(kappa=1.05)),
        (BASE_CFG, DoubleBarrier(beta=1.3, gamma=1.3), make_params(kappa=1.05)),
        (BASE_CFG, "pay everything", p),
    ]
    for cfg, policy, params in bad:
        with pytest.raises(ConfigError):
            simulate_paths(cfg, policy, params)


def test_numpy_integer_seed_matches_int():
    p = make_params()
    pol = UnconstrainedBarrier(beta=1.5)
    ref = simulate_paths(BASE_CFG, pol, p)
    for seed in (np.int64(99), np.uint8(99)):
        assert_same_paths(simulate_paths(replace(BASE_CFG, seed=seed), pol, p), ref)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    dt=st.one_of(st.floats(), st.floats(1e-6, 10.0)),
    n_paths=st.integers(-1, 10**9),
    seed=st.one_of(
        st.integers(-1, 2**129),
        st.integers(0, 2**63 - 1).map(np.int64),
        st.sampled_from([True, np.bool_(False), 5.0, np.float64(5.0), np.uint64(2**63)]),
    ),
    antithetic=st.booleans(),
    n_workers=st.integers(-1, 64),
    x1_0=st.one_of(st.floats(1.0, 10.0), st.floats()),
    x2_0=st.one_of(st.just(1.0), st.floats()),
)
def test_validate_run_accepts_only_whole_step_horizons(
    data, dt, n_paths, seed, antithetic, n_workers, x1_0, x2_0
):
    # Validation alone: nothing is simulated, so any path count is cheap.
    # Half the horizons sit within a relative 1e-8 of a whole number of steps.
    near_whole = st.builds(
        lambda steps, slack: steps * dt * (1.0 + slack),
        st.integers(1, 10**6),
        st.floats(-1e-8, 1e-8),
    )
    horizon_T = data.draw(st.one_of(near_whole, st.floats()))
    cfg = SimConfig(
        x1_0=x1_0, x2_0=x2_0, dt=dt, horizon_T=horizon_T, n_paths=n_paths, seed=seed,
        antithetic=antithetic, n_workers=n_workers,
    )
    try:
        n_steps = simulate._validate_run(cfg, UnconstrainedBarrier(beta=1.5), make_params())
    except ConfigError:
        return
    assert isinstance(n_steps, int) and n_steps >= 1
    assert abs(n_steps * dt - horizon_T) <= 1e-9 * horizon_T


def test_validate_run_caps_the_step_count_at_2_53():
    # Past 2**53 the step index k, and so t_k = k dt, is no longer exact.
    pol = UnconstrainedBarrier(beta=1.5)
    cfg = replace(BASE_CFG, horizon_T=1.0)
    msg = "horizon_T / dt = 1.0 / 1e-300 = 9.999999999999999e+299 steps exceeds 2**53"
    with pytest.raises(ConfigError, match=f"^{re.escape(msg)}$"):
        simulate._validate_run(replace(cfg, dt=1e-300), pol, make_params())
    msg = "horizon_T / dt = 1e+300 / 1e-300 = inf steps exceeds 2**53"
    with pytest.raises(ConfigError, match=f"^{re.escape(msg)}$"):
        simulate._validate_run(replace(cfg, horizon_T=1e300, dt=1e-300), pol, make_params())
    assert simulate._validate_run(replace(cfg, dt=2.0**-53), pol, make_params()) == 2**53


def test_double_barrier_needs_kappa():
    with pytest.raises(MissingParameter):
        simulate_paths(BASE_CFG, DoubleBarrier(beta=2.0, gamma=1.0), make_params())


def test_one_step_matches_manual_recomputation():
    # Reproduce the engine's draws from the same counter-based streams and
    # recompute one exact lognormal step by hand, including the antithetic
    # negation of the odd path.
    p = make_params()
    cfg = SimConfig(
        x1_0=2.0, x2_0=1.0, dt=1.0, horizon_T=1.0, n_paths=2, seed=777, antithetic=True
    )
    beta = 1.5
    result = simulate_paths(cfg, UnconstrainedBarrier(beta=beta), p)

    z = np.random.Generator(np.random.Philox(key=777).jumped(0)).standard_normal(2)
    for i, sign in enumerate((1.0, -1.0)):
        z1, z2 = sign * z[0], sign * z[1]
        pvd = cfg.x1_0 - beta * cfg.x2_0  # lump at t = 0, discount 1
        x1 = beta * cfg.x2_0
        x2 = cfg.x2_0
        x1 *= np.exp((p.mu_A - 0.5 * p.sigma_A**2) * cfg.dt + p.sigma_A * math.sqrt(cfg.dt) * z1)
        x2 *= np.exp(
            (p.mu_L - 0.5 * p.sigma_L**2) * cfg.dt
            + p.sigma_L * math.sqrt(cfg.dt) * (p.rho * z1 + math.sqrt(1 - p.rho**2) * z2)
        )
        if x1 <= p.alpha0 * x2:
            assert result.ruin_time[i] == 0.0 or result.ruin_time[i] == 1.0
            assert not result.censored[i]
        else:
            pvd += max(x1 - beta * x2, 0.0) * np.exp(-p.delta * cfg.dt)
            assert result.censored[i]
        assert result.pv_dividends[i] == pytest.approx(pvd, rel=1e-15)


def _plain_state(state):
    if isinstance(state, dict):
        return {key: _plain_state(value) for key, value in state.items()}
    if isinstance(state, np.ndarray):
        return state.tolist()
    return state


def test_path_streams_match_jumped_streams():
    # Each stream is built straight at its counter; it must sit exactly where
    # jumping the master Philox would put it, buffer and all.
    for seed in (777, 2**100 + 3):
        base = np.random.Philox(key=seed)
        for stream in (0, 1, 2**32 + 5, 2**63):
            (rng,) = simulate._path_streams(seed, np.array([stream], dtype=np.uint64), False)
            assert _plain_state(rng.bit_generator.state) == _plain_state(base.jumped(stream).state)
        # Antithetic pairs (2j, 2j + 1) share stream j.
        pairs = simulate._path_streams(seed, np.arange(4), True)
        for i, rng in enumerate(pairs):
            assert _plain_state(rng.bit_generator.state) == _plain_state(base.jumped(i // 2).state)


def test_compaction_across_chunks_and_tiles_is_bit_identical(monkeypatch):
    # 64-step chunks, three-path tiles and a budget of 2 paths x 64 steps give
    # tiles that compact every 64 steps and step each chunk in two-path step
    # blocks; with an odd tile size the antithetic pairs (2, 3) and (8, 9)
    # straddle two tiles.  A full tile splits 2 + 1, so the pairs (4, 5) and
    # (10, 11) straddle two step blocks, and compaction leaves live counts
    # that the block width does not divide.  One-path draw blocks start at
    # odd offsets too, where a block that read its antithetic parities from
    # the wrong rows would flip the wrong paths.  The default runs all 12
    # paths in one tile, one block, and the 240 steps in two chunks.  On two
    # workers the four tiles are shared out between the processes.
    p = make_params(kappa=1.05)
    cfg = SimConfig(x1_0=1.3, x2_0=1.0, dt=1 / 12, horizon_T=20.0, n_paths=12, seed=4242)
    cases = [
        (replace(cfg, antithetic=True), UnconstrainedBarrier(beta=optimal_barrier_beta0(p))),
        (cfg, SolvencyConstrained(beta=1.6, alpha1=1.2)),
        (cfg, DoubleBarrier(beta=1.8, gamma=1.0)),
    ]
    reference = [simulate_paths(c, pol, p) for c, pol in cases]

    def assert_injects_nothing(ruin_stopped):
        # Exactly +0.0 for every path: a policy that stops at ruin never injects.
        for result in ruin_stopped:
            assert not result.pv_injections.any()
            assert not np.signbit(result.pv_injections).any()

    assert_injects_nothing(reference[:2])
    # Ruins land in every chunk, one path survives: compaction really runs.
    ruin_chunk = np.ceil(reference[0].ruin_time / cfg.dt / 64)
    assert set(ruin_chunk[~reference[0].censored]) == {1, 2, 3}
    assert reference[0].censored.sum() == 1

    monkeypatch.setattr(simulate, "_CHUNK_STEPS", 64)
    monkeypatch.setattr(simulate, "_TILE_PATHS", 3)
    monkeypatch.setattr(simulate, "_STEP_BLOCK_PATHS", 2)
    for block in (2, 1):
        monkeypatch.setattr(simulate, "_BLOCK_PATHS", block)
        for workers in (1, 2):
            results = [simulate_paths(replace(c, n_workers=workers), pol, p) for c, pol in cases]
            assert_injects_nothing(results[:2])
            for result, ref in zip(results, reference):
                assert_same_paths(result, ref)



def patch_small_geometry(monkeypatch):
    # 64-step chunks and tiles of 48 paths, stepped in blocks of 16.
    monkeypatch.setattr(simulate, "_CHUNK_STEPS", 64)
    monkeypatch.setattr(simulate, "_TILE_PATHS", 48)
    monkeypatch.setattr(simulate, "_STEP_BLOCK_PATHS", 16)


SCALE_CFG = SimConfig(x1_0=1.5, x2_0=1.0, dt=0.02, horizon_T=20.0, n_paths=200, seed=5)


def scaling_cases():
    p = make_params(alpha1=1.2, kappa=1.05)
    return p, [
        UnconstrainedBarrier(beta=optimal_barrier_beta0(p)),
        SolvencyConstrained(beta=constrained_barrier_beta1(p), alpha1=1.2),
        DoubleBarrier(beta=optimal_barrier_beta2(p), gamma=p.alpha0),
    ]


def assert_scaled_start_scales_the_values(p, policy, cfg, k, reference=None):
    # Each engine operation is a product by a growth factor, x1 less a multiple of
    # x2, or a comparison of x1 with a multiple of x2: each commutes exactly with
    # a power of two, away from overflow and subnormals.
    ref = reference or simulate_paths(cfg, policy, p)
    scaled = replace(cfg, x1_0=cfg.x1_0 * 2.0**k, x2_0=cfg.x2_0 * 2.0**k)
    result = simulate_paths(scaled, policy, p)
    for field in ("pv_dividends", "pv_injections"):
        assert np.array_equal(getattr(result, field), getattr(ref, field) * 2.0**k), field
    for field in ("ruin_time", "censored"):
        assert np.array_equal(getattr(result, field), getattr(ref, field)), field


def test_start_scaled_by_a_power_of_two_scales_the_values_exactly(monkeypatch):
    p, policies = scaling_cases()
    refs = [simulate_paths(SCALE_CFG, pol, p) for pol in policies]
    # Not vacuous: paths pay, the ruin-stopped ones ruin, the double barrier injects.
    assert all(ref.pv_dividends.any() for ref in refs)
    assert not refs[0].censored.all() and refs[2].censored.all()
    assert refs[2].pv_injections.any()
    for k in (-40, 7, 300):
        for pol, ref in zip(policies, refs):
            assert_scaled_start_scales_the_values(p, pol, SCALE_CFG, k, ref)
    patch_small_geometry(monkeypatch)
    for pol, ref in zip(policies, refs):
        assert_scaled_start_scales_the_values(p, pol, SCALE_CFG, -40, ref)


@settings(max_examples=4, deadline=None)
@given(k=st.integers(-200, 300), case=st.integers(0, 2))
def test_start_scaled_by_any_power_of_two_scales_the_values_exactly(k, case):
    p, policies = scaling_cases()
    assert_scaled_start_scales_the_values(p, policies[case], replace(SCALE_CFG, n_paths=50), k)


HORIZON_CFG = SimConfig(x1_0=2.0, x2_0=1.0, dt=0.02, horizon_T=40.0, n_paths=400, seed=9)


def assert_horizon_prefix(t1, reference=None):
    # Each path draws its own stream in step order, so a shorter run is a prefix
    # of a longer one: the same paths ruin by t1, at the same times, having paid
    # the same dividends.
    p = make_params()
    policy = UnconstrainedBarrier(beta=optimal_barrier_beta0(p))
    long = reference or simulate_paths(HORIZON_CFG, policy, p)
    short = simulate_paths(replace(HORIZON_CFG, horizon_T=t1), policy, p)
    ruined = ~short.censored
    assert np.array_equal(ruined, ~long.censored & (long.ruin_time <= t1))
    assert np.array_equal(short.ruin_time[ruined], long.ruin_time[ruined])
    assert np.array_equal(short.pv_dividends[ruined], long.pv_dividends[ruined])
    return ruined


def test_shorter_horizon_is_a_prefix_of_a_longer_one(monkeypatch):
    p = make_params()
    long = simulate_paths(HORIZON_CFG, UnconstrainedBarrier(beta=optimal_barrier_beta0(p)), p)
    for t1 in (3.0, 10.0, 25.6):
        ruined = assert_horizon_prefix(t1, long)
        assert 0 < ruined.sum() < (~long.censored).sum()
    patch_small_geometry(monkeypatch)
    assert_horizon_prefix(10.0, long)


@settings(max_examples=4, deadline=None)
@given(steps=st.integers(1, 1999))
def test_any_whole_step_horizon_is_a_prefix_of_a_longer_one(steps):
    assert_horizon_prefix(steps * HORIZON_CFG.dt)

class _CountingStream:
    """A Generator stand-in that counts the normals drawn through it."""

    def __init__(self, rng, drawn: list):
        self._rng = rng
        self._drawn = drawn

    def standard_normal(self, *, out):
        self._drawn.append(out.size)
        return self._rng.standard_normal(out=out)


def test_ruined_paths_stop_drawing(monkeypatch):
    drawn: list = []
    path_streams = simulate._path_streams
    monkeypatch.setattr(
        simulate,
        "_path_streams",
        lambda *args: [_CountingStream(rng, drawn) for rng in path_streams(*args)],
    )
    p = make_params()
    on_ray = simulate_paths(replace(BASE_CFG, x1_0=1.0), UnconstrainedBarrier(beta=1.5), p)
    assert not on_ray.censored.any()
    assert sum(drawn) == 0

    # A path ruined at step s draws through the end of its chunk, and
    # nothing after it: at the default 128-step chunk, at 64 steps, and at
    # 64 steps in three-path draw blocks.
    cfg = SimConfig(x1_0=1.3, x2_0=1.0, dt=1 / 12, horizon_T=40.0, n_paths=16, seed=11)
    n_steps = 480
    for chunk, block in ((128, simulate._BLOCK_PATHS), (64, simulate._BLOCK_PATHS), (64, 3)):
        monkeypatch.setattr(simulate, "_CHUNK_STEPS", chunk)
        monkeypatch.setattr(simulate, "_BLOCK_PATHS", block)
        drawn.clear()
        result = simulate_paths(cfg, UnconstrainedBarrier(beta=1.5), p)
        ruin_step = np.rint(result.ruin_time / cfg.dt)
        steps_drawn = np.where(
            result.censored, n_steps, np.minimum(np.ceil(ruin_step / chunk) * chunk, n_steps)
        )
        assert sum(drawn) == 2 * steps_drawn.sum()
        assert sum(drawn) < 2 * cfg.n_paths * n_steps


def test_tile_holds_no_chunk_of_draws():
    # The two growth buffers take 2 * _CHUNK_STEPS * n scalars; a third buffer
    # of that size (a whole chunk of draws) would push the peak past the bound.
    p = make_params(kappa=1.05)
    n = 4000
    cfg = SimConfig(x1_0=1.5, x2_0=1.0, dt=1 / 50, horizon_T=4.0, n_paths=n, seed=3)
    tracemalloc.start()
    try:
        simulate._run_tile(p, DoubleBarrier(beta=1.8, gamma=1.0), cfg, 0, n, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * simulate._CHUNK_STEPS * n * 8


def test_growth_buffers_are_bounded_by_a_step_block():
    # Doubling a tile past the step-block width adds per-path streams and
    # state but no growth buffers: tile-wide buffers would add
    # 2 * _CHUNK_STEPS scalars a path on top.
    width = simulate._STEP_BLOCK_PATHS
    cfg = SimConfig(x1_0=1.5, x2_0=1.0, dt=1 / 50, horizon_T=0.04, n_paths=1, seed=3)
    p = make_params(kappa=1.05)
    peaks = []
    for n in (width, 2 * width):
        tracemalloc.start()
        try:
            simulate._run_tile(p, DoubleBarrier(beta=1.8, gamma=1.0), cfg, 0, n, 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 * simulate._CHUNK_STEPS * width * 8


def test_ratio_recovering_after_ruin_earns_nothing():
    # With sigma_A = 0.6 and beta just above alpha0, several ruined paths would
    # climb back above beta before the single 120-step chunk ends.  Every path
    # must match a scalar reference that stops at ruin.
    p = make_params(sigma_A=0.6)
    beta = 1.05
    cfg = SimConfig(x1_0=1.04, x2_0=1.0, dt=1 / 12, horizon_T=10.0, n_paths=16, seed=5)
    n_steps = 120
    result = simulate_paths(cfg, UnconstrainedBarrier(beta=beta), p)

    drift_a = (p.mu_A - 0.5 * p.sigma_A**2) * cfg.dt
    drift_l = (p.mu_L - 0.5 * p.sigma_L**2) * cfg.dt
    vol_a = p.sigma_A * math.sqrt(cfg.dt)
    vol_l = p.sigma_L * math.sqrt(cfg.dt)
    mix = math.sqrt(1.0 - p.rho**2)
    recovered = set()
    for i, rng in enumerate(simulate._path_streams(cfg.seed, np.arange(cfg.n_paths), False)):
        z = rng.standard_normal((n_steps, 2))
        x1, x2, pvd, ruin_k = cfg.x1_0, cfg.x2_0, 0.0, None
        for k in range(n_steps + 1):
            if k:
                x1 *= math.exp(drift_a + vol_a * z[k - 1, 0])
                x2 *= math.exp(drift_l + vol_l * (p.rho * z[k - 1, 0] + mix * z[k - 1, 1]))
            if ruin_k is None and x1 <= p.alpha0 * x2:
                ruin_k = k
            if ruin_k is not None:
                if x1 > beta * x2:  # the free-running ratio, after ruin
                    recovered.add(i)
                continue
            lump = max(x1 - beta * x2, 0.0)
            x1 -= lump
            pvd += lump * math.exp(-p.delta * k * cfg.dt)
        assert result.pv_dividends[i] == pytest.approx(pvd, rel=1e-12)
        assert result.censored[i] == (ruin_k is None)
        t = cfg.horizon_T if ruin_k is None else ruin_k * cfg.dt
        assert result.ruin_time[i] == pytest.approx(t, rel=1e-12)
    assert recovered and not result.censored[sorted(recovered)].any()


def test_pool_is_capped_at_cpu_count(monkeypatch):
    sizes = []

    class SerialPool:
        """A ProcessPoolExecutor stand-in that records its size and maps in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    p = make_params()
    pol = UnconstrainedBarrier(beta=1.5)
    cases = [  # (cpu_count, n_workers, n_paths) -> processes
        ((3, 100_000, 64), 3),
        ((3, 2, 64), 2),
        ((8, 100_000, 5), 5),
        ((None, 100_000, 64), None),  # unknown CPU count: run serially
        ((1, 4, 64), None),
    ]
    for (cpus, workers, n_paths), size in cases:
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: cpus)
        sizes.clear()
        cfg = replace(BASE_CFG, n_paths=n_paths)
        result = simulate_paths(replace(cfg, n_workers=workers), pol, p)
        assert sizes == ([] if size is None else [size])
        assert_same_paths(result, simulate_paths(cfg, pol, p))


def test_validate_run_rejects_outputs_beyond_physical_memory(monkeypatch):
    pol = UnconstrainedBarrier(beta=1.5)
    p = make_params()
    with pytest.raises(ConfigError, match="n_paths"):
        simulate._validate_run(replace(BASE_CFG, n_paths=10**15), pol, p)
    # 50 bytes per path: 25 for the four columns, held twice while joining.
    sizes = {"SC_PAGE_SIZE": 50, "SC_PHYS_PAGES": 1000}
    monkeypatch.setattr(simulate.os, "sysconf", sizes.__getitem__)
    assert simulate._validate_run(replace(BASE_CFG, n_paths=1000), pol, p) == 8
    with pytest.raises(ConfigError, match="n_paths"):
        simulate._validate_run(replace(BASE_CFG, n_paths=1001), pol, p)


def test_bitwise_identical_across_worker_counts():
    # Each path owns a jumped stream, so splitting paths across processes --
    # even splitting an antithetic pair across two tiles -- changes nothing.
    p = make_params(kappa=1.05)
    pol = DoubleBarrier(beta=1.8, gamma=1.0)
    cfg = replace(BASE_CFG, n_paths=6, antithetic=True)
    base = simulate_paths(cfg, pol, p)
    for workers in (2, 4):
        other = simulate_paths(replace(cfg, n_workers=workers), pol, p)
        assert np.array_equal(base.pv_dividends, other.pv_dividends)
        assert np.array_equal(base.pv_injections, other.pv_injections)
        assert np.array_equal(base.ruin_time, other.ruin_time)
        assert np.array_equal(base.censored, other.censored)


def test_paired_compare_same_policy_is_exactly_zero():
    p = make_params()
    pol = UnconstrainedBarrier(beta=1.7)
    paired = paired_compare(BASE_CFG, pol, pol, p)
    assert np.all(paired.diff_pv_dividends == 0.0)
    assert paired.mean_diff == 0.0
    assert paired.se_diff == 0.0


def test_immediate_ruin_on_the_ruin_ray():
    # Starting exactly at alpha0 is admissible and ruins at t = 0.
    p = make_params()
    cfg = replace(BASE_CFG, x1_0=1.0)
    result = simulate_paths(cfg, UnconstrainedBarrier(beta=1.5), p)
    assert np.all(result.pv_dividends == 0.0)
    assert np.all(result.ruin_time == 0.0)
    assert not result.censored.any()
    assert result.summary.ruin_fraction == 1.0
    assert result.summary.mean_ruin_time_censored == 0.0


def test_ruined_paths_stop_paying():
    # Near the ruin ray with beta just above it, any path ruined at the first
    # grid time has never been above the barrier, so it collected nothing.
    p = make_params()
    cfg = SimConfig(x1_0=1.05, x2_0=1.0, dt=1.0, horizon_T=2.0, n_paths=64, seed=5)
    result = simulate_paths(cfg, UnconstrainedBarrier(beta=1.06), p)
    first_step = result.ruin_time == 1.0
    assert first_step.any()  # sigma_A = 0.3 over dt = 1 ruins plenty of paths
    assert np.all(result.pv_dividends[first_step] == 0.0)
    assert not result.censored[first_step].any()


def test_injections_keep_paths_alive_and_start_below_gamma():
    p = make_params(kappa=1.05)
    cfg = replace(BASE_CFG, x1_0=1.1, n_paths=16)
    result = simulate_paths(cfg, DoubleBarrier(beta=1.8, gamma=1.3), p)
    assert result.censored.all()
    assert np.all(result.ruin_time == cfg.horizon_T)
    assert result.summary.ruin_fraction == 0.0
    # t = 0 injection lifts the ratio from 1.1 to gamma at discount one.
    assert np.all(result.pv_injections >= 0.2 - 1e-12)
    net = result.pv_dividends - p.kappa * result.pv_injections
    assert result.summary.mean_net_value == pytest.approx(float(np.mean(net)), rel=1e-15)


def censored_run(pvd, pvi=None, kappa=None, horizon_T=1.0):
    """summarize() of paths that all survive to ``horizon_T``."""
    n = len(pvd)
    pvi = np.zeros(n) if pvi is None else pvi
    return summarize(pvd, pvi, np.full(n, horizon_T), np.ones(n, dtype=bool), kappa, horizon_T)


def test_summarize_rejections():
    with pytest.raises(ConfigError, match="cannot summarise zero paths"):
        censored_run(np.array([]))
    with pytest.raises(ConfigError, match="pv_injections"):
        summarize(np.ones(3), np.ones(2), np.ones(3), np.ones(3, dtype=bool), 2.0, 1.0)
    with pytest.raises(ConfigError, match="ruin_time"):
        summarize(np.ones(3), np.zeros(3), np.array([0.5]), np.zeros(3, dtype=bool), None, 1.0)
    with pytest.raises(ConfigError, match="censored"):
        summarize(np.ones(3), np.zeros(3), np.ones(3), np.array([False]), None, 1.0)
    with pytest.raises(ConfigError):
        censored_run(np.ones(3), np.ones(3))  # kappa missing


def test_summarize_statistics():
    pvd = np.array([1.0, 2.0, 3.0, 6.0])
    s = censored_run(pvd, horizon_T=10.0)
    assert s.n_paths == 4
    assert s.mean_pv_dividends == pytest.approx(3.0)
    assert s.var_pv_dividends == pytest.approx(np.var(pvd, ddof=1))
    assert s.se_pv_dividends == pytest.approx(math.sqrt(np.var(pvd, ddof=1) / 4))
    assert s.cv_pv_dividends == pytest.approx(math.sqrt(np.var(pvd, ddof=1)) / 3.0)
    assert s.ruin_fraction == 0.0
    assert s.mean_ruin_time_censored == 10.0

    mixed = summarize(
        pvd,
        np.zeros(4),
        np.array([1.0, 2.0, 99.0, 99.0]),
        np.array([False, False, True, True]),
        None,
        10.0,
    )
    assert mixed.ruin_fraction == 0.5
    assert mixed.mean_ruin_time_censored == pytest.approx((1.0 + 2.0 + 10.0 + 10.0) / 4)

    netted = censored_run(pvd, np.full(4, 0.5), kappa=2.0)
    assert netted.mean_net_value == pytest.approx(2.0)


def test_summarize_cv_undefined_for_nonpositive_mean():
    s = censored_run(np.zeros(4))
    assert math.isnan(s.cv_pv_dividends)
    assert math.isnan(s.cv_net_value)


def test_summarize_single_path():
    s = censored_run(np.array([2.0]))
    assert s.var_pv_dividends == 0.0
    assert s.se_pv_dividends == 0.0
    assert s.cv_pv_dividends == 0.0


def pair_mean_se(values):
    """Standard error of the mean from the pair means of paths (2j, 2j+1), by hand."""
    pairs = [(a + b) / 2.0 for a, b in zip(values[0::2], values[1::2])]
    return statistics.stdev(pairs) / math.sqrt(len(pairs))


def test_antithetic_standard_errors_come_from_the_pair_means():
    # Paths 2j and 2j+1 of an antithetic run are one draw: the pair means are the
    # independent samples.  The per-path variance and CV keep their meaning.
    pvd = np.array([1.0, 3.0, 2.0, 2.5, 6.0, 1.0])
    pvi = np.array([0.0, 0.5, 0.0, 0.0, 1.0, 0.0])
    args = (pvd, pvi, np.ones(6), np.ones(6, dtype=bool), 2.0, 1.0)
    plain, paired = summarize(*args), summarize(*args, antithetic=True)
    assert paired.se_pv_dividends == pytest.approx(pair_mean_se(pvd.tolist()), rel=1e-14)
    assert paired.se_net_value == pytest.approx(pair_mean_se((pvd - 2.0 * pvi).tolist()), rel=1e-14)
    assert paired.se_pv_dividends != plain.se_pv_dividends
    same = ("mean_pv_dividends", "var_pv_dividends", "cv_pv_dividends", "mean_net_value",
            "var_net_value", "cv_net_value")
    assert [getattr(paired, f) for f in same] == [getattr(plain, f) for f in same]
    with pytest.raises(ConfigError, match="^antithetic pairing needs an even n_paths$"):
        summarize(pvd[:5], pvi[:5], np.ones(5), np.ones(5, dtype=bool), 2.0, 1.0, antithetic=True)

    p = make_params()
    cfg = replace(BASE_CFG, antithetic=True)
    pc = paired_compare(cfg, UnconstrainedBarrier(beta=1.5), UnconstrainedBarrier(beta=2.5), p)
    assert pc.se_diff == pytest.approx(pair_mean_se(pc.diff_pv_dividends.tolist()), rel=1e-14)
    s = pc.result_a.summary
    assert s.se_pv_dividends == pytest.approx(pair_mean_se(pc.result_a.pv_dividends.tolist()))
    assert s.var_pv_dividends == pytest.approx(statistics.variance(pc.result_a.pv_dividends))


#: Seeds of the calibration runs, fixed before the first run.
CALIBRATION_SEEDS = range(1, 41)


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("policy", ["ruin-stopped", "double-barrier"])
def test_reported_standard_errors_match_the_spread_of_seed_means(policy, antithetic):
    # The sd of 40 seed means estimates the true SE of one run to a relative sd of
    # about 1 / sqrt(2 * 39) = 0.11, so with a right reported SE the ratio sd / SE lies
    # within three such sds of one, for each summary field.
    if policy == "ruin-stopped":
        p, x1_0 = make_params(), 2.0
        pol = UnconstrainedBarrier(beta=optimal_barrier_beta0(p))
    else:
        p, x1_0 = make_params(kappa=1.05), 1.5
        pol = DoubleBarrier(beta=optimal_barrier_beta2(p), gamma=p.alpha0)
    cfg = SimConfig(x1_0=x1_0, x2_0=1.0, dt=1.0 / 12.0, horizon_T=10.0, n_paths=500, seed=0,
                    antithetic=antithetic)
    runs = [simulate_paths(replace(cfg, seed=seed), pol, p).summary for seed in CALIBRATION_SEEDS]
    band = 3.0 / math.sqrt(2.0 * (len(CALIBRATION_SEEDS) - 1))
    for field in ("pv_dividends", "net_value"):
        spread = statistics.stdev(getattr(s, f"mean_{field}") for s in runs)
        reported = statistics.fmean(getattr(s, f"se_{field}") for s in runs)
        assert abs(spread / reported - 1.0) <= band, (field, spread / reported)


def test_paths_csv_round_trips():
    p = make_params()
    result = simulate_paths(BASE_CFG, UnconstrainedBarrier(beta=1.5), p)
    buf = io.StringIO()
    write_paths_csv(result, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "path_index,pv_dividends,pv_injections,ruin_time,censored"
    assert len(lines) == 1 + BASE_CFG.n_paths
    for i, line in enumerate(lines[1:]):
        idx, pvd, pvi, rt, cen = line.split(",")
        assert int(idx) == i
        assert float(pvd) == result.pv_dividends[i]  # .17g round-trips exactly
        assert float(pvi) == result.pv_injections[i]
        assert float(rt) == result.ruin_time[i]
        assert cen == ("1" if result.censored[i] else "0")


def test_paired_csv_round_trips():
    p = make_params()
    paired = paired_compare(
        BASE_CFG, UnconstrainedBarrier(beta=1.5), UnconstrainedBarrier(beta=2.5), p
    )
    buf = io.StringIO()
    write_paired_csv(paired, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == (
        "path_index,pv_dividends_a,pv_dividends_b,diff_pv_dividends,"
        "ruin_time_a,ruin_time_b,censored_a,censored_b"
    )
    assert len(lines) == 1 + BASE_CFG.n_paths
    a, b = paired.result_a, paired.result_b
    columns = (
        a.pv_dividends, b.pv_dividends, paired.diff_pv_dividends,
        a.ruin_time, b.ruin_time, a.censored, b.censored,
    )
    for i, line in enumerate(lines[1:]):
        row = line.split(",")
        assert len(row) == 8
        assert row[0] == str(i)
        for cell, col in zip(row[1:], columns):
            if col.dtype == bool:
                assert cell == ("1" if col[i] else "0")
            else:
                assert float(cell) == col[i]


# ---------------------------------------------------------------------------
# The engine against its grid-corrected target
#
# The engine checks its rays only at grid times.  A ray monitored every dt acts
# like a continuously monitored one moved outward by e^h, h = c sigma~ sqrt(dt),
# with c = -zeta(1/2) / sqrt(2 pi) (Broadie, Glasserman & Kou, Math. Finance 7(4),
# 1997).  So the ruin-stopped target at dt is the closed form with the payout ray
# at beta e^h and the ruin ray at alpha0 e^-h, good to O(dt).

BGK_C = 0.5825971579390106
# The exact value of the engine's own grid-monitored beta0* policy on P1 from (2, 1),
# at dt = 1/12, 1/50 and 1/250: Nystrom quadrature of the one-step operator on a log
# grid (h = sigma~ sqrt(dt)/20 and /40, Richardson), the reference of ROADMAP item 8.
DISCRETE_REFERENCE = {1 / 12: 1.18093, 1 / 50: 1.15782, 1 / 250: 1.14487}
# The same reference for the ruin transform E[e^(-delta tau)] (0 on a path never ruined),
# at dt = 1/12 and 1/50.
DISCRETE_RUIN_TRANSFORM = {1 / 12: 0.55752, 1 / 50: 0.57686}


def bgk_shift(p, dt):
    return BGK_C * math.sqrt(exponents(p).sigma_tilde_sq * dt)


def grid_corrected_value(p, beta, dt):
    h = bgk_shift(p, dt)
    return closed_form_value(beta * math.exp(h), replace(p, alpha0=p.alpha0 * math.exp(-h)))


def ruin_transform(p, beta, r, h=0.0):
    """E[e^(-delta tau)] from ratio r under the barrier-beta policy, with both rays moved
    outward by e^h: phi = a u^theta1 + b u^theta2, u = r / alpha0, phi(alpha0) = 1 and
    phi'(beta) = 0, where the thetas solve the degree-0 quadratic
    (sigma~^2/2) theta^2 + (mu_A - mu_L - sigma_A^2/2 + sigma_L^2/2) theta - delta = 0."""
    half_var = 0.5 * exponents(p).sigma_tilde_sq
    lin = p.mu_A - p.mu_L - 0.5 * p.sigma_A**2 + 0.5 * p.sigma_L**2
    root = math.sqrt(lin * lin + 4.0 * half_var * p.delta)
    theta1, theta2 = (-lin - root) / (2.0 * half_var), (-lin + root) / (2.0 * half_var)
    alpha0 = p.alpha0 * math.exp(-h)
    w, u = beta * math.exp(h) / alpha0, r / alpha0
    s1, s2 = theta1 * w**theta1, theta2 * w**theta2
    return (s2 * u**theta1 - s1 * u**theta2) / (s2 - s1)


def test_grid_corrected_value_tracks_the_discrete_reference():
    p = make_params()
    beta0 = optimal_barrier_beta0(p)
    continuous = closed_form_value(beta0, p).evaluate(2.0, 1.0)
    gaps = []
    for dt, reference in DISCRETE_REFERENCE.items():
        corrected = grid_corrected_value(p, beta0, dt).evaluate(2.0, 1.0)
        assert abs(corrected - reference) <= 3e-4, dt
        gaps.append(corrected - continuous)
    # 0.04714, 0.02384 and 0.01084: the shift falls as sqrt(dt).
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


def test_grid_corrected_ruin_transform_tracks_the_discrete_reference():
    p = make_params()
    beta0 = optimal_barrier_beta0(p)
    continuous = ruin_transform(p, beta0, 2.0)
    assert continuous == pytest.approx(0.59567, abs=5e-6)
    gaps = []
    for dt in (1 / 12, 1 / 50, 1 / 250):
        corrected = ruin_transform(p, beta0, 2.0, bgk_shift(p, dt))
        if dt in DISCRETE_RUIN_TRANSFORM:
            assert abs(corrected - DISCRETE_RUIN_TRANSFORM[dt]) <= 1e-3, dt
        gaps.append(continuous - corrected)
    # 0.03746, 0.01863 and 0.00840: ruin is checked only at grid times, so it comes later.
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


@pytest.fixture(scope="module")
def pooled_beta0_runs():
    """P1 under beta0* from (2, 1), dt = 1/12, T = 120: seeds 1-20 x 5,000 paths, pooled."""
    p = make_params()
    beta0 = optimal_barrier_beta0(p)
    runs = [
        simulate_paths(SimConfig(x1_0=2.0, x2_0=1.0, dt=1 / 12, horizon_T=120.0, n_paths=5000,
                                 seed=seed), UnconstrainedBarrier(beta=beta0), p)
        for seed in range(1, 21)
    ]
    pv = np.concatenate([run.pv_dividends for run in runs])
    transform = np.concatenate([
        np.where(run.censored, 0.0, np.exp(-p.delta * run.ruin_time)) for run in runs
    ])
    return p, beta0, pv, transform


def z_score(sample, target):
    return (sample.mean() - target) / (sample.std(ddof=1) / math.sqrt(sample.size))


def test_engine_matches_the_grid_corrected_target(pooled_beta0_runs):
    p, beta0, pv, _ = pooled_beta0_runs
    z_corrected = z_score(pv, grid_corrected_value(p, beta0, 1 / 12).evaluate(2.0, 1.0))
    z_continuous = z_score(pv, closed_form_value(beta0, p).evaluate(2.0, 1.0))
    assert abs(z_corrected) <= 3.0
    # Negative control: the continuous form misses the grid bias by many standard errors.
    assert z_continuous >= 5.0


def test_engine_ruin_transform_matches_the_grid_corrected_target(pooled_beta0_runs):
    p, beta0, _, transform = pooled_beta0_runs
    z_corrected = z_score(transform, ruin_transform(p, beta0, 2.0, bgk_shift(p, 1 / 12)))
    z_continuous = z_score(transform, ruin_transform(p, beta0, 2.0))
    assert abs(z_corrected) <= 3.0
    # Negative control: continuously monitored ruin comes earlier than the engine's.
    assert z_continuous <= -5.0
