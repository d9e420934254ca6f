"""Monte Carlo validation engine for barrier dividend strategies.

Paths use the exact lognormal transition over each grid step dt,

    X1 <- X1 * exp((mu_A - sigma_A^2/2) dt + sigma_A sqrt(dt) Z1)
    X2 <- X2 * exp((mu_L - sigma_L^2/2) dt + sigma_L sqrt(dt) (rho Z1 + sqrt(1-rho^2) Z2)),

so the only discretisation left is that controls act at grid times: at every
t_k = k dt (including t = 0, before any diffusion) the engine applies, in
order, the injection check, the ruin check, then the dividend check.  Lump
dividends are the overshoot above the policy barrier, injections lift the
ratio back to the injection ray, ruin is the first grid time with
X1/X2 <= alpha0, and every lump is discounted by exp(-delta t_k).

Randomness is counter-based: path i draws from its own Philox stream, the
master key with counter block i, so results are a pure function of
(seed, path index) and are bit-identical no matter how paths are split
across workers or tiles.  A path alive at step k uses the k-th pair of
normals of its own stream; a ruined path stops drawing, which moves no other
path's draws, so two policies run on one seed still see common random
numbers path by path while both arms are alive.  With antithetic pairing
path 2j+1 consumes the negated draws of stream j.

Paths run in tiles of at most ``_TILE_PATHS`` = 46,875 paths, which bound a
tile's per-path streams and state (about 1 KB a path).  A tile steps in
chunks of ``_CHUNK_STEPS`` = 128 steps, and a chunk steps its live paths in
step blocks of at most ``_STEP_BLOCK_PATHS`` = 8,192 paths, split evenly: a
block grows and steps through the whole chunk before the next one starts, so
the tile's two growth-factor buffers never exceed
2 * ``_CHUNK_STEPS`` * ``_STEP_BLOCK_PATHS`` scalars (16 MiB).  A step block's
normals are drawn in draw blocks of ``_BLOCK_PATHS`` = 256 paths into a small
staging buffer and folded into the growth buffers from there.  Tiles are the
only unit of work: a serial run maps them in order, and a run on several
workers hands them to a process pool (at most one process per CPU) one at a
time.  A tile keeps its live paths' state in one working block, a column per
path.  A ruined path's outputs are written when it is ruined; its column is
dropped at the next chunk boundary, and a tile stops once none is left.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from itertools import repeat
from typing import IO, Union

import numpy as np

from .errors import ConfigError
from .params import ModelParams, require_kappa

__all__ = [
    "UnconstrainedBarrier",
    "SolvencyConstrained",
    "DoubleBarrier",
    "Policy",
    "SimConfig",
    "SimSummary",
    "SimResult",
    "PairedComparison",
    "simulate_paths",
    "paired_compare",
    "summarize",
    "write_paths_csv",
    "write_paired_csv",
]

#: Paths per tile: bounds a tile's per-path streams and state.
_TILE_PATHS = 46_875
#: Steps per chunk: a tile draws, grows and steps this many steps at a time.
_CHUNK_STEPS = 128
#: Paths per step block (a memory knob): a tile's two growth-factor buffers
#: hold at most 2 * _CHUNK_STEPS * _STEP_BLOCK_PATHS scalars (16 MiB).
_STEP_BLOCK_PATHS = 8192
#: Paths per draw block: a chunk's normals are drawn and folded into the
#: growth buffers this many paths at a time, so the draws are read from cache.
_BLOCK_PATHS = 256


@dataclass(frozen=True)
class UnconstrainedBarrier:
    """Pay the overshoot above ``beta``; stop at ruin."""

    beta: float


@dataclass(frozen=True)
class SolvencyConstrained:
    """Pay the overshoot above ``beta`` only while staying at or above ``alpha1``.

    Admissibility requires beta >= alpha1, so paying down to the barrier
    never breaches the floor; the engine enforces that invariant up front.
    """

    beta: float
    alpha1: float


@dataclass(frozen=True)
class DoubleBarrier:
    """Pay above ``beta``, inject (at unit cost kappa) up to ``gamma``; no ruin."""

    beta: float
    gamma: float


Policy = Union[UnconstrainedBarrier, SolvencyConstrained, DoubleBarrier]


@dataclass(frozen=True)
class SimConfig:
    """Run geometry: start point, grid, path count, master seed; each field is a simulate flag."""

    x1_0: float
    x2_0: float
    dt: float
    horizon_T: float
    n_paths: int
    seed: int
    antithetic: bool = False
    n_workers: int = 1


@dataclass(frozen=True)
class SimSummary:
    """Cross-path statistics; variances are unbiased (ddof = 1).  Under antithetic
    pairing each standard error comes from the n/2 pair means, the independent draws."""

    n_paths: int
    mean_pv_dividends: float
    var_pv_dividends: float
    se_pv_dividends: float
    cv_pv_dividends: float
    mean_net_value: float
    var_net_value: float
    se_net_value: float
    cv_net_value: float
    ruin_fraction: float
    mean_ruin_time_censored: float


@dataclass(frozen=True)
class SimResult:
    """Per-path outputs plus their summary."""

    config: SimConfig
    pv_dividends: np.ndarray
    pv_injections: np.ndarray
    ruin_time: np.ndarray
    censored: np.ndarray
    summary: SimSummary


@dataclass(frozen=True)
class PairedComparison:
    """Two policies on identical Brownian increments (common random numbers)."""

    result_a: SimResult
    result_b: SimResult
    diff_pv_dividends: np.ndarray  # arm A minus arm B, per path
    mean_diff: float
    se_diff: float


def _variance(values: np.ndarray) -> float:
    return float(np.var(values, ddof=1)) if values.size > 1 else 0.0


def _stat_block(values: np.ndarray, antithetic: bool) -> tuple[float, float, float, float]:
    """Mean, per-path variance, standard error of the mean and CV of ``values``;
    paths 2j and 2j+1 of an antithetic run are one draw, so its SE is the pair means'."""
    mean, var = float(np.mean(values)), _variance(values)
    draws = 0.5 * (values[0::2] + values[1::2]) if antithetic else values
    se = math.sqrt(_variance(draws) / draws.size)
    return mean, var, se, math.sqrt(var) / mean if mean > 0.0 else math.nan


def summarize(
    pv_dividends: np.ndarray,
    pv_injections: np.ndarray,
    ruin_time: np.ndarray,
    censored: np.ndarray,
    kappa: float | None,
    horizon_T: float,
    antithetic: bool = False,
) -> SimSummary:
    """Summarise the four per-path arrays of a run.

    Censored paths enter the ruin-time mean at ``horizon_T``.  The
    coefficient of variation of a sample with nonpositive mean is reported
    as NaN rather than raising.  Net value is dividends minus ``kappa`` times
    injections; ``kappa`` may be None when every injection is zero.  An
    ``antithetic`` run pairs paths 2j and 2j+1, and its standard errors are
    those of the pair means.
    """
    pvd = np.asarray(pv_dividends, dtype=float)
    if pvd.size == 0:
        raise ConfigError("cannot summarise zero paths")
    n = pvd.size
    if antithetic and n % 2 != 0:
        raise ConfigError("antithetic pairing needs an even n_paths")
    pvi = np.asarray(pv_injections, dtype=float)
    ruin_arr = np.asarray(ruin_time, dtype=float)
    censored_arr = np.asarray(censored, dtype=bool)
    for name, arr in (("pv_injections", pvi), ("ruin_time", ruin_arr), ("censored", censored_arr)):
        if arr.shape != pvd.shape:
            raise ConfigError(f"{name} must match pv_dividends in shape")
    if np.any(pvi != 0.0):
        if kappa is None:
            raise ConfigError("kappa is required to net nonzero injections")
        net = pvd - kappa * pvi
    else:
        net = pvd
    ruin = np.where(censored_arr, float(horizon_T), ruin_arr)

    mean_d, var_d, se_d, cv_d = _stat_block(pvd, antithetic)
    mean_n, var_n, se_n, cv_n = _stat_block(net, antithetic)
    return SimSummary(
        n_paths=n,
        mean_pv_dividends=mean_d,
        var_pv_dividends=var_d,
        se_pv_dividends=se_d,
        cv_pv_dividends=cv_d,
        mean_net_value=mean_n,
        var_net_value=var_n,
        se_net_value=se_n,
        cv_net_value=cv_n,
        ruin_fraction=float(np.count_nonzero(~censored_arr)) / n,
        mean_ruin_time_censored=float(np.mean(ruin)),
    )


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, (bool, np.bool_))


def _check_floor(beta: float, alpha1: float | None, p: ModelParams) -> None:
    """A solvency payout needs a floor alpha1 above alpha0 and a barrier at or above it."""
    if alpha1 is None:
        raise ConfigError("a SolvencyConstrained policy needs its floor alpha1")
    if not alpha1 > p.alpha0:
        raise ConfigError(f"policy alpha1 = {alpha1!r} must exceed alpha0")
    if not beta >= alpha1:
        raise ConfigError(f"policy beta = {beta!r} must be >= its floor alpha1 = {alpha1!r}")


def _validate_run(cfg: SimConfig, policy: Policy, p: ModelParams) -> int:
    if not 0.0 < cfg.dt < math.inf:
        raise ConfigError(f"dt = {cfg.dt!r} must be positive and finite")
    if not 0.0 < cfg.horizon_T < math.inf:
        raise ConfigError(f"horizon_T = {cfg.horizon_T!r} must be positive and finite")
    if not (_is_int(cfg.n_paths) and cfg.n_paths >= 1):
        raise ConfigError(f"n_paths = {cfg.n_paths!r} must be an integer at least 1")
    if cfg.antithetic and cfg.n_paths % 2 != 0:
        raise ConfigError("antithetic pairing needs an even n_paths")
    if not (_is_int(cfg.seed) and 0 <= int(cfg.seed) < 2**128):
        raise ConfigError(f"seed = {cfg.seed!r} must be an integer in [0, 2**128)")
    if not (_is_int(cfg.n_workers) and cfg.n_workers >= 1):
        raise ConfigError(f"n_workers = {cfg.n_workers!r} must be an integer at least 1")
    # Four output columns (three float64, one bool), held twice while the
    # tiles are concatenated.
    need = 2 * 25 * cfg.n_paths
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise ConfigError(
            f"n_paths = {cfg.n_paths!r} needs {need} bytes of per-path outputs, "
            f"more than the {memory} bytes of physical memory"
        )
    if not (math.isfinite(cfg.x1_0) and math.isfinite(cfg.x2_0)):
        raise ConfigError(f"start point ({cfg.x1_0!r}, {cfg.x2_0!r}) must be finite")
    if not cfg.x2_0 > 0.0:
        raise ConfigError(f"x2_0 = {cfg.x2_0!r} must be positive")
    ratio = cfg.x1_0 / cfg.x2_0
    if ratio == math.inf:
        raise ConfigError(f"start ratio x1_0 / x2_0 = {cfg.x1_0!r} / {cfg.x2_0!r} overflows a float")
    if ratio < p.alpha0:
        raise ConfigError(f"start ratio {ratio!r} lies below alpha0 = {p.alpha0!r}")
    if isinstance(policy, UnconstrainedBarrier):
        if not policy.beta >= p.alpha0:
            raise ConfigError(f"policy beta = {policy.beta!r} must be >= alpha0")
    elif isinstance(policy, SolvencyConstrained):
        _check_floor(policy.beta, policy.alpha1, p)
    elif isinstance(policy, DoubleBarrier):
        require_kappa(p, "simulating a DoubleBarrier policy")
        if not policy.gamma >= p.alpha0:
            raise ConfigError(f"policy gamma = {policy.gamma!r} must be >= alpha0")
        if not policy.beta > policy.gamma:
            raise ConfigError(f"policy beta = {policy.beta!r} must exceed gamma")
    else:
        raise ConfigError(f"unknown policy {policy!r}")
    steps = cfg.horizon_T / cfg.dt
    # Past 2**53 the step index k, and so t_k = k dt, is no longer exact in float64.
    if not steps <= 2**53:
        raise ConfigError(
            f"horizon_T / dt = {cfg.horizon_T!r} / {cfg.dt!r} = {steps!r} steps exceeds 2**53"
        )
    n_steps = int(round(steps))
    if n_steps < 1:
        raise ConfigError("horizon_T must cover at least one step of size dt")
    if abs(n_steps * cfg.dt - cfg.horizon_T) > 1e-9 * cfg.horizon_T:
        raise ConfigError(
            f"horizon_T = {cfg.horizon_T!r} is not a whole number of steps dt = {cfg.dt!r}"
        )
    return n_steps


def _path_streams(seed: int, paths: np.ndarray, antithetic: bool) -> list:
    """One Generator per path index; antithetic odd paths reuse (and negate) stream i//2.

    Stream s is the master key with counter (0, 0, s, 0), the state that
    ``Philox(key=seed).jumped(s)`` reaches, built without copying and jumping.
    """
    key = np.array([seed & (2**64 - 1), seed >> 64], dtype=np.uint64)

    # ``Philox(key=...)`` would also build an unused SeedSequence from OS
    # entropy for every stream; this hands over the key instead.  Defined
    # here so that importing fundiv does not import numpy.random.
    class MasterKey(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return key.copy()

    master = MasterKey()
    streams = paths // 2 if antithetic else paths
    return [
        np.random.Generator(np.random.Philox(master, counter=[0, 0, s, 0]))
        for s in streams.tolist()
    ]


def _even_width(n: int, cap: int) -> int:
    """Width of the fewest blocks of at most ``cap`` rows that cover ``n`` rows, split evenly."""
    return -(-n // -(-n // cap))


def _run_tile(
    p: ModelParams, policy: Policy, cfg: SimConfig, i0: int, i1: int, n_steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Simulate paths [i0, i1); pure function of (cfg.seed, path index).

    The live paths' state is one ``(4, live)`` block (x1, x2 and the present
    values of dividends and injections) with one ``rows`` vector, the tile
    row of each column, and one ``alive`` mask.  A ruined path's ruin time and
    dividends are written when it is ruined, the survivors' outputs at the
    end, and a ruined column is never read again, so per-path outputs do not
    depend on the chunk, step block or tile size.  At a chunk boundary one
    ``keep`` drops the ruined columns from the block, ``rows``, ``alive`` and
    the streams: a ruined path neither draws nor steps past its chunk.

    A chunk steps its live columns one step block at a time: a block draws
    its normals ``_BLOCK_PATHS`` paths at a time, folds them into its columns
    of the step-major growth buffers while the draws are in cache, takes
    ``exp`` and runs the chunk's steps on views of its columns; a step's
    lumps reuse its applied row of x1 growth factors.  No buffer holds a
    whole chunk of draws.
    """
    n = i1 - i0
    dt = cfg.dt
    drift_a = (p.mu_A - 0.5 * p.sigma_A**2) * dt
    vol_a = p.sigma_A * math.sqrt(dt)
    drift_l = (p.mu_L - 0.5 * p.sigma_L**2) * dt
    vol_l = p.sigma_L * math.sqrt(dt)
    mix = math.sqrt(1.0 - p.rho * p.rho)

    injecting = isinstance(policy, DoubleBarrier)
    beta = policy.beta
    alpha0 = p.alpha0

    state = np.zeros((4, n))  # x1, x2, pv of dividends, pv of injections
    state[0], state[1] = cfg.x1_0, cfg.x2_0
    rows = np.arange(n)  # tile row of each column of the state
    alive = np.ones(n, dtype=bool)
    pvd_out, pvi_out = pv_out = np.zeros((2, n))  # by tile row
    ruin_time = np.full(n, float(cfg.horizon_T))  # by tile row
    censored = np.zeros(n, dtype=bool)

    def control(t: float, disc: float, lump: np.ndarray, view: tuple) -> None:
        x1, x2, pvd, pvi, alive, rows = view
        if injecting:
            np.multiply(x2, policy.gamma, out=lump)
            np.subtract(lump, x1, out=lump)
            np.maximum(lump, 0.0, out=lump)
            np.add(x1, lump, out=x1)
            np.multiply(lump, disc, out=lump)
            np.add(pvi, lump, out=pvi)
        else:
            ruined_now = x1 <= alpha0 * x2
            ruined_now &= alive
            if ruined_now.any():
                ruin_time[rows[ruined_now]] = t
                pvd_out[rows[ruined_now]] = pvd[ruined_now]
                alive[ruined_now] = False
        np.multiply(x2, beta, out=lump)
        np.subtract(x1, lump, out=lump)
        np.maximum(lump, 0.0, out=lump)
        np.subtract(x1, lump, out=x1)
        np.multiply(lump, disc, out=lump)
        np.add(pvd, lump, out=pvd)

    control(0.0, 1.0, np.empty(n), (*state, alive, rows))
    # Every path starts at one point, so at t = 0 either all of them or none is ruined.
    rngs = _path_streams(int(cfg.seed), i0 + rows, cfg.antithetic) if alive.all() else []
    # Later chunks split their fewer live columns at most this wide, so the
    # growth buffers sized here hold any chunk's step block.
    width = _even_width(n, _STEP_BLOCK_PATHS)
    block = min(_BLOCK_PATHS, width)
    stage_buf = np.empty((block, _CHUNK_STEPS, 2))
    mixed_buf = np.empty(_CHUNK_STEPS * block)
    grow_a_buf = np.empty(_CHUNK_STEPS * width)
    grow_l_buf = np.empty(_CHUNK_STEPS * width)
    k = 0
    while k < n_steps and alive.any():
        if not alive.all():
            keep = np.flatnonzero(alive)
            # take keeps each row contiguous, where state[:, keep] would stride it.
            state, rows, alive = state.take(keep, axis=1), rows[keep], alive[keep]
            rngs = [rngs[j] for j in keep.tolist()]
        m = min(_CHUNK_STEPS, n_steps - k)
        live = rows.size
        outs = list(stage_buf[:, :m])  # one row view per path of a draw block
        disc = np.exp(-p.delta * dt * np.arange(k + 1, k + m + 1))
        w = _even_width(live, width)
        for s0 in range(0, live, w):
            s1 = min(s0 + w, live)
            # grow_a = exp(drift_a + vol_a z1), grow_l = exp(drift_l + vol_l (rho z1 + mix z2)),
            # in place but in the formula's operation order, so every factor keeps its bits.
            grow_a = grow_a_buf[: m * (s1 - s0)].reshape(m, s1 - s0)
            grow_l = grow_l_buf[: m * (s1 - s0)].reshape(m, s1 - s0)
            for b0 in range(s0, s1, block):
                b1 = min(b0 + block, s1)
                for rng, out in zip(rngs[b0:b1], outs):
                    rng.standard_normal(out=out)
                stage = stage_buf[: b1 - b0, :m]
                if cfg.antithetic:
                    odd = ((i0 + rows[b0:b1]) % 2 == 1)[:, None, None]
                    np.negative(stage, out=stage, where=odd)
                z1 = stage[:, :, 0].T
                mixed = mixed_buf[: m * (b1 - b0)].reshape(m, b1 - b0)
                cols = slice(b0 - s0, b1 - s0)
                np.multiply(stage[:, :, 1].T, mix, out=mixed)
                np.multiply(z1, p.rho, out=grow_l[:, cols])
                np.add(grow_l[:, cols], mixed, out=grow_l[:, cols])
                np.multiply(z1, vol_a, out=grow_a[:, cols])
            np.multiply(grow_l, vol_l, out=grow_l)
            np.add(grow_l, drift_l, out=grow_l)
            np.exp(grow_l, out=grow_l)
            np.add(grow_a, drift_a, out=grow_a)
            np.exp(grow_a, out=grow_a)
            x1, x2, *_ = view = (*state[:, s0:s1], alive[s0:s1], rows[s0:s1])
            for j, (g_a, g_l) in enumerate(zip(grow_a, grow_l)):
                np.multiply(x1, g_a, out=x1)
                np.multiply(x2, g_l, out=x2)
                control((k + j + 1) * dt, disc[j], g_a, view)
        k += m

    pv_out[:, rows[alive]] = state[2:, alive]
    censored[rows[alive]] = True
    return pvd_out, pvi_out, ruin_time, censored


def simulate_paths(cfg: SimConfig, policy: Policy, p: ModelParams) -> SimResult:
    """Run the engine and summarise.

    Identical (cfg, policy, p) give bit-identical results regardless of
    ``cfg.n_workers``, because every path owns its random stream.
    """
    n_steps = _validate_run(cfg, policy, p)
    n = int(cfg.n_paths)
    workers = min(int(cfg.n_workers), n, os.cpu_count() or 1)
    # A tile holds at most _TILE_PATHS paths, and at most an even share of
    # the paths, so a small run still spreads over the workers.
    tile = max(1, min(_TILE_PATHS, -(-n // workers)))
    starts = range(0, n, tile)
    ends = [min(i + tile, n) for i in starts]
    args = (repeat(p), repeat(policy), repeat(cfg), starts, ends, repeat(n_steps))
    if workers == 1:
        tiles = list(map(_run_tile, *args))
    else:
        from concurrent.futures import ProcessPoolExecutor  # a serial run never imports it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            tiles = list(pool.map(_run_tile, *args))
    pvd, pvi, ruin_time, censored = (np.concatenate(col) for col in zip(*tiles))
    summary = summarize(pvd, pvi, ruin_time, censored, p.kappa, cfg.horizon_T, cfg.antithetic)
    return SimResult(
        config=cfg,
        pv_dividends=pvd,
        pv_injections=pvi,
        ruin_time=ruin_time,
        censored=censored,
        summary=summary,
    )


def paired_compare(
    cfg: SimConfig, policy_a: Policy, policy_b: Policy, p: ModelParams
) -> PairedComparison:
    """Run both policies on the same Brownian increments and pair the outputs.

    Streams depend only on (seed, path index), and a path alive at step k
    uses the k-th pair of normals of its own stream whatever the policy did
    before, so the two arms see identical shocks path by path for as long as
    both are alive.  Under antithetic pairing ``se_diff`` is that of the pair
    means of the differences.
    """
    result_a = simulate_paths(cfg, policy_a, p)
    result_b = simulate_paths(cfg, policy_b, p)
    diff = result_a.pv_dividends - result_b.pv_dividends
    mean, _, se, _ = _stat_block(diff, cfg.antithetic)
    return PairedComparison(
        result_a=result_a,
        result_b=result_b,
        diff_pv_dividends=diff,
        mean_diff=mean,
        se_diff=se,
    )


def _write_csv(fh: IO[str], header: str, columns: tuple[np.ndarray, ...]) -> None:
    """One row per path: ``path_index``, then the columns (flags 0/1, floats as ``params._fmt``)."""
    fh.write(f"path_index,{header}\n")
    template = ",".join(["%d"] + ["%d" if c.dtype == bool else "%.17g" for c in columns]) + "\n"
    rows = zip(range(columns[0].size), *(c.tolist() for c in columns))
    fh.writelines(template % row for row in rows)


def write_paths_csv(result: SimResult, fh: IO[str]) -> None:
    """Stream per-path rows: path_index,pv_dividends,pv_injections,ruin_time,censored."""
    columns = (result.pv_dividends, result.pv_injections, result.ruin_time, result.censored)
    _write_csv(fh, "pv_dividends,pv_injections,ruin_time,censored", columns)


def write_paired_csv(paired: PairedComparison, fh: IO[str]) -> None:
    """Stream paired per-path rows for the two arms plus their dividend difference."""
    a, b = paired.result_a, paired.result_b
    _write_csv(
        fh,
        "pv_dividends_a,pv_dividends_b,diff_pv_dividends,"
        "ruin_time_a,ruin_time_b,censored_a,censored_b",
        (a.pv_dividends, b.pv_dividends, paired.diff_pv_dividends,
         a.ruin_time, b.ruin_time, a.censored, b.censored),
    )

