"""Euler-Maruyama simulation of overdamped gradient diffusions.

Every Monte Carlo replica owns a counter-based RNG stream derived from
(seed_base, replica_index), so ensembles are reproducible under any parallel
schedule; aggregation is ordered by replica index.  _first_passage is the one
loop, here and in spde, that advances states over time and draws their noise
in blocks set by one rule (_block_steps) into one buffer per call; callers
pass a step, and record and stop replicas through its observe(k, states, aux)
callback, which also sees the initial states (k = 0), so a replica that
starts in the target hits at time 0.
"""

from __future__ import annotations

import mmap
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AllCensored, NonFinite
from .potentials import Potential

# The block rule, in normals of 8 bytes: a replica draws at least 8 KiB a call
# (below that its RNG call outweighs a cheap SDE step) and at most 256 KiB; a
# block of at most 1024 steps holds at most 16 MiB unless that floor needs more.
_MAX_STEPS, _MIN_DRAW, _MAX_DRAW, _BLOCK_NORMALS = 1024, 1 << 10, 1 << 15, 1 << 21


@dataclass(frozen=True)
class SdeRun:
    """Configuration of one simulation: dx = -grad V dt + sqrt(2 eps) dW."""

    potential: Potential
    epsilon: float
    dt: float
    x0: np.ndarray
    seed: int
    t_max: Optional[float] = None  # default horizon: 1e6 steps

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_max is not None and not self.t_max > 0:
            raise ValueError("t_max must be positive")
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))

    @property
    def horizon(self) -> float:
        return 1e6 * self.dt if self.t_max is None else self.t_max


@dataclass(frozen=True)
class HittingTimeBatch:
    """Seeded sample of first-hitting times with summary statistics.

    samples holds the uncensored hitting times ordered by replica index;
    raw keeps one entry per replica (nan marks censoring at the horizon).
    """

    samples: np.ndarray
    n_attempted: int
    n_censored: int
    mean: float
    stderr: float
    seed_base: int
    raw: np.ndarray

    @staticmethod
    def from_raw(raw: np.ndarray, seed_base: int) -> "HittingTimeBatch":
        raw = np.asarray(raw, dtype=float)
        samples = raw[np.isfinite(raw)]
        n_censored = int(raw.size - samples.size)
        if samples.size == 0:
            raise AllCensored(
                f"all {raw.size} replicas were censored at the horizon; "
                "the noise intensity is too small for this time budget"
            )
        mean = float(np.mean(samples))
        stderr = float(np.std(samples, ddof=1) / np.sqrt(samples.size)) if samples.size > 1 else np.inf
        return HittingTimeBatch(samples=samples, n_attempted=raw.size,
                                n_censored=n_censored, mean=mean, stderr=stderr,
                                seed_base=seed_base, raw=raw)


def replica_rng(seed_base: int, replica_index: int) -> np.random.Generator:
    """The RNG stream owned by one replica; independent of scheduling."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed_base, spawn_key=(replica_index,))
    )


def integrate_path(run: SdeRun, t_final: float, record: bool = False):
    """Single-trajectory integration up to t_final on replica 0's stream.

    Returns the final state, or (times, states) when record is set.
    """
    n_steps = int(round(t_final / run.dt))
    path = np.empty((n_steps + 1, run.x0.size))

    def observe(k, x, _aux):
        path[k] = x[0]

    _first_passage(run.x0, run.seed, 0, 1, run.dt, n_steps, observe=observe,
                   **_sde_callbacks(run))
    return (np.arange(n_steps + 1) * run.dt, path) if record else path[-1]


def ou_density(x: float, y: float, t: float, eps: float) -> float:
    """Transition density of dx = -x dt + sqrt(2 eps) dW from x to y in time t.

    A normal law with mean x e^{-t} and variance eps (1 - e^{-2t}); the
    t -> infinity limit is the centered normal of variance eps.
    """
    if t <= 0 or eps <= 0:
        raise ValueError("t and eps must be positive")
    var = eps * (1.0 - np.exp(-2.0 * t))
    return np.exp(-((y - x * np.exp(-t)) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)


def ou_mean_var(x0: float, t: float, eps: float) -> tuple[float, float]:
    return x0 * np.exp(-t), eps * (1.0 - np.exp(-2.0 * t))


def detailed_balance_residual(t: float, eps: float, grid: np.ndarray) -> float:
    """max over grid pairs of |pi(x) p_t(x,y) - pi(y) p_t(y,x)| for the
    quadratic well, with pi = ou_density(0, ., inf, eps) the centered normal
    of variance eps.

    The product pi(x) p_t(x,y) is symmetric in (x, y) in closed form, so the
    residual is pure floating-point noise (< 1e-12).
    """
    grid = np.asarray(grid, dtype=float)
    x = grid[:, None]
    y = grid[None, :]
    flux = ou_density(0.0, x, np.inf, eps) * ou_density(x, y, t, eps)
    return float(np.max(np.abs(flux - flux.T)))


def ou_fokker_planck_residual(x0: float, eps: float, t: float,
                              y_grid: np.ndarray, h: float) -> float:
    """Residual of d_t p - d_y(y p) - eps d_yy p for the exact density,
    under centered O(h^2) differences in both t and y.

    Shrinks at second order in h, which is the Richardson check that the
    density solves the evolution equation.
    """
    y = np.asarray(y_grid, dtype=float)

    def p(tt, yy):
        return ou_density(x0, yy, tt, eps)

    dp_dt = (p(t + h, y) - p(t - h, y)) / (2 * h)
    drift = ((y + h) * p(t, y + h) - (y - h) * p(t, y - h)) / (2 * h)
    diff = (p(t, y + h) - 2 * p(t, y) + p(t, y - h)) / h**2
    return float(np.max(np.abs(dp_dt - drift - eps * diff)))


# ---------------------------------------------------------------------------
# Ensemble simulation
# ---------------------------------------------------------------------------


def _block_steps(width: int, live: int, left: int) -> int:
    """Steps in the next noise block of `live` replicas that each draw `width`
    normals a step, with `left` steps to go."""
    return min(_MAX_STEPS, left,
               max(max(1, _MIN_DRAW // width),
                   min(_MAX_DRAW // width, _BLOCK_NORMALS // (width * live))))


def _noise_buffer(size: int) -> np.ndarray:
    """A flat float buffer of size entries in its own anonymous mapping.

    Noise blocks live here rather than on malloc's heap, where numpy marks a
    block of 4 MiB or more for huge pages and a freed block stays resident
    around whatever the process allocates next (a module import, say), so
    the process's peak memory would depend on when that happens.  The mapping
    goes back to the system when the last view of the buffer is released.
    """
    return np.frombuffer(mmap.mmap(-1, 8 * size))


def _draw_noise(rngs, steps: int, shape: tuple, scale=None, buf=None) -> np.ndarray:
    """(steps, len(rngs)) + shape standard normals, times scale if given;
    column r is rngs[r]'s stream in step order, the same however the steps of
    a replica are split into blocks.  They fill the front of the flat float
    buffer buf if given, else a new array."""
    size = len(rngs) * steps * int(np.prod(shape))
    g = (np.empty(size) if buf is None else buf[:size]).reshape((len(rngs), steps) + shape)
    for rng, out in zip(rngs, g):
        rng.standard_normal(out=out)
    if scale is not None:
        g *= scale  # in place, so a block holds one buffer
    return g.swapaxes(0, 1)


def _first_passage(x0: np.ndarray, seed: int, offset: int, n: int, dt: float,
                   max_steps: int, shape, step, observe=None, check=None,
                   scale=None, aux0=None):
    """The one time loop: n replicas from x0 for up to max_steps steps.

    Replica i draws `shape` normals a step (times scale) from
    replica_rng(seed, offset + i), _block_steps at a time, into one
    _noise_buffer that grows only if a block needs more; shape None draws
    nothing.  step(states, noise, aux) returns (new states, new aux) and is
    passed the live rows' noise (or None) and the aux of the step before,
    starting from a copy of aux0 per replica.  observe(k, states, aux) sees
    the live replicas at k = 0 .. max_steps, the initial states and then the
    states after each step (counted across blocks), and returns the mask of
    those that hit, which stop, or None; a replica that hits at k = 0 gets
    time 0.0 and draws no noise.  check(states) runs per block.
    Steps advance the live array with no mask; states, aux, replica ids and
    the live-row-to-noise-row map are compacted only on steps with a hit.
    Returns (hitting times, nan if censored; final states of the survivors).
    """
    rngs = [replica_rng(seed, offset + i) for i in range(n)]
    width = 1 if shape is None else int(np.prod(shape))
    times = np.full(n, np.nan)
    x = np.repeat(x0[None], n, axis=0)
    aux = None if aux0 is None else np.repeat(aux0[None], n, axis=0)
    ids = np.arange(n)
    newly = None if observe is None else observe(0, x, aux)
    if newly is not None and newly.any():
        times[newly] = 0.0
        keep = ~newly
        x, ids = x[keep], ids[keep]
        if aux is not None:
            aux = aux[keep]
    done, buf = 0, np.empty(0)
    while ids.size and done < max_steps:
        steps = _block_steps(width, ids.size, max_steps - done)
        noise = eta = None  # the last block's views, released before a redraw
        if shape is not None:
            if buf.size < ids.size * steps * width:
                buf = None  # release the old buffer before mapping a larger one
                buf = _noise_buffer(ids.size * steps * width)
            noise = _draw_noise([rngs[i] for i in ids], steps, shape, scale, buf)
        rows = None  # set once a hit has compacted the live array
        for j in range(steps):
            if noise is not None:
                eta = noise[j] if rows is None else noise[j, rows]
            x, aux = step(x, eta, aux)
            newly = None if observe is None else observe(done + j + 1, x, aux)
            if newly is not None and newly.any():
                times[ids[newly]] = (done + j + 1) * dt
                keep = ~newly
                x, ids = x[keep], ids[keep]
                if aux is not None:
                    aux = aux[keep]
                rows = np.flatnonzero(keep) if rows is None else rows[keep]
                if not ids.size:
                    break
        if check is not None:
            check(x)
        done += steps
    return times, x


def _sde_callbacks(run: SdeRun) -> dict:
    """The Euler-Maruyama ensemble's shape, scale, step and check keywords
    for _first_passage."""
    gradient = run.potential.gradient_batch

    def step(x, noise, _aux):
        return x - gradient(x) * run.dt + noise, None

    warned = False

    def check(x):
        nonlocal warned
        if not np.all(np.isfinite(x)):
            raise NonFinite("ensemble overflowed; reduce dt")
        if not warned and not _stability_check(run, x):
            warnings.warn("dt exceeds 1/max Hessian eigenvalue along trajectory",
                          RuntimeWarning)
            warned = True

    return dict(shape=(run.x0.size,), scale=np.sqrt(2 * run.epsilon * run.dt),
                step=step, check=check)


def sample_endpoints(run: SdeRun, t: float, n: int,
                     replica_offset: int = 0) -> np.ndarray:
    """States of n independent replicas at time t, shape (n, dim); replicas
    run in ranges whose noise blocks stay within the engine's budget, so
    memory does not grow with n."""
    n_steps, chunk = int(round(t / run.dt)), _BLOCK_NORMALS // _MIN_DRAW
    callbacks = _sde_callbacks(run)
    out = np.empty((n, run.x0.size))
    for start in range(0, n, chunk):
        count = min(chunk, n - start)
        _, out[start:start + count] = _first_passage(
            run.x0, run.seed, replica_offset + start, count, run.dt, n_steps,
            **callbacks)
    return out


def _stability_check(run: SdeRun, x: np.ndarray) -> bool:
    """dt should stay below 1/max-eigenvalue of the Hessian at visited states."""
    sample = x[:: max(1, len(x) // 4)][:4]
    for row in sample:
        eigs = np.linalg.eigvalsh(np.atleast_2d(run.potential.hessian(row)))
        lam = float(np.max(np.abs(eigs)))
        if lam > 0 and run.dt >= 1.0 / lam:
            return False
    return True


def hitting_times_raw(run: SdeRun, target_center: np.ndarray, delta: float,
                      n: int, replica_offset: int = 0) -> np.ndarray:
    """First times ||x_t - center|| < delta, one entry per replica (nan =
    censored at the horizon).  Deterministic given (seed, replica indices)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    center = np.atleast_1d(np.asarray(target_center, dtype=float))

    def observe(_k, x, _aux):
        diff = x - center
        return np.sqrt(np.add.reduce(diff * diff, axis=1)) < delta  # as np.linalg.norm

    return _first_passage(run.x0, run.seed, replica_offset, n, run.dt,
                          int(round(run.horizon / run.dt)), observe=observe,
                          **_sde_callbacks(run))[0]


def sample_hitting_times(run: SdeRun, target_center, delta: float, n: int,
                         replica_offset: int = 0) -> HittingTimeBatch:
    """n seeded replicas of the first-hitting time of the delta-ball.

    Censored replicas are excluded from the mean but reported; raises
    AllCensored when no replica reaches the target.
    """
    raw = hitting_times_raw(run, target_center, delta, n, replica_offset)
    return HittingTimeBatch.from_raw(raw, run.seed)
