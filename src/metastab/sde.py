"""Euler-Maruyama simulation of overdamped gradient diffusions.

Every Monte Carlo replica owns a counter-based RNG stream derived from
(seed_base, replica_index), so ensembles are reproducible under any parallel
schedule; aggregation is ordered by replica index.  run_ranges is the one
replica scheduler: it cuts an ensemble into contiguous ranges, one per
worker process, this process and forked children.  Every replica ensemble
runs on it: hitting times and endpoints here, field hitting and the noise
check in spde and the walks of randomwalk on every usable CPU, and the CLI's
on --threads workers; inline in a process that runs other threads.
_first_passage is the one loop, here and in spde, that advances states over
time.  It draws their noise step-major in blocks set by one rule
(_block_steps) into one buffer per call, steps the live replicas across a
block and keeps what the caller's keep(states, aux) takes of each step (the
SDE keeps its states, written into the noise rows they used).  Callers say two
things about the kept values: a hit test hit(kept), a mask over kept rows that
stops each replica at its first hit, and the steps to record, whose kept
values come back.  The engine looks at the start states too (step 0), so a
replica that starts in the target hits at time 0; replicas are compacted once
per block, and the engine then raises NonFinite if a surviving state has
overflowed, the one overflow check of every run here and in spde.
steps_in is the one conversion of a duration into a number of steps.
"""

from __future__ import annotations

import mmap
import os
import pickle
import threading
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AllCensored, NonFinite, ShapeMismatch
from .potentials import Potential

# The block rule, in values of 8 bytes (normals, and kept values beside them):
# a replica takes at least 4 KiB a block and at most 256 KiB; a block of at
# most 1024 steps holds at most 8 MiB unless that floor needs more.  The floor
# is the RNG's knee: with 2000 generators (best of 7), a standard_normal call
# costs 19.3, 18.6, 19.7, 23.7 and 28.8 ns per normal at 2048, 1024, 512, 256
# and 128 normals, so a shorter draw lets the call outweigh a cheap SDE step.
# The hit test reads a block in slices of at most _OBSERVE_VALUES kept values,
# which bounds its temporaries.
_MAX_STEPS, _MIN_DRAW, _MAX_DRAW, _BLOCK_NORMALS = 1024, 1 << 9, 1 << 15, 1 << 20
_OBSERVE_VALUES = 1 << 14
# By default run_ranges forks no range of fewer than _MIN_RANGE replicas.  A
# fork, its pickled result and its reaping cost about 3 ms (2 cores, from a
# process of 30 to 400 MB), while an SDE hitting replica of about 5000 steps
# (eps 0.3, dt 2e-3) takes 0.2 ms of vectorised steps, so a range of 32 such
# replicas holds about twice the fork's cost.  An explicit worker count (the
# CLI's --threads) is not held to it.
_MIN_RANGE = 32
# Whether this process is running a range of run_ranges; only a call that
# starts with no other thread alive sets it.
_in_range = False


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
        if not np.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not np.isfinite(self.dt):
            raise ValueError("dt must be finite")
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
    raw: np.ndarray

    @staticmethod
    def from_raw(raw: np.ndarray) -> "HittingTimeBatch":
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
                                raw=raw)


def replica_rng(seed_base: int, replica_index: int) -> np.random.Generator:
    """The RNG stream owned by one replica; independent of scheduling."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed_base, spawn_key=(replica_index,))
    )


def steps_in(duration: float, name: str, dt: float) -> int:
    """round(duration / dt), the steps of dt a duration spans; ValueError
    naming the duration unless that is a finite number.  A negative count is
    left to the engine, which refuses it."""
    steps = duration / dt
    if not np.isfinite(steps):
        raise ValueError(f"{name} = {duration} is not a finite number of "
                         f"steps of dt = {dt}")
    return int(round(steps))


def integrate_path(run: SdeRun, t_final: float, record: bool = False):
    """Single-trajectory integration up to t_final on replica 0's stream.

    Returns the final state, or (times, states) when record is set.
    """
    n_steps = steps_in(t_final, "t_final", run.dt)
    steps = np.arange(n_steps + 1) if record else [n_steps]
    path = _first_passage(run.x0, run.seed, 0, 1, run.dt, n_steps, record=steps,
                          **_sde_callbacks(run))[1][:, 0]
    return (steps * run.dt, path) if record else path[-1]


def ou_density(x: float, y: float, t: float, eps: float) -> float:
    """Transition density of dx = -x dt + sqrt(2 eps) dW from x to y in time t.

    A normal law with mean x e^{-t} and variance eps (1 - e^{-2t}); the
    t -> infinity limit is the centered normal of variance eps.
    """
    if t <= 0 or eps <= 0:
        raise ValueError("t and eps must be positive")
    mean, var = ou_mean_var(x, t, eps)
    return np.exp(-((y - mean) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)


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
    """Steps in the next block of `live` replicas that each take `width`
    values a step (normals plus kept values), with `left` steps to go."""
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
    """A C-contiguous (steps, len(rngs)) + shape block of standard normals,
    times scale if given; column r is rngs[r]'s stream in step order, the same
    however the steps of a replica are split into blocks.  Each replica fills
    its row of a replica-major scratch of at most max(_MAX_DRAW, one
    replica's draw) normals, and one transposing copy (which also scales) per
    group of replicas moves the scratch into the block.  The block fills the
    front of the flat float buffer buf if given, else a new array."""
    live, per = len(rngs), steps * int(np.prod(shape))
    block = (np.empty(live * per) if buf is None else buf[:live * per])
    block = block.reshape((steps, live) + shape)
    group = min(live, max(1, _MAX_DRAW // per))
    scratch = np.empty((group, steps) + shape)
    for r0 in range(0, live, group):
        part = scratch[:min(group, live - r0)]
        for rng, out in zip(rngs[r0:r0 + group], part):
            rng.standard_normal(out=out)
        cols = block[:, r0:r0 + len(part)]
        if scale is None:
            np.copyto(cols, part.swapaxes(0, 1))
        else:
            np.multiply(part.swapaxes(0, 1), scale, out=cols)
    return block


def _first_hits(hit, kept: np.ndarray) -> np.ndarray:
    """Each column's first row of kept that hit names, -1 for none; hit
    reads slices of at most _OBSERVE_VALUES kept values."""
    first = np.full(kept.shape[1], -1)
    rows = max(1, _OBSERVE_VALUES // kept[0].size)
    for a in range(0, len(kept), rows):
        mask = hit(kept[a:a + rows])
        new = mask.any(axis=0) & (first < 0)
        first[new] = a + mask[:, new].argmax(axis=0)
    return first


def _first_passage(x0: np.ndarray, seed: int, offset: int, n: int, dt: float,
                   max_steps: int, shape, step, hit=None, record=(), check=None,
                   scale=None, aux0=None, keep=None):
    """The one time loop: n replicas from x0 for up to max_steps steps.

    Replica i draws `shape` normals a step (times scale) from
    replica_rng(seed, offset + i), _block_steps at a time, as one step-major
    _draw_noise block in one _noise_buffer that grows only if a block needs
    more; shape None draws nothing.  step(states, noise, aux) returns (new
    states, new aux) and is passed the live rows' noise row (or None) and the
    aux of the step before, starting from a copy of aux0 per replica.  Of the
    start (step 0) and of each step the engine keeps keep(states, aux), in
    the buffer after the noise (its width counts in the block rule); keep
    None keeps the states, which step must then write into its noise row.
    hit(kept) returns the hit mask of a slice of kept rows of the live
    replicas (columns) and must not write into them; a replica stops at its
    first hit, at step 0 with time 0.0 and no noise drawn.  A replica that
    hits mid-block steps on to the block's end on noise already drawn; times
    are set, and states, aux and replica ids compacted, once per block, after
    which NonFinite is raised if a survivor's state is not finite, and else
    check(states) sees the survivors.  Returns (hitting times, nan if
    censored; recorded): the kept values at the steps in record (any order,
    repeats allowed, each in [0, max_steps]), shape (len(record), n) + kept
    shape, nan where a replica had stopped.
    """
    if max_steps < 0:
        raise ValueError(f"a run of {max_steps} steps: the duration must be nonnegative")
    record = np.asarray(record, dtype=int).reshape(-1)
    if np.any((record < 0) | (record > max_steps)):
        raise ValueError(f"recorded steps must lie in [0, {max_steps}]")
    order = np.argsort(record, kind="stable")
    wanted = record[order]
    rngs = [replica_rng(seed, offset + i) for i in range(n)]
    width = 0 if shape is None else int(np.prod(shape))
    stops = np.full(n, max_steps + 1)  # each replica's hit step, past the horizon if none
    x = np.repeat(x0[None], n, axis=0)
    aux = None if aux0 is None else np.repeat(aux0[None], n, axis=0)
    ids = np.arange(n)

    def stop(k, kept):
        """Records kept rows k, k+1, .., stops the replicas at their first
        hit among them and copies the survivors out of the block."""
        nonlocal x, aux, ids
        a, b = np.searchsorted(wanted, (k, k + len(kept)))
        recorded[order[a:b, None], ids] = kept[wanted[a:b] - k]
        first = np.full(ids.size, -1) if hit is None else _first_hits(hit, kept)
        stay = first < 0
        stops[ids[~stay]] = k + first[~stay]
        x, ids = x[stay], ids[stay]
        if aux is not None:
            aux = aux[stay]

    kept = (x if keep is None else keep(x, aux))[None]
    kdtype, kshape = kept.dtype, kept.shape[2:]
    kwidth = 0 if keep is None else kept.itemsize * int(np.prod(kshape)) // 8
    recorded = np.full((record.size, n) + kshape, np.nan, dtype=kdtype)
    stop(0, kept)
    done, buf = 0, np.empty(0)
    while ids.size and done < max_steps:
        live = ids.size
        steps = _block_steps(width + kwidth, live, max_steps - done)
        noise = kept = None  # the last block's views, released before a redraw
        if buf.size < live * steps * (width + kwidth):
            buf = None  # release the old buffer before mapping a larger one
            buf = _noise_buffer(live * steps * (width + kwidth))
        if shape is not None:
            noise = _draw_noise([rngs[i] for i in ids], steps, shape, scale, buf)
        if kwidth:
            kept = buf[live * steps * width:live * steps * (width + kwidth)]
            kept = kept.view(kdtype).reshape((steps, live) + kshape)
        for j in range(steps):
            x, aux = step(x, None if noise is None else noise[j], aux)
            if kwidth:
                kept[j] = keep(x, aux)
        stop(done + 1, noise if keep is None else kept)
        if not np.all(np.isfinite(x)):
            raise NonFinite("a state overflowed; reduce dt")
        if check is not None:
            check(x)
        done += steps
    recorded[record[:, None] > stops] = np.nan  # steps run past a hit
    return np.where(stops <= max_steps, stops * dt, np.nan), recorded


def _sde_callbacks(run: SdeRun) -> dict:
    """The Euler-Maruyama ensemble's shape, scale, step and check keywords
    for _first_passage; check warns once if dt exceeds the inverse Hessian
    scale along the trajectory."""
    gradient = run.potential.gradient_batch

    def step(x, noise, _aux):  # the new states overwrite their noise row
        return np.add(x - gradient(x) * run.dt, noise, out=noise), None

    warned = False

    def check(x):
        nonlocal warned
        if not warned and not _stability_check(run, x):
            warnings.warn("dt exceeds 1/max Hessian eigenvalue along trajectory",
                          RuntimeWarning)
            warned = True

    return dict(shape=(run.x0.size,), scale=np.sqrt(2 * run.epsilon * run.dt),
                step=step, check=check)


def _usable_cpus() -> int:
    """The CPUs this process may run on: os.sched_getaffinity's, else
    os.cpu_count()."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def run_ranges(worker, n: int, workers: Optional[int] = None) -> np.ndarray:
    """worker(offset, count) on contiguous replica ranges, concatenated in
    replica order: one range a worker, at least one, and at most the usable
    CPUs and n; by default (workers None) n // _MIN_RANGE at most, else at
    most workers.

    This process runs the first range itself and a forked child each other
    one; a child pickles back its result, or its exception, with the warnings
    it recorded.  Those warnings are re-issued here, the first exception in
    replica order is re-raised (one that cannot be pickled as a RuntimeError
    with its type name and message), and every child is reaped before the
    call returns, killed first if the call raises.  The call runs inline as
    one range inside a range (ranges do not nest), where os.fork is missing
    and while another thread is alive, whose locks a fork could copy held.
    Each replica's (seed, index) stream makes the result independent of the
    cut where a replica's arithmetic does not depend on its neighbours, and
    each range holds its own noise blocks and buffers."""
    global _in_range
    if _in_range or not hasattr(os, "fork") or threading.active_count() > 1:
        return worker(0, n)
    k = max(1, min(_usable_cpus(), n // _MIN_RANGE if workers is None
                   else min(workers, n)))
    bounds = np.linspace(0, n, k + 1).astype(int).tolist()
    children = []  # (pid, read end of its pipe)
    try:
        for offset, end in zip(bounds[1:-1], bounds[2:]):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _serve(worker, offset, end - offset, w)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        _in_range = True
        try:
            results = [worker(0, bounds[1])]
        finally:
            _in_range = False
        for _, pipe in children:
            results.append(_receive(pipe))
        return np.concatenate(results)
    except BaseException:
        import signal  # not loaded by numpy; only a failed call needs it

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)


def _serve(worker, offset: int, count: int, fd: int):
    """A forked range's whole life: run worker(offset, count), pickle (ok,
    result or exception, warnings) to fd and exit, never returning."""
    global _in_range
    _in_range = True
    try:
        with warnings.catch_warnings(record=True) as heard:
            try:
                outcome = (True, worker(offset, count))
            except BaseException as exc:  # KeyboardInterrupt too: it goes back
                outcome = (False, exc)
        heard = [(w.message, w.category, w.filename, w.lineno) for w in heard]
        try:
            data = pickle.dumps(outcome + (heard,))
            if not outcome[0]:
                pickle.loads(data)  # an exception can pickle and not unpickle
        except Exception as exc:  # sent as its type name and message
            if not outcome[0]:
                exc = outcome[1]
            data = pickle.dumps((False, f"{type(exc).__name__}: {exc}", []))
        with os.fdopen(fd, "wb") as f:
            f.write(data)
    finally:
        os._exit(0)


def _receive(pipe):
    """A forked range's result, after its warnings are re-issued here (once
    per location under the default filter, as warnings.warn from this module
    would); raises its exception."""
    data = pipe.read()
    if not data:
        raise RuntimeError("a replica range's process died before it reported")
    ok, value, heard = pickle.loads(data)
    for message, category, filename, lineno in heard:
        warnings.warn_explicit(message, category, filename, lineno,
                               registry=globals().setdefault("__warningregistry__", {}))
    if ok:
        return value
    raise value if isinstance(value, BaseException) else RuntimeError(value)


def sample_endpoints(run: SdeRun, t: float, n: int,
                     replica_offset: int = 0) -> np.ndarray:
    """States of n independent replicas after round(t / dt) steps, at time
    round(t / dt) dt, shape (n, dim), run on the usable CPUs by run_ranges.
    A range runs its replicas in engine calls of at most
    _BLOCK_NORMALS // _MIN_DRAW (2048), one after another, so its noise
    blocks stay within the engine's budget at any n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    n_steps, callbacks = steps_in(t, "t", run.dt), _sde_callbacks(run)
    size = _BLOCK_NORMALS // _MIN_DRAW

    def endpoints(offset, count):
        return np.concatenate([
            _first_passage(run.x0, run.seed, replica_offset + offset + a,
                           min(size, count - a), run.dt, n_steps,
                           record=[n_steps], **callbacks)[1][0]
            for a in range(0, max(count, 1), size)])  # count = 0: one empty call

    return run_ranges(endpoints, n)


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
    censored at the horizon), run on the usable CPUs by run_ranges.
    Deterministic given (seed, replica indices); ShapeMismatch unless the
    center has the state's dimension."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    center = np.atleast_1d(np.asarray(target_center, dtype=float))
    if center.size != run.x0.size:
        raise ShapeMismatch(f"target has {center.size} coordinates, the state "
                            f"{run.x0.size}")

    def hit(x):  # x: (steps, live, dim)
        diff = (x - center).reshape(-1, center.size)
        dist = np.sqrt(np.add.reduce(diff * diff, axis=1))  # as np.linalg.norm
        return (dist < delta).reshape(x.shape[:2])

    max_steps = steps_in(run.horizon, "t_max", run.dt)
    callbacks = _sde_callbacks(run)
    return run_ranges(lambda offset, count: _first_passage(
        run.x0, run.seed, replica_offset + offset, count, run.dt, max_steps,
        hit=hit, **callbacks)[0], n)


def sample_hitting_times(run: SdeRun, target_center, delta: float, n: int,
                         replica_offset: int = 0) -> HittingTimeBatch:
    """n seeded replicas of the first-hitting time of the delta-ball.

    Censored replicas are excluded from the mean but reported; raises
    AllCensored when no replica reaches the target.
    """
    raw = hitting_times_raw(run, target_center, delta, n, replica_offset)
    return HittingTimeBatch.from_raw(raw)
