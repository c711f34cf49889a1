"""Euler-Maruyama simulation of overdamped gradient diffusions.

Every Monte Carlo replica owns a counter-based RNG stream derived from
(seed_base, replica_index), so ensembles are reproducible under any parallel
schedule; aggregation is ordered by replica index.  run_ranges is the one
replica scheduler: it cuts an ensemble into contiguous ranges, one per
worker process, this process and forked children (inline in a process that
runs other threads).  Every replica ensemble here, in spde and in randomwalk
runs on it, on every usable CPU or the CLI's --threads workers.
_first_passage is the one loop, here and in spde, that advances states over
time.  Callers hand it a Dynamics (the step, its noise and what it keeps of
each step: the SDE keeps its states, in the noise rows they used), the
start, a hit test hit(kept), which stops each replica at its first hit, step
0 included, and the steps to record, whose kept values come back.  It draws
noise step-major in blocks set by one rule (_block_steps) into one buffer
per call, compacts replicas once per block and then raises NonFinite if a
survivor has overflowed, the one overflow check of every run here and in
spde.  Its two entries serve SDE and field runs alike: _hitting_times, whose
hit test is distance(kept) < delta and whose raw times a HittingTimeBatch
holds, and _recorded, which runs recording-only runs in budget-sized batches.
check_run is the one rule SdeRun and spde.SpdeRun are built under, and
steps_in the one conversion of a duration into a number of steps.
"""

from __future__ import annotations

import mmap
import os
import pickle
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import AllCensored, NonFinite, ShapeMismatch
from .potentials import Potential

# The block rule, in values of 8 bytes (normals, and kept values beside them):
# a replica takes at least 4 KiB a block and at most 256 KiB, and a block of
# at most 1024 steps at most the floor's draw for 1024 replicas (4 MiB) unless
# the floor needs more.  The floor is the RNG's knee: with 2000 generators
# (best of 7), standard_normal costs 19.3, 18.6, 19.7, 23.7 and 28.8 ns per
# normal at 2048, 1024, 512, 256 and 128 normals; a longer draw is no cheaper.
# The hit test reads a block in at most _OBSERVE_VALUES kept values a slice.
_MAX_STEPS, _MIN_DRAW, _MAX_DRAW = 1024, 1 << 9, 1 << 15
_BLOCK_NORMALS = _MIN_DRAW * _MAX_STEPS
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
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if x0.ndim != 1 or x0.size == 0:
            raise ShapeMismatch(f"x0 has shape {x0.shape}, not one point")
        check_run(self.epsilon, self.dt, self.t_max, x0, "x0")
        try:  # one gradient call: the potential must take this point
            shape = np.shape(self.potential.gradient_batch(x0))
        except (IndexError, ValueError):
            shape = None
        if shape != x0.shape:
            raise ShapeMismatch(f"x0 of shape {x0.shape} is not a point the "
                                "potential's gradient takes")
        object.__setattr__(self, "x0", x0)

    @property
    def horizon(self) -> float:
        return 1e6 * self.dt if self.t_max is None else self.t_max


def check_run(epsilon: float, dt: float, t_max: Optional[float],
              start: np.ndarray, name: str) -> None:
    """The rule SdeRun and spde.SpdeRun are built under: ValueError unless
    epsilon >= 0, dt > 0 and a given t_max > 0 are finite, and so is start."""
    faults = ((epsilon < 0, "epsilon must be nonnegative"),
              (not np.isfinite(epsilon), "epsilon must be finite"),
              (dt <= 0, "dt must be positive"),
              (not np.isfinite(dt), "dt must be finite"),
              (t_max is not None and not t_max > 0, "t_max must be positive"),
              (t_max is not None and not np.isfinite(t_max), "t_max must be finite"),
              (not np.all(np.isfinite(start)), f"{name} must be finite"))
    for fault, message in faults:  # the first fault, in this order
        if fault:
            raise ValueError(message)


@dataclass(frozen=True)
class HittingTimeBatch:
    """Seeded first-hitting times, one raw entry per replica (nan marks
    censoring at the horizon); samples, the hits in replica order, and the
    statistics are read off it.  AllCensored unless some replica hit."""

    raw: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "raw", np.asarray(self.raw, dtype=float))
        if self.samples.size == 0:
            raise AllCensored(f"all {self.raw.size} replicas were censored at the "
                              "horizon; the noise intensity is too small for "
                              "this time budget")

    @property
    def samples(self) -> np.ndarray:
        return self.raw[np.isfinite(self.raw)]

    @property
    def n_attempted(self) -> int:
        return self.raw.size

    @property
    def n_censored(self) -> int:
        return int(self.raw.size - self.samples.size)

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples))

    @property
    def stderr(self) -> float:
        hits = self.samples
        return float(np.std(hits, ddof=1) / np.sqrt(hits.size)) if hits.size > 1 else np.inf


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
    steps = np.append(np.arange(n_steps), n_steps) if record else [n_steps]
    path = next(_recorded(_sde_dynamics(run), run.x0, run.seed, 0, 1, run.dt,
                          steps))[:, 0]
    return (steps * run.dt, path) if record else path[-1]


def ou_density(x: float, y: float, t: float, eps: float) -> float:
    """Transition density of dx = -x dt + sqrt(2 eps) dW from x to y in time t.

    A normal law with mean x e^{-t} and variance eps (1 - e^{-2t}); the
    t -> infinity limit is the centered normal of variance eps.  ou_mean_var
    holds the (t, eps) rule.
    """
    mean, var = ou_mean_var(x, t, eps)
    return np.exp(-((y - mean) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)


def ou_mean_var(x0: float, t: float, eps: float) -> tuple[float, float]:
    """Mean and variance of the OU law ou_density reads; ValueError unless
    t > 0 and eps > 0 (t = inf is the stationary law, and a NaN fails)."""
    if not (t > 0 and eps > 0):
        raise ValueError("t and eps must be positive")
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


@dataclass(frozen=True)
class Dynamics:
    """What _first_passage steps, and what it keeps of each step.  A replica
    draws `shape` normals a step (times scale) from its stream; shape None
    draws nothing.  step(states, noise, aux) returns (new states, new aux)
    and is passed the live rows' noise row (or None) and the aux of the step
    before, starting from a copy of aux0 per replica.  Of the start (step 0)
    and of each step the engine keeps keep(states, aux), in the buffer after
    the noise (its width counts in the block rule); keep None keeps the
    states, which step must then write into its noise row, as the SDE's
    does.  check(states), if given, sees each block's finite survivors."""

    step: Callable
    shape: Optional[tuple] = None
    scale: Optional[float] = None
    keep: Optional[Callable] = None
    aux0: Optional[np.ndarray] = None
    check: Optional[Callable] = None


def _first_passage(dyn: Dynamics, start: np.ndarray, seed: int, offset: int,
                   n: int, dt: float, max_steps: int, hit=None, record=()):
    """The one time loop: n replicas of dyn from start, up to max_steps steps.

    Replica i draws its noise from replica_rng(seed, offset + i),
    _block_steps at a time, as one step-major _draw_noise block in one
    _noise_buffer that grows only if a block needs more.  hit(kept) returns
    the hit mask of a slice of kept rows of the live replicas (columns) and
    must not write into them; a replica stops at its first hit, at step 0
    with time 0.0 and no noise drawn.  A replica that hits mid-block steps on
    to the block's end on noise already drawn; times are set, and states, aux
    and replica ids compacted, once per block, after which NonFinite is
    raised if a survivor's state is not finite, and else dyn.check sees the
    survivors.  Returns (hitting times, nan if censored; recorded): the kept
    values at the steps in record (any order, repeats allowed, each in [0,
    max_steps]), shape (len(record), n) + kept shape, nan where a replica had
    stopped.
    """
    if max_steps < 0:
        raise ValueError(f"a run of {max_steps} steps: the duration must be nonnegative")
    record = np.asarray(record, dtype=int).reshape(-1)
    if np.any((record < 0) | (record > max_steps)):
        raise ValueError(f"recorded steps must lie in [0, {max_steps}]")
    order = np.argsort(record, kind="stable")
    wanted = record[order]
    shape, keep = dyn.shape, dyn.keep
    rngs = [replica_rng(seed, offset + i) for i in range(n)]
    width = 0 if shape is None else int(np.prod(shape))
    stops = np.full(n, max_steps + 1)  # each replica's hit step, past the horizon if none
    x = np.repeat(start[None], n, axis=0)
    aux = None if dyn.aux0 is None else np.repeat(dyn.aux0[None], n, axis=0)
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
            noise = _draw_noise([rngs[i] for i in ids], steps, shape, dyn.scale, buf)
        if kwidth:
            kept = buf[live * steps * width:live * steps * (width + kwidth)]
            kept = kept.view(kdtype).reshape((steps, live) + kshape)
        for j in range(steps):
            x, aux = dyn.step(x, None if noise is None else noise[j], aux)
            if kwidth:
                kept[j] = keep(x, aux)
        stop(done + 1, noise if keep is None else kept)
        if not np.all(np.isfinite(x)):
            raise NonFinite("a state overflowed; reduce dt")
        if dyn.check is not None:
            dyn.check(x)
        done += steps
    recorded[record[:, None] > stops] = np.nan  # steps run past a hit
    return np.where(stops <= max_steps, stops * dt, np.nan), recorded


def _sde_dynamics(run: SdeRun) -> Dynamics:
    """The Euler-Maruyama dynamics of run's replicas, which keep their states
    in their noise rows; check warns once if dt exceeds the inverse Hessian
    scale along the trajectory."""
    gradient = run.potential.gradient_batch

    def step(x, noise, _aux):  # the new states overwrite their noise row
        return np.add(x - gradient(x) * run.dt, noise, out=noise), None

    warned = False

    def check(x):  # dt should stay below 1/max |Hessian eigenvalue| at 4 survivors
        nonlocal warned
        for row in () if warned else x[:: max(1, len(x) // 4)][:4]:
            eigs = np.linalg.eigvalsh(np.atleast_2d(run.potential.hessian(row)))
            lam = float(np.max(np.abs(eigs)))
            if lam > 0 and run.dt >= 1.0 / lam:
                warnings.warn("dt exceeds 1/max Hessian eigenvalue along trajectory",
                              RuntimeWarning)
                warned = True
                break

    return Dynamics(step, (run.x0.size,), np.sqrt(2 * run.epsilon * run.dt),
                    check=check)


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
    round(t / dt) dt, shape (n, dim), run on the usable CPUs by run_ranges,
    each range in _recorded's batches."""
    if n < 0:
        raise ValueError("n must be >= 0")
    n_steps, dyn = steps_in(t, "t", run.dt), _sde_dynamics(run)
    return run_ranges(lambda offset, count: np.concatenate([
        ends[0] for ends in _recorded(dyn, run.x0, run.seed, replica_offset + offset,
                                      count, run.dt, [n_steps])]), n)


def _recorded(dyn: Dynamics, start: np.ndarray, seed: int, offset: int, n: int,
              dt: float, steps):
    """Yields the kept values of replicas offset, .., offset + n - 1 of dyn
    from start after each of steps, run to the largest (a negative one is
    refused): one (len(steps), batch) + kept shape array per engine call, in
    replica order, one empty one if n = 0.  A batch holds at most
    _BLOCK_NORMALS // max(_MIN_DRAW, the normals a replica draws a step)
    replicas, so a caller that reduces each batch holds memory set by the
    budget, not by n.  Hitting is not batched: each batch would pay its tail."""
    size = max(1, _BLOCK_NORMALS // max(_MIN_DRAW, int(np.prod(dyn.shape or ()))))
    max_steps = int(np.max(steps)) if len(steps) else 0
    for a in range(0, max(n, 1), size):
        yield _first_passage(dyn, start, seed, offset + a, min(size, n - a), dt,
                             max_steps, record=steps)[1]


def _hitting_times(run, dyn: Dynamics, start: np.ndarray, horizon: float,
                   distance, delta: float, n: int,
                   replica_offset: int) -> np.ndarray:
    """The first times distance(kept) < delta of n replicas of dyn from
    start, at run's seed and dt, nan if censored at the horizon, on the
    usable CPUs by run_ranges."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    max_steps = steps_in(horizon, "t_max", run.dt)
    return run_ranges(lambda offset, count: _first_passage(
        dyn, start, run.seed, replica_offset + offset, count, run.dt, max_steps,
        hit=lambda kept: distance(kept) < delta)[0], n)


def hitting_times_raw(run: SdeRun, target_center: np.ndarray, delta: float,
                      n: int, replica_offset: int = 0) -> np.ndarray:
    """First times ||x_t - center|| < delta, nan if censored at the horizon,
    deterministic given (seed, replica indices); ShapeMismatch unless the
    center has the state's dimension, ValueError unless it is finite."""
    center = np.atleast_1d(np.asarray(target_center, dtype=float))
    if center.size != run.x0.size:
        raise ShapeMismatch(f"target has {center.size} coordinates, the state "
                            f"{run.x0.size}")
    if not np.all(np.isfinite(center)):
        raise ValueError("target_center must be finite")

    def distance(x):  # x: (steps, live, dim)
        diff = x - center
        return np.sqrt(np.add.reduce(diff * diff, axis=-1))  # as np.linalg.norm

    return _hitting_times(run, _sde_dynamics(run), run.x0, run.horizon,
                          distance, delta, n, replica_offset)


def sample_hitting_times(run: SdeRun, target_center, delta: float, n: int,
                         replica_offset: int = 0) -> HittingTimeBatch:
    """n seeded replicas of the first-hitting time of the delta-ball, as a
    HittingTimeBatch: AllCensored unless some replica reaches the target."""
    return HittingTimeBatch(hitting_times_raw(run, target_center, delta, n,
                                              replica_offset))
