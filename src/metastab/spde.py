"""Pseudospectral semi-implicit integrator for the stochastic Allen-Cahn
equation on the 1D/2D torus, with per-mode space-time white noise and an
optional Wick counterterm in d=2.

Mode update per step (FFT ordering, mu_k = 1 - (2 pi |k| / L)^2):

    phi_k <- [phi_k + dt 3 eps C_N phi_k + P_k(-dt u^3 + b h)] / (1 - dt mu_k)

The stiff linear part is implicit, so high modes are unconditionally stable.
The state is the k_last >= 0 half of the band, which is what the real-FFT
pair fields.BandGrid reads and returns: u is its grid on the dealiased M-grid
(M = 2(2N+1)) and P its projection, so the cubic's projection is exact.
h holds (2N+1)^d iid real standard normals on the sublattice of every second
point, where their M-point DFT equals their (2N+1)-point DFT on the band, and
b = sqrt(2 eps dt) (2N+1)^{-d/2} M^d L^{-d/2}.  So one forward real FFT gives
dt times the drift plus sqrt(2 eps dt) eta_k, eta the DFT of the normals over
(2N+1)^{d/2}: exactly conjugate-symmetric with unit variance per mode, so
each real Fourier degree of freedom receives an independent Brownian motion.
Each step runs one inverse and one forward real FFT; full_band() mirrors the
state only where a full band is handed out.

Every time loop runs on sde._first_passage.  _Stepper.dynamics is the
field's sde.Dynamics: it draws each block's normals step-major and carries
each state's grid as the aux step() takes and returns; the engine, not
step() or its callers here, raises NonFinite once a block leaves a surviving
state overflowed.  Trajectories, snapshots and the noiseless flow are one
batch of one replica of sde._recorded, recording what the caller keeps at
the steps it names.  The noise check reads the white-noise isometry off
mode_noise as an exact identity; its Monte Carlo runs its own summing
dynamics, whose states sum their normals, through sde._recorded too and
reduces each batch to its pairings as it arrives.  Hitting runs on sde's one
hitting entry, keeping each step's fields.distance_to_constant as the
distance it compares with delta.  A run is built under sde.check_run, reads
(d, L, N) off its initial field, a band that passed fields.check_band when
that field was built, and its counterterm needs 0 < L < 2 pi.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import fields
from .determinants import counterterm_trace
from .errors import DomainError
from .fields import SpectralField
from .sde import (Dynamics, HittingTimeBatch, _draw_noise, _hitting_times,
                  _recorded, check_run, run_ranges, steps_in)


@dataclass(frozen=True)
class SpdeRun:
    """Configuration of one field simulation."""

    field0: SpectralField
    epsilon: float
    dt: float
    t_max: float
    seed: int
    renormalize: Optional[bool] = None  # None: on for d=2, off for d=1, set when built
    drop_cubic: bool = False  # diagnostic: exact per-mode OU dynamics

    def __post_init__(self):
        # The implicit step divides mode k by 1 - dt mu_k, and mu_0 = 1 is
        # the largest mu_k: at dt = 1 the mean mode's divisor is zero, and
        # above it the divisor is negative, so the mean flips sign each step.
        if self.dt >= 1:
            raise DomainError(f"dt = {self.dt} must be below 1: the implicit "
                              "step divides the mean mode by 1 - dt")
        check_run(self.epsilon, self.dt, self.t_max, self.field0.coeffs, "field0")
        if self.renormalize and self.field0.d == 1:
            raise DomainError("the Wick counterterm is defined only in d=2")
        if self.renormalize is False and self.field0.d == 2:
            warnings.warn("running the d=2 field without renormalization: "
                          "statistics will not converge as N grows",
                          RuntimeWarning)
        if self.renormalize is None:
            object.__setattr__(self, "renormalize", self.field0.d == 2)


class _Stepper:
    """Precomputed arrays for repeated steps of one run.  States are half
    bands, the k_last >= 0 columns that fields.BandGrid reads and returns."""

    def __init__(self, run: SpdeRun):
        f0 = run.field0
        self.run = run
        self.d, self.L, self.N = f0.d, f0.L, f0.N
        self.c0 = f0.coeffs[..., :self.N + 1]  # the start's half band
        self.M = fields.dealiased_grid_size(self.N)
        self.n_modes = 2 * self.N + 1
        self.noise_shape = (self.n_modes,) * self.d  # normals per step
        ksq = fields.squared_wavenumber_grid(self.d, self.L, self.N)[..., :self.N + 1]
        mu = 1.0 - ksq
        self.denom = 1.0 - run.dt * mu
        self.counter = 0.0
        if run.renormalize:
            self.counter = 3.0 * run.epsilon * counterterm_trace(self.L, self.N)
        self.noise_amp = np.sqrt(2.0 * run.epsilon * run.dt)
        self.colloc = fields.BandGrid(self.d, self.L, self.N, self.M)
        # The normals sit on every second grid point, where their M-point DFT
        # is their (2N+1)-point DFT on the band; noise_scale makes project()
        # of them that DFT over (2N+1)^{d/2}: unit variance per mode.
        self.sublattice = (Ellipsis,) + (slice(None, None, 2),) * self.d
        self.noise_scale = self.n_modes ** (-self.d / 2.0) / self.colloc.proj_scale

    def mode_noise(self, eta: np.ndarray) -> np.ndarray:
        """The conjugate-symmetric unit-variance half-band noise that step()
        adds, over sqrt(2 eps dt), for the normals eta."""
        grid = np.zeros(eta.shape[:-self.d] + (self.M,) * self.d)
        grid[self.sublattice] = self.noise_scale * eta
        return self.colloc.project(grid)

    def dynamics(self, keep, noisy: bool = True) -> Dynamics:
        """The run's dynamics from c0, keeping keep(half bands, grids) of
        each step, noiseless unless noisy."""
        return Dynamics(self.step, self.noise_shape if noisy else None,
                        keep=keep, aux0=self.colloc.grid(self.c0))

    def step(self, coeffs: np.ndarray, eta: Optional[np.ndarray], u: np.ndarray):
        """One semi-implicit update of half bands that may carry leading batch
        axes, with u = grid(coeffs); eta holds their noise_shape normals, None
        for no noise.  Returns (new half bands, grid(new)).

        One forward real FFT of -dt u^3 plus the scaled normals on the
        sublattice gives dt times the cubic drift plus the noise; the inverse
        FFT of the new state gives the grid the next step and the distance
        read.
        """
        dt = self.run.dt
        if self.run.drop_cubic:
            w = np.zeros(coeffs.shape[:-self.d] + (self.M,) * self.d)
        else:
            w = u * u * u
            w *= -dt
        if eta is not None:
            w[self.sublattice] += (self.noise_amp * self.noise_scale) * eta
        new = self.colloc.project(w)
        if self.counter:
            new += (dt * self.counter) * coeffs
        new += coeffs
        new /= self.denom
        return new, self.colloc.grid(new)


def draw_mode_noise(run: SpdeRun, rng: np.random.Generator) -> np.ndarray:
    """A single conjugate-symmetric noise array with the law the stepper uses."""
    st = _Stepper(run)
    eta = _draw_noise([rng], 1, st.noise_shape)[0, 0]
    return fields.full_band(st.mode_noise(eta), st.d)


def integrate_deterministic(run: SpdeRun, t_final: float,
                            record_every: int = 1):
    """Zero-noise integration; returns (times, coeff snapshots) arrays.

    Snapshots are taken every record_every steps; the final state is always
    included.
    """
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    st = _Stepper(run)
    n_steps = steps_in(t_final, "t_final", run.dt)
    steps = np.union1d(np.arange(0, n_steps + 1, record_every), n_steps)
    snaps = next(_recorded(st.dynamics(lambda c, _u: c, noisy=False), st.c0,
                           run.seed, 0, 1, run.dt, steps))[:, 0]
    return steps * run.dt, fields.full_band(snaps, st.d)


def spatial_mean_trajectory(run: SpdeRun, t_final: float) -> tuple[np.ndarray, np.ndarray]:
    """Times and spatially-averaged field of one noisy trajectory."""
    st = _Stepper(run)
    n_steps = steps_in(t_final, "t_final", run.dt)
    steps = np.append(np.arange(n_steps), n_steps)  # 0 .. n_steps, or a negative n_steps
    mean = st.dynamics(lambda c, _u: c[(Ellipsis,) + (0,) * st.d].real)
    means = next(_recorded(mean, st.c0, run.seed, 0, 1, run.dt, steps))[:, 0]
    return steps * run.dt, means * st.L ** (-st.d / 2.0)


# ---------------------------------------------------------------------------
# White-noise normalization check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseCheckReport:
    """The white-noise isometry on indicator sets: exact, and sampled."""

    sets: tuple
    T_values: tuple  # the simulated horizons k dt, k = round(T / dt) >= 1
    empirical_var: np.ndarray  # (n_sets, n_T)
    predicted_var: np.ndarray  # truncated prediction T * sum |a_k|^2
    continuum_var: np.ndarray  # T * volume(A)
    var_stderr: np.ndarray
    isometry_residual: np.ndarray  # (n_sets,) |g|^2 / sum |a_k|^2 - 1
    pair_correlation: float  # sample, the last two boxes at the last T
    exact_pair_correlation: float  # g_1 . g_2 / (|g_1| |g_2|)
    pair_tol: float


def _indicator_coeffs(d: int, L: float, N: int, interval_per_axis) -> np.ndarray:
    """Band coefficients of the indicator of a box, conj(e_k)-integrals."""
    k = fields.mode_wavenumbers(N)
    w = -2j * np.pi * np.where(k == 0, 1, k) / L
    ax = [np.where(k == 0, hi - lo, (np.exp(w * hi) - np.exp(w * lo)) / w)
          for lo, hi in interval_per_axis]
    if d == 2:
        return np.outer(ax[0], ax[1]) / L  # joint L^{-d/2} normalization
    # the k = 0 entry is real; dividing it as a complex number moves its last bit
    return np.where(k == 0, ax[0].real / np.sqrt(L), ax[0] / np.sqrt(L))


def noise_coefficient_check(run: SpdeRun, T_values: Sequence[float] = (0.5, 1.0),
                            n: int = 2000) -> NoiseCheckReport:
    """Verify the white-noise isometry on indicator functions.

    For each box A of [0, L]^d, [0, L/2]^d and [L/2, L]^d a step's noise,
    linear in its normals eta, pairs with 1_A as g . eta.  The isometry,
    E <xi, 1_{[0,T] x A}>^2 = T times the squared L^2 norm of the truncated
    indicator (continuum: T |A|), is then |g|^2 = sum_k |a_k|^2 exactly;
    the disjoint last two boxes' pairings have correlation g_1 . g_2 /
    (|g_1| |g_2|).  A Monte Carlo checks that the engine feeds each replica
    iid normals: the states of n replicas sum their normals, and their
    pairings at each horizon T, sqrt(dt) sums . g, are an elementwise product
    and a row sum, so sde.run_ranges cuts the replicas anywhere.  Each T runs
    k = round(T / dt) >= 1 steps, and is reported and predicted at k dt.
    """
    if n < 2:
        raise ValueError("n must be >= 2 for a sample variance")
    n_steps_per_T = [steps_in(float(T), "T", run.dt) for T in T_values]
    if not n_steps_per_T:
        raise ValueError("T_values is empty: the check needs a horizon")
    for T, k in zip(T_values, n_steps_per_T):
        if k < 1:
            raise ValueError(f"T = {T} rounds to {k} steps of dt = {run.dt}")
    st = _Stepper(run)
    d, L, N = st.d, st.L, st.N
    sets = [((0.0, L),) * d, ((0.0, L / 2),) * d, ((L / 2, L),) * d]
    coeffs = np.array([_indicator_coeffs(d, L, N, s) for s in sets])
    # Re sum_k eta_k conj(a_k) over the band, read off the half band: the
    # k_last > 0 columns stand for their mirrors too
    pair_rows = coeffs[..., :N + 1].conj()
    pair_rows[..., 1:] *= 2
    pair_rows = pair_rows.reshape(len(sets), 1, -1)
    # g . eta = Re sum_k pair_rows_k mode_noise(eta)_k for any normals eta,
    # built from chunks of unit normals: a dense basis at d=2, N=32 takes 1.7 GB
    size = st.n_modes ** d
    g = np.empty((len(sets), size))
    for a in range(0, size, 64):
        unit = np.eye(min(64, size - a), size, a).reshape((-1,) + st.noise_shape)
        flat = st.mode_noise(unit).reshape(len(unit), -1)
        g[:, a:a + len(unit)] = np.real((flat * pair_rows).sum(-1))
    T_values = tuple(k * run.dt for k in n_steps_per_T)  # the simulated horizons
    # a replica's state: the sum of its normals, kept in its noise row
    summing = Dynamics(lambda x, noise, _aux: (np.add(x, noise, out=noise), None),
                       st.noise_shape)

    def pairings(sums):  # one batch's (T, count) + noise_shape: (count, T, sets)
        sums = sums.reshape(sums.shape[:2] + (-1,))
        return np.sqrt(run.dt) * np.stack([(sums * row).sum(-1) for row in g],
                                          axis=-1).swapaxes(0, 1)

    pair_sums = run_ranges(lambda offset, count: np.concatenate([
        pairings(sums) for sums in _recorded(summing, np.zeros(st.noise_shape),
                                             run.seed, offset, count, run.dt,
                                             n_steps_per_T)]), n)  # (n, T, sets)
    pair_sums = np.ascontiguousarray(pair_sums.transpose(2, 1, 0))  # (sets, T, n)

    emp = pair_sums.var(axis=2, ddof=1)
    stderr = emp * np.sqrt(2.0 / (n - 1))
    norm_sq = np.sum(np.abs(coeffs.reshape(len(sets), -1)) ** 2, axis=1)
    g_sq = np.sum(g * g, axis=1)
    vol = [np.prod([hi - lo for (lo, hi) in s]) for s in sets]
    pred, cont = np.outer(norm_sq, T_values), np.outer(vol, T_values)
    corr = float(np.corrcoef(pair_sums[1, -1], pair_sums[2, -1])[0, 1])
    exact = float(np.sum(g[1] * g[2]) / np.sqrt(g_sq[1] * g_sq[2]))
    return NoiseCheckReport(sets=tuple(map(tuple, sets)), T_values=T_values,
                            empirical_var=emp, predicted_var=pred,
                            continuum_var=cont, var_stderr=stderr,
                            isometry_residual=g_sq / norm_sq - 1.0,
                            pair_correlation=corr, exact_pair_correlation=exact,
                            pair_tol=3.0 / np.sqrt(n))


# ---------------------------------------------------------------------------
# First-hitting times
# ---------------------------------------------------------------------------


def spde_hitting_times_raw(run: SpdeRun, target: float, delta: float,
                           norm: str = "linf", s: float = -0.5,
                           n: int = 1, replica_offset: int = 0) -> np.ndarray:
    """First times the distance to the constant target falls below delta.

    norm = "linf" measures on the collocation grid; norm = "hs" uses the
    Fourier-weighted Sobolev norm with index s < 0 (fields.distance_to_constant).
    One nan per censored replica; deterministic given (seed, replica index).
    The replicas run on the usable CPUs (sde.run_ranges); ValueError unless
    target is finite.
    """
    if not np.isfinite(target):
        raise ValueError("target must be finite")
    if norm == "hs" and not s < 0:
        raise DomainError("the Sobolev hitting norm requires s < 0")
    st = _Stepper(run)
    dyn = st.dynamics(fields.distance_to_constant(st.d, st.L, st.N, target, norm, s))
    return _hitting_times(run, dyn, st.c0, run.t_max, lambda dist: dist, delta,
                          n, replica_offset)


def sample_spde_hitting_times(run: SpdeRun, target: float, delta: float,
                              norm: str = "linf", s: float = -0.5,
                              n: int = 1, replica_offset: int = 0) -> HittingTimeBatch:
    """Seeded ensemble of field first-hitting times (see spde_hitting_times_raw)."""
    return HittingTimeBatch(spde_hitting_times_raw(
        run, target, delta, norm=norm, s=s, n=n, replica_offset=replica_offset))


# ---------------------------------------------------------------------------
# Snapshot export
# ---------------------------------------------------------------------------


def export_snapshot_csv(field: SpectralField, t: float, filename: str) -> np.ndarray:
    """Grid values on the dealiased grid as CSV, row-major, with a header
    naming (d, L, N, t); returns the grid values written."""
    vals = fields.grid_values(field)
    header = f"d={field.d},L={field.L!r},N={field.N},t={t!r}"
    np.savetxt(filename, np.atleast_2d(vals), delimiter=",", header=header)
    return vals


def record_snapshots(run: SpdeRun, snapshot_times, out_dir,
                     replica_index: int = 0) -> list:
    """Simulate one noisy trajectory and export field snapshots.

    Writes snap_<i>.csv grid files at the requested times, in time order,
    plus trajectory.jsonl with one summary line (t, spatial mean, min, max)
    per snapshot, after the run; returns the written paths.  A time t is
    taken at k = round(t / dt) steps (sde.steps_in) and reported as k dt.
    """
    times = sorted(float(t) for t in snapshot_times)
    if times and times[0] < 0:
        raise ValueError(f"snapshot time {times[0]} is negative")
    steps = [steps_in(t, "snapshot time", run.dt) for t in times]
    st = _Stepper(run)
    snaps = next(_recorded(st.dynamics(lambda c, _u: c), st.c0, run.seed,
                           replica_index, 1, run.dt, steps))[:, 0]
    os.makedirs(out_dir, exist_ok=True)
    written = []
    jsonl = os.path.join(out_dir, "trajectory.jsonl")
    with open(jsonl, "w") as summary:
        for i, (c, k) in enumerate(zip(snaps, steps)):
            path, t = os.path.join(out_dir, f"snap_{i:04d}.csv"), k * run.dt
            vals = export_snapshot_csv(
                SpectralField(st.d, st.L, st.N, fields.full_band(c, st.d)), t, path)
            summary.write(json.dumps({"t": t, "mean": float(vals.mean()),
                                      "min": float(vals.min()),
                                      "max": float(vals.max())}) + "\n")
            written.append(path)
    return written + [jsonl]
