"""Symmetric random walk on Z and its diffusive rescaling.

Under the scaling S_{floor(n t)} / sqrt(n) the walk converges to Brownian
motion: increments over [s, t] become centered normals of variance t - s.
Distributional tests in the suite use fixed seeds and pre-registered
3-sigma / KS-5% bands so they stay deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sde
from .errors import OutOfRange


def _step_index(n: int, t: np.ndarray) -> np.ndarray:
    """floor(n t), with n t rounded to the nearest integer within 4 ulps of it."""
    nt = n * t
    k = np.rint(nt)
    return np.where(np.abs(nt - k) <= 4 * np.spacing(np.abs(k)), k,
                    np.floor(nt)).astype(int)


@dataclass(frozen=True)
class WalkPath:
    """steps: +-1 increments; positions: prefix sums with S_0 = 0."""

    steps: np.ndarray
    positions: np.ndarray


def walk(n: int, seed: int) -> WalkPath:
    """n iid +-1 steps, each sign with probability 1/2, seeded; the same
    steps as walk 0 of ensemble_rescaled at this seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = sde.replica_rng(seed, 0)
    steps = (2 * rng.integers(0, 2, size=n, dtype=np.int8) - 1).astype(np.int64)
    positions = np.concatenate(([0], np.cumsum(steps)))
    return WalkPath(steps=steps, positions=positions)


def diffusive_rescale(path: WalkPath, n: int, t_grid: np.ndarray) -> np.ndarray:
    """W_t = S_{floor(n t)} / sqrt(n) at the requested times; n t within a
    few ulps of an integer k counts as k, so t = k / n reads S_k however
    k / n rounds.

    Times must satisfy 0 <= t <= len(steps)/n.
    """
    t = np.asarray(t_grid, dtype=float)
    idx = _step_index(n, t)
    if np.any(t < 0) or np.any(idx > path.steps.size):
        raise OutOfRange(
            f"requested times outside [0, {path.steps.size / n}]"
        )
    return path.positions[idx] / np.sqrt(n)


def _walk_ranges(n: int, t_grid, seed: int):
    """worker(offset, count) for sde.run_ranges: the rescaled positions of
    walks offset, offset + 1, .. at t_grid, run one at a time through one
    buffer of up-step counts, read at the requested steps, so a range's
    memory is one walk's steps."""
    if n < 1:
        raise ValueError("n must be >= 1")
    t = np.asarray(t_grid, dtype=float)
    idx = _step_index(n, t)
    if np.any(t < 0):
        raise OutOfRange("negative times requested")

    def walks(offset, count):
        # ups[k]: the up-steps among a walk's first k
        ups = np.zeros(int(np.max(idx, initial=0)) + 1, dtype=np.int64)
        ups_at = np.empty((count, t.size), dtype=np.int64)
        for i in range(count):
            rng = sde.replica_rng(seed, offset + i)
            np.cumsum(rng.integers(0, 2, size=ups.size - 1, dtype=np.int8),
                      dtype=np.int64, out=ups[1:])
            np.take(ups, idx, out=ups_at[i])
        return (2 * ups_at - idx) / np.sqrt(n)  # S_k = 2 #ups_k - k

    return walks


def ensemble_rescaled(n_walks: int, n: int, t_grid: np.ndarray,
                      seed: int) -> np.ndarray:
    """Rescaled positions for an ensemble, shape (n_walks, len(t_grid)).

    Each walk draws from its own (seed, walk_index) stream, so the ensemble
    is reproducible under any execution order; the walks run as contiguous
    ranges on the usable CPUs (sde.run_ranges, _walk_ranges).
    """
    if n_walks < 0:
        raise ValueError("n_walks must be >= 0")
    return sde.run_ranges(_walk_ranges(n, t_grid, seed), n_walks)
