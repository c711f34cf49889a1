"""Symmetric random walk on Z and its diffusive rescaling.

Under the scaling S_{floor(n t)} / sqrt(n) the walk converges to Brownian
motion: increments over [s, t] become centered normals of variance t - s.
ensemble_rescaled is the one walk, and ensemble_rescaled(1, n, t, seed) is
walk 0 of any ensemble at that seed; a time must be finite and nonnegative.
Distributional tests in the suite use fixed seeds and pre-registered
3-sigma / KS-5% bands so they stay deterministic.
"""

from __future__ import annotations

import numpy as np

from . import sde
from .errors import OutOfRange


def _walk_ranges(n: int, t_grid, seed: int):
    """worker(offset, count) for sde.run_ranges: the rescaled positions of
    walks offset, offset + 1, .. at t_grid, run one at a time through one
    buffer of up-step counts, read at the requested steps, so a range's
    memory is one walk's steps."""
    if n < 1:
        raise ValueError("n must be >= 1")
    t = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t)):
        raise OutOfRange(f"time {t[~np.isfinite(t)][0]} is not finite")
    if np.any(t < 0):
        raise OutOfRange("negative times requested")
    big = n * t >= 2.0**63  # floor(n t) past int64
    if np.any(big):
        raise OutOfRange(f"time {t[big][0]} is {n * t[big][0]:.3g} steps, "
                         "more than an int64 holds")
    nt = n * t  # floor(n t), where n t within 4 ulps of an integer k reads k
    k = np.rint(nt)
    idx = np.where(np.abs(nt - k) <= 4 * np.spacing(np.abs(k)), k, np.floor(nt)).astype(int)

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
