"""Path-cost functionals for gradient diffusions and 1D torus field dynamics.

The cost of a discrete path is the midpoint-rule quadrature of
``|velocity + gradient|^2 / 2``: velocities are per-cell differences (which
are centered, O(dt^2) differences about the cell midpoint) and the gradient
is evaluated at the midpoint state.  Zero exactly on constant critical-point
paths, O(dt^2) on gradient-flow paths, and reversal adds twice the potential
difference of the endpoints.

Both paths share one times rule; a FieldPath runs fields.check_band, the band
rule, when built, as SpectralField does, and nothing else runs it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import fields
from .errors import DegeneratePath, ShapeMismatch
from .fields import SpectralField
from .potentials import Potential


@dataclass(frozen=True)
class DiscretePath:
    """Piecewise-linear path in R^n: times (n_t,), points (n_t, dim)."""

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "times", _check_times(self.times, x.shape, "points"))
        object.__setattr__(self, "points", x)

    def reversed(self) -> "DiscretePath":
        t = self.times
        return DiscretePath(times=t[-1] - t[::-1], points=self.points[::-1])


@dataclass(frozen=True)
class FieldPath:
    """Path of torus fields: times (n_t,), a read-only (n_t,) + band stack."""

    times: np.ndarray
    d: int
    L: float
    N: int
    coeffs: np.ndarray

    def __post_init__(self):
        t = _check_times(self.times, np.shape(self.coeffs), "snapshots")
        object.__setattr__(self, "coeffs", fields.check_band(
            self.d, self.L, self.N, self.coeffs, lead=t.shape))
        object.__setattr__(self, "times", t)

    def field(self, i: int) -> SpectralField:
        return SpectralField(self.d, self.L, self.N, self.coeffs[i])

    def reversed(self) -> "FieldPath":
        t = self.times
        return FieldPath(times=t[-1] - t[::-1], d=self.d, L=self.L, N=self.N,
                         coeffs=self.coeffs[::-1])


def _check_times(times, shape: tuple, name: str) -> np.ndarray:
    """The times rule: 2 or more, strictly increasing, and shape[0] of them."""
    t = np.asarray(times, dtype=float)
    if t.size < 2:
        raise DegeneratePath("a path needs at least 2 nodes")
    if not np.all(np.diff(t) > 0):
        raise DegeneratePath("times must be strictly increasing")
    if shape[:1] != t.shape:
        raise ShapeMismatch(f"times and {name} disagree in length")
    return t


def path_from_states(times, states) -> DiscretePath:
    return DiscretePath(np.asarray(times, float), np.asarray(states, float))


def rate_functional_sde(path: DiscretePath, p: Potential) -> float:
    """Half the time integral of |velocity + grad V|^2 along the path."""
    t = path.times
    x = path.points
    dt = np.diff(t)[:, None]
    vel = np.diff(x, axis=0) / dt
    mid = 0.5 * (x[:-1] + x[1:])
    integrand = np.sum((vel + p.gradient_batch(mid)) ** 2, axis=1)
    return float(0.5 * np.sum(integrand * dt[:, 0]))


def rate_functional_ac_1d(path: FieldPath) -> float:
    """Space-time cost of a 1D field path against its own gradient dynamics.

    Integrand: (d_t gamma - d_xx gamma - gamma + gamma^3)^2, quadrature
    midpoint in time; the spatial integral of the squared residual is exact
    for band-limited snapshots because the residual (modes up to 3N) is
    evaluated on a grid with more than 6N points.  ShapeMismatch unless d=1.
    """
    if path.d != 1:
        raise ShapeMismatch("this functional is defined for d=1 field paths")
    L, N, c, dt = path.L, path.N, path.coeffs, np.diff(path.times)
    ksq = fields.squared_wavenumber_grid(1, L, N)
    mid = 0.5 * (c[:-1] + c[1:])
    # linear part of the residual in coefficients: d_t + (k^2 - 1) phi
    lin = np.diff(c, axis=0) / dt[:, None] + (ksq - 1.0) * mid
    M = 6 * N + 7
    grid = fields.BandGrid(1, L, N, M)
    resid = grid.grid(mid)
    resid *= resid * resid
    resid += grid.grid(lin)
    return 0.5 * float(np.sum(np.sum(resid * resid, axis=1) * (L / M) * dt))


# ---------------------------------------------------------------------------
# Path import/export
# ---------------------------------------------------------------------------


def save_path_csv(path: DiscretePath, filename: str) -> None:
    """CSV with a time column followed by one column per state component."""
    dim = path.points.shape[1]
    header = ",".join(["t"] + [f"x{i}" for i in range(dim)])
    data = np.column_stack([path.times, path.points])
    np.savetxt(filename, data, delimiter=",", header=header, comments="")


def load_path_csv(filename: str) -> DiscretePath:
    data = np.loadtxt(filename, delimiter=",", skiprows=1, ndmin=2)
    return DiscretePath(times=data[:, 0], points=data[:, 1:])


def save_field_path_jsonl(path: FieldPath, filename: str) -> None:
    """One JSON object per snapshot: t plus interleaved re/im coefficients."""
    with open(filename, "w") as f:
        for i, t in enumerate(path.times):
            row = {
                "t": float(t),
                "d": path.d,
                "L": path.L,
                "N": path.N,
                "re": path.coeffs[i].real.ravel().tolist(),
                "im": path.coeffs[i].imag.ravel().tolist(),
            }
            f.write(json.dumps(row) + "\n")


def _field_row(line: str, i: int) -> dict:
    """The row rule: row i is a JSON object (else ValueError) holding t, d, L,
    N, re and im (ValueError naming the first it lacks), with integers d and
    N and real numbers t and L, none a bool (else ValueError naming the key),
    and (2N+1)^d values in re and in im (ShapeMismatch naming the one that
    has not)."""
    row = json.loads(line)
    if not isinstance(row, dict):
        raise ValueError(f"row {i} is not a JSON object")
    for key in ("t", "d", "L", "N", "re", "im"):
        if key not in row:
            raise ValueError(f"row {i} has no {key!r}")
    for key, kinds, name in (("d", int, "an integer"), ("N", int, "an integer"),
                             ("t", (int, float), "a real number"),
                             ("L", (int, float), "a real number")):
        if not isinstance(row[key], kinds) or isinstance(row[key], bool):
            raise ValueError(f"row {i}'s {key!r} is {row[key]!r}, not {name}")
    size = (2 * row["N"] + 1) ** row["d"]
    for key in ("re", "im"):
        if np.size(row[key]) != size:
            raise ShapeMismatch(f"row {i} has {np.size(row[key])} {key} values, "
                                f"not (2N+1)^d = {size}")
    return row


def load_field_path_jsonl(filename: str) -> FieldPath:
    with open(filename) as f:
        rows = [_field_row(line, i) for i, line in enumerate(f, 1)]
    if not rows:
        raise DegeneratePath("empty snapshot file")
    d, L, N = (rows[0][key] for key in "dLN")
    if any((row["d"], row["L"], row["N"]) != (d, L, N) for row in rows):
        raise ShapeMismatch("snapshots with inconsistent (d, L, N)")
    snaps = [(np.array(row["re"]) + 1j * np.array(row["im"])).reshape((2 * N + 1,) * d)
             for row in rows]
    return FieldPath(times=np.array([row["t"] for row in rows]), d=d, L=L, N=N,
                     coeffs=np.array(snaps))
