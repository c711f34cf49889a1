"""Finite-dimensional confining potentials and their critical points, each
built under CriticalPoint's one signature rule."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateHessian, NoConvergence

_FD_STEP = 1e-5  # the finite-difference step of numerical_gradient / _hessian
_GRADIENT_TOL = 1e-10  # the gradient norm at which Newton's iteration stops
_DEGENERATE_TOL = 1e-12  # every critical point's floor on |Hessian eigenvalue|


@dataclass(frozen=True)
class Potential:
    """A smooth potential V on R^dim: one formula for its value and gradient.

    value(x) -> (...) and gradient_batch(x) -> (..., dim) take array-likes x
    of shape (..., dim): one point or any batch of points, lists included.
    hessian(x) -> (dim, dim) symmetric array, for one point x of shape (dim,).
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient_batch: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CriticalPoint:
    """A minimum or a rank-one saddle, the two ends of an Eyring-Kramers law:
    read-only float copies, the eigenvalues sorted ascending, refused with
    DegenerateHessian unless those are finite, at least _DEGENERATE_TOL in
    modulus and at most one negative.  kind and lambda_minus are read off them."""

    location: np.ndarray
    hessian_eigenvalues: np.ndarray

    def __post_init__(self):
        eigs = np.sort(np.asarray(self.hessian_eigenvalues, dtype=float))
        n_neg = int(np.sum(eigs < 0))
        faults = ((not np.all(np.isfinite(eigs)), "non-finite Hessian eigenvalue"),
                  (np.any(np.abs(eigs) < _DEGENERATE_TOL),
                   f"Hessian eigenvalue below degeneracy threshold {_DEGENERATE_TOL}"),
                  (n_neg > 1, f"{n_neg} negative Hessian eigenvalues: "
                   "not a minimum or rank-one saddle"))
        for fault, message in faults:  # the first fault, in this order
            if fault:
                raise DegenerateHessian(message)
        location = np.array(self.location, dtype=float)
        location.flags.writeable = eigs.flags.writeable = False
        object.__setattr__(self, "location", location)
        object.__setattr__(self, "hessian_eigenvalues", eigs)

    @property
    def kind(self) -> str:  # by the sign of the lowest eigenvalue
        return "saddle" if self.hessian_eigenvalues[0] < 0 else "minimum"

    @property
    def lambda_minus(self) -> Optional[float]:  # the saddle's negative eigenvalue
        return float(self.hessian_eigenvalues[0]) if self.kind == "saddle" else None


def _quartic_value(x):
    """x^4/4 - x^2/2 of the first coordinate of points (..., dim)."""
    x2 = np.square(np.asarray(x, dtype=float)[..., 0])
    return x2 * x2 / 4 - x2 / 2


def _quartic_gradient(x):
    x = np.asarray(x, dtype=float)
    return x * x * x - x


def quartic_double_well() -> Potential:
    """The 1D double well V(x) = x^4/4 - x^2/2.

    Minima at x = -1 and x = +1 (V = -1/4), saddle at 0 (V = 0), so the
    barrier height is 1/4; curvatures are V''(+-1) = 2 and V''(0) = -1.
    """
    return Potential(value=_quartic_value, gradient_batch=_quartic_gradient,
                     hessian=lambda x: np.array([[3 * x[0] ** 2 - 1]]))


def quadratic_well(dim: int = 1) -> Potential:
    """Isotropic quadratic well V(x) = |x|^2 / 2."""
    return Potential(
        value=lambda x: 0.5 * np.sum(np.square(x), axis=-1),
        gradient_batch=lambda x: np.array(x, dtype=float),
        hessian=lambda x: np.eye(dim))


def double_well_2d() -> Potential:
    """V(x, y) = x^4/4 - x^2/2 + y^2/2: two minima and one saddle in 2D."""
    def gradient_batch(p):
        p = np.asarray(p, dtype=float)
        return np.stack([_quartic_gradient(p[..., 0]), p[..., 1]], axis=-1)

    return Potential(
        value=lambda p: _quartic_value(p) + np.square(np.asarray(p, float)[..., 1]) / 2,
        gradient_batch=gradient_batch,
        hessian=lambda p: np.array([[3 * p[0] ** 2 - 1, 0.0], [0.0, 1.0]]))


def numerical_gradient(p: Potential, x: np.ndarray) -> np.ndarray:
    """Centered O(h^2) finite differences of p.value, h = _FD_STEP."""
    x = np.asarray(x, dtype=float)
    e = _FD_STEP * np.eye(x.size)
    return (p.value(x + e) - p.value(x - e)) / (2 * _FD_STEP)


def numerical_hessian(p: Potential, x: np.ndarray) -> np.ndarray:
    """Centered O(h^2) finite differences of p.gradient_batch, h = _FD_STEP."""
    x = np.asarray(x, dtype=float)
    e = _FD_STEP * np.eye(x.size)
    H = (p.gradient_batch(x + e) - p.gradient_batch(x - e)).T / (2 * _FD_STEP)
    return 0.5 * (H + H.T)


def find_critical_point(p: Potential, guess, max_iter: int = 100,
                        degenerate_tol: float = 1e-8) -> CriticalPoint:
    """Newton refinement of a stationary point until the gradient norm falls
    below _GRADIENT_TOL, returned as a CriticalPoint.

    Fails loudly (NoConvergence / DegenerateHessian) on an exactly singular
    Newton step, on a non-finite Hessian at the converged point, or on an
    eigenvalue there below degenerate_tol (Newton's floor, above the record's).
    """
    x = np.atleast_1d(np.asarray(guess, dtype=float))
    for _ in range(max_iter):
        g = p.gradient_batch(x)
        if np.linalg.norm(g) < _GRADIENT_TOL:
            break
        try:
            x = x - np.linalg.solve(p.hessian(x), g)
        except np.linalg.LinAlgError as exc:
            raise DegenerateHessian(f"singular Hessian at iterate {x}") from exc
        if not np.all(np.isfinite(x)):
            raise NoConvergence("Newton iterate diverged to non-finite values")
    else:
        raise NoConvergence(
            f"gradient norm {np.linalg.norm(p.gradient_batch(x)):.3e} "
            f"> {_GRADIENT_TOL} after {max_iter} Newton steps"
        )
    hessian = p.hessian(x)
    if not np.all(np.isfinite(hessian)):  # eigvalsh maps a NaN to finite values
        raise DegenerateHessian(f"non-finite Hessian at {x}")
    eigs = np.linalg.eigvalsh(hessian)
    if np.any(np.abs(eigs) < degenerate_tol):
        raise DegenerateHessian(f"Hessian eigenvalue below degeneracy threshold {degenerate_tol}")
    return CriticalPoint(location=x, hessian_eigenvalues=eigs)
