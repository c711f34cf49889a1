"""Finite-dimensional confining potentials and their critical points."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateHessian, NoConvergence


@dataclass(frozen=True)
class Potential:
    """A smooth potential with gradient and Hessian access.

    value(x) -> float, gradient(x) -> (dim,) array, hessian(x) -> (dim, dim)
    symmetric array, all for x of shape (dim,).  gradient_batch, when set,
    maps an (n, dim) batch of states to their gradient rows in one call.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    gradient_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class CriticalPoint:
    """A nondegenerate stationary point, classified by Hessian signature."""

    location: np.ndarray
    kind: str  # "minimum" or "saddle"
    hessian_eigenvalues: np.ndarray  # sorted ascending
    lambda_minus: Optional[float]  # the unique negative eigenvalue iff saddle


def quartic_double_well() -> Potential:
    """The 1D double well V(x) = x^4/4 - x^2/2.

    Minima at x = -1 and x = +1 (V = -1/4), saddle at 0 (V = 0), so the
    barrier height is 1/4; curvatures are V''(+-1) = 2 and V''(0) = -1.
    """
    return Potential(
        dim=1,
        value=lambda x: float(x[0] ** 4 / 4 - x[0] ** 2 / 2),
        gradient=lambda x: np.array([x[0] ** 3 - x[0]]),
        hessian=lambda x: np.array([[3 * x[0] ** 2 - 1]]),
        name="quartic_double_well",
        gradient_batch=lambda x: x * x * x - x,
    )


def quadratic_well(curvature: float = 1.0, dim: int = 1) -> Potential:
    """Isotropic quadratic well V(x) = curvature * |x|^2 / 2."""
    return Potential(
        dim=dim,
        value=lambda x: float(0.5 * curvature * np.dot(x, x)),
        gradient=lambda x: curvature * np.asarray(x, dtype=float),
        hessian=lambda x, _c=curvature, _d=dim: _c * np.eye(_d),
        name=f"quadratic_well({curvature})",
        gradient_batch=lambda x, _c=curvature: _c * x,
    )


def double_well_2d() -> Potential:
    """V(x, y) = x^4/4 - x^2/2 + y^2/2: two minima and one saddle in 2D."""
    return Potential(
        dim=2,
        value=lambda p: float(p[0] ** 4 / 4 - p[0] ** 2 / 2 + p[1] ** 2 / 2),
        gradient=lambda p: np.array([p[0] ** 3 - p[0], p[1]]),
        hessian=lambda p: np.array([[3 * p[0] ** 2 - 1, 0.0], [0.0, 1.0]]),
        name="double_well_2d",
        gradient_batch=lambda x: np.stack([x[:, 0] * x[:, 0] * x[:, 0] - x[:, 0], x[:, 1]],
                                           axis=1),
    )


def numerical_gradient(p: Potential, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Centered O(h^2) finite differences of p.value."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (p.value(x + e) - p.value(x - e)) / (2 * h)
    return g


def numerical_hessian(p: Potential, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Centered O(h^2) finite differences of p.gradient."""
    x = np.asarray(x, dtype=float)
    H = np.zeros((x.size, x.size))
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        H[:, i] = (p.gradient(x + e) - p.gradient(x - e)) / (2 * h)
    return 0.5 * (H + H.T)


def classify_hessian(eigenvalues: np.ndarray, degenerate_tol: float = 1e-8):
    """Return ("minimum" | "saddle", lambda_minus) from sorted eigenvalues.

    Raises DegenerateHessian for near-zero eigenvalues and for signatures
    with more than one negative direction (not a transition saddle).
    """
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))
    if np.any(np.abs(eigs) < degenerate_tol):
        raise DegenerateHessian(
            f"Hessian eigenvalue below degeneracy threshold {degenerate_tol}"
        )
    n_neg = int(np.sum(eigs < 0))
    if n_neg == 0:
        return "minimum", None
    if n_neg == 1:
        return "saddle", float(eigs[0])
    raise DegenerateHessian(
        f"{n_neg} negative Hessian eigenvalues: not a minimum or rank-one saddle"
    )


def find_critical_point(p: Potential, guess, tol_crit: float = 1e-10,
                        max_iter: int = 100,
                        degenerate_tol: float = 1e-8) -> CriticalPoint:
    """Newton refinement of a stationary point, classified by Hessian signs.

    Fails loudly (NoConvergence / DegenerateHessian) instead of returning a
    degenerate or unconverged point.  Falls back to a finite-difference
    Jacobian when the potential's Hessian raises NotImplementedError.
    """
    x = np.atleast_1d(np.asarray(guess, dtype=float)).copy()
    for _ in range(max_iter):
        g = np.atleast_1d(p.gradient(x))
        if np.linalg.norm(g) < tol_crit:
            break
        try:
            H = np.atleast_2d(p.hessian(x))
        except NotImplementedError:
            H = numerical_hessian(p, x)
        if abs(np.linalg.det(H)) < degenerate_tol:
            raise DegenerateHessian(
                f"|det Hess| < {degenerate_tol} at iterate {x}"
            )
        x = x - np.linalg.solve(H, g)
        if not np.all(np.isfinite(x)):
            raise NoConvergence("Newton iterate diverged to non-finite values")
    else:
        raise NoConvergence(
            f"gradient norm {np.linalg.norm(np.atleast_1d(p.gradient(x))):.3e} "
            f"> {tol_crit} after {max_iter} Newton steps"
        )
    try:
        H = np.atleast_2d(p.hessian(x))
    except NotImplementedError:
        H = numerical_hessian(p, x)
    eigs = np.linalg.eigvalsh(H)
    kind, lam = classify_hessian(eigs, degenerate_tol)
    return CriticalPoint(location=x, kind=kind,
                         hessian_eigenvalues=np.sort(eigs), lambda_minus=lam)
