"""Transition-rate predictions: Arrhenius exponent plus explicit prefactor.

The mean transition time at noise intensity eps is predicted as
``prefactor * exp(barrier / eps)`` with prefactor
``(2 pi / |lambda_-|) * determinant_factor``; the determinant factor is a
Hessian-determinant ratio in finite dimension and an inverse square-root
spectral determinant for the truncated field dynamics.  On the torus the
unstable direction is the constant mode, so lambda_- = -1 and both field
laws (d = 1 and d = 2) differ only in barrier and determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .allen_cahn import renormalized_energy_gap
from .determinants import (
    _band_sum,
    _log_factors,
    carleman_det_2d,
    fredholm_closed_form,
    fredholm_det_1d,
)
from .errors import DegenerateHessian, ShapeMismatch, WrongKind
from .potentials import CriticalPoint, Potential

_DEGENERATE_TOL = 1e-12  # ek_finite's floor on |Hessian eigenvalue|


@dataclass(frozen=True)
class RatePrediction:
    """Mean-transition-time law prefactor * exp(barrier / eps).

    determinant_factor carries the square-root determinant ratio;
    det_tail is the relative truncation interval on it (0 for exact routes).
    """

    barrier: float
    prefactor: float
    lambda_minus: float
    determinant_factor: float
    det_tail: float = 0.0

    def predict(self, eps: float) -> float:
        """Predicted mean transition time at noise intensity eps > 0."""
        if eps <= 0:
            raise ValueError("eps must be positive")
        return self.prefactor * np.exp(self.barrier / eps)

    def log_predict(self, eps: float) -> float:
        """log of predict(eps), overflow-safe for small eps."""
        if eps <= 0:
            raise ValueError("eps must be positive")
        return float(np.log(self.prefactor) + self.barrier / eps)


def ek_finite(minimum: CriticalPoint, saddle: CriticalPoint,
              p: Potential) -> RatePrediction:
    """Rate prediction for a gradient diffusion between two critical points.

    barrier = V(saddle) - V(minimum); the determinant ratio is accumulated in
    log space from the Hessian eigenvalues, so arbitrarily large truncations
    do not overflow.  An eigenvalue below _DEGENERATE_TOL in modulus raises
    DegenerateHessian.
    """
    if minimum.kind != "minimum":
        raise WrongKind(f"expected a minimum, got {minimum.kind}")
    if saddle.kind != "saddle" or saddle.lambda_minus is None:
        raise WrongKind(f"expected a saddle, got {saddle.kind}")
    eig_min = np.asarray(minimum.hessian_eigenvalues, dtype=float)
    eig_sad = np.asarray(saddle.hessian_eigenvalues, dtype=float)
    if eig_min.size != eig_sad.size:
        raise ShapeMismatch("critical points live in different dimensions")
    if np.any(np.abs(eig_min) < _DEGENERATE_TOL) or np.any(np.abs(eig_sad) < _DEGENERATE_TOL):
        raise DegenerateHessian("near-zero Hessian eigenvalue in rate formula")
    if np.any(eig_min <= 0):
        raise WrongKind("minimum has nonpositive Hessian eigenvalues")
    if int(np.sum(eig_sad < 0)) != 1:
        raise WrongKind("saddle must have exactly one negative eigenvalue")

    barrier = p.value(saddle.location) - p.value(minimum.location)
    log_det_factor = 0.5 * (np.sum(np.log(np.abs(eig_sad))) - np.sum(np.log(eig_min)))
    det_factor = float(np.exp(log_det_factor))
    lam = float(saddle.lambda_minus)
    return RatePrediction(
        barrier=float(barrier),
        prefactor=2 * np.pi / abs(lam) * det_factor,
        lambda_minus=lam,
        determinant_factor=det_factor,
    )


def _torus_law(barrier: float, det_abs: float, log_tail: float) -> RatePrediction:
    """The torus field law: lambda_- = -1 and prefactor 2 pi det^{-1/2}.

    A log-tail t on the determinant is a relative interval t/2 on its
    inverse square root.
    """
    det_factor = 1.0 / np.sqrt(det_abs)
    return RatePrediction(barrier=barrier, prefactor=2 * np.pi * det_factor,
                          lambda_minus=-1.0, determinant_factor=det_factor,
                          det_tail=0.5 * log_tail)


def ek_allen_cahn_1d(L: float, N_for_det: Optional[int] = None) -> RatePrediction:
    """Transition-time law for the 1D torus field dynamics, 0 < L < 2 pi.

    barrier = L/4; the prefactor uses the closed-form determinant by default
    or the truncated product when N_for_det is given.
    """
    if N_for_det is None:
        return _torus_law(L / 4.0, abs(fredholm_closed_form(L)), 0.0)
    res = fredholm_det_1d(L, N_for_det)
    return _torus_law(L / 4.0, res.abs_value, res.tail_estimate)


def ek_allen_cahn_2d(L: float, N_for_det: int) -> RatePrediction:
    """Transition-time law for the renormalized 2D torus field dynamics.

    barrier = L^2/4, free of any counterterm; the prefactor uses the
    Carleman-Fredholm determinant at cutoff N_for_det, with its truncation
    interval reported.
    """
    res = carleman_det_2d(L, N_for_det)
    return _torus_law(L**2 / 4.0, res.abs_value, res.tail_estimate)


def compensation_residual(L: float, N: int, eps: float) -> float:
    """Relative log-space gap between the two equivalent d=2 rate routes.

    Route A uses the renormalized barrier L^2/4 + (3/2) L^2 eps C_N together
    with the plain truncated determinant product; route B uses the bare
    barrier L^2/4 with the Carleman-Fredholm determinant at the same cutoff.
    The counterterm and the exponential regularization cancel exactly, so the
    two log mean times agree up to floating-point regrouping.
    """
    log_plain = _band_sum(2, L, N, lambda nu, out: _log_factors(nu, out, False))[0]
    gap = renormalized_energy_gap(L, N, eps)
    log_route_a = np.log(2 * np.pi) - 0.5 * log_plain + gap / eps

    det2 = carleman_det_2d(L, N)
    log_route_b = np.log(2 * np.pi) - 0.5 * det2.log_abs + (L**2 / 4.0) / eps

    return abs(log_route_a - log_route_b) / max(1.0, abs(log_route_b))
