"""Transition-rate predictions: Arrhenius exponent plus explicit prefactor.

The mean transition time at noise intensity eps is predicted as
``prefactor * exp(barrier / eps)`` with prefactor
``(2 pi / |lambda_-|) * determinant_factor``; the determinant factor is a
Hessian-determinant ratio in finite dimension and an inverse square-root
spectral determinant for the truncated field dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .allen_cahn import AllenCahnEnergy
from .determinants import (
    _eigenvalues,
    carleman_det_2d,
    fredholm_closed_form,
    fredholm_det_1d,
)
from .errors import DegenerateHessian, ShapeMismatch, WrongKind
from .potentials import CriticalPoint, Potential


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
    kind: str
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
              p: Potential, degenerate_tol: float = 1e-12) -> RatePrediction:
    """Rate prediction for a gradient diffusion between two critical points.

    barrier = V(saddle) - V(minimum); the determinant ratio is accumulated in
    log space from the Hessian eigenvalues, so arbitrarily large truncations
    do not overflow.
    """
    if minimum.kind != "minimum":
        raise WrongKind(f"expected a minimum, got {minimum.kind}")
    if saddle.kind != "saddle" or saddle.lambda_minus is None:
        raise WrongKind(f"expected a saddle, got {saddle.kind}")
    eig_min = np.asarray(minimum.hessian_eigenvalues, dtype=float)
    eig_sad = np.asarray(saddle.hessian_eigenvalues, dtype=float)
    if eig_min.size != eig_sad.size:
        raise ShapeMismatch("critical points live in different dimensions")
    if np.any(np.abs(eig_min) < degenerate_tol) or np.any(np.abs(eig_sad) < degenerate_tol):
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
        kind="finite",
    )


def ek_allen_cahn_1d(L: float, N_for_det: Optional[int] = None) -> RatePrediction:
    """Transition-time law for the 1D torus field dynamics, 0 < L < 2 pi.

    barrier = L/4; the prefactor uses the closed-form determinant by default
    or the truncated product when N_for_det is given.
    """
    if N_for_det is None:
        det_abs = abs(fredholm_closed_form(L))
        tail = 0.0
    else:
        res = fredholm_det_1d(L, N_for_det)
        det_abs = res.abs_value
        tail = 0.5 * res.tail_estimate
    det_factor = 1.0 / np.sqrt(det_abs)
    return RatePrediction(
        barrier=L / 4.0,
        prefactor=2 * np.pi * det_factor,
        lambda_minus=-1.0,
        determinant_factor=det_factor,
        kind="allen_cahn_1d",
        det_tail=tail,
    )


def ek_allen_cahn_2d(L: float, N_for_det: int) -> RatePrediction:
    """Transition-time law for the renormalized 2D torus field dynamics.

    barrier = L^2/4, free of any counterterm; the prefactor uses the
    Carleman-Fredholm determinant at cutoff N_for_det, with its truncation
    interval reported.
    """
    res = carleman_det_2d(L, N_for_det)
    det_factor = 1.0 / np.sqrt(res.abs_value)
    return RatePrediction(
        barrier=L**2 / 4.0,
        prefactor=2 * np.pi * det_factor,
        lambda_minus=-1.0,
        determinant_factor=det_factor,
        kind="allen_cahn_2d",
        det_tail=0.5 * res.tail_estimate,
    )


def compensation_residual(L: float, N: int, eps: float) -> float:
    """Relative log-space gap between the two equivalent d=2 rate routes.

    Route A uses the renormalized barrier L^2/4 + (3/2) L^2 eps C_N together
    with the plain truncated determinant product; route B uses the bare
    barrier L^2/4 with the Carleman-Fredholm determinant at the same cutoff.
    The counterterm and the exponential regularization cancel exactly, so the
    two log mean times agree up to floating-point regrouping.
    """
    log_plain = float(np.sum(np.log(np.abs(1.0 + 3.0 / _eigenvalues(2, L, N)))))
    gap = AllenCahnEnergy(2, L, N).renormalized_energy_gap(eps)
    log_route_a = np.log(2 * np.pi) - 0.5 * log_plain + gap / eps

    det2 = carleman_det_2d(L, N)
    log_route_b = np.log(2 * np.pi) - 0.5 * det2.log_abs + (L**2 / 4.0) / eps

    return abs(log_route_a - log_route_b) / max(1.0, abs(log_route_b))
