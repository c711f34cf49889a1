"""Spectral determinants of 1 + 3/(-Lap - 1) and the Wick counterterm trace.

The eigenvalues nu_k = (2 pi |k| / L)^2 - 1 are fields.squared_wavenumber_grid
minus one: the band the field stepper advances, in FFT order.  So the
Fredholm and Carleman-Fredholm products and the counterterm C_N run over
exactly the modes the renormalized stepper evolves, and C_N cancels the
e^{-Tr} factor of the Carleman-Fredholm determinant mode by mode.

Products are accumulated as (sign, log-magnitude) pairs so that 2D products
over (2N+1)^2 modes never overflow, and so that regrouped reductions can be
compared at machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fields
from .errors import DomainError


@dataclass(frozen=True)
class DeterminantResult:
    """A truncated spectral determinant with convergence diagnostics.

    value = sign * exp(log_abs); tail_estimate bounds the log-magnitude of
    the dropped factors (integral comparison), so it certifies a relative
    truncation interval.
    """

    log_abs: float
    sign: int
    N: int
    tail_estimate: float
    kind: str  # "fredholm" or "carleman_fredholm"

    @property
    def value(self) -> float:
        return self.sign * np.exp(self.log_abs)

    @property
    def abs_value(self) -> float:
        return np.exp(self.log_abs)


def _check_domain(L: float) -> None:
    if not 0 < L < 2 * np.pi:
        raise DomainError(
            f"L = {L} outside (0, 2*pi): the operator -Lap - 1 acquires extra "
            "negative modes and the closed forms degenerate at L = 2*pi"
        )


def _eigenvalues(d: int, L: float, N: int) -> np.ndarray:
    """nu_k over the band max|k_i| <= N that the field stepper advances."""
    if d not in (1, 2):
        raise DomainError("only d=1 and d=2 are supported")
    if N < 0:
        raise DomainError("cutoff N must be nonnegative")
    if L <= 0:
        raise DomainError("torus side length must be positive")
    return fields.squared_wavenumber_grid(d, L, N) - 1.0


def _determinant(d: int, L: float, N: int) -> DeterminantResult:
    """prod (1 + x_k), x_k = 3/nu_k, over the band; in d=2 each factor also
    carries e^{-x_k}, which removes the trace divergence."""
    _check_domain(L)
    x = 3.0 / _eigenvalues(d, L, N)
    factors = 1.0 + x
    log_terms = np.log(np.abs(factors))
    a = L / (2 * np.pi)  # < 1, so nu_k > 0 for all k != 0
    if d == 1:
        tail = 3.0 * a * np.log((N + a) / (N - a)) if N >= 1 else np.inf
        kind = "fredholm"
    else:
        log_terms -= x  # fused per-mode reduction
        tail = 4.5 * a**4 * np.pi / (N**2 - a**2) if N >= 1 else np.inf
        kind = "carleman_fredholm"
    sign = -1 if np.count_nonzero(factors < 0) % 2 else 1
    return DeterminantResult(log_abs=float(np.sum(log_terms)), sign=sign, N=N,
                             tail_estimate=tail, kind=kind)


def fredholm_det_1d(L: float, N: int) -> DeterminantResult:
    """Truncated Fredholm determinant prod_{|k| <= N} (1 + 3/nu_k) in d=1.

    For 0 < L < 2 pi the only negative factor is the k=0 one (equal to -2),
    so the value is negative for every N; the infinite product converges to
    :func:`fredholm_closed_form` at rate O(1/N).
    """
    return _determinant(1, L, N)


def fredholm_closed_form(L: float) -> float:
    """-sinh^2(L/sqrt(2)) / sin^2(L/2), the N -> infinity limit in d=1."""
    _check_domain(L)
    return -np.sinh(L / np.sqrt(2)) ** 2 / np.sin(L / 2) ** 2


def carleman_det_2d(L: float, N: int) -> DeterminantResult:
    """Carleman-Fredholm determinant prod (1 + 3/nu_k) e^{-3/nu_k} in d=2.

    The exponential factor removes the trace divergence, leaving a log-tail
    of order sum 9/(2 nu_k^2) ~ 1/N^2; the plain product has no limit.
    """
    return _determinant(2, L, N)


def resolvent_trace(d: int, L: float, N: int) -> float:
    """Tr(P_N (-Lap - 1)^{-1}) = sum over the retained band of 1/nu_k."""
    return float(np.sum(1.0 / _eigenvalues(d, L, N)))


def counterterm_trace(L: float, N: int) -> float:
    """Wick counterterm C_N = Tr(P_N (-Lap - 1)^{-1}) / L^2 on the 2D torus.

    Diverges like log(N)/(2 pi); independent of the noise intensity, which
    multiplies it externally.
    """
    return resolvent_trace(2, L, N) / L**2
