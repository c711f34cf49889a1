"""Torus Laplacian spectra and spectral determinants of 1 + 3/(-Lap - 1).

All mode products are accumulated as (sign, log-magnitude) pairs so that 2D
products over (2N+1)^2 modes never overflow, and so that regrouped reductions
can be compared at machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class TorusSpectrum:
    """Eigenvalues nu_k = (2 pi |k| / L)^2 - 1 over the square cutoff max|k_i| <= N."""

    d: int
    L: float
    N: int
    eigenvalues: np.ndarray  # flattened, the k=0 entry first


@dataclass(frozen=True)
class DeterminantResult:
    """A truncated spectral determinant with convergence diagnostics.

    value = sign * exp(log_abs); tail_estimate bounds the log-magnitude of
    the dropped factors (integral comparison), so it certifies a relative
    truncation interval.
    """

    value: float
    abs_value: float
    log_abs: float
    sign: int
    N: int
    tail_estimate: float
    kind: str  # "fredholm" or "carleman_fredholm"


def _check_domain(L: float) -> None:
    if not 0 < L < 2 * np.pi:
        raise DomainError(
            f"L = {L} outside (0, 2*pi): the operator -Lap - 1 acquires extra "
            "negative modes and the closed forms degenerate at L = 2*pi"
        )


def torus_spectrum(d: int, L: float, N: int) -> TorusSpectrum:
    """Spectrum of -Lap - 1 on the torus, square cutoff, k=0 entry first."""
    if d not in (1, 2):
        raise DomainError("only d=1 and d=2 are supported")
    if N < 0:
        raise DomainError("cutoff N must be nonnegative")
    if L <= 0:
        raise DomainError("torus side length must be positive")
    k = np.concatenate(([0], np.arange(1, N + 1), -np.arange(1, N + 1)))
    if d == 1:
        ksq = k.astype(float) ** 2
    else:
        ksq = (k[:, None] ** 2 + k[None, :] ** 2).astype(float).ravel()
    return TorusSpectrum(d, L, N, (2 * np.pi / L) ** 2 * ksq - 1.0)


def _signed_log_sum(log_terms: np.ndarray, signs: np.ndarray) -> tuple[int, float]:
    sign = 1 if int(np.sum(signs < 0)) % 2 == 0 else -1
    return sign, float(np.sum(log_terms))


def fredholm_det_1d(L: float, N: int) -> DeterminantResult:
    """Truncated Fredholm determinant prod_{|k| <= N} (1 + 3/nu_k) in d=1.

    For 0 < L < 2 pi the only negative factor is the k=0 one (equal to -2),
    so the value is negative for every N; the infinite product converges to
    :func:`fredholm_closed_form` at rate O(1/N).
    """
    _check_domain(L)
    spec = torus_spectrum(1, L, N)
    factors = 1.0 + 3.0 / spec.eigenvalues
    sign, log_abs = _signed_log_sum(np.log(np.abs(factors)), factors)
    a = L / (2 * np.pi)  # < 1, so nu_k > 0 for all |k| >= 1
    if N >= 1:
        tail = 3.0 * a * np.log((N + a) / (N - a))
    else:
        tail = np.inf
    value = sign * np.exp(log_abs)
    return DeterminantResult(value=value, abs_value=abs(value), log_abs=log_abs,
                             sign=sign, N=N, tail_estimate=tail, kind="fredholm")


def fredholm_closed_form(L: float) -> float:
    """-sinh^2(L/sqrt(2)) / sin^2(L/2), the N -> infinity limit in d=1."""
    _check_domain(L)
    return -np.sinh(L / np.sqrt(2)) ** 2 / np.sin(L / 2) ** 2


def carleman_det_2d(L: float, N: int) -> DeterminantResult:
    """Carleman-Fredholm determinant prod (1 + 3/nu_k) e^{-3/nu_k} in d=2.

    The exponential factor removes the trace divergence, leaving a log-tail
    of order sum 9/(2 nu_k^2) ~ 1/N^2; the plain product has no limit.
    """
    _check_domain(L)
    if N < 0:
        raise DomainError("cutoff N must be nonnegative")
    spec = torus_spectrum(2, L, N)
    x = 3.0 / spec.eigenvalues
    log_terms = np.log(np.abs(1.0 + x)) - x  # fused per-mode reduction
    sign, log_abs = _signed_log_sum(log_terms, 1.0 + x)
    a = L / (2 * np.pi)
    if N >= 1:
        tail = 4.5 * a**4 * np.pi / (N**2 - a**2)
    else:
        tail = np.inf
    value = sign * np.exp(log_abs)
    return DeterminantResult(value=value, abs_value=abs(value), log_abs=log_abs,
                             sign=sign, N=N, tail_estimate=tail,
                             kind="carleman_fredholm")


def resolvent_trace(d: int, L: float, N: int) -> float:
    """Tr(P_N (-Lap - 1)^{-1}) = sum over the retained band of 1/nu_k."""
    return float(np.sum(1.0 / torus_spectrum(d, L, N).eigenvalues))


def counterterm_trace(L: float, N: int) -> float:
    """Wick counterterm C_N = Tr(P_N (-Lap - 1)^{-1}) / L^2 on the 2D torus.

    Diverges like log(N)/(2 pi); independent of the noise intensity, which
    multiplies it externally.
    """
    return resolvent_trace(2, L, N) / L**2
