"""Spectral determinants of 1 + 3/(-Lap - 1) and the Wick counterterm trace.

The eigenvalues nu_k = (2 pi |k| / L)^2 - 1 are fields.squared_wavenumber_grid
minus one: the band the field stepper advances, in FFT order.  So the
Fredholm and Carleman-Fredholm products and the counterterm C_N run over
exactly the modes the renormalized stepper evolves, and C_N cancels the
e^{-Tr} factor of the Carleman-Fredholm determinant mode by mode.

Products are accumulated as (sign, log-magnitude) pairs so that 2D products
over (2N+1)^2 modes never overflow, and so that regrouped reductions can be
compared at machine precision.

Every band sum (the two determinants, the resolvent trace and the plain d=2
log-product of kramers.compensation_residual) goes through _band_sum.  It
reads the 1-D k^2 of fields.squared_wavenumber_grid, forms nu_k a block of
band rows at a time (at most _BLOCK_VALUES values, so its temporaries stay
small at any N), writes each mode's term into one preallocated band-shaped
array and sums that array once.  Summing per block instead would regroup
np.sum's pairwise reduction and move the last bits of every result.
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
    tail_estimate: float

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


_BLOCK_VALUES = 2**13  # band values per block of rows in _band_sum


def _band_sum(d: int, L: float, N: int, term) -> tuple[float, int]:
    """np.sum of term over the band max|k_i| <= N that the field stepper
    advances, and the count of its negative factors.

    term(nu, out) writes one block's terms into out (the block's rows of the
    band, FFT order) from nu_k = k_i^2 + k_j^2 - 1 (d=2) or k^2 - 1 (d=1),
    which it may overwrite, and returns the block's count of negative factors.
    """
    fields.check_truncation(d, L, N)
    ksq = fields.squared_wavenumber_grid(1, L, N)
    band = np.empty((ksq.size,) * d)
    rows = _BLOCK_VALUES if d == 1 else max(1, _BLOCK_VALUES // ksq.size)
    negatives = 0
    for i in range(0, ksq.size, rows):
        if d == 1:
            nu = ksq[i:i + rows] - 1.0
        else:
            nu = ksq[i:i + rows, None] + ksq
            nu -= 1.0
        negatives += term(nu, band[i:i + rows])
    return float(np.sum(band)), negatives


def _log_factors(nu: np.ndarray, out: np.ndarray, regularize: bool) -> int:
    """log|1 + x_k|, x_k = 3/nu_k, into out, minus x_k when regularize (the
    Carleman-Fredholm e^{-x_k}); returns the count of negative 1 + x_k."""
    x = np.divide(3.0, nu, out=nu)
    factors = 1.0 + x
    negatives = np.count_nonzero(factors < 0)
    np.log(np.abs(factors, out=factors), out=out)
    if regularize:
        out -= x
    return negatives


def _reciprocals(nu: np.ndarray, out: np.ndarray) -> int:
    """1/nu_k into out; there are no factors, so none is negative."""
    np.divide(1.0, nu, out=out)
    return 0


def _determinant(d: int, L: float, N: int) -> DeterminantResult:
    """prod (1 + x_k), x_k = 3/nu_k, over the band; in d=2 each factor also
    carries e^{-x_k}, which removes the trace divergence."""
    _check_domain(L)
    log_abs, negatives = _band_sum(
        d, L, N, lambda nu, out: _log_factors(nu, out, d == 2))
    a = L / (2 * np.pi)  # < 1, so nu_k > 0 for all k != 0
    if d == 1:
        tail = 3.0 * a * np.log((N + a) / (N - a)) if N >= 1 else np.inf
    else:
        tail = 4.5 * a**4 * np.pi / (N**2 - a**2) if N >= 1 else np.inf
    return DeterminantResult(log_abs=log_abs, sign=-1 if negatives % 2 else 1,
                             tail_estimate=tail)


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
    return _band_sum(d, L, N, _reciprocals)[0]


def counterterm_trace(L: float, N: int) -> float:
    """Wick counterterm C_N = Tr(P_N (-Lap - 1)^{-1}) / L^2 on the 2D torus.

    Diverges like log(N)/(2 pi); independent of the noise intensity, which
    multiplies it externally.  DomainError outside 0 < L < 2 pi, where some
    nu_k, k != 0, is <= 0 (C_N is infinite at L = 2 pi).
    """
    _check_domain(L)
    return resolvent_trace(2, L, N) / L**2
