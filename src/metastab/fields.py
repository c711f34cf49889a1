"""Real scalar fields on the torus stored as truncated Fourier coefficients.

Coefficients are taken with respect to the orthonormal basis
``e_k(x) = L^{-d/2} exp(2*pi*i k.x / L)`` and kept for all integer modes with
``max_i |k_i| <= N`` (square cutoff, shared by every module that touches
truncated fields).  Arrays are stored in FFT ordering ``[0, 1, .., N, -N, .., -1]``
along each axis.  :class:`BandGrid`, the one band<->grid map (real FFTs of
the k_last >= 0 half band), serves grid_values, field_from_grid, the d=1
Galerkin Hessian and the field stepper, which carries that half band;
full_band() mirrors it back.
check_band, the one band rule (check_truncation, the band's shape and
c[-k] = conj(c[k])), runs when a SpectralField or rate_functional.FieldPath is
built and nowhere else: every other function reads bands that passed it.
squared_wavenumber_grid is the one source of (2 pi |k| / L)^2: the stepper's
divisors, the energy, the Galerkin potential and its critical points, the
H^s weights, and (minus one, as nu_k) the determinants and the Wick
counterterm all read it, so they share one band in one order; the
determinants read its d=1 values and form the d=2 rows k_i^2 + k_j^2
themselves, a block of rows at a time.
distance_to_constant is the one distance to a constant, hitting times' too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatch

REALNESS_TOL = 1e-12


def check_truncation(d: int, L: float, N: int) -> None:
    """DomainError unless d is 1 or 2, N >= 0 and L > 0, checked in that order."""
    if d not in (1, 2):
        raise DomainError("only d=1 and d=2 are supported")
    if N < 0:
        raise DomainError("cutoff N must be nonnegative")
    if not L > 0:
        raise DomainError("torus side length must be positive")


def check_band(d: int, L: float, N: int, coeffs, lead=()) -> np.ndarray:
    """The band rule: check_truncation(d, L, N), then ShapeMismatch unless
    coeffs has shape lead + (2N+1,)*d and c[-k] = conj(c[k]) over the last d
    axes within REALNESS_TOL times max(1, max |c|).  Returns a read-only copy."""
    check_truncation(d, L, N)
    coeffs = np.array(coeffs)
    expected = tuple(lead) + (2 * N + 1,) * d
    if coeffs.shape != expected:
        raise ShapeMismatch(
            f"coefficient array has shape {coeffs.shape}, expected {expected}")
    neg = -np.arange(2 * N + 1) % (2 * N + 1)  # index of -k in FFT order
    mirror = coeffs[..., neg] if d == 1 else coeffs[..., neg[:, None], neg]
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    with np.errstate(invalid="ignore"):  # a non-finite band is the run's to refuse
        if np.max(np.abs(coeffs - mirror.conj())) > REALNESS_TOL * scale:
            raise ShapeMismatch("field coefficients violate conjugate symmetry")
    coeffs.flags.writeable = False
    return coeffs


def mode_wavenumbers(N: int) -> np.ndarray:
    """Integer wavenumbers in FFT order for a (2N+1)-point axis."""
    n = 2 * N + 1
    return np.fft.fftfreq(n, d=1.0 / n).round().astype(int)


def dealiased_grid_size(N: int) -> int:
    """Collocation points per axis making cubic products of P_N fields exact.

    ``2 (2N+1)`` exceeds 4N, so no mode of a cubed field aliases back onto
    the retained band.
    """
    return 2 * (2 * N + 1)


@dataclass(frozen=True)
class SpectralField:
    """Truncated real field on the torus of side L in dimension d.

    coeffs has shape (2N+1,)*d, FFT mode ordering, and c[-k] = conj(c[k]) so
    grid values are real: a read-only copy that passed check_band when built.
    """

    d: int
    L: float
    N: int
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           check_band(self.d, self.L, self.N, self.coeffs))

    def require_compatible(self, other: "SpectralField") -> None:
        if (self.d, self.L, self.N) != (other.d, other.L, other.N):
            raise ShapeMismatch(
                f"fields live on different truncations: "
                f"(d={self.d}, L={self.L}, N={self.N}) vs "
                f"(d={other.d}, L={other.L}, N={other.N})"
            )


class BandGrid:
    """The band<->grid transform of real fields for one (d, L, N, M), M >= 2N+1.

    Both directions work on the k_last >= 0 half of the band, shape
    (2N+1, N+1) in d=2 and (N+1,) in d=1, batched over leading axes: the half
    that real FFTs consume and produce (full_band() rebuilds the rest).
    grid() evaluates it on the uniform M^d grid; given a full band it reads
    only that half.  project() takes real grid values back to the half band.
    In d=2 both run the first-axis FFT on the N+1 columns that can be nonzero.
    """

    def __init__(self, d: int, L: float, N: int, M: int):
        if M < 2 * N + 1:
            raise ShapeMismatch(
                f"grid too coarse for the requested cutoff: M={M} < 2N+1={2 * N + 1}")
        self.d, self.N, self.M = d, N, M
        self.grid_scale = (M**d) * L ** (-d / 2.0)
        self.proj_scale = L ** (d / 2.0) / (M**d)

    def grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Real grid values of (..., 2N+1, N+1) or (..., N+1) half bands."""
        N, M = self.N, self.M
        half = coeffs[..., :N + 1]
        if self.d == 2:  # rows k >= 0 go to 0..N, rows k < 0 to M-N..M-1
            cols = np.zeros(half.shape[:-2] + (M, N + 1), dtype=complex)
            cols[..., :N + 1, :] = half[..., :N + 1, :]
            cols[..., M - N:, :] = half[..., N + 1:, :]
            half = np.fft.ifft(cols, axis=-2)
        vals = np.fft.irfft(half, n=M, axis=-1)  # zero-pads to M//2+1 columns
        vals *= self.grid_scale
        return vals

    def project(self, values: np.ndarray) -> np.ndarray:
        """Half band of (..., M[, M]) real grid values.  In d=2 the k_last = 0
        column at k_first < 0 is the mirror of k_first > 0: the complex FFT
        along the first axis leaves it Hermitian only to rounding, and the
        grid cannot see its anti-Hermitian part, so nothing would damp it."""
        N, M = self.N, self.M
        half = np.fft.rfft(values, axis=-1)[..., :N + 1]
        if self.d == 2:
            cols = np.fft.fft(half, axis=-2)
            half = np.concatenate((cols[..., :N + 1, :], cols[..., M - N:, :]),
                                  axis=-2)
            half[..., N + 1:, 0] = half[..., N:0:-1, 0].conj()
        return half * self.proj_scale


def full_band(half: np.ndarray, d: int) -> np.ndarray:
    """The (..., 2N+1[, 2N+1]) band whose k_last >= 0 half is `half`: the
    k_last < 0 columns are mirrors, c[-k] = conj(c[k])."""
    N = half.shape[-1] - 1
    band = np.empty(half.shape[:-1] + (2 * N + 1,), dtype=complex)
    band[..., :N + 1] = half
    mirror = half[..., N:0:-1]
    if d == 2:  # row of -k_first in FFT order
        mirror = mirror[..., -np.arange(2 * N + 1) % (2 * N + 1), :]
    band[..., N + 1:] = mirror.conj()
    return band


def grid_values(field: SpectralField, M: int | None = None) -> np.ndarray:
    """Evaluate the field on the uniform M^d collocation grid (real array);
    ShapeMismatch if M < 2N+1."""
    if M is None:
        M = dealiased_grid_size(field.N)
    return BandGrid(field.d, field.L, field.N, M).grid(field.coeffs)


def field_from_grid(d: int, L: float, N: int, values: np.ndarray) -> SpectralField:
    """Project real grid values (shape (M,) * d, M >= 2N+1) onto the retained
    band; ShapeMismatch for any other shape."""
    if values.ndim != d or values.shape != values.shape[:1] * d:
        raise ShapeMismatch(f"grid values of shape {values.shape} are not (M,) * {d}")
    half = BandGrid(d, L, N, values.shape[0]).project(values)
    return SpectralField(d, L, N, full_band(half, d))


def grid_points(d: int, L: float, M: int) -> np.ndarray:
    """Collocation nodes j*L/M; shape (M,) for d=1, (2, M, M) for d=2."""
    x = np.arange(M) * (L / M)
    if d == 1:
        return x
    return np.stack(np.meshgrid(x, x, indexing="ij"))

def field_from_function(d: int, L: float, N: int, f) -> SpectralField:
    """Sample f on the dealiased collocation grid and project onto modes up
    to N."""
    pts = grid_points(d, L, dealiased_grid_size(N))
    vals = f(pts) if d == 1 else f(pts[0], pts[1])
    return field_from_grid(d, L, N, np.asarray(vals, dtype=float))


def constant_field(d: int, L: float, N: int, c: float) -> SpectralField:
    check_truncation(d, L, N)
    coeffs = np.zeros((2 * N + 1,) * d, dtype=complex)
    coeffs[(0,) * d] = c * L ** (d / 2)
    return SpectralField(d, L, N, coeffs)


def random_field(d: int, L: float, N: int, rng: np.random.Generator,
                 amplitude: float = 1.0) -> SpectralField:
    """Random real field: iid normal grid values projected to the band."""
    check_truncation(d, L, N)
    M = 2 * N + 1
    vals = amplitude * rng.standard_normal((M,) * d)
    return field_from_grid(d, L, N, vals)


def translated(field: SpectralField, shift: float, axis: int = 0) -> SpectralField:
    """Field x -> phi(x + a e_axis); a phase twist per mode.  ValueError
    unless axis is in range(field.d)."""
    if axis not in range(field.d):
        raise ValueError(f"axis {axis} is not an axis of a d={field.d} field")
    k = mode_wavenumbers(field.N)
    phase = np.exp(2j * np.pi * k * shift / field.L)
    if field.d == 1:
        coeffs = field.coeffs * phase
    else:
        shape = [1, 1]
        shape[axis] = 2 * field.N + 1
        coeffs = field.coeffs * phase.reshape(shape)
    return SpectralField(field.d, field.L, field.N, coeffs)


def squared_wavenumber_grid(d: int, L: float, N: int) -> np.ndarray:
    """(2*pi*|k|/L)^2 over the retained band, FFT ordering; minus one, the
    eigenvalues nu_k of -Lap - 1 that the determinants and C_N sum over."""
    k = mode_wavenumbers(N) * (2 * np.pi / L)
    if d == 1:
        return k**2
    return k[:, None] ** 2 + k[None, :] ** 2


def distance_to_constant(d: int, L: float, N: int, c: float, norm: str,
                         s: float = -0.5):
    """Distances to the constant field c of fields on (d, L, N), as a function
    of (half bands (..., [2N+1,] N+1), grids (..., M[, M])) returning (...):
    for norm "linf" the sup over the grids; for "hs" the H^s norm
    sqrt(sum_k (1 + (2 pi |k| / L)^2)^s |c_k - t_k|^2), t the band of c, off
    the half bands, whose k_last > 0 columns count twice, for their mirrors."""
    def flat(a):  # the last d axes as one
        return a.reshape(a.shape[:a.ndim - d] + (-1,))
    if norm == "linf":
        return lambda half, grids: np.max(np.abs(flat(grids) - c), axis=-1)
    if norm != "hs":
        raise ValueError("norm must be 'linf' or 'hs'")
    weights = (1.0 + squared_wavenumber_grid(d, L, N)[..., :N + 1]) ** s
    weights[..., 1:] *= 2
    target = np.zeros(weights.shape, dtype=complex)
    target[(0,) * d] = c * L ** (d / 2.0)
    return lambda half, grids: np.sqrt(
        np.sum(flat(weights * np.abs(half - target) ** 2), axis=-1))


def hs_norm(field: SpectralField, s: float) -> float:
    """The H^s distance to 0 (see hs_distance_to_constant)."""
    return hs_distance_to_constant(field, 0.0, s)


def hs_distance_to_constant(field: SpectralField, c: float, s: float) -> float:
    """H^s distance to the constant c (see distance_to_constant)."""
    dist = distance_to_constant(field.d, field.L, field.N, c, "hs", s)
    return float(dist(field.coeffs[None, ..., :field.N + 1], None)[0])


def linf_distance_to_constant(field: SpectralField, c: float,
                              M: int | None = None) -> float:
    """Sup over the M^d grid of |phi - c| (see grid_values)."""
    dist = distance_to_constant(field.d, field.L, field.N, c, "linf")
    return float(dist(None, grid_values(field, M)[None])[0])
