"""The Allen-Cahn energy functional on Galerkin-truncated torus fields.

Functions of the field, on its own truncation (d, L, N).  Quadratic terms are
evaluated exactly in Fourier space; the quartic term is integrated by
collocation on a dealiased grid, which makes both the integral and the
projected cubic gradient exact for fields in the retained band.
"""

from __future__ import annotations

import numpy as np

from . import fields
from .determinants import counterterm_trace
from .fields import SpectralField
from .potentials import CriticalPoint, Potential


def allen_cahn_energy(phi: SpectralField) -> float:
    """V(phi), the integral of |grad phi|^2/2 - phi^2/2 + phi^4/4; exactly 0
    for the zero field, L^d (c^4/4 - c^2/2) for phi = c."""
    ksq = fields.squared_wavenumber_grid(phi.d, phi.L, phi.N)
    power = np.abs(phi.coeffs) ** 2
    quad = 0.5 * float(np.sum(ksq * power)) - 0.5 * float(np.sum(power))
    M = fields.dealiased_grid_size(phi.N)
    u = fields.grid_values(phi, M)
    cell = (phi.L / M) ** phi.d
    u2 = u * u
    return quad + 0.25 * float(np.sum(u2 * u2)) * cell


def allen_cahn_gradient(phi: SpectralField) -> np.ndarray:
    """Spectral coefficients of -Laplacian(phi) - phi + P_N(phi^3)."""
    ksq = fields.squared_wavenumber_grid(phi.d, phi.L, phi.N)
    u = fields.grid_values(phi)
    cubic = fields.field_from_grid(phi.d, phi.L, phi.N, u * u * u)
    return (ksq - 1.0) * phi.coeffs + cubic.coeffs


def gateaux_derivative(phi: SpectralField, psi: SpectralField) -> float:
    """d/dh V(phi + h psi) at h=0, i.e. the L^2 pairing of the gradient with
    psi; ShapeMismatch unless both fields share (d, L, N)."""
    phi.require_compatible(psi)
    g = allen_cahn_gradient(phi)
    return float(np.real(np.sum(np.conj(g) * psi.coeffs)))


def renormalized_energy_gap(L: float, N: int, eps: float) -> float:
    """L^2/4 + (3/2) L^2 eps C_N, the renormalized barrier between the zero
    field and the -1 well on the d=2 torus of side L at cutoff N."""
    return L**2 / 4.0 + 1.5 * L**2 * eps * counterterm_trace(L, N)


# ---------------------------------------------------------------------------
# Real-coordinate view of the truncated d=1 functional.
#
# Coordinates are (a, p_1, q_1, ..., p_N, q_N) with c_0 = a and
# c_k = (p_k + i q_k) / sqrt(2) for k >= 1 (c_{-k} follows by conjugation),
# dimension 2N+1: orthonormal in L^2, so the quadratic form is diagonal with
# the field's nu_k and Euler-Maruyama on the potential is the truncated
# field's SDE.  At the constant stationary fields the Hessian is diagonal too,
# which gives the truncated transition-rate prefactor in closed form for any
# cutoff.
# ---------------------------------------------------------------------------


def _coords_to_half(x: np.ndarray, N: int) -> np.ndarray:
    """Half bands (..., N+1) of real coordinates (..., 2N+1)."""
    half = np.zeros(x.shape[:-1] + (N + 1,), dtype=complex)
    half[..., 0] = x[..., 0]
    half[..., 1:] = np.sqrt(0.5) * (x[..., 1::2] + 1j * x[..., 2::2])
    return half


def galerkin_potential_1d(L: float, N: int) -> Potential:
    """The truncated d=1 energy as a (2N+1)-dimensional Potential.

    Quadratic terms are diagonal in the real coordinates; the quartic term,
    the projected cubic gradient and the Hessian's multiplication operator
    3 phi^2 are collocated on the dealiased grid, exact for band-limited
    fields.
    """
    fields.check_truncation(1, L, N)
    colloc = fields.BandGrid(1, L, N, fields.dealiased_grid_size(N))
    cell = L / colloc.M
    nu = fields.squared_wavenumber_grid(1, L, N)[:N + 1] - 1.0
    quad_diag = np.repeat(nu, 2)[1:]  # nu_0, nu_1, nu_1, ..., nu_N, nu_N

    def value(x):
        x = np.asarray(x, float)
        u2 = np.square(colloc.grid(_coords_to_half(x, N)))
        return 0.5 * np.sum(quad_diag * x * x, axis=-1) + \
            0.25 * np.sum(u2 * u2, axis=-1) * cell

    def gradient_batch(x):
        half = _coords_to_half(np.asarray(x, float), N)
        u = colloc.grid(half)
        g = nu * half + colloc.project(u * u * u)
        # (p_k, q_k) moves c_k and c_{-k} by 1/sqrt(2) each
        return np.concatenate(
            (g[..., :1].real, np.sqrt(2) * g[..., 1:].view(float)), axis=-1)

    def hessian(x: np.ndarray) -> np.ndarray:
        u = colloc.grid(_coords_to_half(np.asarray(x, float), N))
        # (2N+1, M) grid values of the coordinate directions: only read here
        basis = colloc.grid(_coords_to_half(np.eye(2 * N + 1), N))
        return np.diag(quad_diag) + (basis * (3.0 * u**2 * cell)) @ basis.T

    return Potential(value=value, gradient_batch=gradient_batch, hessian=hessian,
                     dim=2 * N + 1)


def galerkin_critical_points_1d(L: float, N: int) -> tuple[CriticalPoint, CriticalPoint]:
    """(minimum at phi = -1, saddle at phi = 0) of the truncated functional.

    Eigenvalues are the diagonal Hessian entries in the real coordinates, the
    band's nu_k at the saddle and nu_k + 3 at the minimum; DegenerateHessian
    from L = 2 pi on (N >= 1), where the constant saddle is no rank-one saddle.
    """
    fields.check_truncation(1, L, N)
    nu = fields.squared_wavenumber_grid(1, L, N) - 1.0
    well = np.zeros(2 * N + 1)
    well[0] = -np.sqrt(L)
    return (CriticalPoint(location=well, hessian_eigenvalues=nu + 3.0),
            CriticalPoint(location=np.zeros(2 * N + 1), hessian_eigenvalues=nu))
