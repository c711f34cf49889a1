import tracemalloc

import numpy as np
import pytest

from metastab import (
    SdeRun,
    SpectralField,
    allen_cahn_energy,
    allen_cahn_gradient,
    constant_field,
    field_from_function,
    galerkin_critical_points_1d,
    galerkin_potential_1d,
    gateaux_derivative,
    random_field,
    renormalized_energy_gap,
    sample_hitting_times,
)
from metastab.errors import ShapeMismatch
from metastab.fields import dealiased_grid_size, grid_values, translated
from metastab.potential_theory import Grid1D, solve_poisson
from metastab.potentials import numerical_hessian


def quadrature_energy(f, L, M=8192):
    """Independent oracle: high-resolution trapezoid of the energy density."""
    x = np.arange(M) * L / M
    u = f(x)
    du = np.gradient(np.concatenate([u, u[:1]]), L / M)[:-1]  # periodic
    return float(np.sum(0.5 * du**2 - 0.5 * u**2 + 0.25 * u**4) * L / M)


def test_zero_field_energy_is_exactly_zero():
    assert allen_cahn_energy(constant_field(1, 2.0, 8, 0.0)) == 0.0


@pytest.mark.parametrize("d,L", [(1, 2.0), (2, 1.5)])
@pytest.mark.parametrize("c", [-1.0, 0.5, 1.3])
def test_constant_field_energy(d, L, c):
    f = constant_field(d, L, 4, c)
    assert allen_cahn_energy(f) == pytest.approx(L**d * (c**4 / 4 - c**2 / 2), abs=1e-12)


def test_cosine_energy_analytic():
    L = 2.0
    f = field_from_function(1, L, 8, lambda x: np.cos(2 * np.pi * x / L))
    exact = L * ((2 * np.pi / L) ** 2 / 4 - 1 / 4 + 3 / 32)
    assert allen_cahn_energy(f) == pytest.approx(exact, rel=1e-12)


def test_energy_against_quadrature_oracle():
    L = 2.0

    def profile(x):
        return 0.3 * np.cos(2 * np.pi * x / L) - 0.2 * np.sin(4 * np.pi * x / L) + 0.1

    f = field_from_function(1, L, 8, profile)
    # the profile is band-limited, so the spectral value must match plain
    # high-resolution quadrature of the density
    assert allen_cahn_energy(f) == pytest.approx(quadrature_energy(profile, L), rel=1e-6)


def test_energy_translation_invariance(rng):
    L, N = 2.0, 8
    f = random_field(1, L, N, rng)
    M = dealiased_grid_size(N)
    for cells in (1, 7, 20):
        g = translated(f, cells * L / M)
        assert allen_cahn_energy(g) == pytest.approx(allen_cahn_energy(f), rel=1e-11)


class TestGateaux:
    def test_zero_at_minus_one_well(self, rng):
        phi = constant_field(1, 2.0, 8, -1.0)
        for _ in range(5):
            psi = random_field(1, 2.0, 8, rng)
            assert abs(gateaux_derivative(phi, psi)) < 1e-12

    def test_constant_directions(self):
        L = 2.0
        psi = constant_field(1, L, 8, 1.0)
        for c in (-1.5, -0.3, 0.8):
            phi = constant_field(1, L, 8, c)
            assert gateaux_derivative(phi, psi) == pytest.approx(
                L * (c**3 - c), rel=1e-12, abs=1e-12)

    def test_matches_finite_difference(self, rng):
        L, N = 2.0, 8
        h = 1e-5
        for _ in range(10):
            phi = random_field(1, L, N, rng, 0.6)
            psi = random_field(1, L, N, rng, 0.6)
            fplus = SpectralField(1, L, N, phi.coeffs + h * psi.coeffs)
            fminus = SpectralField(1, L, N, phi.coeffs - h * psi.coeffs)
            fd = (allen_cahn_energy(fplus) - allen_cahn_energy(fminus)) / (2 * h)
            gt = gateaux_derivative(phi, psi)
            assert gt == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_integration_by_parts_form(self, rng):
        # pairing of -(Lap phi + phi - phi^3) with psi equals the derivative
        L, N = 2.0, 6
        ksq = (2 * np.pi / L) ** 2
        for _ in range(50):
            phi = random_field(1, L, N, rng, 0.5)
            psi = random_field(1, L, N, rng, 0.5)
            M = dealiased_grid_size(N)
            u = grid_values(phi, M)
            v = grid_values(psi, M)
            lap = np.real(np.fft.ifft(
                -(np.fft.fftfreq(M, d=1.0 / M) * 2 * np.pi / L) ** 2 * np.fft.fft(u)))
            integrand = -(lap + u - u**3) * v
            oracle = float(np.sum(integrand) * L / M)
            assert gateaux_derivative(phi, psi) == pytest.approx(
                oracle, rel=1e-9, abs=1e-10)

    def test_fields_on_different_truncations_rejected(self):
        with pytest.raises(ShapeMismatch, match="different truncations"):
            gateaux_derivative(constant_field(1, 2.0, 8, 0.0),
                               constant_field(1, 2.0, 4, 1.0))

    def test_only_constants_zero_minus_one_and_one(self):
        # scan constant fields: the derivative vanishes in all directions
        # only at c in {-1, 0, 1}
        L, N = 2.0, 8
        psi = constant_field(1, L, N, 1.0)
        cs = np.linspace(-1.6, 1.6, 33)
        vals = np.array([
            gateaux_derivative(constant_field(1, L, N, c), psi)
            for c in cs
        ])
        zeros = cs[np.abs(vals) < 1e-9]
        assert set(np.round(zeros, 6)) == {-1.0, 0.0, 1.0}


class TestRenormalizedGap:
    def test_counterterm_off(self):
        assert renormalized_energy_gap(2.0, 7, 0.0) == pytest.approx(1.0)

    def test_single_mode_gap(self):
        # C_0 = -1/L^2, so the gap drops by (3/2) eps
        assert renormalized_energy_gap(2.0, 0, 1.0) == pytest.approx(1.0 - 1.5)

    def test_log_divergence_slope(self):
        # gap(N) grows like (3/2) L^2 eps * log(N) / (2 pi) at large N
        L, eps = 2.0, 0.7
        gaps = {N: renormalized_energy_gap(L, N, eps)
                for N in (128, 256, 512, 1024)}
        increments = [gaps[2 * N] - gaps[N] for N in (128, 256, 512)]
        expected = 1.5 * L**2 * eps * np.log(2) / (2 * np.pi)
        assert np.allclose(increments, expected, rtol=0.05)


class TestGalerkin1D:
    def test_critical_point_values(self):
        L, N = 2.0, 4
        pot = galerkin_potential_1d(L, N)
        mn, sd = galerkin_critical_points_1d(L, N)
        assert pot.value(mn.location) == pytest.approx(-L / 4)
        assert pot.value(sd.location) == 0.0
        assert np.max(np.abs(pot.gradient_batch(mn.location))) < 1e-12
        assert np.max(np.abs(pot.gradient_batch(sd.location))) < 1e-12

    def test_analytic_eigenvalues_match_assembled_hessian(self):
        L, N = 2.0, 3
        pot = galerkin_potential_1d(L, N)
        mn, sd = galerkin_critical_points_1d(L, N)
        for cp in (mn, sd):
            eigs = np.linalg.eigvalsh(pot.hessian(cp.location))
            assert np.allclose(np.sort(eigs), cp.hessian_eigenvalues, rtol=1e-10)

    @pytest.mark.parametrize("L, N", [(2.0, 2), (3.0, 8), (1.5, 32), (0.7, 64)])
    def test_saddle_eigenvalues_are_the_hessian_diagonal_bit_for_bit(self, L, N):
        # both read nu_k from the band the field stepper advances
        _, sd = galerkin_critical_points_1d(L, N)
        hess = galerkin_potential_1d(L, N).hessian(np.zeros(2 * N + 1))
        assert np.array_equal(sd.hessian_eigenvalues, np.sort(np.diag(hess)))

    @pytest.mark.parametrize("L, N", [(-2.0, 3), (0.0, 2), (2.0, -1)])
    def test_critical_points_reject_bad_truncation(self, L, N):
        with pytest.raises(ValueError):
            galerkin_critical_points_1d(L, N)

    @pytest.mark.parametrize("N", (1, 8))
    def test_hessian_matches_dense_cos_sin_basis(self, N, rng):
        # reference: grid values of the coordinate directions built from
        # cos/sin rows, a_0 -> L^{-1/2}, u_k -> 2 L^{-1/2} cos and
        # v_k -> -2 L^{-1/2} sin; at non-constant x a sign error in the sin
        # rows no longer cancels
        L = 2.0
        M = dealiased_grid_size(N)
        x_grid = np.arange(M) * (L / M)
        basis = np.zeros((2 * N + 1, M))
        basis[0] = L ** (-0.5)
        for k in range(1, N + 1):
            basis[2 * k - 1] = 2 * L ** (-0.5) * np.cos(2 * np.pi * k * x_grid / L)
            basis[2 * k] = -2 * L ** (-0.5) * np.sin(2 * np.pi * k * x_grid / L)
        nu = (2 * np.pi * np.arange(N + 1) / L) ** 2 - 1.0
        quad = np.diag(np.concatenate(([nu[0]], np.repeat(2 * nu[1:], 2))))
        pot = galerkin_potential_1d(L, N)
        for _ in range(3):
            x = rng.standard_normal(2 * N + 1) * 0.5
            u = x @ basis
            want = quad + (basis * (3.0 * u**2 * (L / M))) @ basis.T
            got = pot.hessian(x)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_value_and_gradient_hold_no_hessian_basis(self):
        # only hessian reads the (2N+1) x M grid values of the coordinate
        # directions: at N = 1024 they would take 64 MiB, and the potential
        # neither builds nor keeps them for value and gradient_batch
        L, N = 2.0, 1024
        mn, _ = galerkin_critical_points_1d(L, N)
        tracemalloc.start()
        try:
            pot = galerkin_potential_1d(L, N)
            pot.value(mn.location)
            pot.gradient_batch(mn.location)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_assembled_hessian_matches_finite_differences(self, rng):
        L, N = 2.0, 2
        pot = galerkin_potential_1d(L, N)
        x = rng.standard_normal(2 * N + 1) * 0.4
        H_fd = numerical_hessian(pot, x)
        assert np.allclose(pot.hessian(x), H_fd, rtol=1e-4, atol=1e-6)

    def test_gradient_matches_finite_differences(self, rng):
        from metastab.potentials import numerical_gradient

        L, N = 2.0, 3
        pot = galerkin_potential_1d(L, N)
        x = rng.standard_normal(2 * N + 1) * 0.3
        assert np.allclose(pot.gradient_batch(x), numerical_gradient(pot, x),
                           rtol=1e-5, atol=1e-7)

    def test_newton_refines_constant_well(self):
        from metastab import find_critical_point

        L, N = 2.0, 2
        pot = galerkin_potential_1d(L, N)
        guess = np.zeros(2 * N + 1)
        guess[0] = -np.sqrt(L) * 0.9
        guess[1] = 0.05
        cp = find_critical_point(pot, guess)
        assert cp.kind == "minimum"
        assert cp.location[0] == pytest.approx(-np.sqrt(L), abs=1e-9)

    @pytest.mark.parametrize("N", (0, 3))
    def test_value_and_gradient_match_the_field_energy(self, N, rng):
        # the coordinates' own formulas against the field energy on the field
        # they name: c_0 = a_0, c_k = u_k + i v_k, c_{-k} = conj(c_k)
        L = 2.0
        pot = galerkin_potential_1d(L, N)
        x = rng.standard_normal(2 * N + 1) * 0.5
        c = np.zeros(2 * N + 1, dtype=complex)
        c[0] = x[0]
        c[1:N + 1] = x[1::2] + 1j * x[2::2]
        c[N + 1:] = c[N:0:-1].conj()
        phi = SpectralField(1, L, N, c)
        g = allen_cahn_gradient(phi)
        want = np.empty(2 * N + 1)
        want[0] = g[0].real
        want[1::2], want[2::2] = 2 * g[1:N + 1].real, 2 * g[1:N + 1].imag
        assert pot.value(x) == pytest.approx(allen_cahn_energy(phi), rel=1e-13)
        assert np.allclose(pot.gradient_batch(x), want, rtol=1e-13, atol=1e-13)

    def test_engine_hitting_time_at_N0_matches_the_poisson_solve(self):
        # At N = 0 the one coordinate is the mean mode c_0 = sqrt(L) u, and
        # Euler-Maruyama on it is the field's N = 0 law: the exact mean
        # time from solve_poisson on the same potential gates the engine run.
        # Not for N >= 1: with identity mobility the transverse coordinates
        # relax at 2 nu_k, the field's c_k at nu_k.
        L, eps = 2.0, 0.4
        r = np.sqrt(L)
        pot = galerkin_potential_1d(L, 0)
        run = SdeRun(pot, epsilon=eps, dt=4e-3, x0=[-r], seed=5)
        batch = sample_hitting_times(run, [r], 0.3 * r, 1000)
        grid = Grid1D(-2.5 * r, 2.5 * r, 1999)
        w = solve_poisson(grid, pot, eps, (0.7 * r, 1.3 * r))
        exact = float(np.interp(-r, grid.nodes, w))
        z = (batch.mean - exact) / batch.stderr
        print(f"MC {batch.mean:.3f} +- {batch.stderr:.3f}, exact {exact:.3f}, z={z:.2f}")
        assert batch.n_censored == 0
        assert abs(z) < 3
