import numpy as np
import pytest

from metastab import (
    Grid1D,
    capacity_dirichlet,
    committor_weighted_integral,
    magic_identity_residual,
    solve_committor,
    solve_poisson,
)
from metastab.errors import OverlappingSets, SingularSystem
from metastab.potentials import Potential


def free_potential():
    return Potential(value=lambda x: np.zeros(np.shape(x)[:-1]),
                     gradient_batch=lambda x: np.zeros(np.shape(x)),
                     hessian=lambda x: np.zeros((1, 1)),
                     name="free")


@pytest.fixture
def unit_grid():
    return Grid1D(0.0, 1.0, 999)


@pytest.fixture
def well_grid():
    return Grid1D(-2.5, 2.5, 1999)


class TestPoisson:
    def test_free_diffusion_parabola(self, unit_grid):
        # eps w'' = -1 with absorption at both ends: w = x(1-x)/(2 eps)
        eps = 0.3
        w = solve_poisson(unit_grid, free_potential(), eps, [(0.0, 0.0), (1.0, 1.0)])
        x = unit_grid.nodes
        assert np.allclose(w, x * (1 - x) / (2 * eps), atol=1e-9)

    def test_zero_on_target(self, well_grid, quartic):
        w = solve_poisson(well_grid, quartic, 0.25, (0.8, 1.2))
        mask = (well_grid.nodes >= 0.8) & (well_grid.nodes <= 1.2)
        assert np.all(w[mask] == 0.0)

    def test_nonnegative_everywhere(self, well_grid, quartic):
        w = solve_poisson(well_grid, quartic, 0.2, (0.8, 1.2))
        assert np.all(w >= 0.0)

    def test_reflecting_boundary_parabola(self, unit_grid):
        # reflecting at 0, absorbing at 1: w = (1 - x^2)/(2 eps), exactly
        # reproduced by the discrete scheme
        eps = 0.5
        w = solve_poisson(unit_grid, free_potential(), eps, (1.0, 1.0))
        x = unit_grid.nodes
        assert np.allclose(w, (1 - x**2) / (2 * eps), atol=1e-9)

    def test_empty_target_rejected(self, unit_grid):
        with pytest.raises(ValueError):
            solve_poisson(unit_grid, free_potential(), 0.1, (2.0, 3.0))

    def test_singular_system_raised(self, quartic):
        # at eps = 0 the reflecting rows at both outer ends are zero
        with pytest.raises(SingularSystem, match="singular matrix"):
            solve_poisson(Grid1D(-2.5, 2.5, 99), quartic, 0.0, (0.8, 1.2))


class TestCommittor:
    def test_free_diffusion_linear(self, unit_grid):
        sol = solve_committor(unit_grid, free_potential(), 0.2,
                              (0.0, 0.0), (1.0, 1.0))
        assert np.allclose(sol.h_values, 1 - unit_grid.nodes, atol=1e-10)

    def test_boundary_values(self, well_grid, quartic):
        sol = solve_committor(well_grid, quartic, 0.1, (-1.2, -0.8), (0.8, 1.2))
        x = well_grid.nodes
        assert np.all(sol.h_values[(x >= -1.2) & (x <= -0.8)] == 1.0)
        assert np.all(sol.h_values[(x >= 0.8) & (x <= 1.2)] == 0.0)

    def test_maximum_principle(self, well_grid, quartic):
        for eps in (0.05, 0.1, 0.3):
            sol = solve_committor(well_grid, quartic, eps, (-1.2, -0.8), (0.8, 1.2))
            assert np.all(sol.h_values >= -1e-12)
            assert np.all(sol.h_values <= 1 + 1e-12)

    def test_basin_plateaus_and_localized_transition(self, well_grid, quartic):
        # plateau near 1 over the starting basin, near 0 over the target
        # basin, with the transition concentrated around the saddle
        sol = solve_committor(well_grid, quartic, 0.1, (-1.2, -0.8), (0.8, 1.2))
        x = well_grid.nodes
        h = sol.h_values
        assert h[np.argmin(np.abs(x + 0.5))] > 0.9
        assert h[np.argmin(np.abs(x - 0.5))] < 0.1
        assert h[np.argmin(np.abs(x + 0.25))] - h[np.argmin(np.abs(x - 0.25))] > 0.5

    def test_basins_sharpen_as_noise_vanishes(self, well_grid, quartic):
        # the plateaus become exponentially flat; at eps = 0.025 the
        # committor is within 1% of its plateau values at +-0.5
        sol = solve_committor(well_grid, quartic, 0.025, (-1.2, -0.8), (0.8, 1.2))
        x = well_grid.nodes
        assert sol.h_values[np.argmin(np.abs(x + 0.5))] > 0.99
        assert sol.h_values[np.argmin(np.abs(x - 0.5))] < 0.01

    def test_overlapping_sets_rejected(self, unit_grid):
        with pytest.raises(OverlappingSets):
            solve_committor(unit_grid, free_potential(), 0.1,
                            (0.0, 0.6), (0.5, 1.0))


class TestCapacity:
    def test_free_diffusion_unit_interval(self, unit_grid):
        eps = 0.37
        sol = solve_committor(unit_grid, free_potential(), eps,
                              (0.0, 0.0), (1.0, 1.0))
        cap = capacity_dirichlet(unit_grid, free_potential(), eps, sol)
        assert cap == pytest.approx(eps, rel=1e-9)

    def test_series_resistor_scaling(self):
        # doubling the gap between the electrodes halves the capacity
        eps = 0.2
        g1 = Grid1D(0.0, 1.0, 999)
        s1 = solve_committor(g1, free_potential(), eps, (0.0, 0.0), (1.0, 1.0))
        c1 = capacity_dirichlet(g1, free_potential(), eps, s1)
        g2 = Grid1D(0.0, 2.0, 1999)
        s2 = solve_committor(g2, free_potential(), eps, (0.0, 0.0), (2.0, 2.0))
        c2 = capacity_dirichlet(g2, free_potential(), eps, s2)
        assert c2 == pytest.approx(c1 / 2, rel=1e-6)

    def test_quartic_matches_saddle_asymptotics(self, well_grid, quartic):
        eps = 0.25
        sol = solve_committor(well_grid, quartic, eps, (-1.2, -0.8), (0.8, 1.2))
        cap = capacity_dirichlet(well_grid, quartic, eps, sol)
        asym = (1.0 / (2 * np.pi)) * np.sqrt(2 * np.pi * eps / 1.0)
        assert abs(cap - asym) / asym < 0.15

    def test_reference_shift_absorbed(self, well_grid, quartic):
        eps = 0.2
        sol = solve_committor(well_grid, quartic, eps, (-1.2, -0.8), (0.8, 1.2))
        base = capacity_dirichlet(well_grid, quartic, eps, sol, v_ref=0.0)
        shifted_pot = Potential(
            value=lambda x: quartic.value(x) + 5.0,
            gradient_batch=quartic.gradient_batch,
            hessian=quartic.hessian,
        )
        shifted = capacity_dirichlet(well_grid, shifted_pot, eps, sol, v_ref=5.0)
        assert shifted == pytest.approx(base, rel=1e-12)


class TestMagicIdentity:
    def test_free_diffusion_exact(self, unit_grid):
        # point electrode at 0, absorber at 1: both routes coincide exactly
        res = magic_identity_residual(unit_grid, free_potential(), 0.3,
                                      (0.0, 0.0), (1.0, 1.0))
        assert res < 1e-9

    def test_quartic_small_residual(self, well_grid, quartic):
        assert magic_identity_residual(well_grid, quartic, 0.2,
                                       (-1.2, -0.8), (0.8, 1.2)) <= 0.10
        assert magic_identity_residual(well_grid, quartic, 0.25,
                                       (-1.2, -0.8), (0.8, 1.2)) <= 0.10

    def test_residual_shrinks_with_eps(self, well_grid, quartic):
        r = [magic_identity_residual(well_grid, quartic, eps,
                                     (-1.2, -0.8), (0.8, 1.2))
             for eps in (0.25, 0.15, 0.1)]
        assert r[-1] < r[0]

    def test_laplace_asymptotics_of_weighted_integral(self, well_grid, quartic):
        # with the target taking up the right half-basin, the committor
        # integral concentrates at the starting well and matches the
        # Gaussian approximation within 10% at eps = 0.1
        eps = 0.1
        sol = solve_committor(well_grid, quartic, eps, (-1.2, -0.8), (0.5, 1.5))
        integ = committor_weighted_integral(well_grid, quartic, eps, sol)
        asym = np.sqrt(2 * np.pi * eps / 2.0) * np.exp(0.25 / eps)
        assert abs(integ - asym) / asym < 0.10


class TestArrheniusLimit:
    def test_solver_slope_approaches_barrier_at_small_eps(self, quartic):
        # the fitted slope of log mean-hitting-time vs 1/eps approaches the
        # 0.25 barrier as the eps window shrinks toward 0 (at moderate eps
        # the prefactor correction inflates it; see the README on criterion 5)
        from metastab.cli import arrhenius_fit

        grid = Grid1D(-2.5, 2.5, 3999)
        i_star = None
        windows = {}
        for label, eps_list in (("moderate", (0.2, 0.25, 0.3, 0.35)),
                                ("small", (0.1, 0.125, 0.15, 0.175))):
            pts = []
            for eps in eps_list:
                w = solve_poisson(grid, quartic, eps, (0.8, 1.2))
                if i_star is None:
                    i_star = np.argmin(np.abs(grid.nodes + 1.0))
                pts.append((eps, w[i_star]))
            windows[label] = arrhenius_fit(pts).slope
        assert abs(windows["small"] - 0.25) / 0.25 < 0.10
        assert abs(windows["small"] - 0.25) < abs(windows["moderate"] - 0.25)


class TestGridConvergence:
    def test_richardson_ratio_for_scalars(self, quartic):
        eps = 0.2
        A, B = (-1.2, -0.8), (0.8, 1.2)

        def observables(grid):
            w = solve_poisson(grid, quartic, eps, B)
            sol = solve_committor(grid, quartic, eps, A, B)
            cap = capacity_dirichlet(grid, quartic, eps, sol)
            i_star = np.argmin(np.abs(grid.nodes + 1.0))
            return np.array([w[i_star], cap])

        g0 = Grid1D(-2.5, 2.5, 499)
        g1 = g0.refined()
        g2 = g1.refined()
        f0, f1, f2 = observables(g0), observables(g1), observables(g2)
        ratios = (f0 - f1) / (f1 - f2)
        assert np.all(np.abs(ratios - 4.0) < 0.5)
