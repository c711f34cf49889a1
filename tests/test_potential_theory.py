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
from metastab.potential_theory import _assemble, _solve, set_mask, start_node
from metastab.potentials import Potential, quadratic_well, quartic_double_well


def free_potential():
    return Potential(value=lambda x: np.zeros(np.shape(x)[:-1]),
                     gradient_batch=lambda x: np.zeros(np.shape(x)),
                     hessian=lambda x: np.zeros((1, 1)))


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

    @pytest.mark.parametrize("B_set", [[0.8, 1.2], np.array([0.8, 1.2]),
                                       [(0.8, 1.2)], np.array([[0.8, 1.2]])])
    def test_one_interval_may_be_any_pair(self, quartic, B_set):
        grid = Grid1D(-2.5, 2.5, 99)
        want = solve_poisson(grid, quartic, 0.25, (0.8, 1.2))
        assert np.array_equal(solve_poisson(grid, quartic, 0.25, B_set), want)

    @pytest.mark.parametrize("B_set", [(0.8, 1.0, 1.2), [(0.8, 1.0, 1.2)]])
    def test_three_numbers_are_no_interval(self, quartic, B_set):
        with pytest.raises(ValueError):
            solve_poisson(Grid1D(-2.5, 2.5, 99), quartic, 0.25, B_set)


def _band_layout(dl, d, du):
    """The LAPACK band layout [upper, diag, lower] that solve_banded reads."""
    ab = np.zeros((3, d.size))
    ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
    return ab


class TestSolver:
    """The tridiagonal solve is LAPACK dgtsv's elimination, so it matches
    scipy.linalg.solve_banded((1, 1), ...), which calls dgtsv, bit for bit."""

    @pytest.mark.parametrize("eps", [0.03, 0.25, 1.0])
    @pytest.mark.parametrize("m", [99, 1999, 3999])
    @pytest.mark.parametrize("potential", [quartic_double_well, quadratic_well])
    def test_assembled_systems_match_solve_banded(self, potential, m, eps):
        from scipy.linalg import solve_banded

        grid = Grid1D(-2.5, 2.5, m)
        a_mask = set_mask(grid, (-1.2, -0.8))
        b_mask = set_mask(grid, (0.8, 1.2))
        poisson = _assemble(grid, potential(), eps, b_mask, rhs_interior=-1.0)
        committor = _assemble(grid, potential(), eps, a_mask | b_mask,
                              rhs_interior=0.0)
        committor[3][a_mask] = 1.0
        for dl, d, du, rhs in (poisson, committor):
            assert np.array_equal(_solve(dl, d, du, rhs),
                                  solve_banded((1, 1), _band_layout(dl, d, du), rhs))

    @pytest.mark.parametrize("n", [5, 6, 64, 501])
    def test_row_interchanges_match_solve_banded(self, n):
        from scipy.linalg import solve_banded

        # a doubled subdiagonal makes most eliminations interchange rows,
        # which fills in the second superdiagonal
        rng = np.random.default_rng(n)
        for _ in range(10):
            ab, rhs = rng.standard_normal((3, n)), rng.standard_normal(n)
            ab[2] *= 2.0
            assert np.array_equal(_solve(ab[2, :-1], ab[1], ab[0, 1:], rhs),
                                  solve_banded((1, 1), ab, rhs))

    def test_non_finite_bands_rejected(self):
        # an infinite subdiagonal entry would otherwise zero a multiplier
        dl = np.ones(4)
        dl[1] = np.inf
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            _solve(dl, np.full(5, 4.0), np.ones(4), np.ones(5))


class TestCommittor:
    def test_free_diffusion_linear(self, unit_grid):
        h = solve_committor(unit_grid, free_potential(), 0.2,
                            (0.0, 0.0), (1.0, 1.0))
        assert np.allclose(h, 1 - unit_grid.nodes, atol=1e-10)

    def test_boundary_values(self, well_grid, quartic):
        h = solve_committor(well_grid, quartic, 0.1, (-1.2, -0.8), (0.8, 1.2))
        x = well_grid.nodes
        assert np.all(h[(x >= -1.2) & (x <= -0.8)] == 1.0)
        assert np.all(h[(x >= 0.8) & (x <= 1.2)] == 0.0)

    def test_maximum_principle(self, well_grid, quartic):
        for eps in (0.05, 0.1, 0.3):
            h = solve_committor(well_grid, quartic, eps, (-1.2, -0.8), (0.8, 1.2))
            assert np.all(h >= -1e-12)
            assert np.all(h <= 1 + 1e-12)

    def test_basin_plateaus_and_localized_transition(self, well_grid, quartic):
        # plateau near 1 over the starting basin, near 0 over the target
        # basin, with the transition concentrated around the saddle
        h = solve_committor(well_grid, quartic, 0.1, (-1.2, -0.8), (0.8, 1.2))
        x = well_grid.nodes
        assert h[np.argmin(np.abs(x + 0.5))] > 0.9
        assert h[np.argmin(np.abs(x - 0.5))] < 0.1
        assert h[np.argmin(np.abs(x + 0.25))] - h[np.argmin(np.abs(x - 0.25))] > 0.5

    def test_basins_sharpen_as_noise_vanishes(self, well_grid, quartic):
        # the plateaus become exponentially flat; at eps = 0.025 the
        # committor is within 1% of its plateau values at +-0.5
        h = solve_committor(well_grid, quartic, 0.025, (-1.2, -0.8), (0.8, 1.2))
        x = well_grid.nodes
        assert h[np.argmin(np.abs(x + 0.5))] > 0.99
        assert h[np.argmin(np.abs(x - 0.5))] < 0.01

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


def residual(grid, V, eps, A_set, B_set):
    """The magic-identity residual of the solved arrays of (A, B)."""
    return magic_identity_residual(grid, V, eps, A_set,
                                   solve_poisson(grid, V, eps, B_set),
                                   solve_committor(grid, V, eps, A_set, B_set))


class TestMagicIdentity:
    def test_free_diffusion_exact(self, unit_grid):
        # point electrode at 0, absorber at 1: both routes coincide exactly
        res = residual(unit_grid, free_potential(), 0.3, (0.0, 0.0), (1.0, 1.0))
        assert res < 1e-9

    def test_quartic_small_residual(self, well_grid, quartic):
        assert residual(well_grid, quartic, 0.2, (-1.2, -0.8), (0.8, 1.2)) <= 0.10
        assert residual(well_grid, quartic, 0.25, (-1.2, -0.8), (0.8, 1.2)) <= 0.10

    def test_residual_shrinks_with_eps(self, well_grid, quartic):
        r = [residual(well_grid, quartic, eps, (-1.2, -0.8), (0.8, 1.2))
             for eps in (0.25, 0.15, 0.1)]
        assert r[-1] < r[0]

    def test_start_node_is_lowest_in_A(self, well_grid, quartic):
        # the lowest node of V inside A, not the global minimum of V
        x = well_grid.nodes
        assert x[start_node(well_grid, quartic, (-1.2, -0.8))] == pytest.approx(-1.0)
        assert x[start_node(well_grid, quartic, (0.8, 1.2))] == pytest.approx(1.0)
        assert x[start_node(well_grid, quadratic_well(), (-1.2, -0.8))] == \
            pytest.approx(-0.8)

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


@pytest.mark.parametrize("call, message", [
    (lambda: Grid1D(0.0, 1.0, 2), "need at least 3 interior nodes"),
    (lambda: Grid1D(1.0, 1.0, 9), "empty interval"),
    (lambda: Grid1D(1.0, 0.0, 9), "empty interval"),
    (lambda: solve_committor(Grid1D(0.0, 1.0, 99), free_potential(), 0.1,
                             (2.0, 3.0), (0.8, 1.0)),
     "A_set and B_set must each contain grid nodes"),
    (lambda: solve_committor(Grid1D(0.0, 1.0, 99), free_potential(), 0.1,
                             (0.0, 0.2), (2.0, 3.0)),
     "A_set and B_set must each contain grid nodes"),
    (lambda: start_node(Grid1D(0.0, 1.0, 99), free_potential(), (2.0, 3.0)),
     "A_set selects no grid nodes"),
    (lambda: solve_poisson(Grid1D(0.0, 1.0, 99), free_potential(), 0.1, (2.0, 3.0)),
     "B_set selects no grid nodes"),
])
def test_bad_inputs_raise(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message
