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
from metastab.errors import OverlappingSets, ShapeMismatch, SingularSystem
from metastab.potential_theory import _assemble, _solve, set_mask, start_node
from metastab.potentials import (Potential, double_well_2d, quadratic_well,
                                  quartic_double_well)


def free_potential():
    return Potential(value=lambda x: np.zeros(np.shape(x)[:-1]),
                     gradient_batch=lambda x: np.zeros(np.shape(x)),
                     hessian=lambda x: np.zeros((1, 1)), dim=1)


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

    def test_singular_system_raised(self):
        # a zero row, as the reflecting rows at both outer ends are at eps = 0
        # (which the noise rule now refuses before assembly: test_bad_inputs_raise)
        with pytest.raises(SingularSystem, match="singular matrix"):
            _solve(np.zeros(3), np.array([0.0, 1.0, 1.0, 0.0]), np.zeros(3), np.ones(4))

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
    """The tridiagonal solve is elimination without row interchanges; on the
    assembled systems, whose rows are diagonally dominant, it agrees with
    scipy.linalg.solve_banded((1, 1), ...), LAPACK's pivoted dgtsv."""

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
            want = solve_banded((1, 1), _band_layout(dl, d, du), rhs)
            gap = np.max(np.abs(_solve(dl, d, du, rhs) - want))
            assert gap <= 1e-8 * np.max(np.abs(want))

    def test_non_finite_bands_rejected(self):
        # refused before elimination, which would spread NaNs or, from an
        # infinite pivot, a zero multiplier
        dl = np.ones(4)
        dl[1] = np.inf
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            _solve(dl, np.full(5, 4.0), np.ones(4), np.ones(5))


A_SET, B_SET = (-1.2, -0.8), (0.8, 1.2)


def central_difference_system(grid, V, eps, dirichlet, rhs_interior):
    """The O(h^2) central-difference generator that the SqRA chain replaced,
    eps (w_{i+1} - 2 w_i + w_{i-1})/h^2 - V'_i (w_{i+1} - w_{i-1})/(2h) with
    ghost-node reflecting rows 2 eps (w_inner - w_0)/h^2 and Dirichlet rows,
    in solve_banded's layout."""
    h = grid.h
    vprime = V.gradient_batch(grid.nodes[:, None])[:, 0]
    dl = eps / h**2 + vprime[1:] / (2 * h)
    d = np.full(grid.m + 2, -2 * eps / h**2)
    du = eps / h**2 - vprime[:-1] / (2 * h)
    rhs = np.full(grid.m + 2, rhs_interior)
    if not dirichlet[0]:
        du[0] = 2 * eps / h**2
    if not dirichlet[-1]:
        dl[-1] = 2 * eps / h**2
    dl[dirichlet[1:]] = 0.0
    d[dirichlet] = 1.0
    du[dirichlet[:-1]] = 0.0
    rhs[dirichlet] = 0.0
    return _band_layout(dl, d, du), rhs


class TestGenerator:
    """The assembled chain: SqRA rates, reversible with respect to the Gibbs
    weights, and the capacity its own Dirichlet form."""

    @pytest.mark.parametrize("eps", [0.01, 0.25, 1.0])
    @pytest.mark.parametrize("m", [99, 1999])
    def test_rows_are_a_reversible_generator(self, quartic, m, eps):
        grid = Grid1D(-2.5, 2.5, m)
        v = quartic.value(grid.nodes[:, None])
        # the zero-flux ends hold half a cell of Gibbs weight
        cell_weight = np.ones(grid.m + 2)
        cell_weight[[0, -1]] = 0.5
        a_mask, b_mask = set_mask(grid, A_SET), set_mask(grid, B_SET)
        for dirichlet in (b_mask, a_mask | b_mask):
            dl, d, du, _ = _assemble(grid, quartic, eps, dirichlet, 0.0)
            free = ~dirichlet
            assert np.all(du[free[:-1]] > 0) and np.all(dl[free[1:]] > 0)
            row_sum = d.copy()
            row_sum[:-1] += du
            row_sum[1:] += dl
            assert np.all(np.abs(row_sum[free])
                          <= 4 * np.finfo(float).eps * np.abs(d[free]))
            # Q_{i,i+1} / Q_{i+1,i} = pi_{i+1} / pi_i, with pi_i = e^{-V_i/eps}
            # taken as a ratio, since e^{-V/eps} underflows at eps = 0.01
            cells = free[:-1] & free[1:]
            want = np.exp(-np.diff(v) / eps) * cell_weight[1:] / cell_weight[:-1]
            np.testing.assert_allclose(du[cells] / dl[cells], want[cells],
                                       rtol=1e-12)

    @pytest.mark.parametrize("eps", [0.01, 0.02])
    def test_coarse_grid_at_high_peclet(self, quartic, eps):
        # cell Peclet number h|V'|/(2 eps) up to 33 at the ends: the
        # central-difference generator read w = -6.94e15 at x = -1 (eps = 0.01)
        grid = Grid1D(-2.5, 2.5, 99)
        w = solve_poisson(grid, quartic, eps, B_SET)
        committor = solve_committor(grid, quartic, eps, A_SET, B_SET)
        assert np.all(w >= 0.0)
        assert np.all((committor >= 0.0) & (committor <= 1.0))
        assert magic_identity_residual(grid, quartic, eps, A_SET, w,
                                       committor) < 1e-3

    @pytest.mark.parametrize("eps", [0.25, 0.1, 0.03])
    @pytest.mark.parametrize("m", [99, 1999])
    def test_capacity_is_the_flux_out_of_A(self, quartic, m, eps):
        grid = Grid1D(-2.5, 2.5, m)
        committor = solve_committor(grid, quartic, eps, A_SET, B_SET)
        v = quartic.value(grid.nodes[:, None])
        gibbs = grid.h * np.exp(-(v - v.min()) / eps)
        dl, _, du, _ = _assemble(grid, quartic, eps, np.zeros(grid.m + 2, bool), 0.0)
        inside = set_mask(grid, A_SET)
        rightward = inside[:-1] & ~inside[1:]
        leftward = ~inside[:-1] & inside[1:]
        step = np.diff(committor)
        flux = (np.sum((gibbs[:-1] * du * -step)[rightward])
                + np.sum((gibbs[1:] * dl * step)[leftward]))
        cap = capacity_dirichlet(grid, quartic, eps, committor, v_ref=v.min())
        assert cap == pytest.approx(flux, rel=1e-9)

    @pytest.mark.parametrize("eps", [0.25, 0.1])
    def test_shares_the_central_difference_richardson_limit(self, quartic, eps):
        from scipy.linalg import solve_banded

        def sqra(grid):
            return solve_poisson(grid, quartic, eps, B_SET)

        def central(grid):
            b_mask = set_mask(grid, B_SET)
            return solve_banded((1, 1), *central_difference_system(
                grid, quartic, eps, b_mask, -1.0))

        def limit(solve):
            at_start = []
            for grid in (Grid1D(-2.5, 2.5, 1999), Grid1D(-2.5, 2.5, 3999)):
                at_start.append(solve(grid)[start_node(grid, quartic, A_SET)])
            return (4 * at_start[1] - at_start[0]) / 3

        assert limit(sqra) == pytest.approx(limit(central), rel=1e-9)


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
            dim=1,
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
    # a NaN end built a grid that the solvers then refused for another reason
    (lambda: Grid1D(float("nan"), 2.5, 99), "empty interval"),
    (lambda: Grid1D(-2.5, float("nan"), 99), "empty interval"),
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
    # one noise rule: a negative eps gave -7.79e10 at x = -1, zero a singular
    # matrix, and a NaN or infinite eps the tridiagonal solve's own message
    (lambda: solve_poisson(Grid1D(-2.5, 2.5, 1999), quartic_double_well(), -0.25,
                           (0.8, 1.2)), "epsilon must be positive"),
    (lambda: solve_poisson(Grid1D(-2.5, 2.5, 1999), quartic_double_well(), 0.0,
                           (0.8, 1.2)), "epsilon must be positive"),
    (lambda: solve_poisson(Grid1D(-2.5, 2.5, 99), quartic_double_well(), float("nan"),
                           (0.8, 1.2)), "epsilon must be positive"),
    (lambda: solve_poisson(Grid1D(-2.5, 2.5, 99), quartic_double_well(), float("inf"),
                           (0.8, 1.2)), "epsilon must be finite"),
    (lambda: solve_committor(Grid1D(-2.5, 2.5, 99), quartic_double_well(), -0.25,
                             (-1.2, -0.8), (0.8, 1.2)), "epsilon must be positive"),
    # the Gibbs weights read eps too: a negative one gave a capacity of -0.106
    (lambda: capacity_dirichlet(Grid1D(-2.5, 2.5, 1999), quartic_double_well(), -0.25,
                                np.linspace(1.0, 0.0, 2001)), "epsilon must be positive"),
    (lambda: capacity_dirichlet(Grid1D(0.0, 1.0, 99), free_potential(), float("nan"),
                                np.linspace(1.0, 0.0, 101)), "epsilon must be positive"),
    (lambda: capacity_dirichlet(Grid1D(0.0, 1.0, 99), free_potential(), float("inf"),
                                np.linspace(1.0, 0.0, 101)), "epsilon must be finite"),
    (lambda: committor_weighted_integral(Grid1D(0.0, 1.0, 99), free_potential(), 0.0,
                                         np.linspace(1.0, 0.0, 101)),
     "epsilon must be positive"),
    (lambda: committor_weighted_integral(Grid1D(0.0, 1.0, 99), free_potential(),
                                         float("nan"), np.linspace(1.0, 0.0, 101)),
     "epsilon must be positive"),
    (lambda: committor_weighted_integral(Grid1D(0.0, 1.0, 99), free_potential(),
                                         float("inf"), np.linspace(1.0, 0.0, 101)),
     "epsilon must be finite"),
])
def test_bad_inputs_raise(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    # a potential not on the line: the 2D well died in numpy with an
    # IndexError, and quadratic_well(2) returned a value
    (lambda: solve_poisson(Grid1D(-2.5, 2.5, 99), double_well_2d(), 0.25, B_SET),
     "a potential on R^2 has no values on a 1D grid"),
    (lambda: solve_poisson(Grid1D(-2.5, 2.5, 99), quadratic_well(2), 0.25, B_SET),
     "a potential on R^2 has no values on a 1D grid"),
    (lambda: solve_committor(Grid1D(-2.5, 2.5, 99), double_well_2d(), 0.25,
                             A_SET, B_SET),
     "a potential on R^2 has no values on a 1D grid"),
    (lambda: capacity_dirichlet(Grid1D(-2.5, 2.5, 99), quadratic_well(2), 0.25,
                                np.linspace(1.0, 0.0, 101)),
     "a potential on R^2 has no values on a 1D grid"),
    (lambda: committor_weighted_integral(Grid1D(-2.5, 2.5, 99), quadratic_well(3),
                                         0.25, np.linspace(1.0, 0.0, 101)),
     "a potential on R^3 has no values on a 1D grid"),
    (lambda: start_node(Grid1D(-2.5, 2.5, 99), double_well_2d(), A_SET),
     "a potential on R^2 has no values on a 1D grid"),
    # node arrays of another length died in numpy's broadcasting, or, for
    # magic_identity_residual's w, were read at one index
    (lambda: capacity_dirichlet(Grid1D(0.0, 1.0, 99), free_potential(), 0.1,
                                np.linspace(1.0, 0.0, 50)),
     "committor has shape (50,), not one value for each of the grid's 101 nodes"),
    (lambda: committor_weighted_integral(Grid1D(0.0, 1.0, 99), free_potential(), 0.1,
                                         np.linspace(1.0, 0.0, 50)),
     "committor has shape (50,), not one value for each of the grid's 101 nodes"),
    (lambda: magic_identity_residual(Grid1D(0.0, 1.0, 99), free_potential(), 0.1,
                                     (0.0, 0.0), np.zeros(50),
                                     np.linspace(1.0, 0.0, 101)),
     "w has shape (50,), not one value for each of the grid's 101 nodes"),
    (lambda: magic_identity_residual(Grid1D(0.0, 1.0, 99), free_potential(), 0.1,
                                     (0.0, 0.0), np.zeros(101),
                                     np.linspace(1.0, 0.0, 50)),
     "committor has shape (50,), not one value for each of the grid's 101 nodes"),
])
def test_shape_mismatch_raises(call, message):
    with pytest.raises(ShapeMismatch) as info:
        call()
    assert str(info.value) == message
