"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Monte Carlo criteria use fixed, pre-registered seeds so the suite is
deterministic; stated runtime budgets are asserted where the criterion
carries one.
"""

import time

import numpy as np
import pytest
from scipy import integrate, stats

import metastab as m
from metastab.cli import arrhenius_fit, main
from metastab.rate_functional import path_from_states
from metastab.sde import integrate_path, ou_mean_var
from metastab.spde import integrate_deterministic, spatial_mean_trajectory


def report(criterion: str, passed: bool, detail: str) -> bool:
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print("\n" + line, flush=True)
    return passed


@pytest.fixture(scope="module")
def quartic_rate():
    pot = m.quartic_double_well()
    mn = m.find_critical_point(pot, [-0.9])
    sd = m.find_critical_point(pot, [0.1])
    return m.ek_finite(mn, sd, pot)


@pytest.mark.slow
def test_criterion_01_ou_exactness():
    t0 = time.perf_counter()
    eps, t = 0.1, 1.0
    run = m.SdeRun(m.quadratic_well(), epsilon=eps, dt=1e-3, x0=[1.0], seed=101)
    xs = m.sample_endpoints(run, t, 100_000)[:, 0]
    mean_th, var_th = ou_mean_var(1.0, t, eps)
    se_mean = xs.std(ddof=1) / np.sqrt(xs.size)
    se_var = xs.var(ddof=1) * np.sqrt(2.0 / (xs.size - 1))
    elapsed = time.perf_counter() - t0
    ok_mean = abs(xs.mean() - mean_th) < 3 * se_mean
    ok_var = abs(xs.var(ddof=1) - var_th) < 3 * se_var
    ok_time = elapsed <= 60.0
    passed = report(
        "1 (OU exactness)", ok_mean and ok_var and ok_time,
        f"mean {xs.mean():.5f} vs {mean_th:.5f} (3se={3*se_mean:.1e}), "
        f"var {xs.var(ddof=1):.5f} vs {var_th:.5f} (3se={3*se_var:.1e}), "
        f"{elapsed:.1f}s <= 60s")
    assert passed


def test_criterion_02_detailed_balance():
    grid = np.linspace(-2.0, 2.0, 41)
    residual = m.detailed_balance_residual(0.7, 0.3, grid)
    passed = report("2 (detailed balance)", residual < 1e-12,
                    f"max residual {residual:.2e} < 1e-12 on 41x41 grid")
    assert passed


def test_criterion_03_fokker_planck_order():
    y = np.linspace(-1.5, 1.5, 31)
    r1 = m.ou_fokker_planck_residual(1.0, 0.1, 1.0, y, 1e-2)
    r2 = m.ou_fokker_planck_residual(1.0, 0.1, 1.0, y, 5e-3)
    ratio = r1 / r2
    passed = report("3 (Fokker-Planck residual order)", abs(ratio - 4) <= 0.5,
                    f"Richardson ratio {ratio:.3f} within 4 +- 0.5")
    assert passed


@pytest.mark.slow
def test_criterion_04_kramers_triangle(quartic, quartic_rate):
    t0 = time.perf_counter()
    eps = 0.25
    run = m.SdeRun(quartic, epsilon=eps, dt=1e-3, x0=[-1.0], seed=404)
    batch = m.sample_hitting_times(run, [1.0], 0.2, 2000)
    grid = m.Grid1D(-2.5, 2.5, 1999)
    w = m.solve_poisson(grid, quartic, eps, (0.8, 1.2))
    w_star = w[np.argmin(np.abs(grid.nodes + 1.0))]
    ek = quartic_rate.predict(eps)
    elapsed = time.perf_counter() - t0
    ok_mc_pde = abs(batch.mean - w_star) < 3 * batch.stderr
    ok_pde_ek = abs(w_star - ek) / ek < 0.15
    ok_time = elapsed <= 600.0
    passed = report(
        "4 (Kramers triangle)", ok_mc_pde and ok_pde_ek and ok_time,
        f"MC {batch.mean:.3f}+-{batch.stderr:.3f} vs PDE {w_star:.3f} "
        f"(|diff|={abs(batch.mean-w_star):.3f} < {3*batch.stderr:.3f}), "
        f"PDE vs EK {ek:.3f} rel {abs(w_star-ek)/ek:.3%} < 15%, "
        f"{elapsed:.0f}s <= 600s")
    assert passed


@pytest.mark.slow
def test_criterion_05_arrhenius_slope_sde(quartic):
    # The Eyring-Kramers slope 0.25 is an eps -> 0 limit (TestArrheniusLimit
    # checks it); over this eps window the prefactor correction makes the
    # model's exact slope ~0.33, so the MC sweep is gated on that slope.
    # common random numbers across the sweep: same replica streams per eps
    eps_list = [0.2, 0.25, 0.3, 0.35]
    batches = []
    for eps in eps_list:
        run = m.SdeRun(quartic, epsilon=eps, dt=1e-3, x0=[-1.0], seed=505)
        batches.append((eps, m.sample_hitting_times(run, [1.0], 0.2, 1200)))
    fit = arrhenius_fit(batches)

    # exact mean hitting times of [0.8, 1.2] from x = -1: the criterion-4 PDE
    # oracle, pinned to the double-integral formula
    # tau = (1/eps) int_{-1}^{0.8} e^{V(y)/eps} int_{-inf}^{y} e^{-V(z)/eps} dz dy
    grid = m.Grid1D(-2.5, 2.5, 1999)
    i_star = np.argmin(np.abs(grid.nodes + 1.0))
    exact = arrhenius_fit([(eps, m.solve_poisson(grid, quartic, eps, (0.8, 1.2))[i_star])
                           for eps in eps_list]).slope

    def tau_quad(eps):
        def inner(y):
            return integrate.quad(lambda z: np.exp(-quartic.value([z]) / eps), -np.inf, y)[0]
        return integrate.quad(lambda y: np.exp(quartic.value([y]) / eps) * inner(y),
                              -1.0, 0.8)[0] / eps

    quad = arrhenius_fit([(eps, tau_quad(eps)) for eps in eps_list]).slope
    ok_oracle = abs(exact - quad) <= 1e-3

    # delta-method standard error of the least-squares slope of log(mean);
    # it ignores the positive correlation from common random numbers, so it
    # overstates the error
    x = 1.0 / np.array(eps_list)
    weights = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
    rel_se = np.array([b.stderr / b.mean for _, b in batches])
    se = float(np.sqrt(np.sum((weights * rel_se) ** 2)))
    z = (fit.slope - exact) / se
    passed = report(
        "5 (Arrhenius slope, SDE)", ok_oracle and abs(z) <= 3.0,
        f"MC slope {fit.slope:.4f}+-{se:.4f} vs exact {exact:.4f} over this eps "
        f"window (z={z:+.2f}, |z| <= 3; PDE vs quadrature {abs(exact - quad):.1e} "
        f"<= 1e-3); gap to the eps->0 barrier 0.25 is {fit.slope - 0.25:+.4f}, "
        f"not gated (means: {[round(b.mean, 2) for _, b in batches]}, "
        f"censored: {[b.n_censored for _, b in batches]})")
    assert passed


def test_criterion_06_magic_identity_and_laplace(quartic):
    grid = m.Grid1D(-2.5, 2.5, 1999)
    A, B = (-1.2, -0.8), (0.8, 1.2)
    residual = m.magic_identity_residual(
        grid, quartic, 0.2, A, m.solve_poisson(grid, quartic, 0.2, B),
        m.solve_committor(grid, quartic, 0.2, A, B))
    eps = 0.1
    sol = m.solve_committor(grid, quartic, eps, (-1.2, -0.8), (0.5, 1.5))
    integ = m.committor_weighted_integral(grid, quartic, eps, sol)
    asym = np.sqrt(2 * np.pi * eps / 2.0) * np.exp(0.25 / eps)
    rel = abs(integ - asym) / asym
    passed = report(
        "6 (magic identity + Laplace integral)",
        residual <= 0.10 and rel <= 0.10,
        f"identity residual {residual:.3%} <= 10% at eps=0.2; "
        f"integral {integ:.3f} vs asymptotic {asym:.3f} rel {rel:.3%} <= 10%")
    assert passed


def test_criterion_07_fredholm_determinant():
    t0 = time.perf_counter()
    rels = {}
    for L in (1.0, 2.0, np.pi, 5.0):
        closed = m.fredholm_closed_form(L)
        val = m.fredholm_det_1d(L, 4096).value
        rels[L] = abs(val - closed) / abs(closed)
    Ns = np.array([256, 512, 1024, 2048])
    closed2 = m.fredholm_closed_form(2.0)
    errs = np.array([abs(m.fredholm_det_1d(2.0, N).value - closed2) for N in Ns])
    order = -np.polyfit(np.log(Ns), np.log(errs), 1)[0]
    elapsed = time.perf_counter() - t0
    passed = report(
        "7 (Fredholm determinant)",
        all(r < 1e-3 for r in rels.values()) and abs(order - 1) < 0.2
        and elapsed <= 1.0,
        f"rel errors at N=4096: {[f'{r:.1e}' for r in rels.values()]} all < 1e-3; "
        f"convergence order {order:.3f} ~ 1; {elapsed*1e3:.0f}ms <= 1s")
    assert passed


def test_criterion_08_carleman_fredholm():
    single = m.carleman_det_2d(2.0, 0).value
    exact = -2.0 * np.exp(3.0)
    ok_single = abs(single - exact) / abs(exact) < 1e-12
    vals = {N: m.carleman_det_2d(2.0, N).value for N in (8, 16, 32, 64, 128)}
    rel = [abs(vals[2 * N] - vals[N]) / abs(vals[N]) for N in (8, 16, 32, 64)]
    ratios = [rel[i] / rel[i + 1] for i in range(3)]
    ok_ratio = all(abs(r - 4) <= 1 for r in ratios)
    passed = report(
        "8 (Carleman-Fredholm)", ok_single and ok_ratio,
        f"k=0 value {single:.10f} vs -2e^3 (rel {abs(single-exact)/abs(exact):.1e}); "
        f"Richardson ratios {[round(r, 2) for r in ratios]} within 4 +- 1")
    assert passed


def test_criterion_09_counterterm_log_divergence():
    target = np.log(2) / (2 * np.pi)
    inc = m.counterterm_trace(2.0, 1024) - m.counterterm_trace(2.0, 512)
    rel = abs(inc - target) / target
    passed = report(
        "9 (counterterm trace)", rel <= 0.05,
        f"C_1024 - C_512 = {inc:.6f} vs log(2)/(2 pi) = {target:.6f} "
        f"(rel {rel:.3%} <= 5%)")
    assert passed


def test_criterion_10_compensation_identity():
    worst = 0.0
    for N in range(4, 129):
        for eps in (0.05, 0.1, 0.2):
            worst = max(worst, m.compensation_residual(2.0, N, eps))
    passed = report(
        "10 (compensation identity)", worst < 1e-10,
        f"worst log-space relative gap {worst:.2e} < 1e-10 over "
        f"N=4..128, eps in {{0.05, 0.1, 0.2}}")
    assert passed


@pytest.mark.slow
def test_criterion_11_theorem1_desk_scale():
    t0 = time.perf_counter()
    L, N = 2.0, 16
    pred = m.ek_allen_cahn_1d(L)
    f0 = m.constant_field(1, L, N, -1.0)
    eps_list = [0.3, 0.4, 0.5]
    batches = []
    for eps in eps_list:
        run_e = m.SpdeRun(field0=f0, epsilon=eps, dt=2e-3, t_max=4000.0,
                          seed=1111)
        batches.append((eps, m.sample_spde_hitting_times(
            run_e, target=1.0, delta=0.3, norm="linf", n=400)))
    fit = arrhenius_fit(batches)
    # the factor-2 check reads the sweep's eps = 0.4 batch
    batch = dict(batches)[0.4]
    ratio = batch.mean / pred.predict(0.4)
    ok_factor2 = 0.5 <= ratio <= 2.0
    ok_slope = abs(fit.slope - L / 4) / (L / 4) <= 0.20
    elapsed = time.perf_counter() - t0
    ok_time = elapsed <= 7200.0
    passed = report(
        "11 (1D field dynamics at desk scale)",
        ok_factor2 and ok_slope and ok_time,
        f"mean {batch.mean:.2f} vs prediction {pred.predict(0.4):.2f} "
        f"(ratio {ratio:.2f} in [0.5, 2]); sweep slope {fit.slope:.3f} vs "
        f"{L/4} +- 20%; {elapsed:.0f}s <= 2h")
    assert passed


def test_criterion_12_galerkin_consistency():
    L, N = 2.0, 4096
    pot = m.galerkin_potential_1d(L, N)
    mn, sd = m.galerkin_critical_points_1d(L, N)
    via_hessians = m.ek_finite(mn, sd, pot)
    closed = m.ek_allen_cahn_1d(L)
    gap = abs(via_hessians.prefactor - closed.prefactor) / closed.prefactor
    ok_barrier = abs(via_hessians.barrier - L / 4) < 1e-10
    passed = report(
        "12 (Galerkin consistency)", gap < 1e-3 and ok_barrier,
        f"truncated-Hessian prefactor {via_hessians.prefactor:.6f} vs field "
        f"limit {closed.prefactor:.6f} (rel gap {gap:.2e} < 1e-3 at N=4096)")
    assert passed


@pytest.mark.slow
def test_criterion_13_rate_functionals(quartic):
    # SDE side: relaxation path scores ~0, its reversal scores 2 * barrier
    run = m.SdeRun(quartic, epsilon=0.0, dt=2.5e-4, x0=[0.01], seed=0)
    times, states = integrate_path(run, 18.0, record=True)
    path = path_from_states(times, states)
    flow_cost = m.rate_functional_sde(path, quartic)
    uphill = m.rate_functional_sde(path.reversed(), quartic)
    ok_sde = flow_cost <= 1e-4 and abs(uphill - 0.5) / 0.5 <= 0.02

    # field side: d=1 torus, relaxation from near the transition state
    L, N = 2.0, 8
    f0 = m.field_from_function(
        1, L, N, lambda x: -0.02 + 0.005 * np.cos(2 * np.pi * x / L))
    frun = m.SpdeRun(field0=f0, epsilon=0.0, dt=2.5e-4, t_max=1.0, seed=0)
    ftimes, snaps = integrate_deterministic(frun, 25.0)
    from metastab.rate_functional import FieldPath

    fpath = FieldPath(times=ftimes, d=1, L=L, N=N, coeffs=snaps)
    fflow = m.rate_functional_ac_1d(fpath)
    frev = m.rate_functional_ac_1d(fpath.reversed())
    ok_field = fflow <= 1e-4 and abs(frev - L / 2) / (L / 2) <= 0.02
    passed = report(
        "13 (rate functionals)", ok_sde and ok_field,
        f"SDE flow {flow_cost:.2e} <= 1e-4, reversed {uphill:.4f} = 0.5 +- 2%; "
        f"field flow {fflow:.2e} <= 1e-4, reversed {frev:.4f} = {L/2} +- 2%")
    assert passed


def test_criterion_14_random_walk_limit():
    n, n_walks = 10_000, 10_000
    pos = m.ensemble_rescaled(n_walks, n, [0.25, 1.0], seed=20200115)
    incr = pos[:, 1] - pos[:, 0]
    var = incr.var(ddof=1)
    band = 3 * 0.75 * np.sqrt(2.0 / (n_walks - 1))
    ok_var = abs(var - 0.75) < band
    w1 = m.ensemble_rescaled(n_walks, n, [1.0], seed=5)[:, 0]
    ks = stats.kstest(w1, "norm")
    crit = 1.358 / np.sqrt(n_walks)
    ok_ks = ks.statistic < crit
    passed = report(
        "14 (random walk limit)", ok_var and ok_ks,
        f"Var[W_1 - W_0.25] = {var:.4f} vs 0.75 (band {band:.4f}); "
        f"KS statistic {ks.statistic:.5f} < {crit:.5f} (5% level)")
    assert passed


def test_criterion_15_reproducibility(tmp_path):
    outs = {}
    for threads in (1, 4, 8):
        d = tmp_path / f"threads{threads}"
        code = main(["sde-hitting", "--epsilon", "0.3", "--dt", "0.002",
                     "--x0", "-1", "--target", "1", "--delta", "0.2",
                     "--n", "64", "--seed", "1515", "--threads", str(threads),
                     "--out", str(d)])
        assert code == 0
        outs[threads] = (d / "results.csv").read_bytes()
    identical = outs[1] == outs[4] == outs[8]
    passed = report(
        "15 (reproducibility)", identical,
        "results.csv byte-identical across 1, 4, 8 worker threads")
    assert passed


@pytest.mark.slow
def test_criterion_16_d2_gating_checks():
    # The quantitative 2D hitting-time comparison is explicitly non-gating;
    # the gating d=2 content is criteria 8-10 plus the finite-cutoff
    # counterterm comparison below.  Runs with and without the counterterm
    # share one noise realization per cutoff (common random numbers), so the
    # paired gap isolates the counterterm effect: the bare dynamics drift
    # away from the renormalized reference as the cutoff grows, while the
    # renormalized well average stays pinned near -1.
    import warnings

    L, eps, dt, T = 2.0, 0.1, 2e-3, 3.0
    avgs = {}
    for renorm in (True, False):
        for N in (8, 16, 32):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                run = m.SpdeRun(field0=m.constant_field(2, L, N, -1.0),
                                epsilon=eps, dt=dt, t_max=T, seed=1616,
                                renormalize=renorm)
            _, means = spatial_mean_trajectory(run, T)
            avgs[renorm, N] = float(np.mean(means))
    in_band = all(-1.2 < avgs[True, N] < -0.8 for N in (8, 16, 32))
    gap = {N: avgs[False, N] - avgs[True, N] for N in (8, 16, 32)}
    monotone = gap[8] < gap[16] < gap[32]
    passed = report(
        "16 (d=2 gating subset; quantitative hitting check non-gating)",
        in_band and monotone,
        f"renormalized well averages {[round(avgs[True, N], 3) for N in (8, 16, 32)]} "
        f"stay in [-1.2, -0.8]; paired bare-vs-renormalized gap grows with "
        f"the cutoff: {[round(gap[N], 4) for N in (8, 16, 32)]}")
    assert passed
