import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from metastab import (
    Grid1D,
    Potential,
    SpdeRun,
    allen_cahn_energy,
    constant_field,
    counterterm_trace,
    field_from_function,
    noise_coefficient_check,
    random_field,
    sample_spde_hitting_times,
    solve_poisson,
    spde,
)
from metastab.errors import AllCensored, DomainError, NonFinite
from metastab.fields import (
    BandGrid,
    SpectralField,
    full_band,
    grid_values,
    mode_wavenumbers,
    squared_wavenumber_grid,
)
from metastab import sde
from metastab.sde import _draw_noise, replica_rng
from metastab.spde import (
    _Stepper,
    draw_mode_noise,
    export_snapshot_csv,
    integrate_deterministic,
    record_snapshots,
    spatial_mean_trajectory,
    spde_hitting_times_raw,
)


NAN, INF = float("nan"), float("inf")


def make_run(d=1, L=2.0, N=8, eps=0.2, dt=1e-3, t_max=10.0, seed=0, start=-1.0,
             **kw):
    return SpdeRun(field0=constant_field(d, L, N, start), epsilon=eps, dt=dt,
                   t_max=t_max, seed=seed, **kw)


class TestStep:
    def test_well_is_fixed_point_without_noise(self):
        run = make_run(eps=0.0)
        _, snaps = integrate_deterministic(run, 5 * run.dt)
        assert len(snaps) == 6
        for prev, new in zip(snaps, snaps[1:]):
            assert np.max(np.abs(new - prev)) < 1e-14

    def test_deterministic_flow_converges_to_plus_well(self):
        L, N = 2.0, 8
        f0 = field_from_function(1, L, N,
                                 lambda x: 0.3 * np.cos(2 * np.pi * x / L) + 0.1)
        run = SpdeRun(field0=f0, epsilon=0.0, dt=1e-3, t_max=1.0, seed=0)
        _, snaps = integrate_deterministic(run, 20.0, record_every=1000)
        end = grid_values(SpectralField(1, L, N, snaps[-1]))
        assert np.allclose(end, 1.0, atol=1e-6)

    def test_energy_nonincreasing_along_flow(self, rng):
        L, N = 2.0, 8
        for _ in range(20):
            f0 = random_field(1, L, N, rng, 0.5)
            run = SpdeRun(field0=f0, epsilon=0.0, dt=1e-3, t_max=1.0, seed=0)
            _, snaps = integrate_deterministic(run, 0.2, record_every=20)
            energies = [allen_cahn_energy(SpectralField(1, L, N, c)) for c in snaps]
            assert np.all(np.diff(energies) <= 1e-10)

    def test_flow_matches_fine_dt_reference(self):
        # halving dt changes the endpoint at first order only
        L, N = 2.0, 6
        f0 = field_from_function(1, L, N,
                                 lambda x: 0.4 * np.sin(2 * np.pi * x / L) - 0.2)
        ends = {}
        for dt in (2e-3, 1e-3, 5e-4):
            run = SpdeRun(field0=f0, epsilon=0.0, dt=dt, t_max=1.0, seed=0)
            _, snaps = integrate_deterministic(run, 2.0, record_every=10**9)
            ends[dt] = snaps[-1]
        e1 = np.max(np.abs(ends[2e-3] - ends[5e-4]))
        e2 = np.max(np.abs(ends[1e-3] - ends[5e-4]))
        assert e2 < e1  # first-order convergence toward the reference

    @pytest.mark.parametrize("d", (1, 2))
    def test_deterministic_flow_matches_a_stepper_loop(self, d):
        # 20 steps recorded every 3rd: the last snapshot is off that grid
        f0 = random_field(d, 1.5, 4, np.random.default_rng(3), 0.5)
        run = SpdeRun(field0=f0, epsilon=0.3, dt=2e-3, t_max=1.0, seed=0)
        st = _Stepper(run)
        c = f0.coeffs[..., :5]
        u = st.colloc.grid(c)
        want_t, want = [0.0], [c]
        for k in range(1, 21):
            c, u = st.step(c, None, u)
            if k % 3 == 0 or k == 20:
                want_t.append(k * run.dt)
                want.append(c)
        times, snaps = integrate_deterministic(run, 20 * run.dt, record_every=3)
        assert np.array_equal(times, want_t)
        assert np.array_equal(snaps, full_band(np.array(want), d))

    def test_realness_preserved_over_many_noisy_steps(self, complex_reference):
        run = make_run(N=8, eps=0.3, dt=1e-3, seed=12)
        st = _Stepper(run)
        rng = replica_rng(run.seed, 0)
        c = run.field0.coeffs[..., :9]
        u = st.colloc.grid(c)
        for _ in range(10_000):
            c, u = st.step(c, _draw_noise([rng], 1, st.noise_shape)[0, 0], u)
        vals = complex_reference.grid(full_band(c, 1), 1, 2.0, 8, 34)
        assert np.max(np.abs(vals.imag)) < 1e-10

    def test_band_stays_hermitian_beyond_two_pi(self):
        # at L = 8 > 2 pi, mu_1 = 1 - (2 pi / 8)^2 > 0: an anti-Hermitian part
        # of the k_last = 0 column, which the grid cannot see, would grow
        # like exp(mu_1 t) unless every step keeps that column exact.  No
        # counterterm exists beyond 2 pi, so the run is not renormalized.
        with pytest.warns(RuntimeWarning, match="without renormalization"):
            run = make_run(d=2, L=8.0, N=4, eps=0.01, dt=5e-3, seed=17,
                           renormalize=False)
        st = _Stepper(run)
        rng = replica_rng(run.seed, 0)
        c = run.field0.coeffs[..., :5]
        u = st.colloc.grid(c)
        for _ in range(0, 20_000, 250):
            for eta in _draw_noise([rng], 250, st.noise_shape)[:, 0]:
                c, u = st.step(c, eta, u)
        band = full_band(c, 2)
        assert np.all(np.isfinite(band))
        assert np.array_equal(_mirror(band, 2), band.conj())

    def test_mode_noise_law(self):
        # unit variance per mode, exact conjugate symmetry
        run = make_run(N=4)
        rng = replica_rng(0, 0)
        draws = np.array([draw_mode_noise(run, rng) for _ in range(4000)])
        var = np.mean(np.abs(draws) ** 2, axis=0)
        assert np.allclose(var, 1.0, atol=0.15)
        sym = draws[:, 1:][:, ::-1] - np.conj(draws[:, 1:])
        assert np.max(np.abs(sym)) < 1e-14
        assert np.max(np.abs(draws[:, 0].imag)) < 1e-14


def _mirror(a, d):
    """a[..., (-k) % n] along each of the last d axes (FFT ordering)."""
    for ax in range(-d, 0):
        a = np.roll(np.flip(a, axis=ax), 1, axis=ax)
    return a


def _wick_trace(L, N):
    """C_N = L^-2 sum over |k|_inf <= N of 1 / nu_k, nu_k = (2 pi |k| / L)^2 - 1."""
    k = 2 * np.pi * np.arange(-N, N + 1) / L
    return np.sum(1.0 / (k[:, None] ** 2 + k[None, :] ** 2 - 1.0)) / L**2


def _reference_step(st, c, normals):
    """One d=2 step by complex FFTs of the full band, cubed by pow, with the
    mode noise sqrt(2 eps dt) fftn(normals) / (2N+1) and, if renormalized,
    the counterterm 3 eps C_N, both from the run, not the stepper."""
    run = st.run
    M, L, N, dt = st.M, st.L, st.N, run.dt
    rows = np.ix_(*(mode_wavenumbers(N) % M,) * 2)
    big = np.zeros((M, M), dtype=complex)
    big[rows] = c
    u = np.fft.ifft2(big).real * (M**2 / L)
    drift = -np.fft.fft2(u**3)[rows] * (L / M**2)
    if run.renormalize_resolved:
        drift = drift + 3 * run.epsilon * _wick_trace(L, N) * c
    eta = np.fft.fftn(normals) / (2 * N + 1)
    denom = 1.0 - dt * (1.0 - squared_wavenumber_grid(2, L, N))
    return (c + dt * drift + np.sqrt(2 * run.epsilon * dt) * eta) / denom


class TestRealTransforms:
    @pytest.mark.parametrize("factor", (2, 3))
    @pytest.mark.parametrize("N", (1, 4, 16))
    @pytest.mark.parametrize("d", (1, 2))
    def test_grid_and_project_match_fields_oracle(self, d, N, factor, rng,
                                                  complex_reference):
        # factor 3 makes M odd: the half spectrum then has no Nyquist column
        L, M = 1.5, factor * (2 * N + 1)
        bg = BandGrid(d, L, N, M)
        coeffs = np.array([random_field(d, L, N, rng).coeffs for _ in range(3)])
        grids = complex_reference.grid(coeffs, d, L, N, M).real
        vals = rng.standard_normal((3,) + (M,) * d)
        bands = complex_reference.project(vals, d, L, N)
        projected = full_band(bg.project(vals), d)
        for got, want in ((bg.grid(coeffs), grids), (bg.grid(coeffs[0]), grids[0]),
                          (bg.grid(coeffs[..., :N + 1]), grids),
                          (projected, bands), (full_band(bg.project(vals[0]), d), bands[0])):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        for band in (projected, full_band(bg.project(vals[0]), d)):
            assert np.array_equal(_mirror(band, d), band.conj())

    @pytest.mark.parametrize("d", (1, 2))
    def test_noise_is_scaled_dft_of_the_same_normals(self, d):
        st = _Stepper(make_run(d=d, L=1.5, N=5))
        n = st.n_modes
        axes = tuple(range(-d, 0))
        drawn = _draw_noise([replica_rng(4, i) for i in range(3)], 7, st.noise_shape)
        g = np.stack([replica_rng(4, i).standard_normal((7,) + (n,) * d)
                      for i in range(3)], axis=1)
        assert np.array_equal(drawn, g)  # each replica's own stream
        eta = full_band(st.mode_noise(drawn), d)
        one = draw_mode_noise(st.run, replica_rng(4, 0))
        for got, normals in ((eta, g), (one, g[0, 0])):
            want = np.fft.fftn(normals, axes=axes) / n ** (d / 2)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            assert np.array_equal(_mirror(got, d), got.conj())

    @pytest.mark.parametrize("batched", (False, True))
    @pytest.mark.parametrize("d", (1, 2))
    def test_step_adds_the_scaled_dft_of_its_normals(self, d, batched):
        # the normals ride on every second point of the cubic's forward FFT
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = make_run(d=d, L=1.5, N=5, eps=0.3, dt=2e-3, start=0.0,
                           drop_cubic=True, renormalize=False)
        st = _Stepper(run)
        normals = _draw_noise([replica_rng(6, i) for i in range(3)], 1,
                              st.noise_shape)[0]
        zero = np.zeros((3,) + st.denom.shape, dtype=complex)
        if not batched:
            normals, zero = normals[0], zero[0]
        want = st.noise_amp * np.fft.fftn(normals, axes=tuple(range(-d, 0))) \
            / st.n_modes ** (d / 2)
        want = want[..., :st.N + 1] / st.denom
        got, _ = st.step(zero, normals, st.colloc.grid(zero))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_trajectory_noise_blocks_match_single_draws(self, monkeypatch):
        # 37 steps: four full noise blocks and a partial one
        monkeypatch.setattr(sde, "_MAX_STEPS", 8)
        run = make_run(d=2, L=1.5, N=4, eps=0.3, dt=2e-3, seed=5)
        st = _Stepper(run)
        rng = replica_rng(run.seed, 0)
        c = run.field0.coeffs[..., :5]
        u = st.colloc.grid(c)
        ref = [c[0, 0].real]
        for _ in range(37):
            c, u = st.step(c, _draw_noise([rng], 1, st.noise_shape)[0, 0], u)
            ref.append(c[0, 0].real)
        _, means = spatial_mean_trajectory(run, 37 * run.dt)
        assert np.array_equal(means, np.array(ref) * run.field0.L ** (-1.0))

    @pytest.mark.parametrize("renormalize", (True, False))
    def test_seeded_trajectory_matches_complex_reference(self, renormalize):
        # a wrong band mapping moves the trajectory far more than 1e-12, yet
        # could stay inside criterion 16's statistical bands
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = make_run(d=2, N=8, eps=0.1, dt=2e-3, seed=1616,
                           renormalize=renormalize)
        st = _Stepper(run)
        n_steps = 500
        scale = run.field0.L ** (-1.0)
        rng = replica_rng(run.seed, 0)
        c = run.field0.coeffs.copy()
        ref = [c[0, 0].real * scale]
        for _ in range(n_steps):
            c = _reference_step(st, c, _draw_noise([rng], 1, st.noise_shape)[0, 0])
            ref.append(c[0, 0].real * scale)
        _, means = spatial_mean_trajectory(run, n_steps * run.dt)
        assert means.shape == (n_steps + 1,)
        assert np.max(np.abs(means - np.array(ref))) <= 1e-12
        rng = replica_rng(run.seed, 0)
        got = run.field0.coeffs[..., :9]
        u = st.colloc.grid(got)
        for _ in range(n_steps):
            got, u = st.step(got, _draw_noise([rng], 1, st.noise_shape)[0, 0], u)
        assert np.max(np.abs(full_band(got, 2) - c)) <= 1e-12


class TestLinearizedModes:
    def test_ou_stationary_variance_per_mode(self):
        # with the cubic term dropped each mode is an OU process whose
        # stationary variance is eps / ((2 pi k / L)^2 - 1)
        L, N, eps, dt = 2.0, 2, 0.3, 2e-4
        run = make_run(N=N, eps=eps, dt=dt, start=0.0, drop_cubic=True)
        st = _Stepper(run)
        rng = replica_rng(77, 0)
        c = run.field0.coeffs[..., :N + 1]
        u = st.colloc.grid(c)
        burn, total = 2.0, 15.0
        n_burn, n_total = int(burn / dt), int(total / dt)
        acc = np.zeros(N + 1)
        count = 0
        for j in range(n_total):
            c, u = st.step(c, _draw_noise([rng], 1, st.noise_shape)[0, 0], u)
            if j >= n_burn:
                acc += np.abs(c) ** 2
                count += 1
        emp = acc / count
        for k in (1, 2):
            nu = (2 * np.pi * k / L) ** 2 - 1.0
            n_eff = (total - burn) * nu
            band = 3 * np.sqrt(2.0 / n_eff)
            assert abs(emp[k] - eps / nu) / (eps / nu) < band

    def test_d2_stationary_variance_is_the_schemes_law(self):
        # a semi-implicit step gives mode k the stationary variance
        # eps / (nu_k (1 + dt nu_k / 2)), nu_k = |2 pi k / L|^2 - 1.  The
        # continuum law eps / nu_k sums to 0.0441 here, about 8 standard
        # errors off: the d=2 noise falls short of what the Wick counterterm
        # C_N adds back (ROADMAP, open item 2).
        d, N, L, eps, dt = 2, 8, 2.0, 0.1, 5e-3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = make_run(d=d, L=L, N=N, eps=eps, dt=dt, start=0.0, seed=3,
                           drop_cubic=True, renormalize=False)
        nu = squared_wavenumber_grid(d, L, N) - 1.0
        nu_1 = (2 * np.pi / L) ** 2 - 1.0
        gap = int(np.ceil(5.0 / (nu_1 * dt)))  # states e^-10 correlated
        cs = spde._one_replica(_Stepper(run), np.arange(gap, 100 * gap + 1, gap),
                               0, lambda c: c)
        full = full_band(cs, d)
        full[:, 0, 0] = 0.0  # the mean mode, unstable without the cubic
        var = np.sum(np.abs(full) ** 2, axis=(1, 2)) / L**d
        se = var.std(ddof=1) / np.sqrt(var.size)
        nu = nu[nu != -1.0]
        law = eps / L**d * np.sum(1.0 / (nu * (1.0 + dt * nu / 2.0)))
        assert abs(var.mean() - law) < 3 * se
        assert abs(var.mean() - eps / L**d * np.sum(1.0 / nu)) > 3 * se


class TestNoiseCovariance:
    def test_full_torus_variance(self):
        run = make_run(N=8, eps=0.3, dt=0.01, start=0.0, seed=7)
        rep = noise_coefficient_check(run, T_values=(1.0,), n=3000)
        # full torus: Var = T * L^d exactly (k=0 pairing only)
        assert rep.continuum_var[0, 0] == pytest.approx(2.0)
        assert abs(rep.empirical_var[0, 0] - rep.predicted_var[0, 0]) < \
            3 * rep.var_stderr[0, 0]

    def test_box_variance_matches_truncated_indicator_norm(self):
        run = make_run(N=8, eps=0.3, dt=0.01, start=0.0, seed=8)
        rep = noise_coefficient_check(run, T_values=(1.0,), n=3000)
        for row in range(len(rep.sets)):
            assert abs(rep.empirical_var[row, 0] - rep.predicted_var[row, 0]) < \
                3 * rep.var_stderr[row, 0]
            # truncation at N=8 already reproduces the box volume closely
            assert rep.predicted_var[row, 0] == pytest.approx(
                rep.continuum_var[row, 0], rel=0.1)

    def test_disjoint_boxes_correlation_is_the_models(self):
        # truncated at N=8 the disjoint boxes' pairings are correlated 0.026,
        # half the 3 / sqrt(n) band: centred on 0 the test would fail at
        # about 6% of seeds
        run = make_run(N=8, eps=0.3, dt=0.01, start=0.0, seed=9)
        rep = noise_coefficient_check(run, T_values=(1.0,), n=3000)
        assert rep.exact_pair_correlation == pytest.approx(0.0259, abs=1e-4)
        assert abs(rep.pair_correlation - rep.exact_pair_correlation) < rep.pair_tol

    @pytest.mark.parametrize("N", (1, 4, 16))
    @pytest.mark.parametrize("d", (1, 2))
    def test_isometry_is_exact(self, d, N):
        # |g|^2 = sum_k |a_k|^2: the mode noise has unit variance per real
        # degree of freedom, to rounding
        run = make_run(d=d, L=1.5, N=N, eps=0.2, dt=0.01, start=0.0)
        rep = noise_coefficient_check(run, T_values=(run.dt,), n=2)
        assert rep.isometry_residual.shape == (3,)
        assert np.max(np.abs(rep.isometry_residual)) < 1e-12

    def test_variance_linear_in_horizon(self):
        run = make_run(N=6, eps=0.3, dt=0.01, start=0.0, seed=10)
        rep = noise_coefficient_check(run, T_values=(0.5, 1.0, 2.0), n=4000)
        T = np.array(rep.T_values)
        v = rep.empirical_var[0]  # full torus
        slope = np.polyfit(T, v, 1)[0]
        assert slope / 2.0 == pytest.approx(1.0, abs=0.05)  # L^d = 2

    def test_horizons_between_steps_are_predicted_where_simulated(self):
        # T = 0.015 runs round(1.5) = 2 steps of dt = 0.01: predicted at T the
        # variance ratio read 1.27-1.35 (z = 9.6-11.6), at the simulated 0.02
        # it is within 3 standard errors
        run = make_run(N=4, eps=0.2, dt=0.01, start=0.0, seed=5)
        rep = noise_coefficient_check(run, T_values=(0.015, 0.5), n=4000)
        assert rep.T_values == (2 * 0.01, 50 * 0.01)
        assert np.allclose(rep.predicted_var[:, 0] / rep.predicted_var[:, 1],
                           0.02 / 0.5, rtol=1e-14, atol=0)
        assert np.all(np.abs(rep.empirical_var - rep.predicted_var)
                      < 3 * rep.var_stderr)

    @pytest.mark.parametrize("T_values, message", [
        ((0.004,), "T = 0.004 rounds to 0 steps"),
        ((0.5, -1.0), "T = -1.0 rounds to -100 steps"),
        ((), "T_values is empty")])
    def test_horizons_must_run_a_step(self, T_values, message):
        run = make_run(N=4, eps=0.2, dt=0.01, start=0.0, seed=5)
        with pytest.raises(ValueError, match=message):
            noise_coefficient_check(run, T_values=T_values, n=2)

    def test_needs_two_replicas(self):
        with pytest.raises(ValueError):
            noise_coefficient_check(make_run(), n=1)

    def test_pairings_do_not_depend_on_blas_threads(self):
        # d=2, N=16 and 400 replicas, where a BLAS product over the replicas
        # would run on several OpenBLAS threads, whose split of its columns
        # moves their last bits: the pairings' bits must not follow it
        code = (
            "import hashlib\n"
            "from metastab import constant_field, sde, spde\n"
            "seen = []\n"
            "ranges = spde.run_ranges\n"
            "spde.run_ranges = lambda w, n: seen.append(ranges(w, n)) or seen[-1]\n"
            "spde.noise_coefficient_check(spde.SpdeRun(constant_field(2, 1.5, 16, 0.0),"
            " epsilon=0.2, dt=0.02, t_max=1.0, seed=11), T_values=(0.2,), n=400)\n"
            "print(hashlib.sha256(seen[0].tobytes()).hexdigest())\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        digests = set()
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                timeout=300)
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout.strip())
        assert len(digests) == 1

    def test_2d_full_torus(self):
        run = make_run(d=2, L=1.5, N=4, eps=0.2, dt=0.02, start=0.0, seed=11)
        rep = noise_coefficient_check(run, T_values=(1.0,), n=1500)
        assert rep.continuum_var[0, 0] == pytest.approx(1.5**2)
        assert abs(rep.empirical_var[0, 0] - rep.predicted_var[0, 0]) < \
            3 * rep.var_stderr[0, 0]


class TestHitting:
    def test_start_at_target_is_zero(self, no_noise):
        # the engine sees the start state and stops before drawing noise
        for d, norm in ((1, "linf"), (2, "hs")):
            run = make_run(d=d, start=1.0, eps=0.2)
            batch = sample_spde_hitting_times(run, target=1.0, delta=0.3,
                                              norm=norm, n=8)
            assert np.array_equal(batch.raw, np.zeros(8))

    def test_needs_a_replica(self):
        with pytest.raises(ValueError):
            spde_hitting_times_raw(make_run(), 1.0, 0.3, n=0)

    def test_sobolev_norm_requires_negative_s(self):
        run = make_run()
        with pytest.raises(DomainError):
            sample_spde_hitting_times(run, 1.0, 0.3, norm="hs", s=0.5, n=2)

    def test_all_censored_raises(self):
        run = make_run(eps=1e-4, t_max=0.05)
        with pytest.raises(AllCensored):
            sample_spde_hitting_times(run, 1.0, 0.05, n=4)

    def test_partition_invariance(self):
        run = make_run(N=4, eps=0.5, dt=2e-3, t_max=400.0, seed=13)
        whole = spde_hitting_times_raw(run, 1.0, 0.4, n=12)
        parts = np.concatenate([
            spde_hitting_times_raw(run, 1.0, 0.4, n=6, replica_offset=0),
            spde_hitting_times_raw(run, 1.0, 0.4, n=6, replica_offset=6),
        ])
        assert np.array_equal(whole, parts, equal_nan=True)

    @pytest.mark.parametrize("norm,delta", (("hs", 0.6), ("linf", 0.8)))
    def test_d2_partition_invariance(self, norm, delta, monkeypatch):
        # one call (a single 500-step block), two replica ranges, and blocks
        # of two steps while all 12 replicas live (49 normals and 1 kept
        # distance per replica-step); hits and censoring in each
        run = make_run(d=2, L=1.5, N=3, eps=0.5, dt=2e-3, t_max=1.0, seed=17,
                       start=0.2)
        whole = spde_hitting_times_raw(run, 1.0, delta, norm=norm, n=12)
        assert np.sum(np.isnan(whole)) >= 2 and np.sum(whole > 0) >= 6
        parts = np.concatenate([
            spde_hitting_times_raw(run, 1.0, delta, norm=norm, n=5),
            spde_hitting_times_raw(run, 1.0, delta, norm=norm, n=7,
                                   replica_offset=5),
        ])
        monkeypatch.setattr(sde, "_MIN_DRAW", 1)
        monkeypatch.setattr(sde, "_BLOCK_NORMALS", 2 * 12 * 50)
        tiny = spde_hitting_times_raw(run, 1.0, delta, norm=norm, n=12)
        assert np.array_equal(whole, parts, equal_nan=True)
        assert np.array_equal(whole, tiny, equal_nan=True)

    def test_hs_hitting_runs(self):
        run = make_run(N=4, eps=0.5, dt=2e-3, t_max=400.0, seed=14)
        batch = sample_spde_hitting_times(run, 1.0, delta=1.0, norm="hs",
                                          s=-0.5, n=6)
        assert batch.samples.size > 0
        assert np.all(batch.samples >= 0)

    def test_d2_renormalized_hitting_runs(self):
        # 2D transition sampling in the negative-order Sobolev ball, with
        # the counterterm active by default
        run = make_run(d=2, L=1.5, N=4, eps=0.6, dt=2e-3, t_max=600.0,
                       seed=15)
        batch = sample_spde_hitting_times(run, 1.0, delta=1.0, norm="hs",
                                          s=-0.5, n=4)
        assert batch.samples.size > 0
        assert np.all(np.isfinite(batch.samples))


    def test_hitting_path_grids_each_state_once(self, monkeypatch):
        # the grid a step returns for the distance feeds the next drift
        calls = []
        grid = BandGrid.grid

        def counting(self, coeffs):
            calls.append(coeffs.shape)
            return grid(self, coeffs)

        monkeypatch.setattr(BandGrid, "grid", counting)
        run = make_run(N=16, eps=0.2, dt=1e-3, t_max=0.256, seed=3)
        raw = spde_hitting_times_raw(run, 100.0, 0.3, n=10)
        assert np.all(np.isnan(raw))
        assert len(calls) == 257  # c0 once, then each of the 256 new states

    @pytest.mark.parametrize("norm,delta", (("linf", 0.4), ("hs", 0.5)))
    def test_grid_reuse_is_bit_exact(self, norm, delta, monkeypatch):
        monkeypatch.setattr(sde, "_MAX_STEPS", 256)
        run = make_run(N=4, eps=0.5, dt=2e-3, t_max=0.9, seed=21, start=0.2)
        reused = spde_hitting_times_raw(run, 1.0, delta, norm=norm, n=16)
        steps = np.round(reused / run.dt)
        # hits inside the first 256-step noise block and after it, plus censoring
        assert np.any(steps < 256) and np.any(steps > 256)
        assert np.any(np.isnan(reused))
        step = _Stepper.step

        def fresh_step(self, coeffs, eta, u):
            return step(self, coeffs, eta, self.colloc.grid(coeffs))

        monkeypatch.setattr(_Stepper, "step", fresh_step)
        fresh = spde_hitting_times_raw(run, 1.0, delta, norm=norm, n=16)
        assert np.array_equal(reused, fresh, equal_nan=True)

    @pytest.mark.parametrize("budget_steps", (1, 7))
    def test_noise_byte_budget_keeps_hitting_times(self, budget_steps, monkeypatch):
        # d=1, N=4: each replica draws 9 real normals and keeps 1 distance
        # per step; with no floor and a cap of budget_steps steps per
        # replica and call
        run = make_run(N=4, eps=0.5, dt=2e-3, t_max=0.9, seed=21, start=0.2)
        whole = spde_hitting_times_raw(run, 1.0, 0.4, n=16)
        blocks = []
        draw = sde._draw_noise

        def recording(rngs, steps, *rest):
            blocks.append(steps)
            return draw(rngs, steps, *rest)

        monkeypatch.setattr(sde, "_draw_noise", recording)
        monkeypatch.setattr(sde, "_MIN_DRAW", 1)
        monkeypatch.setattr(sde, "_MAX_DRAW", budget_steps * 10)
        budgeted = spde_hitting_times_raw(run, 1.0, 0.4, n=16)
        assert max(blocks) == budget_steps
        assert np.array_equal(whole, budgeted, equal_nan=True)

    def test_field_blocks_count_the_kept_distance(self, monkeypatch, one_worker):
        # d=1, N=16, n=100 field hitting: 33 normals and 1 distance a step
        blocks = []
        draw = sde._draw_noise

        def recording(rngs, steps, *rest):
            blocks.append((steps, len(rngs)))
            return draw(rngs, steps, *rest)

        monkeypatch.setattr(sde, "_draw_noise", recording)
        run = make_run(N=16, eps=0.1, dt=1e-3, t_max=0.7, seed=3)
        assert np.all(np.isnan(spde_hitting_times_raw(run, 100.0, 0.3, n=100)))
        assert blocks == [(308, 100), (308, 100), (84, 100)]

    def test_tiny_block_budget_keeps_hitting_times(self, monkeypatch):
        # 9 normals and 1 kept distance per replica-step in blocks of at most
        # 320 values: two steps while all 16 replicas live, longer blocks as
        # they hit
        run = make_run(N=4, eps=0.5, dt=2e-3, t_max=0.9, seed=21, start=0.2)
        whole = spde_hitting_times_raw(run, 1.0, 0.4, n=16)
        monkeypatch.setattr(sde, "_MIN_DRAW", 1)
        monkeypatch.setattr(sde, "_BLOCK_NORMALS", 2 * 16 * 10)
        budgeted = spde_hitting_times_raw(run, 1.0, 0.4, n=16)
        assert np.array_equal(whole, budgeted, equal_nan=True)


def _mean_field_potential(a):
    """V(x) = x^4/4 - a x^2/2, for the poisson solver."""
    return Potential(value=lambda x: x[..., 0] ** 4 / 4 - a * x[..., 0] ** 2 / 2,
                     gradient_batch=lambda x: x * x * x - a * x,
                     hessian=lambda x: np.array([[3 * x[0] ** 2 - a]]))


@pytest.mark.parametrize("d", (1, 2))
def test_mean_field_hitting_time_matches_the_poisson_solve(d):
    # At N = 0 the field is its mean x = c_0 L^{-d/2}: the stepper is the
    # quartic SDE with noise eps / L^d and, in d = 2, the linear drift
    # 1 + 3 eps C_0 = 1 - 3 eps / L^2.  This gates the noise scale and the
    # counterterm, not the O(sqrt(dt)) monitoring bias, so the parameters
    # stay fixed.
    L, eps, delta = 2.0, 0.4, 0.3
    run = SpdeRun(field0=constant_field(d, L, 0, -1.0), epsilon=eps, dt=4e-3,
                  t_max=2000.0, seed=5)
    batch = sample_spde_hitting_times(run, 1.0, delta, n=1000)
    a = 1.0 + (3 * eps * counterterm_trace(L, 0) if d == 2 else 0.0)
    grid = Grid1D(-2.5, 2.5, 1999)
    w = solve_poisson(grid, _mean_field_potential(a), eps / L**d,
                      (1.0 - delta, 1.0 + delta))
    exact = float(np.interp(-1.0, grid.nodes, w))
    z = (batch.mean - exact) / batch.stderr
    print(f"d={d}: MC {batch.mean:.3f} +- {batch.stderr:.3f}, exact {exact:.3f}, z={z:.2f}")
    assert batch.n_censored == 0
    assert abs(z) < 3


class TestTimeStep:
    @pytest.mark.parametrize("dt", [1.0, 1.5])
    def test_dt_at_or_above_one_rejected(self, dt):
        # the implicit step divides the mean mode by 1 - dt
        with pytest.raises(DomainError, match="below 1"):
            make_run(dt=dt)

    def test_dt_below_one_accepted(self):
        assert make_run(dt=0.9).dt == 0.9

    def test_field_overflow_raises(self):
        run = make_run(d=1, L=2.0, N=4, eps=0.0, dt=0.5, start=10.0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFinite, match="a state overflowed"):
            integrate_deterministic(run, 20 * run.dt)


def test_renormalized_run_at_two_pi_names_L_before_stepping():
    # nu_1 = 0 makes C_N infinite: the stepper names L before any step
    run = make_run(d=2, L=2 * np.pi, N=4)
    with pytest.raises(DomainError, match="outside"):
        spatial_mean_trajectory(run, 10 * run.dt)


class TestRenormalizationFlags:
    def test_d1_counterterm_rejected(self):
        with pytest.raises(DomainError):
            make_run(d=1, renormalize=True)

    def test_d2_without_counterterm_warns(self):
        with pytest.warns(RuntimeWarning):
            make_run(d=2, L=1.5, N=4, renormalize=False)

    def test_d2_default_is_renormalized(self):
        run = make_run(d=2, L=1.5, N=4)
        assert run.renormalize_resolved is True
        assert _Stepper(run).counter != 0.0

    def test_d1_default_is_bare(self):
        run = make_run(d=1)
        assert run.renormalize_resolved is False
        assert _Stepper(run).counter == 0.0

    def test_noiseless_mode_decays_at_the_wick_rate(self):
        # without the cubic and the noise, mode (1, 0) decays like
        # exp(-(nu_1 - 3 eps C_N) t); at L=2 the step's O(dt) error would
        # already be 4%, so L=5
        L, N, eps, dt, T = 5.0, 8, 0.3, 1e-3, 2.0
        coeffs = np.zeros((2 * N + 1,) * 2, dtype=complex)
        coeffs[1, 0] = coeffs[-1, 0] = 0.1
        run = SpdeRun(field0=SpectralField(2, L, N, coeffs), epsilon=eps, dt=dt,
                      t_max=T, seed=0, drop_cubic=True, renormalize=True)
        _, snaps = integrate_deterministic(run, T, record_every=10**9)
        nu_1 = (2 * np.pi / L) ** 2 - 1.0
        want = 0.1 * np.exp(-(nu_1 - 3 * eps * _wick_trace(L, N)) * T)
        assert snaps[-1][1, 0].real == pytest.approx(want, rel=1e-3)


@pytest.mark.slow
class TestRenormalizationEffect:
    def test_counterterm_pins_the_well_across_cutoffs(self):
        # time-averaged spatial mean of runs started at the -1 well: with
        # the counterterm it stays in a narrow band around -1, and the bare
        # dynamics (same noise realization per cutoff) drift away from the
        # renormalized reference as the cutoff grows
        import warnings

        L, eps, dt, T = 2.0, 0.1, 2e-3, 10.0
        seeds = (404, 405)
        avgs = {}
        for renorm in (True, False):
            for N in (8, 16, 32):
                vals = []
                for seed in seeds:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        run = SpdeRun(field0=constant_field(2, L, N, -1.0),
                                      epsilon=eps, dt=dt, t_max=T, seed=seed,
                                      renormalize=renorm)
                    _, means = spatial_mean_trajectory(run, T)
                    vals.append(float(np.mean(means)))
                avgs[renorm, N] = float(np.mean(vals))
        for N in (8, 16, 32):
            assert -1.2 < avgs[True, N] < -0.8
        gap = {N: avgs[False, N] - avgs[True, N] for N in (8, 16, 32)}
        assert gap[8] < gap[16] < gap[32]


@pytest.mark.slow
class TestHittingStatistics:
    def test_dt_halving_within_monte_carlo_error(self):
        kw = dict(N=8, eps=0.5, t_max=2000.0)
        b1 = sample_spde_hitting_times(make_run(dt=4e-3, seed=51, **kw),
                                       1.0, 0.3, n=120)
        b2 = sample_spde_hitting_times(make_run(dt=2e-3, seed=52, **kw),
                                       1.0, 0.3, n=120)
        assert abs(b1.mean - b2.mean) < 3 * np.hypot(b1.stderr, b2.stderr)


def test_snapshot_export_header(tmp_path):
    f = constant_field(1, 2.0, 4, -1.0)
    out = tmp_path / "snap.csv"
    export_snapshot_csv(f, 1.5, str(out))
    first = out.read_text().splitlines()[0]
    assert first.startswith("#")
    for token in ("d=1", "L=2.0", "N=4", "t=1.5"):
        assert token in first


def test_record_snapshots_grid_each_snapshot_once(tmp_path, monkeypatch):
    calls = []
    grid = BandGrid.grid

    def counting(self, coeffs):
        calls.append(coeffs.shape)
        return grid(self, coeffs)

    monkeypatch.setattr(BandGrid, "grid", counting)
    run = make_run(d=2, L=1.5, N=4, eps=0.3, dt=2e-3, seed=31)
    record_snapshots(run, [0.05, 0.0, 0.014], str(tmp_path))
    # the snapshots grid full bands; the half band is gridded for c0 once,
    # then for each of the 25 new states
    assert calls.count((9, 9)) == 3
    assert len(calls) == 1 + 25 + 3


def test_record_snapshots_match_a_stepper_loop(tmp_path, monkeypatch):
    # unsorted times, one at t = 0; 25 steps span several noise blocks
    monkeypatch.setattr(sde, "_MAX_STEPS", 8)
    run = make_run(d=2, L=1.5, N=4, eps=0.3, dt=2e-3, seed=31)
    paths = record_snapshots(run, [0.05, 0.0, 0.014], str(tmp_path),
                             replica_index=2)
    st = _Stepper(run)
    rng = replica_rng(run.seed, 2)
    c = run.field0.coeffs[..., :5]
    u = st.colloc.grid(c)
    states = [full_band(c, 2)]
    for _ in range(25):
        c, u = st.step(c, _draw_noise([rng], 1, st.noise_shape)[0, 0], u)
        states.append(full_band(c, 2))
    rows = [json.loads(line) for line in
            (tmp_path / "trajectory.jsonl").read_text().splitlines()]
    assert len(paths) == 4 and len(rows) == 3
    for i, (k, row) in enumerate(zip((0, 7, 25), rows)):
        got = np.loadtxt(tmp_path / f"snap_{i:04d}.csv", delimiter=",")
        want = grid_values(SpectralField(2, 1.5, 4, states[k]))
        assert np.array_equal(got, want)
        assert row["t"] == pytest.approx(k * run.dt, abs=1e-12)
        assert (row["mean"], row["min"], row["max"]) == \
            (want.mean(), want.min(), want.max())


def test_record_snapshots_write_nothing_when_the_run_raises(tmp_path):
    # the files are written after the run, so the t = 0 snapshot is not
    # left behind by a run that overflows later
    run = make_run(d=1, L=2.0, N=4, eps=0.0, dt=0.5, start=10.0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFinite, match="a state overflowed"):
        record_snapshots(run, [0.0, 10.0], str(tmp_path / "snaps"))
    assert not (tmp_path / "snaps").exists()


def test_record_snapshots_reject_a_negative_time(tmp_path):
    with pytest.raises(ValueError) as info:
        record_snapshots(make_run(), [0.05, -1.0], str(tmp_path / "snaps"))
    assert type(info.value) is ValueError
    assert str(info.value) == "snapshot time -1.0 is negative"
    assert not (tmp_path / "snaps").exists()


@pytest.mark.parametrize("call, error, message", [
    (lambda: make_run(dt=0.0), ValueError, "dt must be positive"),
    (lambda: make_run(dt=-1e-3), ValueError, "dt must be positive"),
    (lambda: make_run(eps=-0.1), ValueError, "epsilon must be nonnegative"),
    (lambda: make_run(dt=NAN), ValueError, "dt must be finite"),
    (lambda: make_run(dt=INF), DomainError,
     "dt = inf must be below 1: the implicit step divides the mean mode by 1 - dt"),
    (lambda: make_run(eps=NAN), ValueError, "epsilon must be finite"),
    (lambda: make_run(eps=INF), ValueError, "epsilon must be finite"),
    (lambda: spde_hitting_times_raw(make_run(), 1.0, 0.0), ValueError,
     "delta must be positive"),
    (lambda: spde_hitting_times_raw(make_run(), 1.0, -0.3), ValueError,
     "delta must be positive"),
    (lambda: spde_hitting_times_raw(make_run(), 1.0, NAN, n=2), ValueError,
     "delta must be positive"),
    # a duration that is not a finite number of steps is refused by name
    (lambda: spde_hitting_times_raw(make_run(t_max=NAN), 1.0, 0.3), ValueError,
     "t_max = nan is not a finite number of steps of dt = 0.001"),
    (lambda: spde_hitting_times_raw(make_run(t_max=INF), 1.0, 0.3), ValueError,
     "t_max = inf is not a finite number of steps of dt = 0.001"),
    (lambda: integrate_deterministic(make_run(), NAN), ValueError,
     "t_final = nan is not a finite number of steps of dt = 0.001"),
    (lambda: integrate_deterministic(make_run(), INF, record_every=7), ValueError,
     "t_final = inf is not a finite number of steps of dt = 0.001"),
    (lambda: spatial_mean_trajectory(make_run(), NAN), ValueError,
     "t_final = nan is not a finite number of steps of dt = 0.001"),
    (lambda: spatial_mean_trajectory(make_run(), INF), ValueError,
     "t_final = inf is not a finite number of steps of dt = 0.001"),
    (lambda: noise_coefficient_check(make_run(), T_values=(0.5, NAN), n=2),
     ValueError, "T = nan is not a finite number of steps of dt = 0.001"),
    (lambda: noise_coefficient_check(make_run(), T_values=(INF,), n=2),
     ValueError, "T = inf is not a finite number of steps of dt = 0.001"),
    # one answer to a negative duration, from the engine
    (lambda: spde_hitting_times_raw(make_run(t_max=-1.0), 1.0, 0.3), ValueError,
     "a run of -1000 steps: the duration must be nonnegative"),
    (lambda: integrate_deterministic(make_run(), -1.0), ValueError,
     "a run of -1000 steps: the duration must be nonnegative"),
    (lambda: integrate_deterministic(make_run(), -1.0, record_every=7), ValueError,
     "a run of -1000 steps: the duration must be nonnegative"),
    (lambda: spatial_mean_trajectory(make_run(), -1.0), ValueError,
     "a run of -1000 steps: the duration must be nonnegative"),
    (lambda: integrate_deterministic(make_run(), 1.0, record_every=0), ValueError,
     "record_every must be >= 1"),
    (lambda: integrate_deterministic(make_run(), 1.0, record_every=-3), ValueError,
     "record_every must be >= 1"),
])
def test_bad_inputs_raise(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("t", (NAN, INF))
def test_record_snapshots_reject_a_non_finite_time(tmp_path, t):
    with pytest.raises(ValueError) as info:
        record_snapshots(make_run(), [0.05, t], str(tmp_path / "snaps"))
    assert type(info.value) is ValueError
    assert str(info.value) == \
        f"snapshot time = {t} is not a finite number of steps of dt = 0.001"
    assert not (tmp_path / "snaps").exists()


def test_zero_duration_gives_the_start_state():
    run = make_run()
    times, snaps = integrate_deterministic(run, 0.0)
    assert np.array_equal(times, [0.0])
    assert np.array_equal(snaps, run.field0.coeffs[None])
    times, means = spatial_mean_trajectory(run, 0.0)
    assert np.array_equal(times, [0.0]) and np.allclose(means, [-1.0])
