import mmap

import numpy as np
import pytest

from metastab import (
    SdeRun,
    detailed_balance_residual,
    ou_density,
    ou_fokker_planck_residual,
    quadratic_well,
    sample_endpoints,
    sample_hitting_times,
)
from metastab import potentials, sde
from metastab.errors import AllCensored, NonFinite
from metastab.sde import (
    _block_steps,
    _first_passage,
    _sde_callbacks,
    hitting_times_raw,
    integrate_path,
    ou_mean_var,
    replica_rng,
)


class TestEmStep:
    """Euler-Maruyama steps, run on the engine through integrate_path."""

    def test_deterministic_quadratic(self):
        # one step of x - x dt
        run = SdeRun(quadratic_well(), epsilon=0.0, dt=0.01, x0=[1.0], seed=0)
        assert integrate_path(run, 0.01)[0] == pytest.approx(0.99)

    def test_noise_scaling(self):
        # one step from the minimum moves by sqrt(2 eps dt) times replica 0's
        # first normal
        run = SdeRun(quadratic_well(), epsilon=0.5, dt=0.04, x0=[0.0], seed=0)
        g = replica_rng(0, 0).standard_normal()
        assert integrate_path(run, 0.04)[0] == np.sqrt(2 * 0.5 * 0.04) * g

    def test_nonfinite_raises(self, quartic):
        run = SdeRun(quartic, epsilon=0.0, dt=1e200, x0=[2.0], seed=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFinite):
            integrate_path(run, 10 * run.dt)

    def test_gradient_flow_reaches_well(self, quartic):
        run = SdeRun(quartic, epsilon=0.0, dt=1e-3, x0=[0.5], seed=0)
        x = integrate_path(run, 20.0)
        assert abs(x[0] - 1.0) < 1e-3

    @pytest.mark.parametrize("pot_name, x0", [
        ("quartic_double_well", [-1.0]),
        ("double_well_2d", [-1.0, 0.2]),
    ])
    def test_noisy_path_matches_a_per_step_loop(self, pot_name, x0):
        # 2100 steps run past two 1024-step noise blocks
        pot = getattr(potentials, pot_name)()
        run = SdeRun(pot, epsilon=0.3, dt=1e-3, x0=x0, seed=5)
        times, states = integrate_path(run, 2.1, record=True)
        rng = replica_rng(run.seed, 0)
        amp = np.sqrt(2 * run.epsilon * run.dt)
        x = run.x0[None]
        ref = [x[0]]
        for _ in range(2100):
            x = x - pot.gradient_batch(x) * run.dt \
                + amp * rng.standard_normal((1, run.x0.size))
            ref.append(x[0])
        assert np.array_equal(times, np.arange(2101) * run.dt)
        assert np.array_equal(states, np.array(ref))
        assert np.array_equal(integrate_path(run, 2.1), ref[-1])


class TestOuDensity:
    def test_long_time_limit_is_invariant_gaussian(self):
        eps = 0.3
        y = np.linspace(-2, 2, 9)
        target = np.exp(-(y**2) / (2 * eps)) / np.sqrt(2 * np.pi * eps)
        vals = np.array([ou_density(1.3, yi, 40.0, eps) for yi in y])
        assert np.allclose(vals, target, rtol=1e-10)

    def test_zero_start_symmetric(self):
        for y in (0.3, 1.1):
            assert ou_density(0.0, y, 0.7, 0.2) == pytest.approx(
                ou_density(0.0, -y, 0.7, 0.2))

    def test_explicit_mean_variance(self):
        # x=1, t=ln 2 contracts the mean to 1/2; eps=0.5 gives variance 3/8
        mean, var = ou_mean_var(1.0, np.log(2.0), 0.5)
        assert mean == pytest.approx(0.5)
        assert var == pytest.approx(0.375)
        peak = ou_density(1.0, 0.5, np.log(2.0), 0.5)
        assert peak == pytest.approx(1.0 / np.sqrt(2 * np.pi * 0.375))

    def test_normalization(self):
        y = np.linspace(-6, 6, 4001)
        p = np.array([ou_density(0.8, yi, 0.5, 0.25) for yi in y])
        assert np.trapezoid(p, y) == pytest.approx(1.0, abs=1e-8)


class TestDetailedBalance:
    def test_residual_below_1e12(self):
        grid = np.linspace(-2, 2, 41)
        assert detailed_balance_residual(0.7, 0.3, grid) < 1e-12

    def test_various_parameters(self):
        grid = np.linspace(-3, 3, 25)
        for t, eps in ((0.1, 0.05), (1.0, 1.0), (5.0, 0.4)):
            assert detailed_balance_residual(t, eps, grid) < 1e-12

    def test_diagonal_exactly_zero(self):
        grid = np.array([0.4, -1.2])
        t, eps = 0.7, 0.3
        var = eps * (1 - np.exp(-2 * t))
        for x in grid:
            pi_x = np.exp(-(x**2) / (2 * eps)) / np.sqrt(2 * np.pi * eps)
            p = np.exp(-((x - x * np.exp(-t)) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)
            assert pi_x * p - pi_x * p == 0.0


class TestFokkerPlanck:
    def test_richardson_ratio_is_four(self):
        y = np.linspace(-1.5, 1.5, 31)
        r1 = ou_fokker_planck_residual(1.0, 0.1, 1.0, y, 1e-2)
        r2 = ou_fokker_planck_residual(1.0, 0.1, 1.0, y, 5e-3)
        assert r1 / r2 == pytest.approx(4.0, abs=0.5)

    def test_residual_small_for_exact_density(self):
        y = np.linspace(-1, 1, 21)
        assert ou_fokker_planck_residual(0.5, 0.2, 0.8, y, 1e-3) < 1e-4


class TestEndpointMoments:
    # t = 2.0 runs past the first 1024-step noise block, so each replica's
    # stream must continue across blocks rather than replay its first block
    @pytest.mark.parametrize("t", [1.0, 2.0])
    def test_ou_mean_and_variance_at_t1(self, t):
        run = SdeRun(quadratic_well(), epsilon=0.1, dt=1e-3, x0=[1.0], seed=99)
        xs = sample_endpoints(run, t, 30000)[:, 0]
        mean_th, var_th = ou_mean_var(1.0, t, 0.1)
        se_mean = xs.std(ddof=1) / np.sqrt(xs.size)
        assert abs(xs.mean() - mean_th) < 3 * se_mean
        se_var = xs.var(ddof=1) * np.sqrt(2.0 / (xs.size - 1))
        assert abs(xs.var(ddof=1) - var_th) < 3 * se_var

    def test_reproducible_and_offset_consistent(self):
        run = SdeRun(quadratic_well(), epsilon=0.2, dt=1e-2, x0=[1.0], seed=5)
        a = sample_endpoints(run, 0.5, 64)
        b = sample_endpoints(run, 0.5, 64)
        assert np.array_equal(a, b)
        # replicas own their streams: a shifted window reproduces the tail
        c = sample_endpoints(run, 0.5, 32, replica_offset=32)
        assert np.array_equal(a[32:], c)


class TestHittingTimes:
    def test_start_inside_ball_gives_zero(self, quartic, no_noise):
        # the engine sees the start state and stops before drawing noise
        run = SdeRun(quartic, epsilon=0.2, dt=1e-3, x0=[1.05], seed=1)
        batch = sample_hitting_times(run, [1.0], 0.2, 16)
        assert np.array_equal(batch.raw, np.zeros(16))
        assert batch.n_censored == 0

    def test_deterministic_descent_hits_predictably(self, quartic):
        run = SdeRun(quartic, epsilon=0.0, dt=1e-3, x0=[0.5], seed=1)
        batch = sample_hitting_times(run, [1.0], 0.2, 4)
        # flow from 0.5 crosses 0.8 at a fixed time; all replicas identical
        assert np.ptp(batch.samples) == 0.0
        assert 0.5 < batch.mean < 3.0

    def test_batch_statistics_recomputable(self, quartic):
        run = SdeRun(quartic, epsilon=0.3, dt=1e-3, x0=[-1.0], seed=7)
        batch = sample_hitting_times(run, [1.0], 0.2, 64)
        assert batch.mean == pytest.approx(np.mean(batch.samples))
        assert batch.stderr == pytest.approx(
            np.std(batch.samples, ddof=1) / np.sqrt(batch.samples.size))
        assert batch.n_attempted == 64
        assert batch.n_censored == int(np.sum(np.isnan(batch.raw)))

    @pytest.mark.parametrize("t_max", (0.0, -5.0, float("nan")))
    def test_nonpositive_horizon_rejected(self, quartic, t_max):
        # a zero-step run would report every replica censored
        with pytest.raises(ValueError, match="t_max"):
            SdeRun(quartic, epsilon=0.3, dt=1e-3, x0=[-1.0], seed=0, t_max=t_max)

    def test_all_censored_raises(self, quartic):
        run = SdeRun(quartic, epsilon=1e-4, dt=1e-3, x0=[-1.0], seed=3,
                     t_max=0.05)
        with pytest.raises(AllCensored):
            sample_hitting_times(run, [1.0], 0.05, 8)

    def test_stability_guard_warns_for_large_dt(self, quartic):
        # dt above 1 / max Hessian eigenvalue along the path triggers the
        # statistical stability warning
        from metastab.sde import hitting_times_raw

        run = SdeRun(quartic, epsilon=0.01, dt=0.4, x0=[1.3], seed=4,
                     t_max=4.0)
        with pytest.warns(RuntimeWarning):
            hitting_times_raw(run, [-5.0], 0.1, 4)

    def test_stability_check_samples_across_the_live_replicas(self, quartic):
        # only row 6 sits where V'' = 3 x^2 - 1 = 26 exceeds 1/dt
        run = SdeRun(quartic, epsilon=0.01, dt=0.1, x0=[0.0], seed=4)
        check = _sde_callbacks(run)["check"]
        x = np.zeros((8, 1))
        x[6] = 3.0
        with pytest.warns(RuntimeWarning):
            check(x)

    def test_partition_invariance(self, quartic):
        # the same replica indices give the same times regardless of batching
        from metastab.sde import hitting_times_raw

        run = SdeRun(quartic, epsilon=0.35, dt=1e-3, x0=[-1.0], seed=11)
        whole = hitting_times_raw(run, [1.0], 0.2, 24)
        parts = np.concatenate([
            hitting_times_raw(run, [1.0], 0.2, 8, replica_offset=0),
            hitting_times_raw(run, [1.0], 0.2, 8, replica_offset=8),
            hitting_times_raw(run, [1.0], 0.2, 8, replica_offset=16),
        ])
        assert np.array_equal(whole, parts, equal_nan=True)


def _reference_hitting_times(run, center, delta, n):
    """One replica at a time, drawing its stream in the engine's block sizes."""
    dim = run.x0.size
    amp = np.sqrt(2 * run.epsilon * run.dt)
    max_steps = int(round(run.horizon / run.dt))
    out = np.full(n, np.nan)
    for i in range(n):
        rng = replica_rng(run.seed, i)
        x = run.x0[None].copy()
        done = 0
        while done < max_steps and np.isnan(out[i]):
            block = min(sde._MAX_STEPS, max_steps - done)
            g = amp * rng.standard_normal(block * dim).reshape(block, dim)
            for j in range(block):
                x = x - run.potential.gradient_batch(x) * run.dt + g[j]
                diff = x[0] - np.asarray(center)
                if np.sqrt(np.sum(diff * diff)) < delta:
                    out[i] = (done + j + 1) * run.dt
                    break
            done += block
    return out


class TestFirstPassageEngine:
    # Near-deterministic descent onto the ball around +1 whose hit steps
    # straddle the end of the first 1024-step block; the horizon is 1040 steps.
    # The seeds give hits inside the block, one hit on its last step, hits in
    # the second block and censored replicas.
    @pytest.mark.parametrize("pot_name, x0, center, dt, t_max, seed", [
        ("quartic_double_well", [0.5], [1.0], 8.17e-4, 0.85, 21),
        ("double_well_2d", [0.5, 0.3], [1.0, 0.0], 9.46e-4, 0.984, 23),
    ])
    def test_bit_exact_against_one_replica_loop(self, pot_name, x0, center, dt,
                                                t_max, seed):
        pot = getattr(potentials, pot_name)()
        run = SdeRun(pot, epsilon=1e-4, dt=dt, x0=x0, seed=seed, t_max=t_max)
        raw = hitting_times_raw(run, center, 0.2, 16)
        ref = _reference_hitting_times(run, center, 0.2, 16)
        steps = np.rint(raw / dt)
        assert np.sum(steps < 1024) >= 2  # hits in the middle of the block
        assert np.any(steps == 1024)  # a hit on the block's last step
        assert np.any(steps > 1024)  # hits in the next block
        assert np.sum(np.isnan(raw)) >= 2  # censored at the horizon
        assert np.array_equal(raw, ref, equal_nan=True)

    def test_observe_sees_every_step_and_only_live_rows(self, monkeypatch):
        # blocks of 4 steps; replica 0 starts in the target (k = 0), replica 1
        # hits at step 3, replica 2 at step 6, the first step of the second
        # block.  aux holds the replica ids once the first step has set them.
        monkeypatch.setattr(sde, "_MAX_STEPS", 4)
        seen = []
        ids = np.arange(4)

        def step(x, noise, aux):
            return x + 1.0 + noise, ids[1:] if aux is None else aux

        def observe(k, x, aux):
            seen.append((k, (ids if aux is None else aux).tolist()))
            assert np.all(x[:, 0] == k)
            if k == 0:
                return ids == 0
            return None if k not in (3, 6) else aux == k // 3

        times, final = _first_passage(np.zeros(1), 0, 0, 4, 0.5, 9, (1,), step,
                                      observe, scale=0.0)
        assert [k for k, _ in seen] == list(range(10))
        assert [live for _, live in seen] == \
            [[0, 1, 2, 3]] + [[1, 2, 3]] * 3 + [[2, 3]] * 3 + [[3]] * 3
        assert np.array_equal(times, [0.0, 1.5, 3.0, np.nan], equal_nan=True)
        assert np.array_equal(final, [[9.0]])


class TestBlockRule:
    @pytest.mark.parametrize("width, live, steps", [
        (1, 2000, 1024),  # sde_kramers, criteria 4 and 5
        (1, 60_000, 1024),  # the SDE at any n: the 8 KiB floor
        (2, 1, 1024),
        (65**2, 64, 7),  # d=2, N=32, n=64 field hitting
        (33, 400, 158),  # criterion 11: d=1, N=16, n=400
        (17**2, 1, 113),  # field_2d trajectories at N=8, 16, 32
        (33**2, 1, 30),
        (65**2, 1, 7),
        (33, 100, 635),  # field_1d: d=1, N=16, n=100
        (9, 16, 1024),  # d=1, N=4, n=16: one block
        (129**2, 4096, 1),  # at least one step
    ])
    def test_block_lengths(self, width, live, steps):
        assert _block_steps(width, live, 10**6) == steps
        assert _block_steps(width, live, 5) == min(steps, 5)

    @pytest.mark.parametrize("budget", (8, 24))
    def test_tiny_budget_keeps_hitting_times(self, budget, quartic, monkeypatch):
        # 8 live replicas: blocks of budget // 8 steps that lengthen as
        # replicas hit
        run = SdeRun(quartic, epsilon=0.35, dt=1e-3, x0=[-1.0], seed=11,
                     t_max=40.0)
        whole = hitting_times_raw(run, [1.0], 0.2, 8)
        blocks = []
        draw = sde._draw_noise

        def recording(rngs, steps, *rest):
            blocks.append(steps)
            return draw(rngs, steps, *rest)

        monkeypatch.setattr(sde, "_draw_noise", recording)
        monkeypatch.setattr(sde, "_MIN_DRAW", 1)
        monkeypatch.setattr(sde, "_BLOCK_NORMALS", budget)
        budgeted = hitting_times_raw(run, [1.0], 0.2, 8)
        assert blocks[0] == budget // 8 and len(set(blocks)) > 1
        assert np.array_equal(whole, budgeted, equal_nan=True)

    def test_blocks_share_one_mapped_buffer(self, quartic, monkeypatch):
        # a call's blocks are views of one buffer outside malloc's heap, so
        # the loop's memory does not follow the hits or earlier allocations
        run = SdeRun(quartic, epsilon=0.35, dt=1e-3, x0=[-1.0], seed=11,
                     t_max=40.0)
        whole = hitting_times_raw(run, [1.0], 0.2, 8)
        buffers = []
        draw = sde._draw_noise

        def recording(rngs, steps, shape, scale, buf):
            buffers.append(buf)
            return draw(rngs, steps, shape, scale, buf)

        monkeypatch.setattr(sde, "_draw_noise", recording)
        monkeypatch.setattr(sde, "_MIN_DRAW", 1)
        monkeypatch.setattr(sde, "_BLOCK_NORMALS", 24)
        budgeted = hitting_times_raw(run, [1.0], 0.2, 8)
        assert len(buffers) > 1 and all(b is buffers[0] for b in buffers)
        assert buffers[0].size == 24 and isinstance(buffers[0].base.obj, mmap.mmap)
        assert np.array_equal(whole, budgeted, equal_nan=True)


@pytest.mark.slow
class TestHittingTimeStatistics:
    def test_mean_matches_rate_prediction_at_quarter(self, quartic):
        from metastab import ek_finite, find_critical_point

        eps = 0.25
        mn = find_critical_point(quartic, [-0.9])
        sd = find_critical_point(quartic, [0.1])
        predicted = ek_finite(mn, sd, quartic).predict(eps)
        run = SdeRun(quartic, epsilon=eps, dt=1e-3, x0=[-1.0], seed=2024)
        batch = sample_hitting_times(run, [1.0], 0.2, 600)
        assert batch.n_censored == 0
        assert abs(batch.mean - predicted) / predicted < 0.30

    def test_dt_halving_within_monte_carlo_error(self, quartic):
        eps = 0.3
        b1 = sample_hitting_times(
            SdeRun(quartic, epsilon=eps, dt=2e-3, x0=[-1.0], seed=77), [1.0], 0.2, 400)
        b2 = sample_hitting_times(
            SdeRun(quartic, epsilon=eps, dt=1e-3, x0=[-1.0], seed=78), [1.0], 0.2, 400)
        assert abs(b1.mean - b2.mean) < 3 * np.hypot(b1.stderr, b2.stderr)

    def test_equilibrium_histogram_matches_gibbs(self, quartic):
        # thinned ensemble occupation vs the Boltzmann weight, chi^2 at 5%
        from scipy import stats

        eps = 0.4
        n_rep, t_total, burn = 200, 60.0, 20.0
        dt = 1e-3
        amp = np.sqrt(2 * eps * dt)
        thin_every = int(4.0 / dt)
        samples = []
        for i in range(n_rep):
            rng = replica_rng(909, i)
            x = -1.0
            n_steps = int(t_total / dt)
            noise = rng.standard_normal(n_steps)
            for j in range(n_steps):
                x = x - (x**3 - x) * dt + amp * noise[j]
                if j * dt >= burn and j % thin_every == 0:
                    samples.append(x)
        samples = np.array(samples)
        lo, hi = -2.2, 2.2
        nbins = 40
        edges = np.linspace(lo, hi, nbins + 1)
        counts, _ = np.histogram(samples, bins=edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        xq = np.linspace(lo, hi, 20001)
        dens = np.exp(-(xq**4 / 4 - xq**2 / 2) / eps)
        dens /= np.trapezoid(dens, xq)
        probs = np.array([
            np.trapezoid(dens[(xq >= a) & (xq <= b)], xq[(xq >= a) & (xq <= b)])
            for a, b in zip(edges[:-1], edges[1:])
        ])
        probs /= probs.sum()
        expected = probs * counts.sum()
        keep = expected >= 5
        merged_counts = np.append(counts[keep], counts[~keep].sum())
        merged_expected = np.append(expected[keep], expected[~keep].sum())
        chi2 = float(np.sum((merged_counts - merged_expected) ** 2 / merged_expected))
        dof = merged_counts.size - 1
        assert chi2 < stats.chi2.ppf(0.95, dof)
