import mmap
import os
import threading
import time

import numpy as np
import pytest

from metastab import (
    SdeRun,
    detailed_balance_residual,
    ensemble_rescaled,
    ou_density,
    ou_fokker_planck_residual,
    quadratic_well,
    sample_endpoints,
    sample_hitting_times,
)
from metastab import potentials, sde, spde
from metastab.errors import AllCensored, NonFinite, ShapeMismatch
from metastab.fields import constant_field
from metastab.spde import SpdeRun, noise_coefficient_check, spde_hitting_times_raw
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

    @pytest.mark.parametrize("dim,target", ((1, [1.0, 0.0]), (2, [1.0])))
    def test_target_of_another_dimension_rejected(self, dim, target):
        # a 2-coordinate target broadcast against 1-coordinate states read as
        # every replica censored; a 1-coordinate one against 2-coordinate
        # states failed in a reshape
        pot = potentials.quartic_double_well() if dim == 1 else \
            potentials.double_well_2d()
        run = SdeRun(pot, epsilon=0.3, dt=1e-3, x0=[-1.0] + [0.0] * (dim - 1),
                     seed=1, t_max=20.0)
        with pytest.raises(ShapeMismatch, match=f"target has {len(target)} "
                           f"coordinates, the state {dim}"):
            hitting_times_raw(run, target, 0.2, 8)

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

    def test_hits_and_records_see_every_step_and_only_live_rows(self, monkeypatch):
        # blocks of 4 steps over 9: replica 0 starts in the target (step 0),
        # replica 1 hits on the first block's last step (4), replica 2 on
        # the second block's first step (5) and again at 7, replica 3 never.
        # The kept state equals the step count, so hit reads the step from
        # it; aux holds the replica ids once the first step has set them.
        # Each state is kept once, and hit sees the kept rows in order, in
        # one slice per block and in slices of one row.
        monkeypatch.setattr(sde, "_MAX_STEPS", 4)
        draw = sde._draw_noise
        ids = np.arange(4)

        def step(x, noise, aux):
            return x + 1.0 + noise, ids[1:] if aux is None else aux

        for observe_values in (1 << 16, 1):
            monkeypatch.setattr(sde, "_OBSERVE_VALUES", observe_values)
            draws, kept_states, seen, checked = [], [], [], []

            def recording(rngs, steps, *rest):
                draws.append((steps, len(rngs)))
                return draw(rngs, steps, *rest)

            monkeypatch.setattr(sde, "_draw_noise", recording)

            def keep(x, aux):
                kept_states.append(x[:, 0].tolist())
                return np.column_stack((x[:, 0], ids if aux is None else aux))

            def hit(kept):
                ks, who = kept[..., 0], kept[..., 1]
                for row in kept:
                    assert np.all(row[:, 0] == row[0, 0])
                    seen.append((int(row[0, 0]), row[:, 1].astype(int).tolist()))
                return (((who == 0) & (ks == 0)) | ((who == 1) & (ks == 4))
                        | ((who == 2) & ((ks == 5) | (ks == 7))))

            times, recorded = _first_passage(np.zeros(1), 0, 0, 4, 0.5, 9, (1,),
                                             step, hit, range(10), checked.append,
                                             scale=0.0, keep=keep)
            assert [k for k, _ in seen] == list(range(10))
            assert [live for _, live in seen] == \
                [[0, 1, 2, 3]] + [[1, 2, 3]] * 4 + [[2, 3]] * 4 + [[3]]
            assert kept_states == [[0.0] * 4] + [[k] * 3 for k in (1.0, 2.0, 3.0, 4.0)] \
                + [[k] * 2 for k in (5.0, 6.0, 7.0, 8.0)] + [[9.0]]
            assert draws == [(4, 3), (4, 2), (1, 1)]  # replica 0 draws nothing
            assert [c.tolist() for c in checked] == [[[4.0], [4.0]], [[8.0]], [[9.0]]]
            assert np.array_equal(times, [0.0, 2.0, 2.5, np.nan], equal_nan=True)
            # each replica's kept values up to its hit, nan after it, also
            # on the steps replica 2 ran past its hit within the block
            ks = np.arange(10)[:, None] * np.ones(4)
            want = np.stack((ks, np.ones((10, 1)) * ids), axis=2)
            want[ks > np.array([0, 4, 5, 9])] = np.nan
            assert np.array_equal(recorded, want, equal_nan=True)

    def test_overflowed_survivor_raises_without_a_check(self):
        # no check is passed: the engine tests the survivors of each block
        # itself.  States grow by 1e200 a step, so they overflow at step 2 of
        # the block; replicas that hit at step 1 are no survivors.
        def step(x, _noise, aux):
            return x * 1e200, aux

        def run(hit):
            return _first_passage(np.ones(1), 0, 0, 2, 0.5, 10, None, step, hit,
                                  keep=lambda x, _aux: x)[0]

        with np.errstate(over="ignore"):
            assert np.array_equal(run(lambda kept: kept[..., 0] > 1), [0.5, 0.5])
            with pytest.raises(NonFinite, match="a state overflowed; reduce dt"):
                run(None)

    def test_record_takes_steps_in_any_order_and_repeated(self, quartic):
        run = SdeRun(quartic, epsilon=0.3, dt=1e-3, x0=[-1.0], seed=5)
        callbacks = _sde_callbacks(run)
        _, every = _first_passage(run.x0, run.seed, 0, 3, run.dt, 2000,
                                  record=range(2001), **callbacks)
        times, some = _first_passage(run.x0, run.seed, 0, 3, run.dt, 2000,
                                     record=[2000, 0, 1024, 1024, 7], **callbacks)
        assert np.array_equal(some, every[[2000, 0, 1024, 1024, 7]])
        assert np.all(np.isnan(times))
        times, none = _first_passage(run.x0, run.seed, 0, 3, run.dt, 20, **callbacks)
        assert none.shape == (0, 3, 1)

    @pytest.mark.parametrize("record", ([6], [0, -1]))
    def test_recorded_steps_outside_the_run_rejected(self, quartic, record):
        run = SdeRun(quartic, epsilon=0.3, dt=1e-3, x0=[-1.0], seed=5)
        with pytest.raises(ValueError, match=r"recorded steps must lie in \[0, 5\]"):
            _first_passage(run.x0, run.seed, 0, 3, run.dt, 5, record=record,
                           **_sde_callbacks(run))

    def test_sde_states_are_kept_in_their_noise_rows(self, quartic):
        # keep None: the SDE step writes each new state over the noise row it
        # used, and the recorded steps read those rows
        run = SdeRun(quartic, epsilon=0.3, dt=1e-3, x0=[-1.0], seed=5)
        _, recorded = _first_passage(run.x0, run.seed, 0, 3, run.dt, 6,
                                     record=range(7), **_sde_callbacks(run))
        amp = np.sqrt(2 * run.epsilon * run.dt)
        noise = amp * np.stack([replica_rng(5, i).standard_normal((6, 1))
                                for i in range(3)], axis=1)
        x = np.full((3, 1), -1.0)
        want = [x]
        for g in noise:
            x = x - quartic.gradient_batch(x) * run.dt + g
            want.append(x)
        assert np.array_equal(recorded, np.array(want))


class TestBlockRule:
    # width: normals plus kept values per replica-step.  The SDE keeps its
    # states in its noise rows; field hitting keeps one distance and the
    # spatial mean trajectories one mean per step
    @pytest.mark.parametrize("width, live, steps", [
        (1, 2000, 524),  # sde_kramers, criteria 4 and 5: 8 MiB
        (1, 1024, 1024),  # the SDE's tail: 1024 steps up to 1024 live
        (1, 60_000, 512),  # the SDE at any n: the 4 KiB floor
        (2, 1, 1024),
        (65**2 + 1, 64, 3),  # d=2, N=32, n=64 field hitting
        (33 + 1, 400, 77),  # criterion 11: d=1, N=16, n=400
        (17**2 + 1, 1, 112),  # field_2d trajectories at N=8, 16, 32
        (33**2 + 1, 1, 30),
        (65**2 + 1, 1, 7),
        (33 + 1, 100, 308),  # field_1d: d=1, N=16, n=100
        (9 + 1, 16, 1024),  # d=1, N=4, n=16: one block
        (129**2, 4096, 1),  # at least one step
        # the same normals with nothing kept beside them
        (65**2, 64, 3),
        (33, 400, 79),
        (17**2, 1, 113),
        (33**2, 1, 30),
        (65**2, 1, 7),
        (33, 100, 317),
        (9, 16, 1024),
    ])
    def test_block_lengths(self, width, live, steps):
        assert _block_steps(width, live, 10**6) == steps
        assert _block_steps(width, live, 5) == min(steps, 5)

    @pytest.mark.parametrize("budget", (8, 24))
    def test_tiny_budget_keeps_hitting_times(self, budget, quartic, monkeypatch,
                                              one_worker):
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

    def test_blocks_share_one_mapped_buffer(self, quartic, monkeypatch, one_worker):
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

    def test_sde_kramers_block_fits_in_8_mib(self, quartic, monkeypatch, one_worker):
        # 2000 live replicas take 524-step blocks: 8.0 MiB of normals, where
        # 1000-step blocks would map 15.3 MiB
        run = SdeRun(quartic, epsilon=0.25, dt=1e-3, x0=[-1.0], seed=5,
                     t_max=1.0)
        sizes = []
        mapped = sde._noise_buffer

        def recording(size):
            sizes.append(8 * size)
            return mapped(size)

        monkeypatch.setattr(sde, "_noise_buffer", recording)
        hitting_times_raw(run, [1.0], 0.2, 2000)
        assert sizes and max(sizes) <= 8 << 20

    def test_endpoint_ranges_fit_in_8_mib(self, quartic, monkeypatch, one_worker):
        # 5000 replicas in one range run as three engine calls of at most
        # 2048, each in 600-step blocks of 7.6 MiB, where one call would map
        # 512-step blocks of 19.5 MiB; a replica's endpoint does not depend
        # on its call
        run = SdeRun(quartic, epsilon=0.25, dt=1e-3, x0=[-1.0], seed=5)
        sizes = []
        mapped = sde._noise_buffer

        def recording(size):
            sizes.append(8 * size)
            return mapped(size)

        monkeypatch.setattr(sde, "_noise_buffer", recording)
        whole = sample_endpoints(run, 0.6, 5000)
        assert len(sizes) == 3 and max(sizes) <= 8 << 20
        parts = [sample_endpoints(run, 0.6, count, replica_offset=offset)
                 for offset, count in ((0, 1000), (1000, 3000), (4000, 1000))]
        assert np.array_equal(whole, np.concatenate(parts))


class TestDrawNoise:
    @pytest.mark.parametrize("steps, shape, max_draw, live", [
        (7, (3,), 50, 5),  # groups of 2, 2 and 1 replicas
        (7, (3,), 21, 3),  # one replica a group
        (1024, (1,), 1 << 15, 40),  # the SDE's groups of 32, then 8
        (3, (2, 3), 50, 4),  # a field's (2N+1)^d normals, groups of 2
    ])
    def test_columns_are_each_replicas_own_stream(self, steps, shape, max_draw,
                                                  live, monkeypatch):
        monkeypatch.setattr(sde, "_MAX_DRAW", max_draw)
        rngs = [replica_rng(3, i) for i in range(live)]
        block = sde._draw_noise(rngs, steps, shape, 0.5, np.empty(live * steps * 9))
        assert block.shape == (steps, live) + shape and block.flags.c_contiguous
        for r in range(live):
            own = replica_rng(3, r).standard_normal((steps,) + shape)
            assert np.array_equal(block[:, r], 0.5 * own)
        # the streams go on where the block left them
        more = sde._draw_noise(rngs, 2, shape)
        for r in range(live):
            own = replica_rng(3, r).standard_normal((steps + 2,) + shape)
            assert np.array_equal(more[:, r], own[steps:])


def _pairings(n):
    """The pairings of n replicas in noise_coefficient_check, as its one
    run_ranges call returns them."""
    seen = []

    def recording(worker, count):
        seen.append(sde.run_ranges(worker, count))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spde, "run_ranges", recording)
        noise_coefficient_check(
            SpdeRun(constant_field(1, 2.0, 4, 0.0), epsilon=0.2, dt=0.05,
                    t_max=1.0, seed=6), T_values=(0.5, 1.0), n=n)
    return seen[0]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


class TestRunRanges:
    """Replica ranges forked from this process: the arrays of one worker,
    a child's exceptions and warnings at the caller, no child left over."""

    @pytest.mark.parametrize("call", [
        lambda: hitting_times_raw(
            SdeRun(quadratic_well(), epsilon=0.5, dt=1e-3, x0=[-1.0], seed=11,
                   t_max=3.0), [1.0], 0.2, 96, replica_offset=5),
        lambda: spde_hitting_times_raw(
            SpdeRun(constant_field(1, 2.0, 4, -1.0), epsilon=0.5, dt=0.01,
                    t_max=10.0, seed=3), 1.0, 0.3, n=96),
        lambda: spde_hitting_times_raw(
            SpdeRun(constant_field(2, 6.0, 2, 0.0), epsilon=0.1, dt=0.01,
                    t_max=4.0, seed=7), 1.0, 2.0, norm="hs", n=96),
    ], ids=["sde", "field_d1", "field_d2"])
    def test_hitting_arrays_are_one_workers(self, call, forks, monkeypatch):
        forked = call()
        assert len(forks) == 2 and _no_child_left()
        monkeypatch.setattr(sde, "_usable_cpus", lambda: 1)
        one = call()
        assert len(forks) == 2
        assert np.isfinite(one).sum() >= 10 and np.isnan(one).sum() >= 1
        assert np.array_equal(forked, one, equal_nan=True)

    @pytest.mark.parametrize("call", [
        lambda: sample_endpoints(
            SdeRun(quadratic_well(), epsilon=0.5, dt=1e-3, x0=[1.0], seed=11),
            0.2, 96, replica_offset=5),
        lambda: ensemble_rescaled(96, 50, [0.0, 0.3, 1.0], seed=6),
        # 774 replicas: ranges cut at replicas 258 and 516 (387 at 2 CPUs)
        lambda: _pairings(774),
    ], ids=["endpoints", "walks", "noise_check"])
    def test_ensemble_arrays_are_one_workers(self, call, forks, monkeypatch):
        forked = call()
        assert len(forks) == 2 and _no_child_left()
        monkeypatch.setattr(sde, "_usable_cpus", lambda: 2)
        halves = call()
        assert len(forks) == 3 and _no_child_left()
        monkeypatch.setattr(sde, "_usable_cpus", lambda: 1)
        one = call()
        assert len(forks) == 3
        assert np.array_equal(forked, one) and np.array_equal(halves, one)

    @staticmethod
    def _children_run(run, good):
        """A worker that runs the forked ranges on run, the first on good."""
        return lambda offset, count: hitting_times_raw(
            run if offset else good, [1.0], 0.2, count, replica_offset=offset)

    def test_a_childs_exception_reaches_the_caller(self, quartic, forks):
        good = SdeRun(quartic, epsilon=0.3, dt=1e-3, x0=[-1.0], seed=1, t_max=0.5)
        overflowing = SdeRun(quartic, epsilon=0.3, dt=0.5, x0=[-3.0], seed=1)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFinite, match="^a state overflowed; reduce dt$"):
            sde.run_ranges(self._children_run(overflowing, good), 96)
        assert len(forks) == 2 and _no_child_left()

    def test_a_childs_warning_reaches_the_caller(self, quartic, forks):
        good = SdeRun(quartic, epsilon=0.3, dt=1e-3, x0=[-1.0], seed=1, t_max=0.5)
        unstable = SdeRun(quartic, epsilon=0.01, dt=0.6, x0=[-1.0], seed=1, t_max=6.0)
        with pytest.warns(RuntimeWarning, match="dt exceeds 1/max Hessian") as heard:
            sde.run_ranges(self._children_run(unstable, good), 96)
        assert len(forks) == 2 and _no_child_left()
        assert len(heard) == 2  # one from each child

    def test_an_unpicklable_exception_comes_back_by_name(self, forks):
        class Local(Exception):
            pass

        def worker(offset, count):
            if offset:
                raise Local("from a child")
            return np.zeros(count)

        with pytest.raises(RuntimeError, match="^Local: from a child$"):
            sde.run_ranges(worker, 96)
        assert _no_child_left()

    def test_children_are_killed_when_this_range_raises(self, forks):
        def worker(offset, count):
            if offset == 0:
                raise ValueError("first range")
            time.sleep(60)

        start = time.perf_counter()
        with pytest.raises(ValueError, match="first range"):
            sde.run_ranges(worker, 96)
        assert time.perf_counter() - start < 30
        assert len(forks) == 2 and _no_child_left()

    def test_ranges_do_not_nest(self, forks):
        # inside a range, a call runs inline: its replicas report their
        # range's process
        def worker(offset, count):
            inner = sde.run_ranges(lambda o, c: np.full(c, os.getpid()), count)
            return np.column_stack([inner, np.full(count, os.getpid())])

        pids = sde.run_ranges(worker, 192, 2)
        assert np.array_equal(pids[:, 0], pids[:, 1])
        assert len(set(pids[:, 1])) == 2 and len(forks) == 1

    def test_small_ensembles_stay_inline(self, forks):
        pids = sde.run_ranges(lambda o, c: np.full(c, os.getpid()), 2 * sde._MIN_RANGE - 1)
        assert set(pids) == {os.getpid()} and forks == []
        pids = sde.run_ranges(lambda o, c: np.full(c, os.getpid()), 2 * sde._MIN_RANGE)
        assert len(set(pids)) == 2 and len(forks) == 1 and _no_child_left()

    def test_a_call_beside_another_thread_stays_inline(self, forks):
        # a fork would copy no thread, and any lock one held
        run = SdeRun(quadratic_well(), epsilon=0.5, dt=1e-3, x0=[-1.0], seed=11,
                     t_max=3.0)
        out = []
        beside = threading.Thread(
            target=lambda: out.append(hitting_times_raw(run, [1.0], 0.2, 96)))
        beside.start()
        beside.join()
        assert forks == []
        assert np.array_equal(out[0], hitting_times_raw(run, [1.0], 0.2, 96),
                              equal_nan=True)
        assert len(forks) == 2 and _no_child_left()


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


NAN, INF = float("nan"), float("inf")


def _run(quartic, **kw):
    return SdeRun(quartic, **{"epsilon": 0.3, "dt": 1e-3, "x0": [-1.0], "seed": 0, **kw})


@pytest.mark.parametrize("call, error, message", [
    (lambda q: _run(q, dt=0.0), ValueError, "dt must be positive"),
    (lambda q: _run(q, dt=-1e-3), ValueError, "dt must be positive"),
    (lambda q: _run(q, epsilon=-0.1), ValueError, "epsilon must be nonnegative"),
    (lambda q: _run(q, dt=NAN), ValueError, "dt must be finite"),
    (lambda q: _run(q, dt=INF), ValueError, "dt must be finite"),
    (lambda q: _run(q, dt=-INF), ValueError, "dt must be positive"),
    (lambda q: _run(q, epsilon=NAN), ValueError, "epsilon must be finite"),
    (lambda q: _run(q, epsilon=INF), ValueError, "epsilon must be finite"),
    (lambda q: _run(q, t_max=NAN), ValueError, "t_max must be positive"),
    (lambda q: hitting_times_raw(_run(q), [1.0], 0.0, 4), ValueError,
     "delta must be positive"),
    (lambda q: hitting_times_raw(_run(q), [1.0], -0.2, 4), ValueError,
     "delta must be positive"),
    (lambda q: hitting_times_raw(_run(q), [1.0], NAN, 4), ValueError,
     "delta must be positive"),
    # a duration that is not a finite number of steps is refused by name
    (lambda q: hitting_times_raw(_run(q, t_max=INF), [1.0], 0.2, 4), ValueError,
     "t_max = inf is not a finite number of steps of dt = 0.001"),
    (lambda q: sample_endpoints(_run(q), NAN, 3), ValueError,
     "t = nan is not a finite number of steps of dt = 0.001"),
    (lambda q: sample_endpoints(_run(q), INF, 3), ValueError,
     "t = inf is not a finite number of steps of dt = 0.001"),
    (lambda q: sample_endpoints(_run(q), -INF, 3), ValueError,
     "t = -inf is not a finite number of steps of dt = 0.001"),
    (lambda q: integrate_path(_run(q), NAN), ValueError,
     "t_final = nan is not a finite number of steps of dt = 0.001"),
    (lambda q: integrate_path(_run(q), INF, record=True), ValueError,
     "t_final = inf is not a finite number of steps of dt = 0.001"),
    (lambda q: integrate_path(_run(q, dt=1e-300), 1e10), ValueError,
     "t_final = 10000000000.0 is not a finite number of steps of dt = 1e-300"),
    (lambda q: ou_density(0.0, 0.5, 0.0, 0.3), ValueError, "t and eps must be positive"),
    (lambda q: ou_density(0.0, 0.5, -1.0, 0.3), ValueError, "t and eps must be positive"),
    # one answer to a negative duration, from the engine
    (lambda q: sample_endpoints(_run(q), -1.0, 3), ValueError,
     "a run of -1000 steps: the duration must be nonnegative"),
    (lambda q: sample_endpoints(_run(q), 1.0, -3), ValueError, "n must be >= 0"),
    (lambda q: integrate_path(_run(q), -1.0), ValueError,
     "a run of -1000 steps: the duration must be nonnegative"),
    (lambda q: integrate_path(_run(q), -1.0, record=True), ValueError,
     "a run of -1000 steps: the duration must be nonnegative"),
])
def test_bad_inputs_raise(quartic, call, error, message):
    with pytest.raises(error) as info:
        call(quartic)
    assert type(info.value) is error
    assert str(info.value) == message


def test_zero_duration_gives_the_start_states(quartic):
    run = _run(quartic)
    assert np.array_equal(sample_endpoints(run, 0.0, 3), np.full((3, 1), -1.0))
    assert sample_endpoints(run, 0.0, 0).shape == (0, 1)
    times, states = integrate_path(run, 0.0, record=True)
    assert np.array_equal(times, [0.0]) and np.array_equal(states, [[-1.0]])
