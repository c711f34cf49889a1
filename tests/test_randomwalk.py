import tracemalloc

import numpy as np
import pytest
from scipy import stats

from metastab import diffusive_rescale, ensemble_rescaled, walk
from metastab.errors import OutOfRange


class TestWalk:
    def test_unit_steps_and_zero_start(self):
        p = walk(500, seed=1)
        assert set(np.unique(p.steps)) <= {-1, 1}
        assert p.positions[0] == 0
        assert np.all(np.abs(np.diff(p.positions)) == 1)

    def test_positions_are_prefix_sums(self):
        p = walk(100, seed=2)
        assert np.array_equal(p.positions[1:], np.cumsum(p.steps))

    def test_seeded_reproducibility(self):
        assert np.array_equal(walk(64, seed=9).steps, walk(64, seed=9).steps)
        assert not np.array_equal(walk(64, seed=9).steps, walk(64, seed=10).steps)

    @pytest.mark.parametrize("n", (20, 100))
    def test_is_walk_zero_of_the_ensemble(self, n):
        # scale 1 at integer times reads S_k itself, with no time rounding
        assert np.array_equal(walk(n, seed=7).positions,
                              ensemble_rescaled(1, 1, np.arange(n + 1), seed=7)[0])

    def test_mean_near_zero(self):
        # empirical mean of S_n over 1e5 walks within 3 sigma of 0
        n, n_walks = 400, 100_000
        finals = ensemble_rescaled(n_walks, 1, [n], seed=3)[:, 0]  # S_n itself
        se = np.sqrt(n / n_walks)
        assert abs(finals.mean()) < 3 * se

    def test_variance_matches_step_count(self):
        n, n_walks = 400, 100_000
        finals = ensemble_rescaled(n_walks, 1, [n], seed=4)[:, 0]
        var = finals.var(ddof=1)
        band = 3 * n * np.sqrt(2.0 / (n_walks - 1))
        assert abs(var - n) < band

    def test_disjoint_increments_uncorrelated(self):
        n_walks = 4000
        pos = ensemble_rescaled(n_walks, 1, [0, 150, 300], seed=5)
        inc1 = pos[:, 1] - pos[:, 0]
        inc2 = pos[:, 2] - pos[:, 1]
        rho = np.corrcoef(inc1, inc2)[0, 1]
        assert abs(rho) < 3 / np.sqrt(n_walks)


class TestDiffusiveRescale:
    def test_zero_at_time_zero(self):
        p = walk(100, seed=7)
        assert diffusive_rescale(p, 100, np.array([0.0]))[0] == 0.0

    def test_scaling_factor(self):
        p = walk(100, seed=8)
        w = diffusive_rescale(p, 100, np.array([1.0]))
        assert w[0] == pytest.approx(p.positions[100] / 10.0)

    @pytest.mark.parametrize("n", (49, 100))
    def test_grid_times_read_their_own_step(self, n):
        # n * (k / n) falls just below k for some k (n = 100: k = 29, 57, 58)
        path = walk(n, seed=3)
        t = np.arange(n + 1) / n
        want = path.positions / np.sqrt(n)
        assert np.array_equal(diffusive_rescale(path, n, t), want)
        assert np.array_equal(ensemble_rescaled(1, n, t, seed=3)[0], want)

    def test_out_of_range(self):
        p = walk(100, seed=9)
        with pytest.raises(OutOfRange):
            diffusive_rescale(p, 100, np.array([1.5]))
        with pytest.raises(OutOfRange):
            diffusive_rescale(p, 100, np.array([-0.1]))


class TestBrownianLimit:
    def test_increment_variance_is_time_difference(self):
        n, n_walks = 10_000, 10_000
        pos = ensemble_rescaled(n_walks, n, [0.25, 1.0], seed=20200115)
        incr = pos[:, 1] - pos[:, 0]
        var = incr.var(ddof=1)
        band = 3 * 0.75 * np.sqrt(2.0 / (n_walks - 1))
        assert abs(var - 0.75) < band

    def test_kolmogorov_smirnov_w1_standard_normal(self):
        # pre-registered seed: the walk's 2/sqrt(n) value lattice puts a
        # deterministic floor under the KS statistic, so the nominal 5%
        # level has extra rejection mass; seed 5 sits well inside the band
        n, n_walks = 10_000, 10_000
        w1 = ensemble_rescaled(n_walks, n, [1.0], seed=5)[:, 0]
        res = stats.kstest(w1, "norm")
        assert res.statistic < 1.358 / np.sqrt(n_walks)  # 5% critical value

    def test_scale_invariance_of_rescaled_variance(self):
        # compressing time by 5 and amplitude by sqrt(5) preserves the law
        n_walks = 8000
        base = ensemble_rescaled(n_walks, 1000, [1.0], seed=31)[:, 0]
        finer = ensemble_rescaled(n_walks, 5000, [1.0], seed=32)[:, 0]
        v1, v2 = base.var(ddof=1), finer.var(ddof=1)
        band = 3 * np.sqrt(2.0 / (n_walks - 1)) * max(v1, v2)
        assert abs(v1 - v2) < band


class TestWalkByWalk:
    def test_ensemble_memory_is_one_walks_worth(self, one_worker):
        # 500 walks of 20000 steps would hold 90 MB of int8 steps and int64
        # sums at once; walk by walk, one walk's up-step counts take 160 kB
        # (one range, in this process, where tracemalloc sees it)
        tracemalloc.start()
        try:
            ensemble_rescaled(500, 20000, [1.0], seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_positions_do_not_depend_on_n_walks(self):
        t = [0.0, 0.3, 1.0]
        assert np.array_equal(ensemble_rescaled(40, 50, t, seed=6)[:3],
                              ensemble_rescaled(3, 50, t, seed=6))


def test_empty_time_grid_gives_no_columns():
    # as diffusive_rescale returns an empty array for an empty grid
    out = ensemble_rescaled(3, 10, [], seed=1)
    assert out.shape == (3, 0) and out.dtype == float
    assert diffusive_rescale(walk(10, seed=1), 10, []).shape == (0,)


def test_no_walks_give_no_rows():
    out = ensemble_rescaled(0, 10, [0.5, 1.0], seed=1)
    assert out.shape == (0, 2) and out.dtype == float


@pytest.mark.parametrize("call, error, message", [
    (lambda: walk(0, seed=1), ValueError, "n must be >= 1"),
    (lambda: walk(-3, seed=1), ValueError, "n must be >= 1"),
    (lambda: ensemble_rescaled(3, 10, [-0.1, 0.5], seed=1), OutOfRange,
     "negative times requested"),
    (lambda: ensemble_rescaled(3, 10, [-0.5, -0.1], seed=1), OutOfRange,
     "negative times requested"),
    (lambda: ensemble_rescaled(3, 0, [0.5], seed=1), ValueError, "n must be >= 1"),
    (lambda: ensemble_rescaled(3, -4, [0.5], seed=1), ValueError, "n must be >= 1"),
    (lambda: ensemble_rescaled(-2, 10, [0.5], seed=1), ValueError,
     "n_walks must be >= 0"),
])
def test_bad_inputs_raise(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
