import json

import numpy as np
import pytest

from metastab import (
    DiscretePath,
    FieldPath,
    SdeRun,
    SpdeRun,
    constant_field,
    field_from_function,
    rate_functional_ac_1d,
    rate_functional_sde,
)
from metastab.errors import DegeneratePath, DomainError, ShapeMismatch
from metastab.fields import SpectralField
from metastab.rate_functional import (
    load_field_path_jsonl,
    load_path_csv,
    path_from_states,
    save_field_path_jsonl,
    save_path_csv,
)
from metastab.sde import integrate_path
from metastab.spde import integrate_deterministic


def downhill_path(quartic, x0=0.01, t_final=18.0, dt=1e-3):
    run = SdeRun(quartic, epsilon=0.0, dt=dt, x0=[x0], seed=0)
    times, states = integrate_path(run, t_final, record=True)
    return path_from_states(times, states)


class TestSdeCost:
    def test_constant_path_at_critical_point_is_zero(self, quartic):
        path = DiscretePath(times=np.linspace(0, 1, 11),
                            points=np.full((11, 1), -1.0))
        assert rate_functional_sde(path, quartic) == 0.0

    def test_gradient_flow_cost_vanishes(self, quartic):
        path = downhill_path(quartic, x0=0.5, t_final=10.0)
        assert rate_functional_sde(path, quartic) < 1e-5

    def test_cost_nonnegative(self, quartic, rng):
        times = np.linspace(0, 1, 50)
        points = rng.standard_normal((50, 1)) * 0.3
        assert rate_functional_sde(DiscretePath(times, points), quartic) >= 0

    def test_reversed_downhill_costs_twice_the_drop(self, quartic):
        # running the relaxation backwards costs twice the potential drop
        path = downhill_path(quartic)
        uphill = path.reversed()
        cost = rate_functional_sde(uphill, quartic)
        v0 = quartic.value(path.points[0])
        v1 = quartic.value(path.points[-1])
        assert cost == pytest.approx(2 * (v0 - v1), rel=0.02)
        assert cost == pytest.approx(0.5, rel=0.02)

    def test_reversal_identity_random_paths(self, quartic, rng):
        # cost(reversed) - cost(forward) = 2 [V(start) - V(end)]
        for _ in range(20):
            n = rng.integers(8, 40)
            times = np.cumsum(rng.uniform(1e-3, 2e-3, size=n))
            pts = np.cumsum(rng.standard_normal((n, 1)) * 0.02, axis=0) - 0.5
            path = DiscretePath(times - times[0], pts)
            fwd = rate_functional_sde(path, quartic)
            rev = rate_functional_sde(path.reversed(), quartic)
            jump = 2 * (quartic.value(pts[0]) - quartic.value(pts[-1]))
            assert rev - fwd == pytest.approx(jump, rel=0.01, abs=1e-4)

    def test_quadrature_refinement_second_order(self, quartic):
        # storing the same smooth curve at half the spacing changes the
        # value by O(dt^2)
        def curve(n):
            t = np.linspace(0, 2, n)
            return DiscretePath(t, np.sin(t)[:, None] - 0.5)

        vals = [rate_functional_sde(curve(n), quartic) for n in (101, 201, 401)]
        limit_est = vals[2] + (vals[2] - vals[1]) / 3
        errs = [abs(v - limit_est) for v in vals[:2]]
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.6)

    def test_degenerate_path_rejected(self):
        with pytest.raises(DegeneratePath):
            DiscretePath(times=np.array([0.0]), points=np.array([[1.0]]))
        with pytest.raises(DegeneratePath):
            DiscretePath(times=np.array([0.0, 0.0]), points=np.zeros((2, 1)))


class TestFieldCost:
    L, N = 2.0, 8

    def _field_path(self, coeff_list, dt):
        return FieldPath(times=np.arange(len(coeff_list)) * dt, d=1,
                         L=self.L, N=self.N, coeffs=np.array(coeff_list))

    def test_constant_critical_field_zero(self):
        c = constant_field(1, self.L, self.N, 0.0).coeffs
        path = self._field_path([c, c, c], 0.1)
        assert rate_functional_ac_1d(path) == 0.0

    def test_deterministic_trajectory_near_zero(self):
        f0 = field_from_function(1, self.L, self.N,
                                 lambda x: 0.3 * np.cos(2 * np.pi * x / self.L) + 0.1)
        run = SpdeRun(field0=f0, epsilon=0.0, dt=2.5e-4, t_max=1.0, seed=0)
        times, snaps = integrate_deterministic(run, 8.0)
        path = FieldPath(times=times, d=1, L=self.L, N=self.N, coeffs=snaps)
        assert rate_functional_ac_1d(path) < 1e-4

    def test_reversed_field_relaxation_costs_twice_the_drop(self):
        from metastab import allen_cahn_energy

        # relax from near the transition state toward the -1 well, reverse
        f0 = field_from_function(
            1, self.L, self.N,
            lambda x: -0.02 + 0.005 * np.cos(2 * np.pi * x / self.L))
        run = SpdeRun(field0=f0, epsilon=0.0, dt=1e-3, t_max=1.0, seed=0)
        times, snaps = integrate_deterministic(run, 25.0)
        path = FieldPath(times=times, d=1, L=self.L, N=self.N, coeffs=snaps)
        rev = FieldPath(times=times, d=1, L=self.L, N=self.N,
                        coeffs=snaps[::-1])
        cost = rate_functional_ac_1d(rev)
        drop = allen_cahn_energy(path.field(0)) - allen_cahn_energy(path.field(-1))
        assert cost == pytest.approx(2 * drop, rel=0.02)
        # the drop itself approaches the L/4 barrier from the start point
        assert drop == pytest.approx(self.L / 4, rel=0.01)

    def test_matches_a_per_cell_loop(self, rng):
        from metastab import fields, random_field

        # reference: one grid_values pair per time cell; the batched sum
        # adds the cells in another order, so agreement is to rounding
        n = 40
        times = np.cumsum(rng.uniform(1e-3, 5e-3, size=n))
        coeffs = np.array([random_field(1, self.L, self.N, rng).coeffs
                           for _ in range(n)])
        path = FieldPath(times=times, d=1, L=self.L, N=self.N, coeffs=coeffs)
        M = 6 * self.N + 7
        ksq = fields.squared_wavenumber_grid(1, self.L, self.N)
        total = 0.0
        for i in range(n - 1):
            dt = times[i + 1] - times[i]
            mid = 0.5 * (coeffs[i] + coeffs[i + 1])
            lin = (coeffs[i + 1] - coeffs[i]) / dt + (ksq - 1.0) * mid
            u = fields.grid_values(SpectralField(1, self.L, self.N, mid), M)
            lin_grid = fields.grid_values(SpectralField(1, self.L, self.N, lin), M)
            total += float(np.sum((lin_grid + u**3) ** 2)) * (self.L / M) * dt
        assert rate_functional_ac_1d(path) == pytest.approx(
            0.5 * total, rel=1e-12)

    def test_asymmetric_snapshot_rejected(self):
        c = constant_field(1, self.L, self.N, 0.0).coeffs
        bad = c.copy()
        bad[1] = 0.1  # c[-1] stays 0, so c[-1] != conj(c[1])
        with pytest.raises(ShapeMismatch):
            self._field_path([c, c, bad, c], 0.1)


class TestPathIO:
    def test_csv_round_trip(self, tmp_path, quartic):
        path = downhill_path(quartic, t_final=0.5)
        f = tmp_path / "path.csv"
        save_path_csv(path, str(f))
        loaded = load_path_csv(str(f))
        assert np.allclose(loaded.times, path.times)
        assert np.allclose(loaded.points, path.points)
        assert f.read_text().splitlines()[0] == "t,x0"

    def test_jsonl_round_trip(self, tmp_path, rng):
        from metastab import random_field

        L, N = 2.0, 4
        snaps = np.array([random_field(1, L, N, rng).coeffs for _ in range(5)])
        path = FieldPath(times=np.arange(5) * 0.1, d=1, L=L, N=N, coeffs=snaps)
        f = tmp_path / "fields.jsonl"
        save_field_path_jsonl(path, str(f))
        loaded = load_field_path_jsonl(str(f))
        assert loaded.d == 1 and loaded.L == L and loaded.N == N
        assert np.allclose(loaded.coeffs, snaps)
        assert np.allclose(loaded.times, path.times)


def _row(time, **change):
    """A d=1, N=1 row of a field-path file, with keys changed (None drops one)."""
    row = {"t": time, "d": 1, "L": 2.0, "N": 1, "re": [0.0] * 3, "im": [0.0] * 3}
    row.update(change)
    return {k: v for k, v in row.items() if v is not None}


@pytest.mark.parametrize("rows, error, message", [
    # every row is read under one rule; these once died in a KeyError, a
    # TypeError or numpy's reshape message
    ([_row(0.0, L=None), _row(0.1, L=None)], ValueError, "row 1 has no 'L'"),
    ([_row(0.0), _row(0.1, t=None)], ValueError, "row 2 has no 't'"),
    ([[1, 2], _row(0.1)], ValueError, "row 1 is not a JSON object"),
    ([_row(0.0), 3.5], ValueError, "row 2 is not a JSON object"),
    ([_row(0.0), _row(0.1, re=[0.0, 0.0])], ShapeMismatch,
     "row 2 has 2 re values, not (2N+1)^d = 3"),
    ([_row(0.0, im=[0.0] * 4), _row(0.1)], ShapeMismatch,
     "row 1 has 4 im values, not (2N+1)^d = 3"),
    ([_row(0.0, d=2), _row(0.1, d=2)], ShapeMismatch,
     "row 1 has 3 re values, not (2N+1)^d = 9"),
    # d and N are integers and t and L real numbers, none a bool: N 1.5 died
    # in the reshape or read as a size mismatch, and L "2" died in the band
    # rule's comparison
    ([_row(0.0, N=1.5, re=[0.0] * 4, im=[0.0] * 4), _row(0.1, N=1.5)], ValueError,
     "row 1's 'N' is 1.5, not an integer"),
    ([_row(0.0), _row(0.1, L="2")], ValueError,
     "row 2's 'L' is '2', not a real number"),
    ([_row(0.0, d=True), _row(0.1)], ValueError, "row 1's 'd' is True, not an integer"),
    ([_row(0.0), _row(False)], ValueError, "row 2's 't' is False, not a real number"),
])
def test_field_path_rows_are_checked(tmp_path, rows, error, message):
    f = tmp_path / "path.jsonl"
    f.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(error) as info:
        load_field_path_jsonl(str(f))
    assert type(info.value) is error
    assert str(info.value) == message


def _field_path(times, n_coeffs, d=1, L=2.0, band=(5,)):
    return FieldPath(times=np.asarray(times, float), d=d, L=L, N=2,
                     coeffs=np.zeros((n_coeffs,) + band * d, dtype=complex))


@pytest.mark.parametrize("call, error, message", [
    (lambda: DiscretePath(times=np.array([0.0]), points=np.array([[1.0]])),
     DegeneratePath, "a path needs at least 2 nodes"),
    (lambda: DiscretePath(times=np.array([0.0, 1.0, 1.0]), points=np.zeros((3, 1))),
     DegeneratePath, "times must be strictly increasing"),
    (lambda: DiscretePath(times=np.array([0.0, 1.0]), points=np.zeros((3, 1))),
     ShapeMismatch, "times and points disagree in length"),
    # a NaN time is not strictly increasing: it passed a test for decrease
    (lambda: DiscretePath(times=np.array([0.0, np.nan, 1.0]), points=np.zeros((3, 1))),
     DegeneratePath, "times must be strictly increasing"),
    (lambda: _field_path([0.0], 1), DegeneratePath, "a path needs at least 2 nodes"),
    (lambda: _field_path([0.0, 0.5, 0.4], 3), DegeneratePath,
     "times must be strictly increasing"),
    (lambda: _field_path([0.0, 0.5], 3), ShapeMismatch,
     "times and snapshots disagree in length"),
    (lambda: _field_path([0.0, np.nan, 1.0], 3), DegeneratePath,
     "times must be strictly increasing"),
    (lambda: rate_functional_ac_1d(_field_path([0.0, 0.5], 2, d=2)), ShapeMismatch,
     "this functional is defined for d=1 field paths"),
    # the band rule, run when the path is built
    (lambda: _field_path([0.0, 0.5], 2, L=-2.0), DomainError,
     "torus side length must be positive"),
    (lambda: _field_path([0.0, 0.5], 2, L=0.0), DomainError,
     "torus side length must be positive"),
    (lambda: _field_path([0.0, 0.5], 2, L=np.nan), DomainError,
     "torus side length must be positive"),
    (lambda: _field_path([0.0, 0.5], 2, d=3), DomainError,
     "only d=1 and d=2 are supported"),
    (lambda: _field_path([0.0, 0.5], 2, band=(7,)), ShapeMismatch,
     "coefficient array has shape (2, 7), expected (2, 5)"),
    (lambda: _field_path([0.0, 0.5], 2, d=2, band=(7,)), ShapeMismatch,
     "coefficient array has shape (2, 7, 7), expected (2, 5, 5)"),
    (lambda: _field_path([0.0, 0.5], 2, band=(5, 5)), ShapeMismatch,
     "coefficient array has shape (2, 5, 5), expected (2, 5)"),
])
def test_path_checks(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
