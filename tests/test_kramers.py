import numpy as np
import pytest

from metastab import (
    CriticalPoint,
    Potential,
    RatePrediction,
    compensation_residual,
    ek_allen_cahn_1d,
    ek_allen_cahn_2d,
    ek_finite,
    find_critical_point,
    galerkin_critical_points_1d,
    galerkin_potential_1d,
)
from metastab.errors import DegenerateHessian, DomainError, ShapeMismatch, WrongKind


def _flat_potential(dim):
    return Potential(value=lambda x: np.zeros(np.shape(x)[:-1]),
                     gradient_batch=lambda x: np.zeros(np.shape(x)),
                     hessian=lambda x: np.eye(dim))


def _cp(location, kind, eigs):
    eigs = np.sort(np.asarray(eigs, dtype=float))
    lam = float(eigs[0]) if kind == "saddle" else None
    return CriticalPoint(location=np.asarray(location, float), kind=kind,
                         hessian_eigenvalues=eigs, lambda_minus=lam)


class TestEkFinite:
    def test_quartic_double_well(self, quartic):
        mn = find_critical_point(quartic, [-0.9])
        sd = find_critical_point(quartic, [0.1])
        pred = ek_finite(mn, sd, quartic)
        assert pred.prefactor == pytest.approx(np.pi * np.sqrt(2), rel=1e-9)
        assert pred.barrier == pytest.approx(0.25, abs=1e-12)
        assert pred.lambda_minus == pytest.approx(-1.0)

    def test_symmetric_determinants_give_2pi(self):
        mn = _cp([0.0, 0.0], "minimum", [1.0, 1.0])
        sd = _cp([1.0, 0.0], "saddle", [-1.0, 1.0])
        pred = ek_finite(mn, sd, _flat_potential(2))
        assert pred.prefactor == pytest.approx(2 * np.pi)
        assert pred.determinant_factor == pytest.approx(1.0)

    def test_2d_quadratic_toy(self):
        mn = _cp([0.0, 0.0], "minimum", [1.0, 1.0])
        sd = _cp([1.0, 0.0], "saddle", [1.0, -1.0])
        pred = ek_finite(mn, sd, _flat_potential(2))
        assert pred.prefactor == pytest.approx(2 * np.pi)

    def test_prefactor_identity(self, quartic):
        mn = find_critical_point(quartic, [-0.9])
        sd = find_critical_point(quartic, [0.1])
        pred = ek_finite(mn, sd, quartic)
        assert pred.prefactor == pytest.approx(
            2 * np.pi / abs(pred.lambda_minus) * pred.determinant_factor)

    def test_predict_decreasing_in_eps(self, quartic):
        mn = find_critical_point(quartic, [-0.9])
        sd = find_critical_point(quartic, [0.1])
        pred = ek_finite(mn, sd, quartic)
        eps = np.linspace(0.05, 1.0, 9)
        vals = [pred.predict(e) for e in eps]
        assert np.all(np.diff(vals) < 0)

    def test_log_predict_matches_predict(self, quartic):
        mn = find_critical_point(quartic, [-0.9])
        sd = find_critical_point(quartic, [0.1])
        pred = ek_finite(mn, sd, quartic)
        assert pred.log_predict(0.2) == pytest.approx(np.log(pred.predict(0.2)))

    def test_wrong_kind_rejected(self):
        mn = _cp([0.0], "minimum", [2.0])
        sd = _cp([1.0], "saddle", [-1.0])
        with pytest.raises(WrongKind):
            ek_finite(sd, sd, _flat_potential(1))
        with pytest.raises(WrongKind):
            ek_finite(mn, mn, _flat_potential(1))

    def test_degenerate_rejected(self):
        mn = _cp([0.0], "minimum", [1e-15])
        sd = _cp([1.0], "saddle", [-1.0])
        with pytest.raises(DegenerateHessian):
            ek_finite(mn, sd, _flat_potential(1))

    def test_huge_dimension_no_overflow(self):
        # determinant ratio must be assembled in log space
        n = 4000
        mn = _cp(np.zeros(n), "minimum", np.full(n, 50.0))
        eigs = np.full(n, 50.0)
        eigs[0] = -1.0
        sd = _cp(np.ones(n), "saddle", eigs)
        pred = ek_finite(mn, sd, _flat_potential(n))
        assert np.isfinite(pred.prefactor)
        assert pred.prefactor == pytest.approx(2 * np.pi / np.sqrt(50.0))


class TestAllenCahn1D:
    def test_barrier_quarter_L(self):
        for L in (1.0, 2.0, 3.0):
            assert ek_allen_cahn_1d(L).barrier == pytest.approx(L / 4)

    def test_prefactor_at_pi(self):
        pred = ek_allen_cahn_1d(np.pi)
        assert pred.prefactor == pytest.approx(2 * np.pi / np.sinh(np.pi / np.sqrt(2)))

    def test_truncated_route_agrees_with_closed_form(self):
        L = 2.0
        closed = ek_allen_cahn_1d(L)
        trunc = ek_allen_cahn_1d(L, N_for_det=4096)
        assert trunc.prefactor == pytest.approx(closed.prefactor, rel=1e-3)

    def test_lambda_minus_is_minus_one(self):
        assert ek_allen_cahn_1d(2.0).lambda_minus == -1.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ek_allen_cahn_1d(2 * np.pi)


class TestAllenCahn2D:
    def test_barrier_quarter_L_squared(self):
        for L in (1.0, 2.0):
            assert ek_allen_cahn_2d(L, 16).barrier == pytest.approx(L**2 / 4)

    def test_prefactor_stable_in_cutoff(self):
        a = ek_allen_cahn_2d(2.0, 64).prefactor
        b = ek_allen_cahn_2d(2.0, 128).prefactor
        assert abs(a - b) / b < 0.005

    def test_lambda_minus_independent_of_L(self):
        for L in (0.8, 2.0, 4.0):
            assert ek_allen_cahn_2d(L, 16).lambda_minus == -1.0

    def test_tail_reported(self):
        assert ek_allen_cahn_2d(2.0, 32).det_tail > 0


class TestCompensationIdentity:
    def test_exact_cancellation_over_grid(self):
        # renormalized barrier + plain product vs bare barrier + regularized
        # determinant: algebraically identical mean-time predictions
        for N in (4, 8, 16, 32, 64, 128):
            for eps in (0.05, 0.1, 0.2):
                assert compensation_residual(2.0, N, eps) < 1e-10

    def test_other_torus_sizes(self):
        for L in (1.0, 3.0):
            assert compensation_residual(L, 32, 0.1) < 1e-10


class TestGalerkinConsistency:
    def test_truncated_rates_converge_to_field_limit(self):
        L = 2.0
        closed = ek_allen_cahn_1d(L)
        gaps = {}
        for N in (16, 64, 256):
            pot = galerkin_potential_1d(L, N)
            mn, sd = galerkin_critical_points_1d(L, N)
            pred = ek_finite(mn, sd, pot)
            assert pred.barrier == pytest.approx(L / 4, rel=1e-12)
            gaps[N] = abs(pred.prefactor - closed.prefactor) / closed.prefactor
        assert gaps[64] < gaps[16]
        assert gaps[256] < gaps[64]
        # gap shrinks like 1/N
        assert gaps[256] == pytest.approx(gaps[16] / 16, rel=0.5)

    def test_matches_explicit_determinant_route(self):
        # the finite-dimensional Hessian arithmetic reproduces the truncated
        # determinant route exactly (same product, different bookkeeping)
        L, N = 2.0, 32
        pot = galerkin_potential_1d(L, N)
        mn, sd = galerkin_critical_points_1d(L, N)
        via_hessians = ek_finite(mn, sd, pot)
        via_det = ek_allen_cahn_1d(L, N_for_det=N)
        assert via_hessians.prefactor == pytest.approx(via_det.prefactor, rel=1e-12)


_QUARTIC_LAW = RatePrediction(barrier=0.25, prefactor=np.pi * np.sqrt(2),
                              lambda_minus=-1.0, determinant_factor=1.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: _QUARTIC_LAW.predict(0.0), ValueError, "eps must be positive"),
    (lambda: _QUARTIC_LAW.predict(-0.1), ValueError, "eps must be positive"),
    (lambda: _QUARTIC_LAW.log_predict(0.0), ValueError, "eps must be positive"),
    (lambda: _QUARTIC_LAW.log_predict(-0.1), ValueError, "eps must be positive"),
    (lambda: ek_finite(_cp([0.0], "minimum", [1.0]),
                       _cp([1.0, 0.0], "saddle", [-1.0, 1.0]), _flat_potential(2)),
     ShapeMismatch, "critical points live in different dimensions"),
    (lambda: ek_finite(_cp([0.0, 0.0], "minimum", [-1.0, 1.0]),
                       _cp([1.0, 0.0], "saddle", [-1.0, 1.0]), _flat_potential(2)),
     WrongKind, "minimum has nonpositive Hessian eigenvalues"),
])
def test_bad_inputs_raise(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
