import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metastab import (
    carleman_det_2d,
    compensation_residual,
    counterterm_trace,
    fredholm_closed_form,
    fredholm_det_1d,
    resolvent_trace,
)
from metastab.errors import DomainError
from metastab.fields import squared_wavenumber_grid


def eigenvalues(d, L, N):
    """nu_k = (2 pi |k| / L)^2 - 1 on the band the field stepper advances."""
    return squared_wavenumber_grid(d, L, N) - 1.0


class TestTorusSpectrum:
    def test_one_negative_eigenvalue_below_2pi(self):
        for L in (0.5, 2.0, 5.0):
            eigs = eigenvalues(1, L, 32)
            assert np.sum(eigs < 0) == 1
            assert eigs[0] == -1.0

    def test_symmetric_under_k_negation(self):
        N = 8
        eigs = eigenvalues(1, 2.0, N)
        # FFT order [0, 1..N, -N..-1]: entry k pairs with entry 2N+1-k
        assert np.array_equal(eigs[1:N + 1], eigs[:N:-1])

    def test_2d_mode_count(self):
        assert eigenvalues(2, 2.0, 5).size == 11**2

    def test_2d_includes_axis_modes(self):
        # modes with one zero component are genuine eigenvalues
        eigs = eigenvalues(2, 2.0, 3)
        expected = (2 * np.pi / 2.0) ** 2 * 1.0 - 1.0  # k = (1, 0)
        assert np.any(np.isclose(eigs, expected))


class TestFredholm1D:
    def test_single_mode_value(self):
        assert fredholm_det_1d(3.0, 0).value == pytest.approx(-2.0)

    def test_converges_to_closed_form_at_pi(self):
        closed = fredholm_closed_form(np.pi)
        assert closed == pytest.approx(-np.sinh(np.pi / np.sqrt(2)) ** 2)
        res = fredholm_det_1d(np.pi, 4096)
        assert res.value == pytest.approx(closed, rel=1e-3)

    @pytest.mark.parametrize("L", [1.0, 2.0, np.pi, 5.0])
    def test_truncation_within_certified_tail(self, L):
        closed = fredholm_closed_form(L)
        res = fredholm_det_1d(L, 2048)
        assert abs(np.log(abs(res.value)) - np.log(abs(closed))) <= res.tail_estimate

    @given(st.integers(0, 200), st.floats(0.3, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_sign_always_negative(self, N, L):
        if L >= 2 * np.pi:
            L = 6.0
        res = fredholm_det_1d(L, N)
        assert res.sign == -1
        assert res.value < 0
        assert res.abs_value == pytest.approx(abs(res.value))

    def test_convergence_order_one(self):
        L = 2.0
        closed = fredholm_closed_form(L)
        Ns = np.array([256, 512, 1024, 2048])
        errs = np.array([abs(fredholm_det_1d(L, N).value - closed) for N in Ns])
        order = np.polyfit(np.log(Ns), np.log(errs), 1)[0]
        assert order == pytest.approx(-1.0, abs=0.15)

    def test_tail_estimate_decreasing(self):
        tails = [fredholm_det_1d(2.0, N).tail_estimate for N in (8, 16, 32, 64)]
        assert np.all(np.diff(tails) < 0)

    def test_domain_error_outside_validity(self):
        with pytest.raises(DomainError):
            fredholm_det_1d(2 * np.pi, 16)
        with pytest.raises(DomainError):
            fredholm_closed_form(7.0)
        with pytest.raises(DomainError):
            fredholm_closed_form(-1.0)


class TestClosedForm:
    def test_small_L_limit_is_minus_two(self):
        assert fredholm_closed_form(1e-4) == pytest.approx(-2.0, rel=1e-6)

    def test_value_at_pi(self):
        assert fredholm_closed_form(np.pi) == pytest.approx(
            -np.sinh(np.pi / np.sqrt(2)) ** 2)

    @given(st.floats(0.05, 6.2))
    @settings(max_examples=50, deadline=None)
    def test_negative_on_whole_range(self, L):
        if L >= 2 * np.pi:
            L = 6.2
        assert fredholm_closed_form(L) < 0


class TestCarleman2D:
    def test_single_mode_value(self):
        assert carleman_det_2d(2.0, 0).value == pytest.approx(-2 * np.exp(3),
                                                              rel=1e-12)

    def test_cauchy_richardson_ratio(self):
        L = 2.0
        vals = {N: carleman_det_2d(L, N).value for N in (8, 16, 32, 64, 128)}
        rel = [abs(vals[2 * N] - vals[N]) / abs(vals[N]) for N in (8, 16, 32, 64)]
        ratios = [rel[i] / rel[i + 1] for i in range(3)]
        assert np.allclose(ratios, 4.0, atol=1.0)

    def test_plain_product_diverges(self):
        # without the exponential factor the 2D log-product grows without bound
        L = 2.0
        logs = []
        for N in (8, 16, 32, 64, 128):
            logs.append(np.sum(np.log(np.abs(1.0 + 3.0 / eigenvalues(2, L, N)))))
        diffs = np.diff(logs)
        assert np.all(diffs > 0.1)  # keeps growing, harmonic-series style

    def test_sign_constant_once_positive_modes_enter(self):
        signs = {carleman_det_2d(2.0, N).sign for N in (1, 2, 4, 8, 16)}
        assert signs == {-1}

    def test_fused_vs_separate_reduction(self):
        # one pass over (1 + x) e^{-x} per mode vs product and trace reduced
        # separately, compared in log magnitude
        L, N = 2.0, 64
        x = 3.0 / eigenvalues(2, L, N)
        fused = float(np.sum(np.log(np.abs(1.0 + x)) - x))
        separate = float(np.sum(np.log(np.abs(1.0 + x)))) - 3.0 * resolvent_trace(2, L, N)
        assert fused == pytest.approx(separate, rel=1e-12)
        # the determinant reads the same band, in the same order
        assert carleman_det_2d(L, N).log_abs == fused


def test_1d_regularized_identity_per_cutoff():
    # dividing the plain product by e^{3 Tr} is the same per-mode
    # regularization in d=1, exactly, for every cutoff
    L = 2.0
    for N in (0, 1, 4, 16, 64):
        x = 3.0 / eigenvalues(1, L, N)
        det2_log = float(np.sum(np.log(np.abs(1.0 + x)) - x))
        plain = fredholm_det_1d(L, N)
        assert plain.log_abs - 3.0 * resolvent_trace(1, L, N) == pytest.approx(
            det2_log, rel=1e-12, abs=1e-12)


class TestCounterterm:
    def test_single_mode(self):
        for L in (1.0, 2.0, 3.0):
            assert counterterm_trace(L, 0) == pytest.approx(-1.0 / L**2)

    def test_doubling_increment_approaches_log2_over_2pi(self):
        L = 2.0
        target = np.log(2) / (2 * np.pi)
        inc = counterterm_trace(L, 1024) - counterterm_trace(L, 512)
        assert inc == pytest.approx(target, rel=0.05)

    def test_epsilon_independence(self):
        # the trace is a pure mode sum; noise intensity never enters
        assert counterterm_trace(2.0, 16) == counterterm_trace(2.0, 16)

    def test_l_scaling(self):
        # C_N depends on L only through the eigenvalues and the 1/L^2 factor
        c1 = counterterm_trace(1.0, 32)
        c2 = counterterm_trace(2.0, 32)
        assert c1 != pytest.approx(c2)


@pytest.mark.parametrize("func, args, message", [
    (compensation_residual, (2, -1, 0.1), "cutoff N must be nonnegative"),
    (compensation_residual, (7, 4, 0.1), "L = 7 outside (0, 2*pi)"),
    (resolvent_trace, (3, 2, 4), "only d=1 and d=2 are supported"),
    (resolvent_trace, (1, -1, 4), "torus side length must be positive"),
    (carleman_det_2d, (2, -2), "cutoff N must be nonnegative"),
    (fredholm_det_1d, (2, -1), "cutoff N must be nonnegative"),
    (fredholm_closed_form, (7,), "L = 7 outside (0, 2*pi)"),
])
def test_invalid_input_raises_domain_error(func, args, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        func(*args)


def test_resolvent_trace_beyond_two_pi_is_finite():
    # no nu_k vanishes at L = 7; only the determinants need L < 2 pi
    assert np.isfinite(resolvent_trace(2, 7, 4))
