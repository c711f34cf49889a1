import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metastab import (
    double_well_2d,
    find_critical_point,
    galerkin_potential_1d,
    quadratic_well,
    quartic_double_well,
)
from metastab.errors import DegenerateHessian, NoConvergence
from metastab.potentials import (
    Potential,
    classify_hessian,
    numerical_gradient,
    numerical_hessian,
)


def test_quartic_values(quartic):
    assert quartic.value(np.array([0.0])) == 0.0
    assert quartic.value(np.array([-1.0])) == pytest.approx(-0.25)
    assert quartic.gradient_batch(np.array([-1.0]))[0] == pytest.approx(0.0)
    assert quartic.hessian(np.array([-1.0]))[0, 0] == pytest.approx(2.0)


def test_quartic_barrier_height(quartic):
    barrier = quartic.value(np.array([0.0])) - quartic.value(np.array([-1.0]))
    assert barrier == pytest.approx(0.25)


@given(st.floats(-2.0, 2.0))
@settings(max_examples=100, deadline=None)
def test_quartic_gradient_matches_finite_differences(x):
    p = quartic_double_well()
    pt = np.array([x])
    fd = numerical_gradient(p, pt)
    exact = p.gradient_batch(pt)
    assert np.allclose(fd, exact, rtol=1e-5, atol=1e-7)


@given(st.floats(-2.0, 2.0))
@settings(max_examples=100, deadline=None)
def test_quartic_hessian_matches_finite_differences(x):
    p = quartic_double_well()
    pt = np.array([x])
    fd = numerical_hessian(p, pt)
    assert np.allclose(fd, p.hessian(pt), rtol=1e-5, atol=1e-7)


@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
@settings(max_examples=50, deadline=None)
def test_2d_well_derivatives_match_finite_differences(x, y):
    p = double_well_2d()
    pt = np.array([x, y])
    assert np.allclose(numerical_gradient(p, pt), p.gradient_batch(pt),
                       rtol=1e-5, atol=1e-6)
    assert np.allclose(numerical_hessian(p, pt), p.hessian(pt),
                       rtol=1e-5, atol=1e-6)


def test_potential_contract_has_no_optional_field():
    fields = dataclasses.fields(Potential)
    assert [f.name for f in fields] == ["value", "gradient_batch", "hessian"]
    assert all(f.default is not None for f in fields)


def test_batch_gradient_agrees_with_rowwise(rng):
    # one formula: a batch row is the single-point call, to the last bit
    for p, dim in ((quartic_double_well(), 1), (quadratic_well(dim=2), 2),
                   (double_well_2d(), 2), (galerkin_potential_1d(2.0, 2), 5),
                   (galerkin_potential_1d(2.0, 16), 33)):
        xs = rng.standard_normal((64, dim))
        assert np.array_equal(p.gradient_batch(xs),
                              np.array([p.gradient_batch(x) for x in xs]))
        assert np.array_equal(p.value(xs), np.array([p.value(x) for x in xs]))


class TestFindCriticalPoint:
    def test_finds_left_minimum(self, quartic):
        cp = find_critical_point(quartic, [-0.9])
        assert cp.kind == "minimum"
        assert cp.location[0] == pytest.approx(-1.0, abs=1e-9)
        assert cp.lambda_minus is None
        assert np.linalg.norm(quartic.gradient_batch(cp.location)) < 1e-10

    def test_finds_saddle(self, quartic):
        cp = find_critical_point(quartic, [0.1])
        assert cp.kind == "saddle"
        assert cp.location[0] == pytest.approx(0.0, abs=1e-9)
        assert cp.lambda_minus == pytest.approx(-1.0)

    def test_quadratic_minimum_from_far_guess(self):
        cp = find_critical_point(quadratic_well(), [2.0])
        assert cp.kind == "minimum"
        assert cp.location[0] == pytest.approx(0.0, abs=1e-12)

    def test_2d_saddle_classification(self):
        cp = find_critical_point(double_well_2d(), [0.05, 0.05])
        assert cp.kind == "saddle"
        assert cp.lambda_minus == pytest.approx(-1.0)
        assert np.allclose(np.sort(cp.hessian_eigenvalues), [-1.0, 1.0])

    def test_eigenvalues_sorted(self, quartic):
        cp = find_critical_point(double_well_2d(), [-0.9, 0.1])
        assert np.all(np.diff(cp.hessian_eigenvalues) >= 0)

    def test_degenerate_hessian_raises(self):
        # pure quartic: Hessian vanishes at the critical point
        flat = Potential(
            value=lambda x: np.asarray(x)[..., 0] ** 4,
            gradient_batch=lambda x: 4 * np.asarray(x) ** 3,
            hessian=lambda x: np.array([[12 * x[0] ** 2]]),
        )
        with pytest.raises(DegenerateHessian):
            find_critical_point(flat, [0.5], degenerate_tol=1e-4)

    def test_no_convergence_raises(self):
        # gradient never vanishes, Newton has no target
        tilted = Potential(
            value=lambda x: np.asarray(x)[..., 0],
            gradient_batch=lambda x: np.ones_like(x, dtype=float),
            hessian=lambda x: np.array([[1.0]]),
        )
        with pytest.raises(NoConvergence):
            find_critical_point(tilted, [0.0], max_iter=20)


def test_classify_rejects_double_negative():
    with pytest.raises(DegenerateHessian):
        classify_hessian(np.array([-2.0, -1.0, 3.0]))


def test_classify_rejects_near_zero():
    with pytest.raises(DegenerateHessian):
        classify_hessian(np.array([1e-12, 1.0]))
