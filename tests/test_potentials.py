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
    CriticalPoint,
    Potential,
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
    assert [f.name for f in fields] == ["value", "gradient_batch", "hessian", "dim"]
    assert all(f.default is not None for f in fields)


def test_batch_gradient_agrees_with_rowwise(rng):
    # one formula: a batch row is the single-point call, to the last bit
    for p, dim in ((quartic_double_well(), 1), (quadratic_well(dim=2), 2),
                   (double_well_2d(), 2), (galerkin_potential_1d(2.0, 2), 5),
                   (galerkin_potential_1d(2.0, 16), 33)):
        assert p.dim == dim
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
            dim=1,
        )
        with pytest.raises(DegenerateHessian):
            find_critical_point(flat, [0.5], degenerate_tol=1e-4)

    def test_many_dimensional_well_converges(self):
        # V = |x|^2 / 4 in 40 dimensions: every eigenvalue is 0.5, a
        # nondegenerate minimum, though det Hess = 0.5^40 = 9.1e-13
        well = Potential(
            value=lambda x: 0.25 * np.sum(np.square(x), axis=-1),
            gradient_batch=lambda x: 0.5 * np.asarray(x, dtype=float),
            hessian=lambda x: 0.5 * np.eye(40),
            dim=40,
        )
        cp = find_critical_point(well, np.full(40, 0.3))
        assert cp.kind == "minimum"
        assert np.max(np.abs(cp.location)) < 1e-12
        assert np.array_equal(cp.hessian_eigenvalues, np.full(40, 0.5))

    def test_singular_newton_step_raises(self):
        # V(x, y) = x + y^2/2 has no critical point and the singular Hessian
        # diag(0, 1) everywhere: the solve's LinAlgError is a DegenerateHessian
        ramp = Potential(
            value=lambda p: np.asarray(p)[..., 0] + np.asarray(p)[..., 1] ** 2 / 2,
            gradient_batch=lambda p: np.stack(
                [np.ones_like(np.asarray(p)[..., 0]), np.asarray(p)[..., 1]], axis=-1),
            hessian=lambda p: np.diag([0.0, 1.0]),
            dim=2,
        )
        with pytest.raises(DegenerateHessian, match="singular Hessian"):
            find_critical_point(ramp, [0.0, 1.0])

    def test_no_convergence_raises(self):
        # gradient never vanishes, Newton has no target
        tilted = Potential(
            value=lambda x: np.asarray(x)[..., 0],
            gradient_batch=lambda x: np.ones_like(x, dtype=float),
            hessian=lambda x: np.array([[1.0]]),
            dim=1,
        )
        with pytest.raises(NoConvergence):
            find_critical_point(tilted, [0.0], max_iter=20)


    def test_non_finite_hessian_raises(self):
        # V = |x|^2/2 with a Hessian formula that has a 0/0 at the origin:
        # eigvalsh read [[nan, 0], [0.5, 1]] as a saddle with lambda_- = -0.7071
        bowl = Potential(
            value=lambda x: 0.5 * np.sum(np.square(x), axis=-1),
            gradient_batch=lambda x: np.array(x, dtype=float),
            hessian=lambda x: (np.eye(2) if np.any(x)
                               else np.array([[np.nan, 0.0], [0.5, 1.0]])),
            dim=2,
        )
        with pytest.raises(DegenerateHessian, match="non-finite Hessian"):
            find_critical_point(bowl, [0.3, 0.2])

    def test_rejects_near_zero(self):
        # V = 1e-12 x^2/2 + y^2/2: Newton lands on the origin, whose 1e-12
        # eigenvalue the record's floor would take but Newton's 1e-8 refuses
        shallow = Potential(
            value=lambda p: 0.5 * np.sum(np.square(p) * [1e-12, 1.0], axis=-1),
            gradient_batch=lambda p: np.asarray(p, dtype=float) * [1e-12, 1.0],
            hessian=lambda p: np.diag([1e-12, 1.0]),
            dim=2,
        )
        with pytest.raises(DegenerateHessian, match="threshold 1e-08"):
            find_critical_point(shallow, [0.3, 0.2])


class TestCriticalPoint:
    def test_two_fields(self):
        assert [f.name for f in dataclasses.fields(CriticalPoint)] == [
            "location", "hessian_eigenvalues"]

    @pytest.mark.parametrize("eigs, kind, lam", [
        ([3.0, -1.0], "saddle", -1.0),
        ([-0.5, 2.0, 1.0], "saddle", -0.5),
        ([2.0, 1.0], "minimum", None),
        ([1e-12], "minimum", None),
        ([-1e-12], "saddle", -1e-12),
    ])
    def test_kind_and_lambda_minus_read_off_sorted_eigenvalues(self, eigs, kind, lam):
        cp = CriticalPoint(location=np.zeros(len(eigs)), hessian_eigenvalues=eigs)
        assert np.array_equal(cp.hessian_eigenvalues, np.sort(eigs))
        assert cp.kind == kind
        assert cp.lambda_minus == lam

    def test_stores_read_only_copies(self):
        loc, eigs = np.array([1, 2]), np.array([2.0, -1.0])
        cp = CriticalPoint(location=loc, hessian_eigenvalues=eigs)
        loc[0], eigs[0] = 7, 7.0
        assert cp.location.dtype == float
        assert np.array_equal(cp.location, [1.0, 2.0])
        assert np.array_equal(cp.hessian_eigenvalues, [-1.0, 2.0])
        for array in (cp.location, cp.hessian_eigenvalues):
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("eigs, message", [
        ([np.nan, 1.0], "non-finite Hessian eigenvalue"),
        ([-np.inf, 1.0], "non-finite Hessian eigenvalue"),
        ([np.inf, -1.0, -2.0], "non-finite Hessian eigenvalue"),
        ([1e-13, 1.0], "Hessian eigenvalue below degeneracy threshold 1e-12"),
        ([-1.0, -0.0], "Hessian eigenvalue below degeneracy threshold 1e-12"),
        ([-2.0, -1.0, 3.0],
         "2 negative Hessian eigenvalues: not a minimum or rank-one saddle"),
    ])
    def test_refuses_what_no_rate_law_can_use(self, eigs, message):
        with pytest.raises(DegenerateHessian) as info:
            CriticalPoint(location=np.zeros(len(eigs)), hessian_eigenvalues=eigs)
        assert str(info.value) == message
