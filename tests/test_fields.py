import numpy as np
import pytest

from metastab import (
    SpectralField,
    constant_field,
    field_from_function,
    field_from_grid,
    grid_values,
    hs_distance_to_constant,
    hs_norm,
    linf_distance_to_constant,
    random_field,
)
from metastab import galerkin_critical_points_1d, galerkin_potential_1d, resolvent_trace
from metastab.errors import DomainError, ShapeMismatch
from metastab.fields import (
    BandGrid,
    dealiased_grid_size,
    distance_to_constant,
    full_band,
    grid_points,
    mode_wavenumbers,
    translated,
)


def test_mode_wavenumbers_fft_order():
    assert list(mode_wavenumbers(2)) == [0, 1, 2, -2, -1]


def test_dealiased_grid_exceeds_cubic_band():
    for N in (1, 4, 16):
        assert dealiased_grid_size(N) > 4 * N


def test_constant_field_round_trip():
    f = constant_field(1, 2.0, 8, -1.0)
    vals = grid_values(f)
    assert np.allclose(vals, -1.0, atol=1e-14)


def test_grid_projection_round_trip(rng):
    f = random_field(2, 3.0, 4, rng)
    M = dealiased_grid_size(4)
    g = field_from_grid(2, 3.0, 4, grid_values(f, M))
    assert np.allclose(g.coeffs, f.coeffs, atol=1e-12)


def test_realness_of_random_fields(rng, complex_reference):
    # conjugate symmetry must make the imaginary part vanish on the grid
    f = random_field(1, 2.0, 16, rng)
    raw = complex_reference.grid(f.coeffs, 1, 2.0, 16, dealiased_grid_size(16))
    assert np.max(np.abs(raw.imag)) < 1e-12 * max(1.0, np.max(np.abs(raw)))


@pytest.mark.parametrize("d", (1, 2))
def test_realness_check_on_the_band(d, rng):
    # c[k] - conj(c[-k]) is checked against REALNESS_TOL = 1e-12
    f = random_field(d, 2.0, 4, rng)
    k = (1,) * d
    for defect, ok in ((1e-14, True), (1e-6, False)):
        coeffs = f.coeffs.copy()
        coeffs[k] += defect
        g = SpectralField(d, 2.0, 4, coeffs)
        if ok:
            assert np.allclose(grid_values(g), grid_values(f), atol=1e-12)
        else:
            with pytest.raises(ShapeMismatch, match="conjugate symmetry"):
                grid_values(g)


def test_grid_too_coarse_for_the_band():
    # the wavenumbers +-4 of an N = 4 band collide on 8 points, where
    # cos(4 * 2 pi x / L) would read +-0.5 instead of +-1
    L = 2.0
    f = field_from_function(1, L, 4, lambda x: np.cos(8 * np.pi * x / L))
    assert np.allclose(grid_values(f, 9)[:2], [1.0, np.cos(8 * np.pi / 9)])
    for M in (5, 8):
        with pytest.raises(ShapeMismatch, match="too coarse"):
            grid_values(f, M)
        with pytest.raises(ShapeMismatch, match="too coarse"):
            linf_distance_to_constant(f, 0.0, M)


def test_conjugate_symmetry_enforced(rng):
    coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    f = SpectralField(1, 2.0, 4, coeffs)
    with pytest.raises(ShapeMismatch):
        grid_values(f)


def test_shape_mismatch_on_bad_coeff_shape():
    with pytest.raises(ShapeMismatch):
        SpectralField(1, 2.0, 4, np.zeros(7, dtype=complex))


def test_cosine_projection_exact():
    L = 2.0
    f = field_from_function(1, L, 8, lambda x: np.cos(2 * np.pi * x / L))
    # only the |k| = 1 modes, amplitude (1/2) * L^{1/2} each in the
    # orthonormal basis
    expected = np.zeros(17, dtype=complex)
    expected[1] = 0.5 * np.sqrt(L)
    expected[-1] = 0.5 * np.sqrt(L)
    assert np.allclose(f.coeffs, expected, atol=1e-13)


class TestHsNorm:
    def test_constant_field_norm(self):
        for d, L in ((1, 2.0), (2, 1.5)):
            f = constant_field(d, L, 4, -0.7)
            assert hs_norm(f, -0.5) == pytest.approx(0.7 * L ** (d / 2))

    def test_s_zero_is_l2_parseval(self, rng):
        f = random_field(1, 2.0, 8, rng)
        M = 64
        vals = grid_values(f, M)
        l2 = np.sqrt(np.sum(vals**2) * 2.0 / M)
        assert hs_norm(f, 0.0) == pytest.approx(l2, rel=1e-12)

    def test_strictly_decreasing_in_s(self, rng):
        f = random_field(1, 2.0, 8, rng)
        norms = [hs_norm(f, s) for s in (0.0, -0.25, -0.5, -1.0)]
        assert np.all(np.diff(norms) < 0)

    def test_distance_to_constant(self):
        f = constant_field(1, 2.0, 4, 0.4)
        assert hs_distance_to_constant(f, 1.0, -0.5) == pytest.approx(
            0.6 * np.sqrt(2.0))


    def test_asymmetric_band_rejected(self):
        # a half band cannot see c[-1] != conj(c[1])
        f = constant_field(1, 2.0, 4, 0.0)
        f.coeffs[1] = 0.1
        for dist in (lambda: hs_norm(f, -0.5),
                     lambda: hs_distance_to_constant(f, 1.0, -0.5)):
            with pytest.raises(ShapeMismatch, match="conjugate symmetry"):
                dist()


@pytest.mark.parametrize("d, N", ((1, 8), (2, 4)))
def test_batched_distance_is_the_public_distance_bit_for_bit(d, N, rng):
    # the hitting observer's distance, row by row, against the public
    # distances of the full bands those rows stand for
    L = 1.7
    half = np.array([random_field(d, L, N, rng).coeffs[..., :N + 1]
                     for _ in range(5)])
    grids = BandGrid(d, L, N, dealiased_grid_size(N)).grid(half)
    for c in (-1.0, 0.0, 0.3):
        linf = distance_to_constant(d, L, N, c, "linf")(half, grids)
        for i, row in enumerate(half):
            f = SpectralField(d, L, N, full_band(row, d))
            assert linf[i] == linf_distance_to_constant(f, c)
        for s in (-1.0, -0.5, 0.0):
            hs = distance_to_constant(d, L, N, c, "hs", s)(half, grids)
            for i, row in enumerate(half):
                f = SpectralField(d, L, N, full_band(row, d))
                assert hs[i] == hs_distance_to_constant(f, c, s)
                if c == 0.0:
                    assert hs[i] == hs_norm(f, s)


def test_distance_rejects_an_unknown_norm():
    with pytest.raises(ValueError, match="'linf' or 'hs'"):
        distance_to_constant(1, 2.0, 4, 1.0, "l2")


def _raised(func, *args):
    with pytest.raises(DomainError) as info:
        func(*args)
    return str(info.value)


@pytest.mark.parametrize("d, L, N, message", (
    (3, 2.0, 4, "only d=1 and d=2 are supported"),
    (1, 2.0, -1, "cutoff N must be nonnegative"),
    (1, 0.0, 4, "torus side length must be positive"),
))
def test_one_truncation_check(d, L, N, message):
    # the field and the determinants reject a truncation alike
    coeffs = np.zeros(3, dtype=complex)
    assert _raised(SpectralField, d, L, N, coeffs) == message
    assert _raised(resolvent_trace, d, L, N) == message
    if d == 1:
        assert _raised(galerkin_potential_1d, L, N) == message
        assert _raised(galerkin_critical_points_1d, L, N) == message


@pytest.mark.parametrize("make", (
    lambda: constant_field(1, 2.0, -1, 1.0),
    lambda: random_field(2, 2.0, -1, np.random.default_rng(0)),
))
def test_constructors_check_the_cutoff_before_allocating(make):
    with pytest.raises(DomainError, match="cutoff N must be nonnegative"):
        make()


def test_linf_distance_to_constant():
    L = 2.0
    f = field_from_function(1, L, 8, lambda x: 1.0 + 0.25 * np.cos(2 * np.pi * x / L))
    assert linf_distance_to_constant(f, 1.0) == pytest.approx(0.25, rel=1e-10)


def test_translation_is_isometry_on_grid(rng):
    L = 2.0
    N = 8
    f = random_field(1, L, N, rng)
    M = dealiased_grid_size(N)
    shift_cells = 3
    g = translated(f, shift_cells * L / M)
    rolled = np.roll(grid_values(f, M), -shift_cells)
    assert np.allclose(grid_values(g, M), rolled, atol=1e-12)


def test_d2_grid_points_and_field_from_function():
    L, N = 2.0, 6
    M = dealiased_grid_size(N)
    pts = grid_points(2, L, M)
    x = np.arange(M) * (L / M)
    assert pts.shape == (2, M, M)
    assert np.array_equal(pts[0], np.broadcast_to(x[:, None], (M, M)))
    assert np.array_equal(pts[1], np.broadcast_to(x[None, :], (M, M)))

    def f(x, y):  # band-limited, with distinct modes along each axis
        return (0.5 + 0.3 * np.cos(2 * np.pi * x / L)
                + 0.2 * np.sin(4 * np.pi * y / L) * np.cos(2 * np.pi * x / L))

    field = field_from_function(2, L, N, f)
    assert np.allclose(grid_values(field, M), f(pts[0], pts[1]), atol=1e-12)
    assert field.coeffs[0, 0] == pytest.approx(0.5 * L)  # c L^{d/2}


@pytest.mark.parametrize("axis", (0, 1))
def test_d2_translation_rolls_the_grid_along_its_axis(axis, rng):
    L, N = 2.0, 6
    M = dealiased_grid_size(N)
    f = random_field(2, L, N, rng)
    g = translated(f, 3 * L / M, axis=axis)
    rolled = np.roll(grid_values(f, M), -3, axis=axis)
    assert np.allclose(grid_values(g, M), rolled, atol=1e-12)
