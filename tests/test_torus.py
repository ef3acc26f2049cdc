"""Spectral torus calculus: quadrature, Poisson solves, geometry."""

import math
import tracemalloc

import numpy as np
import pytest

from helpers import random_zero_mean_field
from oracles import check_even, translate
from vortexmf.torus import (
    Field,
    SpectralTorus,
    _spectral_inner,
    cosine_transform,
    dirichlet_energy,
    even_inner,
    gradient_inner,
    integrate,
    inverse_cosine_transform,
    irfft2,
    laplacian,
    periodic_distance,
    project_zero_mean,
    radial_average,
    rfft2,
    project_even,
    quarter,
    solve_poisson_zero_mean,
    unfold,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        SpectralTorus(1.0, 100)
    with pytest.raises(ValueError):
        SpectralTorus(1.0, 8)
    with pytest.raises(ValueError):
        SpectralTorus(0.0, 32)
    with pytest.raises(ValueError):
        SpectralTorus(-2.0, 64)


def test_field_shape_and_immutability():
    with pytest.raises(ValueError):
        Field(np.zeros((4, 5)))
    with pytest.raises(ValueError):
        Field(np.zeros(16))
    f = Field(np.zeros((16, 16)))
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_project_zero_mean_normalises_the_mean():
    T = SpectralTorus(1.0, 16)
    g = project_zero_mean(T, Field(np.ones((16, 16))))
    assert g.values.mean() == 0.0
    assert g.values.max() == 0.0
    raw = 5.0 + 3.0 * np.random.default_rng(5).standard_normal((16, 16))
    assert abs(project_zero_mean(T, Field(raw)).values.mean()) <= 1e-15


@pytest.mark.parametrize("side", [1.0, 2.5])
def test_cosine_dirichlet_energy(side):
    # v = eps cos(2 pi x / L) has (1/2) int |grad v|^2 = eps^2 pi^2 for any L.
    T = SpectralTorus(side, 64)
    eps = 0.3
    x = np.arange(T.grid_n) * T.spacing
    vals = eps * np.cos(2.0 * math.pi * x / side)[:, None] * np.ones(T.grid_n)[None, :]
    e = dirichlet_energy(T, Field(vals))
    assert e == pytest.approx(eps * eps * math.pi**2, rel=1e-12)


def test_integrate_constant():
    T = SpectralTorus(2.5, 32)
    assert integrate(T, Field(np.full((32, 32), 3.0))) == pytest.approx(3.0 * 2.5**2, rel=1e-14)


def test_integrate_shape_mismatch():
    T = SpectralTorus(1.0, 32)
    with pytest.raises(ValueError, match="does not match"):
        integrate(T, Field(np.zeros((16, 16))))


def test_poisson_roundtrip():
    T = SpectralTorus(1.0, 128)
    rng = np.random.default_rng(3)
    u = random_zero_mean_field(T, rng)
    rhs = Field(-laplacian(T, u).values)
    back = solve_poisson_zero_mean(T, rhs)
    assert np.abs(back.values - u.values).max() <= 1e-10 * max(1.0, np.abs(u.values).max())


def test_poisson_ignores_the_mean_of_the_rhs():
    # the (0,0) mode is dropped: -Laplacian u = rhs - mean(rhs)
    T = SpectralTorus(1.0, 32)
    rhs = random_zero_mean_field(T, np.random.default_rng(11))
    u = solve_poisson_zero_mean(T, rhs)
    for c in (-3.0, 0.5, 7.0):
        shifted = solve_poisson_zero_mean(T, Field(rhs.values + c))
        assert np.abs(shifted.values - u.values).max() <= 1e-12
    assert np.abs(solve_poisson_zero_mean(T, Field(np.ones((32, 32)))).values).max() <= 1e-12


@pytest.mark.parametrize("n", [16, 64, 256])
def test_real_transforms_are_numpys_bit_for_bit(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, n))
    X = np.fft.rfft2(x) * (1.0 + rng.standard_normal((n, n // 2 + 1)))
    assert np.array_equal(rfft2(x), np.fft.rfft2(x))
    assert np.array_equal(irfft2(X, n), np.fft.irfft2(X, s=(n, n)))


def _quarter_cell_values(n):
    T = SpectralTorus(1.0, n)
    x = np.random.default_rng(n).standard_normal((n // 2 + 1) ** 2)
    return T, x, np.fft.rfft2(unfold(T, x))[: n // 2 + 1, : n // 2 + 1].real.ravel()


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512, 1024])
def test_cosine_transform_is_the_half_spectrum_of_the_even_field(n):
    # within 2e-15 of the largest mode, about the FFT's own rounding
    T, x, want = _quarter_cell_values(n)
    X = cosine_transform(T, x)
    assert X.shape == x.shape
    assert np.abs(X - want).max() <= 2e-15 * np.abs(want).max()
    # and back
    assert np.abs(inverse_cosine_transform(T, X) - x).max() <= 1e-14 * np.abs(x).max()


def test_the_cosine_angles_are_reduced_in_integers():
    # cos(2 pi j k / n) with j k up to n^2 / 4 loses the bound above at 512^2
    T, x, want = _quarter_cell_values(512)
    idx = np.arange(257)
    unreduced = np.cos(2.0 * math.pi / 512 * np.outer(idx, idx)) * T.cosines[0]
    bound = 2e-15 * np.abs(want).max()
    assert np.abs((unreduced @ x.reshape(257, 257) @ unreduced.T).ravel() - want).max() > bound
    assert np.abs(cosine_transform(T, x) - want).max() <= bound


@pytest.mark.parametrize("n", [16, 64, 256])
def test_even_inner_is_the_half_spectrum_parseval_sum(n):
    T = SpectralTorus(1.7, n)
    rng = np.random.default_rng(n)
    f, g = rng.standard_normal((2, (n // 2 + 1) ** 2))
    F, G = np.fft.rfft2(unfold(T, f)), np.fft.rfft2(unfold(T, g))
    got = even_inner(T, cosine_transform(T, f), cosine_transform(T, g))
    assert got == pytest.approx(_spectral_inner(T, F, G), rel=1e-13)


def test_even_inner_past_the_largest_float_is_inf_without_a_warning():
    # RuntimeWarnings fail the suite; the solver checks the sum for itself
    T = SpectralTorus(1.0, 16)
    F = np.full(81, 1e200)
    assert even_inner(T, F, F) == math.inf
    G = F.copy()
    G[::2] *= -1.0
    assert math.isnan(even_inner(T, F, G))


@pytest.mark.parametrize("transform", [laplacian, solve_poisson_zero_mean])
def test_transforms_return_contiguous_fields_that_keep_no_spectrum(transform):
    # a view of the complex result's real part would keep 2 fields alive for 1
    T = SpectralTorus(1.0, 64)
    f = random_zero_mean_field(T, np.random.default_rng(2))
    transform(T, f)  # the torus symbols are cached outside the traced call
    tracemalloc.start()
    try:
        out = transform(T, f)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.values.flags.c_contiguous
    assert retained <= 1.1 * f.values.nbytes


def test_dirichlet_energy_matches_weak_form():
    T = SpectralTorus(2.0, 64)
    rng = np.random.default_rng(7)
    f = random_zero_mean_field(T, rng)
    lap = laplacian(T, f)
    weak = 0.5 * integrate(T, Field(-f.values * lap.values))
    assert dirichlet_energy(T, f) == pytest.approx(weak, rel=1e-10)


def test_gradient_inner_polarization_and_symmetry():
    T = SpectralTorus(1.0, 64)
    rng = np.random.default_rng(11)
    f = random_zero_mean_field(T, rng)
    g = random_zero_mean_field(T, rng)
    assert gradient_inner(T, f, f) == pytest.approx(2.0 * dirichlet_energy(T, f), rel=1e-12)
    assert gradient_inner(T, f, g) == gradient_inner(T, g, f)
    # bilinearity against the sum
    lhs = gradient_inner(T, Field(f.values + g.values), Field(f.values + g.values))
    rhs = gradient_inner(T, f, f) + 2.0 * gradient_inner(T, f, g) + gradient_inner(T, g, g)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def _full_spectrum_inner(T, f, g):
    """int grad f . grad g by Parseval over the full complex spectrum."""
    k = 2.0 * math.pi / T.side_length * np.fft.fftfreq(T.grid_n, d=1.0 / T.grid_n)
    eig = k[:, None] ** 2 + k[None, :] ** 2
    F, G = np.fft.fft2(f.values), np.fft.fft2(g.values)
    return T.volume / T.grid_n**4 * float((eig * (F * G.conj()).real).sum())


def _half_spectrum_forms(T, f, g):
    F, G = np.fft.rfft2(f.values), np.fft.rfft2(g.values)
    return _spectral_inner(T, F, G), 2.0 * dirichlet_energy(T, f), gradient_inner(T, f, g)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_half_spectrum_parseval_matches_the_full_spectrum(n):
    # white noise plus the Nyquist modes (n/2, 0), (0, n/2) and (n/2, n/2),
    # which sit in the half spectrum's columns 0 and n/2
    T = SpectralTorus(1.7, n)
    rng = np.random.default_rng(n)
    sign = (-1.0) ** np.arange(n)
    nyquist = 0.1 * sign[:, None] + 0.2 * sign[None, :] + 0.3 * np.outer(sign, sign)
    noise = rng.standard_normal((2, n, n))
    f = Field(noise[0] + nyquist)
    g = Field(0.5 * noise[0] + noise[1] - nyquist)
    ff, fg = _full_spectrum_inner(T, f, f), _full_spectrum_inner(T, f, g)
    expected = (fg, ff, fg)
    assert _half_spectrum_forms(T, f, g) == pytest.approx(expected, rel=1e-13)
    # an interior column weighted 1, or the Nyquist column doubled, is far off
    for columns, factor in ((slice(1, -1), 0.5), (slice(-1, None), 2.0)):
        wrong = T.gradient_weights.copy()
        wrong[:, columns] *= factor
        T.__dict__["gradient_weights"] = wrong  # over the cached symbol
        got = _half_spectrum_forms(T, f, g)
        assert all(abs(a - b) > 1e-3 * abs(b) for a, b in zip(got, expected))
        del T.__dict__["gradient_weights"]


# translate is the test oracle of a sub-cell shift (tests/oracles.py); the
# solver's fields are even, a space that holds no translation
@pytest.mark.parametrize("shift", [(1, 0), (0, -3), (5, 7), (-16, 16)])
def test_an_integer_translation_is_a_roll(shift):
    # white noise carries every mode, the Nyquist line and column included
    T = SpectralTorus(1.0, 32)
    f = np.random.default_rng(1).standard_normal((32, 32))
    moved = translate(T, np.fft.rfft2(f), shift).values
    assert np.abs(moved - np.roll(f, shift, axis=(0, 1))).max() <= 1e-13


def _without_nyquist(n, seed):
    F = np.fft.rfft2(np.random.default_rng(seed).standard_normal((n, n)))
    F[n // 2, :] = 0.0
    F[:, -1] = 0.0
    return np.fft.irfft2(F, s=(n, n))


@pytest.mark.parametrize("shift", [(0.3, -0.7), (0.5, 0.5), (-2.25, 3.6)])
def test_a_translation_there_and_back_returns_a_field_without_nyquist_modes(shift):
    T = SpectralTorus(1.0, 32)
    f = _without_nyquist(32, 2)
    moved = translate(T, np.fft.rfft2(f), shift)
    back = translate(T, np.fft.rfft2(moved.values), (-shift[0], -shift[1])).values
    assert np.abs(back - f).max() <= 1e-13
    F = np.fft.rfft2(back)
    assert max(np.abs(F[16, :]).max(), np.abs(F[:, -1]).max()) <= 1e-13


def test_a_subcell_translation_samples_the_moved_interpolant():
    # a trigonometric polynomial below the Nyquist frequency is its own
    # interpolant, so its translate is known at every node
    T = SpectralTorus(1.0, 16)
    x, y = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
    f = lambda x, y: np.cos(2 * np.pi * 3 * x / 16 + 0.4) * np.sin(2 * np.pi * (x + 5 * y) / 16)
    s = (0.37, -1.61)
    moved = translate(T, np.fft.rfft2(f(x, y)), s).values
    assert np.abs(moved - f(x - s[0], y - s[1])).max() <= 1e-13


def test_a_translation_damps_the_nyquist_modes_by_the_cosine_of_the_shift():
    # (-1)^i is cos(pi x) on the nodes; moved by s it is cos(pi (x - s)),
    # whose sine part vanishes at every node: the Nyquist line, the Nyquist
    # column, their corner, and a Nyquist mode next to an interior one
    T = SpectralTorus(1.0, 16)
    x, y = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
    s = (0.3, 0.8)
    c0, c1 = math.cos(math.pi * s[0]), math.cos(math.pi * s[1])
    wave = lambda y: np.cos(2 * np.pi * 3 * y / 16 + 0.2)
    sign_x, sign_y = (-1.0) ** x, (-1.0) ** y
    f = 0.5 * sign_x + 0.75 * sign_y + 0.25 * sign_x * sign_y + sign_x * wave(y)
    want = 0.5 * c0 * sign_x + 0.75 * c1 * sign_y + 0.25 * c0 * c1 * sign_x * sign_y + c0 * sign_x * wave(y - s[1])
    moved = translate(T, np.fft.rfft2(f), s).values
    assert np.abs(moved - want).max() <= 1e-13


def test_periodic_distance_wraps():
    T = SpectralTorus(1.0, 32)
    d = periodic_distance(T, (0, 0))
    assert d[0, 0] == 0.0
    assert d[31, 0] == pytest.approx(T.spacing, rel=1e-15)
    assert d[0, 31] == pytest.approx(T.spacing, rel=1e-15)
    assert d[16, 0] == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(ValueError):
        periodic_distance(T, (32, 0))


def test_radial_average_recovers_radial_profile():
    T = SpectralTorus(2.0, 128)
    center = (64, 64)
    r = periodic_distance(T, center)
    f = Field(np.exp(-(r**2)))
    bins = radial_average(T, f, center, 32)
    assert len(bins) >= 30
    radii = [b[0] for b in bins]
    assert radii == sorted(radii)
    assert sum(b[2] for b in bins) == int((r <= 1.0).sum())
    for mean_r, mean_v, count in bins:
        assert count > 0
        assert abs(mean_v - math.exp(-(mean_r**2))) < 0.02


def test_radial_average_rejects_bad_bins():
    T = SpectralTorus(1.0, 16)
    with pytest.raises(ValueError):
        radial_average(T, Field(np.zeros((16, 16))), (0, 0), 0)


@pytest.mark.parametrize("n", [16, 64])
def test_the_quarter_cell_weights_count_the_grid_nodes_each_node_stands_for(n):
    T = SpectralTorus(1.0, n)
    h = n // 2 + 1
    assert T.fold.shape == (n, n) and T.quarter_weights.shape == (h * h,)
    # every grid node folds onto one quarter-cell node, which counts it
    assert np.array_equal(np.bincount(T.fold.ravel(), minlength=h * h), T.quarter_weights)
    assert set(T.quarter_weights.tolist()) == {1.0, 2.0, 4.0}
    assert T.quarter_weights.sum() == n * n
    # the quarter-cell nodes fold onto themselves
    assert np.array_equal(quarter(T, T.fold), np.arange(h * h))


def test_project_even_is_the_mean_of_the_four_reflections_and_even_bit_for_bit():
    T = SpectralTorus(1.0, 32)
    f = random_zero_mean_field(T, np.random.default_rng(6)).values
    r = T.reflection
    even = project_even(T, Field(f)).values
    want = 0.25 * (f + f[r] + f[:, r] + f[r][:, r])
    assert np.abs(even - want).max() <= 1e-15
    assert np.array_equal(even, even[r]) and np.array_equal(even, even[:, r])
    check_even(T, Field(even))
    # an even field comes back unchanged, and is its quarter cell unfolded
    assert np.array_equal(project_even(T, Field(even)).values, even)
    assert np.array_equal(unfold(T, quarter(T, even)), even)
    # a field odd in x has no even part
    odd = f - f[r]
    assert np.abs(project_even(T, Field(odd)).values).max() == 0.0


def test_a_grid_sum_of_an_even_field_is_the_weighted_quarter_cell_sum():
    T = SpectralTorus(1.0, 64)
    even = project_even(T, random_zero_mean_field(T, np.random.default_rng(7))).values
    e = np.exp(even)
    assert float(T.quarter_weights @ quarter(T, e)) == pytest.approx(float(e.sum()), rel=1e-14)


def test_check_even_rejects_a_field_one_ulp_off_even():
    T = SpectralTorus(1.0, 16)
    vals = project_even(T, random_zero_mean_field(T, np.random.default_rng(8))).values.copy()
    check_even(T, Field(vals))
    for i, j in ((3, 5), (0, 5), (8, 3), (8, 0)):
        off = vals.copy()
        off[i, j] = np.nextafter(off[i, j], np.inf)
        if (i, j) == (8, 0):  # a node that is its own reflection in both axes
            check_even(T, Field(off))
            continue
        with pytest.raises(ValueError, match="not even"):
            check_even(T, Field(off))
