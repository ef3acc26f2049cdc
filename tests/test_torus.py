"""Spectral torus calculus: quadrature, Poisson solves, geometry.

The library's operators take the cosine modes of even fields, or their
quarter-cell values; the full-grid FFT calculus of tests/oracles.py is
their reference."""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from helpers import random_even_field, random_zero_mean_field
from oracles import check_even, half_spectrum_eigenvalues, spectral_inner, translate
from vortexmf.torus import (
    Field,
    SpectralTorus,
    cosine_transform,
    dirichlet_energy,
    gradient_inner,
    integrate,
    inverse_cosine_transform,
    laplacian,
    periodic_distance,
    project_zero_mean,
    prolong,
    radial_average,
    project_even,
    quarter,
    solve_poisson_zero_mean,
    unfold,
)


def modes(T, f):
    """The cosine modes of the even grid field f."""
    return cosine_transform(T, quarter(T, f.values))


def on_grid(T, F):
    """The even grid field with cosine modes F."""
    return unfold(T, inverse_cosine_transform(T, F))


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
    # v = eps cos(2 pi x / L) has (1/2) int |grad v|^2 = eps^2 pi^2 for any L;
    # it is even, so the library and the oracle both take it
    T = SpectralTorus(side, 64)
    eps = 0.3
    x = np.arange(T.grid_n) * T.spacing
    v = Field(eps * np.cos(2.0 * math.pi * x / side)[:, None] * np.ones(T.grid_n)[None, :])
    for e in (dirichlet_energy(T, modes(T, v)), oracles.dirichlet_energy(T, v)):
        assert e == pytest.approx(eps * eps * math.pi**2, rel=1e-12)


def test_integrate_constant():
    T = SpectralTorus(2.5, 32)
    assert integrate(T, np.full(17 * 17, 3.0)) == pytest.approx(3.0 * 2.5**2, rel=1e-14)
    assert oracles.integrate(T, Field(np.full((32, 32), 3.0))) == pytest.approx(3.0 * 2.5**2, rel=1e-14)


def test_integrate_shape_mismatch():
    T = SpectralTorus(1.0, 32)
    with pytest.raises(ValueError, match="does not match"):
        oracles.integrate(T, Field(np.zeros((16, 16))))


def test_poisson_roundtrip():
    T = SpectralTorus(1.0, 128)
    rng = np.random.default_rng(3)
    u = random_zero_mean_field(T, rng)
    bound = 1e-10 * max(1.0, np.abs(u.values).max())
    back = oracles.solve_poisson_zero_mean(T, Field(-oracles.laplacian(T, u).values))
    assert np.abs(back.values - u.values).max() <= bound
    # the library's pair on the even part, through its cosine modes
    u = project_zero_mean(T, project_even(T, u))
    back = on_grid(T, solve_poisson_zero_mean(T, -laplacian(T, modes(T, u))))
    assert np.abs(back - u.values).max() <= bound


def test_poisson_ignores_the_mean_of_the_rhs():
    # the (0,0) mode is dropped: -Laplacian u = rhs - mean(rhs)
    T = SpectralTorus(1.0, 32)
    rhs = random_even_field(T, np.random.default_rng(11))
    ones = Field(np.ones((32, 32)))

    def on_modes(T, f):
        return Field(on_grid(T, solve_poisson_zero_mean(T, modes(T, f))))

    for solve in (oracles.solve_poisson_zero_mean, on_modes):
        u = solve(T, rhs)
        for c in (-3.0, 0.5, 7.0):
            shifted = solve(T, Field(rhs.values + c))
            assert np.abs(shifted.values - u.values).max() <= 1e-12
        assert np.abs(solve(T, ones).values).max() <= 1e-12


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


@pytest.mark.parametrize("side", [1.0, 1.7, 2.5])
@pytest.mark.parametrize("n", [16, 64, 512])
def test_the_symbols_are_the_half_spectrum_symbols_at_the_cosine_modes(n, side):
    T = SpectralTorus(side, n)
    h = n // 2 + 1
    full = half_spectrum_eigenvalues(T)[:h, :h].ravel()
    assert np.array_equal(T.eigenvalues, full)
    assert T.eigenvalues[0] == T.inverse_eigenvalues[0] == 0.0
    assert np.array_equal(T.inverse_eigenvalues[1:], 1.0 / full[1:])


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512])
def test_the_quarter_cell_operators_are_the_fft_calculus_on_even_fields(n):
    # white noise carries every mode, up to the Nyquist ones
    T = SpectralTorus(1.7, n)
    rng = np.random.default_rng(n)
    f, g = (random_even_field(T, rng) for _ in range(2))
    F, G = modes(T, f), modes(T, g)
    for ours, theirs in (
        (on_grid(T, laplacian(T, F)), oracles.laplacian(T, f).values),
        (on_grid(T, solve_poisson_zero_mean(T, F)), oracles.solve_poisson_zero_mean(T, f).values),
    ):
        assert np.abs(ours - theirs).max() <= 1e-13 * np.abs(theirs).max()
    assert gradient_inner(T, F, G) == pytest.approx(oracles.gradient_inner(T, f, g), rel=1e-13)
    assert dirichlet_energy(T, F) == pytest.approx(oracles.dirichlet_energy(T, f), rel=1e-13)
    e = Field(np.exp(f.values))
    assert integrate(T, quarter(T, e.values)) == pytest.approx(oracles.integrate(T, e), rel=1e-13)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_even_inner_is_the_half_spectrum_parseval_sum(n):
    # gradient_inner of cosine modes, against the oracle's half-spectrum sum
    T = SpectralTorus(1.7, n)
    rng = np.random.default_rng(n)
    f, g = rng.standard_normal((2, (n // 2 + 1) ** 2))
    F, G = np.fft.rfft2(unfold(T, f)), np.fft.rfft2(unfold(T, g))
    got = gradient_inner(T, cosine_transform(T, f), cosine_transform(T, g))
    assert got == pytest.approx(spectral_inner(T, F, G), rel=1e-13)


def test_even_inner_past_the_largest_float_is_inf_without_a_warning():
    # RuntimeWarnings fail the suite; the solver checks the sum for itself
    T = SpectralTorus(1.0, 16)
    F = np.full(81, 1e200)
    assert gradient_inner(T, F, F) == math.inf
    G = F.copy()
    G[::2] *= -1.0
    assert math.isnan(gradient_inner(T, F, G))


@pytest.mark.parametrize("transform", [laplacian, solve_poisson_zero_mean])
def test_transforms_return_contiguous_fields_that_keep_no_spectrum(transform):
    # each operator leaves one new array of the modes' size and nothing else
    T = SpectralTorus(1.0, 64)
    F = modes(T, random_even_field(T, np.random.default_rng(2)))
    transform(T, F)  # the torus symbols are cached outside the traced call
    tracemalloc.start()
    try:
        out = transform(T, F)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.flags.c_contiguous and out.shape == F.shape
    assert retained <= 1.1 * F.nbytes


def test_dirichlet_energy_matches_weak_form():
    T = SpectralTorus(2.0, 64)
    rng = np.random.default_rng(7)
    f = random_even_field(T, rng)
    F = modes(T, f)
    x = quarter(T, f.values)
    weak = 0.5 * integrate(T, -x * inverse_cosine_transform(T, laplacian(T, F)))
    assert dirichlet_energy(T, F) == pytest.approx(weak, rel=1e-10)
    # and the oracle's, on the grid
    weak = 0.5 * oracles.integrate(T, Field(-f.values * oracles.laplacian(T, f).values))
    assert oracles.dirichlet_energy(T, f) == pytest.approx(weak, rel=1e-10)


def test_gradient_inner_polarization_and_symmetry():
    T = SpectralTorus(1.0, 64)
    rng = np.random.default_rng(11)
    f = random_even_field(T, rng)
    g = random_even_field(T, rng)
    F, G = modes(T, f), modes(T, g)
    assert gradient_inner(T, F, F) == pytest.approx(2.0 * dirichlet_energy(T, F), rel=1e-12)
    # F . (G w) and G . (F w) round apart; the oracle's elementwise form
    # is symmetric bit for bit
    assert gradient_inner(T, F, G) == pytest.approx(gradient_inner(T, G, F), rel=1e-15)
    assert oracles.gradient_inner(T, f, g) == oracles.gradient_inner(T, g, f)
    # bilinearity against the sum
    lhs = gradient_inner(T, F + G, F + G)
    rhs = gradient_inner(T, F, F) + 2.0 * gradient_inner(T, F, G) + gradient_inner(T, G, G)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
    # the oracle's form on the grid
    assert gradient_inner(T, F, G) == pytest.approx(oracles.gradient_inner(T, f, g), rel=1e-12)


def _full_spectrum_inner(T, f, g):
    """int grad f . grad g by Parseval over the full complex spectrum."""
    k = 2.0 * math.pi / T.side_length * np.fft.fftfreq(T.grid_n, d=1.0 / T.grid_n)
    eig = k[:, None] ** 2 + k[None, :] ** 2
    F, G = np.fft.fft2(f.values), np.fft.fft2(g.values)
    return T.volume / T.grid_n**4 * float((eig * (F * G.conj()).real).sum())


def _half_spectrum_forms(T, f, g):
    F, G = np.fft.rfft2(f.values), np.fft.rfft2(g.values)
    return spectral_inner(T, F, G), 2.0 * oracles.dirichlet_energy(T, f), oracles.gradient_inner(T, f, g)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_half_spectrum_parseval_matches_the_full_spectrum(n, monkeypatch):
    # the oracle's half-spectrum sums: white noise plus the Nyquist modes
    # (n/2, 0), (0, n/2) and (n/2, n/2), which sit in the half spectrum's
    # columns 0 and n/2
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
    weights = oracles.half_spectrum_weights(T)
    for columns, factor in ((slice(1, -1), 0.5), (slice(-1, None), 2.0)):
        wrong = weights.copy()
        wrong[:, columns] *= factor
        monkeypatch.setattr(oracles, "half_spectrum_weights", lambda T: wrong)
        got = _half_spectrum_forms(T, f, g)
        assert all(abs(a - b) > 1e-3 * abs(b) for a, b in zip(got, expected))


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
    # values of another grid's quarter cell, or a grid field, do not unfold
    for wrong in (quarter(SpectralTorus(1.0, 64), np.zeros((64, 64))), even):
        with pytest.raises(ValueError, match="do not match grid 32"):
            unfold(T, wrong)
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


def _cosine_polynomial(T, coefficients):
    """The even field sum c_km cos(2 pi k x) cos(2 pi m y) at the
    quarter-cell nodes of T, for coefficients c_km, 0 <= k, m < 16."""
    x = np.arange(T.grid_n // 2 + 1) / T.grid_n
    basis = np.cos(2.0 * math.pi * np.outer(x, np.arange(coefficients.shape[0])))
    return (basis @ coefficients @ basis.T).ravel()


@pytest.mark.parametrize("n", [64, 128])
def test_prolong_samples_a_band_limited_cosine_polynomial_on_the_finer_grid(n):
    # modes below the 32^2 Nyquist line are reproduced from the 32^2
    # samples, through one or two doublings; |field| <= 1
    rng = np.random.default_rng(5)
    coefficients = rng.standard_normal((16, 16))
    coefficients /= np.abs(coefficients).sum()
    x = _cosine_polynomial(SpectralTorus(1.0, 32), coefficients)
    grid = 32
    while grid < n:
        x = prolong(SpectralTorus(1.0, grid), SpectralTorus(1.0, 2 * grid), x)
        grid *= 2
    want = _cosine_polynomial(SpectralTorus(1.0, n), coefficients)
    assert np.abs(x - want).max() <= 1e-14


def test_prolong_drops_the_coarse_nyquist_line():
    # a field of the modes with k or m = n/2 alone prolongs to 0, and the
    # modes below the line are kept
    coarse, fine = SpectralTorus(1.0, 32), SpectralTorus(1.0, 64)
    X = np.zeros((17, 17))
    X[16, :] = np.arange(17.0) + 1.0
    X[:, 16] = 3.0
    nyquist = inverse_cosine_transform(coarse, X.ravel())
    assert np.abs(nyquist).max() > 0.1
    assert np.abs(prolong(coarse, fine, nyquist)).max() <= 1e-15
    X[3, 5] = 2.0
    kept = prolong(coarse, fine, inverse_cosine_transform(coarse, X.ravel()))
    modes_fine = cosine_transform(fine, kept).reshape(33, 33)
    expected = np.zeros((33, 33))
    expected[3, 5] = 4.0 * 2.0
    assert np.abs(modes_fine - expected).max() <= 1e-12


def test_prolong_needs_twice_the_grid_on_the_same_torus():
    x = np.zeros(17 * 17)
    for fine in (SpectralTorus(1.0, 128), SpectralTorus(2.0, 64), SpectralTorus(1.0, 32)):
        with pytest.raises(ValueError, match="twice the points"):
            prolong(SpectralTorus(1.0, 32), fine, x)
