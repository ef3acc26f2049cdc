"""Radial asymptotics: bubble oracles, slope fits, Pohozaev, Newton potential."""

import math

import numpy as np
import pytest

from helpers import gaussian_bump, random_measure, synthetic_result
from vortexmf.blowup import (
    BlowupProfile,
    bubble_profile,
    default_fit_window,
    fit_li_line,
    fit_li_slope,
    liouville_bubble,
    mass_gamma,
    newton_potential,
    pohozaev_residual,
    quad,
    radial_integral,
    rescale_profile,
)
from vortexmf.functional import Problem
from vortexmf.measure import CirculationMeasure, new_atomic
from vortexmf.minimize import MinimizeOptions, minimize
from vortexmf.torus import SpectralTorus, periodic_distance

EIGHT_PI = 8.0 * math.pi


def bubble_density(r, mu: float = 1.0, lam: float = 8.0):
    return lam * np.exp(liouville_bubble(mu, lam, r))


# ---------------------------------------------------------------- quadrature


def test_radial_integral_polynomial_exact():
    assert radial_integral(lambda r: r, 0.0, 7.0) == pytest.approx(24.5, rel=1e-10)
    assert radial_integral(lambda r: 1.0, 2.0, 5.0) == pytest.approx(3.0, rel=1e-10)


def test_radial_integral_with_breakpoints():
    step = lambda r: np.where(r <= 1.0, 1.0, 0.0)
    val = radial_integral(step, 0.0, 2.0, breakpoints=[1.0])
    assert val == pytest.approx(1.0, rel=1e-9)


def test_polynomial_of_degree_31_is_exact_on_one_interval():
    # the 21-point Kronrod rule integrates degree 3 * 10 + 1 exactly; the
    # error estimate compares it with the 10-point Gauss rule, exact to
    # degree 19 only, so a loose tolerance keeps the one interval
    coeffs = np.random.default_rng(31).uniform(-1.0, 1.0, 32)
    poly = np.polynomial.Polynomial(coeffs)
    exact = poly.integ()(1.5) - poly.integ()(-0.5)
    value, _, info = quad(poly, -0.5, 1.5, 1.0, 400)
    assert info == {"neval": 21}
    assert value == pytest.approx(exact, rel=1e-14, abs=1e-14)
    assert poly.degree() == 31


def test_step_at_a_breakpoint_is_exact():
    # on u = log1p(r) the step integrates e^u over [0, log 2], which one
    # interval resolves to rounding
    step = lambda r: np.where(r <= 1.0, 1.0, 0.0)
    assert radial_integral(step, 0.0, 2.0, breakpoints=[1.0]) == pytest.approx(1.0, rel=1e-15)


def test_neval_counts_21_nodes_per_interval_evaluated():
    rows = []

    def f(x):
        rows.append(x.shape)
        return np.exp(-x) * np.sin(20.0 * x)

    value, _, info = quad(f, 0.0, 3.0, 1e-10, 400, points=[1.0])
    assert len(rows) > 1 and all(shape[1] == 21 for shape in rows)
    assert info["neval"] == 21 * sum(shape[0] for shape in rows)
    exact = (20.0 - math.exp(-3.0) * (math.sin(60.0) + 20.0 * math.cos(60.0))) / 401.0
    assert value == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize(
    "fn, error, match",
    [
        (lambda r: np.full_like(r, math.nan), OverflowError, "^integrand is not finite at r = "),
        (lambda r: np.where(r < 0.5, math.inf, 1.0), OverflowError, "^integrand is not finite at r = "),
        (lambda r: 1.0 / r, RuntimeError, "did not converge within 400 intervals"),
    ],
    ids=["nan", "inf", "one-over-r"],
)
def test_bad_integrands_raise_and_do_not_hang(fn, error, match):
    with pytest.raises(error, match=match):
        radial_integral(fn, 0.0, 1.0)


def test_quadrature_of_a_nan_integrand_ends_at_the_interval_limit():
    with pytest.raises(RuntimeError, match="did not converge"):
        quad(lambda x: np.full_like(x, math.nan), 0.0, 1.0, 1e-10, 400)


def test_verify_integrals_match_quadpack(monkeypatch):
    # every integral of the oracle suite against scipy's QUADPACK on the same
    # substitution u = log1p(r)
    from scipy.integrate import quad as quadpack

    from vortexmf import blowup, cli

    pairs = []

    def recorded(fn, a, b, breakpoints=None):
        value = radial_integral(fn, a, b, breakpoints)
        g = lambda u: float(fn(np.array(math.expm1(u)))) * math.exp(u)
        points = sorted(math.log1p(p) for p in breakpoints if a < p < b) if breakpoints else None
        ref = quadpack(g, math.log1p(a), math.log1p(b), epsabs=0.0, epsrel=1e-10, limit=400, points=points)[0]
        pairs.append((value, ref))
        return value

    monkeypatch.setattr(blowup, "radial_integral", recorded)
    monkeypatch.setattr(cli, "radial_integral", recorded)
    assert all(check["passed"] for check in cli.verify_checks())
    assert len(pairs) == 22
    for value, ref in pairs:
        assert value == pytest.approx(ref, rel=1e-12)


def test_radial_integral_bounds_validation():
    with pytest.raises(ValueError):
        radial_integral(lambda r: r, -1.0, 2.0)
    with pytest.raises(ValueError):
        radial_integral(lambda r: r, 3.0, 3.0)


# -------------------------------------------------------------------- bubble


def test_bubble_peak_and_validation():
    assert liouville_bubble(1.0, 8.0, 0.0) == 0.0
    assert liouville_bubble(2.0, 8.0, 0.0) == pytest.approx(math.log(4.0), rel=1e-15)
    with pytest.raises(ValueError):
        liouville_bubble(0.0, 8.0, 1.0)
    with pytest.raises(ValueError):
        liouville_bubble(1.0, -8.0, 1.0)
    arr = liouville_bubble(1.0, 8.0, np.array([0.0, 1.0]))
    assert arr.shape == (2,)
    assert arr[0] == 0.0


@pytest.mark.parametrize("mu, lam", [(1.0, 8.0), (2.0, 8.0), (0.3, 1.5)])
def test_bubble_float_path_is_the_array_path_bit_for_bit(mu, lam):
    radii = np.concatenate([[0.0, 1e-8], np.geomspace(1e-3, 1e6, 200)])
    on_array = liouville_bubble(mu, lam, radii)
    for r, expected in zip(radii.tolist(), on_array.tolist()):
        for scalar in (r, np.float64(r)):
            value = liouville_bubble(mu, lam, scalar)
            assert type(value) is float
            assert value == expected
    # where (mu r)^2 overflows, both paths read -inf
    with np.errstate(over="ignore"):
        assert liouville_bubble(mu, lam, 1e200) == liouville_bubble(mu, lam, np.array([1e200]))[0] == -math.inf


def test_bubble_total_mass_is_eight_pi():
    for mu in (0.5, 1.0, 3.0):
        mass = 2.0 * math.pi * radial_integral(
            lambda r: bubble_density(r, mu=mu) * r, 0.0, 1e6
        )
        assert mass == pytest.approx(EIGHT_PI, rel=1e-6)


def test_bubble_solves_its_equation():
    # radial Laplacian by central differences against lam e^w
    mu, lam = 1.0, 8.0
    w = lambda r: liouville_bubble(mu, lam, r)
    for r in (0.5, 1.0, 5.0):
        h = 1e-4 * max(1.0, r)
        lap = (w(r + h) - 2.0 * w(r) + w(r - h)) / h**2 + (w(r + h) - w(r - h)) / (2.0 * h * r)
        assert abs(-lap - lam * math.exp(w(r))) <= 1e-6


def test_concentration_mass_of_bubble():
    assert mass_gamma(bubble_density, 1e4) == pytest.approx(4.0, abs=1e-6)
    # pi gamma^2 = 2 lambda_bar(delta_1) ties the mass to the coupling
    gamma = mass_gamma(bubble_density, 1e4)
    assert math.pi * gamma * gamma == pytest.approx(2.0 * EIGHT_PI, rel=1e-9)


def test_concentration_mass_edge_cases():
    assert mass_gamma(lambda r: 0.0, 10.0) == 0.0
    base = mass_gamma(bubble_density, 1e4)
    doubled = mass_gamma(lambda r: 2.0 * bubble_density(r), 1e4)
    assert doubled == pytest.approx(2.0 * base, rel=1e-10)
    with pytest.raises(ValueError):
        mass_gamma(bubble_density, -1.0)
    with pytest.raises(ValueError):
        mass_gamma(lambda r: -1.0, 10.0)
    with pytest.raises(RuntimeError, match="not decreasing"):
        mass_gamma(lambda r: 1.0 / (1.0 + r * r), 1e4)
    with pytest.raises(RuntimeError, match="does not converge"):
        mass_gamma(lambda r: 1.0 / np.maximum(r, 1.0) ** 2, 1e4, breakpoints=[1.0])


# ------------------------------------------------------------------ profiles


def test_bubble_profile_sigma_and_samples():
    radii = np.geomspace(1e-2, 3e4, 600)
    prof = bubble_profile(1.0, 8.0, radii)
    assert prof.sigma == 1.0
    assert prof.peak_value == 0.0
    assert prof.radii.shape == prof.dw.shape == (600,)
    assert np.all(prof.dw <= 0.0)
    with pytest.raises(ValueError):
        bubble_profile(1.0, 8.0, radii, alpha=1.5)
    with pytest.raises(ValueError):
        bubble_profile(1.0, 8.0, [-1.0, 2.0])


def test_profile_validation():
    with pytest.raises(ValueError, match="increasing"):
        BlowupProfile(0.0, np.array([2.0, 1.0]), np.array([-1.0, -2.0]), 4.0, 0.0, 4.0)
    with pytest.raises(ValueError, match="peak"):
        BlowupProfile(0.0, np.array([1.0]), np.array([0.5]), 4.0, 0.0, 4.0)
    with pytest.raises(ValueError, match="one value per sample"):
        BlowupProfile(0.0, np.array([1.0, 2.0]), np.array([-1.0]), 4.0, 0.0, 4.0)


def test_li_slope_on_exact_line():
    radii = np.geomspace(0.1, 100.0, 50)
    dw = -4.0 * np.log1p(radii)
    prof = BlowupProfile(0.0, radii, dw, 4.0, 0.0, 4.0)
    slope, intercept = fit_li_line(prof, (0.5, 50.0))
    assert slope == pytest.approx(4.0, rel=1e-12)
    assert abs(intercept) <= 1e-12
    flat = BlowupProfile(0.0, radii, np.zeros(50), 0.0, 0.0, 4.0)
    assert fit_li_slope(flat, (0.5, 50.0)) == 0.0


def test_li_fit_window_validation():
    radii = np.geomspace(0.1, 100.0, 50)
    dw = -4.0 * np.log1p(radii)
    prof = BlowupProfile(0.0, radii, dw, 4.0, 0.0, 4.0)
    with pytest.raises(ValueError, match="lo < hi"):
        fit_li_slope(prof, (5.0, 5.0))
    with pytest.raises(ValueError, match="lo < hi"):
        fit_li_slope(prof, (-1.0, 5.0))
    with pytest.raises(ValueError, match="at least"):
        fit_li_slope(prof, (99.0, 100.0))


def test_li_slope_far_field_window():
    radii = np.geomspace(1e-2, 3e4, 600)
    assert fit_li_slope(bubble_profile(1.0, 8.0, radii), (1e2, 1e4)) == pytest.approx(
        4.0, rel=0.02
    )
    assert fit_li_slope(bubble_profile(1.0, 8.0, radii, alpha=0.5), (1e2, 1e4)) == pytest.approx(
        2.0, rel=0.02
    )


def test_li_slope_near_field_window_overshoots():
    # between 3 and 30 sigma the core still bends the line upward; the
    # fitted slope sits measurably above the far-field value 4
    radii = np.geomspace(1e-2, 3e4, 600)
    slope = fit_li_slope(bubble_profile(1.0, 8.0, radii), (3.0, 30.0))
    assert 4.1 < slope < 4.6


def test_default_fit_window_torus_cap():
    assert default_fit_window(1.0) == (3.0, 30.0)
    assert default_fit_window(0.01, side_length=1.0) == (3.0, 25.0)
    assert default_fit_window(1.0, side_length=1.0) == (3.0, 0.25)


def test_rescale_profile_recovers_radial_law():
    # plant an exact radial field and read its profile back through binning
    T = SpectralTorus(1.0, 128)
    s = 1.0 / 32.0
    r = periodic_distance(T, (64, 64))
    res = synthetic_result(T, -2.0 * np.log1p((r / s) ** 2))
    P = new_atomic([(1.0, 1.0)])
    prof = rescale_profile(res, T, P)
    assert prof.sigma == pytest.approx(math.exp(-0.5 * prof.peak_value), rel=1e-12)
    assert prof.gamma0_reference == 4.0
    checked = 0
    for rr, dw in zip(prof.radii, prof.dw):
        if rr <= 0.25:
            assert abs(dw - (-2.0 * math.log1p((rr / s) ** 2))) <= 0.01
            checked += 1
    assert checked >= 20


@pytest.mark.parametrize(
    "pairs, gamma0",
    [
        ([(0.6, 0.5), (1.0, 0.5)], 5.0),  # K is the full support: 4 / m1
        ([(0.2, 0.5), (1.0, 0.5)], 4.0),  # K = {1}: 4 P(K) / m_K, not 4 / m1
        ([(-1.0, 0.5), (1.0, 0.5)], 4.0),  # only the positive side counts
    ],
)
def test_rescale_profile_reference_from_extremal_subset(pairs, gamma0):
    T = SpectralTorus(1.0, 32)
    res = synthetic_result(T, gaussian_bump(T, (16, 16), 10.0, 0.05))
    assert rescale_profile(res, T, new_atomic(pairs)).gamma0_reference == gamma0


@pytest.mark.parametrize("seed", range(20))
def test_the_negative_side_reads_the_mirror_image_reference_bit_for_bit(seed):
    # gamma0 of P's negative side is that of the positive side of the
    # mirrored measure alpha -> -alpha, bit for bit: its tail is P's
    # negative one in the same order, and fsum rounds correctly.  The
    # two-atom measure is the CLI's negative profile, gamma0 = 4 / 0.75
    T = SpectralTorus(1.0, 32)
    res = synthetic_result(T, gaussian_bump(T, (16, 16), 10.0, 0.05))
    rng = np.random.default_rng(seed)
    P = new_atomic([(-1.0, 0.5), (-0.5, 0.5)]) if seed == 0 else random_measure(rng)
    mirrored = CirculationMeasure(tuple((-a, w) for a, w in reversed(P.atoms)))
    if all(a >= 0.0 for a, _ in P.atoms):
        with pytest.raises(ValueError, match="negative circulation"):
            rescale_profile(res, T, P, "negative")
        return
    got = rescale_profile(res, T, P, "negative").gamma0_reference
    assert got.hex() == rescale_profile(res, T, mirrored).gamma0_reference.hex()
    if seed == 0:
        assert got == 5.333333333333333


def test_rescale_profile_flat_field():
    T = SpectralTorus(1.0, 64)
    res = synthetic_result(T, np.zeros((64, 64)))
    prof = rescale_profile(res, T, new_atomic([(1.0, 1.0)]))
    assert prof.sigma == 1.0
    assert np.all(prof.dw == 0.0)
    assert math.isnan(prof.fitted_slope)


def test_rescale_profile_validation():
    T = SpectralTorus(1.0, 64)
    res = synthetic_result(T, np.zeros((64, 64)))
    with pytest.raises(ValueError, match="positive circulation"):
        rescale_profile(res, T, new_atomic([(-1.0, 1.0)]))
    with pytest.raises(ValueError, match="grid"):
        rescale_profile(res, SpectralTorus(1.0, 32), new_atomic([(1.0, 1.0)]))


def test_side_length_only_rescales_the_answer():
    # x -> L x maps the torus of side 1 onto the one of side L: v is the
    # same field, J shifts by -2 lambda log L, the residual scales by
    # L^-2 (so grad_tol t at side L is t L^2 at side 1), lengths by L.  On
    # 64^2 the profile's grid_n / 2 bins leave enough of them for the slope
    P = new_atomic([(-1.0, 0.5), (1.0, 0.5)])
    lam = 2.0 * EIGHT_PI  # lambda_bar(P): the pair concentrates
    runs = {}
    for side, tol in ((1.0, 4e-8), (2.0, 1e-8)):
        T = SpectralTorus(side, 64)
        result = minimize(Problem(T, P, lam), MinimizeOptions(grad_tol=tol))
        assert result.status == "converged"
        runs[side] = result, rescale_profile(result, T, P)
    (unit, unit_prof), (double, double_prof) = runs[1.0], runs[2.0]
    assert double.iterations == unit.iterations
    assert double.J_value - unit.J_value == pytest.approx(-2.0 * lam * math.log(2.0), rel=1e-12)
    assert unit.residual_norm / double.residual_norm == pytest.approx(4.0, rel=1e-9)
    assert double_prof.sigma / unit_prof.sigma == pytest.approx(2.0, rel=1e-12)
    assert math.isfinite(unit_prof.fitted_slope)
    assert double_prof.fitted_slope == pytest.approx(unit_prof.fitted_slope, rel=1e-9)


# ----------------------------------------------------------------- Pohozaev


def test_pohozaev_balance_on_bubble():
    w = lambda r: liouville_bubble(1.0, 8.0, r)
    rep = pohozaev_residual(w, lambda r: 8.0, np.exp, 10.0)
    assert rep.relative_residual <= 1e-6
    expected = abs(rep.lhs - rep.rhs) / (1.0 + abs(rep.lhs) + abs(rep.rhs))
    assert rep.relative_residual == expected


def test_pohozaev_boundary_term_limit():
    # as R grows the boundary kinetic term approaches -2 lambda_bar = -16 pi
    w = lambda r: liouville_bubble(1.0, 8.0, r)
    rep = pohozaev_residual(w, lambda r: 8.0, np.exp, 500.0)
    assert abs(rep.lhs + 16.0 * math.pi) <= 1e-3


def test_pohozaev_constant_field_is_exact():
    rep = pohozaev_residual(lambda r: 0.7, lambda r: 1.0, np.exp, 3.0)
    assert rep.lhs == 0.0
    assert rep.relative_residual <= 1e-12


def test_pohozaev_detects_non_solution():
    # shifting the bubble amplitude breaks the equation, not just its scale
    w = lambda r: liouville_bubble(1.0, 8.0, r) + 2.0 * math.log(2.0)
    rep = pohozaev_residual(w, lambda r: 8.0, np.exp, 10.0)
    assert rep.relative_residual >= 0.1


def test_pohozaev_rejects_bad_radius():
    with pytest.raises(ValueError):
        pohozaev_residual(lambda r: 0.0, lambda r: 1.0, np.exp, 0.0)


# ----------------------------------------------------------- Newton potential


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "name, call",
    [
        ("mu", lambda x: liouville_bubble(x, 8.0, 1.0)),
        ("lam", lambda x: liouville_bubble(1.0, x, 1.0)),
        ("x_abs", lambda x: newton_potential(bubble_density, x)),
        ("r_max", lambda x: mass_gamma(bubble_density, x)),
        ("radius", lambda x: pohozaev_residual(lambda r: 0.0, lambda r: 1.0, np.exp, x)),
        ("rho_max", lambda x: newton_potential(bubble_density, 10.0, rho_max=x)),
    ],
)
def test_radial_parameters_must_be_positive_and_finite(name, call, bad):
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
        call(bad)


def test_newton_potential_zero_density():
    assert newton_potential(lambda r: 0.0, 10.0) == 0.0


def test_newton_potential_doubling_matches_mass():
    # z(2R) - z(R) -> gamma log 2 with gamma = (1/2pi) int f
    disk = lambda r: np.where(r <= 1.0, 2.0, 0.0)
    gamma = mass_gamma(disk, 2.0, breakpoints=[1.0])
    assert gamma == pytest.approx(1.0, rel=1e-9)
    for R in (100.0, 400.0):
        dz = newton_potential(disk, 2.0 * R, breakpoints=[1.0]) - newton_potential(
            disk, R, breakpoints=[1.0]
        )
        assert abs(dz - gamma * math.log(2.0)) <= 0.01


def test_newton_potential_guards():
    with pytest.raises(ValueError):
        newton_potential(lambda r: 0.0, -1.0)
    with pytest.raises(RuntimeError, match="tail"):
        newton_potential(lambda r: 1.0 / (1.0 + r), 10.0, rho_max=1e4)
