"""Radial asymptotics: bubble oracles, slope fits, Pohozaev, Newton potential."""

import math

import numpy as np
import pytest

import oracles
from helpers import alone, gaussian_bump, random_measure, synthetic_v
from vortexmf.blowup import (
    NEWTON_RHO_MAX,
    QUAD_LIMIT,
    BlowupProfile,
    bubble_profile,
    default_fit_window,
    fit_li_line,
    fit_li_slope,
    gather,
    liouville_bubble,
    mass_gamma,
    newton_potential,
    pohozaev_residual,
    quad,
    radial_integral,
    rescale_profile,
)
from vortexmf.blowup import _kronrod
from vortexmf.functional import Problem, spike_grid
from vortexmf.measure import CirculationMeasure, new_atomic
from vortexmf.minimize import MinimizeOptions, minimize
from vortexmf.torus import SpectralTorus, periodic_distance

EIGHT_PI = 8.0 * math.pi


def bubble_density(r, mu: float = 1.0, lam: float = 8.0):
    return lam * np.exp(liouville_bubble(mu, lam, r))


# ---------------------------------------------------------------- quadrature


def test_radial_integral_polynomial_exact():
    assert radial_integral(lambda r, m: r, [(0.0, 7.0, ())]) == pytest.approx([24.5], rel=1e-10)
    assert radial_integral(lambda r, m: 1.0, [(2.0, 5.0, ())]) == pytest.approx([3.0], rel=1e-10)


def test_radial_integral_with_breakpoints():
    step = lambda r, m: np.where(r <= 1.0, 1.0, 0.0)
    (val,) = radial_integral(step, [(0.0, 2.0, [1.0])])
    assert val == pytest.approx(1.0, rel=1e-9)


def test_polynomial_of_degree_31_is_exact_on_one_interval():
    # the 21-point Kronrod rule integrates degree 3 * 10 + 1 exactly; the
    # error estimate compares it with the 10-point Gauss rule, exact to
    # degree 19 only, so the quadrature keeps the one interval up to degree
    # 19 and bisects from degree 20
    coeffs = np.random.default_rng(31).uniform(-1.0, 1.0, 32)
    for degree, neval in ((31, None), (19, 21), (20, 63)):
        poly = np.polynomial.Polynomial(coeffs[: degree + 1])
        exact = poly.integ()(1.5) - poly.integ()(-0.5)
        if neval is None:
            values, _ = _kronrod(lambda x, member: poly(x), [-0.5], [1.5], np.zeros((1, 1), dtype=int))
        else:
            values, _, info = quad(lambda x, member: poly(x), [[-0.5, 1.5]])
            assert info == {"neval": neval}
        assert values[0] == pytest.approx(exact, rel=1e-14, abs=1e-14)
        assert poly.degree() == degree


def test_step_at_a_breakpoint_is_exact():
    # on u = log1p(r) the step integrates e^u over [0, log 2], which one
    # interval resolves to rounding
    step = lambda r, m: np.where(r <= 1.0, 1.0, 0.0)
    assert radial_integral(step, [(0.0, 2.0, [1.0])]) == pytest.approx([1.0], rel=1e-15)


def test_neval_counts_21_nodes_per_interval_evaluated():
    rows = []

    def f(x, member):
        rows.append((x.shape, member.shape, member.tolist()))
        return np.exp(-x) * np.sin(20.0 * x)

    values, _, info = quad(f, [[0.0, 1.0, 3.0]])
    assert len(rows) > 1 and all(shape[1] == 21 and ms == (shape[0], 1) for shape, ms, _ in rows)
    assert all(m == [[0]] * len(m) for _, _, m in rows)
    assert info["neval"] == 21 * sum(shape[0] for shape, _, _ in rows)
    exact = (20.0 - math.exp(-3.0) * (math.sin(60.0) + 20.0 * math.cos(60.0))) / 401.0
    assert values[0] == pytest.approx(exact, rel=1e-10)


def _recording_quad(monkeypatch):
    """Patch blowup.quad to record, per call, its result and the member
    array of every round."""
    from vortexmf import blowup

    calls = []
    original = blowup.quad

    def recorded(f, edges):
        rounds = []

        def g(x, member):
            rounds.append(member.ravel().copy())
            return f(x, member)

        out = original(g, edges)
        calls.append((out, rounds, len(edges)))
        return out

    monkeypatch.setattr(blowup, "quad", recorded)
    return calls


def _members(call):
    """Per member of a recorded call: the hex of its value and error
    estimate, its share of the evaluations, and its rounds."""
    (values, errors, info), rounds, n = call
    shares = [21 * sum(int((r == m).sum()) for r in rounds) for m in range(n)]
    assert sum(shares) == info["neval"]
    counts = [sum(1 for r in rounds if m in r) for m in range(n)]
    return [(v.hex(), e.hex(), s, c) for v, e, s, c in zip(values, errors, shares, counts)]


DISK = lambda r: np.where(r <= 1.0, 2.0, 0.0)


@pytest.mark.parametrize(
    "density, radii, kw",
    [
        (bubble_density, np.geomspace(1e2, 1e4, 9), {}),
        (DISK, np.geomspace(1e2, 1e4, 9), {"breakpoints": [1.0]}),
        # radii inside the disk, and one on its edge, which is then an edge twice
        (DISK, [0.5, 1.0, 2.0, 4.0, 8.0, 16.0], {"breakpoints": [1.0]}),
    ],
    ids=["bubble", "disk", "disk-near"],
)
def test_every_newton_member_gets_the_bits_it_gets_alone(monkeypatch, density, radii, kw):
    # the potential at several radii as one family, as verify's growth fit
    # takes it at 9
    calls = _recording_quad(monkeypatch)
    family = alone(newton_potential(density, radii, **kw))
    each = [alone(newton_potential(density, [R], **kw)) for R in radii]
    n = len(radii)
    assert len(calls) == n + 1 and [k for _, _, k in calls] == [n] + [1] * n
    assert _members(calls[0]) == [_members(call)[0] for call in calls[1:]]
    assert family.shape == (n,) and all(z.shape == (1,) for z in each)
    assert [v.hex() for v in family.tolist()] == [z[0].hex() for z in each]
    # no radii: an empty family, and an empty array
    assert alone(newton_potential(density, [], **kw)).shape == (0,)


def test_members_that_need_different_rounds_keep_their_own_bits(monkeypatch):
    # the bubble family's members take 4 and 5 rounds; these take 1 to many
    k = np.array([0.0, 3.0, 40.0, 1.0, 200.0])
    f = lambda x, member: np.exp(-x) * np.sin(k[member] * x) + x * x
    edges = [[0.0, 3.0], [0.0, 1.0, 3.0], [0.0, 3.0], [-1.0, 0.5, 2.0, 3.0], [0.0, 0.25]]
    calls = _recording_quad(monkeypatch)
    from vortexmf import blowup

    blowup.quad(f, edges)
    for m, e in enumerate(edges):
        blowup.quad(lambda x, member: f(x, np.full_like(member, m)), [e])
    family = _members(calls[0])
    assert family == [_members(call)[0] for call in calls[1:]]
    assert len({rounds for *_, rounds in family}) >= 3


def test_verify_gathers_six_jobs_of_one_request_each(monkeypatch):
    # each job yields one (fn, members) request, members a list of
    # (a, b, breakpoints) triples, and returns when it is sent its values
    from vortexmf import cli

    requests = []

    def watched(job):
        request = next(job)
        requests.append(request)
        values = yield request
        with pytest.raises(StopIteration) as done:
            job.send(values)
        return done.value.value

    monkeypatch.setattr(cli, "gather", lambda jobs: gather([watched(job) for job in jobs]))
    assert all(check["passed"] for check in cli.verify_checks(1.0))
    assert len(requests) == 6
    for request in requests:
        fn, members = request
        assert callable(fn) and type(members) is list and members
        for a, b, breakpoints in members:
            assert 0.0 <= a < b and all(type(p) is float for p in breakpoints)
    assert [len(members) for _, members in requests] == [1, 1, 1, 1, 9, 9]


def test_verify_is_one_family_whose_members_keep_the_bits_they_get_alone(monkeypatch):
    # verify's 22 integrals, over [0, 1e6], [0, 1e4] and [0, 10] with five
    # integrands, in one quadrature; each again alone through its helper
    from vortexmf import cli

    calls = _recording_quad(monkeypatch)
    cli.verify_checks(1.0)
    assert len(calls) == 1 and calls[0][2] == 22
    (_, _, info), rounds, _ = calls[0]
    assert [r.size for r in rounds] == [49, 24, 22, 22, 8] and info["neval"] == 2625 == 21 * 125
    fit_rs = np.geomspace(1e2, 1e4, 9)
    u = lambda r: liouville_bubble(1.0, 8.0, r) + 2.0 * math.log(1.0)
    source = lambda t: 8.0 * np.exp(t)
    radial_integral(lambda r, m: bubble_density(r) * r, [(0.0, 1e6, ())])
    alone(mass_gamma(bubble_density, 1e4))
    alone(pohozaev_residual(u, source, 10.0))
    alone(pohozaev_residual(lambda r: 0.7, source, 10.0))
    for R in fit_rs:
        alone(newton_potential(bubble_density, [R]))
    for R in fit_rs:
        alone(newton_potential(DISK, [R], breakpoints=[1.0]))
    assert len(calls) == 23 and all(n == 1 for *_, n in calls[1:])
    assert _members(calls[0]) == [_members(call)[0] for call in calls[1:]]


@pytest.mark.parametrize(
    "bad, error",
    [(lambda r: np.where(r > 0.75, math.inf, 1.0), OverflowError), (lambda r: 1.0 / r, RuntimeError)],
    ids=["inf", "one-over-r"],
)
def test_a_failing_batch_throws_the_error_into_the_job_whose_request_fails_alone(bad, error):
    thrown = []

    def job(name, fn, b):
        try:
            return (yield (lambda r, member: fn(r)), [(0.0, b, [0.5])])
        except error:
            thrown.append(name)
            raise

    newton = newton_potential(bubble_density, [1.0, 2.0])
    with pytest.raises(error) as batch:
        gather([job("first", lambda r: r, 2.0), job("bad", bad, 1.0), newton, job("last", bad, 1.0)])
    with pytest.raises(error) as by_itself:
        radial_integral(lambda r, m: bad(r), [(0.0, 1.0, [0.5])])
    assert thrown == ["bad"] and str(batch.value) == str(by_itself.value)


def test_a_batch_returns_what_each_job_returns_alone():
    def job(fn, b):
        (value,) = yield fn, [(0.0, b, ())]
        return 2.0 * value

    newton = newton_potential(bubble_density, [1.0, 2.0])
    got = gather([mass_gamma(bubble_density, 1e4), job(lambda r, m: r, 3.0), newton])
    mass = alone(mass_gamma(bubble_density, 1e4))
    assert got[0].hex() == mass.hex() and type(got[0]) is type(mass)
    assert got[1].hex() == (2.0 * radial_integral(lambda r, m: r, [(0.0, 3.0, ())])[0]).hex()
    by_itself = alone(newton_potential(bubble_density, [1.0, 2.0]))
    assert [v.hex() for v in got[2].tolist()] == [v.hex() for v in by_itself.tolist()]
    assert gather([]) == []


def test_kronrod_gives_each_interval_the_bits_it_gets_alone():
    # a matrix-vector product's bits depend on the number of rows; the
    # estimates' row-wise reductions do not
    rng = np.random.default_rng(60)
    for n in range(1, 61):
        lo = rng.uniform(-5.0, 5.0, n)
        hi = lo + rng.uniform(1e-6, 3.0, n) * 10.0 ** rng.integers(-3, 2, n)
        scale = 10.0 ** rng.uniform(-8.0, 8.0, n)
        f = lambda x, member: scale[member] * np.exp(-x * x) * np.cos(7.0 * x) + np.sqrt(np.abs(x))
        values, errors = _kronrod(f, lo.tolist(), hi.tolist(), np.arange(n)[:, None])
        for i in range(n):
            v, e = _kronrod(f, [lo[i]], [hi[i]], np.array([[i]]))
            assert (v[0].hex(), e[0].hex()) == (values[i].hex(), errors[i].hex()), (n, i)


def test_kronrod_is_the_per_interval_rule_bit_for_bit():
    # the column sums and the error estimate's array steps against qk21 one
    # interval at a time, in Python floats; integrands over many scales,
    # constant ones (no variation about the mean) and zero ones (no error)
    rng = np.random.default_rng(41)
    shapes = (
        lambda x: np.exp(-x * x) * np.cos(7.0 * x) + np.sqrt(np.abs(x)),
        lambda x: np.sin(40.0 * x) / (1.0 + x * x),
        lambda x: np.ones_like(x),
        lambda x: np.zeros_like(x),
        lambda x: np.where(x < 0.3, 1.0, -2.0),
    )
    for n in (1, 2, 8, 49, 125):
        for shape in shapes:
            lo = rng.uniform(-5.0, 5.0, n)
            hi = lo + rng.uniform(1e-6, 3.0, n) * 10.0 ** rng.integers(-3, 2, n)
            scale = 10.0 ** rng.uniform(-320.0, 300.0, n)
            f = lambda x, member: scale[member] * shape(x)
            got = _kronrod(f, lo.tolist(), hi.tolist(), np.arange(n)[:, None])
            want = oracles.kronrod_per_interval(f, lo.tolist(), hi.tolist(), np.arange(n)[:, None])
            assert [[v.hex() for v in part] for part in got] == [[v.hex() for v in part] for part in want]


BAD_INTEGRANDS = pytest.mark.parametrize(
    "fn, error, match",
    [
        (lambda r: np.full_like(r, math.nan), OverflowError, "^integrand is not finite at r = "),
        (lambda r: np.where(r < 0.5, math.inf, 1.0), OverflowError, "^integrand is not finite at r = "),
        (lambda r: 1.0 / r, RuntimeError, "did not converge within 400 intervals"),
    ],
    ids=["nan", "inf", "one-over-r"],
)


@BAD_INTEGRANDS
def test_bad_integrands_raise_and_do_not_hang(fn, error, match):
    with pytest.raises(error, match=match):
        radial_integral(lambda r, m: fn(r), [(0.0, 1.0, ())])


@BAD_INTEGRANDS
def test_a_bad_member_raises_after_a_good_one(fn, error, match):
    with pytest.raises(error, match=match):
        radial_integral(lambda r, member: np.where(member == 1, fn(r), 1.0), [(0.0, 1.0, ())] * 2)


def test_quadrature_of_a_nan_integrand_ends_at_the_interval_limit():
    with pytest.raises(RuntimeError, match="did not converge"):
        quad(lambda x, member: np.full_like(x, math.nan), [[0.0, 1.0]])


def test_a_member_past_the_limit_raises():
    # the other members converge; the one with 1/x on [0, 1] needs more
    # than the limit allows
    f = lambda x, member: np.where(member == 2, 1.0 / x, x)
    with pytest.raises(RuntimeError, match=f"^quadrature did not converge within {QUAD_LIMIT} intervals"):
        quad(f, [[0.0, 1.0], [0.0, 2.0], [0.0, 1.0]])
    values, _, _ = quad(f, [[0.0, 1.0], [0.0, 2.0]])
    assert values == pytest.approx([0.5, 2.0], rel=1e-14)


def test_a_non_finite_member_names_its_radius():
    fn = lambda r: np.where(r > 0.75, math.inf, 1.0)
    with pytest.raises(OverflowError) as by_itself:
        radial_integral(lambda r, m: fn(r), [(0.0, 1.0, [0.5])])
    with pytest.raises(OverflowError) as member:
        radial_integral(lambda r, m: np.where(m == 1, fn(r), 1.0), [(0.0, 1.0, [0.5])] * 2)
    assert str(member.value) == str(by_itself.value)
    assert float(str(by_itself.value).rpartition("= ")[2]) > 0.75


def test_verify_integrals_match_quadpack(monkeypatch):
    # every integral of the oracle suite against scipy's QUADPACK on the same
    # substitution u = log1p(r), each member of the family on its own
    from scipy.integrate import quad as quadpack

    from vortexmf import blowup, cli

    pairs, calls = [], []

    def recorded(fn, members):
        values = radial_integral(fn, members)
        calls.append(len(values))
        for m, ((a, b, row), v) in enumerate(zip(members, values)):
            # the integrand takes (intervals x 21) radii and (intervals x 1) members
            member = lambda r, m=m: fn(np.reshape(r, (1, 1)), np.array([[m]]))[0, 0]
            g = lambda u: float(member(math.expm1(u))) * math.exp(u)
            points = sorted(math.log1p(p) for p in row if a < p < b) or None
            ref = quadpack(g, math.log1p(a), math.log1p(b), epsabs=0.0, epsrel=1e-10, limit=400, points=points)[0]
            pairs.append((v, ref))
        return values

    monkeypatch.setattr(blowup, "radial_integral", recorded)
    assert all(check["passed"] for check in cli.verify_checks(1.0))
    # one family of 22 members: four integrals alone, and the Newton
    # potentials at 9 radii per density
    assert calls == [22] and len(pairs) == 22
    for value, ref in pairs:
        assert value == pytest.approx(ref, rel=1e-12)


def test_radial_integral_bounds_validation():
    with pytest.raises(ValueError):
        radial_integral(lambda r, m: r, [(-1.0, 2.0, ())])
    with pytest.raises(ValueError):
        radial_integral(lambda r, m: r, [(3.0, 3.0, ())])


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
        (half,) = radial_integral(lambda r, m: bubble_density(r, mu=mu) * r, [(0.0, 1e6, ())])
        mass = 2.0 * math.pi * half
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
    gamma = alone(mass_gamma(bubble_density, 1e4))
    assert gamma == pytest.approx(4.0, abs=1e-6)
    # pi gamma^2 = 2 lambda_bar(delta_1) ties the mass to the coupling
    assert math.pi * gamma * gamma == pytest.approx(2.0 * EIGHT_PI, rel=1e-9)


def test_concentration_mass_edge_cases():
    assert alone(mass_gamma(lambda r: 0.0, 10.0)) == 0.0
    base = alone(mass_gamma(bubble_density, 1e4))
    doubled = alone(mass_gamma(lambda r: 2.0 * bubble_density(r), 1e4))
    assert doubled == pytest.approx(2.0 * base, rel=1e-10)
    with pytest.raises(ValueError):
        alone(mass_gamma(bubble_density, -1.0))
    with pytest.raises(ValueError):
        alone(mass_gamma(lambda r: -1.0, 10.0))
    with pytest.raises(RuntimeError, match="not decreasing"):
        alone(mass_gamma(lambda r: 1.0 / (1.0 + r * r), 1e4))
    with pytest.raises(RuntimeError, match="does not converge"):
        alone(mass_gamma(lambda r: 1.0 / np.maximum(r, 1.0) ** 2, 1e4))


# ------------------------------------------------------------------ profiles


def test_bubble_profile_sigma_and_samples():
    radii = np.geomspace(1e-2, 3e4, 600)
    prof = bubble_profile(1.0, 8.0, radii, alpha=1.0)
    assert prof.sigma == 1.0
    assert prof.peak_value == 0.0
    assert prof.radii.shape == prof.dw.shape == (600,)
    assert np.all(prof.dw <= 0.0)
    with pytest.raises(ValueError):
        bubble_profile(1.0, 8.0, radii, alpha=1.5)
    with pytest.raises(ValueError):
        bubble_profile(1.0, 8.0, [-1.0, 2.0], alpha=1.0)


def test_profile_validation():
    with pytest.raises(ValueError, match="increasing"):
        BlowupProfile(0.0, np.array([2.0, 1.0]), np.array([-1.0, -2.0]), 4.0)
    with pytest.raises(ValueError, match="peak"):
        BlowupProfile(0.0, np.array([1.0]), np.array([0.5]), 4.0)
    with pytest.raises(ValueError, match="one value per sample"):
        BlowupProfile(0.0, np.array([1.0, 2.0]), np.array([-1.0]), 4.0)


def test_li_slope_on_exact_line():
    radii = np.geomspace(0.1, 100.0, 50)
    dw = -4.0 * np.log1p(radii)
    prof = BlowupProfile(0.0, radii, dw, 4.0)
    slope, intercept = fit_li_line(prof, (0.5, 50.0))
    assert slope == pytest.approx(4.0, rel=1e-12)
    assert abs(intercept) <= 1e-12
    flat = BlowupProfile(0.0, radii, np.zeros(50), 4.0)
    assert fit_li_slope(flat, (0.5, 50.0)) == 0.0


def test_li_fit_window_validation():
    radii = np.geomspace(0.1, 100.0, 50)
    dw = -4.0 * np.log1p(radii)
    prof = BlowupProfile(0.0, radii, dw, 4.0)
    with pytest.raises(ValueError, match="lo < hi"):
        fit_li_slope(prof, (5.0, 5.0))
    with pytest.raises(ValueError, match="lo < hi"):
        fit_li_slope(prof, (-1.0, 5.0))
    with pytest.raises(ValueError, match="at least"):
        fit_li_slope(prof, (99.0, 100.0))


def test_li_slope_far_field_window():
    radii = np.geomspace(1e-2, 3e4, 600)
    assert fit_li_slope(bubble_profile(1.0, 8.0, radii, alpha=1.0), (1e2, 1e4)) == pytest.approx(
        4.0, rel=0.02
    )
    assert fit_li_slope(bubble_profile(1.0, 8.0, radii, alpha=0.5), (1e2, 1e4)) == pytest.approx(
        2.0, rel=0.02
    )


def test_li_slope_near_field_window_overshoots():
    # between 3 and 30 sigma the core still bends the line upward; the
    # fitted slope sits measurably above the far-field value 4
    radii = np.geomspace(1e-2, 3e4, 600)
    slope = fit_li_slope(bubble_profile(1.0, 8.0, radii, alpha=1.0), (3.0, 30.0))
    assert 4.1 < slope < 4.6


def test_default_fit_window_torus_cap():
    assert default_fit_window(0.001, side_length=1.0) == (3.0, 30.0)
    assert default_fit_window(0.01, side_length=1.0) == (3.0, 25.0)
    assert default_fit_window(1.0, side_length=1.0) == (3.0, 0.25)


def test_rescale_profile_recovers_radial_law():
    # plant an exact radial field and read its profile back through binning
    T = SpectralTorus(1.0, 128)
    s = 1.0 / 32.0
    r = periodic_distance(T, (64, 64))
    v = synthetic_v(T, -2.0 * np.log1p((r / s) ** 2))
    P = new_atomic([(1.0, 1.0)])
    prof = rescale_profile(T, P, spike_grid(T, v), "positive")
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
    v = synthetic_v(T, gaussian_bump(T, (16, 16), 10.0, 0.05))
    assert rescale_profile(T, new_atomic(pairs), spike_grid(T, v), "positive").gamma0_reference == gamma0


@pytest.mark.parametrize("seed", range(20))
def test_the_negative_side_reads_the_mirror_image_reference_bit_for_bit(seed):
    # gamma0 of P's negative side is that of the positive side of the
    # mirrored measure alpha -> -alpha, bit for bit: its tail is P's
    # negative one in the same order, and fsum rounds correctly.  The
    # two-atom measure is the CLI's negative profile, gamma0 = 4 / 0.75
    T = SpectralTorus(1.0, 32)
    v = synthetic_v(T, gaussian_bump(T, (16, 16), 10.0, 0.05))
    rng = np.random.default_rng(seed)
    P = new_atomic([(-1.0, 0.5), (-0.5, 0.5)]) if seed == 0 else random_measure(rng)
    mirrored = CirculationMeasure(tuple((-a, w) for a, w in reversed(P.atoms)))
    if all(a >= 0.0 for a, _ in P.atoms):
        with pytest.raises(ValueError, match="negative circulation"):
            rescale_profile(T, P, spike_grid(T, v), "negative")
        return
    got = rescale_profile(T, P, spike_grid(T, v), "negative").gamma0_reference
    assert got.hex() == rescale_profile(T, mirrored, spike_grid(T, v), "positive").gamma0_reference.hex()
    if seed == 0:
        assert got == 5.333333333333333


def test_rescale_profile_flat_field():
    T = SpectralTorus(1.0, 64)
    v = synthetic_v(T, np.zeros((64, 64)))
    prof = rescale_profile(T, new_atomic([(1.0, 1.0)]), spike_grid(T, v), "positive")
    assert prof.sigma == 1.0
    assert np.all(prof.dw == 0.0)
    # L/4 = 0.25 sigma: the default window is empty, and the stage writes nan
    # (tests/test_cli.py::test_a_profiled_stage_writes_the_default_window_fit)
    with pytest.raises(ValueError, match="lo < hi"):
        fit_li_line(prof, default_fit_window(prof.sigma, T.side_length))


def test_rescale_profile_validation():
    T = SpectralTorus(1.0, 64)
    v = synthetic_v(T, np.zeros((64, 64)))
    with pytest.raises(ValueError, match="positive circulation"):
        rescale_profile(T, new_atomic([(-1.0, 1.0)]), spike_grid(T, v), "positive")
    spike = synthetic_v(T, gaussian_bump(T, (32, 32), 30.0, 0.05))
    for field in (v, spike):  # the spike's peak lies outside the 32^2 grid
        with pytest.raises(ValueError, match="grid"):
            rescale_profile(SpectralTorus(1.0, 32), new_atomic([(1.0, 1.0)]), spike_grid(T, field), "positive")


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
        profile = rescale_profile(T, P, spike_grid(T, result.v), "positive")
        runs[side] = result, profile, fit_li_slope(profile, default_fit_window(profile.sigma, side))
    (unit, unit_prof, unit_slope), (double, double_prof, double_slope) = runs[1.0], runs[2.0]
    assert double.iterations == unit.iterations
    assert double.J_value - unit.J_value == pytest.approx(-2.0 * lam * math.log(2.0), rel=1e-12)
    assert unit.residual_norm / double.residual_norm == pytest.approx(4.0, rel=1e-9)
    assert double_prof.sigma / unit_prof.sigma == pytest.approx(2.0, rel=1e-12)
    assert math.isfinite(unit_slope)
    assert double_slope == pytest.approx(unit_slope, rel=1e-9)


# ----------------------------------------------------------------- Pohozaev


def test_pohozaev_balance_on_bubble():
    w = lambda r: liouville_bubble(1.0, 8.0, r)
    rep = alone(pohozaev_residual(w, lambda t: 8.0 * np.exp(t), 10.0))
    assert rep.relative_residual <= 1e-6
    expected = abs(rep.lhs - rep.rhs) / (1.0 + abs(rep.lhs) + abs(rep.rhs))
    assert rep.relative_residual == expected


def test_pohozaev_boundary_term_limit():
    # as R grows the boundary kinetic term approaches -2 lambda_bar = -16 pi
    w = lambda r: liouville_bubble(1.0, 8.0, r)
    rep = alone(pohozaev_residual(w, lambda t: 8.0 * np.exp(t), 500.0))
    assert abs(rep.lhs + 16.0 * math.pi) <= 1e-3


def test_pohozaev_constant_field_is_exact():
    rep = alone(pohozaev_residual(lambda r: 0.7, np.exp, 3.0))
    assert rep.lhs == 0.0
    assert rep.relative_residual <= 1e-12


def test_pohozaev_detects_non_solution():
    # shifting the bubble amplitude breaks the equation, not just its scale
    w = lambda r: liouville_bubble(1.0, 8.0, r) + 2.0 * math.log(2.0)
    rep = alone(pohozaev_residual(w, lambda t: 8.0 * np.exp(t), 10.0))
    assert rep.relative_residual >= 0.1


def test_pohozaev_rejects_bad_radius():
    with pytest.raises(ValueError):
        alone(pohozaev_residual(lambda r: 0.0, np.exp, 0.0))


# ----------------------------------------------------------- Newton potential


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "name, call",
    [
        ("mu", lambda x: liouville_bubble(x, 8.0, 1.0)),
        ("lam", lambda x: liouville_bubble(1.0, x, 1.0)),
        ("x_abs", lambda x: alone(newton_potential(bubble_density, [x]))),
        ("r_max", lambda x: alone(mass_gamma(bubble_density, x))),
        ("radius", lambda x: alone(pohozaev_residual(lambda r: 0.0, np.exp, x))),
    ],
)
def test_radial_parameters_must_be_positive_and_finite(name, call, bad):
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
        call(bad)


def test_newton_potential_zero_density():
    assert alone(newton_potential(lambda r: 0.0, [10.0])).tolist() == [0.0]


def test_newton_potential_doubling_matches_mass():
    # z(2R) - z(R) -> gamma log 2 with gamma = (1/2pi) int f
    disk = lambda r: np.where(r <= 1.0, 2.0, 0.0)
    gamma = alone(mass_gamma(disk, 2.0))
    assert gamma == pytest.approx(1.0, rel=1e-9)
    for R in (100.0, 400.0):
        z_r, z_2r = alone(newton_potential(disk, [R, 2.0 * R], breakpoints=[1.0]))
        assert abs(z_2r - z_r - gamma * math.log(2.0)) <= 0.01


def test_newton_potential_guards():
    with pytest.raises(ValueError):
        alone(newton_potential(lambda r: 0.0, [-1.0]))
    with pytest.raises(RuntimeError, match="tail"):
        alone(newton_potential(lambda r: 1.0 / (1.0 + r), [10.0]))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_newton_potential_checks_every_radius(bad):
    for x_abs in ([bad, 10.0], [10.0, bad], np.array([10.0, 20.0, 30.0, bad])):
        with pytest.raises(ValueError, match="^x_abs must be positive and finite$"):
            alone(newton_potential(bubble_density, x_abs))


def test_newton_potential_applies_the_tail_guard_per_radius():
    # 2 / (1 + r)^3 stretched by 1e3 at the same mass: the probe
    # |f(rho_max)| rho_max^2 at rho_max = 1e6, about 2.0e-3, against
    # 1e-3 (1 + |z(x)|): z(1e5) is about 3.6 and passes, z(3e3) about 0.64
    # and fails
    assert NEWTON_RHO_MAX == 1e6
    density = lambda r: 2e-6 / (1.0 + 1e-3 * r) ** 3
    (far,) = alone(newton_potential(density, [1e5]))
    with pytest.raises(RuntimeError, match="tail"):
        alone(newton_potential(density, [3e3]))
    assert alone(newton_potential(density, [1e5, 1e5])).tolist() == [far, far]
    with pytest.raises(RuntimeError, match="tail"):
        alone(newton_potential(density, [1e5, 3e3]))

