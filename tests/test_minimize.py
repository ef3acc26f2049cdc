"""Trust-region Newton-CG: convergence, traces, continuation, concentration."""

import importlib
import math

import numpy as np
import pytest

from helpers import energy, even, gaussian_bump, hessian_field, residual, synthetic_result
from oracles import J_per_atom, hessian_product_per_atom, translate
from vortexmf.functional import Partitions, Problem, el_residual, hessian_product
from vortexmf.measure import lambda_bar, new_atomic
from vortexmf.minimize import (
    MinimizeOptions,
    blowup_threshold,
    center_bump,
    continuation_sweep,
    detect_concentration,
    minimize,
    mirror_image,
    random_zero_mean,
    stage_problems,
)
from vortexmf.torus import (
    Field,
    SpectralTorus,
    cosine_transform,
    even_inner,
    gradient_inner,
    integrate,
    project_zero_mean,
    quarter,
    solve_poisson_zero_mean,
    unfold,
)

minimize_module = importlib.import_module("vortexmf.minimize")
functional_module = importlib.import_module("vortexmf.functional")

EIGHT_PI = 8.0 * math.pi


def delta_one():
    return new_atomic([(1.0, 1.0)])


def sweep(T, P, schedule, opts):
    return continuation_sweep(stage_problems(T, P, schedule), opts)


def test_options_validation():
    with pytest.raises(ValueError):
        MinimizeOptions(max_iters=0)
    with pytest.raises(ValueError):
        MinimizeOptions(grad_tol=-1.0)
    with pytest.raises(ValueError):
        MinimizeOptions(seed=-1)


def test_zero_start_is_stationary():
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, delta_one(), 0.5 * EIGHT_PI)
    zero = Field(np.zeros((32, 32)))
    res = minimize(prob, MinimizeOptions(), warm_start=zero)
    assert res.iterations == 0
    assert res.J_value == 0.0
    assert res.residual_norm == 0.0
    assert res.status == "converged"


def test_converges_from_random_start():
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, delta_one(), 0.5 * EIGHT_PI)
    res = minimize(prob, MinimizeOptions())
    assert res.status == "converged"
    assert res.iterations > 0
    assert res.residual_norm <= 1e-8
    # below the extremal coupling the flat state is the minimizer
    assert abs(res.J_value) <= 1e-12
    assert np.abs(res.v.values).max() <= 1e-8


def test_warm_restart_terminates_immediately():
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, delta_one(), 0.5 * EIGHT_PI)
    first = minimize(prob, MinimizeOptions())
    again = minimize(prob, MinimizeOptions(), warm_start=first.v)
    assert again.iterations == 0
    # the warm start is taken with its mean subtracted, which moves only rounding bits
    assert np.array_equal(again.v.values, project_zero_mean(T, first.v).values)


def test_warm_start_validation():
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, delta_one(), 1.0)
    # a constant is the flat state: a ones warm start ends like the zero field
    zero = minimize(prob, MinimizeOptions(), warm_start=Field(np.zeros((32, 32))))
    ones = minimize(prob, MinimizeOptions(), warm_start=Field(np.ones((32, 32))))
    assert ones.iterations == zero.iterations == 0
    assert ones.J_value == pytest.approx(zero.J_value, abs=1e-15)
    assert ones.residual_norm <= 1e-12
    assert ones.status == "converged"
    # the warm start is taken with its mean subtracted
    assert np.array_equal(ones.v.values, np.zeros((32, 32)))
    wrong = Field(np.zeros((64, 64)))
    with pytest.raises(ValueError, match="grid"):
        minimize(prob, MinimizeOptions(), warm_start=wrong)


def test_minimize_is_deterministic():
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, delta_one(), 0.7 * EIGHT_PI)
    a = minimize(prob, MinimizeOptions(seed=3))
    b = minimize(prob, MinimizeOptions(seed=3))
    assert a.iterations == b.iterations
    assert a.J_value == b.J_value
    assert np.array_equal(a.v.values, b.v.values)


def test_schedule_validation():
    T = SpectralTorus(1.0, 32)
    P = delta_one()
    opts = MinimizeOptions()
    with pytest.raises(ValueError, match="empty"):
        stage_problems(T, P, [])
    with pytest.raises(ValueError, match="ascending"):
        stage_problems(T, P, [1.0, 1.0])
    with pytest.raises(ValueError, match="positive"):
        stage_problems(T, P, [-2.0, -1.0])
    problems = stage_problems(T, P, [0.5 * EIGHT_PI, 1.5 * EIGHT_PI])
    assert [p.lam for p in problems] == [0.5 * EIGHT_PI, 1.5 * EIGHT_PI]
    assert all(p.torus is T and p.P is P for p in problems)
    past_bar = sweep(T, P, [1.5 * EIGHT_PI], MinimizeOptions(max_iters=1))
    assert len(past_bar) == 1


def test_sweep_stagewise_convergence():
    T = SpectralTorus(1.0, 32)
    results = sweep(
        T, delta_one(), [f * EIGHT_PI for f in (0.3, 0.5, 0.9)], MinimizeOptions()
    )
    assert len(results) == 3
    for r in results:
        assert r.status == "converged"
        assert r.residual_norm <= 1e-8
    j_vals = [r.J_value for r in results]
    assert all(b <= a + 1e-12 for a, b in zip(j_vals, j_vals[1:]))


def test_single_stage_sweep_matches_minimize():
    T = SpectralTorus(1.0, 32)
    lam = 0.4 * EIGHT_PI
    opts = MinimizeOptions(seed=2)
    swept = sweep(T, delta_one(), [lam], opts)
    direct = minimize(Problem(T, delta_one(), lam), opts)
    assert len(swept) == 1
    assert swept[0].iterations == direct.iterations
    assert np.array_equal(swept[0].v.values, direct.v.values)


def test_center_bump_is_built_once_and_only_for_a_second_stage(monkeypatch):
    calls = []
    real = minimize_module.center_bump
    monkeypatch.setattr(minimize_module, "center_bump", lambda T: calls.append(T) or real(T))
    T = SpectralTorus(1.0, 32)
    sweep(T, delta_one(), [1.0], MinimizeOptions())
    assert calls == []
    sweep(T, delta_one(), [1.0, 2.0, 3.0], MinimizeOptions())
    assert len(calls) == 1


def test_sweep_stops_after_blowup_stage():
    T = SpectralTorus(1.0, 32)
    opts = MinimizeOptions(blowup_peak_threshold=0.001)
    results = sweep(T, delta_one(), [1.0, 2.0, 3.0], opts)
    assert len(results) == 1
    assert results[0].status == "blown_up"


def test_blowup_guard_on_warm_start():
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, delta_one(), 1.0)
    tall = project_zero_mean(T, Field(gaussian_bump(T, (16, 16), 26.0, 0.1)))
    res = minimize(prob, MinimizeOptions(), warm_start=tall)
    assert res.status == "blown_up"
    assert res.iterations == 0
    assert res.peak_value >= 25.0


def test_blowup_reached_dynamically():
    # beyond the extremal coupling the energy is unbounded below and the
    # iterates sharpen; the peak guard must stop the run
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, delta_one(), 2.0 * EIGHT_PI)
    warm = project_zero_mean(T, Field(gaussian_bump(T, (16, 16), 4.0, 0.125)))
    opts = MinimizeOptions(blowup_peak_threshold=5.0)
    res = minimize(prob, opts, warm_start=warm)
    assert res.status == "blown_up"
    assert res.iterations > 0
    assert res.peak_value >= 5.0


def test_blowup_threshold_grows_with_the_grid_beyond_64():
    opts = MinimizeOptions()
    for n in (16, 32, 64):
        assert blowup_threshold(opts, SpectralTorus(1.0, n)) == 25.0
    assert blowup_threshold(opts, SpectralTorus(1.0, 128)) == pytest.approx(25.0 + 4.0 * math.log(2.0), rel=1e-15)
    assert blowup_threshold(opts, SpectralTorus(1.0, 512)) == pytest.approx(25.0 + 12.0 * math.log(2.0), rel=1e-15)
    # a start with a peak of 26 stops a 64^2 run at once; a 128^2 run takes its step
    for n, status, iterations in ((64, "blown_up", 0), (128, "budget", 1)):
        T = SpectralTorus(1.0, n)
        tall = project_zero_mean(T, Field(gaussian_bump(T, (n // 2, n // 2), 26.0, 0.1)))
        assert 25.0 <= tall.values.max() < 25.0 + 4.0 * math.log(2.0)
        res = minimize(Problem(T, delta_one(), 1.0), MinimizeOptions(max_iters=1), warm_start=tall)
        assert (res.status, res.iterations) == (status, iterations)


def test_blowup_guard_sees_negative_spikes():
    # delta_{-1} concentrates into a negative spike; past lambda_bar it must
    # stop blown up like its mirror delta_1 instead of converging onto it
    T = SpectralTorus(1.0, 32)
    probs = [Problem(T, new_atomic([(a, 1.0)]), 2.0 * EIGHT_PI) for a in (1.0, -1.0)]
    runs = [minimize(prob, MinimizeOptions()) for prob in probs]
    assert [r.status for r in runs] == ["blown_up", "blown_up"]
    assert [r.iterations for r in runs] == [11, 11]
    assert runs[0].v.values.max() >= 25.0
    assert runs[1].v.values.min() <= -25.0


@pytest.mark.parametrize("status", ["converged", "blown_up", "budget", "diverged"])
def test_minimize_reports_how_it_ended(monkeypatch, status):
    T = SpectralTorus(1.0, 32)
    atom, fraction, opts = {
        "converged": (1.0, 0.5, MinimizeOptions()),
        "blown_up": (-1.0, 2.0, MinimizeOptions()),
        "budget": (1.0, 0.5, MinimizeOptions(max_iters=2)),
        "diverged": (1.0, 0.5, MinimizeOptions()),
    }[status]
    if status == "diverged":
        monkeypatch.setattr(minimize_module._EnergyDelta, "__call__", lambda self: 1.0)
    res = minimize(Problem(T, new_atomic([(atom, 1.0)]), fraction * EIGHT_PI), opts)
    assert res.status == status
    assert (res.residual_norm <= opts.grad_tol) == (status == "converged")
    if status in ("budget", "diverged"):
        assert res.iterations == (2 if status == "budget" else minimize_module.MAX_REJECTIONS)
    assert res.peak_value == res.v.values.max() == res.v.values[res.peak_point]


def test_sweep_stops_after_a_diverged_stage(monkeypatch):
    real = minimize_module._EnergyDelta.__call__
    monkeypatch.setattr(
        minimize_module._EnergyDelta, "__call__", lambda self: 1.0 if self.prob.lam > 10 else real(self)
    )
    T = SpectralTorus(1.0, 32)
    results = sweep(T, delta_one(), [f * EIGHT_PI for f in (0.3, 0.6, 0.9)], MinimizeOptions())
    assert [r.status for r in results] == ["converged", "diverged"]


def test_sweep_goes_on_after_a_budget_stage():
    T = SpectralTorus(1.0, 32)
    results = sweep(T, delta_one(), [1.0, 2.0], MinimizeOptions(max_iters=1))
    assert [r.status for r in results] == ["budget", "budget"]


def _signed_three_atom_move():
    T = SpectralTorus(1.0, 32)
    P = new_atomic([(-1.0, 0.3), (0.5, 0.3), (1.0, 0.4)])
    # a strong coupling, so the partition terms carry a large share of the difference
    prob = Problem(T, P, 3000.0)
    v = even(T, random_zero_mean(T, 4, amplitude=1.0))
    d = even(T, random_zero_mean(T, 5, amplitude=1.0))
    # largest exponent increment -s a d over the atoms, per unit step
    u_per_step = max(float((-a * d.values).max()) for a, _ in P.atoms)
    return prob, v, d, u_per_step


def _energy_delta(prob, v, d):
    """The trust region's energy difference J(v - d) - J(v) for the even
    field d, taken at its quarter-cell nodes, with the partitions
    el_residual hands out at v."""
    partitions = Partitions(prob)
    residual(prob, v, partitions)
    return minimize_module._EnergyDelta(prob, quarter(prob.torus, d.values), partitions)


@pytest.mark.parametrize("max_u", [1.0, 10.0, 40.0, 100.0, 300.0, 600.0])
def test_energy_delta_matches_direct_difference(max_u):
    prob, v, d, u_per_step = _signed_three_atom_move()
    s = max_u / u_per_step
    step = Field(s * d.values)
    direct = energy(prob, Field(v.values - step.values)) - energy(prob, v)
    assert _energy_delta(prob, v, step)() == pytest.approx(direct, rel=1e-12)


def test_energy_delta_past_exp_overflow_raises():
    prob, v, d, u_per_step = _signed_three_atom_move()
    with pytest.raises(OverflowError, match="partition exponent out of range"):
        _energy_delta(prob, v, Field((800.0 / u_per_step) * d.values))()


def test_energy_delta_bilinear_terms_match_gradient_inner():
    # bit for bit the Parseval sums of the cosine modes, and the full-grid
    # forms to rounding
    prob, v, d, _ = _signed_three_atom_move()
    T = prob.torus
    delta = _energy_delta(prob, v, d)
    v_hat, d_hat = cosine_transform(T, quarter(T, v.values)), cosine_transform(T, quarter(T, d.values))
    assert delta.a_vd == even_inner(T, v_hat, d_hat)
    assert delta.a_dd == even_inner(T, d_hat, d_hat)
    assert delta.a_vd == pytest.approx(gradient_inner(T, v, d), rel=1e-13)
    assert delta.a_dd == pytest.approx(gradient_inner(T, d, d), rel=1e-13)


def _bump(T, center, height, width):
    """A Gaussian of the given height and width, in cells, about a center
    that need not be a grid node."""
    x, y = np.meshgrid(np.arange(T.grid_n), np.arange(T.grid_n), indexing="ij")
    half = T.grid_n // 2
    dx = (x - center[0] + half) % T.grid_n - half
    dy = (y - center[1] + half) % T.grid_n - half
    return height * np.exp(-(dx * dx + dy * dy) / (width * width))


def _spike_pair():
    """The signed pair at 0.99 lambda_bar on 32^2 with its spikes at the
    nodes (0, 0) and (16, 16), where the even fields hold them."""
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, new_atomic([(-1.0, 0.5), (1.0, 0.5)]), 0.99 * 2.0 * EIGHT_PI)
    v = _bump(T, (0, 0), 6.0, 1.5) - _bump(T, (16, 16), 6.0, 1.5)
    return prob, even(T, Field(v))


def test_a_roll_leaves_J_unchanged():
    # J is translation invariant: the per-atom J over the whole grid under
    # any roll, and the library's J under the half-period rolls, which keep
    # a field even about node (0, 0)
    prob, v = _spike_pair()
    j = energy(prob, v)
    assert J_per_atom(prob, v) == pytest.approx(j, rel=1e-13)
    for shift in ((1, 0), (0, -5), (7, 13)):
        assert J_per_atom(prob, Field(np.roll(v.values, shift, axis=(0, 1)))) == pytest.approx(j, rel=1e-13)
    for shift in ((16, 0), (0, 16), (16, 16)):
        assert energy(prob, Field(np.roll(v.values, shift, axis=(0, 1)))) == pytest.approx(j, rel=1e-13)


@pytest.mark.parametrize("height, width", [(5.0, 1.5), (6.0, 2.25), (8.0, 1.0)])
def test_energy_delta_of_a_reshaped_spike_pair_matches_the_direct_difference(height, width):
    # a large even move: both spikes of the pair change height or width
    prob, v = _spike_pair()
    T = prob.torus
    partitions = Partitions(prob)
    residual(prob, v, partitions)
    moved = even(T, Field(_bump(T, (0, 0), height, width) - _bump(T, (16, 16), height, width)))
    delta = minimize_module._EnergyDelta(prob, quarter(T, v.values - moved.values), partitions)()
    direct = energy(prob, moved) - energy(prob, v)
    assert abs(direct) > 0.1
    assert delta == pytest.approx(direct, rel=1e-12)


# every near-lambda_bar sweep the README and the benchmark run: seeds 0-15
# and one large seed
NEAR_BAR_SEEDS = [*range(16), 1020618426]
# the benchmark's references for the sweep's stages, at 0.8, 0.9, 0.99 and 1.0 lambda_bar
NEAR_BAR_J = (-0.0277757676703885, -2.01224677541211, -8.86560452194484, -21.7696018090033)


def _assert_even_converged(prob, res, reference):
    """The run converged to the reference J within 1e-9, and the J it
    recorded, J at the start plus the energy differences of its steps, is
    J at its final iterate within 1e-12; the iterate is even bit for bit."""
    r = prob.torus.reflection
    assert res.status == "converged"
    assert res.J_value == pytest.approx(reference, rel=1e-9)
    assert res.J_value == pytest.approx(energy(prob, res.v), rel=1e-12)
    assert np.array_equal(res.v.values, res.v.values[r]) and np.array_equal(res.v.values, res.v.values[:, r])


@pytest.mark.parametrize("seed", NEAR_BAR_SEEDS)
def test_the_near_bar_sweep_slides_onto_the_grid_without_crawling(seed):
    # on the whole grid the translations of the pair are the slow modes at
    # 0.99 lambda_bar on 64^2: the grid pins them, the Newton model is flat
    # along them, and steps crawl.  The even fields hold no translation, so
    # the stage takes few steps, and every seed lands on the same minimizer
    T = SpectralTorus(1.0, 64)
    P = new_atomic([(-1.0, 0.5), (1.0, 0.5)])
    problems = stage_problems(T, P, [f * 2.0 * EIGHT_PI for f in (0.8, 0.9, 0.99, 1.0)])
    results = continuation_sweep(problems, MinimizeOptions(seed=seed))
    assert len(results) == 4
    for prob, res, reference in zip(problems, results, NEAR_BAR_J):
        _assert_even_converged(prob, res, reference)
    stage = results[2]
    assert stage.iterations <= 11 and stage.hessian_products <= 33
    assert stage.J_value == pytest.approx(-8.86560452194484, rel=1e-12)


@pytest.mark.parametrize("seed", range(32))
def test_the_many_atom_workload_converges_to_its_reference_at_every_seed(seed):
    # the benchmark's grid128-atoms128 run at CLI seeds 0-31
    T = SpectralTorus(1.0, 128)
    P = new_atomic([(-1.0 + (i + 0.5) / 64.0, 1.0 / 128.0) for i in range(128)])
    prob = Problem(T, P, 0.9 * lambda_bar(P).lambda_bar)
    res = minimize(prob, MinimizeOptions(seed=seed))
    _assert_even_converged(prob, res, -17.7676455626036)
    assert res.iterations <= 19


def test_a_cold_start_near_bar_on_256_slides_onto_the_grid():
    # a resolved spike, about 8 cells wide, sits on a node of the even
    # fields, so no step crawls along its slide onto the grid: 24 steps,
    # where the whole grid took 41 with translation steps and hundreds
    # without them
    T = SpectralTorus(1.0, 256)
    P = new_atomic([(-1.0, 0.5), (1.0, 0.5)])
    res = minimize(Problem(T, P, 0.999 * 2.0 * EIGHT_PI), MinimizeOptions())
    assert res.status == "converged"
    assert res.iterations <= 24
    assert res.J_value == pytest.approx(-10.579342880284717, rel=1e-12)


def test_a_many_atom_field_takes_no_translation():
    # 128 equal atoms over [-1, 1] at 0.9 lambda_bar on 128^2 peak near 8.5:
    # their field is smooth, and the even fields hold no translation
    T = SpectralTorus(1.0, 128)
    P = new_atomic([(-1.0 + (i + 0.5) / 64.0, 1.0 / 128.0) for i in range(128)])
    res = minimize(Problem(T, P, 0.9 * lambda_bar(P).lambda_bar), MinimizeOptions())
    assert res.status == "converged"
    assert (res.iterations, res.rejected, res.hessian_products) == (17, 1, 38)


def test_every_iterate_and_every_trial_step_is_even_bit_for_bit(monkeypatch):
    # the signed pair at lambda_bar on 32^2 at seed 3 rejects a step; the
    # cold start, made even, is the first iterate the residual sees.  The
    # iterates and the trial steps are quarter-cell values, so each stands
    # for the even field it unfolds to, and the result is the last iterate
    # unfolded
    iterates, steps = [], []
    real_residual, real_delta = minimize_module.el_residual, minimize_module._EnergyDelta.__init__

    def recorded_residual(prob, v, partitions):
        iterates.append(v)
        return real_residual(prob, v, partitions)

    def recorded_delta(self, prob, d, partitions):
        real_delta(self, prob, d, partitions)
        steps.append(d)

    monkeypatch.setattr(minimize_module, "el_residual", recorded_residual)
    monkeypatch.setattr(minimize_module._EnergyDelta, "__init__", recorded_delta)
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, new_atomic([(-1.0, 0.5), (1.0, 0.5)]), 2.0 * EIGHT_PI)
    res = minimize(prob, MinimizeOptions(seed=3))
    assert res.status == "converged" and res.rejected > 0
    assert len(iterates) == res.iterations - res.rejected + 1 and len(steps) == res.iterations
    r = T.reflection
    noise = random_zero_mean(T, 3).values
    assert not np.array_equal(noise, noise[r])
    assert np.array_equal(iterates[0], quarter(T, even(T, Field(noise)).values))
    assert all(x.shape == ((T.grid_n // 2 + 1) ** 2,) for x in iterates + steps)
    assert np.array_equal(res.v.values, unfold(T, iterates[-1]))
    for vals in [unfold(T, x) for x in iterates + steps]:
        assert np.array_equal(vals, vals[r]) and np.array_equal(vals, vals[:, r])


def test_translations_of_the_even_pair_raise_J():
    # the even fields hold no translation, so nothing in a run tests J along
    # one; moved off its node by a sub-cell shift, the converged pair at
    # 0.99 lambda_bar on 64^2 has a higher J on the whole grid
    T = SpectralTorus(1.0, 64)
    P = new_atomic([(-1.0, 0.5), (1.0, 0.5)])
    prob = Problem(T, P, 0.99 * 2.0 * EIGHT_PI)
    res = sweep(T, P, [f * 2.0 * EIGHT_PI for f in (0.8, 0.9, 0.99)], MinimizeOptions())[-1]
    _assert_even_converged(prob, res, NEAR_BAR_J[2])
    spectrum = np.fft.rfft2(res.v.values)
    # it rises by 4e-8 to 2e-7, the flat slide of a pinned spike, but far
    # above the rounding of J, which an integer shift reads
    for shift in ((0.25, 0.0), (0.0, -0.4), (0.3, 0.3), (0.5, 0.5)):
        assert J_per_atom(prob, translate(T, spectrum, shift)) > res.J_value + 1e-8
    for shift in ((1, 0), (2, 3)):
        assert J_per_atom(prob, translate(T, spectrum, shift)) == pytest.approx(res.J_value, rel=1e-14)


def test_warm_start_mean_does_not_matter():
    # J ignores the mean, so a shifted warm start must neither trip the peak
    # guard nor change the run
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, delta_one(), 1.0)
    bump = center_bump(T)
    plain = minimize(prob, MinimizeOptions(), warm_start=bump)
    shifted = minimize(prob, MinimizeOptions(), warm_start=Field(bump.values + 30.0))
    assert shifted.status == "converged"
    assert shifted.iterations == plain.iterations > 0
    assert shifted.J_value == pytest.approx(plain.J_value, abs=1e-14)
    assert abs(shifted.v.values.mean()) <= 1e-15


def test_diverged_error_carries_last_iterate(monkeypatch):
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, delta_one(), 10.0)
    monkeypatch.setattr(minimize_module._EnergyDelta, "__call__", lambda self: 1.0)
    last = minimize(prob, MinimizeOptions())
    assert last.status == "diverged"
    assert last.iterations == minimize_module.MAX_REJECTIONS
    assert last.residual_norm > 0.0
    assert last.v.values.shape == (32, 32)


def test_residual_is_computed_once_per_iterate(monkeypatch):
    calls = []

    def counted(prob, v, partitions):
        calls.append(1)
        return el_residual(prob, v, partitions)

    monkeypatch.setattr(minimize_module, "el_residual", counted)
    T = SpectralTorus(1.0, 32)
    # the signed pair at lambda_bar rejects one of its steps at seed 3
    prob = Problem(T, new_atomic([(-1.0, 0.5), (1.0, 0.5)]), 2.0 * EIGHT_PI)
    res = minimize(prob, MinimizeOptions(seed=3))
    assert res.status == "converged"
    accepted = res.iterations - res.rejected
    assert 0 < accepted < res.iterations
    assert len(calls) == accepted + 1
    # cross-check on the trace: a rejected step repeats the J, residual and
    # max of v of the row before, and only its step column, the radius, moves
    assert len(res.trace) == res.iterations + 1
    rows = [(j, r, max_v) for j, r, _, max_v in res.trace]
    assert sum(b != a for a, b in zip(rows, rows[1:])) == accepted
    calls.clear()
    monkeypatch.setattr(minimize_module._EnergyDelta, "__call__", lambda self: 1.0)
    last = minimize(Problem(T, delta_one(), 10.0), MinimizeOptions())
    assert last.status == "diverged"
    assert len(calls) == 1


def test_run_refills_one_stack(monkeypatch):
    # every residual of a run refills the partitions allocated before the
    # first one; holding each stack keeps a freed buffer's address from
    # being handed out again
    stacks = []

    def recorded(prob, v, partitions):
        stacks.append(partitions.stack)
        return el_residual(prob, v, partitions)

    monkeypatch.setattr(minimize_module, "el_residual", recorded)
    T = SpectralTorus(1.0, 32)
    P = new_atomic([(-1.0, 0.3), (0.5, 0.3), (1.0, 0.4)])
    res = minimize(Problem(T, P, 10.0), MinimizeOptions(max_iters=3))
    assert (res.iterations, res.rejected) == (3, 0)
    assert len(stacks) == 4
    assert {s.ctypes.data for s in stacks} == {stacks[0].ctypes.data}


def test_work_per_iteration(monkeypatch):
    # per step: 1 cosine transform for the energy difference, of the step
    # (v's modes are the residual's); per path 1, of the residual g; per
    # Hessian product 2 (q from its modes and the modes of the partition
    # term); none for a preconditioner solve, which is a division of the
    # modes; per accepted step 2 for the residual (v and its Laplacian); one
    # exponential per atom at the quarter-cell nodes, in el_residual.  No
    # real FFT is taken, and the only complex ones make the random start
    counts = {"fft": 0, "complex": 0, "cosine": 0, "exp": 0, "expm1": 0}

    def counting(fn, key, elements):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[key] += np.size(out) if elements else 1
            return out

        return wrapper

    boundary = []
    real_step = minimize_module._SteihaugPath.step

    def recorded(self, radius):
        out = real_step(self, radius)
        boundary.append(out[2])
        return out

    monkeypatch.setattr(minimize_module._SteihaugPath, "step", recorded)
    for name in ("fft2", "ifft2"):
        counted = counting(getattr(np.fft, name), "complex", False)
        monkeypatch.setattr(np.fft, name, counting(counted, "fft", False))
    for name in ("rfft", "irfft", "rfft2", "irfft2"):
        monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name), "fft", False))
    # the solver's transforms, each counted once where the solver calls it
    for module in (functional_module, minimize_module):
        for name in ("cosine_transform", "inverse_cosine_transform"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name), "cosine", False))
    monkeypatch.setattr(np, "exp", counting(np.exp, "exp", True))
    monkeypatch.setattr(np, "expm1", counting(np.expm1, "expm1", True))
    T = SpectralTorus(1.0, 32)
    P = new_atomic([(-1.0, 0.3), (0.5, 0.3), (1.0, 0.4)])
    res = minimize(Problem(T, P, 10.0), MinimizeOptions(max_iters=3))
    assert res.status == "budget" and res.iterations == 3
    # every step accepted, so each path took one step: the first on the
    # boundary, the others inside, where the preconditioned residual ended
    # them without a transform
    accepted = res.iterations - res.rejected
    assert accepted == res.iterations
    assert boundary == [True, False, False]
    assert res.hessian_products == 6
    paths = len(boundary)
    per_atom = len(P.atoms) * (T.grid_n // 2 + 1) ** 2
    # set-up: 2 complex transforms for the random start and 2 cosine
    # transforms for the first residual; J reads v's modes off the partitions
    assert counts["cosine"] == 2 + res.iterations + 2 * accepted + 2 * res.hessian_products + paths == 26
    assert counts["fft"] == counts["complex"] == 2
    # set-up: one exponential per atom in the first residual; J reads the partitions
    assert counts["exp"] == per_atom * (1 + accepted)
    # one expm1 per atom and step
    assert counts["expm1"] == per_atom * res.iterations


def _counting_hessian(monkeypatch):
    calls = []

    def counted(prob, partitions, q_hat):
        calls.append(1)
        return hessian_product(prob, partitions, q_hat)

    monkeypatch.setattr(minimize_module, "hessian_product", counted)
    return calls


def test_collapsed_trust_radius_ends_diverged(monkeypatch):
    # every step is rejected, so the radius shrinks 4x a step, and every cut
    # reuses the first direction: one Hessian product in all
    calls = _counting_hessian(monkeypatch)
    monkeypatch.setattr(minimize_module._EnergyDelta, "__call__", lambda self: 1.0)
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, delta_one(), 10.0)
    res = minimize(prob, MinimizeOptions())
    assert res.status == "diverged"
    assert res.iterations == res.rejected == minimize_module.MAX_REJECTIONS
    assert res.hessian_products == len(calls) == 1
    assert np.array_equal(res.v.values, even(T, random_zero_mean(T, 0)).values)
    radii = [step for _, _, step, _ in res.trace[1:]]
    assert len(radii) == res.iterations
    assert all(b == 0.25 * a for a, b in zip(radii, radii[1:]))


def test_first_radius_is_the_h1_length_of_the_preconditioned_gradient():
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, delta_one(), 10.0)
    res = minimize(prob, MinimizeOptions(max_iters=1))
    g = residual(prob, even(T, random_zero_mean(T, 0)))
    first = res.trace[1][2]
    # the Dirichlet form of (-Laplacian)^-1 g, from the cosine modes of g
    z_hat = cosine_transform(T, quarter(T, g.values)) * T.quarter_inverse_eigenvalues
    assert first == math.sqrt(even_inner(T, z_hat, z_hat))
    # the same form from the Poisson solve's field, to a few ulps
    z = solve_poisson_zero_mean(T, g)
    assert first == pytest.approx(math.sqrt(gradient_inner(T, z, z)), rel=1e-15)


def test_trust_region_steps_count_toward_the_budget():
    # the signed pair at lambda_bar on 32^2 rejects its 9th step at seed 3,
    # the last one a budget of 9 allows
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, new_atomic([(-1.0, 0.5), (1.0, 0.5)]), 2.0 * EIGHT_PI)
    res = minimize(prob, MinimizeOptions(max_iters=9, seed=3))
    assert res.status == "budget"
    assert (res.iterations, res.rejected) == (9, 1)


def _newton_model_setup():
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, new_atomic([(-0.7, 0.3), (0.2, 0.3), (0.9, 0.4)]), 30.0)
    v = even(T, random_zero_mean(T, 3, amplitude=2.0))
    partitions = Partitions(prob)
    g = el_residual(prob, quarter(T, v.values), partitions)
    return T, prob, g, partitions


def _model(T, prob, partitions, g, d):
    """The Newton model at the step with quarter-cell values d, on the grid,
    for the residual g at the quarter-cell nodes."""
    hd = hessian_field(prob, partitions, d)
    d = unfold(T, d)
    return -integrate(T, Field(unfold(T, g) * d)) + 0.5 * integrate(T, Field(d * hd.values))


def _h1_norm(T, d):
    """||d||_H1 of the even field with quarter-cell values d."""
    grid = Field(unfold(T, d))
    return math.sqrt(gradient_inner(T, grid, grid))


def test_truncated_cg_stops_on_the_trust_region_boundary():
    T, prob, g, partitions = _newton_model_setup()
    radius = 1e-3
    d, model, boundary, products = minimize_module._SteihaugPath(prob, partitions, g).step(radius)
    assert boundary
    assert products >= 1
    assert _h1_norm(T, d) == pytest.approx(radius, rel=1e-10)
    assert model < 0.0
    assert model == pytest.approx(_model(T, prob, partitions, g, d), rel=1e-9)


def test_the_path_keeps_its_directions_and_its_step_at_the_quarter_cell_nodes():
    # an iterate of the signed pair at lambda_bar whose path ends inside
    # after several directions: each of them, and the step, holds the
    # (n/2 + 1)^2 quarter-cell values, 289 on 32^2 and not 1,024
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, new_atomic([(-1.0, 0.5), (1.0, 0.5)]), 2.0 * EIGHT_PI)
    v = minimize(prob, MinimizeOptions(max_iters=8)).v
    partitions = Partitions(prob)
    path = minimize_module._SteihaugPath(prob, partitions, el_residual(prob, quarter(T, v.values), partitions))
    d, _, boundary, products = path.step(1e6)
    nodes = (T.grid_n // 2 + 1) ** 2
    assert not boundary and products == len(path.directions) >= 2
    assert d.shape == (nodes,)
    assert all(q.shape == (nodes,) for q, _, _ in path.directions)


def test_truncated_cg_interior_step_solves_the_newton_equation():
    T, prob, g, partitions = _newton_model_setup()
    d, model, boundary, products = minimize_module._SteihaugPath(prob, partitions, g).step(1e6)
    assert not boundary
    assert model == pytest.approx(_model(T, prob, partitions, g, d), rel=1e-9)
    # the H^-1 norm of the residual g - H d fell by the forcing term
    g = Field(unfold(T, g))
    r = Field(g.values - hessian_field(prob, partitions, d).values)
    r_norm = math.sqrt(integrate(T, Field(r.values * solve_poisson_zero_mean(T, r).values)))
    g_norm = math.sqrt(integrate(T, Field(g.values * solve_poisson_zero_mean(T, g).values)))
    assert r_norm <= min(0.5, math.sqrt(g_norm)) * g_norm * (1.0 + 1e-6)


def test_spectral_hessian_product_matches_the_per_atom_oracle():
    # a signed measure with a zero atom; the path's products run on cosine
    # modes (their values are checked against the oracle in
    # test_functional.py), the oracle one atom at a time on the grid.  The
    # residual modes carried by the recurrence are those of g - H d_k after
    # each of k directions, forced past the forcing term
    T = SpectralTorus(1.0, 32)
    atoms = [(-1.0, 0.1), (-0.6, 0.2), (-0.1, 0.1), (0.0, 0.2), (0.3, 0.1), (0.8, 0.1), (1.0, 0.2)]
    prob = Problem(T, new_atomic(atoms), 30.0)
    v = even(T, random_zero_mean(T, 3, amplitude=2.0))
    partitions = Partitions(prob)
    g = el_residual(prob, quarter(T, v.values), partitions)
    path = minimize_module._SteihaugPath(prob, partitions, g)
    path.tol = 0.0
    g = unfold(T, g)
    g_scale = np.abs(np.fft.rfft2(g)).max()
    h = T.grid_n // 2 + 1
    d = np.zeros(h * h)
    for k in range(6):
        assert path._grow()
        q, kappa, rz = path.directions[k]
        assert kappa > 0.0
        d = d + (rz / kappa) * q
        expected = np.fft.rfft2(g - hessian_product_per_atom(prob, v, Field(unfold(T, d))).values)
        assert np.abs(path.r_hat - expected[:h, :h].ravel()).max() <= 1e-13 * g_scale
    assert np.abs(path.r_hat).max() <= 1e-5 * g_scale


@pytest.mark.parametrize("steps, first_boundary", [(8, False), (4, True)], ids=["inside", "negative-curvature"])
def test_rejected_step_cuts_the_stored_path(monkeypatch, steps, first_boundary):
    # after a rejection the smaller radius cuts the path of the first solve:
    # no Hessian product, and the same step as a fresh solve at that radius.
    # Iterates of the signed pair at lambda_bar whose paths take more than one
    # direction: after 8 steps the path ends inside, after 4 it meets
    # negative curvature on its second direction
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, new_atomic([(-1.0, 0.5), (1.0, 0.5)]), 2.0 * EIGHT_PI)
    v = minimize(prob, MinimizeOptions(max_iters=steps)).v
    partitions = Partitions(prob)
    g = el_residual(prob, quarter(T, v.values), partitions)
    path = minimize_module._SteihaugPath(prob, partitions, g)
    first, _, on_boundary, grown = path.step(1e6)
    assert on_boundary == first_boundary
    assert grown >= 2
    radius = 0.25 * _h1_norm(T, first)
    calls = _counting_hessian(monkeypatch)
    d, model, boundary, products = path.step(radius)
    assert boundary
    assert products == len(calls) == 0
    assert _h1_norm(T, d) == pytest.approx(radius, rel=1e-10)
    assert model == pytest.approx(_model(T, prob, partitions, g, d), rel=1e-9)
    fresh = minimize_module._SteihaugPath(prob, partitions, g).step(radius)
    assert np.array_equal(fresh[0], d)
    assert fresh[1:3] == (model, boundary)
    # the counter sees the fresh path's products, so the 0 above is no artefact
    assert len(calls) == fresh[3] >= 1


def test_random_zero_mean_seeding_and_amplitude():
    T = SpectralTorus(1.0, 64)
    a = random_zero_mean(T, 0, amplitude=0.02)
    b = random_zero_mean(T, 0, amplitude=0.02)
    c = random_zero_mean(T, 1, amplitude=0.02)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert abs(a.values.mean()) <= 1e-15
    sup = np.abs(a.values).max()
    assert 0.01 <= sup <= 0.03


def test_center_bump_shape():
    T = SpectralTorus(2.0, 64)
    bump = center_bump(T, amplitude=0.5)
    assert bump.values[32, 32] == 0.5
    assert bump.values.max() == 0.5
    assert bump.values.min() >= 0.0


def test_detect_concentration_flat_field_is_none():
    T = SpectralTorus(1.0, 64)
    res = synthetic_result(T, np.zeros((64, 64)))
    assert detect_concentration(res, T, 25.0) is None


def test_detect_concentration_single_peak():
    T = SpectralTorus(1.0, 64)
    res = synthetic_result(T, gaussian_bump(T, (32, 32), 30.0, 0.05))
    assert detect_concentration(res, T, 25.0) == (32, 32)


def test_detect_concentration_prefers_heavier_peak():
    # equal heights, different widths: the wider bump holds more density mass
    T = SpectralTorus(1.0, 64)
    narrow = gaussian_bump(T, (16, 16), 30.0, 0.01)
    wide = gaussian_bump(T, (48, 48), 30.0, 0.04)
    res = synthetic_result(T, narrow + wide)
    assert detect_concentration(res, T, 25.0) == (48, 48)


def test_detect_concentration_split_mass_is_none():
    # two identical bumps split the mass evenly; no majority point exists
    T = SpectralTorus(1.0, 64)
    twin = gaussian_bump(T, (16, 16), 30.0, 0.04) + gaussian_bump(T, (48, 48), 30.0, 0.04)
    res = synthetic_result(T, twin)
    assert detect_concentration(res, T, 25.0) is None


def test_mirror_image_reads_the_negative_spike():
    T = SpectralTorus(1.0, 64)
    res = synthetic_result(T, -gaussian_bump(T, (16, 40), 30.0, 0.05))
    assert detect_concentration(res, T, 25.0) is None
    P = new_atomic([(-1.0, 0.25), (0.5, 0.75)])
    mirrored, mirrored_P = mirror_image(res, P)
    assert mirrored_P.atoms == ((-0.5, 0.75), (1.0, 0.25))
    assert np.array_equal(mirrored.v.values, -res.v.values)
    assert mirrored.peak_point == (16, 40)
    assert (mirrored.J_value, mirrored.lam) == (res.J_value, res.lam)
    assert detect_concentration(mirrored, T, 25.0) == (16, 40)
    # the mirror image of a state has the same energy
    v = even(T, random_zero_mean(T, 4, amplitude=2.0))
    same = energy(Problem(T, mirrored_P, 7.0), Field(-v.values))
    assert same == pytest.approx(energy(Problem(T, P, 7.0), v), rel=1e-12)
