"""Trust-region Newton-CG: convergence, traces, continuation, concentration."""

import importlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    energy,
    even,
    even_start,
    gaussian_bump,
    grid,
    grid_peak,
    hessian_field,
    residual,
    subtracted_energy_delta,
    synthetic_v,
)
from oracles import (
    J_per_atom,
    el_residual_per_atom,
    gradient_inner,
    grid_warm_start,
    hessian_product_per_atom,
    integrate,
    solve_poisson_zero_mean,
    translate,
)
from vortexmf import torus
from vortexmf.blowup import rescale_profile
from vortexmf.functional import Partitions, Problem, el_residual, hessian_product
from vortexmf.measure import CirculationMeasure, lambda_bar, new_atomic
from vortexmf.minimize import (
    MinimizeOptions,
    MinimizeResult,
    blowup_threshold,
    center_bump,
    continuation_sweep,
    detect_concentration,
    minimize,
    random_zero_mean,
    stage_problems,
)
from vortexmf.torus import (
    Field,
    SpectralTorus,
    cosine_transform,
    project_zero_mean,
    quarter,
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
    res = minimize(prob, MinimizeOptions(), warm_start=np.zeros(17 * 17))
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
    assert np.abs(res.v).max() <= 1e-8


def test_warm_restart_terminates_immediately():
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, delta_one(), 0.5 * EIGHT_PI)
    first = minimize(prob, MinimizeOptions())
    again = minimize(prob, MinimizeOptions(), warm_start=first.v)
    assert again.iterations == 0
    # the warm start is taken with its grid mean subtracted, which moves only rounding bits
    assert np.array_equal(grid(T, again.v).values, project_zero_mean(T, grid(T, first.v)).values)


def test_warm_start_validation():
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, delta_one(), 1.0)
    # a constant is the flat state: a ones warm start ends like the zero field
    zero = minimize(prob, MinimizeOptions(), warm_start=np.zeros(17 * 17))
    ones = minimize(prob, MinimizeOptions(), warm_start=np.ones(17 * 17))
    assert ones.iterations == zero.iterations == 0
    assert ones.J_value == pytest.approx(zero.J_value, abs=1e-15)
    assert ones.residual_norm <= 1e-12
    assert ones.status == "converged"
    # the warm start is taken with its mean subtracted
    assert np.array_equal(ones.v, np.zeros(17 * 17))
    # the quarter cell of another grid, and a grid field, are the wrong size
    for wrong in (np.zeros(33 * 33), np.zeros((32, 32)), np.zeros((17, 17))):
        with pytest.raises(ValueError, match="grid"):
            minimize(prob, MinimizeOptions(), warm_start=wrong)


def test_minimize_is_deterministic():
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, delta_one(), 0.7 * EIGHT_PI)
    a = minimize(prob, MinimizeOptions(seed=3))
    b = minimize(prob, MinimizeOptions(seed=3))
    assert a.iterations == b.iterations
    assert a.J_value == b.J_value
    assert np.array_equal(a.v, b.v)


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
    assert np.array_equal(swept[0].v, direct.v)


def test_center_bump_is_built_once_and_only_for_a_second_stage(monkeypatch):
    calls = []
    real = minimize_module.center_bump
    monkeypatch.setattr(minimize_module, "center_bump", lambda T: calls.append(T) or real(T))
    T = SpectralTorus(1.0, 32)
    sweep(T, delta_one(), [1.0], MinimizeOptions())
    assert calls == []
    sweep(T, delta_one(), [1.0, 2.0, 3.0], MinimizeOptions())
    assert len(calls) == 1


def test_sweep_stops_after_blowup_stage(monkeypatch):
    monkeypatch.setattr(minimize_module, "BLOWUP_PEAK", 0.001)
    T = SpectralTorus(1.0, 32)
    results = sweep(T, delta_one(), [1.0, 2.0, 3.0], MinimizeOptions())
    assert len(results) == 1
    assert results[0].status == "blown_up"


def test_blowup_guard_on_warm_start():
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, delta_one(), 1.0)
    tall = project_zero_mean(T, Field(gaussian_bump(T, (16, 16), 26.0, 0.1)))
    res = minimize(prob, MinimizeOptions(), warm_start=quarter(T, tall.values))
    assert res.status == "blown_up"
    assert res.iterations == 0
    assert res.peak_value >= 25.0


def test_blowup_reached_dynamically(monkeypatch):
    # beyond the extremal coupling the energy is unbounded below and the
    # iterates sharpen; the peak guard must stop the run
    monkeypatch.setattr(minimize_module, "BLOWUP_PEAK", 5.0)
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, delta_one(), 2.0 * EIGHT_PI)
    warm = project_zero_mean(T, Field(gaussian_bump(T, (16, 16), 4.0, 0.125)))
    res = minimize(prob, MinimizeOptions(), warm_start=quarter(T, warm.values))
    assert res.status == "blown_up"
    assert res.iterations > 0
    assert res.peak_value >= 5.0


def test_blowup_threshold_grows_with_the_grid_beyond_64(monkeypatch):
    assert minimize_module.BLOWUP_PEAK == 25.0
    for n in (16, 32, 64):
        assert blowup_threshold(SpectralTorus(1.0, n)) == 25.0
    assert blowup_threshold(SpectralTorus(1.0, 128)) == pytest.approx(25.0 + 4.0 * math.log(2.0), rel=1e-15)
    assert blowup_threshold(SpectralTorus(1.0, 512)) == pytest.approx(25.0 + 12.0 * math.log(2.0), rel=1e-15)
    # a start with a peak of 26 stops a 64^2 run at once; a 128^2 run takes its step
    for n, status, iterations in ((64, "blown_up", 0), (128, "budget", 1)):
        T = SpectralTorus(1.0, n)
        tall = project_zero_mean(T, Field(gaussian_bump(T, (n // 2, n // 2), 26.0, 0.1)))
        assert 25.0 <= tall.values.max() < 25.0 + 4.0 * math.log(2.0)
        res = minimize(Problem(T, delta_one(), 1.0), MinimizeOptions(max_iters=1), warm_start=quarter(T, tall.values))
        assert (res.status, res.iterations) == (status, iterations)
    # the growth is added to the constant as it reads at the call
    monkeypatch.setattr(minimize_module, "BLOWUP_PEAK", 5.0)
    assert blowup_threshold(SpectralTorus(1.0, 128)) == pytest.approx(5.0 + 4.0 * math.log(2.0), rel=1e-15)


def test_blowup_guard_sees_negative_spikes():
    # delta_{-1} concentrates into a negative spike; past lambda_bar it must
    # stop blown up like its mirror delta_1 instead of converging onto it
    T = SpectralTorus(1.0, 32)
    probs = [Problem(T, new_atomic([(a, 1.0)]), 2.0 * EIGHT_PI) for a in (1.0, -1.0)]
    runs = [minimize(prob, MinimizeOptions()) for prob in probs]
    assert [r.status for r in runs] == ["blown_up", "blown_up"]
    assert [r.iterations for r in runs] == [11, 11]
    assert runs[0].v.max() >= 25.0
    assert runs[1].v.min() <= -25.0


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
    assert res.peak_value == res.v.max() == grid(T, res.v).values[res.peak_point]


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


@pytest.mark.parametrize("max_u", [705.0, 800.0])
def test_a_candidate_past_the_exponent_guard_falls_back_to_the_cancellation_free_form(max_u):
    # at 705 the candidate's largest shift is past the guard and the
    # cancellation-free form is finite; at 800 that form overflows too, as
    # without the floor.  Either way the partitions stay v's, and the spare,
    # filled with another field, stays that field's
    prob, v, d, u_per_step = _signed_three_atom_move()
    T = prob.torus
    step = quarter(T, (max_u / u_per_step) * d.values)
    partitions = Partitions(prob)
    spare = partitions.twin()
    v_q = quarter(T, v.values)
    el_residual(prob, v_q, partitions)
    el_residual(prob, 0.5 * v_q, spare)
    before = [_partitions_state(partitions), _partitions_state(spare)]
    delta = minimize_module._EnergyDelta(prob, step, partitions, (0.0, spare))
    if max_u < 800.0:
        assert delta() == minimize_module._EnergyDelta(prob, step, partitions)()
    else:
        with pytest.raises(OverflowError, match="partition exponent out of range"):
            delta()
    assert not delta.filled
    assert [_partitions_state(partitions), _partitions_state(spare)] == before


def _log_terms_per_atom(partitions, d):
    """sum w log1p(rel) over the atoms, one atom at a time in atom order,
    rel each atom's expm1 sum over its total, -inf for rel <= -1."""
    log_terms = 0.0
    for w, f, total in zip(partitions.weight.tolist(), partitions.expm1_sums(d).tolist(), partitions.totals.tolist()):
        rel = f / total
        log_terms += w * (math.log1p(rel) if rel > -1.0 else -math.inf)
    return log_terms


@pytest.mark.parametrize("max_u", [1e-3, 1.0, 40.0, 300.0])
def test_the_cancellation_free_difference_adds_the_atoms_log_terms_one_by_one(max_u):
    # the per-atom log1p and the sum in atom order, bit for bit; three
    # atoms, and 128 on node sets
    prob, v, d, u_per_step = _signed_three_atom_move()
    T = SpectralTorus(1.0, 32)
    P = new_atomic([(-1.0 + (i + 0.5) / 64.0, 1.0 / 128.0) for i in range(128)])
    many = Problem(T, P, 0.9 * lambda_bar(P).lambda_bar)
    for prob in (prob, many):
        partitions = Partitions(prob)
        residual(prob, v, partitions)
        step = quarter(T, (max_u / u_per_step) * d.values)
        delta = minimize_module._EnergyDelta(prob, step, partitions)
        want = -delta.a_vd + 0.5 * delta.a_dd - prob.lam * _log_terms_per_atom(partitions, step)
        assert delta() == want


def test_energy_delta_bilinear_terms_match_gradient_inner():
    # bit for bit the Parseval sums of the cosine modes, and the full-grid
    # forms to rounding
    prob, v, d, _ = _signed_three_atom_move()
    T = prob.torus
    delta = _energy_delta(prob, v, d)
    v_hat, d_hat = cosine_transform(T, quarter(T, v.values)), cosine_transform(T, quarter(T, d.values))
    assert delta.a_vd == torus.gradient_inner(T, v_hat, d_hat)
    assert delta.a_dd == torus.gradient_inner(T, d_hat, d_hat)
    assert delta.a_vd == pytest.approx(gradient_inner(T, v, d), rel=1e-13)
    assert delta.a_dd == pytest.approx(gradient_inner(T, d, d), rel=1e-13)


@pytest.mark.parametrize("max_u", [1e-3, 1.0, 40.0, 300.0])
def test_a_step_above_the_floor_reads_the_difference_off_the_candidate(max_u):
    # J(v - d) read off the candidate's fill, less J(v), is the
    # cancellation-free difference within the floor rho eps S(v); within
    # 2c eps (S + |dJ|) for c = 20, the rounding of J at v and at v - d
    prob, v, d, u_per_step = _signed_three_atom_move()
    subtracted, cancellation_free, eps_s = subtracted_energy_delta(prob, v, Field((max_u / u_per_step) * d.values))
    gap = abs(subtracted - cancellation_free)
    assert gap <= minimize_module.SUBTRACTION_RHO * eps_s
    assert gap <= 40.0 * (eps_s + math.ulp(1.0) * abs(cancellation_free))


def _trial_regimes(monkeypatch):
    """Per trial step of the runs that follow, whether it filled its
    candidate (True) or took the cancellation-free form (False)."""
    filled = []
    real_call = minimize_module._EnergyDelta.__call__

    def recorded(self):
        out = real_call(self)
        filled.append(self.filled)
        return out

    monkeypatch.setattr(minimize_module._EnergyDelta, "__call__", recorded)
    return filled


def _accepted(res):
    """Per step of a run, whether it was accepted: a rejected step repeats
    the J, residual and max of v of the trace row before."""
    rows = [(j, r, max_v) for j, r, _, max_v in res.trace]
    return [b != a for a, b in zip(rows, rows[1:])]


def _partitions_state(partitions):
    """Copies of what a fill leaves in ``partitions``; a node set's matrix
    as its bytes."""
    fields = ("stack", "totals", "shifts", "logs", "spectrum", "curvature", "hessian_weights", "values", "residual")
    layout = [(atoms, rows, None if m is None else m.tobytes()) for atoms, rows, m in partitions.layout]
    scalars = [partitions.dirichlet, partitions.exact, partitions.residual_norm]
    return [getattr(partitions, f).tobytes() for f in fields] + scalars + [layout, partitions.low, partitions.high]


@pytest.mark.parametrize("many", [False, True])
def test_a_rejected_candidate_leaves_the_partitions_of_v_bit_for_bit(monkeypatch, many):
    # every step is rejected, the first ones after filling their candidate
    # into the spare: every reader, each Hessian product and each
    # cancellation-free trial, finds the partitions el_residual(v) left,
    # bit for bit, node sets included where 128 atoms read their rows from
    # them, and v's partitions are never filled again
    snapshots, filled, residuals = [], [], []
    real_call, real_sums = minimize_module._EnergyDelta.__call__, Partitions.expm1_sums
    real_product, real_residual = minimize_module.hessian_product, minimize_module.el_residual

    def rejected(self):
        real_call(self)
        filled.append(self.filled)
        return 1.0

    def read_sums(self, d):
        snapshots.append(_partitions_state(self))
        return real_sums(self, d)

    def read_product(prob, partitions, q_hat):
        snapshots.append(_partitions_state(partitions))
        return real_product(prob, partitions, q_hat)

    def counted(prob, v, partitions):
        residuals.append(1)
        return real_residual(prob, v, partitions)

    monkeypatch.setattr(minimize_module._EnergyDelta, "__call__", rejected)
    monkeypatch.setattr(Partitions, "expm1_sums", read_sums)
    monkeypatch.setattr(minimize_module, "hessian_product", read_product)
    monkeypatch.setattr(minimize_module, "el_residual", counted)
    T = SpectralTorus(1.0, 32)
    if many:
        P = new_atomic([(-1.0 + (i + 0.5) / 64.0, 1.0 / 128.0) for i in range(128)])
        prob = Problem(T, P, 0.9 * lambda_bar(P).lambda_bar)
    else:
        prob = Problem(T, new_atomic([(-1.0, 0.3), (0.5, 0.3), (1.0, 0.4)]), 10.0)
    res = minimize(prob, MinimizeOptions())
    assert res.status == "diverged" and res.rejected == minimize_module.MAX_REJECTIONS
    assert filled[0] and not filled[-1]
    below = filled.count(False)
    assert len(snapshots) == res.hessian_products + below
    assert len(residuals) == 1 + sum(filled)
    partitions = Partitions(prob)
    el_residual(prob, quarter(T, even(T, random_zero_mean(T, 0)).values), partitions)
    first = _partitions_state(partitions)
    assert all(m is not None for _, _, m in first[-3]) == many
    assert all(snap == first for snap in snapshots)


def test_the_floor_moves_no_step(monkeypatch):
    # with every step taken in cancellation-free form the runs take the same
    # steps, rejections and Hessian products
    T = SpectralTorus(1.0, 128)
    P = new_atomic([(-1.0 + (i + 0.5) / 64.0, 1.0 / 128.0) for i in range(128)])
    many = Problem(T, P, 0.9 * lambda_bar(P).lambda_bar)
    schedule = [f * 2.0 * EIGHT_PI for f in (0.8, 0.9, 0.99, 1.0)]
    pair = stage_problems(SpectralTorus(1.0, 64), new_atomic([(-1.0, 0.5), (1.0, 0.5)]), schedule)

    def counts():
        runs = [minimize(many, MinimizeOptions(seed=seed)) for seed in range(4)]
        runs += continuation_sweep(pair, MinimizeOptions())
        return [(r.status, r.iterations, r.rejected, r.hessian_products) for r in runs]

    filled = _trial_regimes(monkeypatch)
    floored = counts()
    assert 0 < sum(filled) < len(filled)
    monkeypatch.setattr(minimize_module, "SUBTRACTION_RHO", math.inf)
    filled.clear()
    assert counts() == floored
    assert not any(filled)


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
    T = prob.torus
    v = grid(T, res.v).values
    assert res.status == "converged"
    assert res.J_value == pytest.approx(reference, rel=1e-9)
    assert res.J_value == pytest.approx(energy(prob, Field(v)), rel=1e-12)
    assert np.array_equal(v, v[T.reflection]) and np.array_equal(v, v[:, T.reflection])


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
    # from the 64^2 state, prolonged: 2 steps at every seed, where a start
    # from noise on 128^2 took 15-17
    assert [level.grid_n for level in res.levels] == [32, 64, 128]
    assert res.iterations <= 3


def test_a_density_of_1024_atoms_converges_on_few_node_rows():
    # 1,024 midpoint atoms of uniform alpha on [-1, 1] at 0.9 lambda_bar on
    # 64^2: each side reads its 512 atoms' rows from r Chebyshev nodes, so
    # the stack holds 2r rows, and the residual the run converged to,
    # recomputed one atom at a time over the whole grid, is within 2 grad_tol
    T = SpectralTorus(1.0, 64)
    n = 1024
    P = new_atomic([(-1.0 + 2.0 * (i + 0.5) / n, 1.0 / n) for i in range(n)])
    prob = Problem(T, P, 0.9 * lambda_bar(P).lambda_bar)
    opts = MinimizeOptions()
    res = minimize(prob, opts)
    assert res.status == "converged"
    assert np.abs(el_residual_per_atom(prob, grid(T, res.v)).values).max() <= 2.0 * opts.grad_tol
    partitions = Partitions(prob)
    residual(prob, grid(T, res.v), partitions)
    assert all(lagrange is not None for _, _, lagrange in partitions.layout)
    r = max(rows.stop - rows.start for _, rows, _ in partitions.layout)
    assert partitions.stack.shape[0] <= 2 * r <= 64


def test_a_side_builds_a_node_set_only_when_its_node_count_changes(monkeypatch):
    # the benchmark's 128-atom solve at CLI seeds 0-3 builds 98 node sets
    # over its 32^2, 64^2 and 128^2 levels, 114 with node sets per level; a
    # build on every fill and every widening step took 218.  A level's two
    # partitions share each side's last two node sets, most recently used
    # first, a level starts from the most recent set of the level before,
    # and a side builds one only when neither has the count it needs
    builds = []
    chebyshev = functional_module._chebyshev
    monkeypatch.setattr(functional_module, "_chebyshev", lambda alpha, r: builds.append(r) or chebyshev(alpha, r))
    requests = []  # per request: the level's node sets, the side, its node count, built or not
    node_set = Partitions._node_set

    def counted(self, k, width):
        before = len(builds)
        nodes, matrix = node_set(self, k, width)
        requests.append((self._node_sets, k, nodes.size, len(builds) > before))
        return nodes, matrix

    monkeypatch.setattr(Partitions, "_node_set", counted)
    T = SpectralTorus(1.0, 128)
    P = new_atomic([(-1.0 + (i + 0.5) / 64.0, 1.0 / 128.0) for i in range(128)])
    prob = Problem(T, P, 0.9 * lambda_bar(P).lambda_bar)
    built_in_all = 0
    for seed in range(4):
        requests.clear()
        assert minimize(prob, MinimizeOptions(seed=seed)).status == "converged"
        held, level = {}, None  # per side, the counts of its two node sets, most recent first
        for node_sets, k, r, built in requests:
            if node_sets is not level:  # a new level keeps each side's most recent set
                level = node_sets
                held = {side: counts[:1] for side, counts in held.items()}
            counts = held.get(k, [])
            assert built == (r not in counts)
            held[k] = [r] + [c for c in counts if c != r][:1]
        built_in_all += sum(built for *_, built in requests)
    assert 0 < built_in_all == len(builds) <= 100


def test_the_levels_of_a_cold_start_share_their_node_sets(monkeypatch):
    # _chebyshev(atoms, r) does not depend on the grid: a sequenced cold
    # start of 128 atoms on 128^2 builds no (side, r) twice over its three
    # levels, where levels with node sets of their own build 4 again, and
    # the two compute the same bits
    builds = []
    chebyshev = functional_module._chebyshev
    monkeypatch.setattr(
        functional_module, "_chebyshev", lambda alpha, r: builds.append((float(alpha[0]), r)) or chebyshev(alpha, r)
    )
    T = SpectralTorus(1.0, 128)
    P = new_atomic([(-1.0 + (i + 0.5) / 64.0, 1.0 / 128.0) for i in range(128)])
    prob = Problem(T, P, 0.9 * lambda_bar(P).lambda_bar)
    shared = minimize(prob, MinimizeOptions())
    assert shared.status == "converged" and [lv.grid_n for lv in shared.levels] == [32, 64, 128]
    assert builds and len(builds) == len(set(builds))
    builds.clear()
    real_solve = minimize_module._solve
    monkeypatch.setattr(minimize_module, "_solve", lambda prob, opts, v, *partitions: real_solve(prob, opts, v))
    alone = minimize(prob, MinimizeOptions())
    assert len(builds) - len(set(builds)) == 4
    assert alone.v.tobytes() == shared.v.tobytes()
    assert (alone.J_value, alone.residual_norm, alone.trace, alone.levels) == (
        shared.J_value,
        shared.residual_norm,
        shared.trace,
        shared.levels,
    )


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
    # their field is smooth, and the even fields hold no translation.  The
    # cold start solves 32^2 and 64^2 first; each level's state is resolved
    # and starts the next.  A start from noise on 128^2 took (17, 1, 38)
    T = SpectralTorus(1.0, 128)
    P = new_atomic([(-1.0 + (i + 0.5) / 64.0, 1.0 / 128.0) for i in range(128)])
    res = minimize(Problem(T, P, 0.9 * lambda_bar(P).lambda_bar), MinimizeOptions())
    assert res.status == "converged"
    counts = [(lv.grid_n, lv.status, lv.iterations, lv.rejected, lv.hessian_products) for lv in res.levels]
    assert counts == [(32, "converged", 17, 0, 36), (64, "converged", 4, 0, 16), (128, "converged", 2, 0, 6)]
    assert (res.iterations, res.rejected, res.hessian_products) == (2, 0, 6)
    assert all(lv.decay_ratio <= minimize_module.RESOLVED_DECAY for lv in res.levels)
    assert res.levels[-1].J == res.J_value


PAIR = new_atomic([(-1.0, 0.5), (1.0, 0.5)])


def test_a_lattice_state_on_32_is_not_prolonged():
    # at lambda_bar the pair's spike on 32^2 is about one cell wide, a
    # lattice state, and fails the guard: the 64^2 grid starts from its own
    # noise, and the run is the one warm-started from that noise, bit for bit
    T = SpectralTorus(1.0, 64)
    prob = Problem(T, PAIR, 2.0 * EIGHT_PI)
    for seed in (0, 5):
        opts = MinimizeOptions(seed=seed)
        res = minimize(prob, opts)
        plain = minimize(prob, opts, warm_start=even_start(T, random_zero_mean(T, seed)))
        assert np.array_equal(res.v, plain.v)
        assert (res.J_value, res.residual_norm, res.status, res.trace) == (
            plain.J_value, plain.residual_norm, plain.status, plain.trace,
        )
        assert (res.iterations, res.rejected, res.hessian_products) == (
            plain.iterations, plain.rejected, plain.hessian_products,
        )
        coarse, fine = res.levels
        assert (coarse.grid_n, coarse.status, fine.grid_n) == (32, "converged", 64)
        assert coarse.decay_ratio > minimize_module.RESOLVED_DECAY
        assert fine == plain.levels[0]


def test_a_level_that_does_not_converge_is_not_prolonged():
    # a budget of 3 steps stops the 32^2 level short of the tolerance, so the
    # 64^2 grid starts from its own noise
    T = SpectralTorus(1.0, 64)
    prob = Problem(T, PAIR, 0.9 * 2.0 * EIGHT_PI)
    opts = MinimizeOptions(max_iters=3)
    res = minimize(prob, opts)
    plain = minimize(prob, opts, warm_start=even_start(T, random_zero_mean(T, 0)))
    assert [(lv.grid_n, lv.status) for lv in res.levels] == [(32, "budget"), (64, "budget")]
    assert np.array_equal(res.v, plain.v) and res.trace == plain.trace


def test_a_coarse_level_that_fails_numerically_is_left_out():
    # at lambda = 1e8 the pair's first step on 32^2 overflows an exponent,
    # while 128^2 from its own noise blows up within the trust region, as
    # it did before the grid sequence
    prob = Problem(SpectralTorus(1.0, 128), PAIR, 1e8)
    with pytest.raises(OverflowError, match="partition exponent out of range"):
        minimize(Problem(SpectralTorus(1.0, 32), PAIR, 1e8), MinimizeOptions())
    res = minimize(prob, MinimizeOptions())
    plain = minimize(prob, MinimizeOptions(), warm_start=even_start(prob.torus, random_zero_mean(prob.torus, 0)))
    assert res.status == "blown_up" and [lv.grid_n for lv in res.levels] == [128]
    assert np.array_equal(res.v, plain.v) and res.trace == plain.trace


def test_a_resolved_state_is_prolonged_and_the_guard_keeps_the_branch(monkeypatch):
    # 0.999 lambda_bar on 128^2: 32^2 holds only the lattice state, so the
    # guard sends 128^2 to its own noise, from which it reaches the resolved
    # branch.  Without the bound the lattice state, prolonged, leads every
    # finer level to a lattice state of its own, far below
    T = SpectralTorus(1.0, 128)
    prob = Problem(T, PAIR, 0.999 * 2.0 * EIGHT_PI)
    res = minimize(prob, MinimizeOptions())
    assert res.status == "converged"
    assert res.J_value == pytest.approx(-10.5797353421, rel=1e-10)
    assert [lv.grid_n for lv in res.levels] == [32, 128]
    assert res.levels[-1].decay_ratio <= 0.15
    monkeypatch.setattr(minimize_module, "RESOLVED_DECAY", math.inf)
    lattice = minimize(prob, MinimizeOptions())
    assert lattice.status == "converged" and [lv.grid_n for lv in lattice.levels] == [32, 64, 128]
    assert lattice.J_value < -21.0
    assert all(lv.decay_ratio > 0.4 for lv in lattice.levels)


def test_a_level_starts_from_the_prolonged_state_of_the_one_before(monkeypatch):
    # 0.99 lambda_bar on 128^2: 32^2 and 64^2 are resolved, and each level
    # starts from the last iterate of the one before, prolonged, with its
    # mean removed
    starts = []
    real_solve = minimize_module._solve

    def recorded(prob, opts, v, *partitions):
        starts.append((prob.torus, v.copy()))
        out = real_solve(prob, opts, v, *partitions)
        starts[-1] += (out,)
        return out

    monkeypatch.setattr(minimize_module, "_solve", recorded)
    T = SpectralTorus(1.0, 128)
    res = minimize(Problem(T, PAIR, 0.99 * 2.0 * EIGHT_PI), MinimizeOptions())
    assert [t.grid_n for t, _, _ in starts] == [32, 64, 128]
    first, _, _ = starts[0]
    assert np.array_equal(starts[0][1], quarter(first, even(first, random_zero_mean(first, 0)).values))
    for (coarse, _, out), (fine, start, _) in zip(starts, starts[1:]):
        prolonged = torus.prolong(coarse, fine, out.v)
        assert np.array_equal(start, prolonged - torus.integrate(fine, prolonged) / fine.volume)
    assert res.status == "converged" and res.iterations <= 4
    assert all(lv.decay_ratio <= minimize_module.RESOLVED_DECAY for lv in res.levels)


def test_decay_ratio_reads_the_top_of_the_spectrum():
    # the largest mode of the top band over the largest just below it; a
    # mode at the rounding of the largest counts as 0
    T = SpectralTorus(1.0, 32)
    X = np.zeros((17, 17))
    X[0, 0] = 100.0
    X[3, 9] = -2.0  # max(k, m) = 9, in [8, 12)
    X[14, 1] = 0.5  # max(k, m) = 14 >= 12
    assert minimize_module.decay_ratio(T, X.ravel()) == 0.25
    X[16, 16] = -1.0
    assert minimize_module.decay_ratio(T, X.ravel()) == 0.5
    X[12:, :] = X[:, 12:] = 0.0
    assert minimize_module.decay_ratio(T, X.ravel()) == 0.0
    X[13, 13] = 1e-14
    assert minimize_module.decay_ratio(T, X.ravel()) == 0.0
    X[3, 9] = 0.0
    X[13, 13] = 1.0
    assert minimize_module.decay_ratio(T, X.ravel()) == math.inf


def test_every_iterate_and_every_trial_step_is_even_bit_for_bit(monkeypatch):
    # the signed pair at lambda_bar on 32^2 at seed 3 rejects a step; the
    # cold start, made even, is the first field the residual sees.  The
    # residual sees each iterate and each candidate a trial fills, and
    # nothing else.  Those fields and the trial steps are
    # quarter-cell values, so each stands for the even field it unfolds
    # to, and the result is the last iterate
    iterates, steps = [], []
    real_residual, real_delta = minimize_module.el_residual, minimize_module._EnergyDelta.__init__

    def recorded_residual(prob, v, partitions):
        iterates.append(v)
        return real_residual(prob, v, partitions)

    def recorded_delta(self, prob, d, partitions, *args):
        real_delta(self, prob, d, partitions, *args)
        steps.append(d)

    monkeypatch.setattr(minimize_module, "el_residual", recorded_residual)
    monkeypatch.setattr(minimize_module._EnergyDelta, "__init__", recorded_delta)
    filled = _trial_regimes(monkeypatch)
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, new_atomic([(-1.0, 0.5), (1.0, 0.5)]), 2.0 * EIGHT_PI)
    res = minimize(prob, MinimizeOptions(seed=3))
    assert res.status == "converged" and res.rejected > 0
    trials = list(zip(filled, _accepted(res)))
    # per regime: a filled trial's candidate, and the next iterate after an
    # accepted cancellation-free one
    fields = sum(f + (a and not f) for f, a in trials)
    assert {f for f, _ in trials} == {True, False}
    assert len(iterates) == 1 + fields and len(steps) == res.iterations
    r = T.reflection
    noise = random_zero_mean(T, 3).values
    assert not np.array_equal(noise, noise[r])
    assert np.array_equal(iterates[0], quarter(T, even(T, Field(noise)).values))
    assert all(x.shape == ((T.grid_n // 2 + 1) ** 2,) for x in iterates + steps)
    assert np.array_equal(res.v, iterates[-1])
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
    spectrum = np.fft.rfft2(grid(T, res.v).values)
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
    bump = quarter(T, center_bump(T).values)
    plain = minimize(prob, MinimizeOptions(), warm_start=bump)
    shifted = minimize(prob, MinimizeOptions(), warm_start=bump + 30.0)
    assert shifted.status == "converged"
    assert shifted.iterations == plain.iterations > 0
    assert shifted.J_value == pytest.approx(plain.J_value, abs=1e-14)
    assert abs(grid(T, shifted.v).values.mean()) <= 1e-15


# the sweeps whose warm starts are checked against the grid's: the near-bar
# sweep at seeds 0-3, and delta_1 up to a stage past lambda_bar, on 64^2
WARM_SWEEPS = [pytest.param(PAIR, (0.8, 0.9, 0.99, 1.0), seed, id=f"near-bar-{seed}") for seed in range(4)]
WARM_SWEEPS.append(pytest.param(new_atomic([(1.0, 1.0)]), (0.3, 0.6, 0.9, 0.99, 2.0), 0, id="delta-one"))


@pytest.mark.parametrize("P, fractions, seed", WARM_SWEEPS)
def test_a_warm_start_is_the_start_taken_on_the_grid_bit_for_bit(monkeypatch, P, fractions, seed):
    # each warm stage's start, the previous result plus the bump at the
    # quarter-cell nodes with its grid mean subtracted, is the start the
    # unfolded result plus the grid bump, made even, made zero-mean and
    # quartered gave, bit for bit
    starts = []
    real_solve = minimize_module._solve

    def recorded(prob, opts, v, *partitions):
        starts.append((prob, v.copy()))
        return real_solve(prob, opts, v, *partitions)

    monkeypatch.setattr(minimize_module, "_solve", recorded)
    T = SpectralTorus(1.0, 64)
    problems = stage_problems(T, P, [f * lambda_bar(P).lambda_bar for f in fractions])
    results = continuation_sweep(problems, MinimizeOptions(seed=seed))
    assert len(results) == len(problems)
    bump = center_bump(T)
    for prob, before in zip(problems[1:], results):
        (start,) = [v for p, v in starts if p is prob]
        assert np.array_equal(start, grid_warm_start(T, before.v, bump))


def test_the_solve_never_unfolds(monkeypatch):
    # the state passes from level to level and from stage to stage as
    # quarter-cell values: nothing unfolds inside a solve, a sequenced cold
    # start unfolds nothing, and a sweep unfolds once per warm stage, for
    # the start's grid mean.  The cold start's noise is made even once, and
    # a warm start never
    unfolds, evens, solving = [], [], []
    real_unfold, real_even, real_solve = minimize_module.unfold, minimize_module.project_even, minimize_module._solve

    def unfold_outside_the_solve(T, x):
        if solving:
            raise AssertionError("the solve unfolded its state")
        unfolds.append(T.grid_n)
        return real_unfold(T, x)

    def solve(prob, opts, v, *partitions):
        solving.append(prob)
        try:
            return real_solve(prob, opts, v, *partitions)
        finally:
            solving.pop()

    monkeypatch.setattr(minimize_module, "unfold", unfold_outside_the_solve)
    monkeypatch.setattr(minimize_module, "project_even", lambda T, f: evens.append(T.grid_n) or real_even(T, f))
    monkeypatch.setattr(minimize_module, "_solve", solve)
    T = SpectralTorus(1.0, 128)
    P = new_atomic([(-1.0 + (i + 0.5) / 64.0, 1.0 / 128.0) for i in range(128)])
    res = minimize(Problem(T, P, 0.9 * lambda_bar(P).lambda_bar), MinimizeOptions())
    assert res.status == "converged" and [lv.grid_n for lv in res.levels] == [32, 64, 128]
    assert (unfolds, evens) == ([], [32])
    T = SpectralTorus(1.0, 64)
    problems = stage_problems(T, PAIR, [f * 2.0 * EIGHT_PI for f in (0.8, 0.9, 0.99, 1.0)])
    results = continuation_sweep(problems, MinimizeOptions())
    assert [r.status for r in results] == ["converged"] * 4
    assert [lv.grid_n for lv in results[0].levels] == [32, 64]
    assert (unfolds, evens) == ([64] * 3, [32, 32])


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([16, 32, 64]),
    seed=st.integers(0, 2**32 - 1),
    planted=st.lists(st.tuples(st.integers(0, 32), st.integers(0, 32)), max_size=6),
)
def test_the_peak_read_off_the_quarter_cell_is_the_first_maximum_of_the_grid(n, seed, planted):
    # values of a few levels, so that ties are common, with the largest
    # planted at some quarter-cell nodes, edges and corners included; a node
    # off the axes stands for its mirror images too, so the grid holds ties
    # at those.  The peak of v, and of the mirror image -v, is the first
    # largest grid value in row-major order, and the peak value that value
    T = SpectralTorus(1.0, n)
    h = n // 2 + 1
    x = np.random.default_rng(seed).integers(-3, 3, size=(h, h)).astype(float)
    for i, j in planted:
        x[i % h, j % h] = 3.0
    res = MinimizeResult(v=x.ravel(), J_value=0.0, residual_norm=0.0, iterations=0, lam=1.0, status="converged")
    for state in (res, replace(res, v=-res.v)):
        vals = unfold(T, state.v)
        first = tuple(int(k) for k in np.unravel_index(np.argmax(vals), vals.shape))
        assert state.peak_point == first
        assert state.peak_value == vals[first]


def test_diverged_error_carries_last_iterate(monkeypatch):
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, delta_one(), 10.0)
    monkeypatch.setattr(minimize_module._EnergyDelta, "__call__", lambda self: 1.0)
    last = minimize(prob, MinimizeOptions())
    assert last.status == "diverged"
    assert last.iterations == minimize_module.MAX_REJECTIONS
    assert last.residual_norm > 0.0
    assert last.v.shape == (17 * 17,)


def test_residual_is_computed_once_per_iterate(monkeypatch):
    calls = []

    def counted(prob, v, partitions):
        calls.append(1)
        return el_residual(prob, v, partitions)

    monkeypatch.setattr(minimize_module, "el_residual", counted)
    filled = _trial_regimes(monkeypatch)
    T = SpectralTorus(1.0, 32)
    # the signed pair at lambda_bar rejects one of its steps at seed 3,
    # after filling its candidate
    prob = Problem(T, new_atomic([(-1.0, 0.5), (1.0, 0.5)]), 2.0 * EIGHT_PI)
    res = minimize(prob, MinimizeOptions(seed=3))
    assert res.status == "converged"
    accepted = res.iterations - res.rejected
    assert 0 < accepted < res.iterations
    # cross-check on the trace: a rejected step repeats the J, residual and
    # max of v of the row before, and only its step column, the radius, moves
    assert len(res.trace) == res.iterations + 1
    trials = list(zip(filled, _accepted(res)))
    assert sum(a for _, a in trials) == accepted
    # once per iterate: at the start, and per accepted step, at its
    # candidate if it filled one; and once per rejected candidate, its
    # fill, into the spare, so v's partitions are never filled again.  Here
    # the trial after the rejected one fills its own candidate and is
    # accepted.  A rejected cancellation-free step computes none
    rejected_filled = sum(f and not a for f, a in trials)
    assert rejected_filled == res.rejected and sum(filled) < res.iterations
    assert all(trials[k + 1] == (True, True) for k, (f, a) in enumerate(trials) if f and not a)
    assert len(calls) == accepted + 1 + rejected_filled
    calls.clear()
    monkeypatch.setattr(minimize_module._EnergyDelta, "__call__", lambda self: 1.0)
    last = minimize(Problem(T, delta_one(), 10.0), MinimizeOptions())
    assert last.status == "diverged"
    assert len(calls) == 1


def test_the_result_and_the_trace_read_the_last_accepted_fill(monkeypatch):
    # each fill by el_residual is captured: its field, its residual and
    # the sup norm it keeps.  A step is accepted by its ratio of actual to
    # predicted change, read from the trial and the path, not from the
    # trace; each trace row's residual and max of v, and the result's v
    # and residual, are those of the last accepted fill, bit for bit, and
    # the result's v is a copy of that fill's values
    fills, models, trials, changes = [], [], [], []
    real_residual = minimize_module.el_residual
    real_step, real_call = minimize_module._SteihaugPath.step, minimize_module._EnergyDelta.__call__

    def recorded_residual(prob, v, partitions):
        g = real_residual(prob, v, partitions)
        assert g is partitions.residual and np.array_equal(partitions.values, v)
        fills.append((partitions, v.copy(), g.copy(), partitions.residual_norm, partitions.high, len(trials)))
        return g

    def recorded_step(self, radius):
        out = real_step(self, radius)
        models.append(out[1])
        return out

    def recorded_call(self):
        trials.append(self)
        changes.append(real_call(self))
        return changes[-1]

    monkeypatch.setattr(minimize_module, "el_residual", recorded_residual)
    monkeypatch.setattr(minimize_module._SteihaugPath, "step", recorded_step)
    monkeypatch.setattr(minimize_module._EnergyDelta, "__call__", recorded_call)
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, new_atomic([(-1.0, 0.5), (1.0, 0.5)]), 2.0 * EIGHT_PI)
    res = minimize(prob, MinimizeOptions(seed=3))
    assert res.status == "converged" and res.rejected > 0
    assert len(models) == len(changes) == res.iterations == len(res.trace) - 1
    # at most one fill per trial: its candidate, or the next iterate below the floor
    per_trial = [[f for f in fills if f[-1] == t] for t in range(res.iterations + 1)]
    assert len(per_trial[0]) == 1 and all(len(f) <= 1 for f in per_trial)
    current = per_trial[0][0]
    for t, (model, dj) in enumerate(zip(models, changes), start=1):
        if dj / model > minimize_module.ACCEPT_RATIO:
            (current,) = per_trial[t]
        _, v, g, norm, high, _ = current
        assert norm == float(np.abs(g).max())
        assert res.trace[t][1] == norm and res.trace[t][3] == high == float(v.max())
    partitions, v, g, norm, _, _ = current
    assert res.rejected == sum(dj / model <= minimize_module.ACCEPT_RATIO for model, dj in zip(models, changes))
    assert np.array_equal(res.v, v) and res.residual_norm == norm == res.trace[-1][1]
    assert not any(np.shares_memory(res.v, f[0].values) for f in fills)


def test_a_run_fills_two_stacks_in_turn(monkeypatch):
    # a run holds two partitions, v's and a spare, and allocates each
    # stack at its first fill: the first two steps fill their candidates
    # into the spare, which an accepted one swaps with v's, and the third,
    # below the floor, fills the next iterate into v's own.  Holding each
    # stack keeps a freed buffer's address from being handed out again
    stacks = []

    def recorded(prob, v, partitions):
        out = el_residual(prob, v, partitions)
        stacks.append(partitions.stack)
        return out

    monkeypatch.setattr(minimize_module, "el_residual", recorded)
    filled = _trial_regimes(monkeypatch)
    T = SpectralTorus(1.0, 32)
    P = new_atomic([(-1.0, 0.3), (0.5, 0.3), (1.0, 0.4)])
    res = minimize(Problem(T, P, 10.0), MinimizeOptions(max_iters=3))
    assert (res.iterations, res.rejected) == (3, 0) and filled == [True, True, False]
    first, second = stacks[0].ctypes.data, stacks[1].ctypes.data
    assert first != second
    assert [s.ctypes.data for s in stacks] == [first, second, first, first]


def test_work_per_iteration(monkeypatch):
    # per path 1 cosine transform, of the residual g; per Hessian product 2
    # (q from its modes and the modes of the partition term); none for a
    # preconditioner solve, which is a division of the modes; per residual
    # 2 (v and its Laplacian) and one exponential per atom at the
    # quarter-cell nodes.  A step above the floor fills its candidate, one
    # residual; a step below it takes 1 transform, of the step (v's modes are the residual's), and
    # one expm1 per atom, and an accepted one the residual at the next
    # iterate.  No real FFT is taken, and the only complex ones make the
    # random start
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
    filled = _trial_regimes(monkeypatch)
    T = SpectralTorus(1.0, 32)
    P = new_atomic([(-1.0, 0.3), (0.5, 0.3), (1.0, 0.4)])
    res = minimize(Problem(T, P, 10.0), MinimizeOptions(max_iters=3))
    assert res.status == "budget" and res.iterations == 3
    # every step accepted, so each path took one step: the first on the
    # boundary, the others inside, where the preconditioned residual ended
    # them without a transform.  The first two steps fill their candidates,
    # and the last, near the minimum, is below the floor
    accepted = res.iterations - res.rejected
    assert accepted == res.iterations
    assert boundary == [True, False, False]
    assert filled == [True, True, False]
    assert res.hessian_products == 6
    paths = len(boundary)
    below = filled.count(False)
    per_atom = len(P.atoms) * (T.grid_n // 2 + 1) ** 2
    # set-up: 2 complex transforms for the random start and 2 cosine
    # transforms for the first residual; J reads v's modes off the partitions
    assert counts["cosine"] == 2 + below + 2 * accepted + 2 * res.hessian_products + paths == 24
    assert counts["fft"] == counts["complex"] == 2
    # set-up: one exponential per atom in the first residual; J reads the partitions
    assert counts["exp"] == per_atom * (1 + accepted)
    # one expm1 per atom and step below the floor
    assert counts["expm1"] == per_atom * below


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
    assert np.array_equal(grid(T, res.v).values, even(T, random_zero_mean(T, 0)).values)
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
    z_hat = torus.solve_poisson_zero_mean(T, cosine_transform(T, quarter(T, g.values)))
    assert first == math.sqrt(torus.gradient_inner(T, z_hat, z_hat))
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
    d, model, boundary, products = minimize_module._SteihaugPath(prob, partitions).step(radius)
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
    el_residual(prob, v, partitions)
    path = minimize_module._SteihaugPath(prob, partitions)
    d, _, boundary, products = path.step(1e6)
    nodes = (T.grid_n // 2 + 1) ** 2
    assert not boundary and products == len(path.directions) >= 2
    assert d.shape == (nodes,)
    assert all(q.shape == (nodes,) for q, _, _ in path.directions)


def test_truncated_cg_interior_step_solves_the_newton_equation():
    T, prob, g, partitions = _newton_model_setup()
    d, model, boundary, products = minimize_module._SteihaugPath(prob, partitions).step(1e6)
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
    path = minimize_module._SteihaugPath(prob, partitions)
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
    g = el_residual(prob, v, partitions)
    path = minimize_module._SteihaugPath(prob, partitions)
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
    fresh = minimize_module._SteihaugPath(prob, partitions).step(radius)
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
    v = synthetic_v(T, np.zeros((64, 64)))
    assert detect_concentration(T, v, 25.0) is None


def test_detect_concentration_single_peak():
    T = SpectralTorus(1.0, 64)
    v = synthetic_v(T, gaussian_bump(T, (32, 32), 30.0, 0.05))
    assert detect_concentration(T, v, 25.0) == (32, 32)
    # the quarter-cell values of 64^2 do not stand for a field on 32^2
    with pytest.raises(ValueError, match="grid"):
        detect_concentration(SpectralTorus(1.0, 32), v, 25.0)


def test_detect_concentration_prefers_heavier_peak():
    # equal heights, different widths, on the two nodes of the diagonal that
    # are their own reflections: the wider bump holds more density mass,
    # though the narrow one comes first in grid order
    T = SpectralTorus(1.0, 64)
    narrow = gaussian_bump(T, (0, 0), 30.0, 0.01)
    wide = gaussian_bump(T, (32, 32), 30.0, 0.04)
    v = synthetic_v(T, narrow + wide)
    assert grid_peak(T, v) == (0, 0)
    assert detect_concentration(T, v, 25.0) == (32, 32)


def test_detect_concentration_split_mass_is_none():
    # two identical bumps split the mass evenly; no majority point exists
    T = SpectralTorus(1.0, 64)
    twin = gaussian_bump(T, (0, 0), 30.0, 0.04) + gaussian_bump(T, (32, 32), 30.0, 0.04)
    v = synthetic_v(T, twin)
    assert detect_concentration(T, v, 25.0) is None


def test_a_spike_off_the_axes_is_four_spikes_and_does_not_concentrate():
    # a spike at quarter-cell node (8, 20) stands for four equal spikes on
    # the grid, at (8, 20) and its mirror images; the first is the peak
    # point, and each holds a quarter of the mass
    T = SpectralTorus(1.0, 64)
    v = synthetic_v(T, even(T, Field(gaussian_bump(T, (8, 20), 120.0, 0.01))).values)
    vals = grid(T, v).values
    assert [tuple(c) for c in np.argwhere(vals == vals.max())] == [(8, 20), (8, 44), (56, 20), (56, 44)]
    assert grid_peak(T, v) == (8, 20) and v.max() >= 25.0
    assert detect_concentration(T, v, 25.0) is None


def test_the_negative_spike_is_read_at_the_peak_of_minus_v():
    # as write_stage reads it: the values -v, and the reference slope of P's
    # negative side, which is that of the mirror image's positive side
    T = SpectralTorus(1.0, 64)
    v = synthetic_v(T, -gaussian_bump(T, (32, 0), 30.0, 0.05))
    assert detect_concentration(T, v, 25.0) is None
    P = new_atomic([(-1.0, 0.25), (0.5, 0.75)])
    spike = -v
    assert np.array_equal(grid(T, spike).values, -grid(T, v).values)
    assert grid_peak(T, spike) == (32, 0)
    assert detect_concentration(T, spike, 25.0) == (32, 0)
    profile = rescale_profile(T, P, spike, "negative")
    assert profile.gamma0_reference == 4.0  # K = {-1}: 4 P(K) / |m_K|
    mirrored_P = CirculationMeasure(tuple((-a, w) for a, w in reversed(P.atoms)))
    assert mirrored_P.atoms == ((-0.5, 0.75), (1.0, 0.25))
    mirrored = rescale_profile(T, mirrored_P, spike)
    assert (profile.peak_value, profile.gamma0_reference) == (mirrored.peak_value, mirrored.gamma0_reference)
    assert np.array_equal(profile.dw, mirrored.dw)
    # the mirror image (-v, alpha -> -alpha) of a state has the same energy
    v = even(T, random_zero_mean(T, 4, amplitude=2.0))
    same = energy(Problem(T, mirrored_P, 7.0), Field(-v.values))
    assert same == pytest.approx(energy(Problem(T, P, 7.0), v), rel=1e-12)
