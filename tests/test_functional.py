"""Free energy, its gradient, dual form, and alpha-derivative identities.

The residual, the Hessian product and the energy difference take even
fields at their quarter-cell nodes (see vortexmf.torus), and the helpers
unfold what they hand back; the per-atom oracles run over the whole grid
and take any field."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import i0, ive

from helpers import (
    energy,
    even,
    grid,
    hessian_field,
    random_even_field,
    random_measure,
    random_zero_mean_field,
    residual,
    subtracted_energy_delta,
)
from oracles import (
    J_dual,
    J_per_atom,
    curvature_per_atom,
    dalpha_partition,
    dalpha_peak,
    el_residual_per_atom,
    energy_delta_per_atom,
    hessian_product_per_atom,
    gradient_inner,
    integrate,
    laplacian,
    node_count_walk,
    quarter_stack,
    relative_sums_per_atom,
    stack_per_atom,
)
from vortexmf.functional import (
    _NODE_TOL,
    J,
    Partitions,
    Problem,
    _node_count,
    el_residual,
    hessian_product,
    log_partition,
    w_alpha,
)
from vortexmf.measure import lambda_bar, new_atomic
from vortexmf.minimize import SUBTRACTION_RHO, MinimizeOptions, _EnergyDelta, minimize, random_zero_mean
from vortexmf import torus
from vortexmf.torus import (
    Field,
    SpectralTorus,
    cosine_transform,
    inverse_cosine_transform,
    project_zero_mean,
    quarter,
    unfold,
)


def zero_field(T):
    return Field(np.zeros((T.grid_n, T.grid_n)))


def test_log_partition_at_zero_field():
    T1 = SpectralTorus(1.0, 32)
    assert log_partition(T1, zero_field(T1), 0.7) == 0.0
    T2 = SpectralTorus(2.0, 32)
    assert log_partition(T2, zero_field(T2), 0.7) == pytest.approx(math.log(4.0), rel=1e-15)


def test_log_partition_overflow_guard():
    T = SpectralTorus(1.0, 16)
    spike = np.zeros((16, 16))
    spike[0, 0] = 1000.0
    v = project_zero_mean(T, Field(spike))
    with pytest.raises(OverflowError):
        log_partition(T, v, 1.0)


def test_cosine_partition_matches_bessel():
    # int e^{alpha eps cos} over the unit torus is the modified Bessel I0.
    T = SpectralTorus(1.0, 64)
    eps = 0.4
    x = np.arange(T.grid_n) * T.spacing
    vals = eps * np.cos(2.0 * math.pi * x)[:, None] * np.ones(T.grid_n)[None, :]
    v = project_zero_mean(T, Field(vals))
    for alpha in (0.3, 0.75, 1.0):
        assert log_partition(T, v, alpha) == pytest.approx(
            math.log(float(i0(alpha * eps))), abs=1e-13
        )


def test_energy_matches_bessel_closed_form():
    T = SpectralTorus(1.0, 64)
    eps = 0.25
    lam = 5.0
    x = np.arange(T.grid_n) * T.spacing
    vals = eps * np.cos(2.0 * math.pi * x)[:, None] * np.ones(T.grid_n)[None, :]
    # cos(2 pi x) is even; its grid values are, up to rounding
    v = even(T, Field(vals))
    P = new_atomic([(0.4, 0.3), (0.9, 0.7)])
    prob = Problem(T, P, lam)
    expected = eps * eps * math.pi**2 - lam * sum(
        w * math.log(float(i0(a * eps))) for a, w in P.atoms
    )
    assert energy(prob, v) == pytest.approx(expected, rel=1e-12)


def test_energy_is_zero_at_zero_field():
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, new_atomic([(0.5, 0.5), (-0.25, 0.5)]), 3.0)
    assert energy(prob, zero_field(T)) == 0.0


def test_w_alpha_normalization():
    T = SpectralTorus(1.5, 64)
    prob = Problem(T, new_atomic([(1.0, 1.0)]), 2.0)
    rng = np.random.default_rng(2)
    v = random_zero_mean_field(T, rng)
    for alpha in (0.2, 0.6, 1.0):
        wa = w_alpha(prob, v, alpha)
        mass = integrate(T, Field(np.exp(wa.values)))
        assert mass == pytest.approx(1.0, abs=1e-10)
    w0 = w_alpha(prob, v, 0.0)
    assert np.all(w0.values == -math.log(T.volume))


@pytest.mark.parametrize(
    "atoms",
    [[(0.4, 0.3), (1.0, 0.7)], [(-1.0, 0.3), (0.5, 0.3), (1.0, 0.4)]],
    ids=["positive", "signed"],
)
def test_functional_is_shift_invariant(atoms):
    # J, its gradient and the normalized fields do not see the constant mode
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, new_atomic(atoms), 20.0)
    v = random_even_field(T, np.random.default_rng(37))
    j0 = energy(prob, v)
    res0 = residual(prob, v).values
    for c in (-3.0, 0.5, 7.0):
        shifted = Field(v.values + c)
        assert energy(prob, shifted) == pytest.approx(j0, rel=1e-12, abs=1e-12)
        assert np.abs(residual(prob, shifted).values - res0).max() <= 1e-10
        for a, _ in prob.P.atoms:
            w_shift = w_alpha(prob, shifted, a).values
            assert np.abs(w_shift - w_alpha(prob, v, a).values).max() <= 1e-12


def test_problem_rejects_nonpositive_coupling():
    T = SpectralTorus(1.0, 32)
    with pytest.raises(ValueError):
        Problem(T, new_atomic([(1.0, 1.0)]), 0.0)
    with pytest.raises(ValueError):
        Problem(T, new_atomic([(1.0, 1.0)]), -1.0)


def test_gradient_matches_directional_finite_differences():
    T = SpectralTorus(1.0, 32)
    rng = np.random.default_rng(9)
    measures = [
        new_atomic([(1.0, 1.0)]),
        new_atomic([(0.5, 0.5), (1.0, 0.5)]),
        new_atomic([(-0.7, 0.3), (0.2, 0.3), (0.9, 0.4)]),
    ]
    h = 1e-5
    for P in measures:
        prob = Problem(T, P, 4.0)
        v = random_even_field(T, rng, amplitude=0.5)
        g = residual(prob, v)
        for _ in range(20):
            phi = random_even_field(T, rng)
            fd = (
                energy(prob, project_zero_mean(T, Field(v.values + h * phi.values)))
                - energy(prob, project_zero_mean(T, Field(v.values - h * phi.values)))
            ) / (2.0 * h)
            exact = integrate(T, Field(g.values * phi.values))
            assert fd == pytest.approx(exact, rel=1e-6, abs=1e-12)


def test_residual_vanishes_at_zero_field():
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, new_atomic([(0.3, 0.4), (0.8, 0.6)]), 6.0)
    res = residual(prob, zero_field(T))
    assert np.all(res.values == 0.0)


def cosine_laplacian(T, v):
    """-Laplacian v, less its mean, from v's cosine modes, as the residual
    computes it."""
    x = -inverse_cosine_transform(T, torus.laplacian(T, cosine_transform(T, quarter(T, v.values))))
    x -= torus.integrate(T, x) / T.volume
    return unfold(T, x)


def test_residual_reduces_to_laplacian_for_zero_circulation():
    # an atom at alpha = 0 contributes no nonlinearity
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, new_atomic([(0.0, 1.0)]), 7.0)
    rng = np.random.default_rng(4)
    v = random_even_field(T, rng)
    res = residual(prob, v)
    # bit for bit the Laplacian of the cosine modes, and the full-grid
    # Laplacian to rounding
    assert np.array_equal(res.values, cosine_laplacian(T, v))
    expected = project_zero_mean(T, Field(-laplacian(T, v).values)).values
    assert np.abs(res.values - expected).max() <= 1e-13 * np.abs(expected).max()


def test_residual_hands_out_the_shifted_partitions():
    # every atom, the zero atom included, in atom order and bit for bit: the
    # quarter cell of the per-atom loop's rows, times the node weights
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, new_atomic([(-1.0, 0.3), (0.0, 0.2), (0.5, 0.2), (1.0, 0.3)]), 5.0)
    rng = np.random.default_rng(8)
    v = random_even_field(T, rng)
    # refilled after another field, the partitions keep nothing of it
    partitions = Partitions(prob)
    residual(prob, random_even_field(T, rng), partitions)
    res = residual(prob, v, partitions)
    assert np.array_equal(res.values, residual(prob, v).values)
    assert np.array_equal(partitions.spectrum, cosine_transform(T, quarter(T, v.values)))
    stack, totals, shifts = stack_per_atom(prob, v)
    rows, row_sums = quarter_stack(T, stack)
    assert partitions.stack.shape == rows.shape == (len(prob.P.atoms), 17 * 17)
    assert np.array_equal(partitions.stack, rows)
    assert np.array_equal(partitions.totals, row_sums)
    assert np.array_equal(partitions.shifts, shifts)
    # the weighted quarter-cell sums are the grid sums
    assert np.abs(partitions.totals - totals).max() <= 1e-13 * totals.min()
    # J read off the partitions takes no transform and no exponential, and
    # matches the per-atom J over the whole grid
    assert J(prob, quarter(T, v.values), partitions) == pytest.approx(J_per_atom(prob, v), rel=1e-13)


def test_one_pass_stack_of_128_atoms_is_the_per_atom_loop_bit_for_bit():
    # each row's shift is alpha max v or alpha min v, never a row max, and
    # the stack is filled and summed in whole-stack calls; the signed
    # measure with a zero atom is test_residual_hands_out_the_shifted_partitions.
    # v spans 150 here, so each side of 64 atoms would need as many nodes
    # as atoms and keeps the atoms' own rows (at amplitude 5, v spans 19
    # and each side reads its rows from 32 nodes)
    T = SpectralTorus(1.0, 64)
    atoms = [(-1.0 + (i + 0.5) / 64, 1.0 / 128) for i in range(128)]
    prob = Problem(T, new_atomic(atoms), 10.0)
    v = random_even_field(T, np.random.default_rng(64), 40.0)
    partitions = Partitions(prob)
    residual(prob, v, partitions)
    assert all(lagrange is None for _, _, lagrange in partitions.layout)
    stack, _, shifts = stack_per_atom(prob, v)
    rows, row_sums = quarter_stack(T, stack)
    assert np.array_equal(partitions.stack, rows)
    assert np.array_equal(partitions.totals, row_sums)
    assert np.array_equal(partitions.shifts, shifts)


@pytest.fixture(scope="module")
def many_atom_state():
    """The benchmark's 128 equal atoms over [-1, 1] at 0.9 lambda_bar on
    128^2, converged from CLI seed 0, with its partitions filled."""
    T = SpectralTorus(1.0, 128)
    P = new_atomic([(-1.0 + (i + 0.5) / 64.0, 1.0 / 128.0) for i in range(128)])
    prob = Problem(T, P, 0.9 * lambda_bar(P).lambda_bar)
    v = grid(T, minimize(prob, MinimizeOptions()).v)
    partitions = Partitions(prob)
    residual(prob, v, partitions)
    return prob, v, partitions


def test_a_side_reads_its_atoms_rows_through_the_chebyshev_interpolant(many_atom_state):
    # |v| <= 8.46, so each side of 64 atoms takes about 31 nodes, and every
    # atom's row read through the interpolation matrix is its own row within
    # rounding of the row maximum 1
    prob, v, partitions = many_atom_state
    T = prob.torus
    rows, _ = quarter_stack(T, stack_per_atom(prob, v)[0])
    assert len(partitions.layout) == 2
    nodes = 0
    for atoms, block, lagrange in partitions.layout:
        assert lagrange is not None and lagrange.shape == (64, block.stop - block.start)
        assert 20 <= lagrange.shape[1] <= 40
        read = lagrange @ partitions.stack[block]
        assert np.abs(read - rows[atoms]).max() <= 4e-15 * T.quarter_weights.max()
        nodes += lagrange.shape[1]
    assert partitions.stack.shape == (nodes, (T.grid_n // 2 + 1) ** 2)


def _log_part(prob, v, d):
    """The log-partition part of the oracle's energy difference, which is
    all that the interpolation in alpha touches."""
    T = prob.torus
    return energy_delta_per_atom(prob, v, d) + gradient_inner(T, v, d) - 0.5 * gradient_inner(T, d, d)


def test_interpolated_kernels_match_the_per_atom_oracles_on_the_converged_many_atom_state(many_atom_state, monkeypatch):
    prob, v, partitions = many_atom_state
    T = prob.torus
    res = residual(prob, v, partitions).values
    expected = el_residual_per_atom(prob, v).values
    # the residual itself is below grad_tol; its density part, without each
    # side's own Laplacian, is of order lambda
    lin = project_zero_mean(T, Field(-laplacian(T, v).values)).values
    density_gap = (res - cosine_laplacian(T, v)) - (expected - lin)
    assert np.abs(density_gap).max() <= 1e-13 * np.abs(expected - lin).max()
    _, totals, _ = stack_per_atom(prob, v)
    assert np.abs(partitions.totals - totals).max() <= 1e-13 * totals.min()
    curvature = curvature_per_atom(prob, v)
    assert np.abs(unfold(T, partitions.curvature) - curvature).max() <= 1e-13 * curvature.max()
    assert J(prob, quarter(T, v.values), partitions) == pytest.approx(J_per_atom(prob, v), rel=1e-13)
    for seed in range(3):
        phi = even(T, random_zero_mean(T, 40 + seed, amplitude=1.0))
        _, kappa, hq_hat = hessian_product(prob, partitions, cosine_transform(T, quarter(T, phi.values)))
        expected = hessian_product_per_atom(prob, v, phi).values
        got = unfold(T, inverse_cosine_transform(T, hq_hat))
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        assert kappa == pytest.approx(integrate(T, Field(phi.values * expected)), rel=1e-13)
    # a small step reads the node rows of the stack; a step that widens v's
    # range takes rows at the nodes the wider range needs, and one that
    # needs as many nodes as atoms takes each atom's own row: the exponentials
    # each trial takes tell which
    exps = []
    real_exp = np.exp
    monkeypatch.setattr(np, "exp", lambda x, *args, **kwargs: exps.append(np.size(x)) or real_exp(x, *args, **kwargs))
    node_rows = partitions.stack.shape[0]
    per_row = T.quarter_weights.size
    for amplitude, rows_taken in ((1e-3, 0), (2.0, None), (300.0, 128)):
        d = even(T, random_zero_mean(T, 20, amplitude=amplitude))
        exps.clear()
        sums = partitions.expm1_sums(quarter(T, d.values))
        if rows_taken is None:
            assert node_rows < sum(exps) // per_row < 128
        else:
            assert sum(exps) == rows_taken * per_row
        # each atom's relative change of its partition integral, small |alpha|
        # included, and the energy difference, of which the interpolation
        # touches only the log-partition part
        rel = relative_sums_per_atom(prob, v, d)
        assert (np.abs(sums / partitions.totals - rel) <= 1e-13 * np.abs(rel)).all()
        # the largest step changes J by 4e6, almost all of it Dirichlet
        # energy, whose rounding alone is 1e-13 of the log-partition part
        if amplitude < 100.0:
            got = _EnergyDelta(prob, quarter(T, d.values), partitions)()
            assert abs(got - energy_delta_per_atom(prob, v, d)) <= 1e-13 * abs(_log_part(prob, v, d))


@pytest.mark.parametrize("amplitude", [1e-3, 0.1, 2.0, 20.0])
def test_a_step_above_the_floor_reads_the_candidate_on_the_converged_many_atom_state(many_atom_state, amplitude):
    # the candidate's interpolated fill, less J(v), is the cancellation-free
    # difference within the floor rho eps S(v), and within 2c eps (S + |dJ|)
    # for c = 20, the rounding of J at v and at v - d
    prob, v, _ = many_atom_state
    d = even(prob.torus, random_zero_mean(prob.torus, 20, amplitude=amplitude))
    subtracted, cancellation_free, eps_s = subtracted_energy_delta(prob, v, d)
    gap = abs(subtracted - cancellation_free)
    assert gap <= SUBTRACTION_RHO * eps_s
    assert gap <= 40.0 * (eps_s + math.ulp(1.0) * abs(cancellation_free))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 701.0])
def test_residual_guard_rejects_a_non_finite_or_too_large_field(bad):
    # one cell at 701 puts alpha = 1's exponent above the guard
    T = SpectralTorus(1.0, 16)
    prob = Problem(T, new_atomic([(-1.0, 0.5), (1.0, 0.5)]), 5.0)
    vals = np.zeros((16, 16))
    vals[3, 5] = bad
    with pytest.raises(OverflowError, match="^partition exponent out of range$"):
        residual(prob, Field(vals))


def test_batched_layer_matches_the_per_atom_oracles():
    # the layer sums at the quarter-cell nodes, the oracles over the whole grid
    T = SpectralTorus(1.0, 32)
    atoms = [(-1.0, 0.1), (-0.6, 0.2), (-0.1, 0.1), (0.0, 0.2), (0.3, 0.1), (0.8, 0.1), (1.0, 0.2)]
    prob = Problem(T, new_atomic(atoms), 30.0)
    v = even(T, random_zero_mean(T, 3, amplitude=2.0))
    partitions = Partitions(prob)
    res = residual(prob, v, partitions).values
    expected = el_residual_per_atom(prob, v).values
    assert np.abs(res - expected).max() <= 1e-13 * np.abs(expected).max()
    # the density part alone, without each side's own Laplacian
    lin = project_zero_mean(T, Field(-laplacian(T, v).values)).values
    density_gap = (res - cosine_laplacian(T, v)) - (expected - lin)
    assert np.abs(density_gap).max() <= 1e-13 * np.abs(expected - lin).max()
    _, totals, _ = stack_per_atom(prob, v)
    assert np.abs(partitions.totals - totals).max() <= 1e-13 * totals.min()
    curvature = curvature_per_atom(prob, v)
    assert np.abs(unfold(T, partitions.curvature) - curvature).max() <= 1e-13 * curvature.max()
    for seed in range(3):
        d = even(T, random_zero_mean(T, 20 + seed, amplitude=0.5))
        delta = energy_delta_per_atom(prob, v, d)
        assert _EnergyDelta(prob, quarter(T, d.values), partitions)() == pytest.approx(delta, rel=1e-13)
    # the product runs on cosine modes, the oracle one atom at a time on the
    # grid; it hands q back at the quarter-cell nodes
    for seed in range(3):
        phi = even(T, random_zero_mean(T, 40 + seed, amplitude=1.0))
        q, kappa, hq_hat = hessian_product(prob, partitions, cosine_transform(T, quarter(T, phi.values)))
        expected = hessian_product_per_atom(prob, v, phi).values
        got = unfold(T, inverse_cosine_transform(T, hq_hat))
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        assert np.abs(q - quarter(T, phi.values)).max() <= 1e-15
        assert kappa == pytest.approx(integrate(T, Field(phi.values * expected)), rel=1e-13)


def test_one_iterate_fills_the_stack_in_place_and_allocates_few_fields():
    # 128 atoms on 64^2, whose two sides read their rows from 14 nodes
    # each: a stack of 28 quarter-cell rows, made by the first fill, before
    # the traced calls.  Filled again, multiplied and moved along, it takes
    # at most 8 fields beyond itself per call, and no allocation a call
    # leaves live is larger than a field: a new stack per residual, made
    # while the old one is alive, raises the peak resident set by a stack
    # or more.  A fill allocates a stack only when it needs more rows than
    # any before
    T = SpectralTorus(1.0, 64)
    n_atoms = 128
    atoms = [(-1.0 + (i + 0.5) / 64, 1.0 / n_atoms) for i in range(n_atoms)]
    prob = Problem(T, new_atomic(atoms), 100.0)
    v = even(T, random_zero_mean(T, 0, amplitude=1.0))
    d = even(T, random_zero_mean(T, 1, amplitude=0.1))
    v_nodes, d_nodes = quarter(T, v.values), quarter(T, d.values)
    d_hat = cosine_transform(T, d_nodes)
    field = v.values.nbytes
    residual(prob, v)  # the torus symbols are cached outside the traced calls
    partitions = Partitions(prob)
    el_residual(prob, v_nodes, partitions)
    rows, buffer = partitions.stack.shape[0], partitions.stack.ctypes.data
    assert rows == 28
    calls = [
        lambda: el_residual(prob, v_nodes, partitions),
        lambda: hessian_product(prob, partitions, d_hat),
        lambda: _EnergyDelta(prob, d_nodes, partitions)(),
    ]
    rises = []  # each call's traced peak above what was live when it began
    tracemalloc.start()
    try:
        for call in calls:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            rises.append(tracemalloc.get_traced_memory()[1] - start)
        largest = max((trace.size for trace in tracemalloc.take_snapshot().traces), default=0)
    finally:
        tracemalloc.stop()
    # a stack-sized temporary (128 fields here) in any call breaks its bound
    assert max(rises) <= 8 * field
    assert largest <= field
    # the calls work at the quarter-cell nodes: nothing they leave live is
    # larger than (n/2 + 1)^2 values
    assert largest <= d_nodes.nbytes
    assert (partitions.stack.shape[0], partitions.stack.ctypes.data) == (rows, buffer)
    # a wider v needs more node rows, and a new stack; v then fills the
    # first rows of that one
    el_residual(prob, 4.0 * v_nodes, partitions)
    wide, grown = partitions.stack.shape[0], partitions.stack.ctypes.data
    assert wide > rows and grown != buffer
    el_residual(prob, v_nodes, partitions)
    assert (partitions.stack.shape[0], partitions.stack.ctypes.data) == (rows, grown)


def test_a_side_of_4096_atoms_holds_count_times_r_values_beside_the_stack():
    # 4,096 atoms on 32^2: the stack holds the 2r node rows of the two
    # sides, and each side's node sets, the iterate's and that of a step
    # that widens v's range, hold count x r values each (2.1 MiB traced in
    # all here); a stack buffer with a row per atom, 9.0 MiB, breaks the
    # bound, and count^2 interpolation buffers per side traced 137.6 MiB
    T = SpectralTorus(1.0, 32)
    n_atoms = 4096
    P = new_atomic([(-1.0 + 2.0 * (i + 0.5) / n_atoms, 1.0 / n_atoms) for i in range(n_atoms)])
    prob = Problem(T, P, 10.0)
    v = quarter(T, even(T, random_zero_mean(T, 0, amplitude=8.0)).values)
    d = quarter(T, even(T, random_zero_mean(T, 1, amplitude=1.0)).values)
    cosine_transform(T, v)  # the torus symbols are cached outside the trace
    tracemalloc.start()
    try:
        partitions = Partitions(prob)
        el_residual(prob, v, partitions)
        _EnergyDelta(prob, d, partitions)()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    r = max(rows.stop - rows.start for _, rows, _ in partitions.layout)
    assert r <= 32 and partitions.stack.shape[0] <= 2 * r
    assert peak <= 8 * n_atoms * 4 * r < 8 * n_atoms * v.size


def test_a_run_of_4096_atoms_holds_no_more_stack_rows_than_its_fills_use(monkeypatch):
    # 4,096 atoms at 0.9 lambda_bar on 32^2: each of the run's two
    # partitions grows its stack buffer to the most rows one of its fills
    # used, a few dozen node rows, not a row per atom
    fills = {}  # per partitions, the most rows a fill used
    real_fill = Partitions.fill

    def recorded(self, v, lo, hi):
        real_fill(self, v, lo, hi)
        fills[self] = max(fills.get(self, 0), self.stack.shape[0])

    monkeypatch.setattr(Partitions, "fill", recorded)
    T = SpectralTorus(1.0, 32)
    n_atoms = 4096
    P = new_atomic([(-1.0 + 2.0 * (i + 0.5) / n_atoms, 1.0 / n_atoms) for i in range(n_atoms)])
    assert minimize(Problem(T, P, 0.9 * lambda_bar(P).lambda_bar), MinimizeOptions()).status == "converged"
    assert len(fills) == 2
    for partitions, rows in fills.items():
        assert partitions._stack.shape == (rows, T.quarter_weights.size)
        assert rows <= 64


def test_node_count_meets_the_bessel_tail_it_bounds():
    # the Chebyshev coefficients of a row relative to its maximum are at most
    # 2 I_k(c) e^{-c}, so 4 sum_{k >= r} ive(k, c) bounds the interpolation
    # error at r nodes.  The b_k bound of _node_count meets that tail at the
    # count it returns, and up to c = 32 it spares at most one node, only
    # where the tail at the count below is within 20% of the tolerance;
    # above, it is loose (c = 300 returns 192, the tail first meets it at 152)
    def tails(c):  # the bound at r nodes for r = 0, 1, ...
        return 4.0 * np.cumsum(ive(np.arange(1000), c)[::-1])[::-1]

    for c in np.geomspace(0.01, 300.0, 500).tolist():
        bound = tails(c)
        r = _node_count(c, 10**6, 1)
        assert bound[r] <= _NODE_TOL
        fewest = int(np.argmax(bound <= _NODE_TOL))
        if c <= 32.0:
            assert r == fewest or (r == fewest + 1 and bound[fewest] > 0.8 * _NODE_TOL)
    for c, r in ((1.0, 16), (8.32, 31), (32.0, 54)):
        bound = tails(c)
        assert _node_count(c, 10**6, 1) == r
        assert bound[r] <= _NODE_TOL < bound[r - 1]


def test_node_count_walks_from_the_held_count_to_the_same_answer():
    # the bound falls with r past c/2, so a walk from any start, down from
    # one that meets it and up from one that does not, ends where the walk
    # up from c/2 does; a count of 64 caps it as a side of 64 atoms does,
    # and every start past the count starts at the count
    for c in np.geomspace(0.01, 300.0, 500).tolist():
        for count, starts in ((10**6, 201), (64, 66)):
            expected = node_count_walk(c, count)
            assert all(_node_count(c, count, start) == expected for start in range(starts))


def _signed_hessian_setup():
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, new_atomic([(-0.7, 0.3), (0.2, 0.3), (0.9, 0.4)]), 30.0)
    v = even(T, random_zero_mean(T, 3, amplitude=2.0))
    partitions = Partitions(prob)
    residual(prob, v, partitions)
    return T, prob, v, partitions


def test_hessian_product_is_symmetric():
    T, prob, _, partitions = _signed_hessian_setup()
    rng = np.random.default_rng(12)
    for _ in range(5):
        phi = random_even_field(T, rng)
        psi = random_even_field(T, rng)
        h_phi = hessian_field(prob, partitions, quarter(T, phi.values))
        h_psi = hessian_field(prob, partitions, quarter(T, psi.values))
        lhs = integrate(T, Field(h_phi.values * psi.values))
        rhs = integrate(T, Field(phi.values * h_psi.values))
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert abs(h_phi.values.mean()) <= 1e-12 * np.abs(h_phi.values).max()


def test_hessian_product_is_the_derivative_of_the_residual():
    # central difference of el_residual along smooth directions; the
    # Laplacian part is linear, so the nonlinear part is also checked alone
    T, prob, v, partitions = _signed_hessian_setup()
    h = 1e-4
    for seed in range(4):
        phi = even(T, random_zero_mean(T, 100 + seed, amplitude=1.0))
        plus = residual(prob, Field(v.values + h * phi.values)).values
        minus = residual(prob, Field(v.values - h * phi.values)).values
        fd = (plus - minus) / (2.0 * h)
        exact = hessian_field(prob, partitions, quarter(T, phi.values)).values
        assert np.abs(fd - exact).max() <= 1e-6 * np.abs(exact).max()
        lin = project_zero_mean(T, Field(-laplacian(T, phi).values)).values
        assert np.abs(fd - exact).max() <= 1e-6 * np.abs(exact - lin).max()


def test_dual_energy_agrees_at_zero_field():
    rng = np.random.default_rng(21)
    for side in (1.0, 2.0):
        T = SpectralTorus(side, 32)
        for _ in range(20):
            P = random_measure(rng, max_atoms=6, signed=False)
            prob = Problem(T, P, float(rng.uniform(0.5, 10.0)))
            v = zero_field(T)
            assert abs(J_dual(prob, v) - energy(prob, v)) <= 1e-9


def test_dual_energy_rejects_negative_circulations():
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, new_atomic([(-0.5, 0.5), (1.0, 0.5)]), 2.0)
    with pytest.raises(ValueError, match="support"):
        J_dual(prob, zero_field(T))


def test_alpha_derivative_at_peak_matches_closed_form():
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, new_atomic([(1.0, 1.0)]), 2.0)
    rng = np.random.default_rng(13)
    v = random_zero_mean_field(T, rng)
    peak = np.unravel_index(int(np.argmax(v.values)), v.values.shape)
    for alpha in (0.3, 0.7):
        # d/dalpha w_alpha(peak) = v(peak) - int v e^{alpha v} / int e^{alpha v}
        dens = np.exp(alpha * v.values - log_partition(T, v, alpha))
        mean_v = integrate(T, Field(v.values * dens))
        oracle = float(v.values[peak]) - mean_v
        assert dalpha_peak(prob, v, peak, alpha) == pytest.approx(oracle, rel=1e-6)
        assert oracle >= -1e-8


def test_alpha_derivative_of_partition_matches_closed_form():
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, new_atomic([(1.0, 1.0)]), 2.0)
    rng = np.random.default_rng(17)
    v = random_zero_mean_field(T, rng)
    for alpha in (0.2, 0.5, 0.9):
        oracle = integrate(T, Field(v.values * np.exp(alpha * v.values)))
        assert dalpha_partition(prob, v, alpha) == pytest.approx(oracle, rel=1e-6)
        assert oracle >= -1e-8


def test_alpha_derivatives_are_nonnegative_on_random_fields():
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, new_atomic([(1.0, 1.0)]), 2.0)
    rng = np.random.default_rng(29)
    for _ in range(10):
        v = random_zero_mean_field(T, rng, amplitude=float(rng.uniform(0.1, 2.0)))
        peak = np.unravel_index(int(np.argmax(v.values)), v.values.shape)
        alpha = float(rng.uniform(0.1, 0.9))
        assert dalpha_peak(prob, v, peak, alpha) >= -1e-8
        assert dalpha_partition(prob, v, alpha) >= -1e-8


def test_alpha_derivative_guards():
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, new_atomic([(1.0, 1.0)]), 2.0)
    rng = np.random.default_rng(31)
    v = random_zero_mean_field(T, rng)
    peak = np.unravel_index(int(np.argmax(v.values)), v.values.shape)
    not_peak = ((peak[0] + 1) % 32, peak[1])
    with pytest.raises(ValueError, match="argmax"):
        dalpha_peak(prob, v, not_peak, 0.5)
    with pytest.raises(ValueError, match="stencil"):
        dalpha_peak(prob, v, peak, 1.0)
    with pytest.raises(ValueError, match="stencil"):
        dalpha_partition(prob, v, 1e-5)
    with pytest.raises(ValueError, match="positive"):
        dalpha_partition(prob, v, 0.5, h=0.0)
