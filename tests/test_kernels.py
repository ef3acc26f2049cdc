"""The solver's per-iterate kernels against the forms they replaced, bit
for bit (tests/oracles.py): the prescaled inverse cosine transform, the
blocked expm1 dots of a trial step, the row-atom maps of a stack of the
atoms' own rows, the stop test's peak of |v| and the in-order sum of the
energy difference's terms.  CI runs this file on one BLAS thread and again
on two, where a batched dot that left ``ddot`` would show."""

import math

import numpy as np
import pytest

import oracles
from helpers import even
from vortexmf.functional import Partitions, Problem, el_residual
from vortexmf.measure import new_atomic
from vortexmf.minimize import MinimizeOptions, _added_in_order, _stop_status, blowup_threshold, random_zero_mean
from vortexmf.torus import SpectralTorus, cosine_transform, inverse_cosine_transform, quarter

PAIR = [(-1.0, 0.5), (1.0, 0.5)]
ATOMS128 = [(-1.0 + (i + 0.5) / 64.0, 1.0 / 128.0) for i in range(128)]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def float_bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def filled(atoms, n: int, amplitude: float, seed: int = 0) -> tuple[Partitions, np.ndarray]:
    """Partitions filled by the residual at a seeded even field, and that
    field at the quarter-cell nodes."""
    T = SpectralTorus(1.0, n)
    prob = Problem(T, new_atomic(atoms), 10.0)
    v = quarter(T, even(T, random_zero_mean(T, seed, amplitude=amplitude)).values)
    partitions = Partitions(prob)
    el_residual(prob, v, partitions)
    return partitions, v


def step(partitions: Partitions, amplitude: float, seed: int) -> np.ndarray:
    T = partitions.torus
    return quarter(T, even(T, random_zero_mean(T, seed, amplitude=amplitude)).values)


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512])
def test_the_prescaled_inverse_transform_is_the_quotient_by_n2_bit_for_bit(n):
    # C X C^T / n^2 as (C / n^2) X C^T: n^2 is a power of two, so every
    # product and sum is the quotient's, scaled
    T = SpectralTorus(1.0, n)
    rng = np.random.default_rng(n)
    h = n // 2 + 1
    field_modes = cosine_transform(T, quarter(T, even(T, random_zero_mean(T, n, amplitude=5.0)).values))
    wide = rng.standard_normal(h * h) * np.exp(rng.uniform(-300.0, 300.0, h * h))
    for X in (field_modes, rng.standard_normal(h * h), wide):
        assert same_bits(inverse_cosine_transform(T, X), oracles.inverse_cosine_transform_by_division(T, X))


@pytest.mark.parametrize(
    "atoms, n",
    [(PAIR, 64), (PAIR, 256), (ATOMS128, 64)],
    ids=["pair-64", "pair-256", "atoms128-64"],
)
def test_blocked_expm1_dots_are_the_per_row_dots_bit_for_bit(atoms, n):
    # both branches: the stack's own rows and rows taken afresh, in blocks
    # of rows with one row-wise matmul each, against one 1-d dot per row;
    # 256^2 has rows of 16,641 values, long enough for a threaded dot
    partitions, _ = filled(atoms, n, amplitude=2.0)
    d = step(partitions, 0.3, seed=1)
    for k, (_, rows, _) in enumerate(partitions.layout):
        betas, _ = partitions._node_set(k, partitions.high - partitions.low)  # the fill's
        for block_rows in (partitions.stack[rows], None):
            got = np.empty(betas.size)
            partitions._expm1_dots(d, betas, got, block_rows)
            assert same_bits(got, oracles.expm1_dots_per_row(partitions, d, betas, block_rows))


@pytest.mark.parametrize(
    "atoms, n, exact",
    [(PAIR, 64, True), (PAIR, 256, True), ([(-1.0, 0.3), (0.5, 0.3), (1.0, 0.4)], 64, True), (ATOMS128, 64, False)],
    ids=["pair-64", "pair-256", "three-64", "atoms128-64"],
)
def test_expm1_sums_are_the_per_side_loop_bit_for_bit(atoms, n, exact):
    # a small step keeps the iterate's node sets and reads the stack; a
    # step that widens v's range past them takes fresh rows on 128 atoms,
    # and a stack of the atoms' own rows is one pass for both
    partitions, v = filled(atoms, n, amplitude=2.0)
    assert partitions.exact == exact
    held = [rows.stop - rows.start for _, rows, _ in partitions.layout]
    for amplitude, widens in ((0.01, False), (6.0, not exact)):
        d = step(partitions, amplitude, seed=2)
        got = partitions.expm1_sums(d)
        assert same_bits(got, oracles.expm1_sums_per_side(partitions, d))
        width = partitions.high - partitions.low + float(d.max()) - float(d.min())
        counts = [partitions._node_set(k, width)[0].size for k in range(len(held))]
        assert (counts != held) == widens


@pytest.mark.parametrize(
    "atoms, exact",
    [(PAIR, True), ([(-1.0, 0.3), (0.0, 0.2), (1.0, 0.5)], True), (ATOMS128, False)],
    ids=["pair", "with-zero-atom", "atoms128"],
)
def test_row_atom_maps_are_the_per_side_loop_bit_for_bit(atoms, exact):
    # where every row is its atom's own, to_atoms and to_rows hand their
    # argument back; otherwise they interpolate side by side
    partitions, _ = filled(atoms, 64, amplitude=1.0)
    assert partitions.exact == exact
    rng = np.random.default_rng(5)
    per_row = rng.standard_normal(partitions.stack.shape[0])
    per_atom = rng.standard_normal(partitions.alpha.size)
    assert same_bits(partitions.to_atoms(per_row), oracles.to_atoms_per_side(partitions, per_row))
    assert same_bits(partitions.to_rows(per_atom), oracles.to_rows_per_side(partitions, per_atom))
    assert partitions.totals.tobytes() == oracles.to_atoms_per_side(partitions, partitions.stack.sum(axis=1)).tobytes()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_the_stop_tests_peak_is_the_max_of_abs_v(sign):
    # max |v| = max(high, -low) exactly, for a field whose largest
    # magnitude is a maximum or a minimum; the stop test reads it
    for seed in range(5):
        partitions, v = filled(PAIR, 64, amplitude=sign * (1.0 + seed))
        assert partitions.peak == float(np.abs(v).max())
        assert partitions.high == float(v.max()) and partitions.low == float(v.min())
    T = partitions.torus
    opts = MinimizeOptions()
    threshold = blowup_threshold(T)
    assert _stop_status(opts, T, threshold, 1.0, 0) == "blown_up"
    assert _stop_status(opts, T, math.nextafter(threshold, 0.0), 1.0, 0) is None


def test_the_terms_are_added_in_order_bit_for_bit():
    # np.add.accumulate over [0.0, *terms] runs the loop's additions: -0.0
    # terms, subnormals, terms spanning the exponent range and the -inf of
    # an emptied partition give the loop's sum, sign included
    rng = np.random.default_rng(11)
    for k in range(200):
        n = int(rng.integers(1, 2000))
        terms = rng.standard_normal(n) * np.exp(rng.uniform(-700.0, 700.0, n))
        terms[rng.random(n) < 0.1] = -0.0
        subnormal = rng.random(n) < 0.1
        terms[subnormal] = 5e-324 * rng.integers(-1000, 1000, int(subnormal.sum()))
        if k % 5 == 0:
            terms[int(rng.integers(n))] = -math.inf
        got, want = _added_in_order(terms), oracles.added_in_a_loop(terms)
        assert float_bits(got) == float_bits(want)
    for terms in ([-0.0], [-0.0, -0.0], [5e-324, -5e-324], [1e308, -math.inf, 1.0], []):
        terms = np.array(terms, dtype=float)
        assert float_bits(_added_in_order(terms)) == float_bits(oracles.added_in_a_loop(terms))
