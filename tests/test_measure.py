"""Measure construction, moments, the extremal coupling and its full-support
flag: the theorems that tie full support to alpha_min, m1 and the
residual-vanishing form 8 pi / m1^2, checked over random measures, and the
continuum oracle of uniform densities discretized by midpoint atoms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexmf.measure import (
    EIGHT_PI,
    alpha_min,
    full_support,
    lambda_bar,
    lambda_bar_residual_vanishing,
    load_measure,
    moment,
    new_atomic,
    parse_atoms_inline,
    tail_scan,
)

from bruteforce import lambda_bar_bruteforce
from helpers import random_measure


def test_new_atomic_sorts_and_merges():
    P = new_atomic([(1.0, 0.5), (0.5, 0.25), (0.5, 0.25)])
    assert P.atoms == ((0.5, 0.5), (1.0, 0.5))
    assert len(P.atoms) == 2


def test_new_atomic_single_atom():
    P = new_atomic([(1.0, 1.0)])
    assert P.atoms == ((1.0, 1.0),)


def test_new_atomic_rejects_bad_input():
    with pytest.raises(ValueError):
        new_atomic([])
    with pytest.raises(ValueError):
        new_atomic([(1.5, 1.0)])
    with pytest.raises(ValueError):
        new_atomic([(0.5, -0.1), (1.0, 1.1)])
    with pytest.raises(ValueError):
        new_atomic([(0.5, 0.4), (1.0, 0.4)])  # sums to 0.8


def test_new_atomic_normalizes_tiny_drift():
    P = new_atomic([(0.5, 0.5 + 3e-10), (1.0, 0.5)])
    assert math.fsum(w for _, w in P.atoms) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [99_999, 100_000])
def test_a_measure_new_atomic_normalised_is_accepted(tmp_path, n):
    # n equal midpoint atoms on [-1, 1]: added one at a time, the rescaled
    # weights miss 1 by about 2e-12, which an exact sum does not
    pairs = [(-1.0 + 2.0 * (i + 0.5) / n, 1.0 / n) for i in range(n)]
    P = new_atomic(pairs)
    assert len(P.atoms) == n
    path = tmp_path / "density.txt"
    path.write_text("".join(f"{a!r} {w!r}\n" for a, w in pairs))
    assert load_measure(str(path)).atoms == P.atoms


def test_moment_examples():
    assert moment(new_atomic([(1.0, 1.0)]), 1) == 1.0
    P = new_atomic([(0.5, 0.5), (1.0, 0.5)])
    assert moment(P, 1) == 0.75
    assert moment(P, 0) == 1.0
    mixed = new_atomic([(-0.5, 0.25), (0.25, 0.25), (1.0, 0.5)])
    assert moment(mixed, 1, side="positive") == pytest.approx(0.5625, abs=1e-15)
    assert moment(mixed, 1, side="negative") == pytest.approx(-0.125, abs=1e-15)
    assert moment(mixed, 1) == pytest.approx(0.4375, abs=1e-15)


def test_alpha_min_examples():
    assert alpha_min(new_atomic([(1.0, 1.0)])) == 1.0
    assert alpha_min(new_atomic([(0.5, 0.5), (1.0, 0.5)])) == 0.5
    Pd = new_atomic([(0.65, 0.25), (0.75, 0.25), (0.85, 0.25), (0.95, 0.25)])
    assert alpha_min(Pd) == pytest.approx(0.65, abs=1e-15)
    with pytest.raises(ValueError):
        alpha_min(new_atomic([(-0.5, 1.0)]))


def test_lambda_bar_classical():
    res = lambda_bar(new_atomic([(1.0, 1.0)]))
    assert res.lambda_bar == EIGHT_PI
    assert res.minimizing_subset == (0,)
    assert res.side == "positive"


def test_lambda_bar_two_atoms():
    res = lambda_bar(new_atomic([(0.5, 0.5), (1.0, 0.5)]))
    assert res.lambda_bar == pytest.approx(128.0 * math.pi / 9.0, rel=1e-14)
    assert res.minimizing_subset == (0, 1)


def test_lambda_bar_negative_side_wins():
    res = lambda_bar(new_atomic([(-1.0, 0.75), (1.0, 0.25)]))
    assert res.lambda_bar == pytest.approx(32.0 * math.pi / 3.0, rel=1e-14)
    assert res.side == "negative"
    assert res.minimizing_subset == (0,)


def test_lambda_bar_residual_vanishing_region():
    res = lambda_bar(new_atomic([(0.6, 0.5), (1.0, 0.5)]))
    assert res.lambda_bar == pytest.approx(12.5 * math.pi, rel=1e-14)
    assert res.minimizing_subset == (0, 1)


def test_lambda_bar_zero_only_atom_is_infinite():
    res = lambda_bar(new_atomic([(0.0, 1.0)]))
    assert math.isinf(res.lambda_bar)
    assert res.minimizing_subset == ()


def test_lambda_bar_matches_bruteforce_random():
    rng = np.random.default_rng(42)
    for _ in range(200):
        P = random_measure(rng, max_atoms=12)
        fast = lambda_bar(P)
        slow = lambda_bar_bruteforce(P)
        assert fast.lambda_bar == slow.lambda_bar
        assert fast.minimizing_subset == slow.minimizing_subset
        assert fast.side == slow.side


def test_bruteforce_rejects_large_measures():
    rng = np.random.default_rng(0)
    alphas = np.linspace(0.01, 1.0, 23)
    P = new_atomic([(float(a), 1.0 / 23.0) for a in alphas])
    with pytest.raises(ValueError):
        lambda_bar_bruteforce(P)
    assert math.isfinite(lambda_bar(P).lambda_bar)


def test_extremal_value_matches_subset_ratio():
    rng = np.random.default_rng(7)
    for _ in range(50):
        P = random_measure(rng, max_atoms=8)
        res = lambda_bar(P)
        if not math.isfinite(res.lambda_bar):
            continue
        mass = math.fsum(P.atoms[i][1] for i in res.minimizing_subset)
        integral = math.fsum(P.atoms[i][0] * P.atoms[i][1] for i in res.minimizing_subset)
        assert res.lambda_bar == pytest.approx(
            EIGHT_PI * mass / integral**2, rel=1e-12
        )


def test_scaling_law():
    rng = np.random.default_rng(3)
    for _ in range(100):
        P = random_measure(rng, max_atoms=8, signed=False, low=0.05)
        c = float(rng.uniform(0.1, 1.0))
        scaled = new_atomic([(c * a, w) for a, w in P.atoms])
        lhs = lambda_bar(scaled).lambda_bar
        rhs = lambda_bar(P).lambda_bar / (c * c)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_full_support_when_alpha_min_above_half():
    rng = np.random.default_rng(11)
    for _ in range(50):
        P = random_measure(rng, max_atoms=8, signed=False, low=0.5000001)
        res = lambda_bar(P)
        assert res.minimizing_subset == tuple(range(len(P.atoms)))
        assert res.lambda_bar == pytest.approx(
            lambda_bar_residual_vanishing(P), rel=1e-12
        )


def test_half_moment_condition_does_not_force_full_support():
    # alpha_min > m1/2 alone is weaker than alpha_min > 1/2 and admits
    # measures whose extremal subset is a strict tail; keep one frozen.
    P = new_atomic(
        [(0.2563364609233575, 0.8147500586428784), (0.9425688183682956, 0.1852499413571216)]
    )
    assert alpha_min(P) > 0.5 * moment(P, 1)
    res = lambda_bar(P)
    assert res.minimizing_subset == (1,)
    assert res.lambda_bar < lambda_bar_residual_vanishing(P)


def test_residual_vanishing_requires_positive_support():
    with pytest.raises(ValueError):
        lambda_bar_residual_vanishing(new_atomic([(-0.5, 0.5), (1.0, 0.5)]))
    with pytest.raises(ValueError):
        lambda_bar_residual_vanishing(new_atomic([(0.0, 1.0)]))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_tail_scan_equals_bruteforce_property(seed):
    rng = np.random.default_rng(seed)
    P = random_measure(rng, max_atoms=6)
    fast = lambda_bar(P)
    slow = lambda_bar_bruteforce(P)
    assert fast.lambda_bar == slow.lambda_bar
    assert fast.minimizing_subset == slow.minimizing_subset


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(min_value=0, max_value=3),
)
def test_moment_mixture_linearity(seed, t, k):
    rng = np.random.default_rng(seed)
    P1 = random_measure(rng, max_atoms=5)
    P2 = random_measure(rng, max_atoms=5)
    mix = new_atomic(
        [(a, t * w) for a, w in P1.atoms] + [(a, (1.0 - t) * w) for a, w in P2.atoms]
    )
    expected = t * moment(P1, k) + (1.0 - t) * moment(P2, k)
    assert moment(mix, k) == pytest.approx(expected, abs=1e-12)


def test_measure_file_roundtrip(tmp_path):
    P = new_atomic([(-0.25, 0.125), (0.5, 0.375), (1.0, 0.5)])
    path = tmp_path / "measure.txt"
    path.write_text("# alpha weight\n-0.25 0.125\n0.5 0.375\n1.0 0.5\n")
    Q = load_measure(str(path))
    assert Q.atoms == P.atoms


def test_load_measure_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# comment\n1.0 0.5\nx y\n")
    with pytest.raises(ValueError, match="line 3"):
        load_measure(str(path))
    path.write_text("1.0\n")
    with pytest.raises(ValueError, match="line 1"):
        load_measure(str(path))
    path.write_text("1.5 1.0\n")
    with pytest.raises(ValueError, match="outside"):
        load_measure(str(path))


def test_parse_atoms_inline():
    P = parse_atoms_inline("0.5:0.5,1.0:0.5")
    assert P.atoms == ((0.5, 0.5), (1.0, 0.5))
    with pytest.raises(ValueError):
        parse_atoms_inline("0.5=0.5")
    for text in ("1:1,", ",1:1", "1:1, ,0.5:1"):
        with pytest.raises(ValueError, match="empty entry"):
            parse_atoms_inline(text)
    with pytest.raises(ValueError, match="at least one atom"):
        parse_atoms_inline(" ")


def test_full_support_classical():
    P = new_atomic([(1.0, 1.0)])
    res = lambda_bar(P)
    assert full_support(P, res)
    assert alpha_min(P) > 0.5 and alpha_min(P) > 0.5 * moment(P, 1)
    assert res.lambda_bar == pytest.approx(EIGHT_PI, rel=1e-12)
    assert res.lambda_bar == lambda_bar_residual_vanishing(P)


def test_full_support_two_atoms_above_half():
    P = new_atomic([(0.6, 0.5), (1.0, 0.5)])
    res = lambda_bar(P)
    assert alpha_min(P) > 0.5
    assert full_support(P, res)
    assert res.lambda_bar == pytest.approx(12.5 * math.pi, rel=1e-12)
    assert res.lambda_bar == pytest.approx(lambda_bar_residual_vanishing(P), rel=1e-9)


def test_below_half_departure_is_not_full_support():
    # small circulations push the extremal coupling below the
    # residual-vanishing value, and the extremal subset drops them
    P = new_atomic([(0.1, 0.9), (1.0, 0.1)])
    res = lambda_bar(P)
    assert alpha_min(P) <= 0.5
    assert not full_support(P, res)
    assert alpha_min(P) > 0.5 * moment(P, 1)
    assert res.lambda_bar == pytest.approx(80.0 * math.pi, rel=1e-12)
    assert res.lambda_bar < lambda_bar_residual_vanishing(P) * (1.0 - 1e-9)


def test_signed_measures_never_have_full_support():
    # the extremal subset lies in one sign interval; the residual-vanishing
    # form needs support in [0, 1]
    P = new_atomic([(-0.5, 0.5), (1.0, 0.5)])
    assert not full_support(P, lambda_bar(P))
    with pytest.raises(ValueError):
        lambda_bar_residual_vanishing(P)


def test_unknown_side_tag_is_rejected():
    # 'Positive' is not 'positive': it must not fall through to the negative side
    P = new_atomic([(-1.0, 0.5), (0.5, 0.5)])
    assert tail_scan(P, "positive") == (64.0 * math.pi, (1,))
    assert tail_scan(P, "negative") == (16.0 * math.pi, (0,))
    for side in ("Positive", "all", ""):
        with pytest.raises(ValueError, match="bad side"):
            tail_scan(P, side)
    with pytest.raises(ValueError, match="bad side"):
        moment(P, 1, "Positive")


def unit_interval_measures(count: int, seed: int):
    """Random atomic measures on [0, 1] with up to 8 atoms.  About a third
    have every atom above a random floor in (0, 1), and about one in five
    with two or more atoms has an atom at 0."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 9))
        low = float(rng.uniform(0.0, 1.0)) if rng.random() < 0.35 else 0.0
        alphas = rng.uniform(low, 1.0, size=n).tolist()
        if n > 1 and rng.random() < 0.2:
            alphas[0] = 0.0
        weights = rng.uniform(0.1, 1.0, size=n)
        yield new_atomic(list(zip(alphas, (weights / weights.sum()).tolist())))


THEOREM_MEASURES = 2500


def test_alpha_min_above_half_implies_full_support():
    above = 0
    for P in unit_interval_measures(THEOREM_MEASURES, seed=101):
        if alpha_min(P) > 0.5:
            above += 1
            assert full_support(P, lambda_bar(P)), P
    assert above >= 300


def test_full_support_implies_alpha_min_at_least_half_the_mean():
    # the removal condition of the prefix proof in measure's docstring,
    # with K = supp(P): |alpha_i| >= s / (2p) = m1 / 2
    full = zero_atom = 0
    for P in unit_interval_measures(THEOREM_MEASURES, seed=102):
        zero_atom += P.atoms[0][0] == 0.0
        if full_support(P, lambda_bar(P)):
            full += 1
            assert alpha_min(P) >= 0.5 * moment(P, 1), P
    assert full >= 500 and zero_atom >= 200


def test_full_support_is_the_residual_vanishing_form():
    counts = {True: 0, False: 0}
    for P in unit_interval_measures(THEOREM_MEASURES, seed=103):
        res = lambda_bar(P)
        rv = lambda_bar_residual_vanishing(P)
        matches = abs(res.lambda_bar - rv) <= 1e-9 * max(1.0, rv)
        assert full_support(P, res) == matches, P
        counts[matches] += 1
    assert min(counts.values()) >= 500


def midpoint_atoms(a: float, b: float, n: int):
    """Uniform on [a, b] as n equal atoms at the midpoints of n equal cells."""
    h = (b - a) / n
    return new_atomic([(a + (i + 0.5) * h, 1.0 / n) for i in range(n)])


def test_uniform_density_on_unit_interval_has_no_residual_vanishing():
    # continuum oracle: among tails [t, 1] of the uniform density,
    # 8 pi B / A^2 is least where E[alpha | alpha >= t] = 2t, at t* = 1/3,
    # so lambda_bar = 27 pi, below 8 pi / m1^2 = 32 pi
    expected = {16: (27.01958, 1e-5, 0.34375), 128: (27.00031, 1e-5, 0.33984375),
                1024: (27.0000048, 1e-7, 0.33349609375)}
    previous = math.inf
    for n, (over_pi, tol, lower_edge) in expected.items():
        P = midpoint_atoms(0.0, 1.0, n)
        res = lambda_bar(P)
        assert res.lambda_bar / math.pi == pytest.approx(over_pi, abs=tol), n
        assert 27.0 * math.pi < res.lambda_bar < previous
        previous = res.lambda_bar
        assert min(P.atoms[i][0] for i in res.minimizing_subset) == lower_edge
        assert not full_support(P, res)
        assert res.lambda_bar < lambda_bar_residual_vanishing(P)


def test_uniform_density_above_half_has_residual_vanishing():
    # alpha_min > 1/2: the extremal subset is the whole support, and the
    # midpoint rule integrates alpha exactly, so m1 = 3/4
    for n in (16, 128, 1024):
        P = midpoint_atoms(0.5, 1.0, n)
        res = lambda_bar(P)
        assert res.lambda_bar == pytest.approx(128.0 * math.pi / 9.0, rel=1e-12), n
        assert full_support(P, res)
