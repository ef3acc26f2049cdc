"""Exhaustive-enumeration oracle for the extremal coupling.

The library computes lambda_bar by the tail scan over |alpha|-sorted
prefixes; this enumerates every subset of each sign instead and must agree
with the scan exactly wherever it runs.
"""

import math

import numpy as np

from vortexmf.measure import EIGHT_PI, CirculationMeasure, ExtremalResult, _combine_sides, _side_atoms

MAX_BRUTEFORCE_ATOMS = 22


def _bruteforce_side(ordered: list[tuple[float, float, int]]) -> tuple[float, tuple[int, ...]]:
    """Exact minimum of 8 pi P(K) / (int_K alpha dP)^2 over all subsets.

    Subset sums are built by doubling concatenation, so the accumulation
    order for any prefix subset matches the sequential prefix sums of the
    tail scan exactly.  Among tying subsets the shortest prefix wins, then
    the lowest bitmask.
    """
    n = len(ordered)
    if n == 0:
        return math.inf, ()
    if n > MAX_BRUTEFORCE_ATOMS:
        raise ValueError(f"brute force limited to {MAX_BRUTEFORCE_ATOMS} atoms per sign")
    p = np.zeros(1)
    s = np.zeros(1)
    for alpha, weight, _ in ordered:
        p = np.concatenate([p, p + weight])
        s = np.concatenate([s, s + alpha * weight])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (EIGHT_PI * p) / (s * s)
    ratio[s == 0.0] = math.inf
    ratio[0] = math.inf
    best = float(ratio.min())
    if math.isinf(best):
        return math.inf, ()
    for j in range(1, n + 1):
        if ratio[(1 << j) - 1] == best:
            return best, tuple(idx for _, _, idx in ordered[:j])
    mask = int(np.argmin(ratio))
    return best, tuple(ordered[i][2] for i in range(n) if mask >> i & 1)


def lambda_bar_bruteforce(P: CirculationMeasure) -> ExtremalResult:
    """Extremal coupling by exhaustive subset enumeration per sign."""
    return _combine_sides(
        _bruteforce_side(_side_atoms(P, "positive")),
        _bruteforce_side(_side_atoms(P, "negative")),
    )
