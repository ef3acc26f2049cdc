"""Circulation measures and the extremal coupling constant.

A circulation measure is a probability measure P on [-1, 1] describing the
distribution of vortex circulations.  The coupling threshold of the mean
field free energy is

    lambda_bar(P) = inf_K  8 pi P(K) / (int_K alpha dP)^2,

the infimum running over subsets K of supp(P) lying entirely in [0, 1] or
entirely in [-1, 0]; subsets with vanishing circulation integral are
excluded.  For atomic P the infimum is a finite minimum over subsets of
atoms, and it is attained on a "tail" prefix of the atoms of one sign
ordered by decreasing |alpha|, so a scan over n prefixes replaces the 2^n
subsets.

Proof.  On one sign write p = P(K) and s = int_K |alpha| dP > 0, so the
ratio is 8 pi p / s^2 and a minimizing K maximizes s / sqrt(p).  Let K be
optimal.  Adding an atom j outside K, of weight w, must not help:
s + |alpha_j| w <= s sqrt(1 + w/p) <= s (1 + w/(2p)) by concavity of the
square root, so |alpha_j| <= s/(2p).  Removing an atom i of K must not help
either, and the same bound on sqrt(1 - w/p) gives |alpha_i| >= s/(2p); if
K = {i} there is nothing to remove, and |alpha_i| = s/p.  So K is a
superlevel set of |alpha|, and since the |alpha| of one sign are distinct,
K is a prefix.  The exhaustive enumeration is kept in the tests as the
oracle the scan must match exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

EIGHT_PI = 8.0 * math.pi

# Atoms closer than this in alpha are considered the same circulation value.
ALPHA_MERGE_TOL = 1e-12
# Input weights must sum to 1 within this tolerance before rescaling.
WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class CirculationMeasure:
    """Atomic probability measure of circulations.

    atoms are (alpha, weight) pairs sorted by increasing alpha, with all
    alphas in [-1, 1], distinct beyond ``ALPHA_MERGE_TOL``, strictly
    positive weights, and weights summing to 1.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("measure needs at least one atom")
        total = 0.0
        prev = None
        for alpha, weight in self.atoms:
            if not -1.0 <= alpha <= 1.0:
                raise ValueError(f"alpha {alpha} outside [-1, 1]")
            if not weight > 0.0:
                raise ValueError(f"weight {weight} not positive")
            if prev is not None and alpha - prev <= ALPHA_MERGE_TOL:
                raise ValueError("atoms must be sorted with distinct alphas")
            prev = alpha
            total += weight
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, expected 1")


@dataclass(frozen=True)
class ExtremalResult:
    """Value and witness of the extremal coupling infimum.

    ``minimizing_subset`` holds indices into the measure's atom tuple; it is
    empty exactly when every candidate subset has zero circulation integral
    and ``lambda_bar`` is +infinity.  ``side`` records which sign interval
    the witness lives in.
    """

    lambda_bar: float
    minimizing_subset: tuple[int, ...]
    side: str

    def __post_init__(self) -> None:
        if self.side not in ("positive", "negative"):
            raise ValueError(f"bad side tag {self.side!r}")
        if math.isinf(self.lambda_bar) != (len(self.minimizing_subset) == 0):
            raise ValueError("empty subset iff infinite value")


def new_atomic(pairs: Sequence[tuple[float, float]]) -> CirculationMeasure:
    """Build a measure from (alpha, weight) pairs.

    Validates ranges, merges atoms whose alphas coincide within
    ``ALPHA_MERGE_TOL``, and rescales weights to sum exactly 1; the raw sum
    must already be within ``WEIGHT_SUM_TOL`` of 1.
    """
    if not pairs:
        raise ValueError("measure needs at least one atom")
    for alpha, weight in pairs:
        if not -1.0 <= alpha <= 1.0:
            raise ValueError(f"alpha {alpha} outside [-1, 1]")
        if not weight > 0.0:
            raise ValueError(f"weight {weight} not positive")
    merged: list[list[float]] = []
    for alpha, weight in sorted((float(a), float(w)) for a, w in pairs):
        if merged and alpha - merged[-1][0] <= ALPHA_MERGE_TOL:
            merged[-1][1] += weight
        else:
            merged.append([alpha, weight])
    total = math.fsum(w for _, w in merged)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights sum to {total}, expected 1 within {WEIGHT_SUM_TOL}")
    atoms = tuple((a, w / total) for a, w in merged)
    return CirculationMeasure(atoms)


def moment(P: CirculationMeasure, k: int, side: str = "all") -> float:
    """k-th moment of P restricted to a sign interval.

    side 'positive' restricts to alpha in [0, 1], 'negative' to [-1, 0],
    'all' to the whole support.  An atom at alpha = 0 belongs to both sign
    intervals.
    """
    if k < 0:
        raise ValueError("moment order must be >= 0")
    sel = P.atoms if side == "all" else [(a, w) for a, w, _ in _side_atoms(P, side)]
    return math.fsum(a**k * w for a, w in sel)


def alpha_min(P: CirculationMeasure) -> float:
    """Smallest circulation in supp(P) intersected with [0, 1]."""
    pos = _side_atoms(P, "positive")
    if not pos:
        raise ValueError("measure has no atom in [0, 1]")
    return min(a for a, _, _ in pos)


def _side_atoms(P: CirculationMeasure, side: str) -> list[tuple[float, float, int]]:
    """Atoms of one sign in decreasing |alpha| order, with original indices;
    side is 'positive' for alpha in [0, 1] or 'negative' for [-1, 0].

    Within a sign interval the |alpha| values are distinct, so the order is
    unambiguous.  This shared ordering makes the prefix sums of the tail
    scan bit-identical to the corresponding subset sums of the brute-force
    oracle in the tests.
    """
    if side == "positive":
        sel = [(a, w, i) for i, (a, w) in enumerate(P.atoms) if a >= 0.0]
    elif side == "negative":
        sel = [(a, w, i) for i, (a, w) in enumerate(P.atoms) if a <= 0.0]
    else:
        raise ValueError(f"bad side {side!r}")
    sel.sort(key=lambda t: -abs(t[0]))
    return sel


def tail_scan(P: CirculationMeasure, side: str) -> tuple[float, tuple[int, ...]]:
    """Minimum of the subset ratio over subsets of one sign, and the tail
    prefix attaining it as indices into P.atoms; (inf, ()) when every
    subset of that sign has zero circulation integral."""
    ordered = _side_atoms(P, side)
    best = math.inf
    best_j = 0
    p = 0.0
    s = 0.0
    for j, (alpha, weight, _) in enumerate(ordered, start=1):
        p = p + weight
        s = s + alpha * weight
        if s == 0.0:
            continue
        ratio = (EIGHT_PI * p) / (s * s)
        if ratio < best:
            best = ratio
            best_j = j
    if math.isinf(best):
        return math.inf, ()
    return best, tuple(idx for _, _, idx in ordered[:best_j])


def _combine_sides(
    pos: tuple[float, tuple[int, ...]], neg: tuple[float, tuple[int, ...]]
) -> ExtremalResult:
    # exact ties go to the positive side
    if pos[0] <= neg[0]:
        value, subset, side = pos[0], pos[1], "positive"
    else:
        value, subset, side = neg[0], neg[1], "negative"
    if math.isinf(value):
        return ExtremalResult(math.inf, (), "positive")
    return ExtremalResult(value, tuple(sorted(subset)), side)


def lambda_bar(P: CirculationMeasure) -> ExtremalResult:
    """Extremal coupling by the tail scan, O(n log n).

    Scans only prefixes of the atoms sorted by decreasing |alpha| within
    each sign, which is exact by the proof in the module docstring.  The
    tests check it against exhaustive enumeration, bit for bit.
    """
    return _combine_sides(tail_scan(P, "positive"), tail_scan(P, "negative"))


def full_support(P: CirculationMeasure, res: ExtremalResult) -> bool:
    """Whether ``res = lambda_bar(P)`` has every atom of P in its extremal
    subset K.  On [0, 1] this is residual vanishing, lambda_bar(P) =
    8 pi / m1^2.  Atoms of both signs rule it out, since K lies in one sign
    interval, and so does an atom at 0 next to others, which adds to P(K)
    but not to the circulation integral."""
    return len(res.minimizing_subset) == len(P.atoms)


def lambda_bar_residual_vanishing(P: CirculationMeasure) -> float:
    """Closed form 8 pi / (int alpha dP)^2 valid when no mass escapes to
    residual subsets; requires supp(P) in [0, 1] with positive mean."""
    if any(a < 0.0 for a, _ in P.atoms):
        raise ValueError("requires support in [0, 1]")
    m1 = moment(P, 1, "positive")
    if m1 <= 0.0:
        raise ValueError("first moment must be positive")
    return EIGHT_PI / (m1 * m1)


def load_measure(path: str) -> CirculationMeasure:
    """Read a measure from text: one 'alpha weight' pair per line, blank
    lines and '#' comments ignored."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'alpha weight', got {raw.strip()!r}")
            try:
                alpha, weight = float(parts[0]), float(parts[1])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric entry in {raw.strip()!r}") from None
            pairs.append((alpha, weight))
    if not pairs:
        raise ValueError(f"{path}: no atoms found")
    try:
        return new_atomic(pairs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def parse_atoms_inline(text: str) -> CirculationMeasure:
    """Parse 'alpha:weight,alpha:weight,...', the inline measure.  An empty
    entry, such as a trailing comma, is an error; empty text has no atoms."""
    pairs = []
    for chunk in text.split(",") if text.strip() else ():
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty entry in atom list")
        try:
            a, w = chunk.split(":")
            pairs.append((float(a), float(w)))
        except ValueError:
            raise ValueError(f"bad atom {chunk!r}, expected alpha:weight") from None
    return new_atomic(pairs)
