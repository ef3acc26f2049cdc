"""The mean field free energy on the torus and its first variation.

For a stream field v with grid mean vbar and circulation measure P the
energy is

    J(v) = (1/2) int |grad v|^2 - lambda int_I log(int_Omega e^{alpha (v - vbar)}) P(dalpha),

which is unchanged when a constant is added to v, so no function here
needs v to have zero mean.  The L^2 gradient of J is the equation residual

    -Laplacian v - lambda int_I alpha (e^{alpha v} / int e^{alpha v} - 1/|Omega|) P(dalpha).

The normalized field of circulation alpha is w_alpha = alpha v - log int
e^{alpha v}, which integrates e^{w_alpha} to exactly 1.  All partition
integrals are evaluated with max-shifted exponentials.

The solver's fields are even about node (0, 0) in x and in y (see
:mod:`vortexmf.torus`), and the functions a run calls take and return them
at the (n/2 + 1)^2 quarter-cell nodes, their spectra as cosine modes.  The
residual transforms v once and fills the exponentials of all atoms in one
pass, and keeps both in :class:`Partitions`, where J, the energy
differences of the solver and the Hessian product at v read them.  The
sums over the atoms are matrix products with the stack of exponentials:
one for the residual's sum of densities, two for the partition part of
:func:`hessian_product`.  By the principle of symmetric criticality
(Palais 1979) a critical point of J among even fields is a critical point
of J, and the residual, unfolded to the grid, is its whole gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vortexmf.measure import CirculationMeasure
from vortexmf.torus import (
    Field,
    SpectralTorus,
    cosine_transform,
    dirichlet_energy,
    gradient_inner,
    integrate,
    inverse_cosine_transform,
    laplacian,
)

# bound on a shift m = max(alpha v): the shifted exponents are <= 0 by
# construction, so only a field that large (or non-finite) trips it
_EXP_GUARD = 700.0


@dataclass(frozen=True)
class Problem:
    """One minimization instance: geometry, circulation measure, coupling."""

    torus: SpectralTorus
    P: CirculationMeasure
    lam: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < math.inf:
            raise ValueError("coupling lambda must be positive and finite")


class Partitions:
    """What :func:`el_residual` computes at one even field v for J, the
    energy differences and :func:`hessian_product` at v to reuse.

    ``spectrum`` holds the (n/2 + 1)^2 cosine modes of v (see
    :mod:`vortexmf.torus`), from which the Laplacian, the Dirichlet energy
    and the bilinear term of an energy difference are read.  ``stack`` has
    one row per atom, in atom order, zero atoms included: e^{alpha v - m}
    at the quarter-cell nodes, each times the node's weight, so that a
    row's sum, or its product with the quarter-cell values of an even
    field, is that sum over the whole grid.  ``totals`` and ``shifts``
    hold each row's sum and m, the max of alpha v.  ``alpha`` and
    ``weight`` hold the atoms' circulations and weights in the same order,
    built once per run.  ``curvature`` is S = sum w alpha^2 rho_alpha at
    the quarter-cell nodes, and ``hessian_weights`` is
    w alpha^2 / (cell_area total^2) per row, so that the partition part of
    the second variation is phi S - sum_rows weight (row . phi) row.

    The arrays are allocated here, once per run, and every
    :func:`el_residual` refills them in place, so a run never holds two
    stacks: a new stack allocated per residual while the previous one was
    alive raised the peak resident set of 128 atoms at 128^2 by 30 MiB.
    """

    def __init__(self, prob: Problem) -> None:
        T = prob.torus
        atoms, nodes = len(prob.P.atoms), T.quarter_weights.size
        self.alpha = np.array([a for a, _ in prob.P.atoms])
        self.weight = np.array([w for _, w in prob.P.atoms])
        self.spectrum = np.empty(nodes)
        self.stack = np.empty((atoms, nodes))
        self.totals = np.empty(atoms)
        self.shifts = np.empty(atoms)
        self.curvature = np.empty(nodes)
        self.hessian_weights = np.empty(atoms)


def log_partition(T: SpectralTorus, v: Field, alpha: float) -> float:
    """log int_Omega e^{alpha v}, max-shifted for stability."""
    av = alpha * v.values
    m = float(av.max())
    if not math.isfinite(m) or m > _EXP_GUARD:
        raise OverflowError("partition exponent out of range")
    av -= m
    np.exp(av, out=av)
    return m + math.log(T.cell_area * float(av.sum()))


def w_alpha(prob: Problem, v: Field, alpha: float) -> Field:
    """Normalized field alpha v - log int e^{alpha v}; e^{w} integrates to 1."""
    lp = log_partition(prob.torus, v, alpha)
    return Field(alpha * v.values - lp)


def J(prob: Problem, v: np.ndarray, partitions: Partitions) -> float:
    """Free energy value at the even field with quarter-cell values v;
    J(v + c) = J(v) for every constant c.

    It is read off the ``partitions`` that :func:`el_residual` handed out
    for v, so it takes no transform and no exponential: the Dirichlet
    energy is the Parseval sum of v's cosine modes, and each log-partition
    is m + log(cell_area * total).
    """
    T = prob.torus
    vbar = integrate(T, v) / T.volume
    rows = zip(prob.P.atoms, partitions.shifts.tolist(), partitions.totals.tolist())
    log_terms = math.fsum(w * (m + math.log(T.cell_area * total) - a * vbar) for (a, w), m, total in rows)
    return dirichlet_energy(T, partitions.spectrum) - prob.lam * log_terms


def el_residual(prob: Problem, v: np.ndarray, partitions: Partitions) -> np.ndarray:
    """Equation residual of the mean field equation at the even field with
    quarter-cell values v, at the same nodes.

    It is also the L^2 gradient of J: dJ(v)[phi] = int el_residual(v) phi
    for every direction phi.  v is transformed once, into
    ``partitions.spectrum``, and the Laplacian is read from there.  The
    stack is filled in one pass over all atoms: alpha v, less each row's
    shift m, through one exponential, times the node weights, then the row
    sums.  m needs no pass of its own: rounding is monotone, so the max of
    a row alpha v is alpha max v for alpha > 0 and alpha min v otherwise,
    bit for bit.  The densities are read off the stack as
    rho_alpha = ex / (cell_area total), and sum w alpha rho_alpha is one
    matrix product with it, divided by the node weights.  Analytically the
    residual has zero mean (each density integrates to 1); the
    floating-point mean is projected out.

    ``partitions`` is refilled in place at v (see :class:`Partitions`).  A
    non-finite v, or a largest m above the guard, raises OverflowError
    before any transform or exponential.
    """
    T = prob.torus
    alpha, weight, totals, stack = partitions.alpha, partitions.weight, partitions.totals, partitions.stack
    lo, hi = float(v.min()), float(v.max())
    # each row's max of alpha v, bit for bit, with no pass over the rows
    np.multiply(alpha, np.where(alpha > 0.0, hi, lo), out=partitions.shifts)
    if not (math.isfinite(lo) and math.isfinite(hi)) or float(partitions.shifts.max()) > _EXP_GUARD:
        raise OverflowError("partition exponent out of range")
    partitions.spectrum[...] = cosine_transform(T, v)
    res = -inverse_cosine_transform(T, laplacian(T, partitions.spectrum))  # -Laplacian v
    np.multiply(alpha[:, None], v, out=stack)
    stack -= partitions.shifts[:, None]
    np.exp(stack, out=stack)
    stack *= T.quarter_weights
    np.sum(stack, axis=1, out=totals)
    c = weight * alpha / (T.cell_area * totals)
    # the weights are powers of two, so dividing them out is exact
    density_sum = c @ stack  # sum w alpha rho_alpha
    density_sum /= T.quarter_weights
    # sum w alpha^2 rho_alpha, which only the Hessian product reads
    np.matmul(c * alpha, stack, out=partitions.curvature)
    partitions.curvature /= T.quarter_weights
    np.divide(weight * alpha * alpha, T.cell_area * totals * totals, out=partitions.hessian_weights)
    density_sum -= float(weight @ alpha) / T.volume
    density_sum *= prob.lam
    res -= density_sum
    res -= integrate(T, res) / T.volume
    return res


def hessian_product(prob: Problem, partitions: Partitions, q_hat: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """The second variation H of J at v along the even direction q with
    cosine modes ``q_hat``,

        H q = -Laplacian q - lambda sum w alpha^2 rho_alpha (q - int rho_alpha q),

    as q at the quarter-cell nodes, <q, H q> and the cosine modes of H q
    with the (0, 0) mode zeroed.  It is the derivative of
    :func:`el_residual` along q, and symmetric in the L^2 inner product.
    The rho_alpha are read off the ``partitions`` that :func:`el_residual`
    handed out for v, so no exponential is taken: the partition term is
    q S minus the rank-one terms of the rows, two matrix-vector products
    with the stack.  It takes two transforms: q from its modes, and the
    modes of the partition term.
    """
    T = prob.torus
    phi = inverse_cosine_transform(T, q_hat)
    t = partitions.stack @ phi
    t *= partitions.hessian_weights
    rank_one = t @ partitions.stack
    rank_one /= T.quarter_weights
    atom_term = phi * partitions.curvature
    atom_term -= rank_one
    atom_term *= prob.lam
    hq_hat = q_hat * T.eigenvalues  # -Laplacian q
    hq_hat -= cosine_transform(T, atom_term)
    hq_hat[0] = 0.0
    # <q, H q> = ||q||_H1^2 - <q, atom term>, q of zero mean
    kappa = gradient_inner(T, q_hat, q_hat) - T.cell_area * float((phi * T.quarter_weights) @ atom_term)
    return phi, kappa, hq_hat
