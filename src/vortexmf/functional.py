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

The residual takes one exponential per atom and writes it into that atom's
row of one contiguous stack of the partitions (:class:`Partitions`).  The
sums over the atoms are then matrix products with the stack: the residual's
sum of densities is one, and the partition part of the Hessian product
(:func:`hessian_atom_term`) is two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vortexmf.measure import CirculationMeasure
from vortexmf.torus import (
    Field,
    SpectralTorus,
    dirichlet_energy,
    laplacian,
    project_zero_mean,
)

# exponent bound after max-shift; shifted exponents are <= 0 by construction
# so this only trips on non-finite input
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
    """Every atom's max-shifted partition exponential at one field v, as
    :func:`el_residual` hands them out for J, the energy differences and
    :func:`hessian_product` at v to reuse.

    ``stack`` has one row e^{alpha v - m} over the flattened grid per atom,
    in atom order, zero atoms included.  ``totals`` and ``shifts`` hold each
    row's grid sum and m; ``curvature`` is S = sum w alpha^2 rho_alpha over
    the flattened grid, and ``hessian_weights`` is
    w alpha^2 / (cell_area total^2) per row, so that the second variation
    is phi S - sum_rows weight (row . phi) row.

    The arrays are allocated here, once per run, and every
    :func:`el_residual` that is handed them refills them in place, so a run
    never holds two stacks: a new stack allocated per residual while the
    previous one was alive raised the peak resident set of 128 atoms at
    128^2 by 30 MiB.
    """

    def __init__(self, prob: Problem) -> None:
        atoms, cells = len(prob.P.atoms), prob.torus.grid_n**2
        self.stack = np.empty((atoms, cells))
        self.totals = np.empty(atoms)
        self.shifts = np.empty(atoms)
        self.curvature = np.empty(cells)
        self.hessian_weights = np.empty(atoms)


def _exp_shifted(av: np.ndarray) -> tuple[float, float]:
    """Overwrite the exponents av with e^{av - m}, m their max; return m and
    the grid sum."""
    m = float(av.max())
    if not math.isfinite(m) or m > _EXP_GUARD:
        raise OverflowError("partition exponent out of range")
    np.subtract(av, m, out=av)
    np.exp(av, out=av)
    return m, float(av.sum())


def log_partition(T: SpectralTorus, v: Field, alpha: float) -> float:
    """log int_Omega e^{alpha v}, max-shifted for stability."""
    m, total = _exp_shifted(alpha * v.values)
    return m + math.log(T.cell_area * total)


def w_alpha(prob: Problem, v: Field, alpha: float) -> Field:
    """Normalized field alpha v - log int e^{alpha v}; e^{w} integrates to 1."""
    lp = log_partition(prob.torus, v, alpha)
    return Field(alpha * v.values - lp)


def J(prob: Problem, v: Field, partitions: Partitions | None = None) -> float:
    """Free energy value; J(v + c) = J(v) for every constant c.

    With the ``partitions`` that :func:`el_residual` handed out for v, each
    log-partition is m + log(cell_area * total), bit for bit, and no
    exponential is taken.
    """
    T = prob.torus
    vbar = float(v.values.mean())
    if partitions is None:
        log_parts = [log_partition(T, v, a) for a, _ in prob.P.atoms]
    else:
        pairs = zip(partitions.shifts.tolist(), partitions.totals.tolist())
        log_parts = [m + math.log(T.cell_area * total) for m, total in pairs]
    log_terms = math.fsum(w * (lp - a * vbar) for (a, w), lp in zip(prob.P.atoms, log_parts))
    return dirichlet_energy(T, v) - prob.lam * log_terms


def el_residual(prob: Problem, v: Field, partitions: Partitions | None = None) -> Field:
    """Equation residual of the mean field equation at v.

    It is also the L^2 gradient of J: dJ(v)[phi] = int el_residual(v) phi
    for every direction phi.  Each atom takes one exponential, written into
    its row of the stack; the densities are read off it as
    rho_alpha = ex / (cell_area total), and sum w alpha rho_alpha is one
    matrix product with the stack.  Analytically the residual has zero mean
    (each density integrates to 1); the floating-point mean is projected
    out.

    When ``partitions`` is given, it is refilled in place with the stack of
    v (see :class:`Partitions`); otherwise a stack is made for this call.
    """
    T = prob.torus
    atoms = prob.P.atoms
    # the transforms' scratch is freed before the sums below are allocated
    lap = laplacian(T, v).values
    vals = v.values.ravel()
    alpha = np.array([a for a, _ in atoms])
    weight = np.array([w for _, w in atoms])
    filled = Partitions(prob) if partitions is None else partitions
    totals = filled.totals
    for i, row in enumerate(filled.stack):
        np.multiply(vals, alpha[i], out=row)
        filled.shifts[i], totals[i] = _exp_shifted(row)
    c = weight * alpha / (T.cell_area * totals)
    density_sum = c @ filled.stack  # sum w alpha rho_alpha
    if partitions is not None:
        # sum w alpha^2 rho_alpha, which only the Hessian product reads
        np.matmul(c * alpha, filled.stack, out=filled.curvature)
        np.divide(weight * alpha * alpha, T.cell_area * totals * totals, out=filled.hessian_weights)
    density_sum -= float(weight @ alpha) / T.volume
    res = density_sum.reshape(lap.shape)
    res *= -prob.lam
    res -= lap
    return project_zero_mean(T, Field(res))


def hessian_atom_term(prob: Problem, partitions: Partitions, phi: np.ndarray) -> np.ndarray:
    """The partition part of the second variation of J at v along phi,

        lambda sum w alpha^2 rho_alpha (phi - int rho_alpha phi),

    on the flattened grid, for phi given on the flattened grid.  The rho_alpha
    are read off the ``partitions`` that :func:`el_residual` handed out for
    v, so no exponential is taken: the sum is phi S minus the rank-one terms
    of the rows, two matrix-vector products with the stack.
    """
    t = partitions.stack @ phi
    t *= partitions.hessian_weights
    acc = phi * partitions.curvature
    acc -= t @ partitions.stack
    acc *= prob.lam
    return acc


def hessian_product(prob: Problem, partitions: Partitions, phi: Field) -> Field:
    """Second variation of J at v applied to phi, projected to zero mean:

        -Laplacian phi - lambda sum w alpha^2 rho_alpha (phi - int rho_alpha phi),

    the Laplacian of phi minus :func:`hessian_atom_term`.  It is the
    derivative of :func:`el_residual` along phi, and symmetric in the L^2
    inner product.
    """
    T = prob.torus
    lap = laplacian(T, phi).values  # first, as in el_residual
    res = hessian_atom_term(prob, partitions, phi.values.ravel()).reshape(lap.shape)
    np.negative(res, out=res)
    res -= lap
    return project_zero_mean(T, Field(res))
