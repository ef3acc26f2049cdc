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

# per atom, as el_residual hands them out: e^{alpha v - m}, its grid sum, m
Partitions = list[tuple[np.ndarray, float, float]]


@dataclass(frozen=True)
class Problem:
    """One minimization instance: geometry, circulation measure, coupling."""

    torus: SpectralTorus
    P: CirculationMeasure
    lam: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < math.inf:
            raise ValueError("coupling lambda must be positive and finite")


def _shifted_partition(av: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Max shift m of the exponents av, e^{av - m} and its grid sum."""
    m = float(av.max())
    if not math.isfinite(m) or m > _EXP_GUARD:
        raise OverflowError("partition exponent out of range")
    ex = np.exp(av - m)
    return m, ex, float(ex.sum())


def log_partition(T: SpectralTorus, v: Field, alpha: float) -> float:
    """log int_Omega e^{alpha v}, max-shifted for stability."""
    m, _, total = _shifted_partition(alpha * v.values)
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
        log_parts = [m + math.log(T.cell_area * total) for _, total, m in partitions]
    log_terms = math.fsum(w * (lp - a * vbar) for (a, w), lp in zip(prob.P.atoms, log_parts))
    return dirichlet_energy(T, v) - prob.lam * log_terms


def el_residual(prob: Problem, v: Field, partitions: Partitions | None = None) -> Field:
    """Equation residual of the mean field equation at v.

    It is also the L^2 gradient of J: dJ(v)[phi] = int el_residual(v) phi
    for every direction phi.  Analytically the residual has zero mean (each
    density e^{alpha v}/Z integrates to 1); the floating-point mean is
    projected out.

    When ``partitions`` is given, the max-shifted exponential e^{alpha v - m}
    of every atom (zero atoms included), its grid sum and the shift m are
    appended to it as ``(ex, total, m)``, in atom order, for :func:`J`, the
    energy differences and :func:`hessian_product` at v to reuse.
    """
    T = prob.torus
    lap = laplacian(T, v).values
    acc = np.zeros_like(v.values)
    inv_vol = 1.0 / T.volume
    for a, w in prob.P.atoms:
        av = a * v.values
        m, ex, total = _shifted_partition(av)
        if partitions is not None:
            partitions.append((ex, total, m))
        if a != 0.0:
            density = np.exp(av - (m + math.log(T.cell_area * total)))
            acc += (w * a) * (density - inv_vol)
    res = -lap - prob.lam * acc
    return project_zero_mean(T, Field(res))


def hessian_product(prob: Problem, partitions: Partitions, phi: Field) -> Field:
    """Second variation of J at v applied to phi, projected to zero mean:

        -Laplacian phi - lambda sum w alpha^2 rho_alpha (phi - int rho_alpha phi),

    with rho_alpha = e^{alpha v} / int e^{alpha v} read off the ``partitions``
    that :func:`el_residual` handed out for v, so no exponential is taken.
    It is the derivative of :func:`el_residual` along phi, and symmetric in
    the L^2 inner product.
    """
    T = prob.torus
    phi_vals = phi.values
    acc = np.zeros_like(phi_vals)
    for (a, w), (ex, total, _) in zip(prob.P.atoms, partitions):
        if a != 0.0:
            mean = float((ex * phi_vals).sum()) / total  # int rho_alpha phi
            acc += (w * a * a / (T.cell_area * total)) * ex * (phi_vals - mean)
    res = -laplacian(T, phi).values - prob.lam * acc
    return project_zero_mean(T, Field(res))
