"""The mean field free energy on the torus and its first variation.

For a zero-mean stream field v and circulation measure P the energy is

    J(v) = (1/2) int |grad v|^2 - lambda int_I log(int_Omega e^{alpha v}) P(dalpha).

Its L^2 gradient on the zero-mean subspace coincides with the equation
residual

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
    integrate,
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


def log_partition(T: SpectralTorus, v: Field, alpha: float) -> float:
    """log int_Omega e^{alpha v}, max-shifted for stability."""
    av = alpha * v.values
    m = float(av.max())
    if not math.isfinite(m) or m > _EXP_GUARD:
        raise OverflowError("partition exponent out of range")
    total = float(np.exp(av - m).sum())
    return m + math.log(T.cell_area * total)


def w_alpha(prob: Problem, v: Field, alpha: float) -> Field:
    """Normalized field alpha v - log int e^{alpha v}; e^{w} integrates to 1."""
    _require_zero_mean(v)
    lp = log_partition(prob.torus, v, alpha)
    return Field(alpha * v.values - lp)


def J(prob: Problem, v: Field) -> float:
    """Free energy value."""
    _require_zero_mean(v)
    T = prob.torus
    log_terms = math.fsum(
        w * log_partition(T, v, a) for a, w in prob.P.atoms
    )
    return dirichlet_energy(T, v) - prob.lam * log_terms


def el_residual(prob: Problem, v: Field) -> Field:
    """Equation residual of the mean field equation at v, zero-mean.

    It is also the L^2 gradient of J on the zero-mean subspace: for
    zero-mean directions phi, dJ(v)[phi] = int el_residual(v) phi.

    Analytically the residual has zero mean (each density e^{alpha v}/Z
    integrates to 1); the floating-point mean is projected out so the
    certificate holds exactly.
    """
    _require_zero_mean(v)
    T = prob.torus
    lap = laplacian(T, v).values
    acc = np.zeros_like(v.values)
    inv_vol = 1.0 / T.volume
    for a, w in prob.P.atoms:
        if a == 0.0:
            continue
        lp = log_partition(T, v, a)
        density = np.exp(a * v.values - lp)
        acc += (w * a) * (density - inv_vol)
    res = -lap - prob.lam * acc
    return project_zero_mean(T, Field(res))


def J_dual(prob: Problem, v: Field) -> float:
    """Alternative energy expression through the normalized fields:

        (lambda/2) int_I [ mean(w_alpha) + int w_alpha e^{w_alpha} ] P(dalpha).

    Agrees with J exactly at critical points (and identically at v = 0);
    requires supp(P) in [0, 1].
    """
    if any(a < 0.0 for a, _ in prob.P.atoms):
        raise ValueError("dual energy requires support in [0, 1]")
    _require_zero_mean(v)
    T = prob.torus
    total = 0.0
    for a, w in prob.P.atoms:
        wa = w_alpha(prob, v, a)
        mean_w = integrate(T, wa) / T.volume
        ent = integrate(T, Field(wa.values * np.exp(wa.values)))
        total += w * (mean_w + ent)
    return 0.5 * prob.lam * total


def dalpha_peak(
    prob: Problem,
    v: Field,
    x_peak: tuple[int, int],
    alpha: float,
    h: float = 1e-4,
) -> float:
    """Central difference in alpha of w_alpha at the peak of v.

    The peak must be an argmax of v; there the derivative
    v(x) - int v e^{alpha v} / int e^{alpha v} is nonnegative.
    """
    _require_zero_mean(v)
    _check_alpha_window(alpha, h)
    vals = v.values
    if vals[x_peak] != vals.max():
        raise ValueError(f"{x_peak} is not an argmax of v")
    wp = w_alpha(prob, v, alpha + h).values[x_peak]
    wm = w_alpha(prob, v, alpha - h).values[x_peak]
    return float((wp - wm) / (2.0 * h))


def dalpha_partition(
    prob: Problem,
    v: Field,
    alpha: float,
    h: float = 1e-4,
) -> float:
    """Central difference in alpha of the partition integral int e^{alpha v}.

    For zero-mean v and alpha >= 0 the derivative int v e^{alpha v} is
    nonnegative.
    """
    _require_zero_mean(v)
    _check_alpha_window(alpha, h)
    T = prob.torus
    ip = math.exp(log_partition(T, v, alpha + h))
    im = math.exp(log_partition(T, v, alpha - h))
    return (ip - im) / (2.0 * h)


def _require_zero_mean(v: Field) -> None:
    if not v.zero_mean:
        raise ValueError("field must carry the zero-mean certificate")


def _check_alpha_window(alpha: float, h: float) -> None:
    if not h > 0.0:
        raise ValueError("step h must be positive")
    if not (alpha - h > 0.0 and alpha + h <= 1.0):
        raise ValueError(f"stencil [{alpha - h}, {alpha + h}] must stay inside (0, 1]")
