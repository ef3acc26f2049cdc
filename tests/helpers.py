"""Shared test utilities: random measures, random and synthetic fields,
and J, the residual and the Hessian product at a field outside a run."""

import numpy as np

from vortexmf.functional import J, Partitions, Problem, el_residual, hessian_product
from vortexmf.measure import CirculationMeasure, new_atomic
from vortexmf.minimize import MinimizeResult
from vortexmf.torus import Field, SpectralTorus, periodic_distance, project_even, project_zero_mean, unfold


def random_measure(rng, max_atoms: int = 12, signed: bool = True, low: float = 0.05) -> CirculationMeasure:
    n = int(rng.integers(1, max_atoms + 1))
    lo = -1.0 if signed else low
    alphas = rng.uniform(lo, 1.0, size=n)
    weights = rng.uniform(0.1, 1.0, size=n)
    weights = weights / weights.sum()
    return new_atomic(list(zip(alphas.tolist(), weights.tolist())))


def random_zero_mean_field(T: SpectralTorus, rng, amplitude: float = 1.0) -> Field:
    raw = amplitude * rng.standard_normal((T.grid_n, T.grid_n))
    return project_zero_mean(T, Field(raw))


def even(T: SpectralTorus, f: Field) -> Field:
    """The even part of f with its mean subtracted, as the solver takes a
    start: a field that the residual and the energy difference accept."""
    return project_zero_mean(T, project_even(T, f))


def random_even_field(T: SpectralTorus, rng, amplitude: float = 1.0) -> Field:
    return even(T, random_zero_mean_field(T, rng, amplitude))


def synthetic_result(T: SpectralTorus, values: np.ndarray, lam: float = 1.0) -> MinimizeResult:
    """Wrap raw grid values as a zero-mean, blown-up minimizer result."""
    f = project_zero_mean(T, Field(np.asarray(values, dtype=float)))
    return MinimizeResult(v=f, J_value=0.0, residual_norm=1.0, iterations=0, lam=lam, status="blown_up")


def gaussian_bump(T: SpectralTorus, center: tuple[int, int], height: float, width: float) -> np.ndarray:
    r = periodic_distance(T, center)
    return height * np.exp(-((r / width) ** 2))


def residual(prob: Problem, v: Field) -> Field:
    """el_residual at v, filling partitions made for this call."""
    return el_residual(prob, v, Partitions(prob))


def energy(prob: Problem, v: Field) -> float:
    """J at v, read off the partitions that el_residual fills at v."""
    partitions = Partitions(prob)
    el_residual(prob, v, partitions)
    return J(prob, v, partitions)


def hessian_field(prob: Problem, partitions: Partitions, phi: np.ndarray) -> Field:
    """hessian_product along the even field with quarter-cell values phi,
    transformed back to the grid."""
    T = prob.torus
    _, _, hq_hat = hessian_product(prob, partitions, np.fft.rfft2(unfold(T, phi)))
    return Field(np.fft.irfft2(hq_hat, s=(T.grid_n, T.grid_n)))
