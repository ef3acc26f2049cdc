"""Shared test utilities: random measures, random and synthetic fields,
J, the residual, the Hessian product and the trust region's energy
difference at a field outside a run, and a radial check run alone.

The library's solver functions take even fields at their quarter-cell
nodes, and a run's ``result.v`` holds them; the wrappers here take a grid
``Field``, hand its quarter cell on and unfold what comes back, and
:func:`grid` unfolds quarter-cell values, such as a result's, to the
grid field they stand for."""

import math

import numpy as np

from oracles import check_even
from vortexmf.blowup import gather
from vortexmf.functional import J, Partitions, Problem, el_residual, energy_scale, hessian_product
from vortexmf.measure import CirculationMeasure, new_atomic
from vortexmf.minimize import _EnergyDelta
from vortexmf.torus import (
    Field,
    SpectralTorus,
    cosine_transform,
    inverse_cosine_transform,
    periodic_distance,
    project_even,
    project_zero_mean,
    quarter,
    unfold,
)


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


def grid(T: SpectralTorus, x: np.ndarray) -> Field:
    """The even grid field whose quarter-cell values are x."""
    return Field(unfold(T, x))


def even_start(T: SpectralTorus, f: Field) -> np.ndarray:
    """The quarter-cell values of f's even part, with its mean left for
    minimize to subtract, as it subtracts a cold start's."""
    return quarter(T, project_even(T, f).values)


def synthetic_v(T: SpectralTorus, values: np.ndarray) -> np.ndarray:
    """The quarter-cell values of grid values, which must be even bit for
    bit, with their mean subtracted: a spike as a minimizer's ``result.v``
    holds it."""
    f = project_zero_mean(T, Field(np.asarray(values, dtype=float)))
    check_even(T, f)
    return quarter(T, f.values)


def grid_peak(T: SpectralTorus, v: np.ndarray) -> tuple[int, int]:
    """The first node, in row-major order, where the grid field with
    quarter-cell values v is largest."""
    return divmod(int(np.argmax(unfold(T, v))), T.grid_n)


def gaussian_bump(T: SpectralTorus, center: tuple[int, int], height: float, width: float) -> np.ndarray:
    r = periodic_distance(T, center)
    return height * np.exp(-((r / width) ** 2))


def residual(prob: Problem, v: Field, partitions: Partitions | None = None) -> Field:
    """el_residual at the quarter cell of v, unfolded to the grid; it fills
    ``partitions``, or partitions made for this call."""
    T = prob.torus
    g = el_residual(prob, quarter(T, v.values), Partitions(prob) if partitions is None else partitions)
    return Field(unfold(T, g))


def energy(prob: Problem, v: Field) -> float:
    """J at v, read off the partitions that el_residual fills at v."""
    partitions = Partitions(prob)
    residual(prob, v, partitions)
    return J(prob, partitions)


def hessian_field(prob: Problem, partitions: Partitions, phi: np.ndarray) -> Field:
    """hessian_product along the even field with quarter-cell values phi,
    transformed back and unfolded to the grid."""
    T = prob.torus
    _, _, hq_hat = hessian_product(prob, partitions, cosine_transform(T, phi))
    return Field(unfold(T, inverse_cosine_transform(T, hq_hat)))


def subtracted_energy_delta(prob: Problem, v: Field, d: Field) -> tuple[float, float, float]:
    """J(v - d) - J(v) for the even fields v and d as the trust region
    evaluates a step above the subtraction floor, read off the
    candidate's partitions, the spare beside v's; the cancellation-free
    difference at v's partitions; and eps S(v), S the floor's energy
    scale."""
    T = prob.torus
    v, d = quarter(T, v.values), quarter(T, d.values)
    partitions = Partitions(prob)
    el_residual(prob, v, partitions)
    eps_s = math.ulp(1.0) * energy_scale(prob, partitions)
    cancellation_free = _EnergyDelta(prob, d, partitions)()
    delta = _EnergyDelta(prob, d, partitions, (J(prob, partitions), partitions.twin()))
    subtracted = delta()
    assert delta.filled
    return subtracted, cancellation_free, eps_s


def alone(job):
    """What a job of a radial check, such as ``mass_gamma(f, r_max)``,
    returns when it is gathered by itself."""
    return gather([job])[0]
