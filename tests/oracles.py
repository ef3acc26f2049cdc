"""Test oracles on the free energy: the dual energy expression, central
differences in the circulation alpha, per-atom loops over the whole grid
for J, the residual, the curvature, the Hessian product and the energy
difference, the translation of a field by a sub-cell shift, and a check
that a grid field is even bit for bit.

The library computes J directly; these recompute it, or derivatives of its
ingredients, by independent formulas that the tests compare against.
"""

import math

import numpy as np

from vortexmf.functional import Problem, log_partition, w_alpha
from vortexmf.torus import (
    Field,
    SpectralTorus,
    _check,
    dirichlet_energy,
    gradient_inner,
    integrate,
    laplacian,
    project_zero_mean,
)


def J_per_atom(prob: Problem, v: Field) -> float:
    """J with each log-partition from its own exponential and the Dirichlet
    energy from a transform of v; bit for bit the J that the library reads
    off the partitions of v."""
    T = prob.torus
    vbar = float(v.values.mean())
    log_parts = [log_partition(T, v, a) for a, _ in prob.P.atoms]
    log_terms = math.fsum(w * (lp - a * vbar) for (a, w), lp in zip(prob.P.atoms, log_parts))
    return dirichlet_energy(T, v) - prob.lam * log_terms


def J_dual(prob: Problem, v: Field) -> float:
    """Alternative energy expression through the normalized fields:

        (lambda/2) int_I [ mean(w_alpha) + int w_alpha e^{w_alpha} ] P(dalpha).

    Agrees with J exactly at critical points (and identically at v = 0);
    requires supp(P) in [0, 1].
    """
    if any(a < 0.0 for a, _ in prob.P.atoms):
        raise ValueError("dual energy requires support in [0, 1]")
    T = prob.torus
    total = 0.0
    for a, w in prob.P.atoms:
        wa = w_alpha(prob, v, a)
        mean_w = integrate(T, wa) / T.volume
        ent = integrate(T, Field(wa.values * np.exp(wa.values)))
        total += w * (mean_w + ent)
    return 0.5 * prob.lam * total


def _shifted_partitions(prob: Problem, v: Field) -> list[tuple[float, np.ndarray, float]]:
    """Per atom, m = max(alpha v), e^{alpha v - m} on the grid and its grid sum."""
    out = []
    for a, _ in prob.P.atoms:
        av = a * v.values
        m = float(av.max())
        ex = np.exp(av - m)
        out.append((m, ex, float(ex.sum())))
    return out


def stack_per_atom(prob: Problem, v: Field) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The partition stack of v one atom at a time: per row, alpha v less its
    own max, through its own exponential, with its grid sum and that max.
    Returns (stack, totals, shifts) in atom order, laid out as
    :class:`vortexmf.functional.Partitions` holds them."""
    rows = _shifted_partitions(prob, v)
    stack = np.array([ex.ravel() for _, ex, _ in rows])
    return stack, np.array([total for _, _, total in rows]), np.array([m for m, _, _ in rows])


def quarter_stack(T: SpectralTorus, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a full-grid stack at the nodes 0 <= i, j <= n/2, each
    times the number of grid nodes that an even field's node stands for
    (1 at the corners, 2 on the edges, 4 inside), with each row's sum:
    the layout of :class:`vortexmf.functional.Partitions`."""
    n = T.grid_n
    h = n // 2 + 1
    edge = np.where((np.arange(h) == 0) | (np.arange(h) == n // 2), 1.0, 2.0)
    weights = (edge[:, None] * edge[None, :]).ravel()
    rows = stack.reshape(len(stack), n, n)[:, :h, :h].reshape(len(stack), h * h) * weights
    return rows, np.array([row.sum() for row in rows])


def curvature_per_atom(prob: Problem, v: Field) -> np.ndarray:
    """S = sum w alpha^2 rho_alpha on the grid, one atom at a time."""
    T = prob.torus
    acc = np.zeros_like(v.values)
    for (a, w), (m, ex, total) in zip(prob.P.atoms, _shifted_partitions(prob, v)):
        acc += (w * a * a / (T.cell_area * total)) * ex
    return acc


def energy_delta_per_atom(prob: Problem, v: Field, d: Field) -> float:
    """J(v - d) - J(v) in cancellation-free form over the whole grid, one
    atom at a time: the bilinear Dirichlet terms, and per atom log1p of
    the relative sum of e^{alpha v - m} expm1(-alpha d)."""
    T = prob.torus
    delta = -gradient_inner(T, v, d) + 0.5 * gradient_inner(T, d, d)
    log_terms = 0.0
    for (a, w), (_, ex, total) in zip(prob.P.atoms, _shifted_partitions(prob, v)):
        log_terms += w * math.log1p(float((ex * np.expm1(-a * d.values)).sum()) / total)
    return delta - prob.lam * log_terms


def el_residual_per_atom(prob: Problem, v: Field) -> Field:
    """The equation residual, one atom at a time, each density by its own
    exponential:

        -Laplacian v - lambda sum w alpha (e^{alpha v} / int e^{alpha v} - 1/|Omega|).
    """
    T = prob.torus
    acc = np.zeros_like(v.values)
    for (a, w), (m, _, total) in zip(prob.P.atoms, _shifted_partitions(prob, v)):
        if a != 0.0:
            density = np.exp(a * v.values - (m + math.log(T.cell_area * total)))
            acc += (w * a) * (density - 1.0 / T.volume)
    return project_zero_mean(T, Field(-laplacian(T, v).values - prob.lam * acc))


def hessian_product_per_atom(prob: Problem, v: Field, phi: Field) -> Field:
    """The second variation of J at v along phi, one atom at a time:

        -Laplacian phi - lambda sum w alpha^2 rho_alpha (phi - int rho_alpha phi).
    """
    T = prob.torus
    acc = np.zeros_like(phi.values)
    for (a, w), (_, ex, total) in zip(prob.P.atoms, _shifted_partitions(prob, v)):
        if a != 0.0:
            mean = float((ex * phi.values).sum()) / total  # int rho_alpha phi
            acc += (w * a * a / (T.cell_area * total)) * ex * (phi.values - mean)
    return project_zero_mean(T, Field(-laplacian(T, phi).values - prob.lam * acc))


def translate(T: SpectralTorus, F: np.ndarray, shift: tuple[float, float]) -> Field:
    """The field with half spectrum F moved by ``shift`` cells along the two
    grid axes: f(x - s), sampled from the trigonometric interpolant, as
    irfft2(F e^{-2 pi i k.s / n}).

    The Nyquist line and column (wavenumber n/2) stand for both +n/2 and
    -n/2.  The real interpolant splits them evenly between the two, so a
    shift multiplies them by cos(pi s): the sine part it adds vanishes at
    every node.  An integer shift is exactly ``np.roll``; a fractional one
    damps the Nyquist modes, so only a field without them comes back from
    a shift by s and then by -s.
    """
    n = T.grid_n
    phases = []
    for s, k in zip(shift, (np.fft.fftfreq(n, d=1.0 / n), np.fft.rfftfreq(n, d=1.0 / n))):
        phase = np.exp(-2j * math.pi * s / n * k)
        phase[n // 2] = math.cos(math.pi * s)
        phases.append(phase)
    return Field(np.fft.irfft2(F * np.outer(*phases), s=(n, n)))


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
    _check_alpha_window(alpha, h)
    T = prob.torus
    ip = math.exp(log_partition(T, v, alpha + h))
    im = math.exp(log_partition(T, v, alpha - h))
    return (ip - im) / (2.0 * h)


def _check_alpha_window(alpha: float, h: float) -> None:
    if not h > 0.0:
        raise ValueError("step h must be positive")
    if not (alpha - h > 0.0 and alpha + h <= 1.0):
        raise ValueError(f"stencil [{alpha - h}, {alpha + h}] must stay inside (0, 1]")


def check_even(T: SpectralTorus, f: Field) -> None:
    """Raise ValueError unless f equals its reflections bit for bit: line
    i equals line n - i for 0 < i < n, in each direction."""
    vals = _check(T, f)
    if not (np.array_equal(vals[1:], vals[:0:-1]) and np.array_equal(vals[:, 1:], vals[:, :0:-1])):
        raise ValueError("field is not even about node (0, 0) in x and in y")
