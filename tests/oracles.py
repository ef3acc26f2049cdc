"""Test oracles: the full-grid FFT calculus on grid fields, the dual
energy expression, central differences in the circulation alpha, per-atom
loops over the whole grid for J, the residual, the curvature, the Hessian
product, the energy difference and its relative partition sums, the
translation of a field by a sub-cell shift, a check that a grid field
is even bit for bit, a warm start taken on the grid, the walk for a side's Chebyshev node count from
c/2 up, and the forms the solver's per-iterate kernels had before they
were made leaner: the inverse cosine transform as a quotient by n^2, the
per-row expm1 dots, the per-side row-atom maps, the loop that adds the
energy difference's terms, and the 21-point Kronrod rule and its error
estimate one interval at a time in Python floats.

The library computes on the cosine modes of even fields at their
quarter-cell nodes; these recompute its quantities, or derivatives of
their ingredients, by independent formulas on the whole grid that the
tests compare against.  The FFT calculus is numpy's ``rfft2``/``irfft2``
on the half spectrum, the n x (n/2 + 1) columns m = 0 .. n/2, and takes
any field, even or not.
"""

import math

import numpy as np

from vortexmf.functional import _NODE_TOL, Partitions, Problem, log_partition, w_alpha
from vortexmf.torus import (
    Field,
    SpectralTorus,
    _check,
    cosine_transform,
    project_even,
    project_zero_mean,
    quarter,
    unfold,
)


def half_spectrum_eigenvalues(T: SpectralTorus) -> np.ndarray:
    """Eigenvalues of -Laplacian per mode of the half spectrum; (0,0) is
    exactly 0."""
    n = T.grid_n
    scale = 2.0 * math.pi / T.side_length
    kx = scale * np.fft.fftfreq(n, d=1.0 / n)
    ky = scale * np.fft.rfftfreq(n, d=1.0 / n)
    return kx[:, None] ** 2 + ky[None, :] ** 2


def half_spectrum_weights(T: SpectralTorus) -> np.ndarray:
    """The symbol of int grad f . grad g over the half spectrum: the
    eigenvalues times the Parseval weight (2 on the interior columns, each
    of which stands for itself and its mirror, 1 on columns 0 and n/2)
    times |Omega| / n^4."""
    weights = half_spectrum_eigenvalues(T) * (2.0 * T.volume / T.grid_n**4)
    weights[:, 0] *= 0.5
    weights[:, -1] *= 0.5
    return weights


def integrate(T: SpectralTorus, f: Field) -> float:
    """Domain integral by the uniform grid rule (L/n)^2 sum."""
    return T.cell_area * float(_check(T, f).sum())


def laplacian(T: SpectralTorus, f: Field) -> Field:
    """Spectral Laplacian; the constant mode maps to 0."""
    F = np.fft.rfft2(_check(T, f))
    F *= -half_spectrum_eigenvalues(T)
    return Field(np.fft.irfft2(F, s=f.values.shape))


def solve_poisson_zero_mean(T: SpectralTorus, rhs: Field) -> Field:
    """Solve -Laplacian u = rhs - mean(rhs) with int u = 0; the (0,0) mode
    of both sides is dropped."""
    eig = half_spectrum_eigenvalues(T)
    nonzero = eig > 0.0
    inv = np.zeros_like(eig)
    inv[nonzero] = 1.0 / eig[nonzero]
    F = np.fft.rfft2(_check(T, rhs))
    F *= inv
    return Field(np.fft.irfft2(F, s=rhs.values.shape))


def spectral_inner(T: SpectralTorus, F: np.ndarray, G: np.ndarray) -> float:
    """int grad f . grad g by Parseval, from the half spectra F of f and G of g."""
    cross = F.real * G.real
    cross += F.imag * G.imag
    cross *= half_spectrum_weights(T)
    return float(cross.sum())


def dirichlet_energy(T: SpectralTorus, f: Field) -> float:
    """(1/2) int |grad f|^2 by Parseval on the half spectrum."""
    F = np.fft.rfft2(_check(T, f))
    return 0.5 * spectral_inner(T, F, F)


def gradient_inner(T: SpectralTorus, f: Field, g: Field) -> float:
    """int grad f . grad g, the bilinear form under dirichlet_energy."""
    return spectral_inner(T, np.fft.rfft2(_check(T, f)), np.fft.rfft2(_check(T, g)))


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


def relative_sums_per_atom(prob: Problem, v: Field, d: Field) -> np.ndarray:
    """Per atom, the relative change of its partition integral from v to
    v - d over the whole grid: the sum of e^{alpha v - m} expm1(-alpha d)
    over the sum of e^{alpha v - m}."""
    rows = zip(prob.P.atoms, _shifted_partitions(prob, v))
    return np.array([float((ex * np.expm1(-a * d.values)).sum()) / total for (a, _), (_, ex, total) in rows])


def energy_delta_per_atom(prob: Problem, v: Field, d: Field) -> float:
    """J(v - d) - J(v) in cancellation-free form over the whole grid, one
    atom at a time: the bilinear Dirichlet terms, and per atom log1p of
    the relative sum of e^{alpha v - m} expm1(-alpha d)."""
    T = prob.torus
    delta = -gradient_inner(T, v, d) + 0.5 * gradient_inner(T, d, d)
    log_terms = 0.0
    for (_, w), rel in zip(prob.P.atoms, relative_sums_per_atom(prob, v, d).tolist()):
        log_terms += w * math.log1p(rel)
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


def grid_warm_start(T: SpectralTorus, v: np.ndarray, bump: Field) -> np.ndarray:
    """The start of a stage warm-started from the quarter-cell values v
    and the bump, taken on the grid: v unfolded plus the bump, projected
    onto the even fields, with its grid mean subtracted, at the
    quarter-cell nodes."""
    return quarter(T, project_zero_mean(T, project_even(T, Field(unfold(T, v) + bump.values))).values)


def node_count_walk(c: float, count: int) -> int:
    """The node count of ``functional._node_count`` by a walk over every r
    from max(1, floor(c/2)) up: the first r < count whose bound
    4 b_r / (1 - q) meets the tolerance, or ``count``."""
    if c == 0.0:
        return 1
    log_tol = math.log(_NODE_TOL / 4.0)
    for r in range(max(1, math.floor(c / 2.0)), count):
        q = c / (2.0 * (r + 1))
        if r * math.log(c / 2.0) - math.lgamma(r + 1) + 0.5 * c * q - c - math.log1p(-q) <= log_tol:
            return r
    return count


def inverse_cosine_transform_by_division(T: SpectralTorus, X: np.ndarray) -> np.ndarray:
    """The quarter-cell values C X C^T / n^2 of the even field with cosine
    modes X: the forward transform, then a division pass."""
    return cosine_transform(T, X) / T.grid_n**2


def expm1_dots_per_row(partitions: Partitions, d: np.ndarray, betas: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """row_j . expm1(-beta_j d) one row at a time, each a 1-d dot, with
    row_j the j-th of ``rows``, or without them e^{beta_j v - m} times the
    node weights at the field of the fill, taken afresh."""
    out = np.empty(betas.size)
    u, fresh = np.empty_like(d), np.empty_like(d)
    for j, beta in enumerate(betas.tolist()):
        if rows is None:
            np.multiply(partitions.values, beta, out=fresh)
            fresh -= beta * (partitions.high if beta > 0.0 else partitions.low)
            np.exp(fresh, out=fresh)
            fresh *= partitions.quarter_weights
        np.multiply(d, -beta, out=u)
        np.expm1(u, out=u)
        out[j] = (fresh if rows is None else rows[j]) @ u
    return out


def expm1_sums_per_side(partitions: Partitions, d: np.ndarray) -> np.ndarray:
    """``Partitions.expm1_sums`` side by side and row by row: each side
    takes the node set of v's range widened by the step, its stack rows
    where that is the iterate's and rows of its own otherwise, with no
    pass of its own for a stack of the atoms' own rows."""
    sums = np.empty(partitions.alpha.size)
    width = partitions.high - partitions.low + (max(float(d.max()), 0.0) - min(float(d.min()), 0.0))
    for k, (atoms, rows, _) in enumerate(partitions.layout):
        nodes, lagrange = partitions._node_set(k, width)
        node_rows = partitions.stack[rows] if nodes.size == rows.stop - rows.start else None
        f = expm1_dots_per_row(partitions, d, nodes, node_rows)
        if lagrange is None:
            sums[atoms] = f
            continue
        f /= nodes
        np.matmul(lagrange, f, out=sums[atoms])
        sums[atoms] *= partitions.alpha[atoms]
    return sums


def to_atoms_per_side(partitions: Partitions, per_row: np.ndarray) -> np.ndarray:
    """``Partitions.to_atoms`` side by side: an exact side's rows copied,
    an interpolated side's through its matrix."""
    out = np.empty(partitions.alpha.size)
    for atoms, rows, lagrange in partitions.layout:
        if lagrange is None:
            out[atoms] = per_row[rows]
        else:
            np.matmul(lagrange, per_row[rows], out=out[atoms])
    return out


def to_rows_per_side(partitions: Partitions, per_atom: np.ndarray) -> np.ndarray:
    """``Partitions.to_rows`` side by side: an exact side's atoms copied,
    an interpolated side's through the transpose of its matrix."""
    out = np.empty(partitions.stack.shape[0])
    for atoms, rows, lagrange in partitions.layout:
        if lagrange is None:
            out[rows] = per_atom[atoms]
        else:
            np.matmul(per_atom[atoms], lagrange, out=out[rows])
    return out


def added_in_a_loop(terms: np.ndarray) -> float:
    """0.0 plus the terms, one Python float addition at a time."""
    total = 0.0
    for term in terms.tolist():
        total += term
    return total


def kronrod_per_interval(f, lo: list[float], hi: list[float], member: np.ndarray) -> tuple[list[float], list[float]]:
    """QUADPACK's qk21 value and error estimate of each interval, its
    Kronrod sum and estimate in Python floats, term by term in qk21's order,
    from one call of f on the (intervals x 21) nodes (``blowup._NODES``)."""
    from vortexmf.blowup import _EPS50, _GAUSS, _KRONROD, _KRONROD_NODES, _NODES, _RESABS_FLOOR

    centre, half = np.array([[0.5 * (a + b), 0.5 * (b - a)] for a, b in zip(lo, hi)]).T
    fx = f(centre[:, None] + half[:, None] * _NODES, member)
    pairs = fx[:, 1:11] + fx[:, 11:]
    resk = []
    for k, row in zip(fx[:, 0].tolist(), pairs.tolist()):
        k *= _KRONROD[0]
        for w, p in zip(_KRONROD[1:], row):
            k += w * p
        resk.append(k)
    resg = (pairs * _GAUSS).sum(axis=1)
    resabs = (np.abs(fx) * _KRONROD_NODES).sum(axis=1)
    resasc = (np.abs(fx - 0.5 * np.array(resk)[:, None]) * _KRONROD_NODES).sum(axis=1)
    values, errors = [], []
    for k, g, s, asc, h in zip(resk, resg.tolist(), resabs.tolist(), resasc.tolist(), half.tolist()):
        err = abs((k - g) * h)
        s, asc = s * abs(h), asc * abs(h)
        if asc != 0.0 and err != 0.0:
            err = asc * min(1.0, (200.0 * err / asc) ** 1.5)
        if s > _RESABS_FLOOR:
            err = max(_EPS50 * s, err)
        values.append(k * h)
        errors.append(err)
    return values, errors
