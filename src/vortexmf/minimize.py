"""Free energy minimization by trust-region Newton-CG with continuation.

Every iteration is one trust-region step (Steihaug 1983, Toint 1981).  The
Newton model of J at the iterate is solved by truncated CG in the H^1 norm,
preconditioned by the Poisson solve, which makes the quadratic part of the
energy perfectly conditioned.  The CG residual and search direction are
carried as cosine modes (see :mod:`vortexmf.torus`), so the preconditioner
is a division by the eigenvalues of -Laplacian and takes no transform, and
a Hessian-vector product (:func:`hessian_product`) takes two transforms:
the direction from its modes, and the modes of the partition term.
The step is accepted or rejected by the ratio of the actual change of J to
the predicted one.  The first trust radius is the H^1 length of the
preconditioned gradient, ||(-Laplacian)^-1 g||_H1, which needs no
constant.  A cold start of 1/2 delta_-1 + 1/2 delta_1 at lambda_bar takes
25, 23, 34 and 44 steps on 32^2 to 256^2, and 65 on 512^2 (68 on one BLAS
thread: the count there moves with the rounding).

Every iterate is even about node (0, 0) in x and in y (see
:mod:`vortexmf.torus`).  The start, cold or warm, is projected onto the
even fields and taken at its (n/2 + 1)^2 quarter-cell nodes; the iterate,
the residual, the CG directions and the step stay at those nodes, and
their spectra at the cosine modes, so only ``result.v`` is unfolded to the
grid.  By the principle of symmetric criticality (Palais 1979) a converged
iterate is a critical point of J on the whole torus; whether it is a
minimizer against odd perturbations is not checked.  The even fields hold
no translation, so a spike sits on a node that is its own reflection, and
no step crawls along a slide onto the grid.

The CG path grows monotonically in the H^1 norm, so after a rejected step
the smaller radius cuts the path already computed at that iterate, and
takes no Hessian product.

The actual change of J is evaluated in cancellation-free form: the
Dirichlet part expands exactly as a bilinear form in (v, d), and each
log-partition difference is log1p of a relative expm1 sum.  Plain
J(new) - J(old) subtraction stalls at the rounding floor of J long before
the equation residual reaches the tolerances demanded here.

The iterate v is transformed, and each atom's exponential taken, once per
iterate, by :func:`el_residual` into the one :class:`Partitions` of a run;
J, the energy differences and the Hessian products at v read them there,
and an energy difference transforms only its step.

The layer does no I/O: a run keeps its per-iteration trace, and the count
of steps it rejected, in its :class:`MinimizeResult`, and the caller
decides what to write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from vortexmf.functional import J, Partitions, Problem, el_residual, hessian_product, log_partition
from vortexmf.measure import CirculationMeasure
from vortexmf.torus import (
    Field,
    SpectralTorus,
    cosine_transform,
    even_inner,
    periodic_distance,
    project_even,
    project_zero_mean,
    quarter,
    quarter_mean,
    unfold,
)

# the least ratio of actual to predicted decrease at which a step is accepted
ACCEPT_RATIO = 1e-4
MAX_REJECTIONS = 60  # rejected steps in a row that end a run diverged
CG_MAX_ITERS = 200  # Hessian products per truncated-CG solve


@dataclass(frozen=True)
class MinimizeOptions:
    max_iters: int = 5000
    grad_tol: float = 1e-8
    blowup_peak_threshold: float = 25.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iters <= 0:
            raise ValueError("max_iters must be positive")
        for name in ("grad_tol", "blowup_peak_threshold"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class MinimizeResult:
    """The last iterate of a run; ``status`` says how the run ended:
    ``converged``, ``blown_up``, ``budget`` or ``diverged`` (see :func:`minimize`).
    ``hessian_products`` counts the Hessian products of the truncated CG,
    and ``rejected`` the steps the trust region rejected, out of
    ``iterations``.  ``trace`` holds one row
    (J, residual_norm, step, max_v) for the start and one per iteration:
    ``step`` is the trust radius of the iteration, 0.0 at the start, and a
    rejected step repeats the J, residual and max of v of the row before."""

    v: Field
    J_value: float
    residual_norm: float
    iterations: int
    lam: float
    status: str
    hessian_products: int = 0
    rejected: int = 0
    trace: list[tuple[float, float, float, float]] = field(default_factory=list)

    @property
    def peak_point(self) -> tuple[int, int]:
        """The first grid point, in row-major order, where v is largest."""
        i, j = np.unravel_index(int(np.argmax(self.v.values)), self.v.values.shape)
        return int(i), int(j)

    @property
    def peak_value(self) -> float:
        return float(self.v.values[self.peak_point])


def random_zero_mean(T: SpectralTorus, seed: int, amplitude: float = 0.01) -> Field:
    """Band-limited noise of given sup amplitude, zero-mean, seeded."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((T.grid_n, T.grid_n))
    # complex transforms: every cold start is these bits
    spectrum = np.fft.fft2(noise)
    cutoff = max(2, T.grid_n // 8)
    keep = np.abs(np.fft.fftfreq(T.grid_n, 1.0 / T.grid_n)) <= cutoff
    vals = np.fft.ifft2(spectrum * np.outer(keep, keep)).real
    vals *= amplitude / np.abs(vals).max()
    return project_zero_mean(T, Field(vals))


def center_bump(T: SpectralTorus, amplitude: float = 0.5) -> Field:
    """Gaussian bump of width L/8 at the grid center (symmetry breaking)."""
    r = periodic_distance(T, (T.grid_n // 2, T.grid_n // 2))
    width = T.side_length / 8.0
    return Field(amplitude * np.exp(-(r * r) / (2.0 * width * width)))


class _EnergyDelta:
    """Cancellation-free J(v - d) - J(v) for the iterate v and a zero-mean
    step d, both at the quarter-cell nodes.

    ``partitions`` holds v's cosine modes, the atoms' circulations and
    weights, and each atom's max-shifted exponential e^{alpha v - m} with
    its grid sum, as :func:`el_residual` hands them out for v, so only d is
    transformed, for the bilinear terms <grad v, grad d> and |grad d|^2.
    Each atom's expm1 runs in place in one buffer at the quarter-cell
    nodes, and its relative sum is one dot product with the atom's row,
    which carries the node weights.
    """

    def __init__(self, prob: Problem, d: np.ndarray, partitions: Partitions):
        self.prob = prob
        self.d = d
        d_hat = cosine_transform(prob.torus, d)
        self.a_vd = even_inner(prob.torus, partitions.spectrum, d_hat)
        self.a_dd = even_inner(prob.torus, d_hat, d_hat)
        self.shifted = partitions

    def __call__(self) -> float:
        delta = -self.a_vd + 0.5 * self.a_dd
        log_terms = 0.0
        u = np.empty_like(self.d)
        shifted = self.shifted
        rows = zip(shifted.alpha.tolist(), shifted.weight.tolist(), shifted.stack, shifted.totals.tolist())
        # a move past exp overflow makes the sum inf or nan
        with np.errstate(over="ignore", invalid="ignore"):
            for a, w, ex, total in rows:
                np.multiply(self.d, -a, out=u)
                np.expm1(u, out=u)
                rel = float(ex @ u) / total
                if not math.isfinite(rel):
                    raise OverflowError("partition exponent out of range")
                log_terms += w * math.log1p(rel)
        return delta - self.prob.lam * log_terms


def blowup_threshold(opts: MinimizeOptions, T: SpectralTorus) -> float:
    """The peak of |v| at which a run on T counts as blown up.

    It is ``blowup_peak_threshold`` on grids up to 64^2, plus 4 log(n/64) on
    an n^2 grid beyond: the peak of a solution that converges at lambda_bar
    grows by about 4 log 2 per grid doubling, and for
    1/2 delta_-1 + 1/2 delta_1 it crosses a fixed 25 at 512^2.
    """
    return opts.blowup_peak_threshold + 4.0 * math.log(max(T.grid_n, 64) / 64)


def _stop_status(opts: MinimizeOptions, T: SpectralTorus, v: np.ndarray, res_norm: float, iterations: int) -> str | None:
    """How a run ends at this iterate, or None to go on: the tolerance is
    checked first, then the peak of |v|, then the budget."""
    if res_norm <= opts.grad_tol:
        return "converged"
    if float(np.abs(v).max()) >= blowup_threshold(opts, T):
        return "blown_up"
    if iterations >= opts.max_iters:
        return "budget"
    return None


def _finite(what: str, value):
    """Return value, or raise OverflowError naming ``what`` if any of it is not finite."""
    if not np.isfinite(value).all():
        raise OverflowError(f"truncated CG: {what} is not finite")
    return value


class _SteihaugPath:
    """The Steihaug-Toint truncated CG path on the Newton model at v.

    The model m(d) = -<g, d> + 1/2 <d, H d> is the second-order expansion of
    J(v - d) - J(v); H is the second variation of J at v
    (:func:`hessian_product`), and g the residual at v.  CG runs in the H^1
    norm, preconditioned by (-Laplacian)^-1, from d = 0, and its iterates
    grow monotonically in that norm.  The path ends inside once the H^-1
    residual has fallen by min(1/2, sqrt(||g||_H-1)), or after CG_MAX_ITERS
    products.  It grows one Hessian product at a time, only as far as a step
    needs it, and keeps each search direction q with <q, H q> and its
    preconditioned residual norm rz: those are all a smaller radius needs to
    cut the path again without a product.

    The residual g, the CG residual r and the search direction are all
    (n/2 + 1)^2 real values: g at the quarter-cell nodes, r and the
    direction as cosine modes, so the preconditioner is a division by the
    eigenvalues and rz, the Dirichlet form of (-Laplacian)^-1 r, is a
    Parseval sum.  :func:`hessian_product` takes the direction's modes and
    hands back q at the quarter-cell nodes, for the step, with <q, H q>
    and the modes of H q, for the residual.  A non-finite rz, <q, H q>,
    model or step raises OverflowError before a transform.
    """

    def __init__(self, prob: Problem, partitions: Partitions, g: np.ndarray):
        self.prob = prob
        self.partitions = partitions
        self.r_hat = cosine_transform(prob.torus, g)  # the CG residual after the last direction kept
        self.q_hat = self.r_hat * prob.torus.quarter_inverse_eigenvalues  # the next search direction
        # ||(-Laplacian)^-1 g||_H1^2 = <g, (-Laplacian)^-1 g>
        self.rz0 = _finite("rz0", even_inner(prob.torus, self.q_hat, self.q_hat))
        self.tol = min(0.5, self.rz0**0.25) * math.sqrt(self.rz0)
        self.directions: list[tuple[np.ndarray, float, float]] = []  # (q, <q, H q>, rz)
        self.ended = False

    def _grow(self) -> bool:
        """Take one more CG direction and its Hessian product; False once
        the path has ended inside."""
        T = self.prob.torus
        if self.ended or len(self.directions) == CG_MAX_ITERS:
            return False
        if self.directions:
            _, _, rz = self.directions[-1]
            z_hat = self.r_hat * T.quarter_inverse_eigenvalues
            rz_next = _finite("rz", even_inner(T, z_hat, z_hat))
            if math.sqrt(rz_next) <= self.tol:
                self.ended = True
                return False
            self.q_hat *= rz_next / rz
            self.q_hat += z_hat
            rz = rz_next
        else:
            rz = self.rz0
        q, kappa, hq_hat = hessian_product(self.prob, self.partitions, self.q_hat)
        self.directions.append((q, _finite("<q, H q>", kappa), rz))
        if kappa > 0.0:  # on negative curvature every step stops on this direction
            hq_hat *= rz / kappa
            self.r_hat -= hq_hat
        return True

    def step(self, radius: float) -> tuple[np.ndarray, float, bool, int]:
        """The point where the path leaves the ball ||d||_H1 <= radius, or
        its end inside.  Returns d at the quarter-cell nodes, m(d), whether
        d lies on the boundary, and the Hessian products this call took.
        The H1 norms of d and of the search direction are carried by the CG
        recurrences, so no transform computes them."""
        grown = len(self.directions)
        d = np.zeros(self.prob.torus.quarter_weights.size)
        dd, dq, qq = 0.0, 0.0, self.rz0  # <d, M d>, <d, M q>, <q, M q> for M = -Laplacian
        model, alpha, boundary = 0.0, 0.0, False
        k = 0
        while k < len(self.directions) or self._grow():
            q, kappa, rz = self.directions[k]
            if k:
                beta = rz / self.directions[k - 1][2]
                dq = beta * (dq + alpha * qq)
                qq = rz + beta * beta * qq
            alpha = rz / kappa if kappa > 0.0 else math.inf
            if dd + alpha * (2.0 * dq + alpha * qq) >= radius * radius:
                tau = (math.sqrt(dq * dq + qq * (radius * radius - dd)) - dq) / qq
                model += tau * (0.5 * tau * kappa - rz)
                d, boundary = d + tau * q, True
                break
            d = d + alpha * q
            model -= 0.5 * alpha * rz
            dd += alpha * (2.0 * dq + alpha * qq)
            k += 1
        _finite("the model", model)
        return _finite("the step", d), model, boundary, len(self.directions) - grown


def minimize(prob: Problem, opts: MinimizeOptions, warm_start: Field | None = None) -> MinimizeResult:
    """Minimize J over the even fields to sup-norm residual <= grad_tol by
    trust-region steps.

    Starts from ``warm_start``, or from seeded band-limited noise, projected
    onto the even fields and with its mean subtracted; every iterate is
    kept at the quarter-cell nodes, with its mean subtracted after each
    step, and ``result.v`` is the last one unfolded to the grid, so it is
    even bit for bit and has zero mean.  Ends on tolerance, a
    peak of |v| reaching :func:`blowup_threshold` (so a spike of either
    sign counts), the iteration budget, or ``MAX_REJECTIONS`` rejected
    steps in a row; ``result.status`` says which, and ``result`` holds the
    last iterate in every case.  Every step, accepted or rejected, is one
    iteration toward the budget.
    """
    T = prob.torus
    start = random_zero_mean(T, opts.seed) if warm_start is None else warm_start
    # a warm start of another grid raises ValueError here
    v = quarter(T, project_zero_mean(T, project_even(T, start)).values)

    partitions = Partitions(prob)
    g = el_residual(prob, v, partitions)
    j_curr = J(prob, v, partitions)
    res_norm = float(np.abs(g).max())
    iterations = products = rejected = rejected_in_a_row = 0
    path: _SteihaugPath | None = None
    radius = math.nan  # set from the first path
    trace = [(j_curr, res_norm, 0.0, float(v.max()))]

    while (status := _stop_status(opts, T, v, res_norm, iterations)) is None:
        if path is None:
            path = _SteihaugPath(prob, partitions, g)
            if iterations == 0:
                radius = math.sqrt(path.rz0)
        step, model, boundary, n = path.step(radius)
        products += n
        delta = _EnergyDelta(prob, step, partitions)
        dj = delta()
        ratio = dj / model  # actual over predicted change; model < 0
        iterations += 1
        if ratio > ACCEPT_RATIO:
            v = v - step
            v -= quarter_mean(T, v)
            path = None
            g = el_residual(prob, v, partitions)
            j_curr = j_curr + dj
            res_norm = float(np.abs(g).max())
            rejected_in_a_row = 0
        else:
            rejected += 1
            rejected_in_a_row += 1
        trace.append((j_curr, res_norm, radius, float(v.max())))
        if rejected_in_a_row == MAX_REJECTIONS:
            status = "diverged"  # the trust radius collapsed
            break
        if ratio < 0.25:
            radius *= 0.25
        elif ratio > 0.75 and boundary:
            radius *= 2.0
    return MinimizeResult(Field(unfold(T, v)), j_curr, res_norm, iterations, prob.lam, status, products, rejected, trace)


def stage_problems(T: SpectralTorus, P: CirculationMeasure, lambda_schedule: list[float]) -> list[Problem]:
    """One :class:`Problem` per coupling of a schedule, which must be
    nonempty and strictly ascending; each coupling is checked by its
    :class:`Problem` first.  Callers run it before any work or output."""
    if not lambda_schedule:
        raise ValueError("empty coupling schedule")
    problems = [Problem(T, P, lam) for lam in lambda_schedule]
    for a, b in zip(lambda_schedule, lambda_schedule[1:]):
        if not b > a:
            raise ValueError("coupling schedule must be strictly ascending")
    return problems


def continuation_sweep(problems: list[Problem], opts: MinimizeOptions) -> list[MinimizeResult]:
    """Minimize along the stages of an ascending coupling schedule, as
    :func:`stage_problems` returns them, with warm starts.

    The first stage starts cold, exactly as :func:`minimize` does; each
    later one starts from the previous solution plus a fixed bump at the
    grid center, which is even (:func:`minimize` projects the start and
    subtracts its mean).
    Past lambda_bar(P) a stage normally blows up; the sweep stops after a
    stage that ended ``blown_up`` or ``diverged`` and returns the stages
    run so far.  A ``budget`` stage still warm-starts the next one.
    """
    bump: Field | None = None
    results: list[MinimizeResult] = []
    for prob in problems:
        warm: Field | None = None
        if results:
            if results[-1].status in ("blown_up", "diverged"):
                break
            if bump is None:
                bump = center_bump(prob.torus)
            warm = Field(results[-1].v.values + bump.values)
        results.append(minimize(prob, opts, warm_start=warm))
    return results


def detect_concentration(
    result: MinimizeResult,
    T: SpectralTorus,
    peak_threshold: float,
) -> tuple[int, int] | None:
    """Locate a single concentration point, if any.

    A point qualifies when the field peak exceeds ``peak_threshold`` and
    the unit-circulation density e^{w_1} puts more than half its mass in
    the periodic ball of radius L/8 around it.  Among equal-height peaks
    the one holding more mass wins; remaining ties go to the first in
    lexicographic grid order.
    """
    if result.peak_value < peak_threshold:
        return None
    vals = result.v.values
    lp = log_partition(T, result.v, 1.0)
    density = np.exp(vals - lp)
    candidates = np.argwhere(vals == vals.max())
    best: tuple[int, int] | None = None
    best_mass = 0.5  # majority threshold
    for ci, cj in candidates:
        r = periodic_distance(T, (int(ci), int(cj)))
        mass = T.cell_area * float(density[r <= T.side_length / 8.0].sum())
        if mass > best_mass:
            best = (int(ci), int(cj))
            best_mass = mass
    return best


def mirror_image(result: MinimizeResult, P: CirculationMeasure) -> tuple[MinimizeResult, CirculationMeasure]:
    """The stage as the state (-v, alpha -> -alpha), which has the same J:
    its peak is the spike of the minimum of v."""
    mirrored_P = CirculationMeasure(tuple((-a, w) for a, w in reversed(P.atoms)))
    return replace(result, v=Field(-result.v.values)), mirrored_P
