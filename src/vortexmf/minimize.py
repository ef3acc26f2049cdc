"""Free energy minimization by preconditioned descent with continuation.

The descent direction is the inverse-Laplacian image of the energy
gradient (the gradient in the H^1 inner product), which makes the
quadratic part of the energy perfectly conditioned.  Steps are proposed
by a Barzilai-Borwein rule and guarded by Armijo backtracking.

Near lambda_bar that descent can stagnate: the grid pins the translation
of a concentrated state, which leaves a slow mode.  Once the best residual
has fallen less than STALL_FACTOR times over STALL_WINDOW iterations, a
trust-region Newton finish takes over (Steihaug-Toint truncated CG in the
H^1 norm, preconditioned by the Poisson solve).  A cold start of
1/2 delta_-1 + 1/2 delta_1 at lambda_bar takes 76, 119, 124 and 131
iterations on 32^2 to 256^2, against 76, 205, 256 and 498 by the descent
alone.

The Armijo test evaluates the energy *difference* in cancellation-free
form: the Dirichlet part expands exactly as a bilinear form in (v, d),
and each log-partition difference is log1p of a relative expm1 sum.  Plain
J(new) - J(old) subtraction stalls at the rounding floor of J long before
the equation residual reaches the tolerances demanded here.  The trust
region measures the actual change of J by the same difference.

Each atom's partition exponential e^{alpha v - m} (m the max of alpha v)
is computed once per iterate: :func:`el_residual` hands it out with its
grid sum, and every line-search trial at that iterate reuses it, as does
every Hessian product of the Newton finish.  The two bilinear terms come
from one transform of v and one of d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from vortexmf.functional import J, Problem, el_residual, hessian_product, log_partition
from vortexmf.measure import CirculationMeasure
from vortexmf.torus import (
    Field,
    SpectralTorus,
    gradient_inner_pair,
    integrate,
    periodic_distance,
    project_zero_mean,
    solve_poisson_zero_mean,
)

STEP_INIT = 1.0  # the first trial step, and the fallback of the BB rule
# Armijo sufficient-decrease constant, and the least ratio of actual to
# predicted decrease at which the trust region accepts a step
ARMIJO_C = 1e-4
STEP_CLIP = (1e-6, 1e3)
MAX_LINE_SEARCH = 60
# BB has stagnated when the best residual so far fell less than STALL_FACTOR
# times over the last STALL_WINDOW iterations; the trust-region finish takes over
STALL_WINDOW = 100
STALL_FACTOR = 10.0
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
    ``newton_steps`` and ``hessian_products`` count the iterations and the
    Hessian products of the trust-region finish, 0 when the descent
    converged alone."""

    v: Field
    J_value: float
    residual_norm: float
    iterations: int
    lam: float
    status: str
    newton_steps: int = 0
    hessian_products: int = 0

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
    """Cancellation-free J(v - s d) - J(v) for fixed v and zero-mean d.

    ``partitions`` holds each atom's max-shifted exponential e^{alpha v - m}
    and its grid sum, as :func:`el_residual` hands them out for v.
    """

    def __init__(self, prob: Problem, v: Field, d: Field, partitions: list[tuple[np.ndarray, float]]):
        self.prob = prob
        self.d = d
        self.a_vd, self.a_dd = gradient_inner_pair(prob.torus, v, d)
        self.shifted = partitions

    def __call__(self, s: float) -> float:
        delta = -s * self.a_vd + 0.5 * s * s * self.a_dd
        log_terms = 0.0
        # a move past exp overflow makes the sum inf or nan
        with np.errstate(over="ignore", invalid="ignore"):
            for (a, w), (ex, total) in zip(self.prob.P.atoms, self.shifted):
                u = (-s * a) * self.d.values
                rel = float((ex * np.expm1(u)).sum()) / total
                if not math.isfinite(rel):
                    raise OverflowError("partition exponent out of range")
                log_terms += w * math.log1p(rel)
        return delta - self.prob.lam * log_terms


def _stop_status(opts: MinimizeOptions, v: Field, res_norm: float, iterations: int) -> str | None:
    """How a run ends at this iterate, or None to go on: the tolerance is
    checked first, then the peak of |v|, then the budget."""
    if res_norm <= opts.grad_tol:
        return "converged"
    if float(np.abs(v.values).max()) >= opts.blowup_peak_threshold:
        return "blown_up"
    if iterations >= opts.max_iters:
        return "budget"
    return None


def _stalled(best: list[float]) -> bool:
    """Whether the best residual, one entry per iterate, fell less than
    STALL_FACTOR times over the last STALL_WINDOW iterations."""
    return len(best) > STALL_WINDOW and best[-1] * STALL_FACTOR > best[-1 - STALL_WINDOW]


def _truncated_cg(
    prob: Problem, partitions: list[tuple[np.ndarray, float]], g: Field, radius: float
) -> tuple[Field, float, bool, int]:
    """Steihaug-Toint truncated CG on the Newton model at v.

    Approximately minimizes m(d) = -<g, d> + 1/2 <d, H d>, the second-order
    model of J(v - d) - J(v), over ||d||_H1 <= radius, preconditioned by
    (-Laplacian)^-1; H is :func:`hessian_product` at v, g the residual at v.
    Stops at the boundary on negative curvature or a step past the radius,
    or inside once the H^-1 residual falls by min(1/2, sqrt(||g||_H-1)).
    Returns d, m(d), whether d lies on the boundary, and the Hessian
    products taken.  The H1 norms of d and of the search direction are
    carried by the CG recurrences, so no transform computes them.
    """
    T = prob.torus
    r = g.values
    z = solve_poisson_zero_mean(T, g).values
    rz = T.cell_area * float((r * z).sum())
    tol = min(0.5, rz**0.25) * math.sqrt(rz)
    d = np.zeros_like(r)
    q = z
    dd, dq, qq = 0.0, 0.0, rz  # <d, M d>, <d, M q>, <q, M q> for M = -Laplacian
    model = 0.0
    for products in range(1, CG_MAX_ITERS + 1):
        hq = hessian_product(prob, partitions, Field(q)).values
        kappa = T.cell_area * float((q * hq).sum())
        alpha = rz / kappa if kappa > 0.0 else math.inf
        if dd + alpha * (2.0 * dq + alpha * qq) >= radius * radius:
            tau = (math.sqrt(dq * dq + qq * (radius * radius - dd)) - dq) / qq
            model += tau * (0.5 * tau * kappa - rz)
            return Field(d + tau * q), model, True, products
        d = d + alpha * q
        model -= 0.5 * alpha * rz
        dd += alpha * (2.0 * dq + alpha * qq)
        r = r - alpha * hq
        z = solve_poisson_zero_mean(T, Field(r)).values
        rz_next = T.cell_area * float((r * z).sum())
        if math.sqrt(rz_next) <= tol:
            break
        beta, rz = rz_next / rz, rz_next
        dq = beta * (dq + alpha * qq)
        qq = rz + beta * beta * qq
        q = z + beta * q
    return Field(d), model, False, products


def minimize(
    prob: Problem,
    opts: MinimizeOptions,
    warm_start: Field | None = None,
    trace_path: str | None = None,
) -> MinimizeResult:
    """Descend J to sup-norm residual <= grad_tol.

    Starts from ``warm_start`` with its mean subtracted, or from seeded
    band-limited noise, so every iterate and ``result.v`` have zero mean.
    Ends on tolerance, a peak of |v| reaching the blowup threshold (so a
    spike of either sign counts), the iteration budget, or
    ``MAX_LINE_SEARCH`` consecutive step rejections, of the line search or
    of the trust region; ``result.status`` says which, and ``result`` holds
    the last iterate in every case.  Iterations of the Newton finish count
    toward the budget, and ``result.newton_steps`` says how many there were.
    """
    T = prob.torus
    if warm_start is None:
        v = random_zero_mean(T, opts.seed)
    else:
        if warm_start.values.shape != (T.grid_n, T.grid_n):
            raise ValueError("warm start grid does not match the torus")
        v = project_zero_mean(T, warm_start)

    trace = open(trace_path, "w", encoding="utf-8") if trace_path else None
    try:
        if trace:
            trace.write(f"# seed={opts.seed}\n")
            trace.write("iter,J,residual_norm,step,max_v\n")

        j_curr = J(prob, v)
        partitions: list[tuple[np.ndarray, float]] = []
        g = el_residual(prob, v, partitions)
        d = solve_poisson_zero_mean(T, g)
        res_norm = float(np.abs(g.values).max())
        step = STEP_INIT
        prev_dv: np.ndarray | None = None
        prev_dd: np.ndarray | None = None
        iterations = 0
        best = [res_norm]  # the best residual so far, per iterate

        if trace:
            _trace_row(trace, iterations, j_curr, res_norm, 0.0, v)

        while (status := _stop_status(opts, v, res_norm, iterations)) is None:
            if _stalled(best):
                break
            if prev_dv is not None:
                num = float((prev_dv * prev_dd).sum())
                den = float((prev_dd * prev_dd).sum())
                step = num / den if num > 0.0 and den > 0.0 else STEP_INIT
                step = min(max(step, STEP_CLIP[0]), STEP_CLIP[1])
            slope = integrate(T, Field(g.values * d.values))  # |grad|^2 in H^-1
            delta = _EnergyDelta(prob, v, d, partitions)
            for _ in range(MAX_LINE_SEARCH):
                dj = delta(step)
                if dj <= -ARMIJO_C * step * slope:
                    break
                step *= 0.5
            else:
                status = "diverged"
                break

            v_new = project_zero_mean(T, Field(v.values - step * d.values))
            # drop the old iterate's exponentials before the new ones are made
            del delta
            partitions = []
            g_new = el_residual(prob, v_new, partitions)
            d_new = solve_poisson_zero_mean(T, g_new)
            prev_dv = v_new.values - v.values
            prev_dd = d_new.values - d.values
            v, g, d = v_new, g_new, d_new
            j_curr = j_curr + dj
            res_norm = float(np.abs(g.values).max())
            iterations += 1
            best.append(min(best[-1], res_norm))
            if trace:
                _trace_row(trace, iterations, j_curr, res_norm, step, v)

        newton_steps = products = 0
        if status is None:
            # BB stalled: the trust-region Newton finish takes one step per
            # iteration, accepted or not, and traces its trust radius in the
            # step column; the first radius is the H1 length of a BB step of
            # the last accepted length
            radius = step * math.sqrt(integrate(T, Field(g.values * d.values)))
            rejections = 0
            while (status := _stop_status(opts, v, res_norm, iterations)) is None:
                tr_step, model, boundary, n = _truncated_cg(prob, partitions, g, radius)
                products += n
                dj = _EnergyDelta(prob, v, tr_step, partitions)(1.0)
                ratio = dj / model  # actual over predicted change; model < 0
                iterations += 1
                newton_steps += 1
                if ratio > ARMIJO_C:
                    v = project_zero_mean(T, Field(v.values - tr_step.values))
                    partitions = []
                    g = el_residual(prob, v, partitions)
                    j_curr = j_curr + dj
                    res_norm = float(np.abs(g.values).max())
                    rejections = 0
                else:
                    rejections += 1
                if trace:
                    _trace_row(trace, iterations, j_curr, res_norm, radius, v)
                if rejections == MAX_LINE_SEARCH:
                    status = "diverged"  # the trust radius collapsed
                    break
                if ratio < 0.25:
                    radius *= 0.25
                elif ratio > 0.75 and boundary:
                    radius *= 2.0
        return MinimizeResult(v, j_curr, res_norm, iterations, prob.lam, status, newton_steps, products)
    finally:
        if trace:
            trace.close()


def _trace_row(fh, iteration: int, j: float, res: float, step: float, v: Field) -> None:
    fh.write(f"{iteration},{j!r},{res!r},{step!r},{float(v.values.max())!r}\n")


def continuation_sweep(
    T: SpectralTorus,
    P: CirculationMeasure,
    lambda_schedule: list[float],
    opts: MinimizeOptions,
    trace_paths: list[str] | None = None,
) -> list[MinimizeResult]:
    """Minimize along an ascending coupling schedule with warm starts.

    The first stage starts cold, exactly as :func:`minimize` does; each
    later one starts from the previous solution plus a fixed center bump
    that breaks translation symmetry (:func:`minimize` subtracts the mean).
    Every coupling is checked by its :class:`Problem` before the first
    stage.  Past lambda_bar(P) a stage normally blows up; the sweep stops
    after a stage that ended ``blown_up`` or ``diverged`` and returns the
    stages run so far.  A ``budget`` stage still warm-starts the next one.
    """
    if not lambda_schedule:
        raise ValueError("empty coupling schedule")
    for a, b in zip(lambda_schedule, lambda_schedule[1:]):
        if not b > a:
            raise ValueError("coupling schedule must be strictly ascending")
    problems = [Problem(T, P, lam) for lam in lambda_schedule]
    if trace_paths is not None and len(trace_paths) != len(lambda_schedule):
        raise ValueError("one trace path per stage required")

    bump: Field | None = None
    results: list[MinimizeResult] = []
    for k, prob in enumerate(problems):
        warm: Field | None = None
        if results:
            if results[-1].status in ("blown_up", "diverged"):
                break
            if bump is None:
                bump = center_bump(T)
            warm = Field(results[-1].v.values + bump.values)
        trace = trace_paths[k] if trace_paths else None
        results.append(minimize(prob, opts, warm_start=warm, trace_path=trace))
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
