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

A cold start on a grid finer than ``COARSEST_GRID``^2 is grid-sequenced
(nested iteration, Brandt 1977): the same problem is solved on 32^2 first,
then on each grid twice as fine, each level starting from the last iterate
of the one before, prolonged by zero-padding its cosine modes
(:func:`vortexmf.torus.prolong`).  A level's state is prolonged only if it
ended ``converged`` and its spectrum has decayed at the top of its grid
(:func:`decay_ratio` at most ``RESOLVED_DECAY``): a lattice state, a spike
of about one cell such as the pair's at lambda_bar, would lead the finer
solve off the resolved branch, so at the first level that fails, the
requested grid starts from its own noise, as it would without the
sequence.  128 atoms at 0.9 lambda_bar on 128^2 take 17, 4 and 2 steps on
32^2, 64^2 and 128^2 at seed 0, where a start from noise on 128^2 took 17
there.  ``result.levels`` records every level; the rest of the result is
the requested grid's.

Every iterate is even about node (0, 0) in x and in y (see
:mod:`vortexmf.torus`).  The state, from the start through the levels and
stages to ``result.v``, is its (n/2 + 1)^2 quarter-cell values, and its
spectra their cosine modes; :func:`minimize` says where the grid appears.
By the principle of symmetric criticality (Palais 1979) a converged
iterate is a critical point of J on the whole torus; whether it is a
minimizer against odd perturbations is not checked.  The even fields hold
no translation, so a spike sits on a node that is its own reflection, and
no step crawls along a slide onto the grid.

The CG path grows monotonically in the H^1 norm, so after a rejected step
the smaller radius cuts the path already computed at that iterate, and
takes no Hessian product.

The actual change of J is evaluated one of two ways (see
:class:`_EnergyDelta`).  A step whose predicted decrease is at least
``SUBTRACTION_RHO`` eps S(v), S the magnitudes J sums at v
(:func:`energy_scale`), fills its candidate v - d into the run's spare
partitions, and its change is J there less J(v): plain subtraction is
exact enough for the ratio there, and an accepted candidate is the next
iterate, whose partitions are then filled already.  A smaller step is
evaluated in cancellation-free form: the Dirichlet part expands exactly
as a bilinear form in (v, d), and each log-partition difference is log1p
of a relative expm1 sum.  Plain subtraction there stalls at the rounding floor of J
long before the equation residual reaches the tolerances demanded here.

The iterate v is transformed, and its rows of exponentials taken, once
per iterate, by :func:`el_residual` into its :class:`Partitions`, which
keep v and its residual too; every reader at v reads them there, and a
cancellation-free energy difference transforms only its step.  A run
holds two partitions, v's and a spare, and no other copy of v: a
candidate is filled into the spare, and an accepted one swaps the two, so
no trial writes v's, and nothing is filled twice.  On a side of many atoms
the rows are those of a few Chebyshev nodes in alpha, so the exponentials
an iterate and a trial step take do not grow with the atom count (see
:class:`Partitions`).

The layer does no I/O: a run keeps its per-iteration trace, and the count
of steps it rejected, in its :class:`MinimizeResult`, and the caller
decides what to write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from vortexmf.functional import J, Partitions, Problem, el_residual, energy_scale, hessian_product, log_partition
from vortexmf.measure import CirculationMeasure
from vortexmf.torus import (
    Field,
    SpectralTorus,
    cosine_transform,
    gradient_inner,
    integrate,
    periodic_distance,
    project_even,
    project_zero_mean,
    prolong,
    quarter,
    solve_poisson_zero_mean,
    unfold,
)

# the least ratio of actual to predicted decrease at which a step is accepted
ACCEPT_RATIO = 1e-4
MAX_REJECTIONS = 60  # rejected steps in a row that end a run diverged
CG_MAX_ITERS = 200  # Hessian products per truncated-CG solve
# the predicted decrease, over eps S(v), from which a trial step's change
# of J is read by subtraction (derived in _EnergyDelta)
SUBTRACTION_RHO = 4e6
# the peak of |v| that stops a run as blown up on grids up to 64^2 (see blowup_threshold)
BLOWUP_PEAK = 25.0
# the grid a cold start on a finer one is solved on first (see minimize)
COARSEST_GRID = 32
# the largest decay_ratio of a level's state that is prolonged to the next
# grid: resolved states read at most 0.15, lattice states 0.43-0.44
RESOLVED_DECAY = 0.25


@dataclass(frozen=True)
class MinimizeOptions:
    max_iters: int = 5000
    grad_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iters <= 0:
            raise ValueError("max_iters must be positive")
        if not 0.0 < self.grad_tol < math.inf:
            raise ValueError("grad_tol must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class Level:
    """How the solve on one grid of a run ended: the grid, its status,
    steps, rejected steps, Hessian products and J, and the
    :func:`decay_ratio` of its last iterate."""

    grid_n: int
    status: str
    iterations: int
    rejected: int
    hessian_products: int
    J: float
    decay_ratio: float


@dataclass(frozen=True)
class MinimizeResult:
    """The last iterate of a run, ``v``, at its quarter-cell nodes (the grid
    field is ``unfold(T, v)``); ``status`` says how the run ended:
    ``converged``, ``blown_up``, ``budget`` or ``diverged`` (see
    :func:`minimize`).  ``hessian_products`` counts the Hessian products of
    the truncated CG, and ``rejected`` the steps the trust region rejected,
    out of ``iterations``.  ``trace`` holds one row (J, residual_norm, step,
    max_v) for the start and one per iteration: ``step`` is the trust radius
    of the iteration, 0.0 at the start, and a rejected step repeats the J,
    residual and max of v of the row before.  These are the requested grid's;
    ``levels`` holds one :class:`Level` per grid solved, coarsest first, the
    requested grid last."""

    v: np.ndarray
    J_value: float
    residual_norm: float
    iterations: int
    lam: float
    status: str
    hessian_products: int = 0
    rejected: int = 0
    trace: list[tuple[float, float, float, float]] = field(default_factory=list)
    levels: list[Level] = field(default_factory=list)

    @property
    def peak_point(self) -> tuple[int, int]:
        """The first grid point, in row-major order, where v is largest: the
        first largest quarter-cell value, since node (i, j) holds that of
        (min(i, n - i), min(j, n - j)), which comes no later in that order."""
        return divmod(int(np.argmax(self.v)), math.isqrt(self.v.size))

    @property
    def peak_value(self) -> float:
        return float(self.v.max())


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
    """J(v - d) - J(v) for the iterate v and a zero-mean step d, both at
    the quarter-cell nodes, in one of two ways.

    ``partitions`` is v's fill by :func:`el_residual`: its values, its
    cosine modes, the atoms' circulations and weights, each atom's shift m
    and grid sum of e^{alpha v - m}, and the stack of rows.  Nothing here
    writes it.

    A step whose predicted decrease is at least the floor
    ``SUBTRACTION_RHO`` eps S(v) (:func:`_subtraction_floor`) is given
    ``iterate``, J(v) and the run's spare partitions (see
    :meth:`Partitions.twin`), and is evaluated by subtraction: the
    candidate v - d, with its mean removed as for the next iterate, is
    filled into the spare by :func:`el_residual`, and the difference is
    J(v - d), read off that fill, less J(v).  ``filled`` then says so: the
    spare holds the candidate and its residual, so an accepted step takes
    the spare as the next iterate's fill and fills nothing again.

    The floor: J at a field u is exact to about c eps S(u), where c covers
    the sums of the Dirichlet energy and of each total, a few times log2 of
    the node count at most, and a few ulps per shift and logarithm; S
    counts one unit per atom for the relative rounding of its total.
    J(v), J at the start plus the differences of the steps taken, carries
    a few such roundings.  So the difference is exact to about
    2 c eps S(v) while S(v - d) is near S(v), and a step that moves S much
    further changes J by about as much, which keeps the error a few ulps
    of the change.  The ratio to the model is then exact to 2 c / rho, and
    rho = 4e6 with c = 20 bounds that by 1e-5, a tenth of ``ACCEPT_RATIO``
    and far below the radius tests at 0.25 and 0.75.  A candidate that
    trips the exponent guard is evaluated the other way, at v's
    partitions.

    A smaller step, or one given no iterate, is evaluated in
    cancellation-free form, since there subtraction would lose the ratio.
    Only d is transformed, for the bilinear terms <grad v, grad d> and
    |grad d|^2.  The rows of the stack go in blocks, each one expm1 at the
    quarter-cell nodes, and a row's sum of e^{beta v - m} expm1(-beta d)
    is one dot product with the row, which carries the node weights.  A
    side whose rows are Chebyshev nodes reads each atom's sum off the
    nodes' sums, divided by beta, through its interpolation matrix, and a
    step that widens v's range past what the nodes cover takes rows of its
    own (:meth:`Partitions.expm1_sums`).  Each atom's log-partition
    difference is log1p of its sum over its total, by ``math.log1p``, and
    the terms are added in atom order (:func:`_added_in_order`).
    """

    def __init__(
        self, prob: Problem, d: np.ndarray, partitions: Partitions, iterate: tuple[float, Partitions] | None = None
    ):
        self.prob = prob
        self.d = d
        self.partitions = partitions
        self.iterate = iterate
        self.filled = False
        if iterate is None:
            self._transform_step()

    def _transform_step(self) -> None:
        T = self.prob.torus
        d_hat = cosine_transform(T, self.d)
        self.a_vd = gradient_inner(T, self.partitions.spectrum, d_hat)
        self.a_dd = gradient_inner(T, d_hat, d_hat)

    def __call__(self) -> float:
        prob, partitions = self.prob, self.partitions
        if self.iterate is not None:
            j_v, spare = self.iterate
            try:
                el_residual(prob, _next_iterate(prob.torus, partitions.values, self.d), spare)
            except OverflowError:  # past the guard: read v's partitions instead
                self._transform_step()
            else:
                self.filled = True
                return J(prob, spare) - j_v
        delta = -self.a_vd + 0.5 * self.a_dd
        # a move past exp overflow makes the sum inf or nan
        with np.errstate(over="ignore", invalid="ignore"):
            rel = partitions.expm1_sums(self.d) / partitions.totals
        if not np.isfinite(rel).all():
            raise OverflowError("partition exponent out of range")
        # a step that all but empties a partition can round its sum to -1 or
        # below: J(v - d) is as good as +inf there
        emptied = rel <= -1.0
        rel[emptied] = 0.0
        # math.log1p, whose bits numpy's vector loop need not match
        logs = np.fromiter(map(math.log1p, rel.tolist()), float, rel.size)
        logs[emptied] = -math.inf
        return delta - prob.lam * _added_in_order(partitions.weight * logs)


def _added_in_order(terms: np.ndarray) -> float:
    """0.0 + terms[0] + terms[1] + ..., added left to right, as a loop over
    the terms adds them: ``np.add.accumulate`` runs exactly those IEEE
    additions, where ``np.sum`` pairs them, so its last sum is the loop's
    bit for bit, -0.0 terms, subnormals and -inf included."""
    sums = np.empty(terms.size + 1)
    sums[0] = 0.0
    sums[1:] = terms
    np.add.accumulate(sums, out=sums)
    return float(sums[-1])


def _subtraction_floor(prob: Problem, partitions: Partitions) -> float:
    """``SUBTRACTION_RHO`` eps S(v) (:func:`energy_scale`) at the field v the
    ``partitions`` were filled for: the least predicted decrease of a step
    from v whose change of J is read by subtraction (see :class:`_EnergyDelta`)."""
    return SUBTRACTION_RHO * math.ulp(1.0) * energy_scale(prob, partitions)


def _next_iterate(T: SpectralTorus, v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """v - d with its mean removed: the iterate a step d from v leads to."""
    v = v - d
    v -= integrate(T, v) / T.volume
    return v


def blowup_threshold(T: SpectralTorus) -> float:
    """The peak of |v| at which a run on T counts as blown up.

    It is ``BLOWUP_PEAK`` on grids up to 64^2, plus 4 log(n/64) on
    an n^2 grid beyond: the peak of a solution that converges at lambda_bar
    grows by about 4 log 2 per grid doubling, and for
    1/2 delta_-1 + 1/2 delta_1 it crosses a fixed 25 at 512^2.
    """
    return BLOWUP_PEAK + 4.0 * math.log(max(T.grid_n, 64) / 64)


def _stop_status(opts: MinimizeOptions, T: SpectralTorus, peak: float, res_norm: float, iterations: int) -> str | None:
    """How a run ends at an iterate of max |v| ``peak``, or None to go on:
    the tolerance is checked first, then the peak, then the budget."""
    if res_norm <= opts.grad_tol:
        return "converged"
    if peak >= blowup_threshold(T):
        return "blown_up"
    if iterations >= opts.max_iters:
        return "budget"
    return None


def _finite(what: str, value: float) -> float:
    """Return value, or raise OverflowError naming ``what`` if it is not finite."""
    if not math.isfinite(value):
        raise OverflowError(f"truncated CG: {what} is not finite")
    return value


class _SteihaugPath:
    """The Steihaug-Toint truncated CG path on the Newton model at v.

    The model m(d) = -<g, d> + 1/2 <d, H d> is the second-order expansion of
    J(v - d) - J(v); H is the second variation of J at v
    (:func:`hessian_product`), and g the residual at v, read off v's fill
    ``partitions``.  CG runs in the H^1
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

    def __init__(self, prob: Problem, partitions: Partitions):
        self.prob = prob
        self.partitions = partitions
        T = prob.torus
        self.r_hat = cosine_transform(T, partitions.residual)  # the CG residual after the last direction kept
        self.q_hat = solve_poisson_zero_mean(T, self.r_hat)  # the next search direction
        # ||(-Laplacian)^-1 g||_H1^2 = <g, (-Laplacian)^-1 g>
        self.rz0 = _finite("rz0", gradient_inner(T, self.q_hat, self.q_hat))
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
            z_hat = solve_poisson_zero_mean(T, self.r_hat)
            rz_next = _finite("rz", gradient_inner(T, z_hat, z_hat))
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
        if not np.isfinite(d).all():
            raise OverflowError("truncated CG: the step is not finite")
        return d, model, boundary, len(self.directions) - grown


def decay_ratio(T: SpectralTorus, X: np.ndarray) -> float:
    """How far the spectrum of the even field with cosine modes X on an
    n^2 grid has decayed at the top of the grid: the largest |X_km| with
    max(k, m) >= 3n/8, over the largest with n/4 <= max(k, m) < 3n/8.
    A mode within n eps of the largest |X_km| counts as 0, since the
    transform's rounding leaves about that much in every mode; a field
    with no mode above that in either band reads 0, and one with none
    only in the lower band inf.

    A state the grid resolves reads at most 0.15: the signed pair at
    0.99 lambda_bar on 32^2 reads 0.15, at 0.999 lambda_bar on 128^2 0.10,
    and 128 atoms at 0.9 lambda_bar read 0.08 on 32^2 and 0.011 on 64^2.  A
    level that took no step from its prolonged start has no mode above the
    rounding from n/4 up, and reads 0.  A lattice state, whose spike has a
    width of about one cell on every grid, reads 0.43-0.44 on
    32^2-256^2."""
    n, h = T.grid_n, T.grid_n // 2 + 1
    modes = np.abs(X).reshape(h, h)
    rounding = n * math.ulp(1.0) * float(modes.max())
    band = np.maximum.outer(np.arange(h), np.arange(h))
    top = float(modes[band >= 3 * n // 8].max())
    below = float(modes[(band >= n // 4) & (band < 3 * n // 8)].max())
    top, below = (m if m > rounding else 0.0 for m in (top, below))
    if below == 0.0:
        return 0.0 if top == 0.0 else math.inf
    return top / below


def _even_start(T: SpectralTorus, noise: Field) -> np.ndarray:
    """The cold start's ``noise`` projected onto the even fields, with its
    grid mean removed, at the quarter-cell nodes."""
    return quarter(T, project_zero_mean(T, project_even(T, noise)).values)


def minimize(prob: Problem, opts: MinimizeOptions, warm_start: np.ndarray | None = None) -> MinimizeResult:
    """Minimize J over the even fields to sup-norm residual <= grad_tol by
    trust-region steps.

    Starts from ``warm_start``, quarter-cell values such as a ``result.v``,
    with its mean subtracted; another grid's raise ValueError.  A cold start
    on an n^2 grid with n > ``COARSEST_GRID`` first solves the same problem on
    the coarser grids, ``COARSEST_GRID``^2, then twice as fine, and so on up
    to (n/2)^2 (nested iteration: Brandt 1977).  The first of them starts from
    seeded band-limited noise on its own grid, and each later one from the
    last iterate of the one before, prolonged (:func:`vortexmf.torus.prolong`)
    and with its mean subtracted, but only while every level so far ended
    ``converged`` with a :func:`decay_ratio` of at most ``RESOLVED_DECAY``.
    At the first level that does not, or that fails numerically
    (OverflowError), the requested grid starts from its own noise, as a grid
    of n <= ``COARSEST_GRID`` always does: a lattice state, a spike of about
    one cell, prolonged, leads the finer solve off the resolved branch.

    Every iterate is kept at the quarter-cell nodes, with its mean subtracted
    after each step, and ``result.v`` is the last one; the grid holds only the
    cold start's noise, a warm start's mean and the output side, which takes
    the spike's quarter-cell values, ``result.v`` or its negation
    (:func:`detect_concentration`, :func:`vortexmf.blowup.rescale_profile`).
    Each level ends on tolerance, a peak of |v| reaching
    :func:`blowup_threshold` (so a spike of either sign counts), the iteration
    budget, or ``MAX_REJECTIONS`` rejected steps in a row; ``result.status``
    says which on the requested grid, and ``result`` holds its last iterate in
    every case.  Every step, accepted or rejected, is one iteration toward the
    budget, which each level has in full.  ``result.levels`` records every
    level run but one that failed numerically.
    """
    T = prob.torus
    if warm_start is not None:
        # the grid mean of the field it stands for, as a grid start took it:
        # integrate(T, x) / volume moves the last bits of J at every warm stage
        return _solve(prob, opts, warm_start - unfold(T, warm_start).mean())
    tori = [T]
    while tori[0].grid_n > COARSEST_GRID:
        tori.insert(0, SpectralTorus(T.side_length, tori[0].grid_n // 2))
    levels: list[Level] = []
    # each level's partitions, twinned onto the next grid: the levels share
    # their node sets, and hold no fill of another grid
    partitions = Partitions(replace(prob, torus=tori[0]))
    start = _even_start(tori[0], random_zero_mean(tori[0], opts.seed))  # the next level's
    for coarse, fine in zip(tori, tori[1:]):
        try:
            level = _solve(replace(prob, torus=coarse), opts, start, partitions)
        except OverflowError:  # a coarse grid's numerical failure is not the requested grid's
            level = None
        else:
            levels += level.levels
        if level is None or level.status != "converged" or level.levels[0].decay_ratio > RESOLVED_DECAY:
            start = _even_start(T, random_zero_mean(T, opts.seed))
            partitions = partitions.twin(T)
            break
        start = prolong(coarse, fine, level.v)
        start -= integrate(fine, start) / fine.volume
        partitions = partitions.twin(fine)
    result = _solve(prob, opts, start, partitions)
    return replace(result, levels=levels + result.levels)


def _solve(prob: Problem, opts: MinimizeOptions, v: np.ndarray, partitions: Partitions | None = None) -> MinimizeResult:
    """The trust-region run of :func:`minimize` on the grid of ``prob`` from
    the quarter-cell values v, which it does not change.

    It holds two fills and no other copy of v or of its residual: v's,
    ``partitions`` or new ones, and a spare.  The node sets do not depend
    on the grid, so each level of a cold start starts from each side's most
    recent node set of the level before (:meth:`Partitions.twin`) and
    builds it no more.  A trial above the subtraction floor fills its
    candidate into the spare, and an accepted candidate swaps the two; a
    step accepted below the floor fills the next iterate into v's own.
    Every reader, J, the CG path, a trial, the stop test, the trace and the
    level's :func:`decay_ratio`, reads v's fill, which v enters only through
    :func:`el_residual`, so none can be handed another v.  S(v), hence the
    floor, is taken at each fill, and ``result.v`` is a copy of the last."""
    T = prob.torus
    if partitions is None:
        partitions = Partitions(prob)
    spare = partitions.twin()
    el_residual(prob, v, partitions)
    j_curr = J(prob, partitions)
    floor = _subtraction_floor(prob, partitions)
    iterations = products = rejected = rejected_in_a_row = 0
    path: _SteihaugPath | None = None
    radius = math.nan  # set from the first path
    trace = [(j_curr, partitions.residual_norm, 0.0, partitions.high)]

    while (status := _stop_status(opts, T, partitions.peak, partitions.residual_norm, iterations)) is None:
        if path is None:
            path = _SteihaugPath(prob, partitions)
            if iterations == 0:
                radius = math.sqrt(path.rz0)
        step, model, boundary, n = path.step(radius)
        products += n
        delta = _EnergyDelta(prob, step, partitions, (j_curr, spare) if -model >= floor else None)
        dj = delta()
        ratio = dj / model  # actual over predicted change; model < 0
        iterations += 1
        if ratio > ACCEPT_RATIO:
            path = None
            if delta.filled:
                partitions, spare = spare, partitions
            else:
                el_residual(prob, _next_iterate(T, partitions.values, step), partitions)
            j_curr = j_curr + dj
            floor = _subtraction_floor(prob, partitions)
            rejected_in_a_row = 0
        else:
            rejected += 1
            rejected_in_a_row += 1
        trace.append((j_curr, partitions.residual_norm, radius, partitions.high))
        if rejected_in_a_row == MAX_REJECTIONS:
            status = "diverged"  # the trust radius collapsed
            break
        if ratio < 0.25:
            radius *= 0.25
        elif ratio > 0.75 and boundary:
            radius *= 2.0
    level = Level(T.grid_n, status, iterations, rejected, products, j_curr, decay_ratio(T, partitions.spectrum))
    v, res_norm = partitions.values.copy(), partitions.residual_norm
    return MinimizeResult(v, j_curr, res_norm, iterations, prob.lam, status, products, rejected, trace, [level])


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
    grid center, which is even, both at the quarter-cell nodes
    (:func:`minimize` subtracts the start's mean).
    Past lambda_bar(P) a stage normally blows up; the sweep stops after a
    stage that ended ``blown_up`` or ``diverged`` and returns the stages
    run so far.  A ``budget`` stage still warm-starts the next one.
    """
    results = [minimize(problems[0], opts)]
    bump: np.ndarray | None = None
    for prob in problems[1:]:
        if results[-1].status in ("blown_up", "diverged"):
            break
        if bump is None:
            bump = quarter(prob.torus, center_bump(prob.torus).values)
        results.append(minimize(prob, opts, warm_start=results[-1].v + bump))
    return results


def detect_concentration(T: SpectralTorus, v: np.ndarray, peak_threshold: float) -> tuple[int, int] | None:
    """Locate a single concentration point of the field with quarter-cell
    values v, if any; a negative spike is read from -v.

    A point qualifies when the field peak exceeds ``peak_threshold`` and
    the unit-circulation density e^{w_1} puts more than half its mass in
    the periodic ball of radius L/8 around it.  Among equal-height peaks
    the one holding more mass wins; remaining ties go to the first in
    lexicographic grid order.
    """
    if v.max() < peak_threshold:
        return None
    vals = unfold(T, v)
    lp = log_partition(T, Field(vals), 1.0)
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
