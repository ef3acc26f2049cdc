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

The solver's fields are even about node (0, 0) in x and in y (see
:mod:`vortexmf.torus`), and the functions a run calls take and return them
at the (n/2 + 1)^2 quarter-cell nodes, their spectra as cosine modes.  The
residual transforms v once and fills a stack of exponential rows in one
pass, and keeps both in :class:`Partitions`, where J, the energy
differences of the solver and the Hessian product at v read them.  A row
is one atom's e^{alpha v - m}, or, on a side of many atoms of one sign,
that of a Chebyshev node in alpha: the rows are entire functions of
alpha, and a few nodes, chosen per iterate from an a-priori bound on the
interpolation error, stand for all of the side's atoms, which read their
rows through an interpolation matrix.  A side of fewer atoms than nodes
keeps the atoms' own rows, so a measure of few atoms computes exactly as
it did before the interpolation, with no per-side pass.  The sums over
the atoms are matrix products with the stack: one for the residual's sum
of densities, two for the partition part of :func:`hessian_product`, with
weights per row built once per iterate.  By the principle of symmetric criticality
(Palais 1979) a critical point of J among even fields is a critical point
of J, and the residual, unfolded to the grid, is its whole gradient.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from vortexmf.measure import CirculationMeasure
from vortexmf.torus import (
    Field,
    SpectralTorus,
    cosine_transform,
    dirichlet_energy,
    gradient_inner,
    integrate,
    inverse_cosine_transform,
    laplacian,
)

# bound on a shift m = max(alpha v): the shifted exponents are <= 0 by
# construction, so only a field that large (or non-finite) trips it
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
    """What :func:`el_residual` computes at one even field v for J, the
    energy differences and :func:`hessian_product` at v to reuse, each
    computed once at the scope where it lives.

    Per run, shared with every :meth:`twin`: ``alpha`` and ``weight``, the
    atoms' circulations and weights, ``weighted_alpha`` (w alpha) and
    ``weighted_alpha2`` (w alpha^2), the sides and their node sets.  Per
    grid: ``torus``, its ``quarter_weights`` and ``mean_density``,
    sum w alpha / |Omega|.  Per fill, at v: ``spectrum`` holds the
    (n/2 + 1)^2 cosine modes of v (see :mod:`vortexmf.torus`), from which
    the Laplacian and the bilinear term of an energy difference are read,
    and ``dirichlet`` its Dirichlet energy; ``values`` holds v at the
    quarter-cell nodes, and ``low`` and ``high`` its min and max, from
    which a trial step takes rows of its own and the stop test its
    :attr:`peak`.  ``shifts`` holds each atom's m, the max of alpha v,
    ``totals`` the grid sum of its e^{alpha v - m} and ``logs``
    log(cell_area total), the one logarithm J and :func:`energy_scale`
    read.  ``curvature`` is S = sum w alpha^2 rho_alpha at the
    quarter-cell nodes, and ``hessian_weights`` is
    w alpha^2 / (cell_area total^2) per atom, so that the partition part of
    the second variation is phi S - sum_atoms weight (row . phi) row.

    The atoms of one sign form a side.  At a node x, the row e^{alpha v - m}
    of a side is e^{alpha (v - max v)} for alpha > 0 and
    e^{alpha (v - min v)} for alpha < 0, an entire function of alpha, so a
    Chebyshev interpolant in alpha on the side's range stands for all of
    the side's rows (Trefethen, *Approximation Theory and Approximation
    Practice*, 2013).  A side's *node set* for a range of v has r nodes,
    the fewest whose interpolant is within ``_NODE_TOL`` of the row maximum
    for that range (:func:`_node_count`): r Chebyshev circulations and the
    count x r interpolation matrix ``l_j(alpha_i)``, through which every
    atom's row is read as sum_j l_j(alpha) row_j, or, where r reaches the
    side's count (always on a side of one atom, such as a zero atom), the
    atoms themselves and None.  ``stack`` holds the rows of each side's
    node set for v's range, side by side in atom order, each
    e^{beta v - m} at the quarter-cell nodes for its circulation beta, a
    node or an atom, and m = beta max v or beta min v, times the node's
    weight, so that a row's sum, or its product with the quarter-cell
    values of an even field, is that sum over the whole grid.
    ``layout`` holds, per side, its atoms, its rows and its interpolation
    matrix, None where the rows are the atoms' own.  An atom's own row is
    shifted by the atom's m, bit for bit, so where every side keeps its
    atoms' rows every sum is the one matrix product it was before the
    interpolation; ``exact`` says so, and then row i is atom i's, the maps
    between rows and atoms (:meth:`to_atoms`, :meth:`to_rows`) are the
    identity and a trial's :meth:`expm1_sums` is one pass over the stack,
    so a measure of few atoms takes no per-side loop.  A node set is built
    only when a side's node count changes, and a side holds its last two
    (:meth:`_node_set`); they do not depend on the grid, so each level of
    a grid-sequenced run starts from the most recent one of the level
    before (:meth:`twin`).

    The per-atom and per-node arrays are allocated here, and every
    :func:`el_residual` fills them in place; a level of a run holds two
    partitions, these and their :meth:`twin`, and no more: a new stack
    allocated per residual while the previous one was alive raised the
    peak resident set of 128 atoms at 128^2 by 30 MiB.  ``stack`` is a view of the first
    rows of a buffer that grows only when a fill needs more rows than any
    fill before it, so a side of thousands of atoms read from a few dozen
    nodes holds a few dozen rows.
    """

    def __init__(self, prob: Problem) -> None:
        self.alpha = np.array([a for a, _ in prob.P.atoms])
        self.weight = np.array([w for _, w in prob.P.atoms])
        self.weighted_alpha = self.weight * self.alpha
        self.weighted_alpha2 = self.weighted_alpha * self.alpha
        # the atoms of each side, and its last two node sets
        signs = np.sign(self.alpha)
        self._sides = []
        for sign in (-1.0, 0.0, 1.0):
            (index,) = np.nonzero(signs == sign)
            if index.size:
                self._sides.append(slice(int(index[0]), int(index[-1]) + 1))
        # none yet: the first fill's node count is walked up from the fewest
        # (see _node_count), not down from a side of thousands of atoms
        self._node_sets = [[(np.empty(0), None)] * 2 for _ in self._sides]
        self._allocate(prob.torus)

    def _allocate(self, torus: SpectralTorus) -> None:
        """The arrays of one fill on ``torus``, and an empty stack buffer."""
        self.torus = torus
        self.quarter_weights = torus.quarter_weights
        self.mean_density = float(self.weight @ self.alpha) / torus.volume
        nodes, atoms = self.quarter_weights.size, self.alpha.size
        self.spectrum = np.empty(nodes)
        self.values = np.empty(nodes)
        self.low = self.high = 0.0
        self.stack = self._stack = np.empty((0, nodes))
        self.totals = np.empty(atoms)
        self.shifts = np.empty(atoms)
        self.logs = np.empty(atoms)
        self.dirichlet = 0.0
        self.curvature = np.empty(nodes)
        self.hessian_weights = np.empty(atoms)
        self.layout = [(side, side, None) for side in self._sides]
        self.exact = True

    def twin(self, torus: SpectralTorus | None = None) -> Partitions:
        """Partitions for a second field of the same run, such as a trial
        step's candidate: they share ``alpha``, ``weight`` and their
        products, the sides and the node sets, and hold a fill of their own.
        Given ``torus``, they are the next level's of a grid-sequenced run:
        a node set does not depend on the grid, so each side starts from
        its most recent one, and drops the other, which the next level may
        not need while its larger stack is alive."""
        twin = copy.copy(self)
        if torus is None:
            torus = self.torus
        else:
            twin._node_sets = [[held[0], (np.empty(0), None)] for held in self._node_sets]
        twin._allocate(torus)
        return twin

    def _node_set(self, k: int, width: float) -> tuple[np.ndarray, np.ndarray | None]:
        """Side k's node set for a range of v of the given width.  Each side
        holds its last two node sets, most recently used first, shared by
        the partitions and their :meth:`twin`; one is taken if it has the
        node count the width needs, and otherwise a new one replaces the
        older."""
        atoms = self.alpha[self._sides[k]]
        held = self._node_sets[k]
        r = _node_count(_half_width(atoms) * width, atoms.size, held[0][0].size)
        if held[0][0].size != r:
            if held[1][0].size != r:
                held[1] = (atoms, None) if r == atoms.size else _chebyshev(atoms, r)
            held.reverse()
        return held[0]

    def fill(self, v: np.ndarray, lo: float, hi: float) -> None:
        """Choose each side's rows for the field v with min lo and max hi,
        and fill the stack, the row sums and the atoms' ``totals``; the
        atoms' ``shifts`` are filled already."""
        self.values[...] = v
        self.low, self.high = lo, hi
        layout, circulations, rows = [], [], 0
        for k, side in enumerate(self._sides):
            nodes, matrix = self._node_set(k, hi - lo)
            layout.append((side, slice(rows, rows + nodes.size), matrix))
            circulations.append(nodes)
            rows += nodes.size
        self.layout = layout
        # the sides cover the atoms in order, so where each keeps its atoms'
        # rows, row i is atom i's
        self.exact = all(matrix is None for _, _, matrix in layout)
        if rows > self._stack.shape[0]:
            self._stack = np.empty((rows, self.values.size))
        self.stack = stack = self._stack[:rows]
        # for an atom's own row, its shift in el_residual, bit for bit
        if self.exact:
            row_alpha, row_shifts = self.alpha, self.shifts
        else:
            row_alpha = np.concatenate(circulations)
            row_shifts = row_alpha * np.where(row_alpha > 0.0, hi, lo)
        np.multiply(row_alpha[:, None], v, out=stack)
        stack -= row_shifts[:, None]
        np.exp(stack, out=stack)
        stack *= self.quarter_weights
        self.totals[...] = self.to_atoms(stack.sum(axis=1))

    @property
    def peak(self) -> float:
        """max |v| at the field of the fill: max(high, -low), exactly."""
        return max(self.high, -self.low)

    def to_atoms(self, per_row: np.ndarray) -> np.ndarray:
        """Each atom's value of a quantity linear in its row, such as the
        row's sum or its product with a field, from the rows' values: an
        exact row's own, or sum_j l_j(alpha) times the node rows' values.
        Where every row is its atom's own (``exact``), that is ``per_row``
        itself."""
        if self.exact:
            return per_row
        out = np.empty(self.alpha.size)
        for atoms, rows, lagrange in self.layout:
            if lagrange is None:
                out[atoms] = per_row[rows]
            else:
                np.matmul(lagrange, per_row[rows], out=out[atoms])
        return out

    def to_rows(self, per_atom: np.ndarray) -> np.ndarray:
        """Weights per row of ``stack`` whose combination of the rows is
        sum_i per_atom_i row_i over the atoms' rows: an exact row's own
        weight, and sum_i per_atom_i l_j(alpha_i) for node j.  Where every
        row is its atom's own (``exact``), that is ``per_atom`` itself."""
        if self.exact:
            return per_atom
        out = np.empty(self.stack.shape[0])
        for atoms, rows, lagrange in self.layout:
            if lagrange is None:
                out[rows] = per_atom[atoms]
            else:
                np.matmul(per_atom[atoms], lagrange, out=out[rows])
        return out

    def expm1_sums(self, d: np.ndarray) -> np.ndarray:
        """Per atom, the grid sum of e^{alpha v - m} expm1(-alpha d) for the
        even step d at the quarter-cell nodes: the relative change of the
        atom's partition integral from v to v - d, times its total.

        Where every row of the stack is its atom's own (``exact``), the sums
        are one pass over the stack: a range widened by the step needs at
        least the node count v's range needs (:func:`_node_count`'s bound
        grows with the range), so every side keeps its atoms.  Otherwise
        the exponents span v's range widened by max d - min d.  While that
        range needs the iterate's node set, a side takes an expm1 of the
        stack's rows, and otherwise of rows of its own at the node set the
        wider range needs, the atoms themselves when it needs as many
        nodes as atoms.  An atom's own row gives its sum.  At Chebyshev
        nodes the sum f(alpha) is an entire function of alpha with
        f(0) = 0, and f(alpha) / alpha is interpolated from its values at
        the nodes, so an atom of small |alpha| keeps its relative accuracy.
        A sum that overflows is inf or nan, and so is the atom's.
        """
        sums = np.empty(self.alpha.size)
        if self.exact:
            self._expm1_dots(d, self.alpha, sums, self.stack)
            return sums
        width = self.high - self.low + (max(float(d.max()), 0.0) - min(float(d.min()), 0.0))
        for k, (atoms, rows, _) in enumerate(self.layout):
            nodes, lagrange = self._node_set(k, width)
            node_rows = self.stack[rows] if nodes.size == rows.stop - rows.start else None
            if lagrange is None:
                self._expm1_dots(d, nodes, sums[atoms], node_rows)
                continue
            f = np.empty(nodes.size)
            self._expm1_dots(d, nodes, f, node_rows)
            f /= nodes
            np.matmul(lagrange, f, out=sums[atoms])
            sums[atoms] *= self.alpha[atoms]
        return sums

    def _expm1_dots(self, d: np.ndarray, betas: np.ndarray, out: np.ndarray, rows: np.ndarray | None = None) -> None:
        """out[j] = row_j . expm1(-beta_j d) for the circulations betas, with
        row_j the j-th of ``rows``, or without them e^{beta_j v - m} times
        the node weights, taken afresh, once per trial step.

        The rows go in blocks of at most 8,192 values, or of one row where a
        row is longer: per block one outer product -beta d, one expm1, the
        fresh rows' one exponential, and one row-wise dot,
        ``np.matmul(R[:, None, :], U[:, :, None])``, which takes the BLAS dot
        that ``R[j] @ U[j]`` takes, so out[j] is that of a loop over the rows
        bit for bit.  A block's two temporaries hold at most 8,192 values
        each, or a row each, whatever the row count."""
        block = max(1, 8192 // d.size)
        for start in range(0, betas.size, block):
            stop = min(start + block, betas.size)
            beta = betas[start:stop]
            u = np.multiply.outer(-beta, d)
            np.expm1(u, out=u)
            if rows is None:
                fresh = np.multiply.outer(beta, self.values)
                fresh -= (beta * np.where(beta > 0.0, self.high, self.low))[:, None]
                np.exp(fresh, out=fresh)
                fresh *= self.quarter_weights
                block_rows = fresh
            else:
                block_rows = rows[start:stop]
            np.matmul(block_rows[:, None, :], u[:, :, None], out=out[start:stop, None, None])


# the interpolation error in alpha that a side's node rows may carry,
# relative to the row maximum; rounding alone leaves about 1e-16
_NODE_TOL = 1e-17


def _half_width(alpha: np.ndarray) -> float:
    """Half the range of a side's sorted circulations."""
    return 0.5 * (float(alpha[-1]) - float(alpha[0]))


def _node_count(c: float, count: int, start: int) -> int:
    """The fewest Chebyshev nodes r < count whose interpolant in alpha is
    within ``_NODE_TOL`` of the row maximum on a side with c = half the
    side's range of alpha times the range of v, or ``count`` if none is.

    With alpha = mid + half s, the row e^{alpha t} at a node, t in [-W, 0]
    for W = max v - min v (in [0, W] on the negative side), has the
    Chebyshev coefficients e^{mid t} 2 I_k(half |t|) in s, which relative
    to the row maximum 1 are at most 2 I_k(c) e^{-c}, since |mid| >= half.
    From the series of I_k, and (k + m)! >= k! (k + 1)^m,
    I_k(c) e^{-c} <= b_k = (c/2)^k / k! e^{c^2 / 4(k + 1) - c}, and b_k falls
    by at least q = c / 2(r + 1) < 1 from each k >= r to the next.  The
    interpolant at r points is within twice the coefficients' tail from
    k = r (Trefethen 2013, Thm 4.2), so within 4 b_r / (1 - q).  A side of
    one atom, or a constant v, has c = 0 and takes one node.

    The walk over r starts at ``start``, the side's held count, within
    [max(1, floor(c/2)), count].  There the bound falls as r grows, so the
    counts that meet it are those from the answer up: the walk goes down
    from a start that meets it, and up from one that does not.
    """
    if c == 0.0:
        return 1
    log_tol = math.log(_NODE_TOL / 4.0)
    log_half_c = math.log(c / 2.0)
    lowest = max(1, math.floor(c / 2.0))

    def meets(r: int) -> bool:
        if r >= count:
            return True
        q = c / (2.0 * (r + 1))
        return r * log_half_c - math.lgamma(r + 1) + 0.5 * c * q - c - math.log1p(-q) <= log_tol

    r = min(max(start, lowest), count)
    if meets(r):
        while r > lowest and meets(r - 1):
            r -= 1
        return r
    while not meets(r + 1):
        r += 1
    return r + 1


def _chebyshev(alpha: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The r Chebyshev points of the first kind on [alpha[0], alpha[-1]]
    and the count x r Lagrange basis at the sorted circulations alpha,
    l_j(alpha_i), by the second barycentric formula (Berrut and Trefethen
    2004) with the points' weights (-1)^j sin theta_j; it interpolates at
    the nodes as rounded, whatever the weights."""
    theta = (np.arange(r) + 0.5) * (math.pi / r)
    nodes = np.cos(theta)
    nodes *= _half_width(alpha)
    nodes += 0.5 * (float(alpha[-1]) + float(alpha[0]))
    bary = np.sin(theta)
    bary[1::2] *= -1.0
    lagrange = np.subtract.outer(alpha, nodes)
    with np.errstate(divide="ignore"):
        np.divide(bary, lagrange, out=lagrange)
    sums = lagrange.sum(axis=1)
    for i in np.flatnonzero(np.isinf(sums)):  # an atom on a node takes that node's row
        lagrange[i] = np.isinf(lagrange[i])
        sums[i] = 1.0
    lagrange /= sums[:, None]
    return nodes, lagrange


def log_partition(T: SpectralTorus, v: Field, alpha: float) -> float:
    """log int_Omega e^{alpha v}, max-shifted for stability."""
    av = alpha * v.values
    m = float(av.max())
    if not math.isfinite(m) or m > _EXP_GUARD:
        raise OverflowError("partition exponent out of range")
    av -= m
    np.exp(av, out=av)
    return m + math.log(T.cell_area * float(av.sum()))


def w_alpha(prob: Problem, v: Field, alpha: float) -> Field:
    """Normalized field alpha v - log int e^{alpha v}; e^{w} integrates to 1."""
    lp = log_partition(prob.torus, v, alpha)
    return Field(alpha * v.values - lp)


def J(prob: Problem, v: np.ndarray, partitions: Partitions) -> float:
    """Free energy value at the even field with quarter-cell values v;
    J(v + c) = J(v) for every constant c.

    It is read off the ``partitions`` that :func:`el_residual` handed out
    for v, so it takes no transform, no exponential and no logarithm: the
    Dirichlet energy is the fill's Parseval sum of v's cosine modes, and
    each log-partition is m + log(cell_area * total), from the fill's one
    logarithm over the totals, summed over the atoms by ``math.fsum``.
    """
    T = prob.torus
    vbar = integrate(T, v) / T.volume
    log_terms = partitions.logs + partitions.shifts
    log_terms -= partitions.alpha * vbar
    log_terms *= partitions.weight
    return partitions.dirichlet - prob.lam * math.fsum(log_terms.tolist())


def energy_scale(prob: Problem, partitions: Partitions) -> float:
    """S = (1/2) int |grad v|^2 + lambda sum w (1 + |m| + |log(cell_area total)|)
    at the field the ``partitions`` were filled for, by which the rounding
    error of :func:`J` there is measured.  Besides the magnitudes of the
    terms J adds, each atom's term carries the rounding of its total, a
    sum of positive values, whose relative error does not shrink with the
    field: at a field near 0 every other term of S is near 0.  Like J it
    reads the fill's logarithms and Dirichlet energy."""
    log_terms = np.abs(partitions.logs)
    log_terms += np.abs(partitions.shifts)
    log_terms += 1.0
    return partitions.dirichlet + prob.lam * float(partitions.weight @ log_terms)


def el_residual(prob: Problem, v: np.ndarray, partitions: Partitions) -> np.ndarray:
    """Equation residual of the mean field equation at the even field with
    quarter-cell values v, at the same nodes.

    It is also the L^2 gradient of J: dJ(v)[phi] = int el_residual(v) phi
    for every direction phi.  v is transformed once, into
    ``partitions.spectrum``, and the Laplacian is read from there.  The
    stack is filled in one pass over its rows (see :class:`Partitions`):
    beta v, less each row's shift m, through one exponential, times the
    node weights, then the row sums, which give each atom's total.  m
    needs no pass of its own: rounding is monotone, so the max of a row
    beta v is beta max v for beta > 0 and beta min v otherwise, bit for
    bit.  The densities are rho_alpha = row_alpha / (cell_area total), and
    sum w alpha rho_alpha is one matrix product of the stack with weights
    per row, sum_i c_i l_j(alpha_i) for a node row j, times the node
    weights' reciprocals, which are exact.  Analytically the residual has
    zero mean (each density integrates to 1); the floating-point mean is
    projected out.

    Per fill it computes once what J, :func:`energy_scale` and
    :func:`hessian_product` read at v: the curvature and the Hessian
    weights, the logarithms log(cell_area total) and the Dirichlet energy
    of v; it reads the run's w alpha and w alpha^2 and the grid's
    sum w alpha / |Omega| off ``partitions``.

    ``partitions`` is filled in place at v (see :class:`Partitions`).  A
    non-finite v, or a largest m above the guard, raises OverflowError
    before any transform or exponential, and leaves ``partitions`` as it
    was.
    """
    T = prob.torus
    alpha, totals = partitions.alpha, partitions.totals
    lo, hi = float(v.min()), float(v.max())
    # each atom's max of alpha v, bit for bit, with no pass over the rows
    shifts = alpha * np.where(alpha > 0.0, hi, lo)
    if not (math.isfinite(lo) and math.isfinite(hi)) or float(shifts.max()) > _EXP_GUARD:
        raise OverflowError("partition exponent out of range")
    partitions.shifts[...] = shifts
    partitions.spectrum[...] = cosine_transform(T, v)
    res = -inverse_cosine_transform(T, laplacian(T, partitions.spectrum))  # -Laplacian v
    partitions.fill(v, lo, hi)
    stack = partitions.stack
    scaled = T.cell_area * totals
    c = partitions.weighted_alpha / scaled
    # the weights are powers of two: a product with their reciprocals is
    # the quotient, exactly
    density_sum = partitions.to_rows(c) @ stack  # sum w alpha rho_alpha
    density_sum *= T.inverse_quarter_weights
    # sum w alpha^2 rho_alpha, which only the Hessian product reads
    np.matmul(partitions.to_rows(c * alpha), stack, out=partitions.curvature)
    partitions.curvature *= T.inverse_quarter_weights
    np.divide(partitions.weighted_alpha2, scaled * totals, out=partitions.hessian_weights)
    # what J and energy_scale read of this fill
    np.log(scaled, out=partitions.logs)
    partitions.dirichlet = dirichlet_energy(T, partitions.spectrum)
    density_sum -= partitions.mean_density
    density_sum *= prob.lam
    res -= density_sum
    res -= integrate(T, res) / T.volume
    return res


def hessian_product(prob: Problem, partitions: Partitions, q_hat: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """The second variation H of J at v along the even direction q with
    cosine modes ``q_hat``,

        H q = -Laplacian q - lambda sum w alpha^2 rho_alpha (q - int rho_alpha q),

    as q at the quarter-cell nodes, <q, H q> and the cosine modes of H q
    with the (0, 0) mode zeroed.  It is the derivative of
    :func:`el_residual` along q, and symmetric in the L^2 inner product.
    The rho_alpha are read off the ``partitions`` that :func:`el_residual`
    handed out for v, so no exponential is taken: the partition term is
    q S minus the rank-one terms of the atoms, two matrix-vector products
    with the stack: each atom reads its row's product with q through its
    side's interpolation matrix, and the transpose of that matrix turns
    the atoms' weights back into the rows'.  It takes two transforms: q
    from its modes, and the modes of the partition term.
    """
    T = prob.torus
    phi = inverse_cosine_transform(T, q_hat)
    t = partitions.to_atoms(partitions.stack @ phi)
    t *= partitions.hessian_weights
    rank_one = partitions.to_rows(t) @ partitions.stack
    rank_one *= T.inverse_quarter_weights
    atom_term = phi * partitions.curvature
    atom_term -= rank_one
    atom_term *= prob.lam
    hq_hat = q_hat * T.eigenvalues  # -Laplacian q
    hq_hat -= cosine_transform(T, atom_term)
    hq_hat[0] = 0.0
    # <q, H q> = ||q||_H1^2 - <q, atom term>, q of zero mean
    kappa = gradient_inner(T, q_hat, q_hat) - T.cell_area * float((phi * T.quarter_weights) @ atom_term)
    return phi, kappa, hq_hat
