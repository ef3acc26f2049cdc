"""Radial asymptotics of concentrating fields and their quadrature oracles.

Everything here is radial: the model bubble solving -Lap(w) = lam e^w on
the plane, peak-rescaled profiles (samples read off the grid values of a
torus minimizer's spike), the one logarithmic slope fit, the concentration
mass, the Pohozaev balance, and the Newton potential growth.  Quadratures
run through a log-stretched adaptive rule so integrands localized near
the origin survive integration domains spanning many decades: QUADPACK's
21-point Gauss-Kronrod rule, here in numpy, which evaluates the integrand
on arrays of nodes, for a family of integrals at once, each member with
the bits it gets alone.  A request for integrals is one shape, (fn,
members): members lists each integral's (a, b, breakpoints), and fn takes
an array of radii and the array of each radius's member; one integral is
a family of one.  The checks that integrate (:func:`mass_gamma`,
:func:`pohozaev_residual`, :func:`newton_potential`) are jobs, generators
that yield one request and are sent its values, and :func:`gather` runs
the requests of several jobs as one family.  Every radial callable handed
to a check takes an array of radii and returns an array of the same
shape, or a constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vortexmf.measure import CirculationMeasure, tail_scan
from vortexmf.torus import Field, SpectralTorus, radial_average

QUAD_REL_TOL = 1e-10
MIN_FIT_SAMPLES = 8
DEFAULT_WINDOW = (3.0, 30.0)
PEAK_SLACK = 1e-9
FD_STEP = 1e-5
TAIL_SAFETY = 1e-3


# QUADPACK's qk21 (Piessens et al. 1983): the nonnegative 21-point Kronrod
# nodes on [-1, 1], descending, with the 10-point Gauss nodes at the odd
# places, their Kronrod weights, and the Gauss weights of the odd places.
_XK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208643474262, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# qk21's order of summation: the centre, the Gauss pairs, the other pairs
_ORDER = (10, 1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
# the nodes on [-1, 1]: the centre, then -x_j for j in that order, then +x_j
_NODES = np.array([0.0] + [-_XK[j] for j in _ORDER[1:]] + [_XK[j] for j in _ORDER[1:]])
# the Kronrod weights of the centre and the pairs, in that order, and of
# the 21 nodes; the Gauss weights of the pairs
_KRONROD = [_WK[j] for j in _ORDER]
_KRONROD_NODES = np.array(_KRONROD + _KRONROD[1:])
_GAUSS = np.array([*_WG, 0.0, 0.0, 0.0, 0.0, 0.0])
_EPS50 = 50.0 * np.finfo(float).eps
_RESABS_FLOOR = np.finfo(float).tiny / _EPS50


def _kronrod(f, lo: list[float], hi: list[float], member: np.ndarray) -> tuple[list[float], list[float]]:
    """qk21 on each interval [lo[i], hi[i]]: the Kronrod values and QUADPACK's
    error estimates, from one call of f on the (intervals x 21) nodes and
    the (intervals x 1) ``member`` each interval belongs to.  An interval
    gets the same bits in a call of any size: the estimates are row-wise
    sums, where a matrix-vector product's bits depend on the row count."""
    centre, half = 0.5 * (np.array(lo) + hi), 0.5 * (np.array(hi) - lo)
    fx = f(centre[:, None] + half[:, None] * _NODES, member)
    pairs = fx[:, 1:11] + fx[:, 11:]
    # the Kronrod sum term by term in qk21's order (accumulate adds in turn),
    # so that an interval gets QUADPACK's bits wherever its node values do
    terms = pairs * _KRONROD_NODES[1:11]
    terms[:, 0] += fx[:, 0] * _KRONROD[0]
    resk = np.add.accumulate(terms, axis=1)[:, -1]
    resg = (pairs * _GAUSS).sum(axis=1)
    resabs = (np.abs(fx) * _KRONROD_NODES).sum(axis=1) * np.abs(half)
    resasc = (np.abs(fx - 0.5 * resk[:, None]) * _KRONROD_NODES).sum(axis=1) * np.abs(half)
    err = np.abs((resk - resg) * half)
    # ** 1.5 on Python floats: numpy's power differs from it in the last bit;
    # fmin and fmax pass over a nan as Python's min and max do here
    power = [(200.0 * e / asc) ** 1.5 if asc else 0.0 for e, asc in zip(err.tolist(), resasc.tolist())]
    err = np.where((resasc != 0.0) & (err != 0.0), resasc * np.fmin(1.0, power), err)
    err = np.where(resabs > _RESABS_FLOOR, np.fmax(_EPS50 * resabs, err), err)
    return (resk * half).tolist(), err.tolist()


def quad(f, edges, epsrel: float, limit: int):
    """Globally adaptive Gauss-Kronrod integrals of a family of integrands.

    QUADPACK's 21-point rule and its error estimate (qk21, Piessens et al.
    1983).  Member m integrates over [edges[m][0], edges[m][-1]], its first
    intervals ending at the sorted edges between, so members may differ in
    limits, and f may integrate each member's own function.  f takes an
    (intervals x 21) array of nodes and the (intervals x 1) array of each
    row's member, rows in member order, and returns an array of the nodes'
    shape.  Each round calls f once, on the nodes of every interval made in
    the round before by a member still open.  A member bisects every
    interval whose error estimate exceeds tol / (number of its intervals),
    tol = epsrel |value|, until its estimates, summed with math.fsum as its
    values are, reach at most tol.  A member's value, estimate and
    evaluations are the bits it gets alone.

    Returns ([value], [abserr], {"neval": integrand evaluations}), a value
    and an abserr per member.  Raises RuntimeError when a member would need
    more than ``limit`` intervals, which also ends a non-finite integrand.
    """
    # per member, (lo, hi, value, error) of the intervals kept and (lo, hi)
    # of those to evaluate, as Python floats: numpy's per-call overhead
    # dominates on a handful of intervals
    kept: list[list[tuple[float, float, float, float]]] = [[] for _ in edges]
    fresh = [list(zip(e[:-1], e[1:])) for e in edges]
    values, abserrs = [math.nan] * len(edges), [math.nan] * len(edges)
    neval = 0
    while any(fresh):
        owner = [m for m, ivs in enumerate(fresh) for _ in ivs]
        lo = [a for ivs in fresh for a, _ in ivs]
        hi = [b for ivs in fresh for _, b in ivs]
        fresh = [[] for _ in edges]
        vals, errs = _kronrod(f, lo, hi, np.array(owner)[:, None])
        neval += 21 * len(owner)
        for m, iv in zip(owner, zip(lo, hi, vals, errs)):
            kept[m].append(iv)
        for m in sorted(set(owner)):
            intervals = kept[m]
            value, abserr = map(math.fsum, list(zip(*intervals))[2:])
            tol = epsrel * abs(value)
            if abserr <= tol:
                values[m], abserrs[m] = value, abserr
                continue
            cut = tol / len(intervals)
            split = [iv for iv in intervals if not iv[3] <= cut]
            if not split or len(intervals) + len(split) > limit:
                raise RuntimeError(f"quadrature did not converge within {limit} intervals (error {abserr:.3g})")
            kept[m] = [iv for iv in intervals if iv[3] <= cut]
            fresh[m] = [pair for a, b, _, _ in split for pair in ((a, 0.5 * (a + b)), (0.5 * (a + b), b))]
    return values, abserrs, {"neval": neval}


def _finite(what: str, r, values):
    """values, or OverflowError naming the first radius where one is not finite."""
    finite = np.isfinite(values)
    if not finite.all():
        at = np.broadcast_to(r, finite.shape)[~finite].flat[0]
        raise OverflowError(f"{what} is not finite at r = {float(at)!r}")
    return values


def radial_integral(fn, members: list) -> list[float]:
    """Adaptive integrals of fn after substituting u = log1p(r), to
    relative tolerance ``QUAD_REL_TOL``, one per member (a, b, breakpoints):
    fn over [a, b], with ``breakpoints`` listing radii where it has kinks
    or jumps.

    fn takes an array of radii and the array of each radius's member, an
    index into ``members``, and returns an array of the radii's shape, or a
    constant.  The substitution spends quadrature nodes evenly across
    decades, which integrands localized near the origin need once b runs
    into the millions.  All members run in one quadrature, and each value
    is the float its member gets alone.  A value of fn that is not finite
    raises OverflowError.
    """
    if not all(0.0 <= lo < hi for lo, hi, _ in members):
        raise ValueError("need 0 <= a < b")

    def g(u: np.ndarray, member: np.ndarray) -> np.ndarray:
        r = np.expm1(u)
        return _finite("integrand", r, fn(r, member) * (1.0 + r))

    log = math.log1p
    edges = [[log(lo), *sorted(log(p) for p in row if lo < p < hi), log(hi)] for lo, hi, row in members]
    # a non-finite value is reported by g, not warned about
    with np.errstate(all="ignore"):
        return quad(g, edges, QUAD_REL_TOL, 400)[0]


def gather(jobs: list) -> list:
    """What each job returns, from one :func:`radial_integral` of their
    requests, whose members keep the bits they get alone.  A job, such as
    :func:`mass_gamma`'s, is a generator that yields one request (fn,
    members) and is sent its list of values; ``gather([job])[0]`` runs one
    alone.  When the quadrature fails, the error of the first request that
    fails alone is thrown into its job."""
    requests = [next(job) for job in jobs]
    members = [member for _, own in requests for member in own]
    bounds = np.cumsum([0] + [len(own) for _, own in requests]).tolist()

    def fn(r: np.ndarray, member: np.ndarray) -> np.ndarray:
        out = np.empty_like(r)
        cuts = np.searchsorted(member[:, 0], bounds).tolist()  # quad orders rows by member
        for (f, _), start, i, j in zip(requests, bounds, cuts, cuts[1:]):
            if i < j:
                out[i:j] = f(r[i:j], member[i:j] - start)
        return out

    try:
        values = radial_integral(fn, members)
    except (OverflowError, RuntimeError):
        for job, request in zip(jobs, requests):
            try:
                radial_integral(*request)
            except (OverflowError, RuntimeError) as exc:
                job.throw(exc)
        raise
    results = []
    for job, start, stop in zip(jobs, bounds, bounds[1:]):
        try:
            job.send(values[start:stop])
        except StopIteration as done:
            results.append(done.value)
    return results


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")


def liouville_bubble(mu: float, lam: float, r):
    """Entire radial solution w(r) = log(8 mu^2 / lam) - 2 log(1 + (mu r)^2).

    Solves -Lap(w) = lam e^w on the plane; the density lam e^w carries
    total mass 8 pi for every mu.  Accepts an array r, which gives an
    array of its shape, or a scalar r, which gives a float.
    """
    _check_positive("mu", mu)
    _check_positive("lam", lam)
    rr = np.asarray(r, dtype=float)
    vals = math.log(8.0 * mu * mu / lam) - 2.0 * np.log1p((mu * rr) ** 2)
    return float(vals) if rr.ndim == 0 else vals


@dataclass(frozen=True, eq=False)
class BlowupProfile:
    """Peak-rescaled radial profile of a normalized field: its samples.

    ``peak_value`` is the unit-circulation normalized field w_1 at the
    peak; it sets the rescaling length sigma = e^{-peak_value/2}.
    ``radii`` holds the sample radii, strictly increasing, and ``dw`` the
    profile at each, w_1(x) - w_1(peak) averaged over the circle of that
    radius (times alpha in :func:`bubble_profile`), which never exceeds
    zero.  ``gamma0_reference`` is the slope the line of
    :func:`fit_li_line` is read against.
    """

    peak_value: float
    radii: np.ndarray
    dw: np.ndarray
    gamma0_reference: float

    def __post_init__(self) -> None:
        if np.shape(self.radii) != np.shape(self.dw):
            raise ValueError("radii and dw must hold one value per sample")
        if np.any(np.diff(self.radii) <= 0.0):
            raise ValueError("samples must be strictly increasing in r")
        if np.any(self.dw > PEAK_SLACK):
            raise ValueError("profile exceeds its own peak")

    @property
    def sigma(self) -> float:
        return math.exp(-0.5 * self.peak_value)


def default_fit_window(sigma: float, side_length: float) -> tuple[float, float]:
    """Fit window in sigma units: [3, 30], capped at L/4 on a torus of side L.

    Below 3 sigma the smooth core dominates; beyond L/4 periodic images
    contaminate radial averages.
    """
    return (DEFAULT_WINDOW[0], min(DEFAULT_WINDOW[1], 0.25 * side_length / sigma))


def fit_li_line(profile: BlowupProfile, fit_window) -> tuple[float, float]:
    """Least-squares (slope, intercept) of dw against -log(1 + r/sigma).

    The window is in units of sigma.  Concentrating fields follow
    dw = -alpha gamma0 log(1 + r/sigma) + O(1) between core and far field,
    so the slope estimates alpha gamma0.
    """
    lo, hi = fit_window
    if not 0.0 <= lo < hi:
        raise ValueError("need 0 <= lo < hi in the fit window")
    t = profile.radii / profile.sigma
    mask = (t >= lo) & (t <= hi)
    n = int(mask.sum())
    if n < MIN_FIT_SAMPLES:
        raise ValueError(
            f"fit window [{lo:g}, {hi:g}] sigma units holds {n} samples, "
            f"need at least {MIN_FIT_SAMPLES}"
        )
    x = -np.log1p(t[mask])
    slope, intercept = np.polyfit(x, profile.dw[mask], 1)
    return float(slope), float(intercept)


def fit_li_slope(profile: BlowupProfile, fit_window) -> float:
    """Slope part of :func:`fit_li_line`."""
    return fit_li_line(profile, fit_window)[0]


def bubble_profile(mu: float, lam: float, radii, alpha: float = 1.0) -> BlowupProfile:
    """Directly sampled bubble profile (construction oracle for the fits).

    ``alpha`` scales dw the way a circulation-alpha normalized field
    would: dw_alpha = alpha (w(r) - w(0)), while sigma keeps the alpha=1
    peak scale.  The reference slope is the bubble's gamma0 = 4.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    rs = np.sort(np.asarray(radii, dtype=float))
    if rs.size == 0 or rs[0] < 0.0:
        raise ValueError("radii must be nonnegative")
    peak = liouville_bubble(mu, lam, 0.0)
    return BlowupProfile(peak, rs, alpha * (liouville_bubble(mu, lam, rs) - peak), 4.0)


def rescale_profile(T: SpectralTorus, P: CirculationMeasure, grid, side: str = "positive") -> BlowupProfile:
    """Peak-rescaled radial profile of w_1 around the maximum of a spike,
    from ``grid``, its grid values and log-partition ``spike_grid(T, v)``
    of a minimizer's ``result.v``.

    The peak is the first grid maximum in row-major order, a result's
    ``peak_point``.  dw is the radial average of w_1(x) - w_1(peak) =
    v(x) - v(peak) in grid_n / 2 bins, and sigma comes from w_1 at the
    peak.  The profile of w_alpha is alpha dw with the same sigma, so the
    circulation is no parameter.  The spike carries the mass
    lambda |m_K| of the extremal subset K of the tail scan on P's ``side``,
    so the reference slope is gamma0 = 4 P(K) / |m_K|, which is 4 / m1
    under residual vanishing.  A negative spike is read from -v with
    ``side="negative"``: the state (-v, alpha -> -alpha) has the same J,
    and its positive tail is P's negative tail, in the same order.
    """
    vals, lp = grid
    peak = divmod(int(np.argmax(vals)), len(vals))  # in the grid given; radial_average checks it is T's
    subset = tail_scan(P, side)[1]
    if not subset:
        raise ValueError(f"measure carries no {side} circulation")
    mass = math.fsum(P.atoms[i][1] for i in subset)
    m_k = abs(math.fsum(P.atoms[i][0] * P.atoms[i][1] for i in subset))
    w1_peak = float(vals[peak]) - lp
    bins = radial_average(T, Field(vals - vals[peak]), peak, T.grid_n // 2)
    r = np.array([b[0] for b in bins])
    mean_dw = np.array([b[1] for b in bins])
    return BlowupProfile(w1_peak, r, mean_dw, 4.0 * mass / m_k)


def mass_gamma(f_radial, r_max: float, breakpoints=()):
    """Concentration mass (1/2pi) integral of a radial plane density, as a
    job of :func:`gather`.

    Equals int_0^inf f(r) r dr: adaptive quadrature to r_max plus a
    power-law tail estimate calibrated on the last decade.  The density
    must be nonnegative with f r^2 decreasing across that decade, or the
    tail is declared non-convergent.  f_radial takes an array of radii and
    returns an array of the same shape, or a constant.
    """
    _check_positive("r_max", r_max)
    (main,) = yield (lambda r, member: f_radial(r) * r), [(0.0, r_max, breakpoints)]
    probes = np.geomspace(r_max / 10.0, r_max, 16)
    f_vals = np.broadcast_to(np.asarray(f_radial(probes), dtype=float), probes.shape)
    if np.any(f_vals < 0.0):
        raise ValueError("density must be nonnegative")
    if f_vals[-1] == 0.0:
        return main
    fr2 = f_vals * probes * probes
    # relative slack so a tail with f r^2 constant up to rounding is
    # diagnosed by its decay exponent, not by quadrature noise
    if np.any(np.diff(fr2) > 1e-12 * np.abs(fr2[:-1])):
        raise RuntimeError("f r^2 is not decreasing over the last decade; tail not integrable")
    p_hat = math.log(f_vals[0] / f_vals[-1]) / math.log(probes[-1] / probes[0])
    if p_hat <= 2.0:
        raise RuntimeError(f"tail decay exponent {p_hat:.3f} <= 2; mass does not converge")
    return main + f_vals[-1] * r_max * r_max / (p_hat - 2.0)


@dataclass(frozen=True)
class PohozaevReport:
    """Boundary kinetic term against volume-plus-boundary potential terms."""

    lhs: float
    rhs: float
    relative_residual: float


def pohozaev_residual(u_radial, big_f, radius: float):
    """Radial Pohozaev balance on the disk of the given radius, as a job of
    :func:`gather` that returns a :class:`PohozaevReport`.

    For u solving -Lap(u) = F'(u), the identity

      R ring(|grad u|^2 / 2 - u_r^2) = R ring(F(u)) - int_{B_R} 2 F(u)

    holds exactly (ring = boundary integral); a constant coefficient A of
    -Lap(u) = A f(u) is folded into F.  Both sides are reported with their
    scaled gap |lhs - rhs| / (1 + |lhs| + |rhs|).  The radial derivative
    of u comes from central differences, so the check is meaningful only
    for smooth inputs.  u_radial takes an array of radii and big_f an
    array of values of u; each returns an array of the same shape, or a
    constant.  A boundary term that is not finite raises OverflowError.
    """
    _check_positive("radius", radius)
    h = FD_STEP * max(1.0, radius)
    ur = (u_radial(radius + h) - u_radial(radius - h)) / (2.0 * h)
    lhs = float(-math.pi * radius * radius * ur * ur)
    with np.errstate(all="ignore"):
        boundary = 2.0 * math.pi * radius * radius * big_f(u_radial(radius))
    boundary = float(_finite("boundary term", radius, boundary))
    (volume,) = yield (lambda r, member: 2.0 * big_f(u_radial(r)) * r), [(0.0, radius, ())]
    rhs = boundary - 2.0 * math.pi * volume
    gap = abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))
    return PohozaevReport(lhs=lhs, rhs=rhs, relative_residual=gap)


def newton_potential(f_radial, x_abs, rho_max: float = 1e6, breakpoints=()):
    """Logarithmic potential z(x) = (1/2pi) int f(y) log(|x-y|/(1+|y|)) dy
    at each radius |x| of the 1-D sequence ``x_abs``, as a job of
    :func:`gather` that returns a 1-D array.

    Radial symmetry collapses the angle: the circle mean of log|x-y| over
    |y| = rho is log max(|x|, rho).  z grows like gamma log|x| with
    gamma = (1/2pi) int f whenever the density tail is integrable.
    f_radial takes an array of radii and returns an array of the same
    shape, or a constant.  Each radius is a member of the request, and a
    breakpoint of its own integral.
    """
    xs = np.asarray(x_abs, dtype=float)
    listed = xs.tolist()
    for x in listed:
        _check_positive("x_abs", x)
    _check_positive("rho_max", rho_max)
    log_r = np.array([math.log(x) for x in listed])

    def integrand(rho: np.ndarray, member: np.ndarray) -> np.ndarray:
        angular = np.where(rho >= xs[member], -np.log1p(1.0 / rho), log_r[member] - np.log1p(rho))
        return f_radial(rho) * rho * angular

    vals = np.array((yield integrand, [(0.0, rho_max, (x, *breakpoints)) for x in listed]))
    probe = abs(float(f_radial(rho_max))) * rho_max * rho_max
    if np.any(probe > TAIL_SAFETY * (1.0 + np.abs(vals))):
        raise RuntimeError("density tail too heavy at rho_max; potential tail not negligible")
    return vals
