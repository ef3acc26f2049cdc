"""Batch command line: measure analysis and scans, minimization, sweeps, verification.

One command per process.  All randomness flows from a single seed that is
recorded in every output header, numeric output uses shortest round-trip
float formatting, and no output contains timestamps or absolute paths, so
reruns with identical inputs are byte-identical.

Exit codes: 0 success, 1 a failed check, a stage that ended ``budget`` or
``diverged`` or blew up below lambda_bar, numerical failure, or out of
memory, 2 invalid or non-finite input, an unknown flag, a prefix of a flag
or a missing command included.  Each prints one ``error: ...`` line to
stderr, and no usage text.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import glob
import json
import math
import os
import sys
from typing import Callable, NoReturn

import numpy as np

from vortexmf.blowup import (
    BlowupProfile,
    bubble_profile,
    default_fit_window,
    fit_li_line,
    fit_li_slope,
    gather,
    liouville_bubble,
    mass_gamma,
    newton_potential,
    pohozaev_residual,
    rescale_profile,
)
from vortexmf.functional import spike_grid
from vortexmf.measure import (
    EIGHT_PI,
    CirculationMeasure,
    alpha_min,
    full_support,
    lambda_bar,
    lambda_bar_residual_vanishing,
    load_measure,
    moment,
    new_atomic,
    parse_atoms_inline,
)
from vortexmf.minimize import (
    MinimizeOptions,
    MinimizeResult,
    blowup_threshold,
    continuation_sweep,
    detect_concentration,
    stage_problems,
)
from vortexmf.torus import SpectralTorus


class InputError(Exception):
    """Invalid setting or data file; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """A parser whose errors, such as an unknown flag, are input errors, and
    which takes no prefix of a flag for the flag: ``--lambda`` is unknown,
    not ``--lambdas``.  Each command's parser is one too."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> NoReturn:
        raise InputError(message)


def _floats_csv(text: str) -> tuple[float, ...]:
    """The ``type=`` of a comma-separated number list; an empty entry is an error."""
    tokens = [token.strip() for token in text.split(",")]
    if not all(tokens):
        raise argparse.ArgumentTypeError("empty entry in number list")
    try:
        return tuple(float(token) for token in tokens)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def check_run_rules(cfg: argparse.Namespace) -> None:
    """The rules no library object owns; run before any solver work."""
    if cfg.lambdas and cfg.fractions:
        raise InputError("give either absolute couplings or fractions, not both")
    # also for the commands that read no schedule
    if any(not 0.0 < lam < math.inf for lam in cfg.lambdas):
        raise InputError("coupling lambda must be positive and finite")
    if any(not 0.0 < f < math.inf for f in cfg.fractions):
        raise InputError("schedule fractions must be positive and finite")


def resolve_measure(cfg: argparse.Namespace) -> CirculationMeasure | None:
    """The measure ``--measure`` or ``--atoms`` gives, or None when neither
    is given."""
    if cfg.measure is not None and cfg.atoms is not None:
        raise InputError("both a measure file and inline atoms were given")
    try:
        if cfg.measure is not None:
            return load_measure(cfg.measure)
        if cfg.atoms is not None:
            return parse_atoms_inline(cfg.atoms)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    return None


def required_measure(P: CirculationMeasure | None) -> CirculationMeasure:
    if P is None:
        raise InputError("no measure given: use --measure FILE or --atoms SPEC")
    return P


def resolve_schedule(cfg: argparse.Namespace, bar: float) -> list[float]:
    """The couplings of the run; ``bar`` is lambda_bar(P), which scales the
    fractions."""
    if cfg.lambdas:
        return list(cfg.lambdas)
    if cfg.fractions:
        if not math.isfinite(bar):
            raise InputError("extremal coupling is infinite; give absolute couplings")
        return [f * bar for f in cfg.fractions]
    raise InputError("no coupling given: use --lambdas LIST or --fractions LIST")


def _sanitize(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


# The layout of summary.json; raised when a key changes meaning or goes away.
SCHEMA_VERSION = 6


@functools.cache
def _blas_thread_count() -> Callable[[], int] | None:
    """The function of numpy's bundled OpenBLAS that returns its thread
    count, looked up once per process, or None where numpy bundles no
    library that exports it."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            count = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        count.argtypes, count.restype = [], ctypes.c_int
        return count
    return None


def write_summary(cfg: argparse.Namespace, payload: dict) -> None:
    """Write ``summary.json``: the payload with the schema version, the
    versions of numpy and of the BLAS library it was built with, and that
    library's thread count, null where it cannot be read; the bits of the
    transforms, of the quadrature and of the sums over the partition rows
    depend on all three."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_thread_count()
    versions = {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": None if threads is None else threads(),
    }
    record = {"schema_version": SCHEMA_VERSION, "versions": versions, **payload}
    os.makedirs(cfg.out, exist_ok=True)
    text = json.dumps(_sanitize(record), indent=2, sort_keys=True) + "\n"
    with open(os.path.join(cfg.out, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(text)


def write_profile_csv(cfg: argparse.Namespace, k: int, profile: BlowupProfile, slope: float, intercept: float) -> str:
    path = os.path.join(cfg.out, f"profile_{k}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# seed={cfg.seed}\n")
        fh.write(
            f"# sigma={profile.sigma!r} fitted_slope={slope!r} "
            f"gamma0_reference={profile.gamma0_reference!r}\n"
        )
        fh.write("r,dw,fit_prediction\n")
        for r, dw in zip(profile.radii.tolist(), profile.dw.tolist()):
            pred = slope * (-math.log1p(r / profile.sigma)) + intercept
            fh.write(f"{r!r},{dw!r},{pred!r}\n")
    return path


def write_stage(
    cfg: argparse.Namespace,
    T: SpectralTorus,
    P: CirculationMeasure,
    k: int,
    result: MinimizeResult,
    want_profile: bool,
) -> dict:
    """Write ``trace_k.csv``, and ``profile_k.csv`` for a concentrated
    stage or on request, and return the stage's summary entry.  The
    trace, ``iterations``, ``rejected`` and ``hessian_products`` are the
    requested grid's; ``levels`` holds one entry per grid the stage solved,
    coarsest first (see :func:`vortexmf.minimize.minimize`).

    The concentration point and the profile read one ``spike_grid`` of the
    spike's quarter-cell values: v, or, when only the negative spike reached
    the blow-up threshold or P has no positive circulation, -v with the
    reference slope of P's negative side: (-v, alpha -> -alpha) has the same
    J, and its positive side is P's negative one.
    """
    with open(os.path.join(cfg.out, f"trace_{k}.csv"), "w", encoding="utf-8") as fh:
        fh.write(f"# seed={cfg.seed}\n")
        fh.write("iter,J,residual_norm,step,max_v\n")
        for i, (j, res, step, max_v) in enumerate(result.trace):
            fh.write(f"{i},{j!r},{res!r},{step!r},{max_v!r}\n")
    spike, side = result.v, "positive"
    threshold = blowup_threshold(T)
    negative_spike = result.peak_value < threshold <= -float(result.v.min())
    if negative_spike or moment(P, 1, "positive") == 0.0:
        spike, side = -result.v, "negative"
    grid = spike_grid(T, spike) if want_profile or spike.max() >= threshold else None
    conc = None if grid is None else detect_concentration(T, grid, threshold)
    profile = None
    if want_profile or conc is not None:
        samples = rescale_profile(T, P, grid, side)
        try:
            slope, intercept = fit_li_line(samples, default_fit_window(samples.sigma, T.side_length))
        except ValueError:  # the window holds too few radial bins, as on 32^2
            slope = intercept = math.nan
        write_profile_csv(cfg, k, samples, slope, intercept)
        profile = {
            "sigma": samples.sigma,
            "peak_value": samples.peak_value,
            "fitted_slope": slope,
            "gamma0_reference": samples.gamma0_reference,
        }
    return {
        "lambda": result.lam,
        "J": result.J_value,
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
        "rejected": result.rejected,
        "hessian_products": result.hessian_products,
        "status": result.status,
        "levels": [dataclasses.asdict(level) for level in result.levels],
        "peak_point": list(result.peak_point),
        "peak_value": result.peak_value,
        "concentration": None if conc is None else list(conc),
        "profile": profile,
    }


def cmd_lambda_bar(
    cfg: argparse.Namespace, T: SpectralTorus, opts: MinimizeOptions, P: CirculationMeasure | None
) -> int:
    P = required_measure(P)
    res = lambda_bar(P)
    nonneg = all(a >= 0.0 for a, _ in P.atoms)
    m1 = moment(P, 1)
    payload: dict = {
        "command": "lambda-bar",
        "seed": cfg.seed,
        "lambda_bar": res.lambda_bar,
        "side": res.side,
        "subset": list(res.minimizing_subset),
        "subset_atoms": [list(P.atoms[i]) for i in res.minimizing_subset],
        "moment1": m1,
        "alpha_min": alpha_min(P) if any(a >= 0.0 for a, _ in P.atoms) else None,
        "residual_vanishing_form": lambda_bar_residual_vanishing(P) if nonneg and m1 > 0.0 else None,
        "full_support": full_support(P, res),
    }
    write_summary(cfg, payload)
    print(f"lambda_bar = {res.lambda_bar!r}")
    print(f"side = {res.side}")
    print(f"subset = {payload['subset']}")
    print(f"moment1 = {m1!r}")
    print(f"full_support = {str(payload['full_support']).lower()}")
    return 0


def _stage_line(k: int, stage: dict) -> str:
    line = (
        f"stage {k}: lambda={stage['lambda']!r} J={stage['J']!r} "
        f"residual={stage['residual_norm']!r} iterations={stage['iterations']} "
        f"status={stage['status']}"
    )
    if stage["profile"] is not None:
        line += f" sigma={stage['profile']['sigma']!r} fitted_slope={stage['profile']['fitted_slope']!r}"
    return line


def cmd_solve(
    cfg: argparse.Namespace,
    T: SpectralTorus,
    opts: MinimizeOptions,
    P: CirculationMeasure | None,
    one_coupling: bool = False,
    want_profile: bool = False,
) -> int:
    """Check the schedule, run it as a continuation sweep, then write a
    record of every stage run; exit 1 if one ended ``budget`` or
    ``diverged``, or ``blown_up`` below lambda_bar(P), where J is bounded
    below.  ``minimize`` and ``profile`` are sweeps of one coupling;
    ``profile`` also exports the profile of a stage that did not concentrate.

    A bad schedule exits 2 before ``--out`` is made, and a numerical
    failure in the sweep leaves ``--out`` empty."""
    P = required_measure(P)
    if want_profile and all(a == 0.0 for a, _ in P.atoms):
        raise InputError("measure carries no circulation to profile")
    bar = lambda_bar(P).lambda_bar
    schedule = resolve_schedule(cfg, bar)
    if one_coupling and len(schedule) != 1:
        raise InputError("this command expects exactly one coupling")
    problems = stage_problems(T, P, schedule)
    os.makedirs(cfg.out, exist_ok=True)
    results = continuation_sweep(problems, opts)
    stages = [write_stage(cfg, T, P, k, r, want_profile) for k, r in enumerate(results)]
    payload = {
        "command": cfg.command,
        "seed": cfg.seed,
        "lambda_bar": bar,
        "stages": stages,
        "requested_stages": len(schedule),
    }
    write_summary(cfg, payload)
    for k, stage in enumerate(stages):
        print(_stage_line(k, stage))
    for k, r in enumerate(results):
        if r.status in ("budget", "diverged") or (r.status == "blown_up" and r.lam < bar):
            ending = f"{r.status} after {r.iterations} iterations at residual {r.residual_norm!r}"
            print(f"error: stage {k} ended {ending}", file=sys.stderr)
            return 1
    return 0


# The scanned family P(a, t) = (1 - t) delta_a + t delta_1: the small atom a
# and its weight t each run over this grid.
SCAN_GRID = tuple(np.linspace(0.05, 0.95, 19).tolist())


def cmd_scan(cfg: argparse.Namespace, T: SpectralTorus, opts: MinimizeOptions, P: CirculationMeasure | None) -> int:
    """Map lambda_bar and its minimizing subset over the two-atom family,
    which interpolates between one small circulation and the classical
    one-species measure.  ``two_atom_scan.csv`` holds one row per (a, t);
    t*(a) is the first weight at which the full support is extremal."""
    os.makedirs(cfg.out, exist_ok=True)
    transition: dict[float, float] = {}
    with open(os.path.join(cfg.out, "two_atom_scan.csv"), "w", encoding="utf-8") as fh:
        fh.write("a,t,lambda_bar,subset_size,side,residual_vanishing,full_support\n")
        for a in SCAN_GRID:
            for t in SCAN_GRID:
                P = new_atomic([(a, 1.0 - t), (1.0, t)])
                res = lambda_bar(P)
                rv = lambda_bar_residual_vanishing(P)
                full = full_support(P, res)
                fh.write(
                    f"{a!r},{t!r},{res.lambda_bar!r},"
                    f"{len(res.minimizing_subset)},{res.side},{rv!r},{str(full).lower()}\n"
                )
                if full and a not in transition:
                    transition[a] = t
    lines = ["first weight t where the full support becomes extremal, per atom a:"]
    for a in SCAN_GRID:
        t_star = transition.get(a)
        label = "never (always tail)" if t_star is None else f"{t_star:.3f}"
        lines.append(f"  a = {a:.3f}: t* = {label}")
    # atoms above 1/2 must be full-support for every weight
    above_half = [a for a in SCAN_GRID if a > 0.5]
    always_full = [a for a in above_half if transition.get(a) == SCAN_GRID[0]]
    lines.append(
        f"atoms above 1/2 that are full-support at the smallest weight: "
        f"{len(always_full)} of {len(above_half)}"
    )
    payload = {
        "command": "scan",
        "seed": cfg.seed,
        "grid": SCAN_GRID,
        "t_star": [transition.get(a) for a in SCAN_GRID],
        "full_support_above_half": len(always_full),
    }
    write_summary(cfg, payload)
    print(*lines, sep="\n")
    return 0


def verify_checks(debug_bubble_scale: float) -> list[dict]:
    """The oracle suite: bubble mass and PDE, concentration mass, slope
    fits, Pohozaev balance, Newton potential growth.  Its integrals run in
    one quadrature (:func:`vortexmf.blowup.gather`).

    ``debug_bubble_scale`` shifts the bubble fed to the Pohozaev check by
    2 log(scale); 1 leaves it, and any other value breaks the equation it
    is supposed to solve and must make that check fail (negative control).
    """
    lam, mu = 8.0, 1.0
    # every radial callable takes an array of radii (see vortexmf.blowup)
    density = lambda r: lam * np.exp(liouville_bubble(mu, lam, r))
    shift = 2.0 * math.log(debug_bubble_scale)
    u = lambda r: liouville_bubble(mu, lam, r) + shift
    source = lambda t: lam * np.exp(t)
    fit_rs = np.geomspace(1e2, 1e4, 9)
    disk = lambda r: np.where(r <= 1.0, 2.0, 0.0)

    def bubble_mass():
        (mass,) = yield (lambda r, member: density(r) * r), [(0.0, 1e6, ())]
        return 2.0 * math.pi * mass

    def check(name: str, job):
        try:
            return (yield from job)
        except (OverflowError, RuntimeError) as exc:
            raise type(exc)(f"{name}: {exc}") from exc

    mass, gamma, pohozaev_bubble, pohozaev_constant, z_bubble, z_disk = gather(
        [
            check("bubble_mass", bubble_mass()),
            check("mass_gamma", mass_gamma(density, 1e4)),
            check("pohozaev_bubble", pohozaev_residual(u, source, 10.0)),
            check("pohozaev_constant", pohozaev_residual(lambda r: 0.7, source, 10.0)),
            check("newton_slope_bubble", newton_potential(density, fit_rs)),
            check("newton_slope_disk", newton_potential(disk, fit_rs, breakpoints=[1.0])),
        ]
    )
    checks: list[dict] = []

    def add(name: str, value: float, target: float, tol: float) -> float:
        value = float(value)
        passed = bool(abs(value - target) <= tol)
        checks.append({"name": name, "value": value, "target": target, "tolerance": tol, "passed": passed})
        return value

    add("bubble_mass", mass, EIGHT_PI, 1e-6 * EIGHT_PI)

    def pde_residual(r: np.ndarray) -> np.ndarray:
        h = 1e-4 * np.maximum(1.0, r)
        w = lambda s: liouville_bubble(mu, lam, s)
        d1 = (w(r + h) - w(r - h)) / (2.0 * h)
        d2 = (w(r + h) - 2.0 * w(r) + w(r - h)) / (h * h)
        return np.abs(d2 + d1 / r + density(r))

    add("bubble_pde_residual", pde_residual(np.geomspace(0.1, 100.0, 61)).max(), 0.0, 1e-6)

    gamma = add("mass_gamma", gamma, 4.0, 1e-6)
    add("pi_gamma_sq_vs_2lambda_bar", math.pi * gamma * gamma, 2.0 * EIGHT_PI, 1e-4)

    radii = np.geomspace(1e-2, 3e4, 600)
    slope = lambda alpha: fit_li_slope(bubble_profile(mu, lam, radii, alpha=alpha), (1e2, 1e4))
    add("li_slope_alpha_1", slope(1.0), 4.0, 0.02 * 4.0)
    add("li_slope_alpha_half", slope(0.5), 2.0, 0.02 * 2.0)

    add("pohozaev_bubble", pohozaev_bubble.relative_residual, 0.0, 1e-3)
    # the gap of a constant is the rounding left when two terms equal to the
    # boundary term 2 pi R^2 lam e^0.7, about 1.0e4, cancel: bound it by a
    # few of their ulps, not by a fixed 1e-12, which lies below one ulp
    boundary_term = 2.0 * math.pi * 10.0**2 * lam * math.exp(0.7)
    add("pohozaev_constant", pohozaev_constant.relative_residual, 0.0, 4.0 * math.ulp(boundary_term))

    growth = lambda z: np.polyfit(np.log(fit_rs), z, 1)[0]
    add("newton_slope_bubble", growth(z_bubble), 4.0, 0.01 * 4.0)
    add("newton_slope_disk", growth(z_disk), 1.0, 0.01 * 1.0)
    return checks


def cmd_verify(cfg: argparse.Namespace, T: SpectralTorus, opts: MinimizeOptions, P: CirculationMeasure | None) -> int:
    if not 0.0 < cfg.debug_bubble_scale < math.inf:
        raise InputError("--debug-bubble-scale must be positive and finite")
    checks = verify_checks(cfg.debug_bubble_scale)
    all_passed = all(c["passed"] for c in checks)
    payload = {
        "command": "verify",
        "seed": cfg.seed,
        "checks": checks,
        "all_passed": all_passed,
    }
    write_summary(cfg, payload)
    lines = [
        f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: value={c['value']!r} "
        f"target={c['target']!r} tol={c['tolerance']:g}"
        for c in checks
    ]
    lines.append("all checks passed" if all_passed else "some checks FAILED")
    print(*lines, sep="\n")
    return 0 if all_passed else 1


def _join_dash_values(argv: list[str]) -> list[str]:
    """Spell ``--atoms -1:0.5,...`` as ``--atoms=-1:0.5,...``: argparse takes
    a value that starts with '-' for a flag unless it is a plain number.
    Every flag but --help takes a value."""
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        if flag[:2] == "--" and "=" not in flag and flag != "--help" and token[:1] == "-" and token[:2] != "--":
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process.  Every setting is a flag
    of every command, declared here once; its value is checked by the object
    that owns it (SpectralTorus, MinimizeOptions, Problem) or check_run_rules."""
    solver = MinimizeOptions()
    common = _Parser(add_help=False)
    add = common.add_argument
    add("--measure", metavar="PATH", help="atomic measure file: alpha weight per line")
    add("--atoms", metavar="SPEC", help="inline measure alpha:weight[,alpha:weight...]")
    add("--out", default="runs", metavar="DIR", help="output directory (default %(default)s)")
    add(
        "--grid-n", type=int, default=128, metavar="N",
        help="grid points per side, a power of two >= 16 (default %(default)s)",
    )
    add("--lambdas", type=_floats_csv, default=(), metavar="LIST", help="comma-separated absolute couplings")
    add("--fractions", type=_floats_csv, default=(), metavar="LIST", help="comma-separated fractions of lambda_bar")
    add("--max-iters", type=int, default=solver.max_iters, metavar="N", help="iteration budget (default %(default)s)")
    add(
        "--grad-tol", type=float, default=solver.grad_tol, metavar="TOL",
        help="sup-norm equation residual to stop at (default %(default)s)",
    )
    add("--seed", type=int, default=solver.seed, metavar="N", help="seed for all randomness (default %(default)s)")

    parser = _Parser(
        prog="vortexmf",
        description="Point-vortex mean field toolkit: extremal couplings, "
        "free-energy minimization, concentration asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("lambda-bar", parents=[common], help="extremal coupling of a measure")
    p.set_defaults(handler=cmd_lambda_bar)
    p = sub.add_parser("minimize", parents=[common], help="minimize at one coupling")
    p.set_defaults(handler=functools.partial(cmd_solve, one_coupling=True))
    p = sub.add_parser("sweep", parents=[common], help="continuation over an ascending schedule")
    p.set_defaults(handler=cmd_solve)
    p = sub.add_parser("profile", parents=[common], help="minimize and export the peak profile")
    p.set_defaults(handler=functools.partial(cmd_solve, one_coupling=True, want_profile=True))
    p = sub.add_parser("scan", parents=[common], help="extremal coupling over a two-atom family")
    p.set_defaults(handler=cmd_scan)
    p = sub.add_parser("verify", parents=[common], help="run the oracle suite")
    p.add_argument(
        "--debug-bubble-scale", type=float, default=1.0, metavar="S",
        help="amplitude-shift the Pohozaev test bubble (negative control; != 1 must fail)",
    )
    p.set_defaults(handler=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = build_parser().parse_args(_join_dash_values(argv))
        check_run_rules(cfg)
        # built for every command, so any bad value exits 2 before any work;
        # the unit torus, since a side L only rescales the answer (README, Scales)
        T = SpectralTorus(1.0, cfg.grid_n)
        opts = MinimizeOptions(max_iters=cfg.max_iters, grad_tol=cfg.grad_tol, seed=cfg.seed)
        # parsed by every command, also one that reads no measure, so a bad
        # --measure or --atoms exits 2 before any work
        P = resolve_measure(cfg)
        return cfg.handler(cfg, T, opts, P)
    # OSError: an --out that cannot be made or written, such as "" or a
    # path under a regular file
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # numerical failure: exp overflow, and the quadrature failures are RuntimeErrors
    except (OverflowError, RuntimeError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 1
    # a grid too large for memory; like a numerical failure it leaves --out empty
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
