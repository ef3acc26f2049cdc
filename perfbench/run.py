"""Benchmark of the vortexmf command line, driven in-process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]   # every workload

One workload runs per fresh process, on one thread: the BLAS and OpenMP
thread counts are pinned to 1 before numpy is imported.  A workload is one
CLI command run at a pool of CLI seeds derived from the workload seed; one
pass runs the command once at each seed of the pool.  The benchmark calls
``vortexmf.cli.main(argv)`` in a closed loop, pass after pass, until
``--seconds`` are used up, and gates every command's outputs (see
``gate.py``).

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced commands with commands run under the layer wrappers of
``spans.py``, at the first seed of the pool, and reports the per-layer
metrics of the traced commands and the tracing overhead.  Metric names and
units come from ``BENCHMARK.json``.  The last line of standard output is one
JSON object; a fuller record, with the environment, goes to
``.perfbench_out/BENCH_<workload>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import gate

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
INHERITED_THREADS = {v: os.environ.get(v) for v in THREAD_VARS}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC_PATH = ROOT / "BENCHMARK.json"

SIGNED2 = "-1:0.5,1:0.5"
MEASURE_FILE = "{measure}"


def atoms128_text() -> str:
    """128 equal-weight atoms at alpha_i = -1 + (i + 1/2)/64."""
    return "".join(f"{-1.0 + (i + 0.5) / 64.0!r} {1.0 / 128.0!r}\n" for i in range(128))


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    # reference J per requested stage; None for the oracle workload
    references: tuple[float | None, ...] | None
    grid_n: int | None = None
    atoms: str | None = None
    # CLI seeds per pass.  grid128-atoms128 takes 76-101 iterations over
    # seeds 0-5, so its pass runs four seeds: that steadies the wall time
    # across workload seeds, and an iteration-count change still shows in it.
    # The other workloads vary by under 5% with the seed.
    pool: int = 1
    # Passes a run makes even past --seconds.  On a shared 2-vCPU host one
    # sweep command varies by +-10% from one to the next at the same seed, so
    # sweep64-near-bar takes the lower median of four.
    min_passes: int = 1

    def seeds(self, seed: int) -> list[int]:
        return [seed * self.pool + j for j in range(self.pool)]


# Converged energies recorded with this benchmark's first version, seeds 0-5.
J_SIGNED2_080 = -0.0277757676703885
J_SIGNED2_090 = -2.01224677541211
J_SIGNED2_100 = -21.7696018090033
J_ATOMS128_090 = -17.7676455626036

# There is no workload at the ROADMAP grid, 512^2: its wall time spread by
# 0.16-0.34 (quartile distance over median, ten seeds) in three sets on a
# shared 2-vCPU host, more than the 0.25 bound, because its large
# transforms are the most sensitive to the host's cache and memory load.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid128-atoms128",
            ("minimize", "--measure", MEASURE_FILE, "--fractions", "0.9", "--grid-n", "128"),
            (J_ATOMS128_090,),
            grid_n=128,
            pool=4,
        ),
        Workload(
            "sweep64-near-bar",
            ("sweep", f"--atoms={SIGNED2}", "--fractions", "0.8,0.9,0.99,1.0", "--grid-n", "64"),
            # the 0.99 stage stalls above grad_tol at this commit, so it has no reference J
            (J_SIGNED2_080, J_SIGNED2_090, None, J_SIGNED2_100),
            grid_n=64,
            atoms=SIGNED2,
            min_passes=4,
        ),
        Workload("oracles", ("verify",), None),
    )
}


@dataclass
class Command:
    seconds: float
    rc: int | None
    steps: int
    digest: str
    bytes_written: int
    verdict: gate.Verdict
    spans: tuple[int, int] = (0, 0)
    traced: bool = False
    seed: int = 0


def environment() -> dict:
    import numpy
    import scipy

    caches = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            done = subprocess.run(["getconf", key], capture_output=True, text=True, timeout=10)
        except OSError:
            break
        if done.returncode == 0 and done.stdout.strip().isdigit():
            caches[key.lower()] = int(done.stdout)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_env_inherited": INHERITED_THREADS,
    }


def set_up(wl: Workload, measure_path: Path) -> float:
    """Seconds to import the CLI and build the first torus symbols and the
    extremal coupling the workload needs."""
    t0 = time.perf_counter()
    import vortexmf.cli  # noqa: F401  (its import is what is timed)
    from vortexmf.measure import lambda_bar, load_measure, parse_atoms_inline
    from vortexmf.torus import SpectralTorus

    if wl.grid_n is not None:
        SpectralTorus(1.0, wl.grid_n).inverse_eigenvalues
        P = parse_atoms_inline(wl.atoms) if wl.atoms else load_measure(str(measure_path))
        lambda_bar(P)
    return time.perf_counter() - t0


def set_up_in_child(wl: Workload, measure_path: Path) -> float:
    probe = [sys.executable, __file__, "--workload", wl.name, "--setup-probe", str(measure_path)]
    done = subprocess.run(probe, capture_output=True, text=True, timeout=60, cwd=ROOT, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def digest_outputs(outdir: Path, stdout: str, rc) -> tuple[str, int]:
    h = hashlib.sha256(f"rc={rc}\n".encode())
    data = stdout.encode()
    h.update(data)
    total = len(data)
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        blob = path.read_bytes()
        total += len(blob)
        h.update(str(path.relative_to(outdir)).encode() + b"\0" + blob)
    return h.hexdigest(), total


def run_command(wl: Workload, argv: list[str], outdir: Path, tracer=None, seed: int = 0) -> Command:
    from vortexmf import cli

    shutil.rmtree(outdir, ignore_errors=True)
    buf = io.StringIO()
    lo = len(tracer) if tracer is not None else 0
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # the benchmark reports a crash as a failed command
        rc, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    hi = len(tracer) if tracer is not None else 0
    summary_path = outdir / "summary.json"
    summary = None
    if error is None and summary_path.is_file():
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    if wl.references is None:
        verdict = gate.check_verify(summary)
        steps = 1
    else:
        verdict = gate.check_stages(summary, list(wl.references))
        steps = sum(int(s.get("iterations", 0)) for s in summary["stages"]) if summary else 0
    if error is not None or rc not in (0, 1):
        n = verdict.attempted
        verdict = gate.Verdict(n, n, n, (f"command crashed: rc={rc} {error or ''}",))
    digest, nbytes = digest_outputs(outdir, buf.getvalue(), rc)
    return Command(seconds, rc, steps, digest, nbytes, verdict, (lo, hi), tracer is not None, seed)


def closed_loop(wl, argvs: dict[int, list[str]], outdir, budget_s, min_cmds, tracer=None) -> list[Command]:
    """Run commands back to back, cycling through the seeds of ``argvs``;
    stop once the next one is expected to end past ``budget_s``, but not
    before ``min_cmds`` have run.  With a tracer, every second command runs
    traced, so that traced and untraced commands see the same host
    conditions."""
    seeds = list(argvs)
    cmds: list[Command] = []
    t_start = time.perf_counter()
    while True:
        if len(cmds) >= min_cmds:
            expected = statistics.median(c.seconds for c in cmds)
            if time.perf_counter() - t_start + expected > budget_s:
                return cmds
        if tracer is not None:
            seed = seeds[(len(cmds) // 2) % len(seeds)]
            if len(cmds) % 2:
                with tracer.installed():
                    cmds.append(run_command(wl, argvs[seed], outdir, tracer, seed))
                continue
        else:
            seed = seeds[len(cmds) % len(seeds)]
        cmds.append(run_command(wl, argvs[seed], outdir, seed=seed))


def per_layer(tracer, cmd: Command, solver: bool) -> dict:
    by_name, self_s = tracer.aggregate(*cmd.spans)

    def calls(*names):
        return sum(by_name.get(n, (0, 0.0, 0.0))[0] for n in names)

    def secs(*names):
        return sum(by_name.get(n, (0, 0.0, 0.0))[1] for n in names)

    def amount(*names):
        return sum(by_name.get(n, (0, 0.0, 0.0))[2] for n in names)

    fft = ("numpy.fft.fft2", "numpy.fft.ifft2")
    exp = ("numpy.exp", "numpy.expm1")
    quad = "scipy.integrate.quad"
    trial = "minimize._EnergyDelta.__call__"
    iters = cmd.steps if solver else 0
    return {
        "torus.fft.count": calls(*fft),
        "torus.fft.s": secs(*fft),
        "torus.fft.per_iter": calls(*fft) / iters if iters else 0.0,
        "torus.fft.bytes_computed": int(amount(*fft)),
        "torus.poisson.calls": calls("torus.solve_poisson_zero_mean"),
        "torus.poisson.s": secs("torus.solve_poisson_zero_mean"),
        "torus.gradient_inner.calls": calls("torus.gradient_inner"),
        "torus.gradient_inner.s": secs("torus.gradient_inner"),
        "torus.laplacian.calls": calls("torus.laplacian"),
        "torus.laplacian.s": secs("torus.laplacian"),
        "torus.self_s": self_s.get("torus", 0.0),
        "functional.el_residual.calls": calls("functional.el_residual"),
        "functional.el_residual.s": secs("functional.el_residual"),
        "functional.log_partition.calls": calls("functional.log_partition"),
        "functional.exp.elems": int(amount(*exp)),
        "functional.exp.s": secs(*exp),
        "functional.self_s": self_s.get("functional", 0.0),
        "minimize.iterations": iters,
        "minimize.line_search.trials": calls(trial),
        "minimize.line_search.accept_ratio": iters / calls(trial) if calls(trial) else 0.0,
        "minimize.self_s": self_s.get("minimize", 0.0),
        "blowup.quad.calls": calls(quad),
        "blowup.quad.neval": int(amount(quad)),
        "blowup.quad.s": secs(quad),
        "blowup.self_s": self_s.get("blowup", 0.0),
        "measure.lambda_bar.calls": calls("measure.lambda_bar"),
        "measure.lambda_bar.s": secs("measure.lambda_bar"),
        "cli.bytes_written": cmd.bytes_written,
        "cli.self_s": self_s.get("cli", 0.0),
    }


# Counts that must repeat exactly between traced commands of one seed.
REPEATED_COUNTS = (
    "torus.fft.count",
    "functional.exp.elems",
    "minimize.iterations",
    "minimize.line_search.trials",
    "blowup.quad.neval",
)

# names, units, bounds and workload rationale live in BENCHMARK.json only
SPEC = json.loads(SPEC_PATH.read_text(encoding="utf-8")) if SPEC_PATH.is_file() else None


def run_workload(wl: Workload, seed: int, seconds: int, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{wl.name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    measure_path = workdir / "measure.txt"
    measure_path.write_text("# alpha weight\n" + atoms128_text(), encoding="utf-8")
    try:
        setup_samples = [set_up(wl, measure_path)]
        setup_samples += [set_up_in_child(wl, measure_path) for _ in range(4)]
        outdir = workdir / "out"
        base = [a.replace(MEASURE_FILE, str(measure_path)) for a in wl.argv]
        pool = wl.seeds(seed)[:1] if trace else wl.seeds(seed)
        argvs = {s: base + ["--seed", str(s), "--out", str(outdir)] for s in pool}

        tracer = None
        if trace:
            from spans import Tracer

            tracer = Tracer()
        # untraced: at least min_passes passes and one repeated seed
        min_cmds = 4 if trace else max(wl.min_passes * len(pool), len(pool) + 1)
        cmds = closed_loop(wl, argvs, outdir, seconds, min_cmds, tracer)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verdict = gate.NO_OPS
    for c in cmds:
        verdict = verdict + c.verdict
    notes = list(dict.fromkeys(verdict.notes))
    digests: dict[int, set[str]] = {}
    for c in cmds:
        digests.setdefault(c.seed, set()).add(c.digest)
    repeat_ok = all(len(d) == 1 for d in digests.values())
    if not repeat_ok:
        notes.append("outputs differ between repeats of the same seed")

    solver = wl.references is not None
    plain = [c for c in cmds if not c.traced]
    traced = [c for c in cmds if c.traced]
    cmd_s = [c.seconds for c in plain]
    n = len(pool)
    passes = [sum(cmd_s[i : i + n]) for i in range(0, len(cmd_s) - n + 1, n)]
    step_ms = statistics.median(1000.0 * c.seconds / max(c.steps, 1) for c in plain)
    report = {
        "wall_s.passes": len(passes),
        "cmd_s.p50": statistics.median(cmd_s),
        "cmd_s.samples": len(cmd_s),
        "step_ms": step_ms,
        "fail_frac": gate.fail_frac(verdict),
        "cli.commands": len(cmds),
    }
    if len(cmd_s) >= 100:
        report["cmd_s.p90"] = statistics.quantiles(cmd_s, n=10)[-1]
    if solver:
        report["minimize.stages.attempted"] = len(wl.references)

    if trace:
        layers = [per_layer(tracer, c, solver) for c in traced]
        for key in REPEATED_COUNTS:
            if len({round(L[key], 6) for L in layers}) != 1:
                notes.append(f"{key} differs between traced commands: {[L[key] for L in layers]}")
                repeat_ok = False
        # lower median: counts stay whole numbers, times stay measured values
        metrics = {k: statistics.median_low(L[k] for L in layers) for k in layers[0]}
        metrics["minimize.ms_per_iter"] = step_ms if solver else 0.0
        metrics["minimize.stages.converged"] = (
            statistics.median_low(c.verdict.attempted - c.verdict.failed for c in plain) if solver else 0
        )
        metrics["cli.cmd_s.p50"] = statistics.median(cmd_s)
        metrics["trace.overhead_frac"] = (
            statistics.median(c.seconds for c in traced) / statistics.median(cmd_s) - 1.0
        )
        tracer.write(str(OUT / f"spans_{wl.name}_seed{seed}.csv"))
    else:
        metrics = {
            # lower median: with two passes, the one less disturbed by the host
            "wall_s": statistics.median_low(passes),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mib": peak_rss_mib,
        }

    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = {name: metrics[name] for name in units}
    correct = verdict.wrong == 0 and repeat_ok
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cli_seeds": pool,
        "argv": base,
        "environment": environment(),
        "correct": correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "gate_notes": notes,
        "report": report,
        "setup_s.samples": setup_samples,
        "commands": [
            {"seed": c.seed, "traced": c.traced, "seconds": c.seconds, "steps": c.steps, "rc": c.rc} for c in cmds
        ],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    suffix = "_trace" if trace else ""
    (OUT / f"BENCH_{wl.name}{suffix}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


# figures printed and stored beside the metrics, without a bound
REPORT_UNITS = {"cmd_s.p50": "s", "cmd_s.p90": "s", "step_ms": "ms", "fail_frac": "ratio"}


def print_record(rec: dict) -> None:
    env = rec["environment"]
    print(
        f"# {rec['workload']} seed={rec['seed']} cli_seeds={rec['cli_seeds']} trace={rec['trace']} "
        f"python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} nproc={env['nproc']} "
        f"cache_bytes={env['cache_bytes']} threads={env['thread_env']}"
    )
    for name, m in rec["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, value in rec["report"].items():
        print(f"{name} = {value:.6g} {REPORT_UNITS.get(name, 'count')}")
    verdict = "PASS" if rec["correct"] else "FAIL"
    print(f"gate: {verdict} attempted={rec['attempted']} failed={rec['failed']}")
    for note in rec["gate_notes"]:
        print(f"gate note: {note}")


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload, each in its own fresh process; one table at the end."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
        cmd += ["--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return 1
        rows.append((name, json.loads(lines[-1])))
    print()
    print("workload            correct  failed/attempted  metrics")
    for name, res in rows:
        ms = "  ".join(f"{k}={v['value']:.4g}{v['unit']}" for k, v in res["metrics"].items())
        print(f"{name:<20}{str(res['correct']):<9}{res['failed']}/{res['attempted']:<16}{ms}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="MEASURE", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "vortexmf" / "cli.py").is_file() or SPEC is None:
        print(f"error: no vortexmf source under {SRC}, or no {SPEC_PATH.name}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    # before numpy is first imported, here and in the set-up probes that inherit it
    os.environ.update({v: "1" for v in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(repr(set_up(WORKLOADS[args.workload], Path(args.setup_probe))))
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    rec = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print_record(rec)
    result = {k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
