"""Acceptance gate: the twelve end-to-end checks with their stated tolerances.

Each test prints one PASS/FAIL line (run with -s to see them) and then
asserts, so the suite both reports and gates.
"""

import json
import math
import os
import time

import numpy as np

from bruteforce import lambda_bar_bruteforce
from helpers import alone, energy, grid, random_even_field, random_measure, random_zero_mean_field, residual
from oracles import J_dual, dalpha_partition, dalpha_peak, integrate, laplacian, solve_poisson_zero_mean
from vortexmf import torus
from vortexmf.blowup import (
    bubble_profile,
    fit_li_slope,
    liouville_bubble,
    mass_gamma,
    newton_potential,
    pohozaev_residual,
    radial_integral,
)
from vortexmf.cli import main
from vortexmf.functional import Problem
from vortexmf.measure import lambda_bar, lambda_bar_residual_vanishing, new_atomic
from vortexmf.minimize import MinimizeOptions, minimize
from vortexmf.torus import (
    Field,
    SpectralTorus,
    cosine_transform,
    inverse_cosine_transform,
    project_even,
    project_zero_mean,
    quarter,
)

EIGHT_PI = 8.0 * math.pi


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def bubble_density(r):
    return 8.0 * np.exp(liouville_bubble(1.0, 8.0, r))


def test_criterion_01_classical_coupling():
    P = new_atomic([(1.0, 1.0)])
    lambda_bar(P)  # warm code paths
    t0 = time.perf_counter()
    value = lambda_bar(P).lambda_bar
    elapsed = time.perf_counter() - t0
    err = abs(value - EIGHT_PI)
    ok = err <= 1e-12 and elapsed < 1e-3
    _report(1, ok, f"|lambda_bar - 8pi| = {err:.2e}, {elapsed * 1e3:.3f} ms")


def test_criterion_02_scan_equals_bruteforce():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        P = random_measure(rng, max_atoms=12, signed=True)
        fast = lambda_bar(P)
        slow = lambda_bar_bruteforce(P)
        same = (
            fast.lambda_bar == slow.lambda_bar
            and fast.minimizing_subset == slow.minimizing_subset
            and fast.side == slow.side
        )
        mismatches += 0 if same else 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    _report(2, ok, f"{mismatches} mismatches in 200 measures, {elapsed:.2f} s")


def test_criterion_03_residual_vanishing_regime():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    worst = 0.0
    subset_ok = True
    for _ in range(50):
        P = random_measure(rng, max_atoms=8, signed=False, low=0.5000001)
        res = lambda_bar(P)
        worst = max(worst, abs(res.lambda_bar - lambda_bar_residual_vanishing(P)))
        subset_ok = subset_ok and res.minimizing_subset == tuple(range(len(P.atoms)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and subset_ok and elapsed < 5.0
    _report(3, ok, f"max |defect| = {worst:.2e}, full support {subset_ok}, {elapsed:.2f} s")


def test_criterion_04_gradient_consistency():
    T = SpectralTorus(1.0, 32)
    rng = np.random.default_rng(404)
    measures = [
        new_atomic([(1.0, 1.0)]),
        new_atomic([(0.5, 0.5), (1.0, 0.5)]),
        new_atomic([(-0.7, 0.3), (0.2, 0.3), (0.9, 0.4)]),
    ]
    h = 1e-5
    t0 = time.perf_counter()
    worst = 0.0
    for P in measures:
        prob = Problem(T, P, 4.0)
        # the residual takes even fields, and so the energy along them
        v = random_even_field(T, rng, amplitude=0.5)
        g = residual(prob, v)
        for _ in range(20):
            phi = random_even_field(T, rng)
            fd = (
                energy(prob, project_zero_mean(T, Field(v.values + h * phi.values)))
                - energy(prob, project_zero_mean(T, Field(v.values - h * phi.values)))
            ) / (2.0 * h)
            exact = integrate(T, Field(g.values * phi.values))
            worst = max(worst, abs(fd - exact) / max(1e-12, abs(exact)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(4, ok, f"max rel gradient error = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_05_poisson_roundtrip():
    T = SpectralTorus(1.0, 128)
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    u = random_zero_mean_field(T, rng)
    rhs = Field(-laplacian(T, u).values)
    back = solve_poisson_zero_mean(T, rhs)
    err = float(np.abs(back.values - u.values).max())
    # and the solver's pair on the quarter cell of u's even part
    x = quarter(T, project_zero_mean(T, project_even(T, u)).values)
    U = cosine_transform(T, x)
    back = inverse_cosine_transform(T, torus.solve_poisson_zero_mean(T, -torus.laplacian(T, U)))
    err = max(err, float(np.abs(back - x).max()))
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-10 and elapsed < 1.0
    _report(5, ok, f"sup roundtrip error = {err:.2e} at 128^2, {elapsed:.2f} s")


def test_criterion_06_bubble_mass_and_gamma():
    t0 = time.perf_counter()
    mass = 2.0 * math.pi * radial_integral(lambda r, m: bubble_density(r) * r, [(0.0, 1e6, ())])[0]
    mass_err = abs(mass / EIGHT_PI - 1.0)

    def pde_residual(r: float) -> float:
        h = 1e-4 * max(1.0, r)
        w = lambda s: liouville_bubble(1.0, 8.0, s)
        d1 = (w(r + h) - w(r - h)) / (2.0 * h)
        d2 = (w(r + h) - 2.0 * w(r) + w(r - h)) / (h * h)
        return abs(d2 + d1 / r + bubble_density(r))

    pde_err = max(pde_residual(r) for r in np.geomspace(0.1, 100.0, 61))
    gamma = alone(mass_gamma(bubble_density, 1e4))
    gamma_err = abs(gamma - 4.0)
    balance_err = abs(math.pi * gamma * gamma - 2.0 * EIGHT_PI)
    elapsed = time.perf_counter() - t0
    ok = (
        mass_err <= 1e-6 and pde_err <= 1e-6 and gamma_err <= 1e-6
        and balance_err <= 1e-4 and elapsed < 5.0
    )
    _report(
        6,
        ok,
        f"mass rel {mass_err:.1e}, pde {pde_err:.1e}, gamma {gamma_err:.1e}, "
        f"pi gamma^2 vs 16pi {balance_err:.1e}, {elapsed:.2f} s",
    )


def test_criterion_07_li_slope():
    t0 = time.perf_counter()
    radii = np.geomspace(1e-2, 3e4, 600)
    window = (1e2, 1e4)
    s1 = fit_li_slope(bubble_profile(1.0, 8.0, radii, alpha=1.0), window)
    s_half = fit_li_slope(bubble_profile(1.0, 8.0, radii, alpha=0.5), window)
    elapsed = time.perf_counter() - t0
    ok = abs(s1 - 4.0) <= 0.08 and abs(s_half - 2.0) <= 0.04 and elapsed < 5.0
    _report(7, ok, f"slope(1) = {s1:.4f}, slope(1/2) = {s_half:.4f}, {elapsed:.2f} s")


def test_criterion_08_pohozaev_balance():
    t0 = time.perf_counter()
    w = lambda r: liouville_bubble(1.0, 8.0, r)
    bubble = alone(pohozaev_residual(w, lambda t: 8.0 * np.exp(t), 10.0))
    const = alone(pohozaev_residual(lambda r: 0.7, np.exp, 10.0))
    elapsed = time.perf_counter() - t0
    ok = (
        bubble.relative_residual <= 1e-3
        and const.relative_residual == 0.0
        and elapsed < 5.0
    )
    _report(
        8,
        ok,
        f"bubble residual {bubble.relative_residual:.1e}, "
        f"constant residual {const.relative_residual!r}, {elapsed:.2f} s",
    )


def test_criterion_09_newton_potential_growth():
    t0 = time.perf_counter()
    fit_rs = np.geomspace(1e2, 1e4, 9)
    z_bubble = [alone(newton_potential(bubble_density, [R]))[0] for R in fit_rs]
    slope_b = float(np.polyfit(np.log(fit_rs), z_bubble, 1)[0])
    disk = lambda r: np.where(r <= 1.0, 2.0, 0.0)
    z_disk = [alone(newton_potential(disk, [R], breakpoints=[1.0]))[0] for R in fit_rs]
    slope_d = float(np.polyfit(np.log(fit_rs), z_disk, 1)[0])
    elapsed = time.perf_counter() - t0
    ok = abs(slope_b - 4.0) <= 0.04 and abs(slope_d - 1.0) <= 0.01 and elapsed < 10.0
    _report(9, ok, f"bubble slope {slope_b:.4f}, disk slope {slope_d:.4f}, {elapsed:.2f} s")


def test_criterion_10_alpha_monotonicity():
    T = SpectralTorus(1.0, 32)
    prob = Problem(T, new_atomic([(1.0, 1.0)]), 2.0)
    rng = np.random.default_rng(1010)
    t0 = time.perf_counter()
    worst = math.inf
    for _ in range(100):
        v = random_zero_mean_field(T, rng, amplitude=float(rng.uniform(0.1, 2.0)))
        peak = np.unravel_index(int(np.argmax(v.values)), v.values.shape)
        alpha = float(rng.uniform(0.1, 0.9))
        worst = min(worst, dalpha_peak(prob, v, peak, alpha))
        worst = min(worst, dalpha_partition(prob, v, alpha))
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-8 and elapsed < 10.0
    _report(10, ok, f"min alpha-derivative = {worst:.2e} over 100 fields, {elapsed:.2f} s")


def test_criterion_11_dual_energy_agreement():
    rng = np.random.default_rng(1111)
    t0 = time.perf_counter()
    T0 = SpectralTorus(2.0, 32)
    zero = Field(np.zeros((32, 32)))
    worst_zero = 0.0
    for _ in range(20):
        P = random_measure(rng, max_atoms=6, signed=False)
        prob = Problem(T0, P, float(rng.uniform(0.5, 10.0)))
        worst_zero = max(worst_zero, abs(J_dual(prob, zero) - energy(prob, zero)))

    T = SpectralTorus(2.0, 64)
    worst_min = 0.0
    converged = True
    for P in (
        new_atomic([(1.0, 1.0)]),
        new_atomic([(0.6, 0.5), (1.0, 0.5)]),
        new_atomic([(0.3, 0.2), (0.7, 0.5), (1.0, 0.3)]),
    ):
        lam = 0.7 * lambda_bar(P).lambda_bar
        prob = Problem(T, P, lam)
        res = minimize(prob, MinimizeOptions())
        converged = converged and res.residual_norm <= 1e-8
        v = grid(T, res.v)
        gap = abs(J_dual(prob, v) - energy(prob, v))
        worst_min = max(worst_min, gap / (1.0 + abs(res.J_value)))
    elapsed = time.perf_counter() - t0
    ok = worst_zero <= 1e-9 and converged and worst_min <= 1e-5 and elapsed < 60.0
    _report(
        11,
        ok,
        f"flat-state gap {worst_zero:.1e}, minimizer gap {worst_min:.1e}, {elapsed:.2f} s",
    )


def test_criterion_12_continuation_sweep_cli(tmp_path, capsys):
    t0 = time.perf_counter()
    outs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out in outs:
        code = main([
            "sweep", "--atoms", "1:1", "--fractions", "0.3,0.6,0.9",
            "--grid-n", "128", "--out", out,
        ])
        assert code == 0
    capsys.readouterr()
    with open(os.path.join(outs[0], "summary.json")) as fh:
        payload = json.load(fh)
    residuals = [s["residual_norm"] for s in payload["stages"]]
    j_vals = [s["J"] for s in payload["stages"]]
    monotone = all(b <= a + 1e-12 for a, b in zip(j_vals, j_vals[1:]))
    identical = True
    for name in sorted(os.listdir(outs[0])):
        with open(os.path.join(outs[0], name), "rb") as fa:
            a = fa.read()
        with open(os.path.join(outs[1], name), "rb") as fb:
            b = fb.read()
        identical = identical and a == b
    elapsed = time.perf_counter() - t0
    ok = (
        len(residuals) == 3
        and all(r <= 1e-7 for r in residuals)
        and monotone
        and identical
        and elapsed < 120.0
    )
    _report(
        12,
        ok,
        f"residuals {[f'{r:.1e}' for r in residuals]}, J monotone {monotone}, "
        f"reruns identical {identical}, {elapsed:.2f} s",
    )
