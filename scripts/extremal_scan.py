#!/usr/bin/env python3
"""Scan the extremal coupling over a two-atom circulation family.

The family P(a, t) = (1 - t) delta_a + t delta_1 interpolates between a
single small circulation and the classical one-species measure.  For each
(a, t) the scan records the extremal coupling, which atoms realize it,
and the residual-vanishing value 8 pi / m1^2, making the transition from
tail concentration to full-support concentration visible as a curve in
the (a, t) plane.

Writes one CSV (deterministic, no timestamps) and prints the transition
line t*(a) where the minimizing subset first becomes the full support.
"""

import argparse
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from vortexmf import lambda_bar, lambda_bar_residual_vanishing, new_atomic


def step_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a-steps", type=step_count, default=19, help="grid points for the small atom in (0, 1)")
    ap.add_argument("--t-steps", type=step_count, default=19, help="grid points for its weight in (0, 1)")
    ap.add_argument("--out", default="scan_out", help="output directory")
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "two_atom_scan.csv")
    a_grid = np.linspace(0.05, 0.95, args.a_steps)
    t_grid = np.linspace(0.05, 0.95, args.t_steps)
    transition: dict[float, float] = {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("a,t,lambda_bar,subset_size,side,residual_vanishing,full_support\n")
        for a in a_grid:
            for t in t_grid:
                P = new_atomic([(float(a), float(1.0 - t)), (1.0, float(t))])
                res = lambda_bar(P)
                rv = lambda_bar_residual_vanishing(P)
                full = res.minimizing_subset == (0, 1)
                fh.write(
                    f"{float(a)!r},{float(t)!r},{res.lambda_bar!r},"
                    f"{len(res.minimizing_subset)},{res.side},{rv!r},{str(full).lower()}\n"
                )
                if full and float(a) not in transition:
                    transition[float(a)] = float(t)
    print(f"wrote {path}")
    print("first weight t where the full support becomes extremal, per atom a:")
    for a in a_grid:
        t_star = transition.get(float(a))
        label = "never" if t_star is None else f"{t_star:.3f}"
        marker = " (always tail)" if t_star is None else ""
        print(f"  a = {float(a):.3f}: t* = {label}{marker}")
    # atoms above 1/2 must be full-support for every weight
    above_half = [float(a) for a in a_grid if a > 0.5]
    always_full = [a for a in above_half if transition.get(a) == float(t_grid[0])]
    print(
        f"atoms above 1/2 that are full-support at the smallest weight: "
        f"{len(always_full)} of {len(above_half)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
