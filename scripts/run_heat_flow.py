#!/usr/bin/env python3
# Run the two-population entropy flow and summarize how fast each population
# flattens toward the uniform density.
#
# Usage:
#   python3 scripts/run_heat_flow.py [--n 128] [--h 0.01] [--steps 200] [--out DIR]
#
# Prints per-population energy decay, accumulated squared step lengths, and
# the L1 distance of the final particle cloud to the uniform density.  With
# --out the trajectory and diagnostics CSVs are written as well.

import argparse
import math
from pathlib import Path

import numpy as np

from jkoflow import (
    GridDensity,
    diagnostics_csv,
    estimate_report,
    heat_flow_preset,
    l1_distance_to_profile,
    run_flow,
    trajectory_csv,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=128)
    ap.add_argument("--h", type=float, default=1e-2)
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()

    config = heat_flow_preset(n=args.n, h=args.h, n_steps=args.steps)
    traj = run_flow(config)
    uniform = GridDensity(np.array([0.0, 1.0]), np.array([1.0]))

    print(f"heat flow: N={args.n} h={args.h:g} T={args.h * args.steps:g}")
    report = estimate_report(traj)
    for row in report.populations:
        final_l1 = l1_distance_to_profile(traj.final[row.population], uniform)
        sum_el = math.fsum(traj.columns["el_residual"][:, row.population].tolist())
        print(f"  pop {row.population}: energy {row.f_initial:+.6f} -> {row.f_final:+.6f}")
        print(
            f"    sum W2^2 = {row.sum_w2_sq:.3e} (bound {row.sum_w2_sq_bound:.3e}), "
            f"sum EL residual = {sum_el:.3e}"
        )
        print(f"    final L1 to uniform = {final_l1:.4f}")
    print(f"  a-priori estimates satisfied: {report.satisfied}")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for i in range(len(config.populations)):
            trajectory_csv(traj, i, args.out / f"trajectory_pop{i}.csv")
        diagnostics_csv(traj, args.out / "diagnostics.csv")
        print(f"  wrote CSVs to {args.out}")


if __name__ == "__main__":
    main()
