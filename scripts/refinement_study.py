#!/usr/bin/env python3
# Joint refinement study for the entropy flow: double N and halve h per level
# and track (a) the weak-form defect against a fixed interior test function,
# (b) its a-priori bound, and (c) the accumulated squared step lengths.
# All three should shrink roughly like h.
#
# Usage:
#   python3 scripts/refinement_study.py [--levels 3] [--n0 48] [--h0 5e-3] [--T 0.4]

import argparse
import math

from jkoflow import (
    bump_test_function,
    heat_flow_preset,
    run_flow,
    weak_form_residual,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=3)
    ap.add_argument("--n0", type=int, default=48)
    ap.add_argument("--h0", type=float, default=5e-3)
    ap.add_argument("--T", type=float, default=0.4)
    args = ap.parse_args()

    phi = bump_test_function(center=0.5, half_width=0.35, t_cut=0.5 * args.T)
    print(f"{'N':>6} {'h':>10} {'|residual|':>12} {'bound':>12} {'sum W2^2':>12}")
    prev = None
    for level in range(args.levels):
        n = args.n0 * 2**level
        h = args.h0 / 2**level
        steps = round(args.T / h)
        traj = run_flow(heat_flow_preset(n=n, h=h, n_steps=steps))
        report = weak_form_residual(traj, phi, population=0)
        w2_sum = math.fsum(traj.columns["w2_sq"][:, 0].tolist())
        line = f"{n:>6} {h:>10.2e} {abs(report.residual):>12.3e} {report.bound:>12.3e} {w2_sum:>12.3e}"
        if prev is not None:
            ratios = (
                prev[0] / abs(report.residual),
                prev[1] / report.bound,
                prev[2] / w2_sum,
            )
            line += f"   ratios {ratios[0]:.2f} / {ratios[1]:.2f} / {ratios[2]:.2f}"
        print(line)
        prev = (abs(report.residual), report.bound, w2_sum)


if __name__ == "__main__":
    main()
