#!/usr/bin/env python3
# Compare two checkouts of jkoflow in one interpreter, call by call.
#
# Usage:
#   python3 scripts/ab_compare.py BASE CHANGE [--scenario PATH] [--pairs N]
#                                 [--what run_flows|main]
#
# BASE and CHANGE are the roots of two checkouts.  Each tree's src/jkoflow is
# copied under its own package name (jkoflow_base, jkoflow_change) into a
# temporary directory, and both are imported here.  Both sides run the
# scenario through their cli.main a few times to warm up; then N pairs of
# calls alternate the two sides, the side that goes first flipping every
# pair.  --what main times the whole cli.main call; --what run_flows times
# only its run_flows call (the flow and its contraction reruns).
#
# Prints each side's median and quartiles in ms, the median over the pairs
# of the ratio change/base, and in how many pairs the change was faster.
# It also checks that both sides' trajectories (every population's
# positions) and diagnostics columns are equal to the bit; the exit code is
# 0 when they are and 1 when they are not.  Timing both trees in one process
# cancels most of a shared host's drift, which separate processes read as
# noise.

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

WARMUP = 3
SIDES = ("base", "change")


def load(tree: Path, name: str, into: Path):
    """The cli module of the checkout at ``tree``, imported as package ``name``."""
    shutil.copytree(tree / "src" / "jkoflow", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def timed_flows(cli, record: dict):
    """Wrap the run_flows that ``cli`` calls: each call's seconds and result go to ``record``."""
    run_flows = cli.run_flows

    def wrapped(configs):
        t0 = perf_counter()
        result = run_flows(configs)
        record["run_flows"] = perf_counter() - t0
        record["trajectories"] = result
        return result

    cli.run_flows = wrapped


def call(cli, record: dict, argv: list[str]) -> None:
    t0 = perf_counter()
    code = cli.main(argv)
    record["main"] = perf_counter() - t0
    if code != 0:
        raise SystemExit(f"{cli.__name__}.main exited {code}")


def same_bits(a, b) -> bool:
    """Whether two tuples of trajectories hold equal positions and columns, to the bit."""
    if len(a) != len(b):
        return False
    for ta, tb in zip(a, b):
        if len(ta.positions) != len(tb.positions) or sorted(ta.columns) != sorted(tb.columns):
            return False
        pairs = list(zip(ta.positions, tb.positions))
        pairs += [(ta.columns[k], tb.columns[k]) for k in ta.columns]
        if not all(x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
                   for x, y in pairs):
            return False
    return True


def main() -> int:
    ap = argparse.ArgumentParser(description="A/B timing of two jkoflow checkouts in one "
                                             "interpreter, with a to-the-bit output check.")
    ap.add_argument("base", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--scenario", type=Path, default=Path("scenarios/barycenter3.yaml"))
    ap.add_argument("--pairs", type=int, default=150)
    ap.add_argument("--what", choices=("run_flows", "main"), default="main")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    scenario = args.scenario.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp / "packages"))
        clis, records, argvs = {}, {}, {}
        for side, tree in zip(SIDES, (args.base, args.change)):
            clis[side] = load(tree.resolve(), f"jkoflow_{side}", tmp / "packages")
            records[side] = {}
            timed_flows(clis[side], records[side])
            argvs[side] = [str(scenario), "--output-dir", str(tmp / side), "--quiet"]
        for _ in range(WARMUP):
            for side in SIDES:
                call(clis[side], records[side], argvs[side])
        equal = same_bits(records["base"]["trajectories"], records["change"]["trajectories"])
        times = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                call(clis[side], records[side], argvs[side])
                times[side].append(records[side][args.what])
    ratios = [c / b for b, c in zip(times["base"], times["change"])]
    wins = sum(c < b for b, c in zip(times["base"], times["change"]))
    print(f"{scenario.name}, {args.what}, {args.pairs} pairs after {WARMUP} warm-up calls each")
    for side in SIDES:
        q1, q2, q3 = statistics.quantiles(times[side], n=4)
        print(f"{side:>6}: median {1e3 * q2:.3f} ms, quartiles {1e3 * q1:.3f} / {1e3 * q3:.3f} ms")
    print(f"change/base: median ratio {statistics.median(ratios):.4f}; "
          f"change faster in {wins} of {args.pairs} pairs")
    print(f"trajectories and columns equal to the bit: {'yes' if equal else 'NO'}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
