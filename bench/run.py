#!/usr/bin/env python3
"""jkoflow benchmark: seeded scenario workloads run through ``jkoflow.cli.main``.

Usage, from the root of a checkout (the package is loaded from ``src/``):

    python3 bench/run.py --workload heat_flow --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (run_ref, setup_s, peak_rss_mb);
``--trace 1`` runs the scenario once untraced and once traced and prints
the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Exit code 2 means
the benchmark could not run (no ``src/jkoflow`` here, or a bad argument).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import checks
import kernels
import workloads
from reference import Reference

SETUP_REPEATS = (4, 4)  # fresh interpreters before and after the calls; setup_s is their median

END_TO_END = {"run_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics as (name, unit, better); kernels.names() follow them
PER_LAYER = (
    ("cli.parse_s", "s", "lower"),
    ("cli.build_s", "s", "lower"),
    ("cli.csv_s", "s", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
    ("cli.probe_s", "s", "lower"),
    ("presets.profile_s", "s", "lower"),
    ("geometry.density_builds", "count", "lower"),
    ("geometry.density_build_s", "s", "lower"),
    ("geometry.w2_s", "s", "lower"),
    ("flow.run_flow_calls", "count", "lower"),
    ("flow.run_flow_s", "s", "lower"),
    ("flow.self_s", "s", "lower"),
    ("flow.step_diag_s", "s", "lower"),
    ("flow.estimate_s", "s", "lower"),
    ("jko.solve_calls", "count", "lower"),
    ("jko.solve_s", "s", "lower"),
    ("jko.solve_p50_ms", "ms", "lower"),
    ("jko.solve_p99_ms", "ms", "lower"),
    ("jko.iterations", "count", "lower"),
    ("jko.iterations_max", "count", "lower"),
    ("jko.us_per_iteration", "us", "lower"),
    ("jko.objective_evals", "count", "lower"),
    ("jko.accept_ratio", "ratio", "higher"),
    ("jko.el_residual_s", "s", "lower"),
    ("jko.nonoptimal_step_frac", "ratio", "lower"),
    ("energy.value_calls", "count", "lower"),
    ("energy.value_s", "s", "lower"),
    ("energy.gradient_calls", "count", "lower"),
    ("energy.gradient_s", "s", "lower"),
    ("transport.cost_calls", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

# printed with the trace but kept out of the JSON: each reads exactly 0 on
# the workloads without the probe or coupling it times
TRACE_ONLY = (
    ("flow.contraction_s", "s"),
    ("flow.weak_form_s", "s"),
    ("transport.cost_s", "s"),
    ("transport.convexity_s", "s"),
)

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import jkoflow.cli as cli
scenario = cli.parse_scenario(open(sys.argv[1], encoding="utf-8").read())
cli.build_flow_config(scenario)
print(time.perf_counter() - t0)
"""

PROBE_SPANS = ("flow.estimate_report", "flow.contraction_probe",
               "flow.weak_form_residual", "transport.convexity_probe")
PROFILE_SPANS = ("presets.gaussian_profile", "presets.bump_profile",
                 "presets.barenblatt_profile", "presets.profile_grid", "geometry.from_grid")


def source_digest(src: Path) -> str:
    """Hash of every file under src/, so determinism records follow the code."""
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def measure_setup(root: Path, scenario_path: Path, repeats: int) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(scenario_path)],
            cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Runner:
    """Runs one workload/seed through cli.main and checks every run."""

    def __init__(self, root: Path, workload: str, seed: int, size, ref_tol):
        import jkoflow.cli

        self.cli = jkoflow.cli
        self.workload = workload
        self.spec = workloads.scenario(workload, seed, size)
        self.ref_tol = ref_tol
        self.base = root / ".bench_out" / f"{workload}-{seed}"
        shutil.rmtree(self.base, ignore_errors=True)
        self.base.mkdir(parents=True)
        self.scenario_path = self.base / "scenario.yaml"
        self.scenario_path.write_text(workloads.scenario_yaml(workload, seed, size))
        key = f"{source_digest(root / 'src')}-{workload}-{seed}-{size.n}x{size.n_steps}"
        self.digest_file = root / ".bench_out" / "digests" / key
        self.times: list[float] = []
        self.relative: list[float] = []  # times in reference blocks
        self.results: list[checks.RunCheck] = []

    def once(self, tracer=None, reference: Reference | None = None) -> float:
        """One checked call; with a reference, its time in reference blocks is kept too."""
        out = self.base / f"run{len(self.times)}"
        argv = [str(self.scenario_path), "--output-dir", str(out), "--quiet"]
        main = self.cli.main if tracer is None else tracer.span("cli.main", self.cli.main)

        def call():
            try:
                return main(argv)
            except Exception:  # a crash is a failed run, reported with the others
                traceback.print_exc()
                return None

        if reference is None:
            t0 = perf_counter()
            rc = call()
            elapsed = perf_counter() - t0
        else:
            rc, elapsed, relative = reference.timed(call)
            self.relative.append(relative)
        result = checks.check_run(out, rc, self.spec, self.workload, self.ref_tol)
        self._check_determinism(result)
        shutil.rmtree(out, ignore_errors=True)
        self.times.append(elapsed)
        self.results.append(result)
        return elapsed

    def _check_determinism(self, result: checks.RunCheck) -> None:
        if not result.digest:
            return
        first = next((r.digest for r in self.results if r.digest), None)
        if first is None and self.digest_file.exists():
            first = self.digest_file.read_text().strip()
        if first is None:
            self.digest_file.parent.mkdir(parents=True, exist_ok=True)
            self.digest_file.write_text(result.digest + "\n")
        elif first != result.digest:
            result.problems.append("CSV outputs differ from an earlier run of this seed")

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.results)


def layer_metrics(spans, results, untraced_s: float, traced_s: float) -> dict[str, float]:
    it = spans.iterations
    solves = spans.durations("jko.solve_step")
    objective_evals = spans.count("jko.objective")
    last = results[-1]
    return {
        "cli.parse_s": spans.total("cli.parse_scenario"),
        "cli.build_s": spans.total("cli.build_flow_config"),
        "cli.csv_s": spans.total("cli.trajectory_csv", "cli.diagnostics_csv"),
        "cli.csv_bytes": last.csv_bytes,
        "cli.probe_s": spans.total(*PROBE_SPANS),
        "presets.profile_s": spans.total(*PROFILE_SPANS, parents=("cli.build_flow_config",)),
        "geometry.density_builds": spans.count("geometry.ParticleDensity"),
        "geometry.density_build_s": spans.total("geometry.ParticleDensity"),
        "geometry.w2_s": spans.total("geometry.w2_distance"),
        "flow.run_flow_calls": spans.count("flow.run_flow"),
        "flow.run_flow_s": spans.total("flow.run_flow"),
        "flow.self_s": spans.self_total("flow.run_flow"),
        "flow.step_diag_s": spans.total(
            "energy.energy_value", "geometry.w2_distance", "jko.euler_lagrange_residual",
            parents=("flow.run_flow",),
        ),
        "flow.estimate_s": spans.total("flow.estimate_report"),
        "flow.contraction_s": spans.total("flow.contraction_probe"),
        "flow.weak_form_s": spans.total("flow.weak_form_residual"),
        "jko.solve_calls": int(solves.size),
        "jko.solve_s": float(solves.sum()),
        "jko.solve_p50_ms": float(np.percentile(solves, 50)) * 1e3 if solves.size else 0.0,
        "jko.solve_p99_ms": float(np.percentile(solves, 99)) * 1e3 if solves.size else 0.0,
        "jko.iterations": int(it.sum()),
        "jko.iterations_max": int(it.max()) if it.size else 0,
        "jko.us_per_iteration": float(solves.sum()) / max(int(it.sum()), 1) * 1e6,
        "jko.objective_evals": objective_evals,
        "jko.accept_ratio": int(it.sum()) / max(objective_evals, 1),
        "jko.el_residual_s": spans.total("jko.euler_lagrange_residual"),
        "jko.nonoptimal_step_frac": last.nonoptimal / max(last.population_steps, 1),
        "energy.value_calls": spans.count("energy.energy_value"),
        "energy.value_s": spans.total("energy.energy_value"),
        "energy.gradient_calls": spans.count("energy.energy_gradient"),
        "energy.gradient_s": spans.total("energy.energy_gradient"),
        "transport.cost_calls": spans.count("transport.cost_evaluate", "transport.cost_partial"),
        "transport.cost_s": spans.total("transport.cost_evaluate", "transport.cost_partial"),
        "transport.convexity_s": spans.total("transport.convexity_probe"),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": int(spans.dur.size),
    }


def _line(name: str, value, unit: str) -> None:
    print(f"{name:<34} {value:>14.6g} {unit}" if isinstance(value, float)
          else f"{name:<34} {value:>14} {unit}")


def _report_outputs(runner: Runner) -> None:
    last = runner.results[-1]
    _line("failed_frac", runner.failed / len(runner.results), "ratio")
    _line("nonoptimal_step_frac", last.nonoptimal / max(last.population_steps, 1), "ratio")
    if last.ref_l1 is not None:
        _line("ref_l1", last.ref_l1, "1")
    for i, r in enumerate(runner.results):
        for problem in r.problems:
            print(f"run {i} failed: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="N=16, 2 steps, no reference tolerance: for the smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "jkoflow" / "cli.py").is_file():
        print(f"no src/jkoflow under {root}: run from the root of a jkoflow checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    size = workloads.Size(16, 2) if args.toy else workloads.FULL[args.workload]
    ref_tol = None if args.toy else workloads.REF_L1_TOL.get(args.workload)

    if args.trace:
        return traced(root, args, size, ref_tol)
    runner = Runner(root, args.workload, args.seed, size, ref_tol)
    before, after = (1, 0) if args.toy else SETUP_REPEATS
    setup = measure_setup(root, runner.scenario_path, before)
    reference = Reference()
    spent = 0.0
    while not runner.times or spent + median(runner.times) <= args.seconds:
        spent += runner.once(reference=reference)
    setup += measure_setup(root, runner.scenario_path, after)
    metrics = {
        "run_ref": median(runner.relative),
        "setup_s": median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"workload {args.workload} seed {args.seed}: {len(runner.times)} run(s), "
          f"{len(setup)} set-up(s), {len(reference.blocks)} reference block(s)")
    for name, unit in END_TO_END.items():
        _line(name, metrics[name], unit)
    _line("run_s", median(runner.times), "s")
    _line("reference_block_ms", median([d for _, d in reference.blocks]) * 1e3, "ms")
    _report_outputs(runner)
    _emit(runner, {k: (metrics[k], u) for k, u in END_TO_END.items()})
    return 0


def traced(root: Path, args, size, ref_tol) -> int:
    from tracing import Spans, Tracer

    runner = Runner(root, args.workload, args.seed, size, ref_tol)
    untraced_s = runner.once()
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = runner.once(tracer)
    finally:
        tracer.remove()
    tracer.save(root / ".bench_out" / f"spans-{args.workload}.npz")
    layer = layer_metrics(Spans(tracer), runner.results, untraced_s, traced_s)
    kernel, kernel_absent = kernels.run(block_s=0.002 if args.toy else 0.02)
    layer.update(kernel)

    print(f"workload {args.workload} seed {args.seed}: untraced run_s {untraced_s:.4f} s, "
          f"traced run_s {traced_s:.4f} s")
    for name, unit, _ in PER_LAYER:
        _line(name, layer[name], unit)
    for name, unit in TRACE_ONLY:
        _line(name, layer[name], unit)
    for name in kernels.names():
        if name in layer:
            _line(name, layer[name], "us")
    for name in tracer.absent + kernel_absent:
        print(f"absent: {name}")
    _report_outputs(runner)
    units = {name: unit for name, unit, _ in PER_LAYER}
    units.update((name, "us") for name in kernels.names())
    _emit(runner, {k: (layer[k], u) for k, u in units.items() if k in layer})
    return 0


def _emit(runner: Runner, metrics: dict[str, tuple[float, str]]) -> None:
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": len(runner.results),
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
