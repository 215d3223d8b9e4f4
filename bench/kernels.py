"""Per-call cost of the step solver's kernels at fixed sizes.

Times the public ``jkoflow.jko`` functions the solver calls once or more
per iteration, on one fixed heat step problem and one fixed porous step
problem, at sizes where a full flow of the solver may not finish.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

SIZES = (128, 1024, 8192)
KERNELS = ("objective", "objective_gradient", "project_ordered_box")
METRIC = {"objective": "objective_us", "objective_gradient": "gradient_us",
          "project_ordered_box": "projection_us"}
BLOCKS = 5  # timed blocks per kernel; the median block gives the figure


def _problems(n: int):
    from jkoflow.energy import entropy_energy, power_law_energy
    from jkoflow.geometry import Domain, from_grid
    from jkoflow.jko import StepProblem
    from jkoflow.presets import barenblatt_profile, gaussian_profile

    unit, wide = Domain(0.0, 1.0), Domain(-1.0, 1.0)
    return {
        "heat": StepProblem(prev=from_grid(gaussian_profile(unit, 0.3, 0.1), n),
                            energy=entropy_energy(), h=0.01),
        "porous": StepProblem(prev=from_grid(barenblatt_profile(0.01, wide), n),
                              energy=power_law_energy(2.0), h=0.002),
    }


def _per_call_us(fn, block_s: float) -> float:
    reps = 1
    while True:  # grow the block until it is long enough to time
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        if perf_counter() - t0 >= block_s:
            break
        reps *= 2
    times = []
    for _ in range(BLOCKS):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        times.append((perf_counter() - t0) / reps)
    return median(times) * 1e6


def run(block_s: float = 0.02) -> tuple[dict[str, float], list[str]]:
    """``kernel.<fn>_us.<problem>.n<N>`` per call, and the kernels not found."""
    import jkoflow.jko as jko

    absent = [f"jkoflow.jko.{k}" for k in KERNELS if not hasattr(jko, k)]
    metrics: dict[str, float] = {}
    for n in SIZES:
        for label, problem in _problems(n).items():
            x = problem.prev.positions.copy()
            calls = {}
            if hasattr(jko, "objective"):
                calls["objective"] = lambda: jko.objective(problem, x)
            if hasattr(jko, "objective_gradient"):
                g = jko.objective_gradient(problem, x)
                if not np.all(np.isfinite(g)):
                    raise ValueError(f"non-finite gradient on the {label} problem at N={n}")
                calls["objective_gradient"] = lambda: jko.objective_gradient(problem, x)
                if hasattr(jko, "project_ordered_box"):
                    trial = x - 0.5 * n * g  # the solver's first trial point
                    calls["project_ordered_box"] = lambda: jko.project_ordered_box(
                        problem.domain, trial
                    )
            for kernel, fn in calls.items():
                name = f"kernel.{METRIC[kernel]}.{label}.n{n}"
                metrics[name] = _per_call_us(fn, block_s)
    return metrics, absent


def names() -> list[str]:
    return [f"kernel.{METRIC[k]}.{p}.n{n}" for n in SIZES for p in ("heat", "porous")
            for k in KERNELS]
