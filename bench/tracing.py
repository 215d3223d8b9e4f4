"""Spans around jkoflow's public functions, recorded from outside the package.

Each target is wrapped at the name its caller looks up (``from .jko import
solve_step`` in ``flow.py`` binds ``jkoflow.flow.solve_step``, so that is
the name patched).  A span is (name, start, end, parent); spans are kept in
typed arrays while the run goes and turned into per-layer figures at the
end.  A target the installed version no longer has is reported as absent.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

# (module, attribute as the caller looks it up, span name)
FUNCTIONS = (
    ("jkoflow.cli", "parse_scenario", "cli.parse_scenario"),
    ("jkoflow.cli", "build_flow_config", "cli.build_flow_config"),
    ("jkoflow.cli", "trajectory_csv", "cli.trajectory_csv"),
    ("jkoflow.cli", "diagnostics_csv", "cli.diagnostics_csv"),
    ("jkoflow.cli", "gaussian_profile", "presets.gaussian_profile"),
    ("jkoflow.cli", "bump_profile", "presets.bump_profile"),
    ("jkoflow.cli", "barenblatt_profile", "presets.barenblatt_profile"),
    ("jkoflow.cli", "profile_grid", "presets.profile_grid"),
    ("jkoflow.cli", "from_grid", "geometry.from_grid"),
    ("jkoflow.cli", "run_flow", "flow.run_flow"),
    ("jkoflow.flow", "run_flow", "flow.run_flow"),
    ("jkoflow.cli", "estimate_report", "flow.estimate_report"),
    ("jkoflow.cli", "contraction_probe", "flow.contraction_probe"),
    ("jkoflow.cli", "weak_form_residual", "flow.weak_form_residual"),
    ("jkoflow.cli", "convexity_probe", "transport.convexity_probe"),
    ("jkoflow.flow", "solve_step", "jko.solve_step"),
    ("jkoflow.flow", "euler_lagrange_residual", "jko.euler_lagrange_residual"),
    ("jkoflow.jko", "objective", "jko.objective"),
    ("jkoflow.jko", "objective_gradient", "jko.objective_gradient"),
    ("jkoflow.jko", "project_ordered_box", "jko.project_ordered_box"),
    ("jkoflow.jko", "energy_value", "energy.energy_value"),
    ("jkoflow.jko", "energy_gradient", "energy.energy_gradient"),
    ("jkoflow.flow", "energy_value", "energy.energy_value"),
    ("jkoflow.flow", "energy_gradient", "energy.energy_gradient"),
    ("jkoflow.flow", "mccann_check", "energy.mccann_check"),
    ("jkoflow.flow", "w2_distance", "geometry.w2_distance"),
    ("jkoflow.flow", "product_w2", "geometry.product_w2"),
    ("jkoflow.geometry", "w2_distance", "geometry.w2_distance"),
)

# (module, class, method, span name); patched on the class, so every
# instance and every caller goes through the wrapper
METHODS = (
    ("jkoflow.geometry", "ParticleDensity", "__post_init__", "geometry.ParticleDensity"),
    ("jkoflow.transport", "CostFunction", "evaluate", "transport.cost_evaluate"),
    ("jkoflow.transport", "CostFunction", "partial", "transport.cost_partial"),
)


class Tracer:
    """Records nested spans; ``install`` patches the targets, ``remove`` undoes it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.iterations = array("q")  # StepSolution.iterations per solve_step

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, on_result=None):
        """``fn`` wrapped so that every call records one span."""
        nid = self._id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack
        )

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, on_result=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, on_result))

    def install(self) -> None:
        def record_iterations(solution):
            self.iterations.append(int(getattr(solution, "iterations", 0)))

        for module_name, attr, name in FUNCTIONS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.absent.append(f"{module_name}.{attr}")
                continue
            hook = record_iterations if name == "jko.solve_step" else None
            self._patch(module, attr, name, hook)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            if cls is None or attr not in cls.__dict__:
                self.absent.append(f"{module_name}.{cls_name}.{attr}")
                continue
            self._patch(cls, attr, name)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "iterations": np.frombuffer(self.iterations, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class Spans:
    """Queries over finished spans: totals, counts and self time by name."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(tracer.names)
        self.name = a["name"]
        self.parent = a["parent"]
        self.dur = a["end"] - a["start"]
        self.iterations = a["iterations"]
        has_parent = self.parent >= 0
        children = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=self.dur.size
        )
        self.self_time = self.dur - children

    def _mask(self, names, parents=None) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        mask = np.isin(self.name, ids)
        if parents is not None:
            pids = [self.names.index(n) for n in parents if n in self.names]
            has_parent = self.parent >= 0
            parent_name = np.full(self.name.size, -1)
            parent_name[has_parent] = self.name[self.parent[has_parent]]
            mask &= np.isin(parent_name, pids)
        return mask

    def count(self, *names, parents=None) -> int:
        return int(np.count_nonzero(self._mask(names, parents)))

    def total(self, *names, parents=None) -> float:
        return float(np.sum(self.dur[self._mask(names, parents)]))

    def self_total(self, *names) -> float:
        return float(np.sum(self.self_time[self._mask(names)]))

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self._mask((name,))]
