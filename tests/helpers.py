"""Shared generators for the test suite (deterministic, seeded by caller)."""

import dataclasses

import numpy as np
import yaml

from jkoflow import Domain, GridDensity, InternalEnergy, ParticleDensity, from_grid
from jkoflow.flow import FlowTrajectory, _step_problem
import jkoflow.jko
from jkoflow.jko import COLUMNS, _Rows


def spread_particles(rng, domain, n, fill=0.9):
    """Random sorted particles with gaps bounded away from zero.

    Gaps are drawn uniform in [0.3, 1.7] then rescaled so the configuration
    occupies a random subinterval covering `fill` of the domain at most.
    Keeps finite differences and log terms well conditioned.
    """
    if n == 1:
        return ParticleDensity(domain, rng.uniform(domain.lower, domain.upper, size=1))
    gaps = rng.uniform(0.3, 1.7, size=n - 1)
    x = np.concatenate([[0.0], np.cumsum(gaps)])
    width = rng.uniform(0.5, 1.0) * fill * domain.length
    x = x / x[-1] * width
    slack = domain.length - width
    x = x + domain.lower + rng.uniform(0.0, 1.0) * slack
    return ParticleDensity(domain, x)


def uniform_particles(domain, n):
    g = GridDensity(
        np.array([domain.lower, domain.upper]), np.array([1.0 / domain.length])
    )
    return from_grid(g, n)


def grid_profile(domain, values_fn, cells=512):
    """GridDensity sampling values_fn at cell midpoints, normalized."""
    edges = np.linspace(domain.lower, domain.upper, cells + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    vals = np.maximum(np.asarray(values_fn(mids), dtype=float), 0.0)
    mass = float(np.sum(vals * np.diff(edges)))
    return GridDensity(edges, vals / mass)


def wrong_sign_energy(c):
    """f = c s^2 with the pressure of f' = -2 c s: p = -3 c s^2 and p' = -6 c s.

    The gradient does not belong to the value, so a Newton direction climbs
    the step objective and the line search has to fail.
    """
    return InternalEnergy(lambda s: c * s * s, lambda s: -3.0 * c * s * s,
                          lambda s: -6.0 * c * s, False)


def _dump(value):
    """The YAML data that the scenario reader turns back into ``value``."""
    if dataclasses.is_dataclass(value):
        return {f.name: _dump(getattr(value, f.name)) for f in dataclasses.fields(value)
                if getattr(value, f.name) != f.default}
    if isinstance(value, tuple):  # pairs were read from a mapping
        return dict(value) if value and isinstance(value[0], tuple) else [_dump(v) for v in value]
    return value


def serialize_scenario(s):
    """Canonical YAML for a parsed Scenario; parse(serialize(s)) == s."""
    return yaml.safe_dump(_dump(s), sort_keys=False, default_flow_style=False)


def reference_run_flow(config):
    """run_flow built afresh at every step: one step of a new kernel per time step and
    group of populations that share N, on step problems made from the state, with the
    trajectory's arrays stacked from the steps' StepSolutions."""
    state = tuple(p.initial for p in config.populations)
    steps, states, solutions = [0], [state], []
    groups = {}
    for i, p in enumerate(config.populations):
        groups.setdefault(p.initial.n, []).append(i)
    for k in range(1, config.n_steps + 1):
        solved = [None] * len(config.populations)
        for members in groups.values():
            step = _Rows([_step_problem(config, state, i) for i in members]).step()
            for r, i in enumerate(members):
                solved[i] = step.solution(config.domain, r)
        solutions.append(solved)
        state = tuple(sol.rho for sol in solved)
        if k % config.record_every == 0 or k == config.n_steps:
            steps.append(k)
            states.append(state)
    positions = tuple(np.array([s[i].positions for s in states])
                      for i in range(len(config.populations)))
    field = {"objective": "value"}  # StepSolution's name of each column, where it differs
    columns = {name: np.array([[getattr(sol, field.get(name, name)) for sol in solved]
                               for solved in solutions]) for name in COLUMNS}
    return FlowTrajectory(config, tuple(steps), tuple(k * config.h for k in steps), positions,
                          columns)


def leak_past_wall(monkeypatch, wall):
    """Make run_flow's solves put the second row's end particle at ``wall`` one ulp past it
    (population 1 when the first two populations share one N)."""
    minimize = jkoflow.jko._minimize

    def leaky(rows, x, at):
        x, at, res, iters = minimize(rows, x, at)
        x = x.copy()
        if wall == "lower":
            x[rows.n] = np.nextafter(rows.domain.lower, -np.inf)
        else:
            x[2 * rows.n - 1] = np.nextafter(rows.domain.upper, np.inf)
        return x, at, res, iters

    monkeypatch.setattr(jkoflow.jko, "_minimize", leaky)
