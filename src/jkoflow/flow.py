"""Coupled evolution of several populations by implicit minimizing steps.

Each step advances every population once: population i minimizes its step
objective with all other populations frozen at the previous step (a Jacobi
step), so the step problems are independent.  run_flows runs several flows
of one step count side by side: it builds one step kernel per group of
populations, of all the flows, that share a particle count, step size and
domain, once, and advances it at every step.  A kernel's rows step
independently, so each flow comes out to the bit as it does alone; run_flow
is the one-flow case.  A flow is recorded as arrays: each population's
positions, one row per step, and each step's diagnostics, one column per
name of jko.COLUMNS.  ParticleDensity states are built from them only when
asked for, and trajectory_csv writes the positions as repr text in
whole-array passes (jkoflow._trajectory_text).

The module also carries the verification side: an a-priori estimate report
(energy bound and summed squared step lengths), a two-flow contraction
probe, whose second flow (contraction_rerun) can share the first one's
kernels, and a discrete weak-form residual with a computable error bound.
The probes read the arrays, each in a few whole-array passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import _trajectory_text
from .energy import InternalEnergy, _gap_gradient, energy_value
from .errors import InvalidInputError, NumericalFailureError
from .geometry import Domain, ParticleDensity, _integer
from .jko import COLUMNS, StepProblem, _Rows, _check_h_and_tol
from .transport import QuadraticCost, centred


@dataclass(frozen=True)
class Coupling:
    """A population's interaction term: its cost and the partners it is coupled with.

    The owning population fills the cost's slot 0; ``partners`` lists the
    indices of the distinct other populations that fill slots 1, 2, ...
    in order, integers.
    """

    cost: QuadraticCost
    partners: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "partners",
                           tuple(_integer(m, "a coupling partner") for m in self.partners))
        if not isinstance(self.cost, QuadraticCost):
            raise InvalidInputError("a coupling's cost must be a QuadraticCost")
        if len(self.partners) != self.cost.arity - 1:
            raise InvalidInputError("coupling partners must fill every cost slot but the owner's")


class PopulationSpec(NamedTuple):
    initial: ParticleDensity
    energy: InternalEnergy
    coupling: Coupling | None = None


@dataclass(frozen=True)
class FlowConfig:
    populations: tuple[PopulationSpec, ...]
    h: float
    n_steps: int
    tol: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "populations", tuple(self.populations))
        object.__setattr__(self, "n_steps", _integer(self.n_steps, "n_steps"))
        if len(self.populations) < 2:
            raise InvalidInputError("a flow needs at least two populations")
        _check_h_and_tol(self.h, self.tol)
        if self.n_steps < 1:
            raise InvalidInputError("need at least one step")
        dom = self.populations[0].initial.domain
        for i, p in enumerate(self.populations):
            if p.initial.domain != dom:
                raise InvalidInputError("all populations must share one domain")
            if p.initial.n < 2:
                raise InvalidInputError(
                    f"population {i} needs at least two particles"
                )
            c = p.coupling
            if c is None:
                continue
            if i in c.partners or len(set(c.partners)) != len(c.partners):
                raise InvalidInputError(f"population {i}'s coupling partners must be "
                                        "distinct other populations")
            for m in c.partners:
                if not 0 <= m < len(self.populations):
                    raise InvalidInputError(f"coupling partner {m} out of range")
                if self.populations[m].initial.n != p.initial.n:
                    raise InvalidInputError(
                        "coupled populations must share one particle count"
                    )

    @property
    def domain(self) -> Domain:
        return self.populations[0].initial.domain

    @property
    def horizon(self) -> float:
        return self.h * self.n_steps


@dataclass(frozen=True, eq=False)
class FlowTrajectory:
    """A flow's states and diagnostics at every step, as read-only arrays.

    ``positions[i]`` holds population i's positions, row k at step k and
    time ``times[k]`` = k h, for k = 0, ..., n_steps; ``columns`` maps each
    name of jko.COLUMNS to an (n_steps, populations) array whose row k - 1
    holds step k.  ``states`` and ``final`` are built from the positions on
    first access.
    """

    config: FlowConfig
    times: tuple[float, ...]
    positions: tuple[np.ndarray, ...]
    columns: Mapping[str, np.ndarray]

    def _state(self, j: int) -> tuple[ParticleDensity, ...]:
        return tuple(ParticleDensity(self.config.domain, x[j]) for x in self.positions)

    @cached_property
    def states(self) -> tuple[tuple[ParticleDensity, ...], ...]:
        return tuple(self._state(j) for j in range(len(self.times)))

    @cached_property
    def final(self) -> tuple[ParticleDensity, ...]:
        return self._state(-1)


def _step_problem(config: FlowConfig, state, i: int) -> StepProblem:
    p = config.populations[i]
    if p.coupling is None:
        return StepProblem(prev=state[i], energy=p.energy, h=config.h, tol=config.tol)
    return StepProblem(prev=state[i], energy=p.energy, h=config.h, cost=p.coupling.cost,
                       frozen=tuple(state[m] for m in p.coupling.partners), tol=config.tol)


def run_flows(configs: Sequence[FlowConfig]) -> tuple[FlowTrajectory, ...]:
    """The trajectory of each flow, computed side by side; see the module docstring.

    The flows must share their step count.  A failure reads ``step k,
    population i: ...`` and its ``row`` is the index of the flow that failed.
    """
    configs = tuple(configs)
    if len({config.n_steps for config in configs}) > 1:
        raise InvalidInputError("flows run side by side must share their step count")
    n_steps = configs[0].n_steps if configs else 0
    positions = []  # per flow and population: (n_steps + 1, N), row k at step k
    groups: dict[tuple, list[tuple[int, int]]] = {}  # kernel key -> (flow, population)
    for c, config in enumerate(configs):
        positions.append([np.empty((n_steps + 1, p.initial.n)) for p in config.populations])
        for i, p in enumerate(config.populations):
            positions[c][i][0] = p.initial.positions
            groups.setdefault((p.initial.n, config.h, config.domain), []).append((c, i))
    # one kernel per group, built once: coupled populations share N, so every
    # partner is a row of the same kernel, from which each step refills its row
    kernels = []  # (members, their rows, every step's diagnostics of the rows)
    for members in groups.values():
        couplings = [configs[c].populations[i].coupling for c, i in members]
        partners = [() if cp is None else [members.index((c, m)) for m in cp.partners]
                    for (c, _), cp in zip(members, couplings)]
        problems = [_step_problem(configs[c], [p.initial for p in configs[c].populations], i)
                    for c, i in members]
        table = np.empty((n_steps, len(COLUMNS), len(members)))
        kernels.append((members, _Rows(problems, partners), table))
    for k in range(1, n_steps + 1):
        for members, rows, table in kernels:
            try:
                solved = rows.step()
            except NumericalFailureError as err:
                c, i = members[err.row]
                raise NumericalFailureError(f"step {k}, population {i}: {err}",
                                            residual=err.residual, row=c) from err
            table[k - 1] = solved.columns
            for (c, i), x in zip(members, solved.x):
                positions[c][i][k] = x
    tables = [np.empty((n_steps, len(COLUMNS), len(config.populations))) for config in configs]
    for members, _, table in kernels:
        for r, (c, i) in enumerate(members):
            tables[c][:, :, i] = table[:, :, r]
    return tuple(FlowTrajectory(config, tuple(k * config.h for k in range(n_steps + 1)),
                                tuple(map(_readonly, positions[c])), _columns(tables[c]))
                 for c, config in enumerate(configs))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _columns(table: np.ndarray) -> dict[str, np.ndarray]:
    """The columns of an (n_steps, len(COLUMNS), populations) table, iterations as ints."""
    columns = {name: _readonly(table[:, f]) for f, name in enumerate(COLUMNS)}
    columns["iterations"] = _readonly(columns["iterations"].astype(int))
    return columns


def run_flow(config: FlowConfig) -> FlowTrajectory:
    return run_flows((config,))[0]


# ------------------------------------------------------------------ estimates


class PopulationEstimate(NamedTuple):
    population: int
    f_initial: float
    f_final: float
    f_max: float
    f_max_bound: float
    sum_w2_sq: float
    sum_w2_sq_bound: float
    satisfied: bool


class EstimateReport(NamedTuple):
    populations: tuple[PopulationEstimate, ...]
    satisfied: bool


def estimate_report(traj: FlowTrajectory) -> EstimateReport:
    """A-priori bounds along the computed flow.

    Per population, with C the coupling's partial bound and T the horizon:
    energies never exceed F(0) + C^2 T, and the summed squared step lengths
    are at most 4 h (F(0) - F(final) + C^2 T).  Both follow from comparing
    each step's objective value against the frozen previous state, so a
    converged solver satisfies them up to rounding; the cushion only
    absorbs that.
    """
    config = traj.config
    t_total = config.horizon
    rows = []
    for i, p in enumerate(config.populations):
        c_bound = (0.0 if p.coupling is None
                   else p.coupling.cost.partial_bound(config.domain.length))
        f0 = energy_value(p.energy, p.initial)
        f_series = traj.columns["energy"][:, i].tolist()
        w2_sum = math.fsum(traj.columns["w2_sq"][:, i].tolist())
        f_max = max([f0] + f_series)
        f_final = f_series[-1]
        f_max_bound = f0 + c_bound**2 * t_total
        w2_bound = 4.0 * config.h * (f0 - f_final + c_bound**2 * t_total)
        cushion_f = 1e-9 * (1.0 + abs(f_max_bound))
        cushion_w = 1e-9 * (1.0 + abs(w2_bound))
        ok = f_max <= f_max_bound + cushion_f and w2_sum <= w2_bound + cushion_w
        rows.append(PopulationEstimate(
            population=i, f_initial=f0, f_final=f_final, f_max=f_max,
            f_max_bound=f_max_bound, sum_w2_sq=w2_sum, sum_w2_sq_bound=w2_bound,
            satisfied=ok,
        ))
    return EstimateReport(tuple(rows), all(r.satisfied for r in rows))


# ----------------------------------------------------------------- contraction


class ContractionReport(NamedTuple):
    status: str  # "PASS", "FAIL", or "SKIPPED"
    reason: str
    max_increase: float
    normalized_rate: float
    distances: tuple[float, ...]


def _skip_reason(config: FlowConfig) -> str | None:
    """Why the contraction probe skips a flow, or None when it checks it."""
    for i, p in enumerate(config.populations):
        if not p.energy.displacement_convex:
            return f"McCann check failed for population {i}"
    return None


def contraction_rerun(
    config: FlowConfig, other_initials: Sequence[ParticleDensity]
) -> FlowConfig | None:
    """The flow that the contraction probe compares config's with: config started from
    ``other_initials``, or None when the probe skips config and needs no second flow."""
    if _skip_reason(config) is not None:
        return None
    other_initials = tuple(other_initials)
    if len(other_initials) != len(config.populations):
        raise InvalidInputError("need one alternative initial state per population")
    for p, rho in zip(config.populations, other_initials):
        if rho.n != p.initial.n or rho.domain != p.initial.domain:
            raise InvalidInputError(
                "alternative initial states must match in particle count and domain"
            )
    return replace(config, populations=tuple(
        p._replace(initial=rho) for p, rho in zip(config.populations, other_initials)
    ))


def contraction_probe(
    traj: FlowTrajectory,
    rerun: FlowTrajectory | None,
    slack: float = 1e-3,
) -> ContractionReport:
    """Watch the product distance between the flow of ``traj`` and ``rerun``, the flow
    of its contraction_rerun (None where that is None).

    With displacement-convex internal energies no population's
    own step expands W2, but Jacobi steps freeze the partners, so coupled
    populations can expand the product distance by ||M||_2 per step, M the
    Jacobi update of their translations (1 + 1.3e-6 at h = 0.01 and 1.028 at
    h = 0.5 for the barycenter3 couplings): a FAIL at large h reports that,
    not a solver fault.  Skipped when some energy is not displacement convex.
    """
    config = traj.config
    reason = _skip_reason(config)
    if reason is not None:
        return ContractionReport(
            status="SKIPPED", reason=reason,
            max_increase=math.nan, normalized_rate=math.nan, distances=(),
        )
    if (rerun is None or rerun.config.h != config.h
            or [x.shape for x in rerun.positions] != [x.shape for x in traj.positions]):
        raise InvalidInputError("the contraction probe needs the flow of contraction_rerun")
    # each population's W2 at every step in one reduction; then, per step, the
    # product distance: the root of the sum of their Python-float squares
    w2 = [np.sqrt(np.mean(np.square(a - b), axis=1)).tolist()
          for a, b in zip(traj.positions, rerun.positions)]
    distances = tuple(math.sqrt(sum(w ** 2 for w in step)) for step in zip(*w2))
    increases = np.diff(np.array(distances))
    max_increase = max(float(np.max(increases)), 0.0)
    n_max = max(p.initial.n for p in config.populations)
    rate = max_increase / (config.h + 1.0 / n_max)
    status = "PASS" if max_increase <= slack else "FAIL"
    return ContractionReport(
        status=status,
        reason="product W2 distance stayed nonincreasing within slack"
        if status == "PASS"
        else "product W2 distance increased beyond slack",
        max_increase=max_increase,
        normalized_rate=rate,
        distances=distances,
    )


# ------------------------------------------------------------------ weak form

WEAK_FORM_BLOCK = 4096  # the most positions weak_form_residual takes in one block of steps


class TestFunction(NamedTuple):
    """Space-time test function with analytic derivative bounds.

    ``value`` and ``dx`` are vectorized in x, with the times t broadcast
    against x: weak_form_residual passes a column of times, one per row of
    positions.  ``sup_dx`` and ``sup_dxx`` must dominate the corresponding
    space derivatives on the whole space-time slab; they enter the residual
    bound.
    """

    __test__ = False  # "Test" prefix is the math term, not a pytest marker

    value: Callable[[float | np.ndarray, np.ndarray], np.ndarray]
    dx: Callable[[float | np.ndarray, np.ndarray], np.ndarray]
    sup_dx: float
    sup_dxx: float


def bump_test_function(center: float, half_width: float, t_cut: float) -> TestFunction:
    """Polynomial bump (1-u^2)^3 in space times (1-(t/t_cut)^2)^3 in time.

    Compactly supported in (center +/- half_width) x [0, t_cut), twice
    continuously differentiable, with sup |d_x| = (96/(25 sqrt 5))/w and
    sup |d_xx| = 6/w^2.
    """
    w = float(half_width)
    if w <= 0 or t_cut <= 0:
        raise InvalidInputError("bump width and time cutoff must be positive")

    def s(t):
        tt = np.asarray(t, dtype=float) / t_cut
        v = 1.0 - tt * tt
        return np.where(np.abs(tt) < 1.0, v * v * v, 0.0)  # products: pow's SIMD paths differ

    def space(x):
        u = (np.asarray(x, dtype=float) - center) / w
        return u, 1.0 - u * u, np.abs(u) < 1.0

    def value(t, x):
        u, v, inside = space(x)
        return s(t) * np.where(inside, v * v * v, 0.0)

    def dx(t, x):
        u, v, inside = space(x)
        return s(t) * np.where(inside, -6.0 * u * (v * v) / w, 0.0)

    return TestFunction(
        value=value,
        dx=dx,
        sup_dx=96.0 / (25.0 * math.sqrt(5.0)) / w,
        sup_dxx=6.0 / (w * w),
    )


class WeakFormReport(NamedTuple):
    population: int
    residual: float
    bound: float
    satisfied: bool


def weak_form_residual(
    traj: FlowTrajectory, phi: TestFunction, population: int
) -> WeakFormReport:
    """Defect of the computed flow against the time-discrete weak equation.

    Assembles sum_k <rho^{k+1}, Phi(t_{k+1}) - Phi(t_k)> + <rho^0, Phi(0)>
    - <rho^K, Phi(t_K)> - h sum_k <rho^{k+1}, (N g + U) d_x Phi(t_k)>, whose
    exact part telescopes away; what remains is controlled by the summed
    optimality defects and squared step lengths:

        |R| <= sup|d_x Phi| * sum_k el_k + (1/2) sup|d_xx Phi| * sum_k W2_k^2.

    The bound needs the test function to vanish near the domain walls,
    where particles may sit on the box constraint.
    """
    config = traj.config
    i = _integer(population, "population")
    if not 0 <= i < len(config.populations):
        raise InvalidInputError(f"population {i} out of range")
    x = traj.positions[i]
    # each step's terms depend on its row alone, so the steps go in blocks of
    # rows, whose temporaries the allocator reuses from one call to the next
    steps, rows = len(x) - 1, max(1, WEAK_FORM_BLOCK // x.shape[1])
    terms = [float(np.mean(phi.value(traj.times[0], x[0]))),
             float(-np.mean(phi.value(traj.times[-1], x[-1])))]
    for a in range(0, steps, rows):
        terms += _step_terms(traj, phi, i, a, min(a + rows, steps))
    total = math.fsum(terms)  # exact, so in any order
    el_sum = math.fsum(traj.columns["el_residual"][:, i].tolist())
    w2_sum = math.fsum(traj.columns["w2_sq"][:, i].tolist())
    bound = phi.sup_dx * el_sum + 0.5 * phi.sup_dxx * w2_sum
    cushion = 1e-12 * (1.0 + bound)
    return WeakFormReport(population=i, residual=total, bound=bound,
                          satisfied=abs(total) <= bound + cushion)


def _step_terms(traj: FlowTrajectory, phi: TestFunction, i: int, a: int, b: int) -> list:
    """The weak form's terms of population i's steps k = a, ..., b - 1: <rho^{k+1},
    Phi(t_{k+1}) - Phi(t_k)> of each step, then -h <rho^{k+1}, (N g + U) d_x Phi(t_k)> of each."""
    config, x = traj.config, traj.positions[i]
    p = config.populations[i]
    # row k - a of x_new is rho^{k+1}, of t_k its time t_k
    x_new, times = x[a + 1:b + 1], np.array(traj.times[a:b + 1])[:, None]
    t_k, t_k1 = times[:-1], times[1:]
    # Phi at both times in one call, so that a test function evaluates its
    # spatial factor once; one that ignores t returns a single block
    at_k1, at_k = np.broadcast_to(phi.value(np.array([t_k1, t_k]), x_new), (2, *x_new.shape))
    moved = np.mean(at_k1 - at_k, axis=1)
    drive = 0.0 if p.energy.f is None else x.shape[1] * _gap_gradient(  # zero energy: no drive
        p.energy, x_new.reshape(-1), config.domain.length, b - a)[0].reshape(x_new.shape)
    if p.coupling is not None:  # against the partners frozen at step k
        weights = p.coupling.cost.weights
        m, _ = centred(weights, [traj.positions[j][a:b] for j in p.coupling.partners])
        drive = drive + 2.0 * sum(weights, 0.0) * (x_new - m)
    pushed = -config.h * np.mean(drive * phi.dx(t_k, x_new), axis=1)
    return moved.tolist() + pushed.tolist()


# ------------------------------------------------------------------ CSV output


def trajectory_csv(traj: FlowTrajectory, population: int, path) -> None:
    """States, one row per step: t, particle_0, ..., particle_{N-1}, each float as its
    repr (see _trajectory_text)."""
    i = _integer(population, "population")
    if not 0 <= i < len(traj.positions):
        raise InvalidInputError(f"population {i} out of range")
    with open(path, "wb") as fh:
        _trajectory_text.write(fh, traj.times, traj.positions[i])


def diagnostics_csv(traj: FlowTrajectory, path) -> None:
    """Per-step per-population diagnostics: t, i, energy, step_w2_sq, el_residual, objective."""
    lines = ["t,i,energy,step_w2_sq,el_residual,objective"]
    h, populations = traj.config.h, len(traj.config.populations)
    columns = [traj.columns[name].ravel().tolist()  # step-major, as the rows go
               for name in ("energy", "w2_sq", "el_residual", "objective")]
    for j, (energy, w2_sq, el, objective) in enumerate(zip(*columns)):
        k, i = divmod(j, populations)
        lines.append(f"{(k + 1) * h!r},{i},{energy!r},{w2_sq!r},{el!r},{objective!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
