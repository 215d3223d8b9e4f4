"""Coupled evolution of several populations by implicit minimizing steps.

Each step advances every population once: population i minimizes its step
objective with all other populations frozen at the previous step (a Jacobi
step), so the step problems are independent and run_flow solves them
together, one solve_steps call per step for each group of populations that
share a particle count.  Diagnostics (energy, coupling value, squared step
length, solver and optimality residuals) come with each step's solution and
are recorded every step even when states are thinned.

The module also carries the verification side: an a-priori estimate report
(energy bound and summed squared step lengths), a two-flow contraction
probe, and a discrete weak-form residual with a computable error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .energy import InternalEnergy, energy_gradient, energy_value, mccann_check
from .errors import InvalidInputError, NumericalFailureError
from .geometry import Domain, ParticleDensity, product_w2
from .jko import StepProblem, solve_steps
from .transport import CostFunction, require_certified


@dataclass(frozen=True)
class Coupling:
    """A population's interaction term: cost plus the populations it couples.

    ``members`` lists the population indices filling the cost slots in
    order; the owning population must appear exactly once.
    """

    cost: CostFunction
    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(int(m) for m in self.members))
        if len(self.members) != self.cost.arity:
            raise InvalidInputError("coupling members must fill every cost slot")


@dataclass(frozen=True)
class PopulationSpec:
    initial: ParticleDensity
    energy: InternalEnergy
    coupling: Coupling | None = None


@dataclass(frozen=True)
class FlowConfig:
    populations: tuple[PopulationSpec, ...]
    h: float
    n_steps: int
    record_every: int = 1
    tol: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "populations", tuple(self.populations))
        if len(self.populations) < 2:
            raise InvalidInputError("a flow needs at least two populations")
        if not (np.isfinite(self.h) and self.h > 0):
            raise InvalidInputError("step size h must be positive")
        if self.n_steps < 1:
            raise InvalidInputError("need at least one step")
        if self.record_every < 1:
            raise InvalidInputError("record_every must be a positive integer")
        if self.tol is not None and not 0 < self.tol < np.inf:
            raise InvalidInputError("tol must be positive and finite")
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
            require_certified(c.cost, f"population {i}")
            if c.members.count(i) != 1:
                raise InvalidInputError(
                    f"population {i} must appear exactly once in its coupling"
                )
            for m in c.members:
                if not 0 <= m < len(self.populations):
                    raise InvalidInputError(f"coupling member {m} out of range")
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


@dataclass(frozen=True)
class StepDiagnostics:
    step: int
    time: float
    population: int
    energy: float
    coupling: float
    w2_sq: float
    residual: float
    el_residual: float
    objective: float
    iterations: int


@dataclass(frozen=True)
class FlowTrajectory:
    config: FlowConfig
    steps: tuple[int, ...]
    times: tuple[float, ...]
    states: tuple[tuple[ParticleDensity, ...], ...]
    diagnostics: tuple[StepDiagnostics, ...]

    @property
    def final(self) -> tuple[ParticleDensity, ...]:
        return self.states[-1]


def _step_problem(config: FlowConfig, state, i: int) -> StepProblem:
    p = config.populations[i]
    if p.coupling is None:
        return StepProblem(prev=state[i], energy=p.energy, h=config.h, tol=config.tol)
    slot = p.coupling.members.index(i)
    frozen = tuple(state[m] for m in p.coupling.members if m != i)
    return StepProblem(
        prev=state[i], energy=p.energy, h=config.h, cost=p.coupling.cost,
        frozen=frozen, slot=slot, tol=config.tol,
    )


def run_flow(config: FlowConfig) -> FlowTrajectory:
    state = tuple(p.initial for p in config.populations)
    steps = [0]
    times = [0.0]
    states = [state]
    diagnostics = []
    groups: dict[int, list[int]] = {}  # particle count -> populations, in order
    for i, p in enumerate(config.populations):
        groups.setdefault(p.initial.n, []).append(i)
    for k in range(1, config.n_steps + 1):
        solutions = [None] * len(config.populations)
        for members in groups.values():
            try:
                solved = solve_steps([_step_problem(config, state, i) for i in members])
            except NumericalFailureError as err:
                raise NumericalFailureError(
                    f"step {k}, population {members[err.row]}: {err}", residual=err.residual
                ) from err
            for i, sol in zip(members, solved):
                solutions[i] = sol
        for i, sol in enumerate(solutions):
            diagnostics.append(StepDiagnostics(
                step=k,
                time=k * config.h,
                population=i,
                energy=sol.energy,
                coupling=sol.coupling,
                w2_sq=sol.w2_sq,
                residual=sol.residual,
                el_residual=sol.el_residual,
                objective=sol.value,
                iterations=sol.iterations,
            ))
        state = tuple(sol.rho for sol in solutions)
        if k % config.record_every == 0 or k == config.n_steps:
            steps.append(k)
            times.append(k * config.h)
            states.append(state)
    return FlowTrajectory(
        config=config,
        steps=tuple(steps),
        times=tuple(times),
        states=tuple(states),
        diagnostics=tuple(diagnostics),
    )


# ------------------------------------------------------------------ estimates


@dataclass(frozen=True)
class PopulationEstimate:
    population: int
    f_initial: float
    f_final: float
    f_max: float
    f_max_bound: float
    sum_w2_sq: float
    sum_w2_sq_bound: float
    satisfied: bool


@dataclass(frozen=True)
class EstimateReport:
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
        c_bound = p.coupling.cost.partial_bound if p.coupling is not None else 0.0
        f0 = energy_value(p.energy, p.initial)
        f_series = [d.energy for d in traj.diagnostics if d.population == i]
        w2_sum = math.fsum(d.w2_sq for d in traj.diagnostics if d.population == i)
        f_max = max([f0] + f_series)
        f_final = f_series[-1] if f_series else f0
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


@dataclass(frozen=True)
class ContractionReport:
    status: str  # "PASS", "FAIL", or "SKIPPED"
    reason: str
    max_increase: float
    normalized_rate: float
    distances: tuple[float, ...]


def contraction_probe(
    traj: FlowTrajectory,
    other_initials: Sequence[ParticleDensity],
    slack: float = 1e-3,
) -> ContractionReport:
    """Rerun the flow of ``traj`` from ``other_initials``; watch the product distance.

    With displacement-convex internal energies (checked here) no population's
    own step expands W2, but Jacobi steps freeze the partners, so coupled
    populations can expand the product distance by ||M||_2 per step, M the
    Jacobi update of their translations (1 + 1.3e-6 at h = 0.01 and 1.028 at
    h = 0.5 for the barycenter3 couplings): a FAIL at large h reports that,
    not a solver fault.  Skipped when some energy fails the convexity check.
    """
    config = traj.config
    for i, p in enumerate(config.populations):
        report = mccann_check(p.energy)
        if not report.satisfied:
            return ContractionReport(
                status="SKIPPED",
                reason=f"McCann check failed for population {i}",
                max_increase=math.nan, normalized_rate=math.nan, distances=(),
            )
    other_initials = tuple(other_initials)
    if len(other_initials) != len(config.populations):
        raise InvalidInputError("need one alternative initial state per population")
    for p, rho in zip(config.populations, other_initials):
        if rho.n != p.initial.n or rho.domain != p.initial.domain:
            raise InvalidInputError(
                "alternative initial states must match in particle count and domain"
            )
    import dataclasses

    config_b = dataclasses.replace(
        config,
        populations=tuple(
            dataclasses.replace(p, initial=rho)
            for p, rho in zip(config.populations, other_initials)
        ),
    )
    traj_b = run_flow(config_b)
    distances = tuple(
        product_w2(sa, sb) for sa, sb in zip(traj.states, traj_b.states)
    )
    increases = np.diff(np.array(distances))
    max_increase = float(np.max(increases)) if increases.size else 0.0
    max_increase = max(max_increase, 0.0)
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


@dataclass(frozen=True)
class TestFunction:
    """Space-time test function with analytic derivative bounds.

    ``value`` and ``dx`` are vectorized in x for fixed t.  ``sup_dx`` and
    ``sup_dxx`` must dominate the corresponding space derivatives on the
    whole space-time slab; they enter the residual bound.
    """

    __test__ = False  # "Test" prefix is the math term, not a pytest marker

    value: Callable[[float, np.ndarray], np.ndarray]
    dx: Callable[[float, np.ndarray], np.ndarray]
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
        tt = t / t_cut
        return (1.0 - tt * tt) ** 3 if abs(tt) < 1.0 else 0.0

    last = (None, None)  # the latest positions and their spatial factors

    def space(x):
        # the weak form takes value twice and dx once at each state's
        # positions; an array that is read-only and owns its data (a
        # ParticleDensity's) cannot change, so those calls share one evaluation
        nonlocal last
        x = np.asarray(x, dtype=float)
        seen, factors = last
        if x is not seen or x.flags.writeable or x.base is not None:
            u = (x - center) / w
            inside = np.abs(u) < 1.0
            factors = (np.where(inside, (1.0 - u * u) ** 3, 0.0),
                       np.where(inside, -6.0 * u * (1.0 - u * u) ** 2 / w, 0.0))
            last = (x, factors)
        return factors

    def value(t, x):
        return s(t) * space(x)[0]

    def dx(t, x):
        return s(t) * space(x)[1]

    return TestFunction(
        value=value,
        dx=dx,
        sup_dx=96.0 / (25.0 * math.sqrt(5.0)) / w,
        sup_dxx=6.0 / (w * w),
    )


@dataclass(frozen=True)
class WeakFormReport:
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
    if config.record_every != 1:
        raise InvalidInputError("weak-form assembly needs every step recorded")
    if not 0 <= population < len(config.populations):
        raise InvalidInputError(f"population {population} out of range")
    i = population
    p = config.populations[i]
    n = p.initial.n
    terms = []
    for k in range(len(traj.states) - 1):
        t_k = traj.times[k]
        t_k1 = traj.times[k + 1]
        state_k = traj.states[k]
        x_new = traj.states[k + 1][i]
        terms.append(float(np.mean(phi.value(t_k1, x_new.positions)
                                   - phi.value(t_k, x_new.positions))))
        drive = n * energy_gradient(p.energy, x_new)
        if p.coupling is not None:  # against the partners frozen at step k
            members = p.coupling.members
            cols = [x_new if m == i else state_k[m] for m in members]
            points = np.stack([c.positions for c in cols], axis=-1)
            drive = drive + p.coupling.cost.partial(members.index(i), points)
        terms.append(float(
            -config.h * np.mean(drive * phi.dx(t_k, x_new.positions))
        ))
    terms.append(float(np.mean(phi.value(traj.times[0], traj.states[0][i].positions))))
    terms.append(float(-np.mean(phi.value(traj.times[-1], traj.final[i].positions))))
    total = math.fsum(terms)
    el_sum = math.fsum(d.el_residual for d in traj.diagnostics if d.population == i)
    w2_sum = math.fsum(d.w2_sq for d in traj.diagnostics if d.population == i)
    bound = phi.sup_dx * el_sum + 0.5 * phi.sup_dxx * w2_sum
    cushion = 1e-12 * (1.0 + bound)
    return WeakFormReport(
        population=i,
        residual=total,
        bound=bound,
        satisfied=abs(total) <= bound + cushion,
    )


# ------------------------------------------------------------------ CSV output


def trajectory_csv(traj: FlowTrajectory, population: int, path) -> None:
    """Recorded states, one row per time: t, particle_0, ..., particle_{N-1}."""
    if not 0 <= population < len(traj.config.populations):
        raise InvalidInputError(f"population {population} out of range")
    n = traj.config.populations[population].initial.n
    lines = ["t," + ",".join(f"particle_{j}" for j in range(n))]
    for t, state in zip(traj.times, traj.states):
        row = ",".join(map(repr, state[population].positions.tolist()))
        lines.append(f"{t!r},{row}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def diagnostics_csv(traj: FlowTrajectory, path) -> None:
    """Per-step per-population diagnostics: t, i, energy, step_w2_sq, el_residual, objective."""
    lines = ["t,i,energy,step_w2_sq,el_residual,objective"]
    for d in traj.diagnostics:
        lines.append(
            f"{d.time!r},{d.population},{d.energy!r},"
            f"{d.w2_sq!r},{d.el_residual!r},{d.objective!r}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
