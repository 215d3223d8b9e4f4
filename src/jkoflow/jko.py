"""One implicit step of the coupled gradient flow for a single population.

The step minimizes, over sorted particle vectors x in the domain box,

    E(x) = (1/N) sum_j (x_j - prev_j)^2
         + 2 h [ F(x) + (1/N) sum_j c(frozen_1[j], ..., x_j, ..., frozen_m[j]) ]

with every other population frozen at its previous state and coupled index
by index (rank j to rank j).  The minimizer is found by projected gradient
descent with Barzilai-Borwein step sizes and Armijo backtracking; the
projection onto {sorted} intersected with the domain box is isotonic
regression followed by clamping, which is exact for uniform weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import isotonic_regression

from .energy import InternalEnergy, energy_gradient, energy_value
from .errors import InvalidInputError, NumericalFailureError
from .geometry import Domain, ParticleDensity
from .transport import CostFunction

ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 60
MAX_ITERS = 100_000
NONMONOTONE_WINDOW = 10  # Grippo reference window for the BB line search


@dataclass(frozen=True)
class StepProblem:
    """Data of one implicit step for one population.

    ``frozen`` holds the other populations' current states in population
    order with this population removed; ``slot`` is this population's
    coordinate in the cost.  ``cost`` may be None for an uncoupled step.
    """

    prev: ParticleDensity
    energy: InternalEnergy
    h: float
    cost: CostFunction | None = None
    frozen: tuple[ParticleDensity, ...] = ()
    slot: int = 0
    tol: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.h) or self.h <= 0:
            raise InvalidInputError(f"step size h must be positive, got {self.h!r}")
        if self.cost is not None:
            if len(self.frozen) != self.cost.arity - 1:
                raise InvalidInputError(
                    "frozen tuple must hold every other coupled population"
                )
            if not 0 <= self.slot < self.cost.arity:
                raise InvalidInputError(f"slot {self.slot} out of range")
            for m in self.frozen:
                if m.n != self.prev.n:
                    raise InvalidInputError("coupled populations must share one N")
                if m.domain != self.prev.domain:
                    raise InvalidInputError("coupled populations must share a domain")
        if self.tol is not None and self.tol <= 0:
            raise InvalidInputError("tol must be positive")

    @property
    def domain(self) -> Domain:
        return self.prev.domain

    def default_tol(self) -> float:
        return 1e-9 * np.sqrt(self.prev.n)


@dataclass(frozen=True)
class StepSolution:
    rho: ParticleDensity
    value: float
    residual: float
    iterations: int


def project_ordered_box(domain: Domain, y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto sorted vectors inside the domain box."""
    y = np.asarray(y, dtype=float)
    if np.all(np.diff(y) >= 0.0):
        out = y.copy()
    else:
        out = isotonic_regression(y).x.copy()
    np.clip(out, domain.lower, domain.upper, out=out)
    return out


def _tuple_points(problem: StepProblem, x: np.ndarray) -> np.ndarray:
    cols = [m.positions for m in problem.frozen]
    cols.insert(problem.slot, x)
    return np.stack(cols, axis=-1)


def objective(problem: StepProblem, x: np.ndarray) -> float:
    """E(x) for sorted in-domain positions x."""
    x = np.asarray(x, dtype=float)
    prev = problem.prev.positions
    rho = problem.prev.with_positions(x)
    val = float(np.mean((x - prev) ** 2))
    val += 2.0 * problem.h * energy_value(problem.energy, rho)
    if problem.cost is not None:
        val += 2.0 * problem.h * float(
            np.mean(problem.cost.evaluate(_tuple_points(problem, x)))
        )
    return val


def objective_gradient(problem: StepProblem, x: np.ndarray) -> np.ndarray:
    """dE/dx, same shape as x."""
    x = np.asarray(x, dtype=float)
    prev = problem.prev.positions
    n = prev.size
    rho = problem.prev.with_positions(x)
    g = (2.0 / n) * (x - prev)
    g = g + 2.0 * problem.h * energy_gradient(problem.energy, rho)
    if problem.cost is not None:
        g = g + (2.0 * problem.h / n) * problem.cost.partial(
            problem.slot, _tuple_points(problem, x)
        )
    return g


def _residual(problem: StepProblem, x: np.ndarray, grad: np.ndarray) -> float:
    # fixed-point gap of the natural-scale projected gradient map; the
    # (N/2) scaling turns dE/dx into position units
    n = x.size
    return float(
        np.linalg.norm(x - project_ordered_box(problem.domain, x - 0.5 * n * grad))
    )


def solve_step(problem: StepProblem, initial: ParticleDensity | None = None) -> StepSolution:
    """Minimize the step objective; warm-started at prev unless told otherwise."""
    if initial is None:
        x = problem.prev.positions.copy()
    else:
        if initial.n != problem.prev.n or initial.domain != problem.prev.domain:
            raise InvalidInputError("initial iterate must match prev in N and domain")
        x = initial.positions.copy()
    tol = problem.tol if problem.tol is not None else problem.default_tol()
    n = x.size
    alpha0 = 0.5 * n  # exact prox scale for the pure W2 term
    f = objective(problem, x)
    g = objective_gradient(problem, x)
    window = [f]  # recent objective values; max is nonincreasing, so every
    # accepted iterate stays below the start value
    prev_x = None
    prev_g = None
    iters = 0
    res = _residual(problem, x, g)
    while res > tol:
        if iters >= MAX_ITERS:
            raise NumericalFailureError(
                f"step solver exceeded {MAX_ITERS} iterations", residual=res
            )
        alpha = alpha0
        if prev_x is not None:
            s = x - prev_x
            y = g - prev_g
            sy = float(np.dot(s, y))
            if sy > 0:
                alpha = float(np.clip(np.dot(s, s) / sy, 1e-14, 1e14))
        f_ref = max(window)
        for _ in range(MAX_BACKTRACKS):
            cand = project_ordered_box(problem.domain, x - alpha * g)
            fc = objective(problem, cand)
            if fc <= f_ref + ARMIJO_C1 * float(np.dot(g, cand - x)):
                break
            alpha *= 0.5
        else:
            raise NumericalFailureError(
                f"step solver line search failed at iteration {iters}", residual=res
            )
        prev_x, prev_g = x, g
        x, f = cand, fc
        window.append(f)
        if len(window) > NONMONOTONE_WINDOW:
            window.pop(0)
        g = objective_gradient(problem, x)
        iters += 1
        res = _residual(problem, x, g)
    rho = problem.prev.with_positions(x)
    return StepSolution(rho=rho, value=f, residual=res, iterations=iters)


def euler_lagrange_residual(problem: StepProblem, rho: ParticleDensity) -> float:
    """Max interior-particle defect of the implicit optimality system.

    At particles away from the domain walls the first-order condition is
    x_j - prev_j + h (N g_j + U_j) = 0 with g the internal-energy gradient
    and U the coupling partial; this is the natural-scale objective
    gradient, so a converged step drives it to the solver tolerance.
    """
    x = rho.positions
    grad = objective_gradient(problem, x)
    margin = 1e-12 * problem.domain.length
    interior = (x > problem.domain.lower + margin) & (x < problem.domain.upper - margin)
    if not np.any(interior):
        return 0.0
    return float(np.max(np.abs(0.5 * rho.n * grad[interior])))
