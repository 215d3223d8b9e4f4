"""One implicit step of the coupled gradient flow for a single population.

The step minimizes, over sorted particle vectors x in the domain box,

    E(x) = (1/N) sum_j (x_j - prev_j)^2
         + 2 h [ F(x) + (1/N) sum_j c(frozen_1[j], ..., x_j, ..., frozen_m[j]) ]

with every other population frozen at its previous state and coupled index
by index (rank j to rank j).  The internal energy couples only neighbouring
gaps, so the Hessian of E is tridiagonal,

    H = (2/N) I + 2h D^T diag(q) D + (2h/N) diag(c_ss),

with D the gap difference operator, q the gap curvature of the energy and
c_ss the cost's second partial in this population's slot.  The minimizer is
found by damped Newton on H (an L D L^T tridiagonal solve per iteration), the
Lagrangian Newton step of Blanchet, Calvez and Carrillo on the gap
discretization.  Negative curvature is dropped from q and c_ss, so
H >= (2/N) I and every Newton direction descends.  The step length is cut
by a fraction-to-boundary rule that keeps every gap positive and stops a
wall particle exactly at its wall; a wall particle whose descent direction
points out of the box is held fixed (an active set of at most two).
Armijo backtracking on E decides the step, and the iteration stops when the
projected-gradient residual reaches the tolerance.  The iteration runs on
plain position arrays and evaluates each trial point once (one gap pass
and one cost evaluation give E, F, the coupling value, dE/dx and q); a
solve builds one ParticleDensity, the state it returns, and reports E, F,
the coupling value and the EL residual there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import solveh_banded
from scipy.optimize import isotonic_regression

from .energy import InternalEnergy, gap_terms
from .errors import InvalidInputError, NumericalFailureError
from .geometry import Domain, ParticleDensity
from .transport import CostFunction

ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 60
MAX_ITERS = 100
BOUNDARY_FRACTION = 0.995  # a shrinking gap keeps at least 0.5 % of itself per step
COST_STEP = 1e-4  # central-difference step for c_ss, relative to the domain length
EPS = np.finfo(float).eps


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
        if self.tol is not None and not 0 < self.tol < np.inf:
            raise InvalidInputError("tol must be positive and finite")

    @property
    def domain(self) -> Domain:
        return self.prev.domain

    def default_tol(self) -> float:
        return 1e-9 * np.sqrt(self.prev.n)


@dataclass(frozen=True)
class StepSolution:
    """The new state and, there, E (``value``), F (``energy``), the rank-diagonal
    coupling value (0 when uncoupled) and the Euler-Lagrange residual."""

    rho: ParticleDensity
    value: float
    residual: float
    iterations: int
    energy: float
    coupling: float
    el_residual: float


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


class _Point(NamedTuple):
    value: float
    energy: float
    coupling: float
    grad: np.ndarray
    curvature: np.ndarray


def _evaluate(problem: StepProblem, x: np.ndarray) -> _Point:
    """E, F, the coupling value, dE/dx and the gap curvatures q at x, from one gap pass."""
    prev = problem.prev.positions
    n = prev.size
    h2 = 2.0 * problem.h
    energy, energy_grad, curvature = gap_terms(problem.energy, x, problem.domain.length)
    value = float(np.mean((x - prev) ** 2)) + h2 * energy
    grad = (2.0 / n) * (x - prev) + h2 * energy_grad
    coupling = 0.0
    if problem.cost is not None:
        pts = _tuple_points(problem, x)
        coupling = float(np.mean(problem.cost.evaluate(pts)))
        grad = grad + (h2 / n) * problem.cost.partial(problem.slot, pts)
    return _Point(value + h2 * coupling, energy, coupling, grad, curvature)


def objective(problem: StepProblem, x: np.ndarray) -> float:
    """E(x) for sorted in-domain positions x."""
    return _evaluate(problem, np.asarray(x, dtype=float)).value


def objective_gradient(problem: StepProblem, x: np.ndarray) -> np.ndarray:
    """dE/dx, same shape as x."""
    return _evaluate(problem, np.asarray(x, dtype=float)).grad


def _hessian_bands(problem: StepProblem, x: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, ...]:
    """Diagonal and off-diagonal of the step Hessian at x, negative curvature dropped."""
    n = x.size
    h2 = 2.0 * problem.h
    q = np.maximum(q, 0.0)
    diag = np.full(n, 2.0 / n)
    diag[:-1] += h2 * q
    diag[1:] += h2 * q
    if problem.cost is not None:
        # exact up to rounding for the quadratic costs, whose partials are linear
        step = COST_STEP * problem.domain.length
        pts = _tuple_points(problem, x)
        pts[:, problem.slot] += step
        up = problem.cost.partial(problem.slot, pts)
        pts[:, problem.slot] -= 2.0 * step
        down = problem.cost.partial(problem.slot, pts)
        diag += (h2 / n) * np.maximum((up - down) / (2.0 * step), 0.0)
    return diag, -h2 * q


def _newton_direction(
    problem: StepProblem, x: np.ndarray, g: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Solve H d = -g, holding fixed each wall particle whose descent points outward.

    A wall particle is held when -g or the computed d would take it out of
    the box; holding one changes d, so the other wall is checked again.
    """
    diag, off = _hessian_bands(problem, x, q)
    outward = np.zeros(x.size)  # -1 at a particle on the lower wall, +1 on the upper
    if x[0] <= problem.domain.lower:
        outward[0] = -1.0
    if x[-1] >= problem.domain.upper:
        outward[-1] = 1.0
    held = outward * g < 0.0
    while True:
        bands = np.zeros((2, x.size))
        bands[0, 1:] = np.where(held[:-1] | held[1:], 0.0, off)
        bands[1] = np.where(held, 1.0, diag)
        # one particle has no off-diagonal band (LAPACK's tridiagonal path needs one)
        d = solveh_banded(bands if x.size > 1 else bands[1:], np.where(held, 0.0, -g))
        leaving = (outward * d > 0.0) & ~held
        if not np.any(leaving):
            return d
        held |= leaving


def _longest_step(domain: Domain, x: np.ndarray, d: np.ndarray) -> tuple[float, int | None]:
    """Largest step length along d, at most 1, and the wall it stops at.

    Shrinking gaps keep BOUNDARY_FRACTION of the way to zero in reserve; a
    wall particle moving outward stops exactly at the wall.  The wall is
    reported as 0 (lower), -1 (upper) or None.
    """
    alpha = 1.0
    dgap = np.diff(d)
    shrink = dgap < 0.0
    if np.any(shrink):
        room = np.diff(x)[shrink] / -dgap[shrink]
        alpha = min(alpha, BOUNDARY_FRACTION * float(np.min(room)))
    wall = None
    if d[0] < 0.0 and x[0] + alpha * d[0] <= domain.lower:
        alpha, wall = (domain.lower - x[0]) / d[0], 0
    if d[-1] > 0.0 and x[-1] + alpha * d[-1] >= domain.upper:
        alpha, wall = (domain.upper - x[-1]) / d[-1], -1
    return alpha, wall


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
    domain = problem.domain
    at = _evaluate(problem, x)
    iters = 0
    res = _residual(problem, x, at.grad)
    while res > tol:
        if iters >= MAX_ITERS:
            raise NumericalFailureError(
                f"step solver exceeded {MAX_ITERS} iterations", residual=res
            )
        d = _newton_direction(problem, x, at.grad, at.curvature)
        slope = float(np.dot(at.grad, d))
        alpha, wall = _longest_step(domain, x, d)
        for trial in range(MAX_BACKTRACKS):
            cand = x + alpha * d
            if trial == 0 and wall is not None:
                cand[wall] = domain.lower if wall == 0 else domain.upper
            trial_at = _evaluate(problem, cand)
            armijo = trial_at.value <= at.value + ARMIJO_C1 * alpha * slope
            # a predicted decrease within the rounding of E, a sum of about N
            # terms, cannot be seen in E: the full step is judged by the residual
            if armijo or (trial == 0 and -slope <= x.size * EPS * abs(at.value)):
                rc = _residual(problem, cand, trial_at.grad)
                if armijo or rc < res:
                    break
            alpha *= 0.5
        else:
            raise NumericalFailureError(
                f"step solver line search failed at iteration {iters}", residual=res
            )
        if np.array_equal(cand, x):
            raise NumericalFailureError(
                f"step solver line search failed at iteration {iters}: "
                "the accepted step does not move", residual=res,
            )
        x, at, res = cand, trial_at, rc
        iters += 1
    return StepSolution(
        rho=ParticleDensity(domain, x), value=at.value, residual=res, iterations=iters,
        energy=at.energy, coupling=at.coupling, el_residual=_el_residual(domain, x, at.grad),
    )


def _el_residual(domain: Domain, x: np.ndarray, grad: np.ndarray) -> float:
    margin = 1e-12 * domain.length
    interior = (x > domain.lower + margin) & (x < domain.upper - margin)
    if not np.any(interior):
        return 0.0
    return float(np.max(np.abs(0.5 * x.size * grad[interior])))


def euler_lagrange_residual(problem: StepProblem, rho: ParticleDensity) -> float:
    """Max interior-particle defect of the implicit optimality system.

    At particles away from the domain walls the first-order condition is
    x_j - prev_j + h (N g_j + U_j) = 0 with g the internal-energy gradient
    and U the coupling partial; this is the natural-scale objective
    gradient, so a converged step drives it to the solver tolerance.
    """
    return _el_residual(problem.domain, rho.positions, objective_gradient(problem, rho.positions))
