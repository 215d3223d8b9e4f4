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
found by damped Newton on H (one LAPACK dptsv call per iteration, an
L D L^T tridiagonal solve), the Lagrangian Newton step of Blanchet, Calvez
and Carrillo on the gap discretization.  Negative curvature is dropped from
q and c_ss, so H >= (2/N) I and every Newton direction descends.  The step
length is cut by a fraction-to-boundary rule that keeps every gap positive
and stops a wall particle exactly at its wall; a wall particle whose
descent direction points out of the box is held fixed (an active set of at
most two).  Armijo backtracking on E decides the step, and the iteration
stops when the box-projected natural gradient |x - clip(x - (N/2) dE/dx)|
reaches the tolerance: the walls are the only constraints the Newton step
treats as active, since the boundary rule keeps the ordering strict.  A
non-finite E or dE/dx at any evaluated point, or a non-finite or
indefinite Newton system, is a numerical failure.  The iteration runs on
plain position arrays and evaluates each trial point once (one gap pass
and one cost evaluation give E, F, the coupling value, dE/dx and q); a
solve builds one ParticleDensity, the state it returns, and reports E, F,
the coupling value and the EL residual there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dptsv

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
                if m.n != self.prev.n or m.domain != self.prev.domain:
                    raise InvalidInputError("coupled populations must share one N and one domain")
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
    # imported here: the solver never projects, and scipy.optimize is slow to import
    from scipy.optimize import isotonic_regression

    y = np.array(y, dtype=float)
    if not (y[1:] >= y[:-1]).all():
        y = isotonic_regression(y).x
    return np.clip(y, domain.lower, domain.upper, out=y)


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
    n = x.size
    h2 = 2.0 * problem.h
    energy, grad, curvature = gap_terms(problem.energy, x, problem.domain.length)
    step = x - problem.prev.positions
    value = float(np.square(step).sum()) / n + h2 * energy
    grad *= h2
    grad += (2.0 / n) * step
    coupling = 0.0
    if problem.cost is not None:
        pts = _tuple_points(problem, x)
        coupling = float(np.mean(problem.cost.evaluate(pts)))
        grad += (h2 / n) * problem.cost.partial(problem.slot, pts)
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
    hq = h2 * np.maximum(q, 0.0)
    diag = np.full(n, 2.0 / n)
    diag[:-1] += hq
    diag[1:] += hq
    if problem.cost is not None:
        # exact up to rounding for the quadratic costs, whose partials are linear
        step = COST_STEP * problem.domain.length
        pts = _tuple_points(problem, x)
        pts[:, problem.slot] += step
        up = problem.cost.partial(problem.slot, pts)
        pts[:, problem.slot] -= 2.0 * step
        down = problem.cost.partial(problem.slot, pts)
        diag += (h2 / n) * np.maximum((up - down) / (2.0 * step), 0.0)
    return diag, -hq


def _newton_direction(
    problem: StepProblem, x: np.ndarray, g: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Solve H d = -g, holding fixed each wall particle whose descent points outward.

    A wall particle is held when -g or the computed d would take it out of
    the box; holding one changes d, so the other wall is checked again.
    """
    diag, off = _hessian_bands(problem, x, q)
    # diag > 0, so the product is finite exactly when both factors are (short of overflow)
    if not math.isfinite(np.dot(diag, g)):
        raise ValueError("Newton system must not contain infs or NaNs")
    if off.size == 0:
        off = np.zeros(1)  # one particle: the dptsv wrapper wants an off-diagonal
    lower, upper = problem.domain.lower, problem.domain.upper
    # (index, outward sign) of each particle on a wall
    walls = [(j, s) for j, s, on in ((0, -1.0, x[0] <= lower), (-1, 1.0, x[-1] >= upper)) if on]
    held = {j for j, s in walls if s * g[j] < 0.0}
    while True:
        d_band, e_band, rhs = (diag.copy(), off.copy(), -g) if held else (diag, off, -g)
        for j in held:
            d_band[j], e_band[j], rhs[j] = 1.0, 0.0, 0.0
        d, info = dptsv(d_band, e_band, rhs, overwrite_b=True)[2:]
        if info > 0:
            raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
        leaving = {j for j, s in walls if s * d[j] > 0.0} - held
        if not leaving:
            return d
        held |= leaving


def _longest_step(domain: Domain, x: np.ndarray, d: np.ndarray) -> tuple[float, int | None]:
    """Largest step length along d, at most 1, and the wall it stops at.

    Shrinking gaps keep BOUNDARY_FRACTION of the way to zero in reserve; a
    wall particle moving outward stops exactly at the wall.  The wall is
    reported as 0 (lower), -1 (upper) or None.
    """
    alpha = 1.0
    dgap = d[1:] - d[:-1]
    shrink = dgap < 0.0
    if shrink.any():
        room = (x[1:] - x[:-1])[shrink] / -dgap[shrink]
        alpha = min(alpha, BOUNDARY_FRACTION * float(room.min()))
    wall = None
    if d[0] < 0.0 and x[0] + alpha * d[0] <= domain.lower:
        alpha, wall = (domain.lower - x[0]) / d[0], 0
    if d[-1] > 0.0 and x[-1] + alpha * d[-1] >= domain.upper:
        alpha, wall = (domain.upper - x[-1]) / d[-1], -1
    return alpha, wall


def _residual(domain: Domain, x: np.ndarray, grad: np.ndarray) -> float:
    # fixed-point gap of the natural-scale gradient map projected onto the
    # box; the (N/2) scaling turns dE/dx into position units.  The ordering
    # is not projected: the boundary rule keeps it strict
    y = (0.5 * x.size) * grad
    np.subtract(x, y, out=y)
    np.clip(y, domain.lower, domain.upper, out=y)
    np.subtract(x, y, out=y)
    return math.sqrt(np.dot(y, y))


def _require_finite(point: _Point, iteration: int, residual: float) -> None:
    if not (math.isfinite(point.value) and np.isfinite(point.grad).all()):
        raise NumericalFailureError("step solver met a non-finite objective or gradient "
                                    f"at iteration {iteration}", residual=residual)


def solve_step(problem: StepProblem, initial: ParticleDensity | None = None) -> StepSolution:
    """Minimize the step objective; warm-started at prev unless told otherwise."""
    start = problem.prev if initial is None else initial
    if start.n != problem.prev.n or start.domain != problem.prev.domain:
        raise InvalidInputError("initial iterate must match prev in N and domain")
    x = start.positions.copy()
    tol = problem.tol if problem.tol is not None else problem.default_tol()
    domain = problem.domain
    at = _evaluate(problem, x)
    _require_finite(at, 0, math.nan)
    iters = 0
    res = _residual(domain, x, at.grad)
    while res > tol:
        if iters >= MAX_ITERS:
            raise NumericalFailureError(f"step solver exceeded {MAX_ITERS} iterations",
                                        residual=res)
        try:
            d = _newton_direction(problem, x, at.grad, at.curvature)
        except (ValueError, np.linalg.LinAlgError) as err:
            raise NumericalFailureError(
                "step solver met a non-finite or indefinite Newton system "
                f"at iteration {iters}", residual=res,
            ) from err
        slope = float(np.dot(at.grad, d))
        alpha, wall = _longest_step(domain, x, d)
        for trial in range(MAX_BACKTRACKS):
            cand = x + alpha * d
            if trial == 0 and wall is not None:
                cand[wall] = domain.lower if wall == 0 else domain.upper
            trial_at = _evaluate(problem, cand)
            _require_finite(trial_at, iters, res)
            armijo = trial_at.value <= at.value + ARMIJO_C1 * alpha * slope
            # a predicted decrease within the rounding of E, a sum of about N
            # terms, cannot be seen in E: the full step is judged by the residual
            if armijo or (trial == 0 and -slope <= x.size * EPS * abs(at.value)):
                rc = _residual(domain, cand, trial_at.grad)
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
    return float(np.max(np.abs(0.5 * x.size * grad[interior]), initial=0.0))


def euler_lagrange_residual(problem: StepProblem, rho: ParticleDensity) -> float:
    """Max interior-particle defect of the implicit optimality system.

    At particles away from the domain walls the first-order condition is
    x_j - prev_j + h (N g_j + U_j) = 0 with g the internal-energy gradient
    and U the coupling partial; this is the natural-scale objective
    gradient, so a converged step drives it to the solver tolerance.
    """
    return _el_residual(problem.domain, rho.positions, objective_gradient(problem, rho.positions))
