"""Implicit steps of the coupled gradient flow, several populations at once.

The step of one population minimizes, over sorted particle vectors x in the
domain box,

    E(x) = (1/N) sum_j (x_j - prev_j)^2
         + 2 h [ F(x) + (1/N) sum_j c(frozen_1[j], ..., x_j, ..., frozen_m[j]) ]

with every other population frozen at its previous state and coupled rank
to rank.  So the step problems of one time step are independent, and
solve_steps minimizes their sum on one flat vector of P rows of N particles
(solve_step is the one-row case).  The Hessian is tridiagonal, with a zero
off-diagonal entry between rows,

    H = (2/N) I + 2h D^T diag(q) D + (2h/N) diag(c_ss),

D the within-row gap difference operator, q the energy's gap curvature and
c_ss = d2c/dx_slot^2 from each row's cost.  Damped Newton on H (the
Lagrangian Newton step of Blanchet, Calvez and Carrillo: one LAPACK dptsv
solve per iteration for all rows) drops negative curvature, so H >= (2/N) I
and every direction descends.  The rows share one step length, cut so that
every gap stays positive and an outgoing wall particle stops at its wall; a
wall particle whose descent points out of the box is held.  Armijo
backtracking on the summed objective decides the step, and the iteration
stops when every row's box-projected natural gradient
|x - clip(x - (N/2) dE/dx)| reaches that row's tolerance, so each
population gets the minimizer of its own step objective.  One gap pass per
distinct energy and one cost evaluation per coupled row give E, F, the
coupling values, dE/dx, q and c_ss at a trial point; ParticleDensity is built
only for the returned states.  A non-finite E, dE/dx or Newton system is a
numerical failure charged to one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg.lapack import dptsv

from .energy import InternalEnergy, gap_terms
from .errors import InvalidInputError, NumericalFailureError
from .geometry import Domain, ParticleDensity
from .transport import CostFunction, require_certified

ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 60
MAX_ITERS = 100
BOUNDARY_FRACTION = 0.995  # a shrinking gap keeps at least 0.5 % of itself per step
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
            require_certified(self.cost, "StepProblem")
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

    @cached_property
    def _rows(self) -> _Rows:
        """The one-row data that objective and objective_gradient evaluate at every call."""
        return _Rows((self,))


@dataclass(frozen=True)
class StepSolution:
    """The new state and, there, E (``value``), F (``energy``), the rank-diagonal coupling
    value (0 when uncoupled), the squared step length W2^2 and the Euler-Lagrange residual."""

    rho: ParticleDensity
    value: float
    residual: float
    iterations: int
    energy: float
    coupling: float
    el_residual: float
    w2_sq: float


def project_ordered_box(domain: Domain, y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto sorted vectors inside the domain box."""
    # imported here: the solver never projects, and scipy.optimize is slow to import
    from scipy.optimize import isotonic_regression

    y = np.array(y, dtype=float)
    if not (y[1:] >= y[:-1]).all():
        y = isotonic_regression(y).x
    return np.clip(y, domain.lower, domain.upper, out=y)


class _Rows:
    """The fixed data of P step problems solved together: one N, one domain, one h.

    Rows are grouped by energy, so that the rows sharing one form a block that
    a single gap pass evaluates; problem ``order[r]`` sits in row r.
    """

    def __init__(self, problems: Sequence[StepProblem]):
        if not problems:
            raise InvalidInputError("need at least one step problem")
        self.count, first = len(problems), problems[0]
        self.n, self.h, self.domain = first.prev.n, first.h, first.domain
        if any(p.prev.n != self.n or p.domain != self.domain or p.h != self.h for p in problems):
            raise InvalidInputError("step problems solved together must share N, domain and h")
        groups: dict[InternalEnergy, list[int]] = {}  # energy -> its problems, in order
        for r, p in enumerate(problems):
            groups.setdefault(p.energy, []).append(r)
        self.order = [r for rs in groups.values() for r in rs]
        self.energies, start = [], 0  # (energy, its block's first row, the row after it)
        for energy, rs in groups.items():
            self.energies.append((energy, start, start + len(rs)))
            start += len(rs)
        problems = [problems[r] for r in self.order]
        self.prev = np.concatenate([p.prev.positions for p in problems])
        self.tol = [p.default_tol() if p.tol is None else p.tol for p in problems]
        lower, upper = self.domain.lower, self.domain.upper
        # (index, outward sign, wall) of each row's first and last particle
        self.ends = [e for start in range(0, self.prev.size, self.n)
                     for e in ((start, -1.0, lower), (start + self.n - 1, 1.0, upper))]
        self.end_index = np.array([j for j, _, _ in self.ends])
        # (row, its slice of x, cost, slot, the tuple points with the frozen
        # columns filled; each evaluation writes the row's own column into a copy)
        self.couplings = []
        for r, p in enumerate(problems):
            if p.cost is not None:
                cols = [m.positions for m in p.frozen]
                cols.insert(p.slot, p.prev.positions)
                segment = slice(r * self.n, (r + 1) * self.n)
                self.couplings.append((r, segment, p.cost, p.slot, np.stack(cols, axis=-1)))


class _Point(NamedTuple):
    value: float  # the summed objective; the next four hold one entry per row
    values: np.ndarray
    energies: np.ndarray
    couplings: np.ndarray
    w2_sq: np.ndarray
    grad: np.ndarray
    curvature: np.ndarray  # q of the gap right of each particle, 0 at row ends
    cost_curvature: np.ndarray | None


def _evaluate(rows: _Rows, x: np.ndarray) -> _Point:
    """E (summed and per row), F, the coupling values, W2^2, dE/dx, q and c_ss at x."""
    n, h2, length = rows.n, 2.0 * rows.h, rows.domain.length
    energies, grad, curvature = np.empty(rows.count), np.empty(x.size), np.empty(x.size)
    for energy, a, b in rows.energies:
        block = slice(a * n, b * n)
        energies[a:b], grad[block], curvature[block] = gap_terms(energy, x[block], length, b - a)
    step = x - rows.prev
    w2_sq = np.add.reduce(np.square(step).reshape(rows.count, n), axis=1) / n
    values = w2_sq + h2 * energies
    grad *= h2
    grad += (2.0 / n) * step
    couplings, c_ss = np.zeros(rows.count), None
    if rows.couplings:
        c_ss = np.zeros(x.size)
        for r, segment, cost, slot, frozen_points in rows.couplings:
            points = frozen_points.copy()  # rows stay unchanged: objective shares them
            points[:, slot] = x[segment]
            couplings[r] = np.add.reduce(cost.evaluate(points)) / n  # the mean, as coupling_value
            grad[segment] += (h2 / n) * cost.partial(slot, points)
            c_ss[segment] = cost.curvature(slot, points)
        values += h2 * couplings
    return _Point(sum(values.tolist()), values, energies, couplings, w2_sq, grad, curvature, c_ss)


def objective(problem: StepProblem, x: np.ndarray) -> float:
    """E(x) for sorted in-domain positions x."""
    return _evaluate(problem._rows, np.asarray(x, dtype=float)).value


def objective_gradient(problem: StepProblem, x: np.ndarray) -> np.ndarray:
    """dE/dx, same shape as x."""
    return _evaluate(problem._rows, np.asarray(x, dtype=float)).grad


def _hessian_bands(rows: _Rows, at: _Point) -> tuple[np.ndarray, ...]:
    """Diagonal and off-diagonal of the step Hessian at a point, negative curvature dropped."""
    h2 = 2.0 * rows.h
    hq = h2 * np.maximum(at.curvature[:-1], 0.0)
    diag = np.full(at.grad.size, 2.0 / rows.n)
    diag[:-1] += hq
    diag[1:] += hq
    if at.cost_curvature is not None:
        diag += (h2 / rows.n) * np.maximum(at.cost_curvature, 0.0)
    return diag, -hq


def _newton_direction(rows: _Rows, x: np.ndarray, at: _Point) -> np.ndarray:
    """Solve H d = -g at x, holding fixed each wall particle whose descent points outward.

    A wall particle is held when -g or the computed d would take it out of
    the box; holding one changes d, so the other walls are checked again.
    """
    g = at.grad
    diag, off = _hessian_bands(rows, at)
    # diag > 0, so the product is finite exactly when both factors are (short of overflow)
    if not math.isfinite(np.dot(diag, g)):
        raise ValueError("Newton system must not contain infs or NaNs")
    if off.size == 0:
        off = np.zeros(1)  # one particle: the dptsv wrapper wants an off-diagonal
    walls = [(j, s) for j, s, wall in rows.ends if s * (x[j] - wall) >= 0.0]  # on a wall
    held = {j for j, s in walls if s * g[j] < 0.0}
    while True:
        d_band, e_band, rhs = (diag.copy(), off.copy(), -g) if held else (diag, off, -g)
        for j in held:
            d_band[j], rhs[j] = 1.0, 0.0
            e_band[max(j - 1, 0):j + 1] = 0.0  # cut loose from both neighbours
        d, info = dptsv(d_band, e_band, rhs, overwrite_b=True)[2:]
        if info > 0:
            raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
        leaving = {j for j, s in walls if s * d[j] > 0.0} - held
        if not leaving:
            return d
        held |= leaving


def _longest_step(rows: _Rows, x: np.ndarray, d: np.ndarray) -> tuple[float, list]:
    """Largest step length along d, at most 1, and the (index, wall) of each end
    particle it takes to its wall.

    Shrinking gaps keep BOUNDARY_FRACTION of the way to zero in reserve; an
    end particle moving outward stops exactly at its wall.
    """
    alpha = 1.0
    dgap = d[1:] - d[:-1]
    dgap[rows.n - 1::rows.n] = 0.0  # a row's last particle and the next row's first share no gap
    shrink = dgap < 0.0
    if shrink.any():
        room = (x[1:] - x[:-1])[shrink] / -dgap[shrink]
        alpha = min(alpha, BOUNDARY_FRACTION * float(room.min()))
    ends = zip(rows.ends, x[rows.end_index].tolist(), d[rows.end_index].tolist())
    outgoing = [(j, s, wall, xj, dj) for (j, s, wall), xj, dj in ends if s * dj > 0.0]
    for j, s, wall, xj, dj in outgoing:
        if s * (xj + alpha * dj - wall) >= 0.0:
            alpha = (wall - xj) / dj
    # the rows share alpha, so ends of other rows may reach their walls with it
    # (copies of one row do so exactly): every end that reaches its wall, or
    # would round past it, is put on it
    return alpha, [(j, wall) for j, s, wall, xj, dj in outgoing
                   if (wall - xj) / dj <= alpha or s * (xj + alpha * dj - wall) >= 0.0]


def _residuals(rows: _Rows, x: np.ndarray, grad: np.ndarray) -> list[float]:
    """Squared residual of each row."""
    # fixed-point gap of the natural-scale gradient map projected onto the
    # box; the (N/2) scaling turns dE/dx into position units.  The ordering
    # is not projected: the boundary rule keeps it strict
    y = (0.5 * rows.n) * grad
    np.subtract(x, y, out=y)
    np.clip(y, rows.domain.lower, rows.domain.upper, out=y)
    np.subtract(x, y, out=y)
    return [float(np.dot(r, r)) for r in y.reshape(rows.count, rows.n)]


def _failure(rows: _Rows, message: str, res: list[float], *arrays) -> NumericalFailureError:
    """The error of a joint solve, charged with its residual to the first row with a
    non-finite entry in ``arrays`` (per row or flat), else to the row farthest above its tol."""
    finite = [np.isfinite(a.reshape(rows.count, -1)).all(axis=1) for a in arrays if a is not None]
    bad = [r for r in range(rows.count) if not all(f[r] for f in finite)]
    if bad:
        row = min(bad, key=rows.order.__getitem__)
    else:
        row = max(range(rows.count), key=lambda r: res[r] / rows.tol[r])
    return NumericalFailureError(message, residual=res[row], row=rows.order[row])


def _require_finite(rows: _Rows, point: _Point, iteration: int, res: list[float]) -> None:
    if not (math.isfinite(point.value) and np.isfinite(point.grad).all()):
        raise _failure(rows, "step solver met a non-finite objective or gradient "
                       f"at iteration {iteration}", res, point.values, point.grad)


def solve_steps(problems: Sequence[StepProblem],
                initial: Sequence[ParticleDensity] | None = None) -> tuple[StepSolution, ...]:
    """Minimize step objectives that share N, domain and h together, warm-started at
    each prev unless told otherwise; each row meets its own tol, ``iterations`` is joint."""
    rows = _Rows(problems)
    starts = [p.prev for p in problems] if initial is None else list(initial)
    if len(starts) != rows.count or any(s.n != rows.n or s.domain != rows.domain for s in starts):
        raise InvalidInputError("initial iterates must match prev in N and domain")
    x = np.concatenate([starts[r].positions for r in rows.order])
    at = _evaluate(rows, x)
    _require_finite(rows, at, 0, [math.nan] * rows.count)
    iters = 0
    sq = _residuals(rows, x, at.grad)
    res = [math.sqrt(v) for v in sq]
    while any(r > t for r, t in zip(res, rows.tol)):
        if iters >= MAX_ITERS:
            raise _failure(rows, f"step solver exceeded {MAX_ITERS} iterations", res)
        try:
            d = _newton_direction(rows, x, at)
        except (ValueError, np.linalg.LinAlgError) as err:
            raise _failure(
                rows, "step solver met a non-finite or indefinite Newton system "
                f"at iteration {iters}", res, at.grad, at.curvature, at.cost_curvature,
            ) from err
        slope = float(np.dot(at.grad, d))
        alpha, walls = _longest_step(rows, x, d)
        joint = math.sqrt(sum(sq))
        # E sums about N terms per row: a predicted decrease within its rounding
        # cannot be seen in E, so the full step is judged by the residual
        rounding = rows.n * EPS * sum(map(abs, at.values.tolist()))
        for trial in range(MAX_BACKTRACKS):
            cand = x + alpha * d
            if trial == 0:
                for j, wall in walls:
                    cand[j] = wall
            trial_at = _evaluate(rows, cand)
            _require_finite(rows, trial_at, iters, res)
            armijo = trial_at.value <= at.value + ARMIJO_C1 * alpha * slope
            if armijo or (trial == 0 and -slope <= rounding):
                sq_cand = _residuals(rows, cand, trial_at.grad)
                if armijo or math.sqrt(sum(sq_cand)) < joint:
                    break
            alpha *= 0.5
        else:
            raise _failure(rows, f"step solver line search failed at iteration {iters}", res)
        if np.array_equal(cand, x):
            raise _failure(rows, f"step solver line search failed at iteration {iters}: "
                           "the accepted step does not move", res)
        x, at, sq = cand, trial_at, sq_cand
        res = [math.sqrt(v) for v in sq]
        iters += 1
    x_rows, g_rows = x.reshape(rows.count, rows.n), at.grad.reshape(rows.count, rows.n)
    solutions = [None] * rows.count  # in the callers' order
    for r, i in enumerate(rows.order):
        solutions[i] = StepSolution(
            rho=ParticleDensity(rows.domain, x_rows[r]), value=float(at.values[r]),
            residual=res[r], iterations=iters, energy=float(at.energies[r]),
            coupling=float(at.couplings[r]),
            el_residual=_el_residual(rows.domain, x_rows[r], g_rows[r]),
            # squared through the distance, as w2_distance(rho, prev) ** 2, so
            # that recorded diagnostics keep their bits
            w2_sq=math.sqrt(at.w2_sq[r]) ** 2,
        )
    return tuple(solutions)


def solve_step(problem: StepProblem, initial: ParticleDensity | None = None) -> StepSolution:
    """Minimize one step objective: the one-row case of solve_steps."""
    return solve_steps((problem,), None if initial is None else (initial,))[0]


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
