"""Implicit steps of the coupled gradient flow, several populations at once.

The step of one population minimizes, over sorted particle vectors x in the
domain box,

    E(x) = (1/N) sum_j (x_j - prev_j)^2
         + 2 h [ F(x) + (1/N) sum_j c(frozen_1[j], ..., x_j, ..., frozen_m[j]) ]

with every other population frozen at its previous state and coupled rank
to rank.  So the step problems of one time step are independent, and one
Newton loop (_minimize) solves them together on one flat vector of P rows
of N particles.  The Hessian is tridiagonal, with a zero entry between rows,

    H = (2/N) I + 2h D^T diag(q) D + (2h/N) diag(c_ss),

D the within-row gap difference operator, q the energy's gap curvature and
c_ss = a, the curvature of each row's cost in slot 0, the population's own.
A row's cost, with its partners frozen, is (a/2)(x_j - m_j)^2 + c_j at each
rank j (transport.centred): the rows carry a/2, (2h/N) a, m and c as flat
arrays, and a kernel that run_flows builds refills m and c from its partner
table after each step, so no evaluation calls a cost method.  Damped Newton
on H (the Lagrangian Newton step of Blanchet, Calvez and Carrillo: one
LAPACK dptsv solve per iteration for all rows) drops negative curvature,
so every direction descends.
Everything else is per row, so that a row's iterates are those it would
take alone: its step length, cut so that its gaps stay positive and an
outgoing wall particle stops at its wall; its Armijo backtracking on its own
objective; its iteration count; and its stop, when its box-projected
natural gradient |x - clip(x - (N/2) dE/dx)| reaches its tolerance, after
which it holds still.  A wall particle whose descent points out of the box
is held.  At the shipped sizes a pass costs its numpy calls, not their
arithmetic: each takes the cheapest form that rounds as the formula does,
and a trial point's gap pass also serves the next step length.  _Rows.step
is the one driver of this loop: one step of every row, after which the
minimizer is the rows' previous state, so a kernel that run_flows builds
once starts each step at the point the last one accepted, with its energy
terms and a zero step; solve_step is one step of a one-row kernel, returned
as a StepSolution.  Row r is the callers' problem r.  A step returns plain
arrays: the (P, N) minimizer and one row of per-row diagnostics for each
name of COLUMNS.  The minimizer is checked in one vectorized pass by the
ParticleDensity constructor's own predicate (geometry.accepted); a row it
refuses, with the constructor's message, or a non-finite E, dE/dx or
Newton system is a numerical failure charged to one row.

dptsv is scipy's f2py wrapper of the LAPACK routine.  _load_dptsv loads
scipy's compiled _flapack extension straight from its file, so that
importing this module does not import scipy.linalg and the numpy.f2py it
pulls in, which would more than double the package's import time.  If that
load fails, it takes the same wrapper from scipy.linalg.lapack.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, zip_longest
from typing import NamedTuple, Sequence

import numpy as np

from .energy import InternalEnergy, gap_terms
from .errors import InvalidInputError, NumericalFailureError
from .geometry import Domain, ParticleDensity, accepted
from .transport import QuadraticCost, centred, weight_total

ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 60
MAX_ITERS = 100
BOUNDARY_FRACTION = 0.995  # a shrinking gap keeps at least 0.5 % of itself per step
EPS = np.finfo(float).eps
# the per-row diagnostics of a step: _Step.columns' rows, StepSolution's fields after rho
COLUMNS = ("energy", "coupling", "w2_sq", "residual", "el_residual", "objective", "iterations")


def _load_dptsv():
    """scipy's dptsv wrapper, from its _flapack extension loaded by file path.

    A top-level find_spec does not import scipy; the extension lives in
    scipy/linalg/.  On any failure, the same wrapper from scipy.linalg.lapack.
    """
    try:
        linalg = os.path.join(os.path.dirname(importlib.util.find_spec("scipy").origin), "linalg")
        path = next(p for suffix in importlib.machinery.EXTENSION_SUFFIXES
                    if os.path.isfile(p := os.path.join(linalg, "_flapack" + suffix)))
        spec = importlib.util.spec_from_file_location(f"{__package__}._flapack", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.dptsv
    except Exception:  # the file layout is scipy's private detail: any failure takes the public path
        from scipy.linalg.lapack import dptsv
        return dptsv


dptsv = _load_dptsv()


def _check_h_and_tol(h, tol) -> None:
    """Refuse a step size ``h``, or a tolerance ``tol`` other than None (the default),
    that is not a positive, finite real number: StepProblem's and FlowConfig's check."""
    for name, value in (("step size h", h), ("tol", 1.0 if tol is None else tol)):
        if not isinstance(value, numbers.Real):
            raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(h) and h > 0):
        raise InvalidInputError(f"step size h must be positive, got {h!r}")
    if tol is not None and not 0 < tol < np.inf:
        raise InvalidInputError("tol must be positive and finite")


@dataclass(frozen=True)
class StepProblem:
    """Data of one implicit step for one population.

    The population fills slot 0 of ``cost``, and ``frozen`` holds its
    partners' states, which fill the other slots in slot order.  ``cost``
    may be None for an uncoupled step.
    """

    prev: ParticleDensity
    energy: InternalEnergy
    h: float
    cost: QuadraticCost | None = None
    frozen: tuple[ParticleDensity, ...] = ()
    tol: float | None = None

    def __post_init__(self):
        _check_h_and_tol(self.h, self.tol)
        if self.cost is not None:
            if not isinstance(self.cost, QuadraticCost):
                raise InvalidInputError("a step problem's cost must be a QuadraticCost")
            if len(self.frozen) != self.cost.arity - 1:
                raise InvalidInputError(
                    "frozen tuple must hold every other coupled population"
                )
            for m in self.frozen:
                if m.n != self.prev.n or m.domain != self.prev.domain:
                    raise InvalidInputError("coupled populations must share one N and one domain")

    @property
    def domain(self) -> Domain:
        return self.prev.domain

    def default_tol(self) -> float:
        return 1e-9 * np.sqrt(self.prev.n)

    @cached_property
    def _rows(self) -> _Rows:
        """The one-row data that objective and objective_gradient evaluate at every call."""
        return _Rows((self,))


class StepSolution(NamedTuple):
    """The new state and its diagnostics, one field per name of COLUMNS in that order:
    F (``energy``), the rank-diagonal coupling value (0 when uncoupled), the squared
    step length W2^2, the solver and Euler-Lagrange residuals, E (``objective``) and
    the iteration count."""

    rho: ParticleDensity
    energy: float
    coupling: float
    w2_sq: float
    residual: float
    el_residual: float
    objective: float
    iterations: int


def project_ordered_box(domain: Domain, y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto sorted vectors inside the domain box."""
    # imported here: the solver never projects, and scipy.optimize is slow to import
    from scipy.optimize import isotonic_regression

    y = np.array(y, dtype=float)
    if not (y[1:] >= y[:-1]).all():
        y = isotonic_regression(y).x
    return np.clip(y, domain.lower, domain.upper, out=y)


class _Rows:
    """The step kernel: P step problems of one N, one domain and one h, stepped together.

    Row r is problem r.  Each maximal run of adjacent rows that share one
    energy is a block that a single gap pass evaluates.  Each particle's cost
    against its frozen partners is (a/2)(x - m)^2 + c, from the flat arrays
    half_a = a/2, m and c of a coupled kernel (and step_a = (2h/N) a, the
    term of dE/dx and of H), all 0 in an uncoupled row: centred on a
    (K, P, N) table of the rows' frozen partners in slot order, their weights
    beside it, padded with zero rows at weight 0.  step solves every row from
    prev and makes the solution the next step's prev, keeping its evaluation
    as ``at``.  Given each row's partner rows (``partners``), it refills m and
    c from the table of those rows' new states.  What stays fixed is built
    once: a/2, (2h/N) a and the divisor centred takes, and a read-only zero
    vector, W2^2 at prev and the coupling values of an uncoupled kernel.
    """

    def __init__(self, problems: Sequence[StepProblem],
                 partners: Sequence[Sequence[int]] | None = None):
        self.count, first = len(problems), problems[0]
        self.n, self.h, self.domain = first.prev.n, first.h, first.domain
        self.energies, stop = [], 0  # (energy, its run's first row, the row after it)
        for energy, run in groupby(problems, key=lambda p: p.energy):
            start, stop = stop, stop + len(list(run))
            self.energies.append((energy, start, stop))
        self.prev = np.concatenate([p.prev.positions for p in problems])
        self.at, self.cuts = None, {}  # prev's evaluation, once accepted; held-index arrays
        self.tol = [float(p.default_tol() if p.tol is None else p.tol) for p in problems]
        lower, upper = self.domain.lower, self.domain.upper
        # (index, row, outward sign, wall) of each row's first and last particle
        self.ends = [e for r in range(self.count) for e in (
            (r * self.n, r, -1.0, lower), ((r + 1) * self.n - 1, r, 1.0, upper))]
        self.starts = np.arange(0, self.count * self.n, self.n)  # each row's first index
        self.zeros = np.zeros(self.count)
        self.zeros.setflags(write=False)
        self.coupled = any(p.cost is not None for p in problems)
        self.partners = None  # each row's partner rows (K, P), padded with row 0, if refilled
        if self.coupled:
            weights = [() if p.cost is None else p.cost.weights for p in problems]
            self.weights = np.array(list(zip_longest(*weights, fillvalue=0.0)))[:, :, None]
            total, self.divisor = weight_total(self.weights)
            a = np.repeat(2.0 * total.ravel(), self.n)
            # (a/2) and (2h/N) a, the products E and its derivatives take of a
            self.half_a, self.step_a = 0.5 * a, (2.0 * self.h / self.n) * a
            frozen = [[f.positions for f in p.frozen] for p in problems]
            m, c = centred(self.weights, np.array(list(zip_longest(
                *frozen, fillvalue=np.zeros(self.n)))), self.divisor)
            self.m, self.c = m.ravel(), c.ravel()
            if partners is not None:
                self.partners = np.array(list(zip_longest(*partners, fillvalue=0)))

    def step(self) -> _Step:
        """One implicit step of every row, warm-started at prev.  The minimizer becomes
        prev and every partner's frozen state."""
        x, at, res, iters = _minimize(self, self.prev, _evaluate(self, self.prev, self.at))
        block = x.reshape(self.count, self.n)
        _check_states(self.domain, block, res)
        columns = _columns(self, block, at, res, iters)
        self.prev, self.at = x, at
        if self.partners is not None:
            m, c = centred(self.weights, block[self.partners], self.divisor)
            self.m, self.c = m.ravel(), c.ravel()
        return _Step(block, columns)


class _Step(NamedTuple):
    """One step of a kernel's P rows: ``x``, the (P, N) minimizer, whose row r holds
    problem r's new positions, and ``columns``, whose column r holds row r's diagnostics
    in the order of COLUMNS."""

    x: np.ndarray
    columns: np.ndarray

    def solution(self, domain: Domain, r: int) -> StepSolution:
        """Row r as a StepSolution, its state built by the ParticleDensity constructor."""
        *values, iterations = self.columns[:, r].tolist()
        return StepSolution(ParticleDensity(domain, self.x[r]), *values, int(iterations))


class _Point(NamedTuple):
    values: np.ndarray  # E of each row; the next three also hold one entry per row
    energies: np.ndarray
    couplings: np.ndarray
    w2_sq: np.ndarray
    grad: np.ndarray
    energy_grad: np.ndarray  # dF/dx, before the 2h scaling
    curvature: np.ndarray  # q of the gap right of each particle, 0 at row ends
    gaps: np.ndarray | None = None  # x's gaps, as gap_terms gives them, if it gives all


def _evaluate(rows: _Rows, x: np.ndarray, reuse: _Point | None = None) -> _Point:
    """E, F, the coupling values and W2^2 of each row, dE/dx, dF/dx and q at x;
    F, dF/dx and q, which depend on x alone, are taken from ``reuse``, a point evaluated at x."""
    n, h2 = rows.n, 2.0 * rows.h
    if reuse is None:
        blocks = [gap_terms(energy, x[a * n:b * n], rows.domain.length, b - a)
                  for energy, a, b in rows.energies]
        if len(blocks) > 1:  # the gaps are kept for one block only
            blocks = [(*map(np.concatenate, list(zip(*blocks))[:3]), None)]
        energies, energy_grad, curvature, gaps = blocks[0]
    else:
        _, energies, _, _, _, energy_grad, curvature, gaps = reuse  # the terms of x alone
    if x is rows.prev:  # x - prev is +0.0 throughout: its terms are zeros, added as such
        w2_sq, grad = rows.zeros, h2 * energy_grad + 0.0
    else:
        step = x - rows.prev
        w2_sq = np.add.reduce((step * step).reshape(rows.count, n), 1) / n
        grad = h2 * energy_grad
        grad += (2.0 / n) * step
    values = w2_sq + h2 * energies
    couplings = rows.zeros
    if rows.coupled:
        d = x - rows.m
        c = rows.half_a * d * d + rows.c
        couplings = np.add.reduce(c.reshape(rows.count, n), 1) / n  # as coupling_value
        values += h2 * couplings
        grad += rows.step_a * d
    return _Point(values, energies, couplings, w2_sq, grad, energy_grad, curvature, gaps)


def objective(problem: StepProblem, x: np.ndarray) -> float:
    """E(x) for sorted in-domain positions x."""
    return float(_evaluate(problem._rows, np.asarray(x, dtype=float)).values[0])


def objective_gradient(problem: StepProblem, x: np.ndarray) -> np.ndarray:
    """dE/dx, same shape as x."""
    return _evaluate(problem._rows, np.asarray(x, dtype=float)).grad


def _hessian_bands(rows: _Rows, at: _Point) -> tuple[np.ndarray, ...]:
    """Diagonal and off-diagonal of the step Hessian at a point, negative gap curvature
    dropped (a cost's curvature a is never negative)."""
    # the term of particle j's right gap (0 for the last particle), then its left one's
    h2 = 2.0 * rows.h
    hq = h2 * np.maximum(at.curvature, 0.0)
    diag = 2.0 / rows.n + hq
    diag[1:] += hq[:-1]
    if rows.coupled:
        diag += rows.step_a
    return diag, -hq[:-1]


def _newton_direction(rows: _Rows, x: np.ndarray, at: _Point, moving: list[bool]) -> np.ndarray:
    """Solve H d = -g at x in the ``moving`` rows, d = 0 in the others, holding fixed each
    wall particle whose descent points outward.

    A wall particle is held when -g or the computed d would take it out of
    the box; holding one changes d, so the other walls are checked again.
    Holding cuts its row and column out of H in place: dptsv leaves the bands as they are.
    """
    diag, off = _hessian_bands(rows, at)
    # diag sums each term of off; isfinite sets no flag, where inf * 0 would warn
    if not np.logical_and.reduce(np.isfinite(diag) & np.isfinite(at.grad)):
        raise ValueError("Newton system must not contain infs or NaNs")
    if off.size == 0:
        off = np.zeros(1)  # one particle: the dptsv wrapper wants an off-diagonal
    descent = -at.grad
    if not all(moving):
        descent.reshape(rows.count, rows.n)[np.logical_not(moving)] = 0.0
    walls = [(j, s) for j, _, s, wall in rows.ends if s * (x.item(j) - wall) >= 0.0]  # on a wall
    held, cut = [], [j for j, s in walls if s * descent.item(j) > 0.0]
    while True:
        if cut:  # hold them, in place (the held set only grows), cut from both neighbours
            if (key := tuple(cut)) not in rows.cuts:  # index arrays, built once per set held
                rows.cuts[key] = np.array(cut), np.array(
                    [i for j in cut for i in (j - 1, j) if 0 <= i < off.size], dtype=int)
            index, near = rows.cuts[key]
            diag[index], descent[index], off[near] = 1.0, 0.0, 0.0
            held += cut
        # a re-solve needs the descent; flags overwrite_d, _e, _b positional (keywords are slow)
        d, info = dptsv(diag, off, descent.copy() if walls else descent, 0, 0, 1)[2:]
        if info > 0:
            raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
        cut = [j for j, s in walls if s * d.item(j) > 0.0 and j not in held]
        if not cut:
            return d


def _longest_step(rows: _Rows, x: np.ndarray, d: np.ndarray, gaps) -> tuple[list, list]:
    """Each row's largest step length along d, at most 1, and the (index, wall) of each
    end particle that its row's step takes to its wall; ``gaps`` are x's, if known.

    Shrinking gaps keep BOUNDARY_FRACTION of the way to zero in reserve; an
    end particle moving outward stops exactly at its wall.
    """
    # each gap's closing speed per unit of its length: a step of 1 / speed closes
    # it; a row-end slot is no gap and reads 0 (any speed <= 0 allows the full step).
    # Known gaps are positive; else only coinciding particles divide by zero, and
    # fmax and max drop a 0 / 0 (no division when no gap closes)
    closing = d[:-1] - d[1:]
    closing[rows.n - 1::rows.n] = 0.0
    if gaps is not None:
        closing /= gaps[:-1]
    elif np.maximum.reduce(closing, initial=0.0) > 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            closing /= x[1:] - x[:-1]
    speed = (np.fmax.reduceat(closing, rows.starts).tolist() if rows.n > 1
             else [0.0] * rows.count)
    alpha = [BOUNDARY_FRACTION / max(BOUNDARY_FRACTION, v) for v in speed]
    outgoing = [(j, r, s, wall, x.item(j), dj) for j, r, s, wall in rows.ends
                if s * (dj := d.item(j)) > 0.0]
    for j, r, s, wall, xj, dj in outgoing:
        if s * (xj + alpha[r] * dj - wall) >= 0.0:
            alpha[r] = (wall - xj) / dj
    # every end that reaches its wall, or would round past it, is put on it
    return alpha, [(j, wall) for j, r, s, wall, xj, dj in outgoing
                   if (wall - xj) / dj <= alpha[r] or s * (xj + alpha[r] * dj - wall) >= 0.0]


def _residuals(rows: _Rows, x: np.ndarray, grad: np.ndarray) -> list[float]:
    """Squared residual of each row."""
    # fixed-point gap of the natural-scale gradient map projected onto the
    # box; the (N/2) scaling turns dE/dx into position units.  The ordering
    # is not projected: the boundary rule keeps it strict
    # (maximum and minimum clip as np.clip does, up to a zero's sign, which the square drops)
    y = x - np.minimum(np.maximum(x - (0.5 * rows.n) * grad, rows.domain.lower),
                       rows.domain.upper)
    y = y.reshape(rows.count, rows.n)
    return np.vecdot(y, y).tolist()


def _failure(rows: _Rows, message: str, res: list[float], *arrays,
             among: list[bool] | None = None) -> NumericalFailureError:
    """The error of a joint solve, charged with its residual to the first row with a
    non-finite entry in ``arrays`` (per row or flat), else to the row farthest above its
    tol (among the rows flagged in ``among``, if given)."""
    finite = [np.isfinite(a.reshape(rows.count, -1)).all(axis=1) for a in arrays if a is not None]
    bad = [r for r in range(rows.count) if not all(f[r] for f in finite)]
    if bad:
        row = bad[0]
    else:
        row = max((r for r in range(rows.count) if among is None or among[r]),
                  key=lambda r: res[r] / rows.tol[r])
    return NumericalFailureError(message, residual=res[row], row=row)


def _require_finite(rows: _Rows, point: _Point, iteration: int, res: list[float]) -> list[float]:
    """E of each row at ``point``, as floats, once E and dE/dx are found finite there."""
    values = point.values.tolist()
    if not (math.isfinite(sum(values)) and np.logical_and.reduce(np.isfinite(point.grad))):
        raise _failure(rows, "step solver met a non-finite objective or gradient "
                       f"at iteration {iteration}", res, point.values, point.grad)
    return values


def _minimize(rows: _Rows, x: np.ndarray, at: _Point) -> tuple[np.ndarray, _Point, list, list]:
    """Damped Newton from x, evaluated as ``at``, each row on its own until it meets its
    tol: the minimizer, its evaluation, and each row's residual and iteration count."""
    # the P-long per-row quantities are Python floats and bools: at the few
    # rows of a flow, a pass over them costs less than one numpy call
    count, n = rows.count, rows.n
    values = _require_finite(rows, at, 0, [math.nan] * count)
    res = [math.sqrt(q) for q in _residuals(rows, x, at.grad)]
    moving = [r > t for r, t in zip(res, rows.tol)]
    iters, k = [0] * count, 0  # k: the iterations every moving row has taken
    while any(moving):
        if k >= MAX_ITERS:
            raise _failure(rows, f"step solver exceeded {MAX_ITERS} iterations", res,
                           among=moving)
        try:
            d = _newton_direction(rows, x, at, moving)
        except (ValueError, np.linalg.LinAlgError) as err:
            raise _failure(rows, "step solver met a non-finite or indefinite Newton system "
                           f"at iteration {k}", res, at.grad, at.curvature) from err
        x2, d2 = x.reshape(count, n), d.reshape(count, n)
        slope = np.vecdot(at.grad.reshape(count, n), d2).tolist()
        alpha, walls = _longest_step(rows, x, d, at.gaps)
        # rows mostly share their step length (a full step): a scalar, and 1.0 d is d
        scale = alpha[0] if alpha.count(alpha[0]) == count else np.array(alpha)[:, None]
        cand2 = x2 + (d2 if alpha.count(1.0) == count else scale * d2)
        cand = cand2.reshape(-1)
        for j, wall in walls:
            cand[j] = wall
        searching, sq = moving, None
        for trial in range(MAX_BACKTRACKS):
            trial_at = _evaluate(rows, cand)
            trial_values = _require_finite(rows, trial_at, k, res)
            searching = [s and v > v0 + ARMIJO_C1 * a * sl for s, v, v0, a, sl
                         in zip(searching, trial_values, values, alpha, slope)]
            if trial == 0 and any(searching):
                # E sums about N terms, so its computed value may be off by up to
                # N EPS |E|, and the Armijo test asks E to fall by c1 |slope|: where
                # that asked fall is within E's rounding, E cannot show it, and the
                # row's full step is judged by its residual instead
                flat = [s and -ARMIJO_C1 * sl <= n * EPS * abs(v0)
                        for s, sl, v0 in zip(searching, slope, values)]
                if any(flat):
                    sq = _residuals(rows, cand, trial_at.grad)
                    searching = [s and not (f and math.sqrt(q) < r)
                                 for s, f, q, r in zip(searching, flat, sq, res)]
            if not any(searching):
                break
            alpha = [0.5 * a if s else a for a, s in zip(alpha, searching)]
            np.copyto(cand2, x2 + np.array(alpha)[:, None] * d2,
                      where=np.array(searching)[:, None])
        else:
            raise _failure(rows, f"step solver line search failed at iteration {k}", res,
                           among=searching)
        # a row whose step does not move keeps its value to the bit: only then compare
        stuck = [m and v == v0 for m, v, v0 in zip(moving, trial_values, values)]
        if any(stuck):
            stuck = [s and not v for s, v in zip(stuck, (cand2 != x2).any(axis=1).tolist())]
        if any(stuck):
            raise _failure(rows, f"step solver line search failed at iteration {k}: "
                           "the accepted step does not move", res, among=stuck)
        if sq is None or trial > 0:
            sq = _residuals(rows, cand, trial_at.grad)
        x, at, values, res = cand, trial_at, trial_values, [math.sqrt(q) for q in sq]
        iters = [i + m for i, m in zip(iters, moving)]
        moving = [m and r > t for m, r, t in zip(moving, res, rows.tol)]
        k += 1
    return x, at, res, iters


def _check_states(domain: Domain, x: np.ndarray, res: list[float]) -> None:
    """Refuse the first row of the (P, N) minimizer x that ParticleDensity refuses: its
    numerical failure, with the constructor's message and the row's residual."""
    ok = accepted(domain, x).tolist()
    if not all(ok):
        r = ok.index(False)
        try:
            ParticleDensity(domain, x[r])
        except InvalidInputError as err:  # the solver's failure, not bad input
            raise NumericalFailureError(f"step solver made a state that is not a density: {err}",
                                        residual=res[r], row=r) from err


def _columns(rows: _Rows, x: np.ndarray, at: _Point, res: list[float],
             iters: list[int]) -> np.ndarray:
    """The rows' diagnostics at the (P, N) minimizer x, one row per name of COLUMNS."""
    el = _el_residuals(rows.domain, x, at.grad.reshape(x.shape))
    # squared through the distance, as w2_distance(rho, prev) ** 2, so that
    # recorded diagnostics keep their bits
    w2_sq = [math.sqrt(w) ** 2 for w in at.w2_sq.tolist()]
    return np.array([at.energies, at.couplings, w2_sq, res, el, at.values, iters], dtype=float)


def solve_step(problem: StepProblem) -> StepSolution:
    """Minimize one step objective, warm-started at prev: the one-row step kernel."""
    return _Rows((problem,)).step().solution(problem.domain, 0)


def _el_residuals(domain: Domain, x: np.ndarray, grad: np.ndarray) -> list[float]:
    """The Euler-Lagrange residual of each row of (P, N) positions and gradients."""
    margin = 1e-12 * domain.length
    interior = (x > domain.lower + margin) & (x < domain.upper - margin)
    scaled = np.abs(0.5 * x.shape[1] * grad)  # np.max's own reduction, without its wrapper
    return np.maximum.reduce(scaled, 1, where=interior, initial=0.0).tolist()


def euler_lagrange_residual(problem: StepProblem, rho: ParticleDensity) -> float:
    """Max interior-particle defect of the implicit optimality system.

    At particles away from the domain walls the first-order condition is
    x_j - prev_j + h (N g_j + U_j) = 0 with g the internal-energy gradient
    and U the coupling partial; this is the natural-scale objective
    gradient, so a converged step drives it to the solver tolerance.
    """
    grad = objective_gradient(problem, rho.positions)
    return _el_residuals(problem.domain, rho.positions[None], grad[None])[0]
