"""Multi-marginal couplings of particle densities.

The workhorse is the co-monotone plan: with a shared particle count the
coupling that matches the j-th smallest particles of every marginal.  For
costs whose mixed second derivatives are nonpositive (``comonotone_certified``)
this plan is optimal, so coupling values on the hot path are plain index-wise
sums.  A brute-force LP over the full product grid is kept as a correctness
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import CapacityError, DomainError, InvalidInputError, NumericalFailureError
from .geometry import Domain, ParticleDensity

LP_SCALE_CAP = 1_000_000  # on l * prod(K_i); the LP is an oracle, not a solver


@dataclass(frozen=True)
class CostFunction:
    """Cost c(x_1, ..., x_l) with vectorized evaluation and partials.

    ``fn`` maps arrays of shape (..., arity) to shape (...); ``partial_fns[i]``
    gives dc/dx_i with the same convention.  ``partial_bound`` must dominate
    every |dc/dx_i| on the domain the cost is used with.  Set
    ``comonotone_certified`` only when d2c/dx_i dx_j <= 0 for all i != j.
    """

    arity: int
    fn: Callable[[np.ndarray], np.ndarray]
    partial_fns: tuple[Callable[[np.ndarray], np.ndarray], ...]
    partial_bound: float
    comonotone_certified: bool = False
    name: str = "custom"

    def __post_init__(self):
        if self.arity < 2:
            raise InvalidInputError("costs must couple at least two populations")
        if len(self.partial_fns) != self.arity:
            raise InvalidInputError("need one partial per coordinate")
        if not (math.isfinite(self.partial_bound) and self.partial_bound >= 0):
            raise InvalidInputError("partial_bound must be finite and nonnegative")

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.shape[-1] != self.arity:
            raise InvalidInputError(f"expected trailing axis of size {self.arity}")
        return np.asarray(self.fn(xs), dtype=float)

    def partial(self, i: int, xs: np.ndarray) -> np.ndarray:
        if not 0 <= i < self.arity:
            raise InvalidInputError(f"coordinate {i} out of range for arity {self.arity}")
        xs = np.asarray(xs, dtype=float)
        if xs.shape[-1] != self.arity:
            raise InvalidInputError(f"expected trailing axis of size {self.arity}")
        return np.asarray(self.partial_fns[i](xs), dtype=float)


def zero_cost(arity: int = 2) -> CostFunction:
    def fn(xs):
        return np.zeros(xs.shape[:-1])

    partials = tuple(lambda xs: np.zeros(xs.shape[:-1]) for _ in range(arity))
    return CostFunction(arity, fn, partials, 0.0, comonotone_certified=True, name="zero")


def quadratic_pairwise_cost(domain: Domain) -> CostFunction:
    """c(x, y) = (x - y)^2; mixed second derivative -2, so certified."""

    def fn(xs):
        d = xs[..., 0] - xs[..., 1]
        return d * d

    partials = (
        lambda xs: 2.0 * (xs[..., 0] - xs[..., 1]),
        lambda xs: -2.0 * (xs[..., 0] - xs[..., 1]),
    )
    return CostFunction(
        2, fn, partials, 2.0 * domain.length, comonotone_certified=True,
        name="quadratic_pairwise",
    )


def barycenter_cost(weights: Sequence[float], domain: Domain) -> CostFunction:
    """c(x) = sum_k w_k (x_0 - x_k)^2 over the coordinates k >= 1.

    With weights (alpha, beta) this is the three-way attraction
    alpha |x1 - x2|^2 + beta |x1 - x3|^2.  Mixed partials are -2 w_k <= 0.
    """
    w = np.asarray(list(weights), dtype=float)
    if w.size < 1 or np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise InvalidInputError("barycenter weights must be positive reals")
    arity = w.size + 1

    def fn(xs):
        d = xs[..., 1:] - xs[..., :1]
        return np.sum(w * d * d, axis=-1)

    def make_partial(i):
        if i == 0:
            return lambda xs: -2.0 * np.sum(w * (xs[..., 1:] - xs[..., :1]), axis=-1)
        return lambda xs: 2.0 * w[i - 1] * (xs[..., i] - xs[..., 0])

    partials = tuple(make_partial(i) for i in range(arity))
    bound = 2.0 * domain.length * float(np.sum(w))
    return CostFunction(
        arity, fn, partials, bound, comonotone_certified=True, name="barycenter"
    )


@dataclass(frozen=True, eq=False)
class MultiMarginalPlan:
    """Discrete coupling of l particle densities.

    Support rows index into each marginal's atoms; weights are the coupled
    masses.  ``cost_value`` is filled by whichever routine built the plan
    with a cost at hand (None otherwise) and is always recomputable with
    ``plan_cost``.
    """

    marginals: tuple[ParticleDensity, ...]
    indices: np.ndarray  # (n_support, l) integer
    weights: np.ndarray  # (n_support,)
    cost_value: float | None = None

    def __post_init__(self):
        idx = np.asarray(self.indices)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "weights", w)
        if idx.ndim != 2 or idx.shape[1] != len(self.marginals) or idx.shape[0] != w.size:
            raise InvalidInputError("inconsistent plan support shapes")
        if np.any(w < -1e-15):
            raise InvalidInputError("plan weights must be nonnegative")

    @property
    def arity(self) -> int:
        return len(self.marginals)

    def support_positions(self) -> np.ndarray:
        """(n_support, l) matrix of coupled atom positions."""
        cols = [m.positions[self.indices[:, i]] for i, m in enumerate(self.marginals)]
        return np.stack(cols, axis=-1)

    def marginal_weights(self, i: int) -> np.ndarray:
        """Pushforward of the plan onto coordinate i, as weights per atom."""
        if not 0 <= i < self.arity:
            raise InvalidInputError(f"marginal index {i} out of range")
        return np.bincount(
            self.indices[:, i], weights=self.weights, minlength=self.marginals[i].n
        )


def plan_cost(plan: MultiMarginalPlan, cost: CostFunction) -> float:
    if cost.arity != plan.arity:
        raise InvalidInputError("cost arity does not match plan arity")
    return float(np.sum(plan.weights * cost.evaluate(plan.support_positions())))


def monotone_plan(
    marginals: Sequence[ParticleDensity], cost: CostFunction | None = None
) -> MultiMarginalPlan:
    """Index-diagonal coupling of the j-th smallest atoms of every marginal.

    Exact optimizer for certified-comonotone costs.  All marginals must share
    one particle count and domain; atom j carries weight 1/N.
    """
    marginals = tuple(marginals)
    if len(marginals) < 2:
        raise InvalidInputError("need at least two marginals")
    n = marginals[0].n
    dom = marginals[0].domain
    for m in marginals[1:]:
        if m.n != n:
            raise InvalidInputError(f"marginal particle counts differ: {m.n} vs {n}")
        if m.domain != dom:
            raise InvalidInputError("marginals live on different domains")
    idx = np.tile(np.arange(n)[:, None], (1, len(marginals)))
    weights = np.full(n, 1.0 / n)
    plan = MultiMarginalPlan(marginals, idx, weights)
    if cost is not None:
        plan = replace(plan, cost_value=plan_cost(plan, cost))
    return plan


def lp_solve_mm(
    marginals: Sequence[ParticleDensity], cost: CostFunction
) -> MultiMarginalPlan:
    """Exact multi-marginal optimum by exhaustive LP over the product grid.

    Oracle only: refuses instances with l * prod(K_i) beyond LP_SCALE_CAP.
    Optimality is certified from the returned equality duals (reduced costs
    >= -1e-8 and duality gap <= 1e-8); the support weights are then
    re-solved on the marginal constraints so each pushforward matches its
    marginal to machine precision.
    """
    # imported here: no certified cost needs the LP, and both are slow to import
    from scipy import sparse
    from scipy.optimize import linprog

    marginals = tuple(marginals)
    l = len(marginals)
    if l != cost.arity:
        raise InvalidInputError("cost arity does not match marginal count")
    size = math.prod(m.n for m in marginals)
    if l * size > LP_SCALE_CAP:
        raise CapacityError(
            f"LP scale l*prod(K)={l * size} exceeds cap {LP_SCALE_CAP}"
        )
    ks = [m.n for m in marginals]
    tuple_idx = np.indices(ks).reshape(l, size)
    pts = np.stack(
        [m.positions[tuple_idx[i]] for i, m in enumerate(marginals)], axis=-1
    )
    c = cost.evaluate(pts)

    rows = []
    offset = 0
    for i in range(l):
        rows.append(offset + tuple_idx[i])
        offset += ks[i]
    row = np.concatenate(rows)
    col = np.tile(np.arange(size), l)
    a_eq = sparse.coo_matrix((np.ones(l * size), (row, col)), shape=(offset, size))
    b_eq = np.concatenate([np.full(k, 1.0 / k) for k in ks])

    res = linprog(c, A_eq=a_eq.tocsr(), b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise NumericalFailureError(f"oracle LP failed: {res.message}")
    duals = res.eqlin.marginals
    reduced = c - a_eq.T @ duals
    if float(np.min(reduced)) < -1e-8:
        raise NumericalFailureError(
            "oracle LP duals infeasible", residual=float(-np.min(reduced))
        )
    gap = abs(float(res.fun) - float(b_eq @ duals))
    if gap > 1e-8:
        raise NumericalFailureError("oracle LP duality gap too large", residual=gap)

    keep = res.x > 1e-10
    support = tuple_idx[:, keep].T
    # polish: re-solve the weights on the fixed support so every marginal
    # is recovered exactly instead of to the LP feasibility tolerance
    a_sup = a_eq.tocsc()[:, keep].toarray()
    w, *_ = np.linalg.lstsq(a_sup, b_eq, rcond=None)
    if np.any(w < -1e-9) or float(np.max(np.abs(a_sup @ w - b_eq))) > 1e-12:
        w = res.x[keep]  # polish failed; fall back to raw LP weights
    w = np.maximum(w, 0.0)
    value = float(np.dot(w, c[keep]))
    return MultiMarginalPlan(marginals, support, w, cost_value=value)


def displacement_interpolate(
    rho0: ParticleDensity, rho1: ParticleDensity, t: float
) -> ParticleDensity:
    """Constant-speed geodesic between equal-count densities.

    Particle j moves on the straight line (1-t) x_j + t y_j; sortedness and
    the domain box are preserved by convexity.
    """
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"interpolation time {t!r} outside [0, 1]")
    if rho0.n != rho1.n:
        raise InvalidInputError("particle counts differ")
    if rho0.domain != rho1.domain:
        raise InvalidInputError("densities live on different domains")
    if t == 0.0:
        return rho0
    if t == 1.0:
        return rho1
    return ParticleDensity(rho0.domain, (1.0 - t) * rho0.positions + t * rho1.positions)


@dataclass(frozen=True)
class ConvexityReport:
    t_samples: tuple[float, ...]
    violations: tuple[float, ...]
    max_violation: float
    endpoint_values: tuple[float, float]
    evaluation: str  # "comonotone" or "lp"
    advisory_only: bool


def _coupling_value(cost: CostFunction, marginals) -> tuple[float, str]:
    if cost.comonotone_certified:
        return plan_cost(monotone_plan(marginals), cost), "comonotone"
    return float(lp_solve_mm(marginals, cost).cost_value), "lp"


def convexity_probe(
    cost: CostFunction,
    endpoints: tuple[Sequence[ParticleDensity], Sequence[ParticleDensity]],
    t_samples: Sequence[float] = (0.25, 0.5, 0.75),
) -> ConvexityReport:
    """Check convexity of the coupling value along displacement interpolation.

    For each t the tuple is interpolated component-wise and the coupling
    value is compared with the chord (1-t) W(a) + t W(b); positive numbers
    are convexity violations.  Certified costs are evaluated through the
    co-monotone plan (exact); uncertified costs go through the LP oracle,
    which raises CapacityError past LP_SCALE_CAP, and the report is flagged
    advisory-only.
    """
    tuple_a, tuple_b = (tuple(endpoints[0]), tuple(endpoints[1]))
    if len(tuple_a) != cost.arity or len(tuple_b) != cost.arity:
        raise InvalidInputError("endpoint tuples must match the cost arity")
    ts = tuple(float(t) for t in t_samples)
    for t in ts:
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"t sample {t!r} outside [0, 1]")
    value_a, eval_kind = _coupling_value(cost, tuple_a)
    value_b, _ = _coupling_value(cost, tuple_b)
    violations = []
    for t in ts:
        mid = tuple(
            displacement_interpolate(a, b, t) for a, b in zip(tuple_a, tuple_b)
        )
        v_mid, _ = _coupling_value(cost, mid)
        violations.append(v_mid - ((1.0 - t) * value_a + t * value_b))
    max_v = max(violations) if violations else 0.0
    return ConvexityReport(
        t_samples=ts,
        violations=tuple(violations),
        max_violation=float(max_v),
        endpoint_values=(value_a, value_b),
        evaluation=eval_kind,
        advisory_only=not cost.comonotone_certified,
    )


def semi_coupling_value(
    cost: CostFunction, frozen: Sequence[ParticleDensity], i: int, rho: ParticleDensity
) -> float:
    """Coupling value with rho in slot i and the frozen tuple elsewhere.

    Index-diagonal evaluation: the plan matches quantile ranks across all
    slots, which is optimal for certified costs with a shared N.
    """
    cols = list(frozen)
    cols.insert(i, rho)
    if len(cols) != cost.arity:
        raise InvalidInputError("frozen tuple size does not match cost arity")
    return plan_cost(monotone_plan(cols), cost)
