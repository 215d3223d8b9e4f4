"""Multi-marginal couplings of particle densities.

Only certified costs are coupled: those whose mixed second derivatives are
nonpositive (``comonotone_certified``).  For them the co-monotone plan, which
with a shared particle count matches the j-th smallest particles of every
marginal, is optimal (Carlier, J. Convex Anal. 2003), so a coupling value is
the mean of the cost over the rank-diagonal tuples (``coupling_value``).
``require_certified`` refuses every other cost.  The exhaustive LP that
checks this optimality is a test oracle and lives beside the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InvalidInputError
from .geometry import Domain, ParticleDensity


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


def require_certified(cost: CostFunction, owner: str) -> None:
    """Refuse a cost whose optimal plan is not certified to be the rank-diagonal one."""
    if not cost.comonotone_certified:
        raise InvalidInputError(
            f"{owner} uses an uncertified cost; couplings are evaluated through the "
            "rank-diagonal plan, which is only optimal for certified costs"
        )


def coupling_value(cost: CostFunction, marginals: Sequence[ParticleDensity]) -> float:
    """Optimal coupling value of a certified cost: its mean over the rank-diagonal tuples.

    One marginal per cost slot, all sharing one particle count and domain;
    the j-th smallest atoms of every marginal are coupled with mass 1/N.
    """
    require_certified(cost, "coupling_value")
    marginals = tuple(marginals)
    if len(marginals) != cost.arity:
        raise InvalidInputError(
            f"need one marginal per cost slot ({cost.arity}), got {len(marginals)}"
        )
    n, dom = marginals[0].n, marginals[0].domain
    for m in marginals[1:]:
        if m.n != n:
            raise InvalidInputError(f"marginal particle counts differ: {m.n} vs {n}")
        if m.domain != dom:
            raise InvalidInputError("marginals live on different domains")
    return float(np.mean(cost.evaluate(np.stack([m.positions for m in marginals], axis=-1))))


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


def convexity_probe(
    cost: CostFunction,
    endpoints: tuple[Sequence[ParticleDensity], Sequence[ParticleDensity]],
    t_samples: Sequence[float] = (0.25, 0.5, 0.75),
) -> ConvexityReport:
    """Check convexity of the coupling value along displacement interpolation.

    For each t the tuple is interpolated component-wise and the coupling
    value is compared with the chord (1-t) W(a) + t W(b); positive numbers
    are convexity violations.  ``coupling_value`` refuses uncertified costs
    and tuples that do not fill the cost's slots, ``displacement_interpolate``
    every t outside [0, 1].
    """
    tuple_a, tuple_b = (tuple(endpoints[0]), tuple(endpoints[1]))
    ts = tuple(float(t) for t in t_samples)
    value_a = coupling_value(cost, tuple_a)
    value_b = coupling_value(cost, tuple_b)
    violations = []
    for t in ts:
        mid = tuple(displacement_interpolate(a, b, t) for a, b in zip(tuple_a, tuple_b))
        violations.append(coupling_value(cost, mid) - ((1.0 - t) * value_a + t * value_b))
    max_v = max(violations) if violations else 0.0
    return ConvexityReport(
        t_samples=ts,
        violations=tuple(violations),
        max_violation=float(max_v),
        endpoint_values=(value_a, value_b),
    )
