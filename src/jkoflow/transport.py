"""Multi-marginal couplings of particle densities.

Every coupling uses the one cost family c = sum_k w_k (x_0 - x_k)^2 with
weights w_k >= 0 (``QuadraticCost``).  Its mixed second derivatives -2 w_k
are nonpositive, so the co-monotone plan, which with a shared particle count
matches the j-th smallest particles of every marginal, is optimal (Carlier,
J. Convex Anal. 2003), and a coupling value is the mean of the cost over
the rank-diagonal tuples (``coupling_value``).  Each population sits in
slot 0 of its own cost, a centred quadratic of its particle against its
partners (``centred``), which is how the step solver evaluates it.  The
exhaustive LP that checks this optimality, for any cost, is a test oracle
and lives beside the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, InvalidInputError
from .geometry import ParticleDensity


@dataclass(frozen=True)
class QuadraticCost:
    """c(x_0, ..., x_K) = sum_k w_k (x_0 - x_k)^2, the cost of every coupling.

    One weight 1 gives the squared distance (x - y)^2, the W2^2 coupling;
    weights (alpha, beta) give the three-way attraction alpha (x_0 - x_1)^2
    + beta (x_0 - x_2)^2; zero weights give the zero cost.  Its curvature is
    2 sum_k w_k in slot 0 and 2 w_k in slot k, its mixed partials -2 w_k.
    """

    weights: tuple[float, ...]
    name: str = "quadratic"

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        if not w or not all(math.isfinite(v) and v >= 0.0 for v in w):
            raise InvalidInputError("cost weights must be finite and nonnegative, at least one")
        object.__setattr__(self, "weights", w)

    @property
    def arity(self) -> int:
        return len(self.weights) + 1

    def partial_bound(self, length: float) -> float:
        """A bound on every |dc/dx_i| on a domain of this length."""
        return 2.0 * length * sum(self.weights)


def weight_total(weights) -> tuple:
    """sum_k w_k over the slots along axis 0, in order from +0.0 (a numpy reduction would
    sum pairwise), and the divisor that centred takes: that total with 1.0 in place of 0."""
    total = sum(weights, 0.0)
    return total, np.where(total == 0.0, 1.0, total)


def centred(weights, partners, divisor=None) -> tuple[np.ndarray, np.ndarray]:
    """(m, c) such that sum_k w_k (x - y_k)^2 = (sum_k w_k)(x - m)^2 + c at each rank.

    The partners y_k come in slot order along axis 0 (of an array, or as a
    sequence of arrays, stacked into one), the weights w_k beside them,
    scalars or arrays that broadcast against a partner; the cost's curvature
    in x is a = 2 sum_k w_k.  w y, y - m and w (y - m)^2 are each one pass
    over the whole table; every sum runs over the slots in order from +0.0,
    the weight total's too (weight_total), so a zero weight adds +0.0 and a
    weight sum of 0 gives m = c = 0.  ``divisor`` is weight_total's divisor of
    these weights, which a caller that centres on one set of weights again
    and again holds; it is built from the weights when not given.
    """
    y, w = np.asarray(partners), np.asarray(weights, dtype=float)
    w = w.reshape(w.shape + (1,) * (y.ndim - w.ndim))  # slot k's weights beside y_k
    if divisor is None:
        divisor = weight_total(w)[1]
    m = sum(w * y, 0.0) / divisor
    d = y - m
    d *= d
    d *= w
    return m, sum(d, 0.0)


def coupling_value(cost: QuadraticCost, marginals: Sequence[ParticleDensity]) -> float:
    """Optimal coupling value: the cost's mean over the rank-diagonal tuples.

    One marginal per cost slot, all sharing one particle count and domain;
    the j-th smallest atoms of every marginal are coupled with mass 1/N.
    """
    if not isinstance(cost, QuadraticCost):
        raise InvalidInputError("coupling_value needs a QuadraticCost: the rank-diagonal plan "
                                "is only known to be optimal for it")
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
    return _mean_cost(cost, [m.positions for m in marginals])


def _mean_cost(cost: QuadraticCost, columns: Sequence[np.ndarray]) -> float:
    """The cost's mean over the rank tuples of ``columns``, one column per slot."""
    centre, c0 = centred(cost.weights, columns[1:])
    d, a = columns[0] - centre, 2.0 * sum(cost.weights, 0.0)
    return float(np.add.reduce(0.5 * a * d * d + c0) / len(d))  # as the step kernel sums it


class ConvexityReport(NamedTuple):
    t_samples: tuple[float, ...]
    violations: tuple[float, ...]
    max_violation: float
    endpoint_values: tuple[float, float]
    curvature: float


def convexity_probe(
    cost: QuadraticCost,
    endpoints: tuple[Sequence[ParticleDensity], Sequence[ParticleDensity]],
    t_samples: Sequence[float] = (0.25, 0.5, 0.75),
) -> ConvexityReport:
    """Convexity of the coupling value W along displacement interpolation, in closed form.

    W is a quadratic form of the tuple, so at (1-t) a + t b it is exactly the
    chord (1-t) W(a) + t W(b) minus t(1-t) Q, the curvature Q = W(b - a) >= 0
    taken slot-wise: each t's violation is -t(1-t) Q (+0.0 at t = 0 and 1).
    ``coupling_value`` refuses any other cost and tuples that do not fill
    its slots; the two tuples must share N and domain, and each t lie in [0, 1].
    """
    tuple_a, tuple_b = (tuple(endpoints[0]), tuple(endpoints[1]))
    value_a, value_b = coupling_value(cost, tuple_a), coupling_value(cost, tuple_b)
    if (tuple_a[0].n, tuple_a[0].domain) != (tuple_b[0].n, tuple_b[0].domain):
        raise InvalidInputError("the two tuples differ in particle count or domain")
    ts = tuple(float(t) for t in t_samples)
    if not all(0.0 <= t <= 1.0 for t in ts):
        raise DomainError(f"interpolation times {ts} not all in [0, 1]")
    q = _mean_cost(cost, [b.positions - a.positions for a, b in zip(tuple_a, tuple_b)])
    violations = tuple(0.0 - t * (1.0 - t) * q for t in ts)
    return ConvexityReport(ts, violations, max(violations, default=0.0), (value_a, value_b), q)
