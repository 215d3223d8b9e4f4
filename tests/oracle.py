"""Exhaustive multi-marginal LP: the oracle the rank-diagonal coupling is checked against.

jkoflow evaluates couplings only for certified costs, through the
rank-diagonal plan (``jkoflow.coupling_value``).  This module solves the
same transport problem over the full product grid, with dual certificates,
for any cost, so the tests can confirm that plan's optimality and measure
what an uncertified cost would do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from jkoflow import (
    CostFunction,
    InvalidInputError,
    NumericalFailureError,
    ParticleDensity,
    displacement_interpolate,
)

LP_SCALE_CAP = 1_000_000  # on l * prod(K_i); the LP is an oracle, not a solver


class CapacityError(ValueError):
    """The LP instance exceeds LP_SCALE_CAP."""


@dataclass(frozen=True, eq=False)
class MultiMarginalPlan:
    """Discrete coupling of l particle densities.

    Support rows index into each marginal's atoms; weights are the coupled
    masses.  ``cost_value`` is filled by whichever routine built the plan
    with a cost at hand (None otherwise).
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


def lp_convexity_violations(
    cost: CostFunction,
    endpoints: tuple[Sequence[ParticleDensity], Sequence[ParticleDensity]],
    t_samples: Sequence[float] = (0.25, 0.5, 0.75),
) -> tuple[float, ...]:
    """LP coupling value at each interpolated tuple minus the chord between the endpoints.

    ``jkoflow.convexity_probe`` measured on this oracle, for any cost.
    """
    tuple_a, tuple_b = (tuple(endpoints[0]), tuple(endpoints[1]))
    value_a = lp_solve_mm(tuple_a, cost).cost_value
    value_b = lp_solve_mm(tuple_b, cost).cost_value
    return tuple(
        lp_solve_mm(
            tuple(displacement_interpolate(a, b, t) for a, b in zip(tuple_a, tuple_b)), cost
        ).cost_value
        - ((1.0 - t) * value_a + t * value_b)
        for t in t_samples
    )
