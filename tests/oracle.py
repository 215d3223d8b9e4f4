"""Exhaustive multi-marginal LP: the oracle the rank-diagonal coupling is checked against.

jkoflow couples only through its quadratic cost family, whose optimal plan
is the rank-diagonal one (``jkoflow.coupling_value``).  This module solves
the same transport problem over the full product grid, with dual
certificates, for any cost given by a callback (``CostFunction``), so the
tests can confirm that plan's optimality and measure what a cost outside
the family would do.  Beside it, the sampled convexity probe: a coupling
value at displacement interpolations of two tuples against its chord, the
sampling that ``jkoflow.convexity_probe`` states in closed form, and the
rounding bound between the two.

It also holds three oracles for the internal energies: a sampled test of
displacement convexity, against which each energy's closed-form flag is
checked, the gap pass written out one gap at a time, and the power-law
source solutions for every m > 1; the
reference contract of ParticleDensity, entry by entry; and the per-step
references of the probes' whole-array passes: the weak form assembled one
step at a time from ParticleDensity states and each population's
diagnostics, and the contraction distances as the product W2 distance
(sum_i W2^2)^(1/2) of each pair of states, from w2_distance.  Last, the text
of a trajectory CSV, one float's repr at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from jkoflow import (
    ConvexityReport,
    Domain,
    FlowTrajectory,
    GridDensity,
    InternalEnergy,
    InvalidInputError,
    NumericalFailureError,
    ParticleDensity,
    QuadraticCost,
    TestFunction,
    WeakFormReport,
    energy_gradient,
    profile_grid,
    w2_distance,
)
from jkoflow.energy import EPS_FLOOR

EPS = float(np.finfo(float).eps)
LP_SCALE_CAP = 1_000_000  # on l * prod(K_i); the LP is an oracle, not a solver
# log-spaced dilation factors r and relative tolerance of mccann_check
MCCANN_R_MIN = 1e-3
MCCANN_R_MAX = 1e3
MCCANN_SAMPLES = 200
MCCANN_TOL = 1e-10


class CapacityError(ValueError):
    """The LP instance exceeds LP_SCALE_CAP."""


@dataclass(frozen=True)
class CostFunction:
    """Any cost c(x_1, ..., x_l): ``fn`` maps arrays of shape (..., arity) to shape (...)."""

    arity: int
    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.shape[-1] != self.arity:
            raise InvalidInputError(f"expected trailing axis of size {self.arity}")
        return np.asarray(self.fn(xs), dtype=float)


def difference_form(cost: QuadraticCost) -> CostFunction:
    """A QuadraticCost summed term by term, sum_k w_k (x_0 - x_k)^2: the reference for
    its centred form and the form in which the LP evaluates it."""
    w = np.array(cost.weights)
    return CostFunction(cost.arity, lambda xs: np.sum(w * (xs[..., :1] - xs[..., 1:]) ** 2,
                                                      axis=-1), cost.name)


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
    marginals: Sequence[ParticleDensity], cost: CostFunction | QuadraticCost
) -> MultiMarginalPlan:
    """Exact multi-marginal optimum by exhaustive LP over the product grid.

    A QuadraticCost is evaluated in its difference form.  Oracle only:
    refuses instances with l * prod(K_i) beyond LP_SCALE_CAP.  Optimality is
    certified from the returned equality duals (reduced costs >= -1e-8 and
    duality gap <= 1e-8); the support weights are then re-solved on the
    marginal constraints so each pushforward matches its marginal to machine
    precision.
    """
    # imported here: jkoflow never needs the LP, and both are slow to import
    from scipy import sparse
    from scipy.optimize import linprog

    if isinstance(cost, QuadraticCost):
        cost = difference_form(cost)
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
        raise InvalidInputError(f"interpolation time {t!r} outside [0, 1]")
    if rho0.n != rho1.n:
        raise InvalidInputError("particle counts differ")
    if rho0.domain != rho1.domain:
        raise InvalidInputError("densities live on different domains")
    if t == 0.0:
        return rho0
    if t == 1.0:
        return rho1
    return ParticleDensity(rho0.domain, (1.0 - t) * rho0.positions + t * rho1.positions)


def sampled_convexity_violations(
    value: Callable[[tuple[ParticleDensity, ...]], float],
    endpoints: tuple[Sequence[ParticleDensity], Sequence[ParticleDensity]],
    t_samples: Sequence[float] = (0.25, 0.5, 0.75),
) -> tuple[float, ...]:
    """``value`` at each interpolated tuple minus the chord between the endpoints.

    With ``coupling_value`` this is the sampled form of what
    ``jkoflow.convexity_probe`` states in closed form; with the LP, any cost's.
    """
    tuple_a, tuple_b = (tuple(endpoints[0]), tuple(endpoints[1]))
    value_a, value_b = value(tuple_a), value(tuple_b)
    return tuple(
        value(tuple(displacement_interpolate(a, b, t) for a, b in zip(tuple_a, tuple_b)))
        - ((1.0 - t) * value_a + t * value_b)
        for t in t_samples
    )


def lp_convexity_violations(
    cost: CostFunction | QuadraticCost,
    endpoints: tuple[Sequence[ParticleDensity], Sequence[ParticleDensity]],
    t_samples: Sequence[float] = (0.25, 0.5, 0.75),
) -> tuple[float, ...]:
    """The LP coupling value's convexity violations, for any cost."""
    return sampled_convexity_violations(lambda m: lp_solve_mm(m, cost).cost_value,
                                        endpoints, t_samples)


def convexity_rounding_bound(
    cost: QuadraticCost,
    endpoints: tuple[Sequence[ParticleDensity], Sequence[ParticleDensity]],
    report: ConvexityReport,
) -> float:
    """A bound on |sampled - closed form| at every t of ``convexity_probe``'s report.

    EPS is machine epsilon, twice the unit roundoff; N the particle count,
    L the domain's length, X its largest |bound|, s = sum_k w_k.  To first
    order in EPS:
    - an interpolated position (1-t) a + t b is rounded by at most 2 EPS X,
      and moves the rank cost sum_k w_k (x_0 - x_k)^2, whose differences
      are at most L, by at most 2 s L (2 EPS X + 2 EPS X) = 8 EPS s L X;
    - ``coupling_value`` itself rounds its centre m = sum_k w_k y_k / s by
      at most arity EPS X, which moves the rank cost by at most
      4 arity EPS s L X (the squared differences from m have factors
      at most L), and each term and the N-term sum of nonnegative terms by
      at most (N + 4) EPS of W; this holds at both endpoints and at the
      sampled tuple, where W is at most W(a) + W(b) by convexity;
    - the chord and the subtraction add at most 3 EPS (W(a) + W(b));
    - the closed form evaluates Q = W(b - a) the same way, with X <= L and
      differences at most 2 L, after rounding b - a by EPS L / 2: at most
      (8 arity + 4) EPS s L^2 + (N + 4) EPS Q, scaled by t(1-t) <= 1/4.
    The sum is at most EPS ((2N + 12)(W(a) + W(b) + Q) + 8 (arity + 1) s L (X + L));
    the terms of order EPS^2 are far inside the constants' rounding up.
    """
    first = tuple(endpoints[0])[0]
    length, x = first.domain.length, max(abs(first.domain.lower), abs(first.domain.upper))
    w_a, w_b = report.endpoint_values
    return EPS * ((2 * first.n + 12) * (w_a + w_b + report.curvature)
                  + 8 * (cost.arity + 1) * sum(cost.weights) * length * (x + length))


@dataclass(frozen=True)
class McCannReport:
    satisfied: bool
    first_violation: float | None = None
    reason: str | None = None


def mccann_check(e: InternalEnergy) -> McCannReport:
    """One-dimensional displacement-convexity test: r -> r f(1/r) convex nonincreasing.

    Checked on MCCANN_SAMPLES log-spaced dilation factors in [MCCANN_R_MIN,
    MCCANN_R_MAX]; tolerances are MCCANN_TOL relative to the local magnitude
    of the sampled values / slopes.  Returns the first violating r if the
    check fails.
    """
    if e.f is None:
        return McCannReport(True)
    r = np.logspace(math.log10(MCCANN_R_MIN), math.log10(MCCANN_R_MAX), MCCANN_SAMPLES)
    phi = r * e.f(r ** -1.0)
    if not np.all(np.isfinite(phi)):
        return McCannReport(False, float(r[np.argmax(~np.isfinite(phi))]), "non-finite")
    dphi = np.diff(phi)
    scale = np.maximum(1.0, np.maximum(np.abs(phi[:-1]), np.abs(phi[1:])))
    bad = dphi > MCCANN_TOL * scale
    if np.any(bad):
        return McCannReport(False, float(r[1:][bad][0]), "increasing")
    slopes = dphi / np.diff(r)
    dslope = np.diff(slopes)
    sscale = np.maximum(1.0, np.maximum(np.abs(slopes[:-1]), np.abs(slopes[1:])))
    bad = dslope < -MCCANN_TOL * sscale
    if np.any(bad):
        return McCannReport(False, float(r[1:-1][bad][0]), "non-convex")
    return McCannReport(True)


def gap_forms(kind: str, m: float = 1.0, c: float = 1.0):
    """f, p and p' of an internal energy written out by formula, for one numpy float64 s at
    a time (numpy's log and power, which Python's math module rounds differently for some s):
    the entropy s log s, the power law c s^m, or None for the zero energy."""
    if kind == "entropy":
        return (lambda s: s * np.log(s), lambda s: s, lambda s: 1.0)
    if kind == "power_law":
        return (lambda s: c * np.power(s, m), lambda s: c * (m - 1.0) * np.power(s, m),
                lambda s: c * m * (m - 1.0) * np.power(s, m - 1.0))
    return None


def per_gap_terms(forms, x: np.ndarray, length: float, rows: int = 1):
    """``jkoflow.energy``'s gap pass one gap at a time, for ``rows`` populations of sorted
    positions end to end and ``forms`` from gap_forms: each row's energy, the gradient, each
    particle's curvature, the gaps, and whether any gap is at the floor.

    The gap right of a particle is floored at EPS_FLOOR * length (a row's last particle
    has none: its slot reads ``length``); s = 1 / (N gap).  Each gap adds its term
    gap f(s) to its row's energy, pushes the particle right of it by -p(s) and the
    particle left of it by p(s), and has curvature p'(s) / (N gap^2); a floored gap or a
    row end pushes by +0.0 and has curvature 0.  A row's energy sums its N - 1 terms
    in one numpy reduction, whose pairwise order the gap pass's row reduction has too.
    """
    x = np.asarray(x, dtype=float)  # its items are numpy float64 scalars
    n = len(x) // rows
    if forms is None:
        return np.zeros(rows), np.zeros(len(x)), np.zeros(len(x)), None, False
    f, p, dp = forms
    floor = EPS_FLOOR * length
    energies, grad, curvature, gaps, any_floored = [], [], [], [], False
    for r in range(rows):
        terms, left = [], 0.0  # the push of the gap left of the particle
        for j in range(r * n, (r + 1) * n):
            end = j == (r + 1) * n - 1
            gap = np.float64(length) if end else x[j + 1] - x[j]
            floored = end or not gap > floor
            if floored and not end:
                gap, any_floored = floor, True
            s = 1.0 / (n * gap)
            push = 0.0 if floored else 0.0 - p(s)
            grad.append(left - push)
            curvature.append(0.0 if floored else dp(s) / (n * gap * gap))
            gaps.append(gap)
            if not end:
                terms.append(gap * f(s))
            left = push
        energies.append(np.add.reduce(np.array(terms)))
    return np.array(energies), np.array(grad), np.array(curvature), np.array(gaps), any_floored


def barenblatt_density_m(m: float, t: float):
    """Source solution of the flow of f(s) = s^m, m > 1, at time t, and its support radius.

    The flow is u_t = (m-1) (u^m)_xx.  In tau = (m-1) t its unit-mass
    Barenblatt solution is tau^(-a) (C - k y^2 tau^(-2a))_+^q with
    a = 1/(m+1), k = a (m-1) / (2m), q = 1/(m-1) and y the offset from its
    centre (Vazquez, The Porous Medium Equation, 2007).  Its mass is
    sqrt(C/k) C^q B(1/2, q+1), which fixes C.  Returns the density as a
    function of y and the radius sqrt(C/k) tau^a.
    """
    a, q = 1.0 / (m + 1.0), 1.0 / (m - 1.0)
    k = a * (m - 1.0) / (2.0 * m)
    beta = math.sqrt(math.pi) * math.gamma(q + 1.0) / math.gamma(q + 1.5)
    c = (math.sqrt(k) / beta) ** (1.0 / (q + 0.5))
    tau = (m - 1.0) * t

    def density(y):
        return tau ** (-a) * np.maximum(c - k * y * y * tau ** (-2.0 * a), 0.0) ** q

    return density, math.sqrt(c / k) * tau**a


def barenblatt_profile_m(m: float, t: float, domain: Domain) -> GridDensity:
    """barenblatt_density_m centred on the domain, on the preset grid.

    At m = 2 this is ``jkoflow.barenblatt_profile``.
    """
    density, radius = barenblatt_density_m(m, t)
    if radius >= domain.length / 2.0:
        raise InvalidInputError("domain too small for the source solution support")
    mid = 0.5 * (domain.lower + domain.upper)
    return profile_grid(domain, lambda x: density(x - mid))


def density_refusal(domain: Domain, positions) -> str | None:
    """Why ParticleDensity must refuse 1-d positions, or None if it must accept them.

    The contract, checked entry by entry in its order: every position is
    finite, the positions are nondecreasing, and every one lies in the
    domain; the message is that of the first check that fails.
    """
    x = [float(v) for v in positions]
    if not all(math.isfinite(v) for v in x):
        return "positions must be finite"
    if any(b < a for a, b in zip(x, x[1:])):
        return "positions must be sorted nondecreasing"
    if not all(domain.lower <= v <= domain.upper for v in x):
        return f"positions must lie in [{domain.lower}, {domain.upper}]"
    return None


def per_step_weak_form(traj: FlowTrajectory, phi: TestFunction, population: int) -> WeakFormReport:
    """``jkoflow.weak_form_residual`` assembled one step at a time: each step's terms from
    its ParticleDensity states, at scalar times, and the bound from one diagnostic at a time."""
    config = traj.config
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
        if p.coupling is not None:  # against the partners frozen at step k, slot by slot
            total, moment = 0.0, 0.0
            for w, j in zip(p.coupling.cost.weights, p.coupling.partners):
                total, moment = total + w, moment + w * state_k[j].positions
            m = moment / (total if total != 0.0 else 1.0)
            drive = drive + 2.0 * total * (x_new.positions - m)
        terms.append(float(
            -config.h * np.mean(drive * phi.dx(t_k, x_new.positions))
        ))
    terms.append(float(np.mean(phi.value(traj.times[0], traj.states[0][i].positions))))
    terms.append(float(-np.mean(phi.value(traj.times[-1], traj.final[i].positions))))
    total = math.fsum(terms)
    el_sum = math.fsum(float(traj.columns["el_residual"][k, i]) for k in range(config.n_steps))
    w2_sum = math.fsum(float(traj.columns["w2_sq"][k, i]) for k in range(config.n_steps))
    bound = phi.sup_dx * el_sum + 0.5 * phi.sup_dxx * w2_sum
    cushion = 1e-12 * (1.0 + bound)
    return WeakFormReport(population=i, residual=total, bound=bound,
                          satisfied=abs(total) <= bound + cushion)


def per_step_contraction_distances(traj: FlowTrajectory, rerun: FlowTrajectory) -> tuple:
    """``jkoflow.contraction_probe``'s distances: the product W2 distance of each pair of
    states."""
    return tuple(math.sqrt(sum(w2_distance(a, b) ** 2 for a, b in zip(sa, sb)))
                 for sa, sb in zip(traj.states, rerun.states))


def trajectory_text(times, positions) -> bytes:
    """``jkoflow.trajectory_csv``'s bytes: the header, then ``t`` and the row's positions,
    each float's repr, joined by commas."""
    rows = np.asarray(positions).tolist()
    lines = ["t," + ",".join(f"particle_{j}" for j in range(len(rows[0])))]
    lines += [",".join(map(repr, [float(t), *row])) for t, row in zip(times, rows)]
    return ("\n".join(lines) + "\n").encode()
