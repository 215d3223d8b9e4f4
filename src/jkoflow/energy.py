"""Internal (diffusion-driving) energies and their discrete evaluation.

An internal energy is F(rho) = integral of f(rho(x)) dx for an integrand
f with f(0) = 0: the entropy s log s, a power law c s^m (m > 0, c real) or
zero.  On N sorted particles the integral is evaluated by the gap
reconstruction: between consecutive particles the density is 1/(N * gap), so

    F(rho) ~= sum_j gap_j * f(1 / (N * gap_j))        (N - 1 interior gaps)

with gaps floored at EPS_FLOOR times the domain length so coinciding
particles give a large but finite value.  The pressure p(s) = s f'(s) - f(s)
is what shows up in force balances: the exact gradient of the discrete
energy at particle j is p(density right of j) - p(density left of j), and
p' gives each gap's curvature.  An InternalEnergy therefore carries three
closed forms, f, p and p', and gap_terms turns one pass over the gaps of a
plain position array into the value, the gradient and the gap curvatures
for the step solver; energy_value and energy_gradient apply it to a
ParticleDensity.  gap_terms also takes several equal-size populations laid
end to end, the step solver's layout, and masks the gaps between them out.
Each energy also states in closed form whether F is displacement convex,
the convexity the contraction probe needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .geometry import ParticleDensity

EPS_FLOOR = 1e-12  # gap floor, relative to the domain length

Form = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class InternalEnergy:
    """The integrand f, the pressure p(s) = s f'(s) - f(s) and p', vectorized over s > 0.

    All three are None for the zero energy, the one kind the kernels skip.
    displacement_convex says whether F is displacement convex (McCann, 1997):
    in one dimension, whether r -> r f(1/r) is convex and nonincreasing.
    """

    f: Form | None
    p: Form | None
    dp: Form | None
    displacement_convex: bool


@cache  # built-in energies: one object per argument, so rows that share it share its evaluation
def entropy_energy() -> InternalEnergy:
    """f(s) = s log s (Boltzmann entropy; linear diffusion): p = s, p' = 1."""
    return InternalEnergy(lambda s: s * np.log(s), np.copy, np.ones_like, True)


def power_law_energy(exponent: float, coefficient: float = 1.0) -> InternalEnergy:
    """f(s) = c s^m for m > 0 and real c: p = c (m-1) s^m, p' = c m (m-1) s^(m-1).

    c = 1, m > 1 is porous-medium diffusion and c < 0, m < 1 fast diffusion.
    r f(1/r) = c r^(1-m) is convex and nonincreasing iff c (m-1) >= 0.
    """
    if not (exponent > 0 and np.isfinite(exponent) and np.isfinite(coefficient)):
        raise InvalidInputError("power_law needs a positive exponent and a finite coefficient")
    return _power_law(float(exponent), float(coefficient))


@cache
def _power_law(m: float, c: float) -> InternalEnergy:
    a, b = c * (m - 1.0), c * m * (m - 1.0)
    return InternalEnergy(
        lambda s: c * np.power(s, m),
        lambda s: a * np.power(s, m),
        lambda s: b * np.power(s, m - 1.0),
        a >= 0.0,
    )


def zero_energy() -> InternalEnergy:
    """f = 0, no diffusion: a population moves only through its coupling, if it has one."""
    return InternalEnergy(None, None, None, True)


def _gaps(x: np.ndarray, length: float, rows: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The gap right of each particle floored at EPS_FLOOR * length, and which exceed the floor.

    For ``rows`` equal-size populations end to end, a population's last particle has
    no gap: its entry reads ``length`` and counts as floored."""
    n = x.size // rows
    if n < 2:
        raise InvalidInputError("discrete energy needs at least two particles")
    raw = np.empty(x.size)
    np.subtract(x[1:], x[:-1], out=raw[:-1])
    raw[n - 1::n] = length
    floor = EPS_FLOOR * length
    above = raw > floor
    above[n - 1::n] = False
    return np.maximum(raw, floor), above


def gap_terms(
    e: InternalEnergy, x: np.ndarray, length: float, rows: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Discrete energies of sorted positions x, the gradient and the gap curvatures.

    Each gap contributes d/d(gap) [gap * f(s)] = -p(s), s = 1/(N gap), to its
    right particle and the negative to its left one.  Its curvature, the
    second derivative of its term in its gap, is p'(s) / (N gap^2), so the
    energy Hessian in the positions is D^T diag(curvature) D with D the gap
    difference operator.  Floored (collided) gaps contribute no gradient and
    no curvature, matching the flat spot of the floored evaluation.

    For ``rows`` populations end to end (see _gaps) the energies come back per
    population and each particle's curvature, of its right gap, is 0 at a row end.
    """
    if e.f is None:
        return np.zeros(rows), np.zeros(x.size), np.zeros(x.size)
    n = x.size // rows
    gaps, above = _gaps(x, length, rows)
    s = 1.0 / (n * gaps)
    dterm = np.where(above, -e.p(s), 0.0)[:-1]
    grad = np.zeros(x.size)
    grad[1:] += dterm
    grad[:-1] -= dterm
    curvature = np.where(above, e.dp(s) / (n * gaps * gaps), 0.0)
    terms = (gaps * e.f(s)).reshape(rows, n)[:, :-1]
    return np.add.reduce(terms, axis=1), grad, curvature


def energy_value(e: InternalEnergy, rho: ParticleDensity) -> float:
    """Discrete internal energy of a particle density (see module docstring)."""
    return float(gap_terms(e, rho.positions, rho.domain.length)[0][0])


def energy_gradient(e: InternalEnergy, rho: ParticleDensity) -> np.ndarray:
    """Exact gradient of energy_value with respect to the particle positions."""
    return gap_terms(e, rho.positions, rho.domain.length)[1]


def floored_gap_count(e: InternalEnergy, rho: ParticleDensity) -> int:
    """How many inter-particle gaps sit at the collision floor (diagnostic)."""
    if rho.n < 2:
        return 0
    return int(np.count_nonzero(~_gaps(rho.positions, rho.domain.length)[1][:-1]))
