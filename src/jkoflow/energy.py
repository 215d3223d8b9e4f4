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
for the step solver (the weak form takes the gradient alone), and energy_value
and energy_gradient apply it to a ParticleDensity.  gap_terms also takes several
equal-size populations end to end, the step solver's layout, and masks the gaps
between them out.  Each energy also states in closed form whether F is
displacement convex, the convexity the contraction probe needs.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidInputError
from .geometry import ParticleDensity

EPS_FLOOR = 1e-12  # gap floor, relative to the domain length

Form = Callable[[np.ndarray], np.ndarray]


class InternalEnergy(NamedTuple):
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


def _gaps(x: np.ndarray, length: float, rows: int = 1) -> tuple[np.ndarray, slice | np.ndarray]:
    """The gap right of each particle floored at EPS_FLOOR * length, and the index of the
    floored ones: a mask, or the row ends' slice if no gap is at the floor (a population's
    last particle, of ``rows`` end to end, has no gap: it reads ``length``, floored)."""
    n = x.size // rows
    if n < 2:
        raise InvalidInputError("discrete energy needs at least two particles")
    gaps = np.empty(x.size)
    np.subtract(x[1:], x[:-1], gaps[:-1])
    gaps[n - 1::n] = length
    floor = EPS_FLOOR * length
    if np.minimum.reduce(gaps) > floor:  # False on a NaN
        return gaps, slice(n - 1, None, n)
    floored = ~(gaps > floor)
    floored[n - 1::n] = True
    return np.maximum(gaps, floor), floored


def _gap_gradient(e: InternalEnergy, x: np.ndarray, length: float, rows: int = 1):
    """gap_terms' gradient for a nonzero energy and its pass's gaps, N gaps, densities s and
    floored index; -p(s) is 0.0 - p(s), rounded as its sum into zeros is: +0.0 where p is 0."""
    gaps, floored = _gaps(x, length, rows)
    scaled = (x.size // rows) * gaps
    s = 1.0 / scaled
    push = np.zeros(x.size + 1)  # push[j + 1]: gap j's term, pushing particle j + 1
    np.subtract(0.0, e.p(s), push[1:])
    push[1:][floored] = 0.0
    return push[:-1] - push[1:], (gaps, scaled, s, floored)


def gap_terms(e: InternalEnergy, x: np.ndarray, length: float, rows: int = 1
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Discrete energies of sorted positions x, the gradient, the gap curvatures and the
    gaps, if none is at the floor (else None, as for the zero energy).

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
        return np.zeros(rows), np.zeros(x.size), np.zeros(x.size), None
    grad, (gaps, scaled, s, floored) = _gap_gradient(e, x, length, rows)
    curvature = e.dp(s) / (scaled * gaps)
    curvature[floored] = 0.0
    terms = (gaps * e.f(s)).reshape(rows, -1)[:, :-1]
    return np.add.reduce(terms, 1), grad, curvature, gaps if isinstance(floored, slice) else None


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
    floored = _gaps(rho.positions, rho.domain.length)[1]
    return 0 if isinstance(floored, slice) else int(np.count_nonzero(floored[:-1]))
