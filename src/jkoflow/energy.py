"""Internal (diffusion-driving) energies and their discrete evaluation.

An internal energy is F(rho) = integral of f(rho(x)) dx for a convex
integrand f with f(0) = 0.  On N sorted particles the integral is evaluated
by the gap reconstruction: between consecutive particles the density is
1/(N * gap), so

    F(rho) ~= sum_j gap_j * f(1 / (N * gap_j))        (N - 1 interior gaps)

with gaps floored at EPS_FLOOR times the domain length so coinciding
particles give a large but finite value.  The pressure p(s) = s f'(s) - f(s)
is what shows up in force balances: the exact gradient of the discrete
energy at particle j is p(density right of j) - p(density left of j), and
p' gives each gap's curvature.  An InternalEnergy therefore carries three
closed forms, f, p and p', and gap_terms turns one pass over the gaps of a
plain position array into the value, the gradient and the gap curvatures
for the step solver; energy_value and energy_gradient apply it to a
ParticleDensity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import xlogy

from .errors import InvalidInputError
from .geometry import ParticleDensity

EPS_FLOOR = 1e-12  # gap floor, relative to the domain length
# sample grid for growth / convexity certificates on custom integrands
_CHECK_GRID = np.logspace(-6, 6, 241)
# relative step of the central difference of a custom pressure
_PRESSURE_STEP = 1e-4
# log-spaced dilation factors r and relative tolerance of mccann_check
MCCANN_R_MIN = 1e-3
MCCANN_R_MAX = 1e3
MCCANN_SAMPLES = 200
MCCANN_TOL = 1e-10

Form = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class InternalEnergy:
    """The integrand f, the pressure p(s) = s f'(s) - f(s) and p', vectorized over s > 0.

    All three are None for the zero energy, the one kind the kernels skip.
    pressure_constant is a C with p(s) <= C * (1 + f(s)): analytic for the
    built-in energies, measured on a sample grid for custom integrands.
    """

    f: Form | None
    p: Form | None
    dp: Form | None
    pressure_constant: float = 0.0


def entropy_energy() -> InternalEnergy:
    """f(s) = s log s (Boltzmann entropy; linear diffusion): p = s, p' = 1."""
    return InternalEnergy(lambda s: xlogy(s, s), np.copy, np.ones_like, 1.0)


def power_law_energy(exponent: float) -> InternalEnergy:
    """f(s) = s^m with m > 1 (porous-medium diffusion): p = (m-1) s^m, p' = m (m-1) s^(m-1)."""
    if not exponent > 1:
        raise InvalidInputError("power_law exponent must exceed 1")
    m = float(exponent)
    return InternalEnergy(
        lambda s: np.power(s, m),
        lambda s: (m - 1.0) * np.power(s, m),
        lambda s: m * (m - 1.0) * np.power(s, m - 1.0),
        max(1.0, m - 1.0),
    )


def zero_energy() -> InternalEnergy:
    """f identically 0; test-only kind exempt from the convexity invariants."""
    return InternalEnergy(None, None, None)


def custom_energy(f: Form, df: Form) -> InternalEnergy:
    """Wrap user callables f, f' (vectorized over nonnegative arrays).

    Requires f(0) = 0 and a growth certificate p <= C (1 + f) on a sampled
    grid; the smallest admissible C >= 0 is recorded as pressure_constant.
    p' is a central difference of the pressure.
    """
    f0 = float(np.asarray(f(np.array([0.0])), dtype=float).reshape(-1)[0])
    if abs(f0) > 1e-12:
        raise InvalidInputError(f"custom integrand must have f(0) = 0, got {f0!r}")
    fs = np.asarray(f(_CHECK_GRID), dtype=float)
    dfs = np.asarray(df(_CHECK_GRID), dtype=float)
    if not (np.all(np.isfinite(fs)) and np.all(np.isfinite(dfs))):
        raise InvalidInputError("custom integrand must be finite on (0, inf)")
    p = _CHECK_GRID * dfs - fs
    denom = 1.0 + fs
    c_lo = 0.0
    c_hi = math.inf
    for pk, dk in zip(p, denom):
        if dk > 1e-12:
            c_lo = max(c_lo, pk / dk)
        elif dk < -1e-12:
            c_hi = min(c_hi, pk / dk)
        elif pk > 1e-12:
            raise InvalidInputError("no growth constant: p > 0 where 1 + f = 0")
    if c_lo > c_hi:
        raise InvalidInputError(
            f"no growth constant C with p <= C(1+f) on the sample grid "
            f"(need C >= {c_lo:g} and C <= {c_hi:g})"
        )

    def integrand(s):
        return np.asarray(f(s), dtype=float)

    def pressure_form(s):
        return np.where(s > 0, s * np.asarray(df(s), dtype=float) - integrand(s), 0.0)

    def pressure_slope(s):
        ds = _PRESSURE_STEP * s
        return (pressure_form(s + ds) - pressure_form(s - ds)) / (2.0 * ds)

    return InternalEnergy(integrand, pressure_form, pressure_slope, c_lo)


def pressure(e: InternalEnergy, x) -> np.ndarray | float:
    """p(x) = x f'(x) - f(x), with p(0) = 0 (closed forms avoid cancellation near 0)."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise InvalidInputError("pressure argument must be nonnegative")
    out = np.zeros_like(x_arr) if e.p is None else e.p(x_arr)
    return float(out) if np.ndim(x) == 0 else out


def _gaps(x: np.ndarray, length: float) -> tuple[np.ndarray, np.ndarray]:
    """Gaps of sorted positions floored at EPS_FLOOR * length, and which sit above the floor."""
    if x.size < 2:
        raise InvalidInputError("discrete energy needs at least two particles")
    raw = x[1:] - x[:-1]
    floor = EPS_FLOOR * length
    return np.maximum(raw, floor), raw > floor


def gap_terms(
    e: InternalEnergy, x: np.ndarray, length: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Discrete energy of sorted positions x, its gradient and its gap curvatures.

    Each gap contributes d/d(gap) [gap * f(s)] = -p(s), s = 1/(N gap), to its
    right particle and the negative to its left one.  Its curvature, the
    second derivative of its term in its gap, is p'(s) / (N gap^2), so the
    energy Hessian in the positions is D^T diag(curvature) D with D the gap
    difference operator.  Floored (collided) gaps contribute no gradient and
    no curvature, matching the flat spot of the floored evaluation.
    """
    if e.f is None:
        return 0.0, np.zeros(x.size), np.zeros(x.size - 1)
    gaps, above = _gaps(x, length)
    s = 1.0 / (x.size * gaps)
    dterm = np.where(above, -e.p(s), 0.0)
    grad = np.zeros(x.size)
    grad[1:] += dterm
    grad[:-1] -= dterm
    curvature = np.where(above, e.dp(s) / (x.size * gaps * gaps), 0.0)
    return float(np.sum(gaps * e.f(s))), grad, curvature


def energy_value(e: InternalEnergy, rho: ParticleDensity) -> float:
    """Discrete internal energy of a particle density (see module docstring)."""
    return gap_terms(e, rho.positions, rho.domain.length)[0]


def energy_gradient(e: InternalEnergy, rho: ParticleDensity) -> np.ndarray:
    """Exact gradient of energy_value with respect to the particle positions."""
    return gap_terms(e, rho.positions, rho.domain.length)[1]


def floored_gap_count(e: InternalEnergy, rho: ParticleDensity) -> int:
    """How many inter-particle gaps sit at the collision floor (diagnostic)."""
    return 0 if rho.n < 2 else int(np.count_nonzero(~_gaps(rho.positions, rho.domain.length)[1]))


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
