"""Internal (diffusion-driving) energies and their discrete evaluation.

An internal energy is F(rho) = integral of f(rho(x)) dx for a convex
integrand f with f(0) = 0.  On N sorted particles the integral is evaluated
by the gap reconstruction: between consecutive particles the density is
1/(N * gap), so

    F(rho) ~= sum_j gap_j * f(1 / (N * gap_j))        (N - 1 interior gaps)

with gaps floored at a small fraction of the domain length so coinciding
particles give a large but finite value.  The pressure p(s) = s f'(s) - f(s)
is what shows up in force balances: the exact gradient of the discrete
energy at particle j is p(density right of j) - p(density left of j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import xlogy

from .errors import InvalidInputError
from .geometry import ParticleDensity

ENTROPY = "entropy"
POWER_LAW = "power_law"
ZERO = "zero"
CUSTOM = "custom"

# sample grid for growth / convexity certificates on custom integrands
_CHECK_GRID = np.logspace(-6, 6, 241)
# relative step of the central difference of a custom pressure
_PRESSURE_STEP = 1e-4


@dataclass(frozen=True)
class InternalEnergy:
    """Integrand bundle for one population's internal energy.

    pressure_constant is a C with p(s) <= C * (1 + f(s)): analytic for the
    built-in kinds, measured on a sample grid for custom integrands.
    eps_floor is the relative gap floor used by the discrete evaluation.
    """

    kind: str
    exponent: float = 0.0
    eps_floor: float = 1e-12
    pressure_constant: float = 0.0
    f: Callable[[np.ndarray], np.ndarray] | None = None
    df: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in (ENTROPY, POWER_LAW, ZERO, CUSTOM):
            raise InvalidInputError(f"unknown energy kind {self.kind!r}")
        if not 0 < self.eps_floor < 1e-3:
            raise InvalidInputError("eps_floor must be a small positive relative gap")
        if self.kind == POWER_LAW and not self.exponent > 1:
            raise InvalidInputError("power_law exponent must exceed 1")
        if self.kind == CUSTOM and (self.f is None or self.df is None):
            raise InvalidInputError("custom energies need f and df callables")


def entropy_energy(eps_floor: float = 1e-12) -> InternalEnergy:
    """f(s) = s log s (Boltzmann entropy; linear diffusion)."""
    return InternalEnergy(ENTROPY, eps_floor=eps_floor, pressure_constant=1.0)


def power_law_energy(exponent: float, eps_floor: float = 1e-12) -> InternalEnergy:
    """f(s) = s^m with m > 1 (porous-medium diffusion)."""
    if not exponent > 1:
        raise InvalidInputError("power_law exponent must exceed 1")
    return InternalEnergy(
        POWER_LAW,
        exponent=float(exponent),
        eps_floor=eps_floor,
        pressure_constant=max(1.0, float(exponent) - 1.0),
    )


def zero_energy() -> InternalEnergy:
    """f identically 0; test-only kind exempt from the convexity invariants."""
    return InternalEnergy(ZERO)


def custom_energy(
    f: Callable[[np.ndarray], np.ndarray],
    df: Callable[[np.ndarray], np.ndarray],
    eps_floor: float = 1e-12,
) -> InternalEnergy:
    """Wrap user callables f, f' (vectorized over nonnegative arrays).

    Requires f(0) = 0 and a growth certificate p <= C (1 + f) on a sampled
    grid; the smallest admissible C >= 0 is recorded as pressure_constant.
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
    return InternalEnergy(CUSTOM, eps_floor=eps_floor, pressure_constant=c_lo, f=f, df=df)


def _integrand(e: InternalEnergy, s: np.ndarray) -> np.ndarray:
    if e.kind == ENTROPY:
        return xlogy(s, s)
    if e.kind == POWER_LAW:
        return np.power(s, e.exponent)
    if e.kind == ZERO:
        return np.zeros_like(s)
    return np.asarray(e.f(s), dtype=float)


def pressure(e: InternalEnergy, x) -> np.ndarray | float:
    """p(x) = x f'(x) - f(x), with p(0) = 0.

    Closed forms for the built-in kinds (entropy: p = x; power law:
    p = (m-1) x^m) avoid cancellation near zero.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise InvalidInputError("pressure argument must be nonnegative")
    if e.kind == ENTROPY:
        out = x_arr.copy()
    elif e.kind == POWER_LAW:
        out = (e.exponent - 1.0) * np.power(x_arr, e.exponent)
    elif e.kind == ZERO:
        out = np.zeros_like(x_arr)
    else:
        out = np.where(
            x_arr > 0,
            x_arr * np.asarray(e.df(x_arr), dtype=float) - np.asarray(e.f(x_arr), dtype=float),
            0.0,
        )
    if np.ndim(x) == 0:
        return float(out)
    return out


def _floored_gaps(e: InternalEnergy, rho: ParticleDensity) -> np.ndarray:
    if rho.n < 2:
        raise InvalidInputError("discrete energy needs at least two particles")
    floor = e.eps_floor * rho.domain.length
    return np.maximum(np.diff(rho.positions), floor)


def energy_value(e: InternalEnergy, rho: ParticleDensity) -> float:
    """Discrete internal energy of a particle density (see module docstring)."""
    if e.kind == ZERO:
        return 0.0
    gaps = _floored_gaps(e, rho)
    dens = 1.0 / (rho.n * gaps)
    return float(np.sum(gaps * _integrand(e, dens)))


def energy_gradient(e: InternalEnergy, rho: ParticleDensity) -> np.ndarray:
    """Exact gradient of energy_value with respect to the particle positions.

    Each gap contributes d/d(gap) [gap * f(1/(N gap))] = -p(1/(N gap)) to its
    right particle and the negative to its left one; floored (collided) gaps
    contribute nothing, matching the flat spot of the floored evaluation.
    """
    if e.kind == ZERO:
        return np.zeros(rho.n)
    if rho.n < 2:
        raise InvalidInputError("discrete energy needs at least two particles")
    floor = e.eps_floor * rho.domain.length
    raw = np.diff(rho.positions)
    gaps = np.maximum(raw, floor)
    dterm = np.where(raw > floor, -pressure(e, 1.0 / (rho.n * gaps)), 0.0)
    grad = np.zeros(rho.n)
    grad[1:] += dterm
    grad[:-1] -= dterm
    return grad


def gap_curvature(e: InternalEnergy, rho: ParticleDensity) -> np.ndarray:
    """Second derivative of each gap's term gap * f(1/(N gap)) in its gap.

    That is p'(s) / (N gap^2) with s = 1/(N gap), one value per interior gap,
    so the energy Hessian in the positions is D^T diag(curvature) D with D
    the gap difference operator.  p' is closed form for the built-in kinds
    and a central difference of the pressure for custom integrands; floored
    gaps get 0, matching the flat spot of the floored evaluation.
    """
    if e.kind == ZERO:
        return np.zeros(rho.n - 1)
    floor = e.eps_floor * rho.domain.length
    raw = np.diff(rho.positions)
    gaps = np.maximum(raw, floor)
    s = 1.0 / (rho.n * gaps)
    if e.kind == ENTROPY:
        dp = np.ones_like(s)
    elif e.kind == POWER_LAW:
        dp = e.exponent * (e.exponent - 1.0) * np.power(s, e.exponent - 1.0)
    else:
        ds = _PRESSURE_STEP * s
        dp = (pressure(e, s + ds) - pressure(e, s - ds)) / (2.0 * ds)
    return np.where(raw > floor, dp / (rho.n * gaps * gaps), 0.0)


def floored_gap_count(e: InternalEnergy, rho: ParticleDensity) -> int:
    """How many inter-particle gaps sit at the collision floor (diagnostic)."""
    if rho.n < 2:
        return 0
    floor = e.eps_floor * rho.domain.length
    return int(np.count_nonzero(np.diff(rho.positions) <= floor))


@dataclass(frozen=True)
class McCannReport:
    satisfied: bool
    first_violation: float | None = None
    reason: str | None = None


def mccann_check(
    e: InternalEnergy,
    n_dim: int = 1,
    r_min: float = 1e-3,
    r_max: float = 1e3,
    samples: int = 200,
    tol: float = 1e-10,
) -> McCannReport:
    """Displacement-convexity test: r -> r^n f(r^-n) convex nonincreasing.

    Checked on a log-spaced sample of dilation factors; tolerances are
    relative to the local magnitude of the sampled values / slopes.  Returns
    the first violating r if the check fails.
    """
    if n_dim < 1 or samples < 3:
        raise InvalidInputError("need n_dim >= 1 and at least 3 samples")
    r = np.logspace(math.log10(r_min), math.log10(r_max), samples)
    phi = r**n_dim * _integrand(e, r ** (-float(n_dim)))
    if not np.all(np.isfinite(phi)):
        return McCannReport(False, float(r[np.argmax(~np.isfinite(phi))]), "non-finite")
    dphi = np.diff(phi)
    scale = np.maximum(1.0, np.maximum(np.abs(phi[:-1]), np.abs(phi[1:])))
    bad = dphi > tol * scale
    if np.any(bad):
        return McCannReport(False, float(r[1:][bad][0]), "increasing")
    slopes = dphi / np.diff(r)
    dslope = np.diff(slopes)
    sscale = np.maximum(1.0, np.maximum(np.abs(slopes[:-1]), np.abs(slopes[1:])))
    bad = dslope < -tol * sscale
    if np.any(bad):
        return McCannReport(False, float(r[1:-1][bad][0]), "non-convex")
    return McCannReport(True)
