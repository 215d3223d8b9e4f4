"""Ready-made flow configurations and the analytic profiles they test.

Every preset is deterministic: initial particles come from exact quantile
discretization of closed-form density profiles, so repeated runs produce
byte-identical output.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .energy import entropy_energy, power_law_energy, zero_energy
from .errors import InvalidInputError
from .flow import Coupling, FlowConfig, PopulationSpec
from .geometry import Domain, GridDensity, ParticleDensity, from_grid, normalized_grid
from .transport import QuadraticCost

PROFILE_CELLS = 2048  # resolution used to discretize closed-form densities


def profile_grid(
    domain: Domain, density: Callable[[np.ndarray], np.ndarray], cells: int = PROFILE_CELLS
) -> GridDensity:
    """Midpoint-sampled, renormalized piecewise-constant version of a density."""
    edges = np.linspace(domain.lower, domain.upper, cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    vals = np.maximum(np.asarray(density(mids), dtype=float), 0.0)
    return normalized_grid(edges, vals)


def gaussian_profile(domain: Domain, center: float, sigma: float) -> GridDensity:
    if sigma <= 0:
        raise InvalidInputError("sigma must be positive")
    return profile_grid(
        domain, lambda x: np.exp(-0.5 * ((x - center) / sigma) ** 2)
    )


def bump_profile(domain: Domain, center: float, half_width: float) -> GridDensity:
    if half_width <= 0:
        raise InvalidInputError("half_width must be positive")

    def density(x):
        u = (x - center) / half_width
        v = 1.0 - u * u
        return np.where(np.abs(u) < 1.0, v * v * v, 0.0)  # products: pow's SIMD paths differ

    return profile_grid(domain, density)


def barenblatt_profile(t: float, domain: Domain) -> GridDensity:
    """Self-similar source solution of d_t rho = Lap(rho^2) at time t.

    rho(t, x) = t^(-1/3) (C - y^2 t^(-2/3) / 12)_+  with C = 3^(1/3)/4 and
    y the offset of x from the domain midpoint.  It carries unit mass; the
    support radius sqrt(12 C) t^(1/3) must stay below half the domain length.
    """
    if t <= 0:
        raise InvalidInputError("the source solution needs t > 0")
    c = 3.0 ** (1.0 / 3.0) / 4.0
    mid = 0.5 * (domain.lower + domain.upper)

    def density(x):
        y = x - mid
        return np.maximum(c - y * y * t ** (-2.0 / 3.0) / 12.0, 0.0) * t ** (-1.0 / 3.0)

    radius = math.sqrt(12.0 * c) * t ** (1.0 / 3.0)
    if radius >= domain.length / 2.0:
        raise InvalidInputError("domain too small for the source solution support")
    return profile_grid(domain, density)


def identity_preset(n: int = 16, h: float = 0.1, n_steps: int = 5) -> FlowConfig:
    """Two inert populations: no internal energy, no coupling.

    States must stay exactly at their initial positions, which makes this
    the reference scenario for determinism checks.
    """
    dom = Domain(0.0, 1.0)
    rho_a = from_grid(gaussian_profile(dom, 0.4, 0.15), n)
    rho_b = from_grid(bump_profile(dom, 0.6, 0.3), n)
    return FlowConfig(
        populations=(
            PopulationSpec(initial=rho_a, energy=zero_energy()),
            PopulationSpec(initial=rho_b, energy=zero_energy()),
        ),
        h=h,
        n_steps=n_steps,
    )


def heat_flow_preset(n: int = 128, h: float = 1e-2, n_steps: int = 200) -> FlowConfig:
    """Two uncoupled entropy flows on the unit interval.

    Each population follows the implicit scheme for the heat equation with
    no-flux walls; both relax toward the uniform density.
    """
    dom = Domain(0.0, 1.0)
    rho_a = from_grid(gaussian_profile(dom, 0.3, 0.1), n)
    rho_b = from_grid(bump_profile(dom, 0.7, 0.25), n)
    return FlowConfig(
        populations=(
            PopulationSpec(initial=rho_a, energy=entropy_energy()),
            PopulationSpec(initial=rho_b, energy=entropy_energy()),
        ),
        h=h,
        n_steps=n_steps,
    )


def barycenter3_preset(n: int = 128, h: float = 1e-2, n_steps: int = 100) -> FlowConfig:
    """Three diffusing populations pulled together pairwise.

    Population 0 is attracted to both others through a two-target
    quadratic cost; populations 1 and 2 are each attracted back to
    population 0.  All three carry the entropy energy.
    """
    dom = Domain(0.0, 1.0)
    mk = lambda c: from_grid(gaussian_profile(dom, c, 0.08), n)
    pair = QuadraticCost((1.0,), "quadratic_pairwise")
    return FlowConfig(
        populations=(
            PopulationSpec(
                initial=mk(0.25), energy=entropy_energy(),
                coupling=Coupling(QuadraticCost((1.0, 1.0), "barycenter"), (0, 1, 2)),
            ),
            PopulationSpec(
                initial=mk(0.5), energy=entropy_energy(),
                coupling=Coupling(pair, (1, 0)),
            ),
            PopulationSpec(
                initial=mk(0.75), energy=entropy_energy(),
                coupling=Coupling(pair, (2, 0)),
            ),
        ),
        h=h,
        n_steps=n_steps,
    )


def porous_medium_preset(
    n: int = 256, h: float = 2e-3, n_steps: int = 25, t0: float = 0.01
) -> FlowConfig:
    """Two copies of the quadratic porous-medium flow started at a source
    profile, for comparison against the self-similar solution at t0 + T."""
    dom = Domain(-1.0, 1.0)
    rho = from_grid(barenblatt_profile(t0, dom), n)
    spec = PopulationSpec(initial=rho, energy=power_law_energy(2.0))
    return FlowConfig(populations=(spec, spec), h=h, n_steps=n_steps)


PRESETS: dict[str, Callable[[], FlowConfig]] = {
    "identity": identity_preset,
    "heat_flow": heat_flow_preset,
    "barycenter3": barycenter3_preset,
    "porous_medium": porous_medium_preset,
}
