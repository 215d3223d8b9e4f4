"""Ready-made flow configurations and the analytic profiles they test.

Each preset is the flow of a shipped scenario, ``scenarios/<name>.yaml`` in
this package.  Initial particles come from exact quantile discretization of
closed-form density profiles, so repeated runs produce byte-identical output.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .flow import FlowConfig
from .geometry import Domain, GridDensity, normalized_grid

PROFILE_CELLS = 2048  # resolution used to discretize closed-form densities


def profile_grid(
    domain: Domain, density: Callable[[np.ndarray], np.ndarray], cells: int = PROFILE_CELLS
) -> GridDensity:
    """Midpoint-sampled, renormalized piecewise-constant version of a density."""
    edges = np.linspace(domain.lower, domain.upper, cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    with np.errstate(over="ignore"):  # a far tail overflows to inf, which the profiles take to 0
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


def _shipped(name: str, n=None, h=None, n_steps=None, t0=None) -> FlowConfig:
    """The flow of the shipped ``scenarios/<name>.yaml``, each keyword given replacing the
    file's value: every population's ``n``, ``h``, ``n_steps`` and every profile's ``t0``."""
    from pathlib import Path

    from .cli import build_flow_config, parse_scenario  # cli imports this module

    def given(spec, **values):
        return spec._replace(**{k: v for k, v in values.items() if v is not None})

    scenario = parse_scenario(
        Path(__file__).with_name("scenarios").joinpath(f"{name}.yaml").read_text(encoding="utf-8"))
    pops = tuple(p._replace(initial=given(p.initial, n=n, profile=None if t0 is None
                                          else p.initial.profile._replace(t0=t0)))
                 for p in scenario.flow.populations)
    flow = given(scenario.flow, populations=pops, h=h, n_steps=n_steps)
    return build_flow_config(scenario._replace(flow=flow))


def identity_preset(n: int | None = None, h: float | None = None,
                    n_steps: int | None = None) -> FlowConfig:
    """Two inert populations, no energy and no coupling: ``scenarios/identity.yaml``."""
    return _shipped("identity", n, h, n_steps)


def heat_flow_preset(n: int | None = None, h: float | None = None,
                     n_steps: int | None = None) -> FlowConfig:
    """Two uncoupled entropy flows, the discrete heat equation: ``scenarios/heat_flow.yaml``."""
    return _shipped("heat_flow", n, h, n_steps)


def barycenter3_preset(n: int | None = None, h: float | None = None,
                       n_steps: int | None = None) -> FlowConfig:
    """Three entropy populations pulled toward a barycenter: ``scenarios/barycenter3.yaml``."""
    return _shipped("barycenter3", n, h, n_steps)


def porous_medium_preset(n: int | None = None, h: float | None = None,
                         n_steps: int | None = None, t0: float | None = None) -> FlowConfig:
    """Two quadratic porous-medium flows started from the source solution at ``t0``, to
    compare with it at t0 + T: ``scenarios/porous_medium.yaml``."""
    return _shipped("porous_medium", n, h, n_steps, t0)


PRESETS: dict[str, Callable[[], FlowConfig]] = {
    "identity": identity_preset,
    "heat_flow": heat_flow_preset,
    "barycenter3": barycenter3_preset,
    "porous_medium": porous_medium_preset,
}
