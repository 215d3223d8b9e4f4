"""The LP oracle: exact on small instances, certified by its duals, capped in size."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jkoflow import (
    Domain,
    DomainError,
    ParticleDensity,
    QuadraticCost,
    barenblatt_profile,
    coupling_value,
    w2_distance,
)
from helpers import spread_particles, uniform_particles
from oracle import (
    CapacityError,
    barenblatt_density_m,
    barenblatt_profile_m,
    displacement_interpolate,
    lp_solve_mm,
)

UNIT = Domain(0.0, 1.0)


def atoms(*positions, domain=UNIT):
    return ParticleDensity(domain, np.array(sorted(positions), dtype=float))


def test_lp_single_atoms():
    a, b = atoms(0.2), atoms(0.9)
    plan = lp_solve_mm([a, b], QuadraticCost((1.0,)))
    assert math.isclose(plan.cost_value, 0.49, abs_tol=1e-10)
    assert plan.indices.shape == (1, 2)


def test_lp_matches_w2_for_quadratic():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(1, 6))
        a = spread_particles(rng, UNIT, n)
        b = spread_particles(rng, UNIT, n)
        plan = lp_solve_mm([a, b], QuadraticCost((1.0,)))
        assert abs(plan.cost_value - w2_distance(a, b) ** 2) <= 1e-9


def test_lp_matches_monotone_for_barycenter():
    rng = np.random.default_rng(12)
    cost = QuadraticCost((1.0, 2.0))
    for trial in range(10):
        margs = [spread_particles(rng, UNIT, 3) for _ in range(3)]
        plan = lp_solve_mm(margs, cost)
        assert abs(plan.cost_value - coupling_value(cost, margs)) <= 1e-9


def test_lp_handles_unequal_counts():
    a = atoms(0.0, 1.0)
    b = atoms(0.5)
    plan = lp_solve_mm([a, b], QuadraticCost((1.0,)))
    # both atoms of a must couple to the single atom of b
    assert math.isclose(plan.cost_value, 0.25, abs_tol=1e-10)
    for i in range(2):
        k = plan.marginals[i].n
        assert np.max(np.abs(plan.marginal_weights(i) - 1.0 / k)) <= 1e-12


def test_lp_support_monotone_for_quadratic():
    rng = np.random.default_rng(4)
    a = spread_particles(rng, UNIT, 5)
    b = spread_particles(rng, UNIT, 5)
    plan = lp_solve_mm([a, b], QuadraticCost((1.0,)))
    pts = plan.support_positions()
    order = np.argsort(pts[:, 0], kind="stable")
    pts = pts[order]
    for r in range(len(pts) - 1):
        if pts[r, 0] < pts[r + 1, 0] - 1e-12:
            assert pts[r, 1] <= pts[r + 1, 1] + 1e-12


def test_lp_capacity_guard():
    a = uniform_particles(UNIT, 1024)
    b = uniform_particles(UNIT, 1024)
    with pytest.raises(CapacityError):
        lp_solve_mm([a, b], QuadraticCost((1.0,)))


def test_barenblatt_oracle_is_the_shipped_profile_at_m_2():
    dom = Domain(-1.0, 1.0)
    for t in (0.01, 0.05, 0.1):
        ours, shipped = barenblatt_profile_m(2.0, t, dom), barenblatt_profile(t, dom)
        assert np.array_equal(ours.cell_edges, shipped.cell_edges)
        assert np.max(np.abs(ours.cell_values - shipped.cell_values)) <= 1e-14 * np.max(
            shipped.cell_values)
    for m in (1.5, 2.0, 3.0):
        for t in (0.01, 0.05):
            density, radius = barenblatt_density_m(m, t)
            y = np.linspace(-radius, radius, 200_001)
            assert abs(np.trapezoid(density(y), y) - 1.0) <= 1e-6, (m, t)


def test_interpolation_endpoints_exact():
    rng = np.random.default_rng(41)
    a = spread_particles(rng, UNIT, 9)
    b = spread_particles(rng, UNIT, 9)
    assert displacement_interpolate(a, b, 0.0) is a
    assert displacement_interpolate(a, b, 1.0) is b
    with pytest.raises(DomainError):
        displacement_interpolate(a, b, 1.5)
    with pytest.raises(DomainError):
        displacement_interpolate(a, b, -0.1)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=500))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_interpolation_constant_speed(n, seed):
    rng = np.random.default_rng(seed)
    a = ParticleDensity(UNIT, np.sort(rng.uniform(0, 1, size=n)))
    b = ParticleDensity(UNIT, np.sort(rng.uniform(0, 1, size=n)))
    d = w2_distance(a, b)
    t, s = 0.3, 0.85
    rt = displacement_interpolate(a, b, t)
    rs = displacement_interpolate(a, b, s)
    assert abs(w2_distance(rt, rs) - abs(t - s) * d) <= 1e-10
    assert abs(w2_distance(a, rt) - t * d) <= 1e-10
