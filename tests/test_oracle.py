"""The LP oracle: exact on small instances, certified by its duals, capped in size."""

import math

import numpy as np
import pytest

from jkoflow import (
    Domain,
    ParticleDensity,
    barycenter_cost,
    coupling_value,
    quadratic_pairwise_cost,
    w2_distance,
)
from helpers import spread_particles, uniform_particles
from oracle import CapacityError, lp_solve_mm

UNIT = Domain(0.0, 1.0)


def atoms(*positions, domain=UNIT):
    return ParticleDensity(domain, np.array(sorted(positions), dtype=float))


def test_lp_single_atoms():
    a, b = atoms(0.2), atoms(0.9)
    plan = lp_solve_mm([a, b], quadratic_pairwise_cost(UNIT))
    assert math.isclose(plan.cost_value, 0.49, abs_tol=1e-10)
    assert plan.indices.shape == (1, 2)


def test_lp_matches_w2_for_quadratic():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(1, 6))
        a = spread_particles(rng, UNIT, n)
        b = spread_particles(rng, UNIT, n)
        plan = lp_solve_mm([a, b], quadratic_pairwise_cost(UNIT))
        assert abs(plan.cost_value - w2_distance(a, b) ** 2) <= 1e-9


def test_lp_matches_monotone_for_barycenter():
    rng = np.random.default_rng(12)
    cost = barycenter_cost([1.0, 2.0], UNIT)
    for trial in range(10):
        margs = [spread_particles(rng, UNIT, 3) for _ in range(3)]
        plan = lp_solve_mm(margs, cost)
        assert abs(plan.cost_value - coupling_value(cost, margs)) <= 1e-9


def test_lp_handles_unequal_counts():
    a = atoms(0.0, 1.0)
    b = atoms(0.5)
    plan = lp_solve_mm([a, b], quadratic_pairwise_cost(UNIT))
    # both atoms of a must couple to the single atom of b
    assert math.isclose(plan.cost_value, 0.25, abs_tol=1e-10)
    for i in range(2):
        k = plan.marginals[i].n
        assert np.max(np.abs(plan.marginal_weights(i) - 1.0 / k)) <= 1e-12


def test_lp_support_monotone_for_quadratic():
    rng = np.random.default_rng(4)
    a = spread_particles(rng, UNIT, 5)
    b = spread_particles(rng, UNIT, 5)
    plan = lp_solve_mm([a, b], quadratic_pairwise_cost(UNIT))
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
        lp_solve_mm([a, b], quadratic_pairwise_cost(UNIT))
