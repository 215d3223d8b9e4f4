import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jkoflow import (
    Domain,
    InvalidInputError,
    NumericalFailureError,
    ParticleDensity,
    custom_energy,
    entropy_energy,
    power_law_energy,
    quadratic_pairwise_cost,
    zero_cost,
    zero_energy,
)
from jkoflow.jko import (
    StepProblem,
    euler_lagrange_residual,
    objective,
    objective_gradient,
    project_ordered_box,
    solve_step,
)
from helpers import spread_particles, uniform_particles

UNIT = Domain(0.0, 1.0)


def coupled_problem(rng, n=16, h=1e-2, energy=None, tol=None):
    prev = spread_particles(rng, UNIT, n)
    target = spread_particles(rng, UNIT, n)
    return StepProblem(
        prev=prev,
        energy=energy if energy is not None else entropy_energy(),
        h=h,
        cost=quadratic_pairwise_cost(UNIT),
        frozen=(target,),
        slot=0,
        tol=tol,
    )


# ------------------------------------------------------------- projection


def test_projection_examples():
    dom = Domain(0.0, 2.0)
    assert np.allclose(project_ordered_box(dom, np.array([3.0, 1.0, 2.0])), [2.0, 2.0, 2.0])
    y = np.array([0.1, 0.5, 0.9])
    assert np.array_equal(project_ordered_box(dom, y), y)
    assert np.allclose(project_ordered_box(dom, np.array([-1.0, 3.0])), [0.0, 2.0])


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_projection_is_euclidean(seed):
    # variational characterization: <y - p, z - p> <= 0 for every feasible z
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    y = rng.uniform(-0.5, 1.5, size=n)
    p = project_ordered_box(UNIT, y)
    assert np.all(np.diff(p) >= 0) and p.min() >= 0.0 and p.max() <= 1.0
    for _ in range(10):
        z = np.sort(rng.uniform(0, 1, size=n))
        assert float(np.dot(y - p, z - p)) <= 1e-10
    assert np.array_equal(project_ordered_box(UNIT, p), p)


# ------------------------------------------------------------- objective


def test_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    eps = 1e-6
    for trial in range(20):
        energy = entropy_energy() if trial % 2 == 0 else power_law_energy(2.0)
        prob = coupled_problem(rng, n=12, h=10 ** rng.uniform(-3, -1), energy=energy)
        x = spread_particles(rng, UNIT, 12).positions
        g = objective_gradient(prob, x)
        fd = np.empty_like(g)
        for j in range(x.size):
            xp = x.copy()
            xp[j] += eps
            xm = x.copy()
            xm[j] -= eps
            fd[j] = (objective(prob, xp) - objective(prob, xm)) / (2 * eps)
        denom = max(1.0, float(np.max(np.abs(g))))
        assert float(np.max(np.abs(fd - g))) / denom <= 1e-5


def test_pure_w2_step_returns_prev():
    rng = np.random.default_rng(6)
    prev = spread_particles(rng, UNIT, 20)
    prob = StepProblem(prev=prev, energy=zero_energy(), h=0.1)
    sol = solve_step(prob)
    assert np.array_equal(sol.rho.positions, prev.positions)
    assert sol.iterations == 0
    assert sol.residual == 0.0


def test_single_particle_closed_form():
    # min (x - xk)^2 + 2h (x - y)^2 has minimizer (xk + 2h y) / (1 + 2h)
    xk, y = 0.3, 0.9
    prev = ParticleDensity(UNIT, np.array([xk]))
    frozen = ParticleDensity(UNIT, np.array([y]))
    for h in (1e-3, 1e-2, 1e-1):
        prob = StepProblem(
            prev=prev, energy=zero_energy(), h=h,
            cost=quadratic_pairwise_cost(UNIT), frozen=(frozen,), slot=0, tol=1e-12,
        )
        sol = solve_step(prob)
        want = (xk + 2 * h * y) / (1 + 2 * h)
        assert abs(float(sol.rho.positions[0]) - want) <= 1e-10


def test_uncoupled_transport_pull_closed_form():
    # zero internal energy and a quadratic pull toward a frozen target
    # decouples per particle: x_j = (prev_j + 2h y_j) / (1 + 2h)
    rng = np.random.default_rng(7)
    prev = spread_particles(rng, UNIT, 24)
    target = spread_particles(rng, UNIT, 24)
    h = 0.05
    prob = StepProblem(
        prev=prev, energy=zero_energy(), h=h,
        cost=quadratic_pairwise_cost(UNIT), frozen=(target,), slot=0, tol=1e-13,
    )
    sol = solve_step(prob)
    want = (prev.positions + 2 * h * target.positions) / (1 + 2 * h)
    assert float(np.max(np.abs(sol.rho.positions - want))) <= 1e-10


def test_step_descends_from_warm_start():
    rng = np.random.default_rng(8)
    for trial in range(10):
        prob = coupled_problem(rng, n=16)
        sol = solve_step(prob)
        assert sol.value <= objective(prob, prob.prev.positions) + 1e-15
        assert sol.residual <= prob.default_tol()


def test_two_starts_agree():
    rng = np.random.default_rng(9)
    tol = 1e-11
    for trial in range(5):
        prob = coupled_problem(rng, n=16, tol=tol)
        a = solve_step(prob)
        b = solve_step(prob, initial=uniform_particles(UNIT, 16))
        assert float(np.max(np.abs(a.rho.positions - b.rho.positions))) <= 10 * tol * np.sqrt(16)


def test_euler_lagrange_residual_small_at_solution():
    rng = np.random.default_rng(10)
    for trial in range(10):
        prob = coupled_problem(rng, n=32)
        sol = solve_step(prob)
        tol = prob.default_tol()
        assert euler_lagrange_residual(prob, sol.rho) <= 10 * tol


def test_entropy_spreads_particles():
    prev = ParticleDensity(UNIT, np.array([0.48, 0.5, 0.52]))
    prob = StepProblem(prev=prev, energy=entropy_energy(), h=1e-3)
    sol = solve_step(prob)
    assert np.all(np.diff(sol.rho.positions) > np.diff(prev.positions))


def test_problem_validation():
    rng = np.random.default_rng(11)
    prev = spread_particles(rng, UNIT, 4)
    with pytest.raises(InvalidInputError):
        StepProblem(prev=prev, energy=zero_energy(), h=0.0)
    with pytest.raises(InvalidInputError):
        StepProblem(prev=prev, energy=zero_energy(), h=1e-2,
                    cost=quadratic_pairwise_cost(UNIT), frozen=())
    with pytest.raises(InvalidInputError):
        StepProblem(prev=prev, energy=zero_energy(), h=1e-2,
                    cost=quadratic_pairwise_cost(UNIT),
                    frozen=(spread_particles(rng, UNIT, 5),))
    with pytest.raises(InvalidInputError):
        StepProblem(prev=prev, energy=zero_energy(), h=1e-2,
                    cost=quadratic_pairwise_cost(UNIT),
                    frozen=(spread_particles(rng, UNIT, 4),), slot=2)
    prob = StepProblem(prev=prev, energy=zero_energy(), h=1e-2)
    with pytest.raises(InvalidInputError):
        solve_step(prob, initial=spread_particles(rng, UNIT, 5))


def test_zero_cost_slot_matches_uncoupled():
    rng = np.random.default_rng(12)
    prev = spread_particles(rng, UNIT, 8)
    other = spread_particles(rng, UNIT, 8)
    a = solve_step(StepProblem(prev=prev, energy=entropy_energy(), h=1e-2))
    b = solve_step(StepProblem(
        prev=prev, energy=entropy_energy(), h=1e-2,
        cost=zero_cost(2), frozen=(other,), slot=1,
    ))
    assert float(np.max(np.abs(a.rho.positions - b.rho.positions))) <= 1e-12


def test_failed_line_search_raises_with_residual():
    # df has the wrong sign, so the search direction climbs the objective and
    # every Armijo backtrack fails; the solver must say so, not return a step
    c = 1e6
    wrong = custom_energy(lambda x: c * x * x, lambda x: -2.0 * c * x)
    prev = spread_particles(np.random.default_rng(5), UNIT, 8)
    problem = StepProblem(prev=prev, energy=wrong, h=0.05)
    with pytest.raises(NumericalFailureError, match="line search") as info:
        solve_step(problem)
    assert info.value.residual > problem.default_tol()
