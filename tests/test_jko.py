import dataclasses
import importlib.util
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jkoflow import (
    Domain,
    FlowConfig,
    InvalidInputError,
    NumericalFailureError,
    ParticleDensity,
    PopulationSpec,
    QuadraticCost,
    barycenter3_preset,
    bump_profile,
    contraction_rerun,
    coupling_value,
    energy_value,
    entropy_energy,
    from_grid,
    gaussian_profile,
    power_law_energy,
    run_flow,
    run_flows,
    zero_energy,
)
import jkoflow.energy as energy_module
import jkoflow.flow as flow_module
import jkoflow.jko as jko_module
from jkoflow.jko import (
    StepProblem,
    _Point,
    _Rows,
    _evaluate,
    _hessian_bands,
    _minimize,
    _newton_direction,
    _residuals,
    euler_lagrange_residual,
    objective,
    objective_gradient,
    project_ordered_box,
    solve_step,
)
from jkoflow.transport import centred, weight_total
from helpers import spread_particles, uniform_particles, wrong_sign_energy
from oracle import CostFunction, difference_form

UNIT = Domain(0.0, 1.0)
EPS = np.finfo(float).eps


def coupled_problem(rng, n=16, h=1e-2, energy=None, tol=None):
    prev = spread_particles(rng, UNIT, n)
    target = spread_particles(rng, UNIT, n)
    return StepProblem(
        prev=prev,
        energy=energy if energy is not None else entropy_energy(),
        h=h,
        cost=QuadraticCost((1.0,)),
        frozen=(target,),
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


def test_hessian_matches_finite_differences_of_gradient():
    # the tridiagonal step Hessian against a central difference of the gradient,
    # for each energy kind alone and under each certified cost.  A row in slot s > 0 of
    # (1.0, 0.5) is solved as its slot-0 equivalent (w_s,) against the slot-0 partner,
    # the first of the two drawn: the terms dropped are constant in x
    rng = np.random.default_rng(13)
    n, eps = 12, 1e-6
    energies = (
        entropy_energy(),
        power_law_energy(2.0),
        power_law_energy(1.5),
        power_law_energy(0.5, -1.0),
    )
    couplings = (  # (cost, partner states drawn)
        (None, 0),
        (QuadraticCost((1.0,)), 1),
        (QuadraticCost((1.0, 0.5)), 2),
        (QuadraticCost((1.0,)), 2),
        (QuadraticCost((0.5,)), 2),
        (QuadraticCost((0.0,)), 1),
    )
    for energy in energies:
        for cost, draws in couplings:
            drawn = tuple(spread_particles(rng, UNIT, n) for _ in range(draws))
            prob = StepProblem(prev=spread_particles(rng, UNIT, n), energy=energy, h=0.05,
                               cost=cost, frozen=drawn[:0 if cost is None else cost.arity - 1])
            x = spread_particles(rng, UNIT, n).positions
            rows = _Rows((prob,))
            diag, off = _hessian_bands(rows, _evaluate(rows, x))
            hess = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            fd = np.empty((n, n))
            for j in range(n):
                step = np.zeros(n)
                step[j] = eps
                fd[:, j] = (objective_gradient(prob, x + step)
                            - objective_gradient(prob, x - step)) / (2 * eps)
            assert np.max(np.abs(fd - hess) / np.maximum(1.0, np.abs(hess))) <= 1e-5


def test_newton_heat_step_at_n1024_takes_few_iterations():
    prev = from_grid(gaussian_profile(UNIT, 0.3, 0.1), 1024)
    sol = solve_step(StepProblem(prev=prev, energy=entropy_energy(), h=1e-2))
    assert sol.iterations <= 50
    assert sol.residual <= 1e-9 * np.sqrt(1024)


def test_solve_step_builds_one_density(monkeypatch):
    # the Newton loop runs on arrays; only the returned state is built, by the
    # constructor, which checks it and takes a read-only copy of its row
    prev = from_grid(gaussian_profile(UNIT, 0.3, 0.1), 128)
    problem = StepProblem(prev=prev, energy=entropy_energy(), h=1e-2)
    builds = []
    validate = ParticleDensity.__post_init__

    def counted(self):
        builds.append(self)
        validate(self)

    monkeypatch.setattr(ParticleDensity, "__post_init__", counted)
    sol = solve_step(problem)
    assert sol.iterations >= 3
    assert builds == [sol.rho]
    assert sol.rho.positions.base is None and not sol.rho.positions.flags.writeable


@pytest.mark.parametrize("cost", [None, QuadraticCost((1.0,))],
                         ids=["uncoupled", "pairwise"])
def test_solve_step_evaluates_each_point_once(monkeypatch, cost):
    # one gap pass per evaluated point: the start and each accepted step, none
    # repeated for the gradient, Hessian or diagnostics.  The cost's centred form is
    # taken when the kernel is built; from then to the result no cost method runs
    prev = from_grid(gaussian_profile(UNIT, 0.3, 0.1), 128)
    frozen = () if cost is None else (from_grid(gaussian_profile(UNIT, 0.6, 0.1), 128),)
    problem = StepProblem(prev=prev, energy=entropy_energy(), h=1e-2, cost=cost, frozen=frozen)
    calls = {"_gaps": 0, "cost": []}
    gaps = energy_module._gaps

    def counted_gaps(*args):
        calls["_gaps"] += 1
        return gaps(*args)

    monkeypatch.setattr(energy_module, "_gaps", counted_gaps)
    _refuse_cost_after_build(monkeypatch, calls["cost"], jko_module)
    sol = solve_step(problem)
    assert sol.iterations >= 3
    assert calls == {"_gaps": sol.iterations + 1, "cost": []}


def _refuse_cost_after_build(monkeypatch, calls, *modules):
    """Once a step kernel is built through the _Rows of any of ``modules``, every
    QuadraticCost method and its arity append their name to ``calls`` and raise."""
    def refuse(name):
        def method(*args):
            calls.append(name)
            raise AssertionError(f"QuadraticCost.{name} called after the kernel's build")
        return method

    build = jko_module._Rows

    def built(*args):
        rows = build(*args)
        for name in ("arity", "partial_bound"):  # its property and method
            wrapped = refuse(name)
            monkeypatch.setattr(QuadraticCost, name,
                                property(wrapped) if name == "arity" else wrapped)
        return rows

    for module in modules:
        monkeypatch.setattr(module, "_Rows", built)


def test_run_flows_calls_centred_once_at_the_build_and_once_per_step(monkeypatch):
    # the one kernel of a flow and its rerun centres all six coupled rows' costs in one
    # call when it is built, and refills them from its partner table in one call per
    # step; no cost method runs after the build
    config = barycenter3_preset(n=16, n_steps=3)
    rerun = contraction_rerun(config, [from_grid(gaussian_profile(UNIT, c, 0.1), 16)
                                       for c in (0.35, 0.55, 0.65)])
    centred, tables, calls = jko_module.centred, [], []
    monkeypatch.setattr(jko_module, "centred",
                        lambda weights, partners, divisor: tables.append(partners.shape)
                        or centred(weights, partners, divisor))
    _refuse_cost_after_build(monkeypatch, calls, jko_module, flow_module)
    traj, rerun_traj = run_flows((config, rerun))
    assert calls == []
    assert tables == [(2, 6, 16)] * 4
    assert traj.positions[0].shape == rerun_traj.positions[0].shape == (4, 16)


# a row in slot s > 0 of (1.0, 0.5) is solved as its slot-0 equivalent (w_s,) against the
# slot-0 partner, the first of the partner states drawn: the terms dropped are constant in x
@pytest.mark.parametrize("cost, draws", [
    (None, 0),
    (QuadraticCost((1.0,)), 1),
    (QuadraticCost((1.0, 0.5)), 2),
    (QuadraticCost((0.5,)), 2),
], ids=["uncoupled", "pairwise", "barycenter-slot0", "barycenter-slot2"])
def test_solution_carries_its_step_diagnostics(cost, draws):
    rng = np.random.default_rng(14)
    n = 16
    drawn = tuple(spread_particles(rng, UNIT, n) for _ in range(draws))
    frozen = drawn[:0 if cost is None else cost.arity - 1]
    prob = StepProblem(prev=spread_particles(rng, UNIT, n), energy=entropy_energy(),
                       h=1e-2, cost=cost, frozen=frozen)
    sol = solve_step(prob)
    assert sol.iterations >= 1
    coupling = 0.0
    if cost is not None:  # the mean of the row's cost in slot 0 at the solution
        m, c0 = centred(cost.weights, [f.positions for f in frozen],
                        weight_total(cost.weights)[1])
        d = sol.rho.positions - m
        a = 2.0 * sum(cost.weights)
        coupling = float(np.add.reduce(0.5 * a * d * d + c0) / n)
        cols = [sol.rho.positions] + [f.positions for f in frozen]
        reference = float(np.mean(difference_form(cost).evaluate(np.stack(cols, axis=-1))))
        # the rounding bound of the centred-form test in test_transport.py, R = 2 on the
        # unit box
        assert abs(sol.coupling - reference) <= 8 * (cost.arity + 1) * EPS * sum(cost.weights) * 4
    assert sol.energy == energy_value(prob.energy, sol.rho)
    assert sol.coupling == coupling
    assert sol.el_residual == euler_lagrange_residual(prob, sol.rho)


@pytest.mark.parametrize("cost", [QuadraticCost((1.0,)), QuadraticCost((1.0, 0.5))],
                         ids=["pairwise", "barycenter"])
def test_step_coupling_is_the_coupling_value(cost):
    # the solver's coupling and the public coupling value are one computation
    rng = np.random.default_rng(15)
    n = 24
    frozen = tuple(spread_particles(rng, UNIT, n) for _ in range(cost.arity - 1))
    sol = solve_step(StepProblem(prev=spread_particles(rng, UNIT, n), energy=entropy_energy(),
                                 h=1e-2, cost=cost, frozen=frozen))
    assert sol.coupling == coupling_value(cost, (sol.rho,) + frozen)


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
            cost=QuadraticCost((1.0,)), frozen=(frozen,), tol=1e-12,
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
        cost=QuadraticCost((1.0,)), frozen=(target,), tol=1e-13,
    )
    sol = solve_step(prob)
    want = (prev.positions + 2 * h * target.positions) / (1 + 2 * h)
    assert float(np.max(np.abs(sol.rho.positions - want))) <= 1e-10


def test_step_descends_from_warm_start():
    rng = np.random.default_rng(8)
    for trial in range(10):
        prob = coupled_problem(rng, n=16)
        sol = solve_step(prob)
        assert sol.objective <= objective(prob, prob.prev.positions) + 1e-15
        assert sol.residual <= prob.default_tol()


def test_two_starts_agree():
    rng = np.random.default_rng(9)
    tol = 1e-11
    for trial in range(5):
        prob = coupled_problem(rng, n=16, tol=tol)
        a = solve_step(prob)
        rows, start = _Rows((prob,)), uniform_particles(UNIT, 16).positions
        b = _minimize(rows, start, _evaluate(rows, start))[0]
        assert float(np.max(np.abs(a.rho.positions - b))) <= 10 * tol * np.sqrt(16)


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
                    cost=QuadraticCost((1.0,)), frozen=())
    with pytest.raises(InvalidInputError):
        StepProblem(prev=prev, energy=zero_energy(), h=1e-2,
                    cost=QuadraticCost((1.0,)),
                    frozen=(spread_particles(rng, UNIT, 5),))
    # c = x y has mixed partial +1: the rank-diagonal value is not its optimal
    # coupling, and a step problem refuses every cost but a QuadraticCost
    product = CostFunction(2, lambda xs: xs[..., 0] * xs[..., 1])
    with pytest.raises(InvalidInputError, match="QuadraticCost"):
        StepProblem(prev=prev, energy=entropy_energy(), h=0.01, cost=product,
                    frozen=(spread_particles(rng, UNIT, 4),))


def test_zero_cost_slot_matches_uncoupled():
    rng = np.random.default_rng(12)
    prev = spread_particles(rng, UNIT, 8)
    other = spread_particles(rng, UNIT, 8)
    a = solve_step(StepProblem(prev=prev, energy=entropy_energy(), h=1e-2))
    b = solve_step(StepProblem(
        prev=prev, energy=entropy_energy(), h=1e-2,
        cost=QuadraticCost((0.0,)), frozen=(other,),
    ))
    assert float(np.max(np.abs(a.rho.positions - b.rho.positions))) <= 1e-12


def test_failed_line_search_raises_with_residual():
    # df has the wrong sign, so the search direction climbs the objective and
    # every Armijo backtrack fails; the solver must say so, not return a step
    wrong = wrong_sign_energy(1e6)
    prev = spread_particles(np.random.default_rng(5), UNIT, 8)
    problem = StepProblem(prev=prev, energy=wrong, h=0.05)
    with pytest.raises(NumericalFailureError, match="^step solver line search failed at "
                       "iteration 57: the accepted step does not move$") as info:
        solve_step(problem)
    assert info.value.residual > problem.default_tol()


def test_fall_within_the_objectives_rounding_is_judged_by_the_residual(monkeypatch):
    # E sums about N terms, so its computed value may be off by N EPS |E|, and
    # Armijo asks it to fall by c1 |slope|.  A barycenter step near its optimum,
    # with partners far apart (a large constant in E): its Newton slope lies in
    # (N EPS |E|, N EPS |E| / c1], low enough that the full step's fall, about
    # |slope| / 2, is within E's rounding; its residual is above tol
    n, shift = 8, 2.24e-8
    x0 = np.linspace(0.3, 0.7, n)
    partners = tuple(ParticleDensity(UNIT, x0 + shift + s) for s in (-0.25, 0.25))
    problem = StepProblem(prev=ParticleDensity(UNIT, x0), energy=zero_energy(), h=0.05,
                          cost=QuadraticCost((1.0, 1.0)), frozen=partners)
    rows = _Rows([problem])
    at = _evaluate(rows, rows.prev)
    slope = float(at.grad @ _newton_direction(rows, rows.prev, at, [True]))
    e = float(at.values[0])
    rounding = n * EPS * abs(e)
    assert rounding < -slope < 2.0 * rounding
    assert math.sqrt(_residuals(rows, rows.prev, at.grad)[0]) > problem.default_tol()
    # E read as its rounding may read it: a fall within N EPS |E| does not show, and
    # near x0 every other point reads one ulp above E(x0)
    evaluate = jko_module._evaluate

    def rounded(rows, x, reuse=None):
        at = evaluate(rows, x, reuse)
        if np.array_equal(x, x0):
            return at
        return at._replace(values=np.where(at.values > e - rounding, np.nextafter(e, np.inf),
                                           at.values))

    monkeypatch.setattr(jko_module, "_evaluate", rounded)
    # the full step is judged by its residual, where Armijo would halve it until no
    # particle moves
    sol = solve_step(problem)
    assert sol.iterations == 1 and sol.residual <= problem.default_tol()


def _nan_left_of(monkeypatch, wall, row=0):
    """Make the cost of row ``row`` NaN at each evaluated particle left of ``wall``, by a
    NaN planted in the row's cost centre m."""
    evaluate = jko_module._evaluate

    def planted(rows, x, reuse=None):
        segment = slice(row * rows.n, (row + 1) * rows.n)
        rows.m[segment][x[segment] < wall] = np.nan
        return evaluate(rows, x, reuse)

    monkeypatch.setattr(jko_module, "_evaluate", planted)


@pytest.mark.parametrize("wall, iteration", [(0.5, 0), (0.1, 1)])
def test_non_finite_point_raises_naming_the_iteration(monkeypatch, wall, iteration):
    # the cost is NaN left of `wall`: the whole start for wall = 0.5, a trial
    # point of the second iteration for wall = 0.1: the entropy spreads the
    # first particle from 0.2 to 0.119 in the first iteration and to 0.098 in
    # the second
    prev = ParticleDensity(UNIT, np.linspace(0.2, 0.8, 16))
    problem = StepProblem(prev=prev, energy=entropy_energy(), h=1e-2,
                          cost=QuadraticCost((1.0,)), frozen=(prev,))
    _nan_left_of(monkeypatch, wall)
    with pytest.raises(NumericalFailureError,
                       match=f"non-finite .* at iteration {iteration}$") as err:
        solve_step(problem)
    assert err.value.row == 0


def test_non_finite_newton_system_is_a_numerical_failure(monkeypatch):
    # a finite point whose Hessian diagonal is infinite at one particle, as the
    # cost curvature of |x - k|^(3/2) is at a particle sitting on k; the suite
    # makes a RuntimeWarning an error, so the check must raise none
    prev = ParticleDensity(UNIT, np.linspace(0.2, 0.8, 16))
    problem = StepProblem(prev=prev, energy=entropy_energy(), h=1e-2,
                          cost=QuadraticCost((1.0,)), frozen=(prev,))
    bands = jko_module._hessian_bands

    def kinked(rows, at):
        diag, off = bands(rows, at)
        diag[7] = np.inf
        return diag, off

    monkeypatch.setattr(jko_module, "_hessian_bands", kinked)
    with pytest.raises(
        NumericalFailureError, match="non-finite or indefinite Newton system at iteration 0$"
    ) as err:
        solve_step(problem)
    assert math.isfinite(err.value.residual)


def test_indefinite_newton_system_is_a_numerical_failure(monkeypatch):
    # dptsv reports a leading minor that is not positive (info > 0): the pass's
    # failure, charged to the row farthest above its tol with its residual at the start
    problems = [StepProblem(prev=from_grid(gaussian_profile(UNIT, c, 0.1), 32),
                            energy=entropy_energy(), h=1e-2, tol=tol)
                for c, tol in ((0.3, 1e-3), (0.6, 1e-9))]
    rows = _Rows(problems)
    res = [math.sqrt(q) for q in _residuals(rows, rows.prev, _evaluate(rows, rows.prev).grad)]
    monkeypatch.setattr(jko_module, "dptsv", lambda d, e, b, *flags, **named: (d, e, b, 1))
    with pytest.raises(NumericalFailureError, match="^step solver met a non-finite or "
                       "indefinite Newton system at iteration 0$") as info:
        rows.step()
    assert (info.value.row, info.value.residual) == (1, res[1])
    assert res[1] / 1e-9 > res[0] / 1e-3
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_residual_matches_projected_residual_when_sorted():
    # the stopping test clips x - (N/2) g to the box without reordering it;
    # where that point is sorted it is the projected residual to the bit, and
    # where it is not, neither residual can be small while every gap is large
    rng = np.random.default_rng(3)
    seen = {True: 0, False: 0}
    for trial in range(400):
        n = int(rng.integers(2, 40))
        x = np.sort(rng.uniform(0.0, 1.0, n))
        if trial % 3 == 1:
            x[0] = 0.0
        if trial % 4 == 2:
            x[-1] = 1.0
        g = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 0) / n
        y = x - (0.5 * n) * g
        rows = _Rows((StepProblem(prev=ParticleDensity(UNIT, x), energy=zero_energy(), h=1.0),))
        got = math.sqrt(_residuals(rows, x, g)[0])
        projected = float(np.linalg.norm(x - project_ordered_box(UNIT, y)))
        is_sorted = bool(np.all(y[1:] >= y[:-1]))
        seen[is_sorted] += 1
        if is_sorted:
            assert got == projected
        else:
            t = 0.49 * float(np.min(np.diff(x)))
            assert got > t and projected > t
    assert min(seen.values()) > 50


# ------------------------------------------------------------- joint solve


def _natural_residual(problem, x):
    """The box-projected natural-gradient residual, from the public gradient."""
    y = x - 0.5 * x.size * objective_gradient(problem, x)
    return float(np.linalg.norm(x - np.clip(y, problem.domain.lower, problem.domain.upper)))


def _independent_problems(rng, n=24, h=2e-2):
    # one N, domain and h; energies and costs differ from row to row
    energies = (entropy_energy(), power_law_energy(2.0), zero_energy(), entropy_energy())
    costs = (None, QuadraticCost((1.0,)), QuadraticCost((1.0, 0.5)), QuadraticCost((2.0,)))
    problems = []
    for energy, cost in zip(energies, costs):
        frozen = () if cost is None else tuple(
            spread_particles(rng, UNIT, n) for _ in range(cost.arity - 1)
        )
        problems.append(StepProblem(prev=spread_particles(rng, UNIT, n), energy=energy, h=h,
                                    cost=cost, frozen=frozen))
    return problems


def _kernel_solutions(problems):
    """One step of a kernel of ``problems``: each row as a StepSolution."""
    step = _Rows(problems).step()
    return tuple(step.solution(p.domain, r) for r, p in enumerate(problems))


def _assert_solves_alone(problems, joint):
    """Each row of a joint solve is its one-row solve, to the bit."""
    for problem, sol in zip(problems, joint, strict=True):
        alone = solve_step(problem)
        assert sol == alone._replace(rho=sol.rho)  # every diagnostic
        assert sol.rho.positions.tobytes() == alone.rho.positions.tobytes()


def test_joint_solve_agrees_with_one_at_a_time():
    rng = np.random.default_rng(21)
    for trial in range(5):
        problems = _independent_problems(rng)
        joint = _kernel_solutions(problems)
        _assert_solves_alone(problems, joint)
        assert len({sol.iterations for sol in joint}) > 1  # the rows stop on their own
        for problem, sol in zip(problems, joint):
            tol = problem.default_tol()
            assert sol.residual <= tol
            assert _natural_residual(problem, sol.rho.positions) <= tol
            assert sol.energy == energy_value(problem.energy, sol.rho)
            assert sol.objective == objective(problem, sol.rho.positions)
            assert sol.w2_sq == pytest.approx(
                float(np.mean((sol.rho.positions - problem.prev.positions) ** 2)), rel=1e-15
            )


def test_rows_stopped_at_walls_solve_as_alone():
    # rows whose ends reach a wall each take their own step length, cut at
    # their own wall, next to rows that reach none
    rng = np.random.default_rng(26)
    n, h = 24, 2e-2
    x = np.sort(rng.uniform(0.0, 0.12, n))
    problems = [StepProblem(prev=ParticleDensity(UNIT, x), energy=entropy_energy(), h=h),
                StepProblem(prev=ParticleDensity(UNIT, 1.0 - x[::-1]), energy=entropy_energy(),
                            h=h),
                StepProblem(prev=ParticleDensity(UNIT, np.linspace(0.0, 1.0, n)),
                            energy=power_law_energy(2.0), h=h),
                *_independent_problems(rng, n=n, h=h)]
    joint = _kernel_solutions(problems)
    assert joint[0].rho.positions[0] == UNIT.lower and joint[1].rho.positions[-1] == UNIT.upper
    _assert_solves_alone(problems, joint)
    _assert_solves_alone(problems[::-1], _kernel_solutions(problems[::-1]))


def test_one_particle_rows_solve_as_alone():
    # a one-particle row has no gap: only its walls limit its step
    frozen = (ParticleDensity(UNIT, np.array([0.9])),)
    problems = [StepProblem(prev=ParticleDensity(UNIT, np.array([xk])), energy=zero_energy(),
                            h=0.1, cost=QuadraticCost((1.0,)), frozen=frozen,
                            tol=tol)
                for xk, tol in ((0.0, 1e-12), (0.3, 1e-9), (1.0, 1e-12))]
    joint = _kernel_solutions(problems)
    _assert_solves_alone(problems, joint)
    for xk, sol in zip((0.0, 0.3, 1.0), joint):
        assert abs(float(sol.rho.positions[0]) - (xk + 0.2 * 0.9) / 1.2) <= 1e-9


def test_copies_of_one_problem_solve_like_one():
    # equal rows take equal steps, so a joint solve of copies reproduces the
    # one-row solve to the bit: values, states and the iteration count
    rng = np.random.default_rng(22)
    for problem in _independent_problems(rng):
        alone = solve_step(problem)
        for sol in _kernel_solutions([problem]) + _kernel_solutions([problem] * 3):
            assert sol == alone._replace(rho=sol.rho)
            assert np.array_equal(sol.rho.positions, alone.rho.positions)


def test_copies_stopped_at_a_wall_solve_like_one():
    # the heat step takes the first particle onto the lower wall.  Every
    # copy's end reaches its wall and must land on it exactly, as in the
    # one-row solve, not an ulp beyond
    prev = ParticleDensity(UNIT, np.array([0.10797324018366018, 0.11330634774126422,
                                           0.1250131561376476, 0.17915879642600024]))
    problem = StepProblem(prev=prev, energy=entropy_energy(), h=1e-2)
    mirrored = StepProblem(prev=ParticleDensity(UNIT, 1.0 - prev.positions[::-1]),
                           energy=entropy_energy(), h=1e-2)
    alone = solve_step(problem)
    assert alone.rho.positions[0] == UNIT.lower
    for sol in _kernel_solutions([problem] * 2):
        assert sol == alone._replace(rho=sol.rho)
        assert np.array_equal(sol.rho.positions, alone.rho.positions)
    _, upper, _ = _kernel_solutions([problem, mirrored, problem])
    assert upper.rho.positions[-1] == UNIT.upper


def test_rows_sharing_an_energy_evaluate_it_in_one_pass(monkeypatch):
    rng = np.random.default_rng(23)
    calls, evaluations = [], []
    gaps, evaluate = energy_module._gaps, jko_module._evaluate
    monkeypatch.setattr(energy_module, "_gaps", lambda *a: calls.append(a) or gaps(*a))
    monkeypatch.setattr(jko_module, "_evaluate",
                        lambda *a: evaluations.append(a) or evaluate(*a))

    def passes(energies):
        calls.clear()
        evaluations.clear()
        _Rows([StepProblem(prev=spread_particles(rng, UNIT, 32), energy=e, h=1e-2)
               for e in energies]).step()
        return len(calls) / len(evaluations)

    assert entropy_energy() is entropy_energy()
    assert power_law_energy(2) is power_law_energy(2.0)
    # row r is problem r, so one pass per run of adjacent rows that share an energy
    assert passes([entropy_energy()] * 3) == 1
    assert passes([entropy_energy(), entropy_energy(), power_law_energy(2.0)]) == 2
    assert passes([entropy_energy(), power_law_energy(2.0), entropy_energy()]) == 3


def test_joint_failure_names_its_row(monkeypatch):
    # row 1 climbs its objective (its energy's derivative has the wrong sign);
    # row 0 is a healthy heat step, so the failure is charged to row 1
    rng = np.random.default_rng(24)
    wrong = wrong_sign_energy(1e6)
    healthy = StepProblem(prev=spread_particles(rng, UNIT, 8), energy=entropy_energy(), h=0.05)
    broken = StepProblem(prev=spread_particles(rng, UNIT, 8), energy=wrong, h=0.05)
    with pytest.raises(NumericalFailureError, match="^step solver line search failed at "
                       "iteration 0: the accepted step does not move$") as info:
        _Rows([healthy, broken]).step()
    assert info.value.row == 1
    assert info.value.residual > broken.default_tol()
    # a non-finite row is named at the iteration it appears in
    prev = ParticleDensity(UNIT, np.linspace(0.2, 0.8, 8))
    bad = StepProblem(prev=prev, energy=entropy_energy(), h=0.05, cost=QuadraticCost((1.0,)),
                      frozen=(prev,))
    _nan_left_of(monkeypatch, 0.5, row=2)
    with pytest.raises(NumericalFailureError, match="non-finite .* at iteration 0$") as info:
        _Rows([healthy, healthy, bad]).step()
    assert info.value.row == 2


def _exceed_one_iteration(monkeypatch):
    monkeypatch.setattr(jko_module, "MAX_ITERS", 1)


def _fail_entropy_rows_armijo_test(monkeypatch):
    """Raise the objective by 1 at every trial point of each entropy row: finite, but
    never an Armijo decrease.  A step's start, its prev, is left as it is."""
    evaluate = jko_module._evaluate

    def raised(rows, x, reuse=None):
        at = evaluate(rows, x, reuse)
        if x is rows.prev:
            return at
        values = at.values.copy()
        for energy, a, b in rows.energies:
            if energy is entropy_energy():
                values[a:b] += 1.0
        return at._replace(values=values)

    monkeypatch.setattr(jko_module, "_evaluate", raised)


def _charged_row(problems, message):
    """The row a kernel of ``problems`` charges ``message`` to, and its residual: of the
    rows that fail alone, the one farthest above its tol."""
    failed = {}
    for r, problem in enumerate(problems):
        try:
            solve_step(problem)
        except NumericalFailureError as err:
            assert (str(err), err.row) == (message, 0)
            tol = problem.default_tol() if problem.tol is None else problem.tol
            failed[r] = (err.residual / tol, err.residual)
    row = max(failed, key=lambda r: failed[r][0])
    return row, failed[row][1]


@pytest.mark.parametrize("plant, message, row", [
    (_exceed_one_iteration, "step solver exceeded 1 iterations", 1),
    (_fail_entropy_rows_armijo_test, "step solver line search failed at iteration 0", 2),
], ids=["max-iters", "armijo"])
def test_unconverged_kernel_names_the_row_farthest_above_its_tol(monkeypatch, plant, message,
                                                                 row):
    # heat steps that need a few Newton passes, next to a row that starts
    # converged.  max-iters: every row but the last is still moving after one
    # pass.  armijo: the power-law row, farthest above its tol, passes its
    # Armijo test, so the failure is charged to an entropy row
    n, h = 32, 1e-2
    problems = [
        StepProblem(prev=from_grid(gaussian_profile(UNIT, 0.3, 0.1), n),
                    energy=entropy_energy(), h=h, tol=1e-6),
        StepProblem(prev=from_grid(gaussian_profile(UNIT, 0.6, 0.08), n),
                    energy=power_law_energy(2.0), h=h, tol=1e-12),
        StepProblem(prev=from_grid(bump_profile(UNIT, 0.5, 0.2), n),
                    energy=entropy_energy(), h=h),
        StepProblem(prev=from_grid(gaussian_profile(UNIT, 0.5, 0.1), n),
                    energy=zero_energy(), h=h),
    ]
    plant(monkeypatch)
    charged, residual = _charged_row(problems, message)
    assert charged == row
    with pytest.raises(NumericalFailureError) as info:
        _Rows(problems).step()
    assert (str(info.value), info.value.row, info.value.residual) == (message, row, residual)
    # the same rows as one flow's populations, at the default tol
    flow_problems = [dataclasses.replace(p, tol=None) for p in problems]
    charged, residual = _charged_row(flow_problems, message)
    config = FlowConfig(tuple(PopulationSpec(p.prev, p.energy) for p in problems), h, 2)
    with pytest.raises(NumericalFailureError) as info:
        run_flow(config)
    assert str(info.value) == f"step 1, population {charged}: {message}"
    assert (info.value.row, info.value.residual) == (0, residual)


# ------------------------------------------------------------- Newton direction


def _dense_held_solve(problem, g, q, held):
    """H d = -g solved densely with the held particles' rows and columns removed."""
    n = g.size
    gaps = np.diff(np.eye(n), axis=0)
    hessian = (2.0 / n) * np.eye(n) + 2.0 * problem.h * gaps.T @ np.diag(np.maximum(q, 0.0)) @ gaps
    free = np.ones(n, dtype=bool)
    free[list(held)] = False
    d = np.zeros(n)
    d[free] = np.linalg.solve(hessian[np.ix_(free, free)], -g[free])
    return d


def _at(g, q):
    """A point of one row carrying only what the Newton direction reads: g and q."""
    one = np.zeros(1)
    return _Point(one, one, one, one, g, np.zeros_like(g), np.r_[q, 0.0])


MOVING = np.ones(1, dtype=bool)  # the one row has not met its tol
_INTERIOR = np.linspace(0.1, 0.9, 6)
_Q = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
_G = np.array([-0.2, 0.7, -0.1, 0.3, -0.5, 0.2])
_NEWTON_CASES = {
    # name: positions, gradient, gap curvatures, particles held
    "no-wall": (_INTERIOR, _G, _Q, ()),
    "lower-by-gradient": (np.r_[0.0, _INTERIOR[1:]], np.r_[1.0, _G[1:]], _Q, (0,)),
    "upper-by-gradient": (np.r_[_INTERIOR[:-1], 1.0], np.r_[_G[:-1], -1.0], _Q, (5,)),
    # -g points inward at the lower wall, but the stiff first gap drags
    # particle 0 along with particle 1, out of the box
    "lower-after-solve": (np.r_[0.0, _INTERIOR[1:]], np.r_[-0.01, 5.0, _G[2:]],
                          np.r_[1e3, _Q[1:]], (0,)),
    "both-walls": (np.r_[0.0, _INTERIOR[1:-1], 1.0], np.r_[1.0, _G[1:-1], -1.0], _Q, (0, 5)),
    "single-particle": (np.array([0.4]), np.array([0.3]), np.zeros(0), ()),
}


@pytest.mark.parametrize("case", list(_NEWTON_CASES))
def test_newton_direction_matches_dense_held_solve(case):
    x, g, q, held = _NEWTON_CASES[case]
    energy = zero_energy() if x.size == 1 else entropy_energy()
    problem = StepProblem(prev=ParticleDensity(UNIT, x), energy=energy, h=0.05)
    if case == "lower-after-solve":
        assert not g[0] > 0.0 and _dense_held_solve(problem, g, q, ())[0] < 0.0
    d = _newton_direction(_Rows((problem,)), x, _at(g, q), MOVING)
    assert np.all(d[list(held)] == 0.0)
    np.testing.assert_allclose(d, _dense_held_solve(problem, g, q, held), rtol=1e-12, atol=1e-15)


def test_newton_direction_refuses_nan_gap_curvature():
    # a NaN gradient never gets here: _require_finite refuses its point first
    x, g, q, _ = _NEWTON_CASES["no-wall"]
    problem = StepProblem(prev=ParticleDensity(UNIT, x), energy=entropy_energy(), h=0.05)
    with pytest.raises(ValueError, match="infs or NaNs"):
        _newton_direction(_Rows((problem,)), x, _at(g, np.r_[q[:2], np.nan, q[3:]]), MOVING)


def _fallback_dptsv(monkeypatch):
    """What jko's dptsv loader returns when the direct load of _flapack fails."""
    def refuse(*args, **kwargs):
        raise ImportError("direct load refused")

    monkeypatch.setattr(importlib.util, "spec_from_file_location", refuse)
    return jko_module._load_dptsv()


def _dptsv_outputs(dptsv, diag, off, b):
    """dptsv's outputs on copies of one system, called as _newton_direction calls it."""
    d_band, e_band, d, info = dptsv(diag.copy(), off.copy(), b.copy(), 0, 0, 1)
    return d_band.tobytes(), e_band.tobytes(), d.tobytes(), info


def test_dptsv_falls_back_to_scipy_linalg_lapack(monkeypatch):
    from scipy.linalg.lapack import dptsv

    assert jko_module.dptsv is not dptsv  # the direct load worked
    assert _fallback_dptsv(monkeypatch) is dptsv


@pytest.mark.parametrize("n", [1, 2, 128, 1024])
def test_direct_and_fallback_dptsv_agree_to_the_bit(monkeypatch, n):
    rng = np.random.default_rng(n)
    # one particle: the length-1 zero off-diagonal the kernel passes
    off = rng.uniform(-1.0, 1.0, n - 1) if n > 1 else np.zeros(1)
    pad = np.abs(np.r_[0.0, off[:n - 1], 0.0])
    diag = pad[:-1] + pad[1:] + rng.uniform(0.1, 1.0, n)  # diagonally dominant, so SPD
    b = rng.standard_normal(n)
    direct = _dptsv_outputs(jko_module.dptsv, diag, off, b)
    assert direct[3] == 0
    assert _dptsv_outputs(_fallback_dptsv(monkeypatch), diag, off, b) == direct


def test_direct_and_fallback_dptsv_agree_on_an_indefinite_system(monkeypatch):
    diag, off, b = np.ones(3), np.array([2.0, 0.0]), np.ones(3)  # second leading minor 1 - 4 < 0
    direct = _dptsv_outputs(jko_module.dptsv, diag, off, b)
    assert direct[3] == 2
    assert _dptsv_outputs(_fallback_dptsv(monkeypatch), diag, off, b) == direct
