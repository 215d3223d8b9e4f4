import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jkoflow import (
    CapacityError,
    CostFunction,
    Domain,
    DomainError,
    InvalidInputError,
    ParticleDensity,
    barycenter_cost,
    convexity_probe,
    displacement_interpolate,
    lp_solve_mm,
    monotone_plan,
    plan_cost,
    quadratic_pairwise_cost,
    semi_coupling_value,
    w2_distance,
    zero_cost,
)
from helpers import spread_particles, uniform_particles

UNIT = Domain(0.0, 1.0)


def product_cost(sign=1.0):
    # c = sign * x0 * x1; mixed second derivative is sign, so sign=+1 is the
    # canonical non-comonotone example
    return CostFunction(
        arity=2,
        fn=lambda xs: sign * xs[..., 0] * xs[..., 1],
        partial_fns=(lambda xs: sign * xs[..., 1], lambda xs: sign * xs[..., 0]),
        partial_bound=1.0,
        comonotone_certified=False,
        name="product",
    )


def atoms(*positions, domain=UNIT):
    return ParticleDensity(domain, np.array(sorted(positions), dtype=float))


# ---------------------------------------------------------------- costs


def test_quadratic_cost_values_and_partials():
    c = quadratic_pairwise_cost(UNIT)
    xs = np.array([[0.2, 0.7], [1.0, 0.0]])
    assert np.allclose(c.evaluate(xs), [0.25, 1.0])
    assert np.allclose(c.partial(0, xs), [-1.0, 2.0])
    assert np.allclose(c.partial(1, xs), [1.0, -2.0])
    assert c.partial_bound == 2.0
    assert c.comonotone_certified


def test_barycenter_cost_closed_form():
    c = barycenter_cost([2.0, 3.0], UNIT)
    xs = np.array([0.5, 0.1, 0.9])
    # 2 (0.5-0.1)^2 + 3 (0.5-0.9)^2 = 0.32 + 0.48
    assert math.isclose(float(c.evaluate(xs)), 0.8, rel_tol=0, abs_tol=1e-14)
    assert math.isclose(float(c.partial(1, xs)), 2 * 2.0 * (0.1 - 0.5), abs_tol=1e-14)
    assert math.isclose(
        float(c.partial(0, xs)),
        -2 * (2.0 * (0.1 - 0.5) + 3.0 * (0.9 - 0.5)),
        abs_tol=1e-14,
    )
    assert c.partial_bound == 2.0 * 1.0 * 5.0


def test_cost_validation():
    with pytest.raises(InvalidInputError):
        barycenter_cost([1.0, -1.0], UNIT)
    c = quadratic_pairwise_cost(UNIT)
    with pytest.raises(InvalidInputError):
        c.partial(2, np.zeros((3, 2)))
    with pytest.raises(InvalidInputError):
        c.evaluate(np.zeros((3, 3)))


# ---------------------------------------------------------------- plans


def test_monotone_plan_requires_shared_count_and_domain():
    with pytest.raises(InvalidInputError):
        monotone_plan([atoms(0.1, 0.5), atoms(0.3)])
    with pytest.raises(InvalidInputError):
        monotone_plan([atoms(0.1), ParticleDensity(Domain(0.0, 2.0), np.array([0.1]))])


def test_monotone_plan_matches_ranks():
    a = atoms(0.1, 0.4, 0.8)
    b = atoms(0.2, 0.3, 0.9)
    plan = monotone_plan([a, b], quadratic_pairwise_cost(UNIT))
    pts = plan.support_positions()
    assert np.array_equal(pts[:, 0], a.positions)
    assert np.array_equal(pts[:, 1], b.positions)
    want = np.mean((a.positions - b.positions) ** 2)
    assert math.isclose(plan.cost_value, want, abs_tol=1e-15)
    assert math.isclose(plan_cost(plan, quadratic_pairwise_cost(UNIT)), want, abs_tol=1e-15)


def test_plan_marginals_exact():
    rng = np.random.default_rng(3)
    a = spread_particles(rng, UNIT, 17)
    b = spread_particles(rng, UNIT, 17)
    plan = monotone_plan([a, b])
    for i in range(2):
        assert np.max(np.abs(plan.marginal_weights(i) - 1.0 / 17)) <= 1e-12


def test_zero_cost_plan_value():
    a = atoms(0.1, 0.4)
    b = atoms(0.2, 0.9)
    assert plan_cost(monotone_plan([a, b]), zero_cost(2)) == 0.0


# ---------------------------------------------------------------- LP oracle


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
        mono = monotone_plan(margs, cost)
        assert abs(plan.cost_value - mono.cost_value) <= 1e-9


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


# ---------------------------------------------------------------- geodesics


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


# ---------------------------------------------------------------- convexity


def test_convexity_probe_certified_cost():
    rng = np.random.default_rng(51)
    cost = quadratic_pairwise_cost(UNIT)
    for trial in range(5):
        ta = tuple(spread_particles(rng, UNIT, 6) for _ in range(2))
        tb = tuple(spread_particles(rng, UNIT, 6) for _ in range(2))
        report = convexity_probe(cost, (ta, tb))
        assert not report.advisory_only
        assert report.evaluation == "comonotone"
        assert report.max_violation <= 1e-8


def test_convexity_probe_flags_product_cost():
    # swap coupling: along the interpolation the product x0*x1 rises above
    # the chord by t(1-t)(a-b)^2
    a, b = 0.2, 0.8
    ta = (atoms(a), atoms(b))
    tb = (atoms(b), atoms(a))
    report = convexity_probe(product_cost(+1.0), (ta, tb), t_samples=(0.5,))
    assert report.advisory_only
    assert report.evaluation == "lp"
    want = 0.25 * (a - b) ** 2
    assert math.isclose(report.max_violation, want, abs_tol=1e-9)
    assert report.max_violation > 1e-8


def test_convexity_probe_refuses_uncertified_cost_past_lp_cap():
    # the diagonal plan only bounds an uncertified coupling from above, so a
    # tuple too large for the LP oracle is refused instead of evaluated on it
    a = uniform_particles(UNIT, 800)
    b = uniform_particles(UNIT, 800)
    with pytest.raises(CapacityError):
        convexity_probe(product_cost(+1.0), ((a, b), (b, a)))


def test_convexity_probe_validates_times():
    ta = (atoms(0.2), atoms(0.4))
    with pytest.raises(DomainError):
        convexity_probe(quadratic_pairwise_cost(UNIT), (ta, ta), t_samples=(1.2,))


# ---------------------------------------------------------------- frozen slot


def test_semi_coupling_value_matches_manual():
    rng = np.random.default_rng(61)
    cost = barycenter_cost([1.0, 2.0], UNIT)
    rho = spread_particles(rng, UNIT, 8)
    frozen = [spread_particles(rng, UNIT, 8) for _ in range(2)]
    got = semi_coupling_value(cost, frozen, 0, rho)
    x1, x2, x3 = rho.positions, frozen[0].positions, frozen[1].positions
    want = float(np.mean((x1 - x2) ** 2 + 2.0 * (x1 - x3) ** 2))
    assert math.isclose(got, want, abs_tol=1e-13)
