import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jkoflow import (
    CostFunction,
    Domain,
    DomainError,
    InvalidInputError,
    ParticleDensity,
    barycenter_cost,
    convexity_probe,
    coupling_value,
    displacement_interpolate,
    quadratic_pairwise_cost,
    w2_distance,
    zero_cost,
)
from helpers import spread_particles, uniform_particles
from oracle import lp_convexity_violations

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


# ---------------------------------------------------------------- coupling value


def test_coupling_value_refuses_mismatched_marginals():
    pair = quadratic_pairwise_cost(UNIT)
    with pytest.raises(InvalidInputError):
        coupling_value(pair, [atoms(0.1, 0.5), atoms(0.3)])
    with pytest.raises(InvalidInputError):
        coupling_value(pair, [atoms(0.1), ParticleDensity(Domain(0.0, 2.0), np.array([0.1]))])
    with pytest.raises(InvalidInputError):
        coupling_value(pair, [atoms(0.1), atoms(0.3), atoms(0.5)])


def test_monotone_plan_matches_ranks():
    # the rank-diagonal plan couples the j-th smallest atoms with mass 1/N
    a = atoms(0.1, 0.4, 0.8)
    b = atoms(0.2, 0.3, 0.9)
    want = np.mean((a.positions - b.positions) ** 2)
    assert math.isclose(coupling_value(quadratic_pairwise_cost(UNIT), [a, b]), want, abs_tol=1e-15)


def test_plan_marginals_exact():
    # a cost of coordinate i alone integrates the plan's i-th marginal, so its
    # value is the mean of that marginal's atoms exactly when the marginal is
    rng = np.random.default_rng(3)
    a = spread_particles(rng, UNIT, 17)
    b = spread_particles(rng, UNIT, 17)
    for i, m in enumerate((a, b)):
        coordinate = CostFunction(
            arity=2,
            fn=lambda xs, i=i: xs[..., i],
            partial_fns=tuple(lambda xs, k=k, i=i: np.full(xs.shape[:-1], float(k == i))
                              for k in range(2)),
            partial_bound=1.0,
            comonotone_certified=True,
        )
        assert abs(coupling_value(coordinate, [a, b]) - np.mean(m.positions)) <= 1e-12


def test_zero_cost_plan_value():
    a = atoms(0.1, 0.4)
    b = atoms(0.2, 0.9)
    assert coupling_value(zero_cost(2), [a, b]) == 0.0


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
        assert report.max_violation <= 1e-8


def test_convexity_probe_flags_product_cost():
    # swap coupling: along the interpolation the product x0*x1 rises above
    # the chord by t(1-t)(a-b)^2; the probe refuses the cost, and the LP
    # oracle still measures the violation
    a, b = 0.2, 0.8
    ta = (atoms(a), atoms(b))
    tb = (atoms(b), atoms(a))
    with pytest.raises(InvalidInputError, match="uncertified"):
        convexity_probe(product_cost(+1.0), (ta, tb), t_samples=(0.5,))
    (violation,) = lp_convexity_violations(product_cost(+1.0), (ta, tb), t_samples=(0.5,))
    want = 0.25 * (a - b) ** 2
    assert math.isclose(violation, want, abs_tol=1e-9)
    assert violation > 1e-8


def test_convexity_probe_refuses_uncertified_cost_past_lp_cap():
    # the diagonal plan only bounds an uncertified coupling from above, so the
    # probe refuses such a cost at every size: one atom, and past the LP
    # oracle's cap, where the oracle could not evaluate it either
    for n in (1, 800):
        a = uniform_particles(UNIT, n)
        b = uniform_particles(UNIT, n)
        with pytest.raises(InvalidInputError, match="uncertified"):
            convexity_probe(product_cost(+1.0), ((a, b), (b, a)))


def test_convexity_probe_validates_times():
    ta = (atoms(0.2), atoms(0.4))
    with pytest.raises(DomainError):
        convexity_probe(quadratic_pairwise_cost(UNIT), (ta, ta), t_samples=(1.2,))


# ---------------------------------------------------------------- frozen slot


def test_semi_coupling_value_matches_manual():
    # rho in slot 0, the frozen tuple in the other slots
    rng = np.random.default_rng(61)
    cost = barycenter_cost([1.0, 2.0], UNIT)
    rho = spread_particles(rng, UNIT, 8)
    frozen = [spread_particles(rng, UNIT, 8) for _ in range(2)]
    got = coupling_value(cost, [rho] + frozen)
    x1, x2, x3 = rho.positions, frozen[0].positions, frozen[1].positions
    want = float(np.mean((x1 - x2) ** 2 + 2.0 * (x1 - x3) ** 2))
    assert math.isclose(got, want, abs_tol=1e-13)
