import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jkoflow import (
    Domain,
    InvalidInputError,
    ParticleDensity,
    QuadraticCost,
    convexity_probe,
    coupling_value,
)
from jkoflow.transport import centred, weight_total
from helpers import spread_particles, uniform_particles
from oracle import CostFunction, difference_form, lp_convexity_violations

UNIT = Domain(0.0, 1.0)
EPS = np.finfo(float).eps


def product_cost(sign=1.0):
    # c = sign * x0 * x1; mixed second derivative is sign, so sign=+1 is the
    # canonical non-comonotone example
    return CostFunction(arity=2, fn=lambda xs: sign * xs[..., 0] * xs[..., 1], name="product")


def atoms(*positions, domain=UNIT):
    return ParticleDensity(domain, np.array(sorted(positions), dtype=float))


# ---------------------------------------------------------------- costs


def _terms(cost, xs):
    """Value, partial and curvature in slot 0 at the tuples xs (shape (..., arity)), from
    the centred form against the other columns."""
    m, c0 = centred(cost.weights, [xs[..., k] for k in range(1, cost.arity)],
                    weight_total(cost.weights)[1])
    a = 2.0 * sum(cost.weights)
    d = xs[..., 0] - m
    return 0.5 * a * d * d + c0, a * d, a


def test_quadratic_cost_values_and_partials():
    c = QuadraticCost((1.0,))
    xs = np.array([[0.2, 0.7], [1.0, 0.0]])
    assert c.arity == 2
    value, got, curvature = _terms(c, xs)
    assert np.allclose(value, [0.25, 1.0])
    assert np.allclose(got, [-1.0, 2.0])
    assert curvature == 2.0
    assert c.partial_bound(1.0) == 2.0


def test_barycenter_cost_closed_form():
    c = QuadraticCost((2.0, 3.0))
    xs = np.array([0.5, 0.1, 0.9])
    # 2 (0.5-0.1)^2 + 3 (0.5-0.9)^2 = 0.32 + 0.48
    value, partial, curvature = _terms(c, xs)
    assert math.isclose(float(value), 0.8, rel_tol=0, abs_tol=1e-14)
    assert math.isclose(
        float(partial),
        -2 * (2.0 * (0.1 - 0.5) + 3.0 * (0.9 - 0.5)),
        abs_tol=1e-14,
    )
    assert curvature == 10.0
    assert c.partial_bound(1.0) == 2.0 * 1.0 * 5.0


def test_cost_validation():
    for weights in ((1.0, -1.0), (math.nan,), (1.0, math.inf), (-math.inf,), ()):
        with pytest.raises(InvalidInputError, match="finite and nonnegative"):
            QuadraticCost(weights)
    assert QuadraticCost([0.5, 0]).weights == (0.5, 0.0)


def _weights():
    """One to twelve weights, each zero or spread over six decades."""
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    return st.lists(weight, min_size=1, max_size=12)


@given(_weights(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_centred_matches_the_difference_form(weights, seed):
    # the centred form (a/2)(x - m)^2 + c0 in slot 0 against the term-by-term
    # sum_k w_k (x_0 - x_k)^2.  Either side rounds each of its O(K) operations by
    # at most eps relative to sum_k w_k R^2 (value) or sum_k w_k R (partial), R the
    # largest |coordinate| of the tuple doubled, so 8 (K + 2) eps times that scale
    # bounds their difference; the curvature is the closed form exactly
    rng = np.random.default_rng(seed)
    cost = QuadraticCost(weights)
    k = len(weights)
    xs = rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 12)), k + 1))
    xs *= 10.0 ** rng.uniform(-3, 3)
    w = np.array(weights)
    value = difference_form(cost).evaluate(xs)
    partial = 2.0 * np.sum(w * (xs[:, :1] - xs[:, 1:]), axis=-1)
    r = 2.0 * np.max(np.abs(xs), axis=-1)
    tol = 8.0 * (k + 2) * EPS * float(np.sum(w))
    got_value, got_partial, got_curvature = _terms(cost, xs)
    assert np.all(np.abs(got_value - value) <= tol * r * r)
    assert np.all(np.abs(got_partial - partial) <= tol * r)
    assert got_curvature == 2.0 * sum(weights)


def _slot_order(weights, partners):
    """centred's m and c, each a plain loop over the slots in order from +0.0."""
    total, moment = 0.0, 0.0
    for w, y in zip(weights, partners):
        total, moment = total + w, moment + w * y
    m, c = moment / (total if total != 0.0 else 1.0), 0.0
    for w, y in zip(weights, partners):
        c = c + w * (y - m) ** 2
    return m, c


@pytest.mark.parametrize("shape", [(1,), (1, 1), (7,), (3, 5)], ids=["K1", "K11", "KN", "KPN"])
@given(_weights(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_centred_sums_in_slot_order_to_the_bit(shape, weights, seed):
    # a numpy reduction over the slot axis sums pairwise from 8 terms and would round
    # otherwise; the weights come as scalars, and as a (K, 1, ...) array beside them
    rng = np.random.default_rng(seed)
    partners = rng.uniform(-2.0, 2.0, size=(len(weights), *shape))
    want = _slot_order(weights, partners)
    stacked = np.reshape(weights, (-1,) + (1,) * len(shape))
    for given_weights in (weights, stacked):
        got = centred(given_weights, partners, weight_total(given_weights)[1])
        for g, v in zip(got, want):
            assert np.shape(g) == shape and np.array_equal(g, np.broadcast_to(v, shape))
            assert np.array_equal(np.signbit(g), np.signbit(np.broadcast_to(v, shape)))
    if len(shape) == 2:
        # the kernel's refill: a (K, P, 1) table of weights that differ by row, row r
        # keeping its first K - r mod K slots and zeros after, against (K, P, N) partners
        k, p = len(weights), shape[0]
        table = np.array([[weights[s] * (1 + r) if s < k - r % k else 0.0 for r in range(p)]
                          for s in range(k)])[:, :, None]
        got = centred(table, partners, weight_total(table)[1])
        for r in range(p):
            for g, v in zip(got, _slot_order(table[:, r, 0].tolist(), partners[:, r])):
                assert np.shape(g) == shape and np.array_equal(g[r], v)
                assert np.array_equal(np.signbit(g[r]), np.signbit(v))


# ---------------------------------------------------------------- coupling value


def test_coupling_value_refuses_mismatched_marginals():
    pair = QuadraticCost((1.0,))
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
    assert math.isclose(coupling_value(QuadraticCost((1.0,)), [a, b]), want, abs_tol=1e-15)


def test_plan_marginals_exact():
    # against a point mass at p, the quadratic cost integrates the plan's other
    # marginal: its value is that marginal's second moment about p exactly when
    # the marginal is, and two points give its mean
    rng = np.random.default_rng(3)
    a = spread_particles(rng, UNIT, 17)
    b = spread_particles(rng, UNIT, 17)
    pair = QuadraticCost((1.0,))
    for m in (a, b):
        moments = []
        for p in (0.0, 1.0):
            point = ParticleDensity(UNIT, np.full(17, p))
            for marginals in ([m, point], [point, m]):
                value = coupling_value(pair, marginals)
                assert abs(value - np.mean((m.positions - p) ** 2)) <= 1e-12
            moments.append(value)
        assert abs((1.0 + moments[0] - moments[1]) / 2.0 - np.mean(m.positions)) <= 1e-12


def test_zero_cost_plan_value():
    a = atoms(0.1, 0.4)
    b = atoms(0.2, 0.9)
    assert coupling_value(QuadraticCost((0.0,)), [a, b]) == 0.0


# ---------------------------------------------------------------- convexity


def test_convexity_probe_certified_cost():
    rng = np.random.default_rng(51)
    cost = QuadraticCost((1.0,))
    for trial in range(5):
        ta = tuple(spread_particles(rng, UNIT, 6) for _ in range(2))
        tb = tuple(spread_particles(rng, UNIT, 6) for _ in range(2))
        report = convexity_probe(cost, (ta, tb))
        assert report.max_violation <= 0.0


def test_convexity_probe_flags_product_cost():
    # swap coupling: along the interpolation the product x0*x1 rises above
    # the chord by t(1-t)(a-b)^2; the probe refuses the cost, and the LP
    # oracle still measures the violation
    a, b = 0.2, 0.8
    ta = (atoms(a), atoms(b))
    tb = (atoms(b), atoms(a))
    with pytest.raises(InvalidInputError, match="QuadraticCost"):
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
        with pytest.raises(InvalidInputError, match="QuadraticCost"):
            convexity_probe(product_cost(+1.0), ((a, b), (b, a)))


def test_convexity_probe_validates_times():
    ta = (atoms(0.2), atoms(0.4))
    with pytest.raises(InvalidInputError,
                       match=r"^interpolation times \(1\.2,\) not all in \[0, 1\]$"):
        convexity_probe(QuadraticCost((1.0,)), (ta, ta), t_samples=(1.2,))
    with pytest.raises(InvalidInputError,
                       match=r"^interpolation times \(-0\.1,\) not all in \[0, 1\]$"):
        convexity_probe(QuadraticCost((1.0,)), (ta, ta), t_samples=(-0.1,))


def test_convexity_probe_refuses_mismatched_tuples():
    # each tuple alone fills the cost's slots; the two must also share N and domain
    cost = QuadraticCost((1.0,))
    ta = (atoms(0.2), atoms(0.4))
    with pytest.raises(InvalidInputError, match="particle count or domain"):
        convexity_probe(cost, (ta, (atoms(0.2, 0.3), atoms(0.4, 0.5))))
    wide = Domain(0.0, 2.0)
    with pytest.raises(InvalidInputError, match="particle count or domain"):
        convexity_probe(cost, (ta, (atoms(0.2, domain=wide), atoms(0.4, domain=wide))))


def test_convexity_probe_closed_form():
    # W is a quadratic form of the tuple: along (1-t) a + t b it is the chord
    # minus t(1-t) W(b - a), so the report is that curvature times -t(1-t)
    rng = np.random.default_rng(52)
    cost = QuadraticCost((0.7, 1.9))
    ta = tuple(spread_particles(rng, UNIT, 5) for _ in range(3))
    tb = tuple(spread_particles(rng, UNIT, 5) for _ in range(3))
    ts = (0.0, 0.25, 0.5, 0.75, 1.0)
    report = convexity_probe(cost, (ta, tb), t_samples=ts)
    d0, *dk = (b.positions - a.positions for a, b in zip(ta, tb))
    q = np.mean(sum(w * (d0 - d) ** 2 for w, d in zip(cost.weights, dk)))
    assert report.curvature > 0.0
    assert math.isclose(report.curvature, q, rel_tol=16 * EPS)
    assert report.endpoint_values == (coupling_value(cost, ta), coupling_value(cost, tb))
    assert report.violations == tuple(0.0 - t * (1.0 - t) * report.curvature for t in ts)
    assert [math.copysign(1.0, v) for v in report.violations[::4]] == [1.0, 1.0]  # +0.0
    assert report.max_violation == 0.0
    assert convexity_probe(cost, (ta, tb), t_samples=()).max_violation == 0.0


# ---------------------------------------------------------------- frozen slot


def test_semi_coupling_value_matches_manual():
    # rho in slot 0, the frozen tuple in the other slots
    rng = np.random.default_rng(61)
    cost = QuadraticCost((1.0, 2.0))
    rho = spread_particles(rng, UNIT, 8)
    frozen = [spread_particles(rng, UNIT, 8) for _ in range(2)]
    got = coupling_value(cost, [rho] + frozen)
    x1, x2, x3 = rho.positions, frozen[0].positions, frozen[1].positions
    want = float(np.mean((x1 - x2) ** 2 + 2.0 * (x1 - x3) ** 2))
    assert math.isclose(got, want, abs_tol=1e-13)
