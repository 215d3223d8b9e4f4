import math

import numpy as np
import pytest

from jkoflow import Domain, InvalidInputError, ParticleDensity
from jkoflow.cli import ENERGY, EnergySpec
from jkoflow.energy import (
    _gap_gradient,
    energy_gradient,
    energy_value,
    entropy_energy,
    floored_gap_count,
    gap_terms,
    power_law_energy,
    zero_energy,
)

UNIT = Domain(0.0, 1.0)


def midpoint_uniform(domain, n):
    x = domain.lower + (np.arange(n) + 0.5) / n * domain.length
    return ParticleDensity(domain, x)


from helpers import spread_particles
from oracle import gap_forms, mccann_check, per_gap_terms

# exponent x coefficient grid for the closed-form power laws, both signs of c (m - 1)
EXPONENTS = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
COEFFICIENTS = (-2.0, -0.5, 0.0, 0.5, 2.0)


def test_pressure_closed_forms():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 5, size=20)
    assert np.allclose(entropy_energy().p(x), x, atol=1e-15)
    assert power_law_energy(2.0).p(np.array(3.0)) == 9.0
    assert power_law_energy(3.0).p(np.array(2.0)) == 16.0
    assert power_law_energy(0.5, -1.0).p(np.array(4.0)) == 1.0
    assert zero_energy().p is None


def test_pressure_growth_bound_sampled():
    # p(x) <= C (1 + f(x)) with C = max(1, m - 1)
    xs = np.logspace(-6, 6, 400)
    e = entropy_energy()
    assert np.all(e.p(xs) <= 1.0 + xs * np.log(xs) + 1e-9)
    for m in (1.5, 2.0, 3.0):
        e = power_law_energy(m)
        assert np.all(e.p(xs) <= max(1.0, m - 1.0) * (1.0 + xs**m) + 1e-9)


def test_entropy_value_uniform_is_zero():
    # reconstructed density is exactly 1 on every interior gap
    rho = midpoint_uniform(UNIT, 4)
    assert abs(energy_value(entropy_energy(), rho)) <= 1e-12


def test_power_value_uniform_interval():
    # f = s^2, uniform on [0, 2]: exact integral 1/2, discrete value
    # (N-1)/(N*L) from the N-1 interior gaps
    dom = Domain(0.0, 2.0)
    rho = midpoint_uniform(dom, 64)
    v = energy_value(power_law_energy(2.0), rho)
    assert math.isclose(v, 63.0 / 128.0, rel_tol=1e-12)
    assert abs(v - 0.5) <= 0.02


def test_zero_energy_any_rho():
    assert energy_value(zero_energy(), ParticleDensity(UNIT, np.array([0.3]))) == 0.0
    rho = midpoint_uniform(UNIT, 7)
    assert energy_value(zero_energy(), rho) == 0.0
    assert np.all(energy_gradient(zero_energy(), rho) == 0.0)


def test_single_particle_rejected():
    rho = ParticleDensity(UNIT, np.array([0.5]))
    with pytest.raises(InvalidInputError):
        energy_value(entropy_energy(), rho)
    with pytest.raises(InvalidInputError):
        energy_gradient(power_law_energy(2.0), rho)


def test_collision_flooring_is_finite_and_counted():
    e = entropy_energy()
    rho = ParticleDensity(UNIT, np.array([0.2, 0.2, 0.8]))
    v = energy_value(e, rho)
    assert math.isfinite(v)
    assert floored_gap_count(e, rho) == 1


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    energies = [entropy_energy(), power_law_energy(2.0), power_law_energy(3.0)]
    for trial in range(30):
        e = energies[trial % len(energies)]
        rho = spread_particles(rng, UNIT, 12)
        g = energy_gradient(e, rho)
        fd = np.zeros_like(g)
        eps = 1e-6
        for j in range(rho.n):
            xp = rho.positions.copy()
            xm = rho.positions.copy()
            xp[j] += eps
            xm[j] -= eps
            # bypass sortedness validation: evaluate the raw gap formula
            fd[j] = (_raw_value(e, xp) - _raw_value(e, xm)) / (2 * eps)
        denom = max(1.0, float(np.max(np.abs(g))))
        assert np.max(np.abs(fd - g)) / denom <= 1e-5


def _raw_value(e, positions):
    # same formula as energy_value but on a plain position vector
    rho = ParticleDensity(Domain(-10.0, 10.0), np.sort(positions))
    return energy_value(e, rho)


def test_dilation_decreases_energy():
    rng = np.random.default_rng(5)
    dom = Domain(-10.0, 10.0)
    for e in (entropy_energy(), power_law_energy(2.0), power_law_energy(1.7)):
        for _ in range(10):
            rho = spread_particles(rng, Domain(-1.0, 1.0), 9)
            wide = ParticleDensity(dom, rho.positions * 3.0)
            base = ParticleDensity(dom, rho.positions)
            assert energy_value(e, wide) < energy_value(e, base) + 1e-12


def test_mccann_builtin_kinds():
    for e in (entropy_energy(), zero_energy(), *(power_law_energy(m) for m in (1.5, 2.0, 3.0))):
        assert e.displacement_convex
        assert mccann_check(e).satisfied


def test_mccann_rejects_concave_integrand():
    e = power_law_energy(2.0, -1.0)  # f = -s^2
    assert not e.displacement_convex
    rep = mccann_check(e)
    assert not rep.satisfied
    assert rep.first_violation is not None and rep.first_violation > 0


def test_displacement_convex_flag_matches_sampled_oracle():
    # the closed form c (m - 1) >= 0 against 200 sampled dilations, fast
    # diffusion (m < 1, c < 0) included
    for m in EXPONENTS:
        for c in COEFFICIENTS:
            e = power_law_energy(m, c)
            assert e.displacement_convex == (c * (m - 1.0) >= 0.0)
            assert e.displacement_convex == mccann_check(e).satisfied, (m, c)


def test_custom_energy_certificates():
    # p = s f' - f and p' against central differences of the closed forms
    s = np.logspace(-2, 2, 41)
    ds = 1e-6 * s
    for m in EXPONENTS:
        for c in COEFFICIENTS:
            e = power_law_energy(m, c)
            df = (e.f(s + ds) - e.f(s - ds)) / (2 * ds)
            dp = (e.p(s + ds) - e.p(s - ds)) / (2 * ds)
            scale = 1.0 + np.abs(c) * (s**m + s ** (m - 1.0))
            assert np.max(np.abs(e.p(s) - (s * df - e.f(s))) / scale) <= 1e-7, (m, c)
            assert np.max(np.abs(e.dp(s) - dp) / scale) <= 1e-7, (m, c)
    for bad in ((0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (2.0, math.nan), (2.0, math.inf)):
        with pytest.raises(InvalidInputError):
            power_law_energy(*bad)


def test_power_law_entry_builds_the_cached_energy():
    # the CLI's power_law entry is the cached power law, its coefficient 1 unless given
    assert power_law_energy(2) is power_law_energy(2.0, 1.0)
    assert ENERGY.build(EnergySpec("power_law", exponent=2.0)) is power_law_energy(2.0)
    given = ENERGY.build(EnergySpec("power_law", exponent=2.0, coefficient=1.0))
    assert given is power_law_energy(2.0)
    fast = ENERGY.build(EnergySpec("power_law", exponent=0.5, coefficient=-1.0))
    assert fast is power_law_energy(0.5, -1.0)


# each energy with its forms written out: the entropy, porous-medium and fast diffusion
GAP_ENERGIES = {
    "entropy": (entropy_energy(), gap_forms("entropy")),
    "porous": (power_law_energy(2.0), gap_forms("power_law", 2.0)),
    "fast": (power_law_energy(0.5, -1.0), gap_forms("power_law", 0.5, -1.0)),
    "zero": (zero_energy(), gap_forms("zero")),
}


@pytest.mark.parametrize("name", list(GAP_ENERGIES))
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("floored", [False, True], ids=["spread", "floored"])
def test_gap_pass_matches_its_per_gap_reference_to_the_bit(name, rows, floored):
    # the energies, gradient, curvatures and gaps of one gap pass against the same
    # formulas one gap at a time, on [-1, 1]; with "floored", two particles of the last
    # row coincide, so their gap is at the floor and gap_terms hands back no gaps
    energy, forms = GAP_ENERGIES[name]
    rng = np.random.default_rng(33)
    n, length = 24, 2.0
    x = np.sort(rng.uniform(-1.0, 1.0, (rows, n)), axis=1)
    if floored:
        x[-1, 8] = x[-1, 7]
    x = x.ravel()
    energies, grad, curvature, gaps, any_floored = per_gap_terms(forms, x, length, rows)
    assert any_floored == (floored and forms is not None)
    got = gap_terms(energy, x, length, rows)
    assert [a.tobytes() for a in got[:3]] == [a.tobytes() for a in (energies, grad, curvature)]
    if any_floored or forms is None:
        assert got[3] is None
    else:
        assert got[3].tobytes() == gaps.tobytes()
    if forms is not None:
        grad_only, (pass_gaps, *_) = _gap_gradient(energy, x, length, rows)
        assert grad_only.tobytes() == grad.tobytes()
        assert pass_gaps.tobytes() == gaps.tobytes()
