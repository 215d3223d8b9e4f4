import math

import numpy as np
import pytest

from jkoflow import Domain, InvalidInputError, ParticleDensity
from jkoflow.energy import (
    custom_energy,
    energy_gradient,
    energy_value,
    entropy_energy,
    floored_gap_count,
    mccann_check,
    power_law_energy,
    pressure,
    zero_energy,
)

UNIT = Domain(0.0, 1.0)


def midpoint_uniform(domain, n):
    x = domain.lower + (np.arange(n) + 0.5) / n * domain.length
    return ParticleDensity(domain, x)


from helpers import spread_particles


def test_pressure_closed_forms():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 5, size=20)
    assert np.allclose(pressure(entropy_energy(), x), x, atol=1e-15)
    assert pressure(power_law_energy(2.0), 3.0) == 9.0
    assert pressure(power_law_energy(3.0), 2.0) == 16.0
    assert pressure(entropy_energy(), 0.0) == 0.0
    assert pressure(zero_energy(), 4.2) == 0.0


def test_pressure_growth_bound_sampled():
    # p(x) <= C (1 + f(x)) with C = max(1, m - 1)
    xs = np.logspace(-6, 6, 400)
    e = entropy_energy()
    assert np.all(pressure(e, xs) <= e.pressure_constant * (1.0 + xs * np.log(xs)) + 1e-9)
    for m in (1.5, 2.0, 3.0):
        e = power_law_energy(m)
        assert e.pressure_constant == max(1.0, m - 1.0)
        assert np.all(pressure(e, xs) <= e.pressure_constant * (1.0 + xs**m) + 1e-9)


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
    assert mccann_check(entropy_energy()).satisfied
    for m in (1.5, 2.0, 3.0):
        assert mccann_check(power_law_energy(m)).satisfied
    assert mccann_check(zero_energy()).satisfied


def test_mccann_rejects_concave_integrand():
    e = custom_energy(lambda s: -(s**2), lambda s: -2.0 * s)
    rep = mccann_check(e)
    assert not rep.satisfied
    assert rep.first_violation is not None and rep.first_violation > 0


def test_custom_energy_certificates():
    e = custom_energy(lambda s: s**2, lambda s: 2.0 * s)
    assert e.pressure_constant == pytest.approx(1.0, rel=1e-6)
    xs = np.logspace(-3, 3, 50)
    assert np.all(pressure(e, xs) <= e.pressure_constant * (1 + xs**2) + 1e-9)
    with pytest.raises(InvalidInputError):
        custom_energy(lambda s: s + 1.0, lambda s: np.ones_like(s))  # f(0) != 0


def test_custom_energy_matches_power_law():
    e_custom = custom_energy(lambda s: s**2, lambda s: 2.0 * s)
    e_builtin = power_law_energy(2.0)
    rho = midpoint_uniform(Domain(0.0, 2.0), 16)
    assert math.isclose(energy_value(e_custom, rho), energy_value(e_builtin, rho), rel_tol=1e-12)
    assert np.allclose(energy_gradient(e_custom, rho), energy_gradient(e_builtin, rho), atol=1e-12)
