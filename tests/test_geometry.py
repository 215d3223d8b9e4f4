import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jkoflow import (
    Domain,
    GridDensity,
    InvalidInputError,
    ParticleDensity,
    from_grid,
    grid_from_csv,
    normalized_grid,
    particle_step_density,
    product_w2,
    w2_distance,
)
from jkoflow.presets import barenblatt_profile, bump_profile, gaussian_profile

UNIT = Domain(0.0, 1.0)


def uniform_particles(domain, n):
    g = GridDensity(np.array([domain.lower, domain.upper]), np.array([1.0 / domain.length]))
    return from_grid(g, n)


def test_from_grid_uniform_midpoints():
    got = uniform_particles(UNIT, 2).positions
    assert np.allclose(got, [0.25, 0.75], atol=1e-14)
    got = uniform_particles(Domain(0.0, 2.0), 4).positions
    assert np.allclose(got, [0.25, 0.75, 1.25, 1.75], atol=1e-14)


def test_from_grid_two_cell_closed_form():
    # mass 0.5 on [0, 0.5] and 0.5 on [0.5, 2]; CDF inverted per cell:
    # u=0.25 -> 0.25/1.0, u=0.75 -> 0.5 + 0.25/(1/3)
    g = GridDensity(np.array([0.0, 0.5, 2.0]), np.array([1.0, 1.0 / 3.0]))
    got = from_grid(g, 2).positions
    assert np.allclose(got, [0.25, 1.25], atol=1e-14)


def test_from_grid_skips_zero_cells():
    g = GridDensity(np.array([0.0, 0.25, 0.75, 1.0]), np.array([2.0, 0.0, 2.0]))
    got = from_grid(g, 4).positions
    # each half-cell of the support carries mass 1/4
    assert np.allclose(got, [0.0625, 0.1875, 0.8125, 0.9375], atol=1e-14)


def test_from_grid_rejects_zero_mass():
    with pytest.raises(InvalidInputError):
        normalized_grid(np.array([0.0, 1.0]), np.array([0.0]))


def test_grid_roundtrip_on_uniform_spacing():
    # Midpoint-edge histogram then CDF inversion recovers the particles
    # exactly when gaps are uniform (each cell is centered on its particle).
    rng = np.random.default_rng(3)
    for n in (2, 5, 33):
        a, b = np.sort(rng.uniform(-5, 5, size=2))
        dom = Domain(a, b)
        rho = uniform_particles(dom, n)
        x = rho.positions
        back = from_grid(particle_step_density(rho), n)
        assert np.max(np.abs(back.positions - x)) <= 1e-12 * dom.length


def test_w2_translation():
    dom = Domain(0.0, 2.0)
    g = GridDensity(np.array([0.0, 1.0]), np.array([1.0]))
    a = from_grid(g, 16, domain=dom)
    b = ParticleDensity(dom, a.positions + 1.0)
    assert math.isclose(w2_distance(a, b), 1.0, abs_tol=1e-13)


def test_w2_uniform_vs_stretched_quantile_integral():
    # q1(u) = u-ish steps on [0,1], q2 = 2*q1; the piecewise-constant
    # quantile integral is (1/N^3) * sum (j - 1/2)^2, -> 1/3 as N grows.
    dom = Domain(0.0, 2.0)
    for n in (4, 64, 512):
        a = ParticleDensity(dom, (np.arange(n) + 0.5) / n)
        b = ParticleDensity(dom, 2.0 * (np.arange(n) + 0.5) / n)
        exact = np.sum(((np.arange(n) + 0.5) / n) ** 2) / n
        assert math.isclose(w2_distance(a, b) ** 2, exact, rel_tol=1e-13)
    assert abs(exact - 1.0 / 3.0) < 1e-5


def test_w2_rejects_mismatch():
    a = uniform_particles(UNIT, 4)
    b = uniform_particles(UNIT, 5)
    with pytest.raises(InvalidInputError):
        w2_distance(a, b)
    c = uniform_particles(Domain(0.0, 2.0), 4)
    with pytest.raises(InvalidInputError):
        w2_distance(a, c)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_w2_metric_axioms(n, seed):
    rng = np.random.default_rng(seed)
    rhos = [ParticleDensity(UNIT, np.sort(rng.uniform(0, 1, size=n))) for _ in range(3)]
    a, b, c = rhos
    assert w2_distance(a, a) == 0.0
    assert math.isclose(w2_distance(a, b), w2_distance(b, a), rel_tol=1e-15)
    assert w2_distance(a, b) <= w2_distance(a, c) + w2_distance(c, b) + 1e-10


def test_product_w2():
    a1 = uniform_particles(UNIT, 8)
    a2 = ParticleDensity(UNIT, a1.positions * 0.5)
    b1 = ParticleDensity(UNIT, np.clip(a1.positions + 0.1, 0, 1))
    d1 = w2_distance(a1, b1)
    d2 = w2_distance(a2, a2)
    assert math.isclose(product_w2((a1, a2), (b1, a2)), math.hypot(d1, d2), rel_tol=1e-14)
    with pytest.raises(InvalidInputError):
        product_w2((a1,), (b1, a2))


def test_particle_density_validation():
    with pytest.raises(InvalidInputError):
        ParticleDensity(UNIT, np.array([0.5, 0.4]))
    with pytest.raises(InvalidInputError):
        ParticleDensity(UNIT, np.array([-0.1, 0.4]))
    with pytest.raises(InvalidInputError):
        ParticleDensity(UNIT, np.array([0.1, np.nan]))
    # ties are fine
    ParticleDensity(UNIT, np.array([0.4, 0.4, 0.4]))


def test_grid_density_validation():
    with pytest.raises(InvalidInputError):
        GridDensity(np.array([0.0, 1.0]), np.array([0.9]))  # mass != 1
    with pytest.raises(InvalidInputError):
        GridDensity(np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(InvalidInputError):
        GridDensity(np.array([0.0, 1.0]), np.array([-1.0]))


def test_grid_from_csv(tmp_path):
    f = tmp_path / "grid.csv"
    f.write_text("edge_left,edge_right,value\n0.0,0.5,1.0\n0.5,1.0,1.0\n")
    g = grid_from_csv(f)
    assert g.n_cells == 2
    assert np.allclose(g.cell_values, [1.0, 1.0])

    bad = tmp_path / "gap.csv"
    bad.write_text("0.0,0.4,1.0\n0.5,1.0,1.0\n")
    with pytest.raises(InvalidInputError):
        grid_from_csv(bad)

    zero = tmp_path / "zero.csv"
    zero.write_text("0.0,1.0,0.0\n")
    with pytest.raises(InvalidInputError):
        grid_from_csv(zero)


def _elementwise_mass(values, edges):
    return math.fsum(float(v) * float(w) for v, w in zip(values, np.diff(edges)))


def test_grid_mass_matches_elementwise_fsum(tmp_path):
    # the products are the same IEEE products and fsum rounds exactly, so
    # the array form must give the loop's mass to the bit
    grids = [gaussian_profile(UNIT, 0.3, 0.1), bump_profile(UNIT, 0.7, 0.25),
             barenblatt_profile(0.01, Domain(-1.0, 1.0))]
    path = tmp_path / "grid.csv"
    edges, values = grids[0].cell_edges, grids[0].cell_values * (1.0 + 1e-7)
    rows = zip(edges.tolist(), edges[1:].tolist(), values.tolist())
    path.write_text("".join(f"{a!r},{b!r},{v!r}\n" for a, b, v in rows))
    from_csv = grid_from_csv(path)
    assert np.array_equal(from_csv.cell_values, values / _elementwise_mass(values, edges))
    for grid in grids + [from_csv]:
        raw = 3.0 * grid.cell_values
        mass = _elementwise_mass(raw, grid.cell_edges)
        assert np.array_equal(normalized_grid(grid.cell_edges, raw).cell_values, raw / mass)
        with pytest.raises(InvalidInputError, match=re.escape(f"integrate to 1, got {mass!r}")):
            GridDensity(grid.cell_edges, raw)
