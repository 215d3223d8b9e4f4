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
    NumericalFailureError,
    ParticleDensity,
    StepProblem,
    entropy_energy,
    from_grid,
    grid_from_csv,
    normalized_grid,
    particle_step_density,
    w2_distance,
)
import jkoflow.jko as jko_module
from jkoflow.geometry import accepted
from jkoflow.jko import _check_states, _Rows
from jkoflow.presets import barenblatt_profile, bump_profile, gaussian_profile
from oracle import density_refusal

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


@pytest.mark.parametrize("text, message", [
    ("\n0.0,1.0\n", ":2: expected 3 columns (edge_left, edge_right, value)"),
    ("0.0,1.0\n", ":1: expected 3 columns (edge_left, edge_right, value)"),
    ("0.0,0.5,1.0\n0.5,1.0,abc\n", ":2: non-numeric row"),
    ("0.0,0.5,x\n0.5,1.0,1.0\n", ":1: non-numeric row"),
    ("edge_left,edge_right,value\n", ": no data rows"),
    ("0.5,0.5,1.0\n", ":1: edge_right must exceed edge_left"),
    ("0.0,0.5,-1.0\n0.5,1.0,3.0\n", ":1: negative value"),
    ("0.0,1.0,2.0\n", ": grid mass 2.0 too far from 1 (normalize the file first)"),
    ("0.0,2.0,0.5\n", "grid support must be contained in the requested domain"),
    ("0.0,1.0,1.0\n1.0,inf,0.0\n", ":2: non-finite value"),
    ("0.0,0.5,1.0\n0.5,1.0,nan\n", ":2: non-finite value"),
    ("0.0,0.5,1.0\n0.5,1.0,1e999\n", ":2: non-finite value"),
], ids=["blank-row-counted", "column-count", "non-numeric", "non-numeric-first-row",
        "no-data", "empty-cell", "negative", "mass", "outside-domain", "inf-edge", "nan-value",
        "overflowing-value"])
def test_grid_from_csv_refusals(tmp_path, text, message):
    # each refusal of a grid file, as a scenario's csv initial meets it on [0, 1]; the
    # file's own refusals name it, and a blank row is skipped but keeps its line number
    f = tmp_path / "grid.csv"
    f.write_text(text)
    if message.startswith(":"):
        message = f"{f}{message}"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        from_grid(grid_from_csv(f), 8, domain=UNIT)


@pytest.mark.parametrize("lower, upper, message", [
    ("0", 1.0, "domain bounds must be real numbers, got ['0', 1.0]"),
    (0.0, math.inf, "domain bounds must be finite"),
    (1.0, 0.0, "domain needs lower < upper, got [1.0, 0.0]"),
], ids=["not-a-number", "infinite", "reversed"])
def test_domain_refusals(lower, upper, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        Domain(lower, upper)


def test_grid_from_csv_header_after_a_blank_line(tmp_path):
    # the header is the first non-blank row, wherever that is
    f = tmp_path / "grid.csv"
    f.write_text("\nedge_left,edge_right,value\n0.0,0.5,1.0\n0.5,1.0,1.0\n")
    assert grid_from_csv(f).cell_edges.tolist() == [0.0, 0.5, 1.0]


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


_ULP_BELOW, _ULP_ABOVE = np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0)


def test_particle_rows_checks_each_row_once(monkeypatch):
    # the step kernel checks its solved block with the constructor's own
    # predicate, in one pass that builds no density, and checks rows apart:
    # row 0 ends above row 1's start, which a check of the flat vector would refuse
    prevs = [ParticleDensity(UNIT, x) for x in ([0.3, 0.5, 0.9], [0.05, 0.2, 0.4])]
    problems = [StepProblem(prev=p, energy=entropy_energy(), h=1e-2) for p in prevs]
    builds, validate = [], ParticleDensity.__post_init__
    monkeypatch.setattr(ParticleDensity, "__post_init__",
                        lambda self: builds.append(self) or validate(self))
    checks = []
    monkeypatch.setattr(jko_module, "accepted",
                        lambda *a: checks.append(a) or accepted(*a))
    x = _Rows(problems).step().x
    assert x.shape == (2, 3) and x[0, -1] > x[1, 0]
    assert builds == [] and len(checks) == 1
    assert accepted(UNIT, x).tolist() == [True, True]


@pytest.mark.parametrize("row, j, value, message", [
    (1, 1, np.nan, "finite"),
    (0, 2, np.inf, "finite"),
    (1, 0, 0.6, "sorted"),
    (0, 1, 0.05, "sorted"),
    (1, 0, _ULP_BELOW, "lie in"),
    (0, 2, _ULP_ABOVE, "lie in"),
], ids=["nan", "inf", "unsorted-first", "unsorted-inner", "ulp-below", "ulp-above"])
def test_particle_rows_refuses_a_row_as_the_solver_failure(monkeypatch, row, j, value, message):
    # the constructor refuses the entry as bad input; planted in a solved row
    # of the step kernel, the same refusal is that row's numerical failure
    block = np.array([[0.1, 0.2, 0.9], [0.05, 0.5, 1.0]])
    problems = [StepProblem(prev=ParticleDensity(UNIT, x), energy=entropy_energy(), h=1e-2)
                for x in block]
    block[row, j] = value
    with pytest.raises(InvalidInputError, match=message):
        ParticleDensity(UNIT, block[row])
    minimize, residuals = jko_module._minimize, []

    def planted(rows, x, at):
        x, at, res, iters = minimize(rows, x, at)
        residuals.extend(res)
        return block.reshape(-1), at, res, iters

    monkeypatch.setattr(jko_module, "_minimize", planted)
    with pytest.raises(NumericalFailureError) as info:
        _Rows(problems).step()
    assert re.match("step solver made a state that is not a density: positions must .*"
                    + message, str(info.value))
    assert info.value.row == row and info.value.residual == residuals[row]


_ENTRIES = st.one_of(st.floats(-0.5, 1.5), st.sampled_from(
    [0.0, 0.5, 1.0, _ULP_BELOW, _ULP_ABOVE, np.nan, np.inf, -np.inf]))


@given(st.lists(_ENTRIES, min_size=1, max_size=8), st.booleans(), st.integers(0, 8),
       st.integers(1, 4), st.integers(0, 3))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_constructor_refuses_what_the_reference_refuses(values, ordered, swap, rows, row):
    # ties, NaN, infinities and ends one ulp outside the box; sorted (NaN
    # last) or not, with one pair of neighbours swapped or none.  The step
    # kernel's block check refuses the same, planted in any row of P among
    # accepted ones, as that row's numerical failure
    x = np.sort(values) if ordered else np.array(values)
    if swap + 1 < x.size:
        x[[swap, swap + 1]] = x[[swap + 1, swap]]
    expected = density_refusal(UNIT, x)
    row %= rows
    block = np.tile(np.linspace(0.0, 1.0, x.size), (rows, 1))
    block[row] = x
    res = [0.25 * (r + 1) for r in range(rows)]
    if expected is None:
        assert np.array_equal(ParticleDensity(UNIT, x).positions, x)
        assert accepted(UNIT, block).all()
        _check_states(UNIT, block, res)
    else:
        with pytest.raises(InvalidInputError, match=f"^{re.escape(expected)}$"):
            ParticleDensity(UNIT, x)
        assert np.flatnonzero(~accepted(UNIT, block)).tolist() == [row]
        with pytest.raises(NumericalFailureError, match="^step solver made a state that is "
                           f"not a density: {re.escape(expected)}$") as info:
            _check_states(UNIT, block, res)
        assert (info.value.row, info.value.residual) == (row, res[row])
