import math

import numpy as np
import pytest

from jkoflow import (
    CostFunction,
    Coupling,
    Domain,
    FlowConfig,
    InvalidInputError,
    ParticleDensity,
    NumericalFailureError,
    PopulationSpec,
    barenblatt_profile,
    barycenter3_preset,
    bump_profile,
    TestFunction,
    bump_test_function,
    contraction_probe,
    custom_energy,
    diagnostics_csv,
    entropy_energy,
    estimate_report,
    from_grid,
    gaussian_profile,
    heat_flow_preset,
    identity_preset,
    l1_grid_distance,
    particle_step_density,
    porous_medium_preset,
    power_law_energy,
    quadratic_pairwise_cost,
    run_flow,
    solve_step,
    trajectory_csv,
    weak_form_residual,
    zero_energy,
    PRESETS,
)
from jkoflow.flow import _step_problem
from helpers import spread_particles

UNIT = Domain(0.0, 1.0)


def small_heat_config(n=32, h=1e-2, n_steps=20, centers=(0.3, 0.7)):
    a = from_grid(gaussian_profile(UNIT, centers[0], 0.1), n)
    b = from_grid(gaussian_profile(UNIT, centers[1], 0.1), n)
    return FlowConfig(
        populations=(
            PopulationSpec(initial=a, energy=entropy_energy()),
            PopulationSpec(initial=b, energy=entropy_energy()),
        ),
        h=h,
        n_steps=n_steps,
    )


def attract_config(h=0.05, n_steps=10):
    # zero energy + rank-diagonal pairwise cost: the objective separates
    # across ranks, so each particle pair follows the two-body recursion
    dom = UNIT
    a = ParticleDensity(dom, np.array([0.2, 0.3]))
    b = ParticleDensity(dom, np.array([0.8, 0.9]))
    pair = quadratic_pairwise_cost(dom)
    return FlowConfig(
        populations=(
            PopulationSpec(initial=a, energy=zero_energy(),
                           coupling=Coupling(pair, (0, 1))),
            PopulationSpec(initial=b, energy=zero_energy(),
                           coupling=Coupling(pair, (1, 0))),
        ),
        h=h,
        n_steps=n_steps,
        tol=1e-13,
    )


# --------------------------------------------------------------- step density


def test_step_density_uniform_particles_exact():
    n = 8
    rho = ParticleDensity(UNIT, (np.arange(n) + 0.5) / n)
    grid = particle_step_density(rho)
    assert np.allclose(grid.cell_values, 1.0, atol=1e-14)
    uniform = particle_step_density(rho)
    assert l1_grid_distance(grid, uniform) == 0.0


def test_step_density_merges_collisions():
    rho = ParticleDensity(UNIT, np.array([0.2, 0.2, 0.2, 0.8]))
    grid = particle_step_density(rho)
    # cells [0, 0.2], [0.2, 0.5], [0.5, 1] with masses 1/4 or 3/4 split
    assert math.isclose(
        math.fsum(v * w for v, w in zip(grid.cell_values, np.diff(grid.cell_edges))),
        1.0, abs_tol=1e-12,
    )
    assert np.all(np.diff(grid.cell_edges) > 0)


def test_l1_distance_hand_example():
    from jkoflow import GridDensity

    a = GridDensity(np.array([0.0, 0.5, 1.0]), np.array([2.0, 0.0]))
    b = GridDensity(np.array([0.0, 1.0]), np.array([1.0]))
    # |2-1|*0.5 + |0-1|*0.5 = 1
    assert math.isclose(l1_grid_distance(a, b), 1.0, abs_tol=1e-14)


# -------------------------------------------------------------------- presets


def test_presets_construct():
    for name, make in PRESETS.items():
        cfg = make()
        assert len(cfg.populations) >= 2
        assert cfg.h > 0 and cfg.n_steps >= 1


def test_barenblatt_profile_properties():
    dom = Domain(-1.0, 1.0)
    g = barenblatt_profile(0.01, dom)
    c = 3.0 ** (1.0 / 3.0) / 4.0
    radius = math.sqrt(12.0 * c) * 0.01 ** (1.0 / 3.0)
    mids = 0.5 * (g.cell_edges[:-1] + g.cell_edges[1:])
    inside = np.abs(mids) < radius - 2e-3
    outside = np.abs(mids) > radius + 2e-3
    assert np.all(g.cell_values[inside] > 0)
    assert np.all(g.cell_values[outside] == 0)
    with pytest.raises(InvalidInputError):
        barenblatt_profile(2.0, dom)  # support would overflow the domain
    with pytest.raises(InvalidInputError):
        barenblatt_profile(0.0, dom)


def test_barenblatt_profile_centred_on_the_domain_midpoint():
    t = 1e-3
    g = barenblatt_profile(t, Domain(0.0, 1.0))
    c = 3.0 ** (1.0 / 3.0) / 4.0
    radius = math.sqrt(12.0 * c) * t ** (1.0 / 3.0)
    mids = 0.5 * (g.cell_edges[:-1] + g.cell_edges[1:])
    # symmetric about 0.5, with the whole support inside the domain
    assert np.allclose(g.cell_values, g.cell_values[::-1], rtol=1e-9, atol=0.0)
    assert np.all(g.cell_values[np.abs(mids - 0.5) > radius] == 0.0)
    # the closed form already has unit mass, so normalizing the grid leaves its peak
    assert math.isclose(float(np.sum(g.cell_values * np.diff(g.cell_edges))), 1.0)
    assert math.isclose(float(np.max(g.cell_values)), c * t ** (-1.0 / 3.0), rel_tol=1e-3)


# ------------------------------------------------------------------- dynamics


def test_identity_flow_is_inert():
    traj = run_flow(identity_preset())
    for state in traj.states:
        for i in range(2):
            assert np.array_equal(
                state[i].positions, traj.states[0][i].positions
            )
    for d in traj.diagnostics:
        assert d.energy == 0.0 and d.coupling == 0.0 and d.w2_sq == 0.0
        assert d.iterations == 0


def test_mutual_attraction_closed_form():
    # populations pulling on each other: each implicit step maps every
    # rank-paired gap d to d (1 - 2h) / (1 + 2h)
    h = 0.05
    cfg = attract_config(h=h, n_steps=10)
    traj = run_flow(cfg)
    gaps0 = cfg.populations[1].initial.positions - cfg.populations[0].initial.positions
    mids0 = cfg.populations[1].initial.positions + cfg.populations[0].initial.positions
    ratio = (1 - 2 * h) / (1 + 2 * h)
    for k, state in zip(traj.steps, traj.states):
        gaps = state[1].positions - state[0].positions
        assert np.max(np.abs(gaps - gaps0 * ratio**k)) <= 1e-10
        mids = state[1].positions + state[0].positions
        assert np.max(np.abs(mids - mids0)) <= 1e-10  # midpoints conserved


def test_heat_flow_energy_descends():
    traj = run_flow(small_heat_config())
    for i in range(2):
        series = [d.energy for d in traj.diagnostics if d.population == i]
        assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))
        assert series[0] <= traj.config.populations[i].initial.n  # sanity


def test_run_flow_mixes_energies_and_particle_counts():
    # entropy, power-law and zero energies in one joint solve, a coupled pair
    # among them, and an uncoupled population with its own N solved apart
    rng = np.random.default_rng(31)
    pair = quadratic_pairwise_cost(UNIT)
    config = FlowConfig(
        populations=(
            PopulationSpec(spread_particles(rng, UNIT, 16), entropy_energy(),
                           Coupling(pair, (0, 1))),
            PopulationSpec(spread_particles(rng, UNIT, 16), power_law_energy(2.0),
                           Coupling(pair, (1, 0))),
            PopulationSpec(spread_particles(rng, UNIT, 24), entropy_energy()),
            PopulationSpec(spread_particles(rng, UNIT, 16), zero_energy()),
        ),
        h=2e-2,
        n_steps=4,
    )
    traj = run_flow(config)
    assert [d.population for d in traj.diagnostics] == [0, 1, 2, 3] * 4
    for k in range(1, 5):
        rows = traj.diagnostics[4 * (k - 1):4 * k]
        for i, d in enumerate(rows):
            # the same step taken one population at a time from the same state
            problem = _step_problem(config, traj.states[k - 1], i)
            alone = solve_step(problem)
            got = traj.states[k][i].positions
            tol = problem.default_tol()
            assert d.residual <= tol
            assert float(np.max(np.abs(got - alone.rho.positions))) <= 2.0 * tol
            if i == 2:  # alone in its group: the one-row solve, to the bit
                assert np.array_equal(got, alone.rho.positions)
                assert d.iterations == alone.iterations
        assert len({rows[i].iterations for i in (0, 1, 3)}) == 1
        assert np.array_equal(traj.states[k][3].positions, config.populations[3].initial.positions)


def test_run_flow_names_the_population_that_fails():
    # population 2 climbs its objective (its energy's derivative has the wrong
    # sign); it shares its joint solve with population 0
    rng = np.random.default_rng(32)
    wrong = custom_energy(lambda x: 1e6 * x * x, lambda x: -2e6 * x)
    config = FlowConfig(
        populations=(
            PopulationSpec(spread_particles(rng, UNIT, 8), entropy_energy()),
            PopulationSpec(spread_particles(rng, UNIT, 12), entropy_energy()),
            PopulationSpec(spread_particles(rng, UNIT, 8), wrong),
        ),
        h=0.05,
        n_steps=3,
    )
    with pytest.raises(NumericalFailureError, match=r"^step 1, population 2: step solver") as info:
        run_flow(config)
    assert info.value.residual > 1e-9 * math.sqrt(8)


def test_recording_thinned_but_diagnostics_full():
    cfg = FlowConfig(
        populations=small_heat_config(n=16).populations,
        h=1e-2, n_steps=7, record_every=3,
    )
    traj = run_flow(cfg)
    assert traj.steps == (0, 3, 6, 7)
    assert len(traj.diagnostics) == 7 * 2
    assert traj.times[-1] == pytest.approx(0.07)


def test_flow_validation():
    a = from_grid(gaussian_profile(UNIT, 0.5, 0.1), 8)
    spec = PopulationSpec(initial=a, energy=entropy_energy())
    with pytest.raises(InvalidInputError):
        FlowConfig(populations=(spec,), h=1e-2, n_steps=1)
    with pytest.raises(InvalidInputError):
        FlowConfig(populations=(spec, spec), h=0.0, n_steps=1)
    with pytest.raises(InvalidInputError):
        FlowConfig(populations=(spec, spec), h=1e-2, n_steps=0)
    with pytest.raises(InvalidInputError):
        FlowConfig(populations=(spec, spec), h=1e-2, n_steps=1, record_every=0)
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="tol"):
            FlowConfig(populations=(spec, spec), h=1e-2, n_steps=1, tol=tol)
    other_domain = PopulationSpec(
        initial=ParticleDensity(Domain(0.0, 2.0), np.array([0.5])),
        energy=zero_energy(),
    )
    with pytest.raises(InvalidInputError):
        FlowConfig(populations=(spec, other_domain), h=1e-2, n_steps=1)
    lone = PopulationSpec(
        initial=ParticleDensity(UNIT, np.array([0.5])), energy=zero_energy()
    )
    with pytest.raises(InvalidInputError):
        FlowConfig(populations=(spec, lone), h=1e-2, n_steps=1)
    uncertified = CostFunction(
        arity=2,
        fn=lambda xs: xs[..., 0] * xs[..., 1],
        partial_fns=(lambda xs: xs[..., 1], lambda xs: xs[..., 0]),
        curvature_fns=(lambda xs: np.zeros(xs.shape[:-1]),) * 2,
        partial_bound=1.0,
    )
    bad = PopulationSpec(initial=a, energy=entropy_energy(),
                         coupling=Coupling(uncertified, (0, 1)))
    with pytest.raises(InvalidInputError):
        FlowConfig(populations=(bad, spec), h=1e-2, n_steps=1)
    pair = quadratic_pairwise_cost(UNIT)
    not_member = PopulationSpec(initial=a, energy=entropy_energy(),
                                coupling=Coupling(pair, (1, 1)))
    with pytest.raises(InvalidInputError):
        FlowConfig(populations=(not_member, spec), h=1e-2, n_steps=1)
    out_of_range = PopulationSpec(initial=a, energy=entropy_energy(),
                                  coupling=Coupling(pair, (0, 5)))
    with pytest.raises(InvalidInputError):
        FlowConfig(populations=(out_of_range, spec), h=1e-2, n_steps=1)
    mismatched = PopulationSpec(
        initial=from_grid(gaussian_profile(UNIT, 0.5, 0.1), 9),
        energy=entropy_energy(), coupling=Coupling(pair, (0, 1)),
    )
    with pytest.raises(InvalidInputError):
        FlowConfig(populations=(mismatched, spec), h=1e-2, n_steps=1)


# ------------------------------------------------------------------ estimates


def test_estimates_hold_uncoupled():
    report = estimate_report(run_flow(small_heat_config()))
    assert report.satisfied
    for row in report.populations:
        assert row.f_max <= row.f_max_bound + 1e-9 * (1 + abs(row.f_max_bound))
        assert row.sum_w2_sq <= row.sum_w2_sq_bound + 1e-9


def test_estimates_hold_coupled():
    cfg = barycenter3_preset(n=24, h=1e-2, n_steps=15)
    report = estimate_report(run_flow(cfg))
    assert report.satisfied
    # the coupled bound actually uses the partial bound constant
    assert report.populations[0].f_max_bound > report.populations[0].f_initial


# ---------------------------------------------------------------- contraction


def test_contraction_passes_for_heat_flow():
    cfg = small_heat_config(n=32, h=1e-2, n_steps=15)
    shifted = (
        from_grid(gaussian_profile(UNIT, 0.4, 0.12), 32),
        from_grid(gaussian_profile(UNIT, 0.6, 0.12), 32),
    )
    report = contraction_probe(run_flow(cfg), shifted)
    assert report.status == "PASS"
    assert report.max_increase <= 1e-3
    assert len(report.distances) == 16


def test_contraction_skipped_without_displacement_convexity():
    # r * sqrt(1/r) = sqrt(r) increases, so the McCann check fails, while the
    # steps stay solvable at small h; the probe needs the flow computed first
    concave = custom_energy(lambda x: np.sqrt(x), lambda x: 0.5 / np.sqrt(x))
    a = from_grid(gaussian_profile(UNIT, 0.4, 0.1), 16)
    cfg = FlowConfig(
        populations=(
            PopulationSpec(initial=a, energy=concave),
            PopulationSpec(initial=a, energy=entropy_energy()),
        ),
        h=1e-4, n_steps=3,
    )
    report = contraction_probe(run_flow(cfg), (a, a))
    assert report.status == "SKIPPED"
    assert "McCann check failed" in report.reason


def test_contraction_validates_initials():
    cfg = small_heat_config(n=16, n_steps=2)
    with pytest.raises(InvalidInputError):
        contraction_probe(run_flow(cfg), (cfg.populations[0].initial,))


# ------------------------------------------------------------------ weak form


def test_bump_test_function_bounds():
    phi = bump_test_function(0.5, 0.3, 1.0)
    x = np.linspace(0, 1, 20001)
    dx = phi.dx(0.0, x)
    assert float(np.max(np.abs(dx))) <= phi.sup_dx + 1e-12
    fd2 = np.diff(phi.value(0.0, x), 2) / (x[1] - x[0]) ** 2
    assert float(np.max(np.abs(fd2))) <= phi.sup_dxx + 1e-6
    assert phi.value(1.0, np.array([0.5]))[0] == 0.0  # vanishes at the cutoff
    assert phi.value(0.0, np.array([0.85]))[0] == 0.0  # and outside the bump


def test_weak_form_identity_flow_vanishes():
    traj = run_flow(identity_preset())
    phi = bump_test_function(0.5, 0.35, 0.4)
    for i in range(2):
        report = weak_form_residual(traj, phi, i)
        # the assembly telescopes exactly for frozen states; only float
        # summation noise remains
        assert abs(report.residual) <= 1e-12
        assert report.satisfied


def test_weak_form_heat_flow_within_bound():
    traj = run_flow(small_heat_config(n=48, h=5e-3, n_steps=40))
    phi = bump_test_function(0.5, 0.4, 0.15)
    for i in range(2):
        report = weak_form_residual(traj, phi, i)
        assert report.satisfied
        assert report.bound < 1.0  # the bound itself must be informative


def test_weak_form_constant_test_function_vanishes():
    # every gradient term carries a zero factor and the mass terms cancel
    # exactly: unit weights never change
    traj = run_flow(small_heat_config(n=16, n_steps=6))
    const = TestFunction(
        value=lambda t, x: np.ones_like(x),
        dx=lambda t, x: np.zeros_like(x),
        sup_dx=0.0,
        sup_dxx=0.0,
    )
    for i in range(2):
        report = weak_form_residual(traj, const, i)
        assert report.residual == 0.0
        assert report.satisfied


def test_bump_shares_spatial_factors_only_at_unchanging_positions():
    # the weak form takes the bump's value twice and dx once at each state's
    # read-only positions, which share one evaluation of the spatial factors;
    # writeable copies are evaluated afresh, and the reports agree to the bit
    traj = run_flow(barycenter3_preset(n=16, n_steps=5))
    bump = bump_test_function(0.5, 0.3, 1.0)
    fresh = TestFunction(
        value=lambda t, x: bump.value(t, np.array(x)),
        dx=lambda t, x: bump.dx(t, np.array(x)),
        sup_dx=bump.sup_dx,
        sup_dxx=bump.sup_dxx,
    )
    for i in range(3):
        assert weak_form_residual(traj, bump, i) == weak_form_residual(traj, fresh, i)
    x = np.linspace(0.3, 0.7, 5)
    view = x[:]
    view.setflags(write=False)  # read-only, but its owner can still change
    for at in (x, view):
        before = bump.value(0.2, at)
        x += 0.05
        assert np.array_equal(bump.value(0.2, at), bump.value(0.2, at.copy()))
        assert not np.array_equal(bump.value(0.2, at), before)


def test_weak_form_residual_shrinks_under_refinement():
    # doubling N while halving h must cut the defect by at least 1.5x;
    # measured decay is ~2x per level
    phi = bump_test_function(0.5, 0.35, 0.2)
    coarse = weak_form_residual(
        run_flow(heat_flow_preset(n=48, h=5e-3, n_steps=80)), phi, 0
    )
    fine = weak_form_residual(
        run_flow(heat_flow_preset(n=96, h=2.5e-3, n_steps=160)), phi, 0
    )
    assert abs(coarse.residual) >= 1.5 * abs(fine.residual)
    assert coarse.bound >= 1.5 * fine.bound


def test_weak_form_requires_full_recording():
    cfg = FlowConfig(
        populations=small_heat_config(n=16).populations,
        h=1e-2, n_steps=4, record_every=2,
    )
    traj = run_flow(cfg)
    phi = bump_test_function(0.5, 0.3, 0.02)
    with pytest.raises(InvalidInputError):
        weak_form_residual(traj, phi, 0)
    full = run_flow(small_heat_config(n=16, n_steps=4))
    with pytest.raises(InvalidInputError):
        weak_form_residual(full, phi, 5)


# ------------------------------------------------------------------ CSV files


def test_csv_outputs_deterministic(tmp_path):
    traj = run_flow(identity_preset(n=8, n_steps=3))
    p1 = tmp_path / "traj_a.csv"
    p2 = tmp_path / "traj_b.csv"
    trajectory_csv(traj, 0, p1)
    trajectory_csv(run_flow(identity_preset(n=8, n_steps=3)), 0, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().split("\n")
    assert lines[0] == "t," + ",".join(f"particle_{j}" for j in range(8))
    assert len(lines) == 1 + 4  # steps 0..3 recorded, one row per time
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.0
    # full-precision repr round-trips the stored positions exactly
    assert [float(c) for c in cells[1:]] == list(traj.states[0][0].positions)

    d1 = tmp_path / "diag_a.csv"
    d2 = tmp_path / "diag_b.csv"
    diagnostics_csv(traj, d1)
    diagnostics_csv(run_flow(identity_preset(n=8, n_steps=3)), d2)
    assert d1.read_bytes() == d2.read_bytes()
    dlines = d1.read_text().strip().split("\n")
    assert len(dlines) == 1 + 3 * 2
    assert dlines[0] == "t,i,energy,step_w2_sq,el_residual,objective"


def test_porous_medium_moves_toward_self_similar_profile():
    cfg = porous_medium_preset(n=64, h=2e-3, n_steps=25, t0=0.01)
    traj = run_flow(cfg)
    dom = cfg.domain
    target = barenblatt_profile(0.01 + cfg.horizon, dom)
    err = l1_grid_distance(particle_step_density(traj.final[0]), target)
    assert err <= 0.15  # coarse smoke check; the tight one runs at N=256
