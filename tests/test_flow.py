import math
import re
from dataclasses import replace

import numpy as np
import pytest

from jkoflow import (
    Coupling,
    Domain,
    FlowConfig,
    InvalidInputError,
    ParticleDensity,
    NumericalFailureError,
    PopulationSpec,
    QuadraticCost,
    barenblatt_profile,
    barycenter3_preset,
    bump_profile,
    TestFunction,
    bump_test_function,
    contraction_probe,
    contraction_rerun,
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
    run_flow,
    run_flows,
    solve_step,
    trajectory_csv,
    weak_form_residual,
    zero_energy,
    PRESETS,
)
import jkoflow.jko as jko_module
from jkoflow.flow import _step_problem
from jkoflow.jko import COLUMNS, StepProblem, StepSolution
from helpers import leak_past_wall, reference_run_flow, spread_particles, wrong_sign_energy
from oracle import CostFunction, per_step_contraction_distances, per_step_weak_form

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
    pair = QuadraticCost((1.0,))
    return FlowConfig(
        populations=(
            PopulationSpec(initial=a, energy=zero_energy(),
                           coupling=Coupling(pair, (1,))),
            PopulationSpec(initial=b, energy=zero_energy(),
                           coupling=Coupling(pair, (0,))),
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
    for name in ("energy", "coupling", "w2_sq", "iterations"):
        assert not traj.columns[name].any()


def test_mutual_attraction_closed_form():
    # populations pulling on each other: each implicit step maps every
    # rank-paired gap d to d (1 - 2h) / (1 + 2h)
    h = 0.05
    cfg = attract_config(h=h, n_steps=10)
    traj = run_flow(cfg)
    gaps0 = cfg.populations[1].initial.positions - cfg.populations[0].initial.positions
    mids0 = cfg.populations[1].initial.positions + cfg.populations[0].initial.positions
    ratio = (1 - 2 * h) / (1 + 2 * h)
    for k, state in enumerate(traj.states):
        gaps = state[1].positions - state[0].positions
        assert np.max(np.abs(gaps - gaps0 * ratio**k)) <= 1e-10
        mids = state[1].positions + state[0].positions
        assert np.max(np.abs(mids - mids0)) <= 1e-10  # midpoints conserved


def test_heat_flow_energy_descends():
    traj = run_flow(small_heat_config())
    for i in range(2):
        series = traj.columns["energy"][:, i].tolist()
        assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))
        assert series[0] <= traj.config.populations[i].initial.n  # sanity


def mixed_config():
    # entropy, power-law and zero energies in one joint solve, a coupled pair
    # among them, and an uncoupled population with its own N solved apart
    rng = np.random.default_rng(31)
    pair = QuadraticCost((1.0,))
    return FlowConfig(
        populations=(
            PopulationSpec(spread_particles(rng, UNIT, 16), entropy_energy(),
                           Coupling(pair, (1,))),
            PopulationSpec(spread_particles(rng, UNIT, 16), power_law_energy(2.0),
                           Coupling(pair, (0,))),
            PopulationSpec(spread_particles(rng, UNIT, 24), entropy_energy()),
            PopulationSpec(spread_particles(rng, UNIT, 16), zero_energy()),
        ),
        h=2e-2,
        n_steps=4,
    )


def test_run_flow_mixes_energies_and_particle_counts():
    config = mixed_config()
    traj = run_flow(config)
    assert {column.shape for column in traj.columns.values()} == {(4, 4)}
    for k in range(1, 5):
        for i in range(4):
            # the same step taken one population at a time from the same state,
            # to the bit: each row of a joint solve steps as it does alone
            alone = solve_step(_step_problem(config, traj.states[k - 1], i))
            assert traj.states[k][i].positions.tobytes() == alone.rho.positions.tobytes()
            assert [traj.columns[name][k - 1, i] for name in COLUMNS] == [
                getattr(alone, name) for name in COLUMNS]
        assert np.array_equal(traj.states[k][3].positions, config.populations[3].initial.positions)


def _assert_same_flow(traj, ref):
    # the recorded arrays to the bit, and the states built from them
    assert traj.times == ref.times
    for x, ref_x in zip(traj.positions, ref.positions, strict=True):
        assert (x.dtype, x.shape, x.tobytes()) == (ref_x.dtype, ref_x.shape, ref_x.tobytes())
    assert list(traj.columns) == list(ref.columns) == list(COLUMNS)
    for name, column in traj.columns.items():
        ref_column = ref.columns[name]
        assert (column.dtype, column.shape, column.tobytes()) == (
            ref_column.dtype, ref_column.shape, ref_column.tobytes()), name
    for state, ref_state in zip(traj.states, ref.states, strict=True):
        for rho, ref_rho in zip(state, ref_state, strict=True):
            assert rho.positions.tobytes() == ref_rho.positions.tobytes()


def unordered_barycenter_config():
    # population 0's three partners fill its slots out of population order, with
    # weights that are not 1: the partner table sums them in slot order
    rng = np.random.default_rng(34)
    pair, zero = QuadraticCost((0.9,)), QuadraticCost((0.0,), "zero")
    barycenter = Coupling(QuadraticCost((1.3, 0.3, 0.7), "barycenter"), (3, 1, 2))
    couplings = (barycenter, Coupling(pair, (0,)), Coupling(zero, (0,)), Coupling(pair, (0,)))
    return FlowConfig(
        populations=tuple(PopulationSpec(spread_particles(rng, UNIT, 16), entropy_energy(), c)
                          for c in couplings),
        h=2e-2,
        n_steps=5,
    )


@pytest.mark.parametrize("make", [heat_flow_preset, barycenter3_preset, mixed_config,
                                  unordered_barycenter_config],
                         ids=["heat_flow", "barycenter3", "mixed", "unordered-barycenter"])
def test_run_flow_matches_steps_built_afresh(make):
    # the flow's kernel is built once and advanced; stale frozen columns, a
    # stale prev or stale reused energy terms would move some bit
    config = make()
    _assert_same_flow(run_flow(config), reference_run_flow(config))


def test_contraction_rerun_matches_steps_built_afresh():
    # the rerun shares the flow's kernel; each still matches its own steps built afresh
    config = barycenter3_preset(n=32, n_steps=20)
    others = tuple(from_grid(gaussian_profile(UNIT, c, 0.1), 32) for c in (0.3, 0.45, 0.7))
    rerun = contraction_rerun(config, others)
    traj, rerun_traj = run_flows((config, rerun))
    _assert_same_flow(traj, reference_run_flow(config))
    _assert_same_flow(rerun_traj, reference_run_flow(rerun))
    assert repr(contraction_probe(traj, rerun_traj)) == repr(contraction_probe(
        reference_run_flow(config), reference_run_flow(rerun)))


def _other_mixed_config():
    rng = np.random.default_rng(33)
    config = mixed_config()
    return contraction_rerun(config, [spread_particles(rng, UNIT, p.initial.n)
                                      for p in config.populations])


@pytest.mark.parametrize("flows", [
    lambda: (heat_flow_preset(), contraction_rerun(heat_flow_preset(), (
        from_grid(gaussian_profile(UNIT, 0.5, 0.12), 128),
        from_grid(bump_profile(UNIT, 0.4, 0.2), 128)))),
    lambda: (mixed_config(), _other_mixed_config()),
], ids=["heat_flow", "mixed"])
def test_run_flows_equals_separate_run_flow(flows):
    # flows that share N, h and domain share kernels; each row
    # steps as it does alone, so no flow sees another's rows
    configs = flows()
    for traj, config in zip(run_flows(configs), configs, strict=True):
        assert traj.config is config
        _assert_same_flow(traj, run_flow(config))


def test_run_flows_refuses_flows_of_different_lengths():
    with pytest.raises(InvalidInputError, match="step count"):
        run_flows((small_heat_config(n=16, n_steps=3), small_heat_config(n=16, n_steps=4)))


def test_energy_terms_evaluated_once_per_point(monkeypatch):
    # each step starts where the previous one stopped, so it reuses that
    # point's energy terms: gap_terms runs once per energy block per trial
    # point, and again at a step's start only at the flow's first step
    config = mixed_config()
    calls = []
    gap_terms = jko_module.gap_terms
    monkeypatch.setattr(jko_module, "gap_terms", lambda *a: calls.append(a) or gap_terms(*a))
    reference_run_flow(config)  # evaluates every step's start afresh
    afresh = len(calls)
    calls.clear()
    run_flow(config)
    blocks = 4  # N = 16: entropy, power law, zero; N = 24: entropy
    assert len(calls) == afresh - blocks * (config.n_steps - 1)


def test_run_flow_names_the_population_that_fails():
    # population 2 climbs its objective (its energy's derivative has the wrong
    # sign); it shares its joint solve with population 0
    rng = np.random.default_rng(32)
    wrong = wrong_sign_energy(1e6)
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


@pytest.mark.parametrize("wall", ["lower", "upper"])
def test_run_flow_refuses_a_solver_state_past_a_wall(monkeypatch, wall):
    leak_past_wall(monkeypatch, wall)
    with pytest.raises(NumericalFailureError, match=(
        r"^step 1, population 1: step solver made a state that is not a density: "
        r"positions must lie in \[0.0, 1.0\]$"
    )) as info:
        run_flow(small_heat_config(n=8, n_steps=2))
    assert info.value.residual <= 1e-9 * math.sqrt(8)


def test_flow_validation():
    a = from_grid(gaussian_profile(UNIT, 0.5, 0.1), 8)
    spec = PopulationSpec(initial=a, energy=entropy_energy())
    with pytest.raises(InvalidInputError):
        FlowConfig(populations=(spec,), h=1e-2, n_steps=1)
    with pytest.raises(InvalidInputError):
        FlowConfig(populations=(spec, spec), h=0.0, n_steps=1)
    with pytest.raises(InvalidInputError):
        FlowConfig(populations=(spec, spec), h=1e-2, n_steps=0)
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
    # c = x y has mixed partial +1: its optimal plan is not the rank-diagonal one,
    # and a flow refuses every cost but a QuadraticCost when its coupling is built
    product = CostFunction(arity=2, fn=lambda xs: xs[..., 0] * xs[..., 1])
    with pytest.raises(InvalidInputError, match="QuadraticCost"):
        FlowConfig(populations=(PopulationSpec(initial=a, energy=entropy_energy(),
                                               coupling=Coupling(product, (1,))), spec),
                   h=1e-2, n_steps=1)
    pair = QuadraticCost((1.0,))
    out_of_range = PopulationSpec(initial=a, energy=entropy_energy(),
                                  coupling=Coupling(pair, (5,)))
    with pytest.raises(InvalidInputError):
        FlowConfig(populations=(out_of_range, spec), h=1e-2, n_steps=1)
    # a coupling's partners are distinct other populations: not the owner, none twice
    for partners, cost in [((0,), pair), ((1, 1), QuadraticCost((1.0, 2.0)))]:
        misplaced = PopulationSpec(initial=a, energy=entropy_energy(),
                                   coupling=Coupling(cost, partners))
        with pytest.raises(InvalidInputError, match=re.escape(
                "population 0's coupling partners must be distinct other populations")):
            FlowConfig(populations=(misplaced, spec), h=1e-2, n_steps=1)
    with pytest.raises(InvalidInputError, match="every cost slot but the owner's"):
        Coupling(pair, (0, 1))
    mismatched = PopulationSpec(
        initial=from_grid(gaussian_profile(UNIT, 0.5, 0.1), 9),
        energy=entropy_energy(), coupling=Coupling(pair, (1,)),
    )
    with pytest.raises(InvalidInputError):
        FlowConfig(populations=(mismatched, spec), h=1e-2, n_steps=1)


def test_coupling_refuses_partners_that_are_not_integers():
    barycenter = QuadraticCost((1.0, 1.0))
    assert Coupling(barycenter, (np.int64(0), np.int32(1))).partners == (0, 1)
    with pytest.raises(InvalidInputError, match=re.escape(
            "a coupling partner must be an integer, got 1.7")):
        Coupling(barycenter, (0, 1.7))


def test_flow_config_refuses_a_step_count_that_is_not_an_integer():
    spec = PopulationSpec(initial=from_grid(gaussian_profile(UNIT, 0.5, 0.1), 8),
                          energy=entropy_energy())
    assert type(FlowConfig((spec, spec), h=1e-2, n_steps=np.int64(2)).n_steps) is int
    with pytest.raises(InvalidInputError, match="^n_steps must be an integer, got 2.5$"):
        FlowConfig((spec, spec), h=1e-2, n_steps=2.5)


@pytest.mark.parametrize("make", ["FlowConfig", "StepProblem"])
@pytest.mark.parametrize("field, value, name", [("h", "0.1", "step size h"), ("tol", "x", "tol")])
def test_step_size_and_tol_must_be_real_numbers(make, field, value, name):
    # FlowConfig and StepProblem share one check, which names a field that holds no number
    a = from_grid(gaussian_profile(UNIT, 0.5, 0.1), 8)
    given = {"h": 1e-2, field: value}
    with pytest.raises(InvalidInputError, match=re.escape(
            f"{name} must be a real number, got {value!r}")):
        if make == "FlowConfig":
            spec = PopulationSpec(initial=a, energy=entropy_energy())
            FlowConfig((spec, spec), n_steps=1, **given)
        else:
            StepProblem(prev=a, energy=entropy_energy(), **given)


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
    report = contraction_probe(run_flow(cfg), run_flow(contraction_rerun(cfg, shifted)))
    assert report.status == "PASS"
    assert report.max_increase <= 1e-3
    assert len(report.distances) == 16


@pytest.mark.parametrize("h, status, max_increase", [
    (0.5, "FAIL", 5.0e-3),
    (0.1, "PASS", 0.0),
])
def test_contraction_of_coupled_jacobi_steps(h, status, max_increase):
    # barycenter3's couplings: population 0 the barycenter of 1 and 2, which are
    # pulled back to it.  A Jacobi step freezes the partners, so the product W2
    # distance can grow by the norm of the Jacobi update of the translations
    # (ROADMAP item 11): the second flow starts with population 0 moved by +1,
    # and at h = 0.5 the distance grows past the slack, while at h = 0.1 it shrinks
    dom = Domain(-6.0, 7.0)
    initials = [from_grid(gaussian_profile(dom, c, 0.5), 128) for c in (0.25, 0.5, 0.75)]
    pair = QuadraticCost((1.0,), "quadratic_pairwise")
    cfg = FlowConfig(populations=(
        PopulationSpec(initials[0], entropy_energy(),
                       Coupling(QuadraticCost((1.0, 1.0), "barycenter"), (1, 2))),
        PopulationSpec(initials[1], entropy_energy(), Coupling(pair, (0,))),
        PopulationSpec(initials[2], entropy_energy(), Coupling(pair, (0,))),
    ), h=h, n_steps=3)
    moved = (ParticleDensity(dom, initials[0].positions + 1.0), *initials[1:])
    report = contraction_probe(*run_flows([cfg, contraction_rerun(cfg, moved)]))
    assert report.status == status
    assert report.max_increase == pytest.approx(max_increase, rel=0.01, abs=0.0)
    assert report.reason == ("product W2 distance increased beyond slack" if status == "FAIL"
                             else "product W2 distance stayed nonincreasing within slack")
    assert report.distances[0] == pytest.approx(1.0)


def test_contraction_skipped_without_displacement_convexity():
    # r * sqrt(1/r) = sqrt(r) increases, so f = sqrt(s) is not displacement
    # convex, while the steps stay solvable at small h; the probe needs the flow
    concave = power_law_energy(0.5)
    a = from_grid(gaussian_profile(UNIT, 0.4, 0.1), 16)
    cfg = FlowConfig(
        populations=(
            PopulationSpec(initial=a, energy=concave),
            PopulationSpec(initial=a, energy=entropy_energy()),
        ),
        h=1e-4, n_steps=3,
    )
    assert contraction_rerun(cfg, (a, a)) is None  # so no second flow is run
    report = contraction_probe(run_flow(cfg), None)
    assert report.status == "SKIPPED"
    assert "McCann check failed" in report.reason


def test_contraction_validates_initials():
    cfg = small_heat_config(n=16, n_steps=2)
    with pytest.raises(InvalidInputError, match="one alternative initial state per population"):
        contraction_rerun(cfg, (cfg.populations[0].initial,))
    other = small_heat_config(n=8, n_steps=2).populations
    with pytest.raises(InvalidInputError, match="match in particle count and domain"):
        contraction_rerun(cfg, tuple(p.initial for p in other))
    # the probe needs the second flow, run for the same steps
    traj = run_flow(cfg)
    for rerun in (None, run_flow(small_heat_config(n=16, n_steps=3, centers=(0.4, 0.6)))):
        with pytest.raises(InvalidInputError, match="contraction_rerun"):
            contraction_probe(traj, rerun)


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


def test_bump_takes_a_column_of_times_to_the_bit():
    # the weak form evaluates the bump on every recorded state at once, with a
    # column of times; each row is the bump at that row's time alone, and
    # writeable copies of the positions give the same reports
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
    x = np.array(traj.positions[0])
    times = np.array(traj.times)
    cut = bump_test_function(0.5, 0.3, 0.04)  # the last two times are past its cutoff
    for f in (bump.value, bump.dx, cut.value, cut.dx):
        rows = f(times[:, None], x)
        assert rows.shape == x.shape
        for t, row, at in zip(times.tolist(), rows, x):
            assert row.tobytes() == f(t, at).tobytes()
    assert not rows[-2:].any() and rows[:-2].any()


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


@pytest.mark.parametrize("name", sorted(PRESETS) + ["mixed"])
def test_weak_form_equals_its_per_step_assembly(name):
    # the whole-array assembly against its step-by-step reference, to the bit:
    # every preset, the coupled ones driving through their partners, and a flow
    # whose populations differ in N
    config = mixed_config() if name == "mixed" else PRESETS[name]()
    if config.n_steps > 40:
        config = replace(config, n_steps=40)
    traj = run_flow(config)
    center = config.domain.lower + 0.5 * config.domain.length
    phi = bump_test_function(center, 0.35 * config.domain.length, 0.5 * config.horizon)
    for i in range(len(config.populations)):
        assert repr(weak_form_residual(traj, phi, i)) == repr(per_step_weak_form(traj, phi, i))


@pytest.mark.parametrize("name", sorted(PRESETS) + ["mixed"])
@pytest.mark.parametrize("n_steps", [1, 10])
def test_contraction_distances_equal_product_w2_per_step(name, n_steps):
    # the product W2 distance at every step, against its step-by-step reference,
    # to the bit; one step is the shortest flow, with a single increase
    if name == "mixed":
        config = mixed_config()
        others = [p.initial for p in _other_mixed_config().populations]
    else:
        config = PRESETS[name]()
        rng = np.random.default_rng(35)
        others = [spread_particles(rng, config.domain, p.initial.n) for p in config.populations]
    config = replace(config, n_steps=n_steps)
    traj, rerun_traj = run_flows((config, contraction_rerun(config, others)))
    report = contraction_probe(traj, rerun_traj, slack=math.inf)
    assert len(report.distances) == n_steps + 1
    assert repr(report.distances) == repr(per_step_contraction_distances(traj, rerun_traj))


def test_trajectory_records_read_only_arrays():
    config = mixed_config()  # N = 16 and 24
    traj = run_flow(config)
    assert traj.times == tuple(k * config.h for k in range(5))
    for p, x, state in zip(config.populations, traj.positions, traj.final, strict=True):
        assert x.shape == (5, p.initial.n) and not x.flags.writeable
        assert x[0].tobytes() == p.initial.positions.tobytes()
        assert state.positions.tobytes() == x[-1].tobytes()
    assert StepSolution._fields[1:] == COLUMNS
    for column in traj.columns.values():
        assert column.shape == (4, 4) and not column.flags.writeable
    assert traj.columns["iterations"].dtype == int


def test_weak_form_refuses_a_population_out_of_range():
    traj = run_flow(small_heat_config(n=16, n_steps=4))
    phi = bump_test_function(0.5, 0.3, 0.02)
    with pytest.raises(InvalidInputError, match="population 5 out of range"):
        weak_form_residual(traj, phi, 5)


@pytest.mark.parametrize("call, message", [
    (lambda traj, path: from_grid(gaussian_profile(UNIT, 0.5, 0.1), 2.5),
     "a particle count must be an integer, got 2.5"),
    (lambda traj, path: heat_flow_preset(n=3.5), "a particle count must be an integer, got 3.5"),
    (lambda traj, path: weak_form_residual(traj, bump_test_function(0.5, 0.3, 0.02), 0.5),
     "population must be an integer, got 0.5"),
    (lambda traj, path: trajectory_csv(traj, 0.5, path), "population must be an integer, got 0.5"),
], ids=["from_grid", "preset", "weak_form_residual", "trajectory_csv"])
def test_a_count_or_index_that_is_not_an_integer_is_refused(tmp_path, call, message):
    traj = run_flow(identity_preset(n=8, n_steps=2))
    path = tmp_path / "trajectory.csv"
    with pytest.raises(InvalidInputError, match=re.escape(message) + "$"):
        call(traj, path)
    assert not path.exists()  # refused before the file is opened


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
