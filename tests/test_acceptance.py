"""Quantitative acceptance battery.

Twelve end-to-end gates, one test each.  Every test prints a single
``ACCEPTANCE <name>: PASS/FAIL`` line carrying the measured quantity and the
pinned tolerance before asserting, so a red run still reports the numbers.
Run with ``pytest tests/test_acceptance.py -v -s`` to see all twelve lines.
"""

import math
import time
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

from jkoflow import (
    Domain,
    GridDensity,
    ParticleDensity,
    QuadraticCost,
    StepProblem,
    barenblatt_profile,
    barycenter3_preset,
    bump_profile,
    contraction_probe,
    contraction_rerun,
    convexity_probe,
    coupling_value,
    diagnostics_csv,
    energy_gradient,
    energy_value,
    entropy_energy,
    from_grid,
    gaussian_profile,
    heat_flow_preset,
    l1_distance_to_profile,
    objective,
    objective_gradient,
    porous_medium_preset,
    power_law_energy,
    run_flow,
    run_flows,
    solve_step,
    trajectory_csv,
    w2_distance,
    zero_energy,
    euler_lagrange_residual,
)
from jkoflow.cli import build_flow_config, parse_scenario
from jkoflow.energy import floored_gap_count
from jkoflow.flow import Coupling, FlowConfig, PopulationSpec, _step_problem
from jkoflow.presets import PRESETS

from helpers import spread_particles
from oracle import (
    CostFunction,
    barenblatt_profile_m,
    convexity_rounding_bound,
    lp_convexity_violations,
    lp_solve_mm,
    sampled_convexity_violations,
)

DOM = Domain(0.0, 1.0)
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _atoms(domain, *positions):
    return ParticleDensity(domain, np.array(sorted(positions), dtype=float))


def _random_certified_cost(rng, l: int):
    """Certified cost on DOM with the given arity; barycenter half the time."""
    if l == 3 or rng.random() < 0.5:
        weights = rng.uniform(0.2, 2.0, size=l - 1).tolist()
        return QuadraticCost(weights)
    return QuadraticCost((1.0,))


# 1 ── rank-diagonal plan matches the LP optimum on certified costs


def test_monotone_plan_matches_lp_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    count = 200
    for trial in range(count):
        l = 2 if trial % 2 == 0 else 3
        n = int(rng.integers(1, 6))
        cost = _random_certified_cost(rng, l)
        margs = tuple(spread_particles(rng, DOM, n) for _ in range(l))
        lp = lp_solve_mm(margs, cost)
        worst = max(worst, abs(coupling_value(cost, margs) - lp.cost_value))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed <= 60.0
    _report(
        "monotone plan vs LP oracle",
        ok,
        f"max cost gap {worst:.3e} <= 1e-09 over {count} instances, {elapsed:.1f}s <= 60s",
    )
    assert ok


# 2 ── coupling value is Lipschitz in each marginal with the partial bound


def test_semi_coupling_lipschitz_bound():
    rng = np.random.default_rng(102)
    count = 500
    worst_excess = -math.inf
    length = DOM.length
    for trial in range(count):
        l = 2 if trial % 2 == 0 else 3
        n = int(rng.integers(1, 9))
        slot = int(rng.integers(0, l))
        if trial % 4 == 0 and l == 2:
            cost = QuadraticCost((1.0,))
            slot_bound = 2.0 * length
        else:
            # c = sum_k w_k (x_0 - x_k)^2, so |d/dx_0 c| <= 2 L sum w and
            # |d/dx_k c| <= 2 L w_k on the domain
            weights = rng.uniform(0.2, 2.0, size=l - 1)
            cost = QuadraticCost(weights.tolist())
            slot_bound = 2.0 * length * (
                float(np.sum(weights)) if slot == 0 else float(weights[slot - 1])
            )
        frozen = tuple(spread_particles(rng, DOM, n) for _ in range(l - 1))
        rho1 = spread_particles(rng, DOM, n)
        rho2 = spread_particles(rng, DOM, n)
        lhs = abs(
            coupling_value(cost, frozen[:slot] + (rho1,) + frozen[slot:])
            - coupling_value(cost, frozen[:slot] + (rho2,) + frozen[slot:])
        )
        assert slot_bound <= cost.partial_bound(length) + 1e-12
        rhs = slot_bound * w2_distance(rho1, rho2) + 1e-12
        worst_excess = max(worst_excess, lhs - rhs)
    ok = worst_excess <= 0.0
    _report(
        "coupling Lipschitz bound",
        ok,
        f"max (|dW| - slot bound * W2 - 1e-12) = {worst_excess:.3e} <= 0 "
        f"over {count} triples",
    )
    assert ok


# 3 ── single-particle step reproduces the closed-form prox


def test_single_particle_step_closed_form():
    rng = np.random.default_rng(103)
    dom = Domain(-10.0, 10.0)
    cost = QuadraticCost((1.0,))
    worst = 0.0
    for h in (1e-3, 1e-2, 1e-1):
        for _ in range(25):
            xk = float(rng.uniform(-2.0, 2.0))
            y = float(rng.uniform(-2.0, 2.0))
            problem = StepProblem(
                prev=_atoms(dom, xk),
                energy=zero_energy(),
                h=h,
                cost=cost,
                frozen=(_atoms(dom, y),),
                slot=0,
                tol=1e-12,
            )
            expected = (xk + 2.0 * h * y) / (1.0 + 2.0 * h)
            got = float(solve_step(problem).rho.positions[0])
            worst = max(worst, abs(got - expected))
    ok = worst <= 1e-13
    _report(
        "single-particle closed form",
        ok,
        f"max |x - (x_k + 2hy)/(1+2h)| = {worst:.3e} <= 1e-13 for h in {{1e-3, 1e-2, 1e-1}}",
    )
    assert ok


# 4 ── every step descends; summed squared step lengths halve with h


def _descent_worst(traj) -> float:
    config = traj.config
    worst = -math.inf
    for k in range(len(traj.states) - 1):
        state = traj.states[k]
        for i in range(len(config.populations)):
            problem = _step_problem(config, state, i)
            gap = objective(problem, traj.states[k + 1][i].positions) - objective(
                problem, state[i].positions
            )
            tol = problem.tol if problem.tol is not None else problem.default_tol()
            worst = max(worst, gap - 10.0 * tol)
    return worst


def test_descent_and_step_sum_halving():
    results = []
    for label, coarse, fine in (
        (
            "heat",
            heat_flow_preset(n=128, h=1e-2, n_steps=100),
            heat_flow_preset(n=128, h=5e-3, n_steps=200),
        ),
        (
            "barycenter",
            barycenter3_preset(n=128, h=1e-2, n_steps=100),
            barycenter3_preset(n=128, h=5e-3, n_steps=200),
        ),
    ):
        traj_c = run_flow(coarse)
        traj_f = run_flow(fine)
        descent = max(_descent_worst(traj_c), _descent_worst(traj_f))
        sum_c = math.fsum(traj_c.columns["w2_sq"].ravel().tolist())
        sum_f = math.fsum(traj_f.columns["w2_sq"].ravel().tolist())
        ratio = sum_c / sum_f
        results.append((label, descent, ratio))
    ok = all(d <= 0.0 and 1.6 <= r <= 2.4 for _, d, r in results)
    detail = "; ".join(
        f"{label}: descent excess {d:.3e} <= 0, step-sum ratio {r:.3f} in [1.6, 2.4]"
        for label, d, r in results
    )
    _report("per-step descent and h-halving", ok, detail)
    assert ok


# 5 ── interior particles satisfy the optimality identity


def test_euler_lagrange_identity():
    rng = np.random.default_rng(105)
    n = 32
    worst = -math.inf
    for trial in range(100):
        h = float(10.0 ** rng.uniform(-3, -1))
        kind = trial % 4
        energy = (
            entropy_energy()
            if kind in (0, 2)
            else power_law_energy(float(rng.uniform(1.5, 3.0)))
        )
        prev = spread_particles(rng, DOM, n)
        if kind < 2:
            problem = StepProblem(prev=prev, energy=energy, h=h)
        else:
            l = 2 if kind == 2 else 3
            cost = _random_certified_cost(rng, l)
            frozen = tuple(spread_particles(rng, DOM, n) for _ in range(l - 1))
            problem = StepProblem(
                prev=prev, energy=energy, h=h, cost=cost,
                frozen=frozen, slot=int(rng.integers(0, l)),
            )
        sol = solve_step(problem)
        tol = problem.default_tol()
        worst = max(worst, euler_lagrange_residual(problem, sol.rho) - 10.0 * tol)
    ok = worst <= 0.0
    _report(
        "interior optimality identity",
        ok,
        f"max (residual - 10 tol) = {worst:.3e} <= 0 over 100 problems at N=32",
    )
    assert ok


# 6 ── desk-scale ground truth for the two diffusion laws


def test_diffusion_ground_truth():
    t0 = time.perf_counter()
    heat = run_flow(heat_flow_preset(n=128, h=1e-2, n_steps=200))
    uniform = GridDensity(np.array([0.0, 1.0]), np.array([1.0]))
    heat_l1 = max(
        l1_distance_to_profile(heat.final[i], uniform) for i in range(2)
    )
    heat_elapsed = time.perf_counter() - t0

    t0 = time.perf_counter()
    porous = run_flow(porous_medium_preset(n=256, h=2e-3, n_steps=20, t0=0.01))
    reference = barenblatt_profile(0.05, Domain(-1.0, 1.0))
    porous_l1 = max(
        l1_distance_to_profile(porous.final[i], reference) for i in range(2)
    )
    porous_elapsed = time.perf_counter() - t0

    # the other exponents like porous_medium: f = s^m from its source solution
    # at t = 0.01, against it at t = 0.05
    t0 = time.perf_counter()
    other_l1 = {}
    for m in (1.5, 3.0):
        rho = from_grid(barenblatt_profile_m(m, 0.01, Domain(-1.0, 1.0)), 256)
        spec = PopulationSpec(initial=rho, energy=power_law_energy(m))
        final = run_flow(FlowConfig((spec, spec), h=2e-3, n_steps=20)).final
        reference = barenblatt_profile_m(m, 0.05, Domain(-1.0, 1.0))
        other_l1[m] = max(l1_distance_to_profile(final[i], reference) for i in range(2))
    other_elapsed = time.perf_counter() - t0

    ok = (
        heat_l1 <= 0.05
        and porous_l1 <= 0.08
        and all(l1 <= 0.08 for l1 in other_l1.values())
        and heat_elapsed <= 120.0
        and porous_elapsed <= 120.0
        and other_elapsed <= 3.0
    )
    _report(
        "diffusion ground truth",
        ok,
        f"heat L1 to uniform {heat_l1:.4f} <= 0.05 ({heat_elapsed:.1f}s); "
        f"self-similar L1 at t=0.05 {porous_l1:.4f} <= 0.08 ({porous_elapsed:.1f}s); "
        + "; ".join(f"m={m} {l1:.4f} <= 0.08" for m, l1 in other_l1.items())
        + f" ({other_elapsed:.1f}s)",
    )
    assert ok


# 7 ── product transport distance between perturbed runs never grows


def test_contraction_on_presets():
    results = []
    heat = heat_flow_preset(n=128, h=1e-2, n_steps=200)
    heat_other = (
        from_grid(gaussian_profile(DOM, 0.45, 0.12), 128),
        from_grid(bump_profile(DOM, 0.55, 0.2), 128),
    )
    bary = barycenter3_preset(n=128, h=1e-2, n_steps=100)
    bary_other = tuple(
        from_grid(gaussian_profile(DOM, c, 0.1), 128) for c in (0.3, 0.45, 0.7)
    )
    for label, config, other in (
        ("heat", heat, heat_other),
        ("barycenter", bary, bary_other),
    ):
        report = contraction_probe(*run_flows((config, contraction_rerun(config, other))),
                                   slack=1e-3)
        results.append((label, report))
    ok = all(r.status == "PASS" and r.max_increase <= 1e-3 for _, r in results)
    detail = "; ".join(
        f"{label}: {r.status}, max increase {r.max_increase:.3e} <= 1e-03"
        for label, r in results
    )
    _report("contraction under perturbation", ok, detail)
    assert ok


# 8 ── coupling values are geodesically convex exactly for certified costs


def test_convexity_certified_and_counterexample():
    # the probe states the violation in closed form, -t(1-t) Q with Q >= 0;
    # the sampled coupling value must agree with it within its rounding,
    # bounded (and derived) by convexity_rounding_bound
    rng = np.random.default_rng(108)
    worst = 0.0
    gap_ratio = 0.0  # sampled minus closed form, over its rounding bound
    for trial in range(100):
        l = 2 if trial % 2 == 0 else 3
        n = int(rng.integers(1, 9))
        cost = _random_certified_cost(rng, l)
        end_a = tuple(spread_particles(rng, DOM, n) for _ in range(l))
        end_b = tuple(spread_particles(rng, DOM, n) for _ in range(l))
        report = convexity_probe(cost, (end_a, end_b))
        worst = max(worst, report.max_violation)
        sampled = sampled_convexity_violations(lambda m: coupling_value(cost, m), (end_a, end_b))
        bound = convexity_rounding_bound(cost, (end_a, end_b), report)
        gap_ratio = max(gap_ratio, *(abs(v - c) / bound
                                     for v, c in zip(sampled, report.violations)))

    # product cost has mixed second derivative +1 > 0: transport along the
    # swap pair is cheaper at the endpoints than at the midpoint
    product = CostFunction(arity=2, fn=lambda pts: pts[..., 0] * pts[..., 1], name="product")
    end_a = (_atoms(DOM, 0.2), _atoms(DOM, 0.8))
    end_b = (_atoms(DOM, 0.8), _atoms(DOM, 0.2))
    counter = max(lp_convexity_violations(product, (end_a, end_b)))

    ok = worst <= 0.0 and gap_ratio <= 1.0 and counter > 1e-6
    _report(
        "geodesic convexity probe",
        ok,
        f"max violation {worst:.3e} <= 0 over 100 certified pairs, sampled within "
        f"{gap_ratio:.3f} of its rounding bound; "
        f"constructed non-comonotone cost violates by {counter:.3e} > 0",
    )
    assert ok


# 9 ── analytic gradients match central finite differences


def _fd_gradient(fn, x, eps=1e-6):
    g = np.empty_like(x)
    for j in range(x.size):
        bump = np.zeros_like(x)
        bump[j] = eps
        g[j] = (fn(x + bump) - fn(x - bump)) / (2.0 * eps)
    return g


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(109)
    dom = Domain(0.0, 8.0)

    worst_energy = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 65))
        energy = (
            entropy_energy()
            if trial % 2 == 0
            else power_law_energy(float(rng.uniform(1.2, 3.5)))
        )
        rho = spread_particles(rng, dom, n)
        grad = energy_gradient(energy, rho)
        fd = _fd_gradient(
            lambda x: energy_value(energy, ParticleDensity(dom, x)),
            rho.positions.copy(),
        )
        scale = np.maximum(1.0, np.abs(grad))
        worst_energy = max(worst_energy, float(np.max(np.abs(fd - grad) / scale)))

    worst_objective = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 33))
        energy = (
            entropy_energy()
            if trial % 2 == 0
            else power_law_energy(float(rng.uniform(1.2, 3.5)))
        )
        h = float(10.0 ** rng.uniform(-3, -1))
        prev = spread_particles(rng, dom, n)
        if trial % 3 == 0:
            problem = StepProblem(prev=prev, energy=energy, h=h)
        else:
            l = 2 if trial % 3 == 1 else 3
            cost = _random_certified_cost(rng, l)
            frozen = tuple(spread_particles(rng, dom, n) for _ in range(l - 1))
            problem = StepProblem(
                prev=prev, energy=energy, h=h, cost=cost,
                frozen=frozen, slot=int(rng.integers(0, l)),
            )
        x = spread_particles(rng, dom, n).positions
        grad = objective_gradient(problem, x)
        fd = _fd_gradient(lambda z: objective(problem, z), x.copy())
        scale = np.maximum(1.0, np.abs(grad))
        worst_objective = max(worst_objective, float(np.max(np.abs(fd - grad) / scale)))

    ok = worst_energy <= 1e-5 and worst_objective <= 1e-5
    _report(
        "gradient finite-difference check",
        ok,
        f"energy max rel err {worst_energy:.3e} <= 1e-05; "
        f"objective max rel err {worst_objective:.3e} <= 1e-05 (100 configs each)",
    )
    assert ok


# 10 ── shipped presets are bit-reproducible end to end


def test_preset_csv_determinism(tmp_path):
    mismatched = []
    for name, build in PRESETS.items():
        outs = []
        for run in ("a", "b"):
            out = tmp_path / name / run
            out.mkdir(parents=True)
            traj = run_flow(build())
            for i in range(len(traj.config.populations)):
                trajectory_csv(traj, i, out / f"trajectory_pop{i}.csv")
            diagnostics_csv(traj, out / "diagnostics.csv")
            outs.append(out)
        for f in sorted(outs[0].iterdir()):
            if f.read_bytes() != (outs[1] / f.name).read_bytes():
                mismatched.append(f"{name}/{f.name}")
    ok = not mismatched
    _report(
        "preset determinism",
        ok,
        "byte-identical CSVs for presets "
        + ", ".join(PRESETS)
        + ("" if ok else f"; mismatches: {mismatched}"),
    )
    assert ok


# 11 ── every step of every shipped scenario is a minimizer, with no collision


def test_shipped_scenarios_step_optimality():
    rows = []
    for path in sorted(SCENARIO_DIR.glob("*.yaml")):
        config = build_flow_config(parse_scenario(path.read_text()))
        traj = run_flow(config)
        el = traj.columns["el_residual"]
        worst = max(
            float(np.max(el[:, i])) / (config.tol or 1e-9 * math.sqrt(p.initial.n))
            for i, p in enumerate(config.populations)
        )
        floored = sum(
            floored_gap_count(p.energy, state[i])
            for state in traj.states[1:]
            for i, p in enumerate(config.populations)
        )
        rows.append((path.stem, el.size, worst, floored))
    ok = all(worst <= 10.0 and floored == 0 for _, _, worst, floored in rows)
    detail = "; ".join(
        f"{name}: max EL residual / tol {worst:.3g} <= 10 and {floored} floored gaps "
        f"over {steps} population-steps"
        for name, steps, worst, floored in rows
    )
    _report("shipped-scenario step optimality", ok, detail)
    assert ok


# 12 ── coupled Gaussians follow the closed-form Jacobi recursion


def _coupled_gaussian_errors(gaussians, couplings, weights, n, h=1e-3, n_steps=20):
    """Particle flow from midpoint quantiles against the Gaussian recursion.

    With entropy energies and quadratic costs a Jacobi step maps Gaussians
    to Gaussians: m' = (m/h + 2 sum_k w_k m_k) / (1/h + 2W) and s' is the
    positive root of (1/h + 2W) s'^2 - (s/h + 2 sum_k w_k s_k) s' - 1 = 0,
    W = sum_k w_k.  Returns the mean error, the standard-deviation error,
    the error over ranks 10-90 % and the Gaussian mass the box cuts off,
    each the worst over the populations.
    """
    dom = Domain(-2.0, 2.0)
    u = (np.arange(n) + 0.5) / n
    z = ndtri(u)
    config = FlowConfig(
        populations=tuple(
            PopulationSpec(ParticleDensity(dom, m + s * z), entropy_energy(), c)
            for (m, s), c in zip(gaussians, couplings)
        ),
        h=h, n_steps=n_steps,
    )
    traj = run_flow(config)
    means = [float(np.mean(p.positions)) for p in traj.states[0]]
    sigmas = [s for _, s in gaussians]
    for _ in range(n_steps):
        new_means, new_sigmas = [], []
        for i, w in enumerate(weights):
            a = 1.0 / h + 2.0 * sum(w.values())
            new_means.append((means[i] / h + 2.0 * sum(wk * means[k] for k, wk in w.items())) / a)
            b = sigmas[i] / h + 2.0 * sum(wk * sigmas[k] for k, wk in w.items())
            new_sigmas.append((b + math.sqrt(b * b + 4.0 * a)) / (2.0 * a))
        means, sigmas = new_means, new_sigmas
    interior = (u >= 0.1) & (u <= 0.9)
    rows = [
        (
            abs(float(np.mean(p.positions)) - m),
            abs(float(np.std(p.positions)) - s),
            float(np.max(np.abs(p.positions - (m + s * z))[interior])),
            ndtr((dom.lower - m) / s) + ndtr((m - dom.upper) / s),
        )
        for p, m, s in zip(traj.final, means, sigmas)
    ]
    return tuple(max(col) for col in zip(*rows))


def test_coupled_gaussian_closed_form():
    pair = QuadraticCost((1.0,))
    cases = {
        "pairwise": (
            ((-0.3, 0.05), (0.4, 0.1)),
            (Coupling(pair, (0, 1)), Coupling(pair, (1, 0))),
            ({1: 1.0}, {0: 1.0}),
        ),
        "barycenter": (
            ((-0.3, 0.05), (0.0, 0.08), (0.4, 0.1)),
            (
                Coupling(QuadraticCost((1.0, 2.0)), (0, 1, 2)),
                Coupling(pair, (1, 0)),
                Coupling(pair, (2, 0)),
            ),
            ({1: 1.0, 2: 2.0}, {0: 1.0}, {0: 1.0}),
        ),
    }
    # the closed form lives on the whole line; the box may cut off no more
    # Gaussian mass than the mean check resolves
    sizes = (256, 1024, 4096)
    ok, details = True, []
    for name, case in cases.items():
        errors = [_coupled_gaussian_errors(*case, n) for n in sizes]
        mean_err = max(e[0] for e in errors)
        outside = max(e[3] for e in errors)
        orders = [
            [math.log(errors[k][col] / errors[k + 1][col]) / math.log(4.0) for k in range(2)]
            for col in (1, 2)
        ]
        ok = ok and mean_err <= 1e-13 and outside <= 1e-13 and min(map(min, orders)) >= 0.9
        details.append(
            f"{name}: mean error {mean_err:.2e} <= 1e-13; order in N of the std error "
            f"{orders[0][0]:.2f}, {orders[0][1]:.2f} and of the 10-90 % rank error "
            f"{orders[1][0]:.2f}, {orders[1][1]:.2f} >= 0.9 over N = 256, 1024, 4096; "
            f"Gaussian mass outside the box {outside:.1e} <= 1e-13"
        )
    _report("coupled Gaussian closed form", ok, "; ".join(details))
    assert ok
