"""Particle solver for diffusing populations coupled by multi-marginal transport."""

from .errors import (
    DomainError,
    InvalidInputError,
    NumericalFailureError,
)
from .geometry import (
    Domain,
    GridDensity,
    ParticleDensity,
    from_grid,
    grid_from_csv,
    l1_distance_to_profile,
    l1_grid_distance,
    normalized_grid,
    particle_step_density,
    w2_distance,
)
from .energy import (
    InternalEnergy,
    energy_gradient,
    energy_value,
    entropy_energy,
    power_law_energy,
    zero_energy,
)
from .transport import (
    ConvexityReport,
    QuadraticCost,
    convexity_probe,
    coupling_value,
    displacement_interpolate,
)
from .jko import (
    StepProblem,
    StepSolution,
    euler_lagrange_residual,
    objective,
    objective_gradient,
    project_ordered_box,
    solve_step,
)
from .flow import (
    ContractionReport,
    Coupling,
    EstimateReport,
    FlowConfig,
    FlowTrajectory,
    PopulationSpec,
    TestFunction,
    WeakFormReport,
    bump_test_function,
    contraction_probe,
    contraction_rerun,
    diagnostics_csv,
    estimate_report,
    run_flow,
    run_flows,
    trajectory_csv,
    weak_form_residual,
)
from .presets import (
    PRESETS,
    barenblatt_profile,
    barycenter3_preset,
    bump_profile,
    gaussian_profile,
    heat_flow_preset,
    identity_preset,
    porous_medium_preset,
    profile_grid,
)

__version__ = "0.1.0"

# the CLI's names load jkoflow.cli on first use: imported here, it would be in
# sys.modules before `python -m jkoflow.cli` runs it as __main__, a second time
_CLI = ("Scenario", "build_flow_config", "parse_scenario", "run_scenario")


def __getattr__(name):
    if name in _CLI:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DomainError",
    "InvalidInputError",
    "NumericalFailureError",
    "Domain",
    "GridDensity",
    "ParticleDensity",
    "from_grid",
    "grid_from_csv",
    "normalized_grid",
    "w2_distance",
    "InternalEnergy",
    "energy_gradient",
    "energy_value",
    "entropy_energy",
    "power_law_energy",
    "zero_energy",
    "ConvexityReport",
    "QuadraticCost",
    "convexity_probe",
    "coupling_value",
    "displacement_interpolate",
    "l1_distance_to_profile",
    "l1_grid_distance",
    "particle_step_density",
    "StepProblem",
    "StepSolution",
    "euler_lagrange_residual",
    "objective",
    "objective_gradient",
    "project_ordered_box",
    "solve_step",
    "ContractionReport",
    "Coupling",
    "EstimateReport",
    "FlowConfig",
    "FlowTrajectory",
    "PopulationSpec",
    "TestFunction",
    "WeakFormReport",
    "bump_test_function",
    "contraction_probe",
    "contraction_rerun",
    "diagnostics_csv",
    "estimate_report",
    "run_flow",
    "run_flows",
    "trajectory_csv",
    "weak_form_residual",
    "PRESETS",
    "barenblatt_profile",
    "barycenter3_preset",
    "bump_profile",
    "gaussian_profile",
    "heat_flow_preset",
    "identity_preset",
    "porous_medium_preset",
    "profile_grid",
    "Scenario",
    "build_flow_config",
    "parse_scenario",
    "run_scenario",
]
