"""Particle solver for diffusing populations coupled by multi-marginal transport."""

import types

from .errors import (
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

# every public name imported above; the scenario front end stays in jkoflow.cli,
# which `python -m jkoflow.cli` must find not yet imported
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
