"""Simulation and control of an antagonistic soft hydraulic actuator pair.

The package models the coupled mechanics and hydraulics of two opposing
bellow actuators as a port-Hamiltonian system, implements an energy-shaping
flow-rate controller with an immersion-and-invariance force estimator, and
provides a deterministic simulation engine, scenario files, presets and a
CLI (``antago``) for reproduction and numerical verification of the
closed-loop theory.
"""

from .controller import (
    ControllerGains,
    SigmaTerms,
    StabilityReport,
    closed_loop_field,
    control_flows,
    desired_energy,
    desired_energy_rate,
    sigma,
    validate_gains,
)
from .engine import (
    CHANNELS,
    DiagnosticsSummary,
    ForceModel,
    ScenarioConfig,
    SolverSettings,
    TrajectoryRecord,
    augmented_field,
    diagnostics,
    fit_decay_rate,
    simulate,
    simulate_open_loop,
)
from .errors import DomainError, ScenarioError, SolverError, WorkerError
from .observer import observer_rate
from .plant import (
    ActuatorGeometry,
    FluidParams,
    GeometryTerms,
    PlantParams,
    PlantState,
    generalized_force,
    geometry_terms,
    hamiltonian,
    hamiltonian_gradient,
    open_loop_field,
    pressure_potential,
    total_mass,
)
from .scenario_io import (
    list_presets,
    load_preset,
    load_scenario,
    load_trajectory_csv,
    parse_scenario,
    save_scenario,
    save_trajectory_csv,
    serialize_scenario,
    trajectory_from_csv,
    trajectory_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ActuatorGeometry", "CHANNELS", "ControllerGains", "DiagnosticsSummary",
    "DomainError", "FluidParams", "ForceModel", "GeometryTerms", "PlantParams",
    "PlantState", "ScenarioConfig", "ScenarioError", "SigmaTerms",
    "SolverError", "SolverSettings", "StabilityReport", "TrajectoryRecord",
    "WorkerError", "augmented_field", "closed_loop_field", "control_flows",
    "desired_energy", "desired_energy_rate", "diagnostics", "fit_decay_rate",
    "generalized_force", "geometry_terms", "hamiltonian",
    "hamiltonian_gradient", "list_presets", "load_preset", "load_scenario",
    "load_trajectory_csv", "observer_rate", "open_loop_field",
    "parse_scenario", "pressure_potential", "save_scenario",
    "save_trajectory_csv", "serialize_scenario", "sigma", "simulate",
    "simulate_open_loop", "total_mass", "trajectory_from_csv",
    "trajectory_to_csv", "validate_gains",
]
