"""Plant model: geometry, energies, gradients and the open-loop field."""

import argparse
import inspect
import math
import re
import sys

import numpy as np
import pytest

import antago
import antago.controller
import antago.plant
import antago.verify
from antago import engine
from antago.cli import build_parser
from antago.controller import ControllerGains
from antago.engine import ForceModel, ScenarioConfig, SolverSettings, augmented_field
from antago.errors import DomainError
from antago.plant import (
    ActuatorGeometry,
    FluidParams,
    PlantParams,
    PlantState,
    fluid_energy,
    generalized_force,
    geometry_terms,
    hamiltonian,
    hamiltonian_gradient,
    open_loop_field,
    pressure_potential,
    total_mass,
)


def _study_geometry(**overrides):
    kwargs = dict(L0=30e-3, K0=2.8e-6, V0=1e-7, x0=3.75e-3, x_M=7.5e-3)
    kwargs.update(overrides)
    return ActuatorGeometry(**kwargs)


def _study_params():
    return PlantParams(geometry=_study_geometry(),
                       fluid=FluidParams(Gamma0=2e9, rho=1e3),
                       m=0.25, R=5.0)


def _random_states(params, rng, n):
    lo, hi = params.geometry.position_bounds()
    pad = 0.05 * (hi - lo)
    for _ in range(n):
        yield PlantState(
            x=float(rng.uniform(lo + pad, hi - pad)),
            p=float(rng.uniform(-0.1, 0.1)),
            P1=float(rng.uniform(-5e4, 5e4)),
            P2=float(rng.uniform(-5e4, 5e4)),
        )


# --------------------------------------------------------------------------
# Geometry type invariants.

def test_contraction_range_validation():
    with pytest.raises(ValueError):
        _study_geometry(x_M=8e-3)  # above L0/4
    with pytest.raises(ValueError):
        _study_geometry(x0=0.0)
    with pytest.raises(ValueError):
        _study_geometry(x0=8e-3)   # x0 >= x_M


def test_non_finite_parameters_rejected():
    for key in ("L0", "K0", "V0", "x0", "x_M"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError):
                _study_geometry(**{key: value})
    # L0 * L0, which the curvatures divide by, overflows at 1e200 and
    # underflows to zero at 1e-200.
    for L0 in (0.0, -30e-3, 1e200, 1e-200):
        with pytest.raises(ValueError, match=re.escape("L0, L0 * L0 and V0 must be positive")):
            _study_geometry(L0=L0)
    for K0 in (0.0, -2.8e-6, math.nan):
        with pytest.raises(ValueError, match="volume scale K0 must be positive and finite"):
            _study_geometry(K0=K0)
    geo = _study_geometry()
    for fluid in ({"Gamma0": math.inf, "rho": 1e3}, {"Gamma0": 2e9, "rho": math.inf},
                  {"Gamma0": 2e9, "rho": math.nan}):
        with pytest.raises(ValueError, match="finite"):
            FluidParams(**fluid)
    fluid = FluidParams(Gamma0=2e9, rho=1e3)
    for m, R in ((math.inf, 5.0), (math.nan, 5.0), (0.25, math.inf), (0.25, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            PlantParams(geometry=geo, fluid=fluid, m=m, R=R)


def test_area_scale_below_the_normal_range_rejected():
    """K0 / L0 below the smallest normal float is rejected; at that bound, and
    at the longest L0 whose square is finite, both areas at both ends of the
    travel stay nonzero, so the flows never divide by a zero area."""
    tiny = sys.float_info.min
    for L0, K0 in ((1000.0, 5e-324), (1000.0, 1000.0 * tiny / 2), (30e-3, 1e-310)):
        with pytest.raises(ValueError, match=r"area scale K0 / L0 = .* is below the smallest"):
            _study_geometry(L0=L0, K0=K0)
    for L0 in (30e-3, 1000.0, 1e154):
        geo = _study_geometry(L0=L0, K0=L0 * tiny)
        assert geo.K0 / geo.L0 >= tiny
        for x in geo.position_bounds():
            g = geometry_terms(x, geo)
            assert g.A1 < 0.0 < g.A2 and min(-g.A1, g.A2) >= 0.714 * tiny, (L0, x, g)


def test_position_bounds_are_open_interval():
    geo = _study_geometry()
    lo, hi = geo.position_bounds()
    assert lo == pytest.approx(-geo.x0 + 1e-6)
    assert hi == pytest.approx(geo.x_M - geo.x0 - 1e-6)


# --------------------------------------------------------------------------
# Pouch kinematics: the geometry the closed-form volume law was derived from,
# kept here as its oracle.

def pouch_length(theta, geometry):
    """Actuator length as a function of the half central angle theta.

    Returns ``L0 * sin(theta) / theta`` with the analytic limit ``L0`` at
    ``theta = 0``.
    """
    if not 0.0 <= theta < math.pi:
        raise DomainError(f"half central angle {theta!r} outside [0, pi)")
    if theta == 0.0:
        return geometry.L0
    return geometry.L0 * math.sin(theta) / theta


def pouch_volume(theta, geometry):
    """Internal volume of one actuator as a function of the half central angle."""
    if not 0.0 <= theta < math.pi:
        raise DomainError(f"half central angle {theta!r} outside [0, pi)")
    if theta == 0.0:
        return 0.0
    return geometry.K0 * (theta - math.cos(theta) * math.sin(theta)) / theta**2


def test_pouch_length_limit_and_values():
    geo = _study_geometry()
    assert pouch_length(0.0, geo) == geo.L0
    assert pouch_length(math.pi / 2, geo) == pytest.approx(0.019099, rel=1e-4)
    assert pouch_length(math.pi / 6, geo) == pytest.approx(0.028648, rel=1e-4)


def test_pouch_length_rejects_out_of_range():
    geo = _study_geometry()
    for theta in (-0.1, math.pi, 4.0):
        with pytest.raises(DomainError):
            pouch_length(theta, geo)


def test_pouch_volume_limit_values_and_monotonicity():
    geo = _study_geometry()
    assert pouch_volume(0.0, geo) == 0.0
    assert pouch_volume(math.pi / 2, geo) == pytest.approx(geo.K0 * 2 / math.pi, rel=1e-12)
    assert pouch_volume(0.6, geo) > pouch_volume(0.3, geo)


def test_volume_small_angle_consistency():
    """The closed-form volume-vs-contraction law agrees with the pouch
    kinematics it was derived from: evaluating it at the exact contraction
    u = L0 - L(theta) reproduces pouch_volume(theta) within 2% up to
    theta = 0.6 rad."""
    geo = _study_geometry()
    for theta in np.linspace(0.05, 0.6, 23):
        u = geo.L0 - pouch_length(float(theta), geo)
        x = u - geo.x0
        closed_form = geometry_terms(x, geo).V2 - geo.V0
        direct = pouch_volume(float(theta), geo)
        assert abs(closed_form - direct) / direct < 0.02, theta


# --------------------------------------------------------------------------
# Volumes and their derivatives.

def test_volume_hand_values():
    geo = _study_geometry()
    # contraction of actuator 2 equal to L0/6
    V2 = geometry_terms(1.25e-3, geo).V2
    assert V2 == pytest.approx(geo.K0 * (7.0 / 12.0) + geo.V0, rel=1e-12)
    assert V2 == pytest.approx(1.73333e-6, rel=1e-4)
    # symmetric configuration
    g = geometry_terms(0.0, geo)
    assert g.V1 == g.V2
    assert g.V1 == pytest.approx(1.5651e-6, rel=1e-4)


def test_volume_gradient_hand_value():
    geo = _study_geometry()
    A2 = geometry_terms(1.25e-3, geo).A2
    assert A2 == pytest.approx(1.25 * geo.K0 / geo.L0, rel=1e-12)
    assert A2 == pytest.approx(1.1667e-4, rel=1e-4)


def test_symmetric_configuration_relations():
    geo = _study_geometry()
    assert geo.x0 == geo.x_M / 2
    g = geometry_terms(0.0, geo)
    assert g.A1 == pytest.approx(-g.A2, rel=1e-14)
    assert g.dA1 == pytest.approx(g.dA2, rel=1e-14)


def test_curvature_scales_linearly_with_K0():
    geo = _study_geometry()
    doubled = _study_geometry(K0=2 * geo.K0)
    for x in (-2e-3, 0.0, 2.5e-3):
        a = geometry_terms(x, geo)
        b = geometry_terms(x, doubled)
        assert b.dA1 == pytest.approx(2 * a.dA1, rel=1e-14)
        assert b.dA2 == pytest.approx(2 * a.dA2, rel=1e-14)


def test_domain_error_names_offending_actuator():
    geo = _study_geometry()
    with pytest.raises(DomainError, match="actuator 2"):
        geometry_terms(-geo.x0, geo)
    with pytest.raises(DomainError, match="actuator 1"):
        geometry_terms(geo.x_M - geo.x0, geo)
    # A NaN position is outside the domain, not silently inside it.
    with pytest.raises(DomainError):
        geometry_terms(math.nan, geo)


def _public_parameters():
    """(public name, function name, parameter names) of every function in
    ``antago.__all__`` and of every public method of its classes."""
    for name in antago.__all__:
        obj = getattr(antago, name)
        if inspect.isclass(obj):
            # Methods only: a constructor's parameters are its data fields.
            funcs = [f for attr, f in vars(obj).items()
                     if inspect.isfunction(f) and not attr.startswith("__")]
        else:
            funcs = [obj] if callable(obj) else []
        for f in funcs:
            yield name, f.__name__, set(inspect.signature(f).parameters)


def test_domain_defined_in_one_place():
    """No public callable moves the domain boundary, and the geometry kernels
    and the integrated field agree with ``position_bounds`` at both ends."""
    for name, func, parameters in _public_parameters():
        assert "margin" not in parameters, (name, func)

    params = _study_params()
    geo = params.geometry
    gains = ControllerGains(k_p=1.0, k_m=2.0, k_i=10.0, alpha=10.0)
    free = ForceModel("constant", 0.0)

    def field(x):
        return augmented_field(PlantState(x, 0.0, 0.0, 0.0), 0.0, gains, 0.0, free, params)

    kernels = (lambda x: geometry_terms(x, geo), field)
    lo, hi = geo.position_bounds()
    step = 1e-12
    for evaluate in kernels:
        for inside in (lo + step, hi - step):
            evaluate(inside)
        for outside in (lo - step, hi + step):
            with pytest.raises(DomainError):
                evaluate(outside)


def test_run_configuration_checked_where_built():
    """A scenario has no separate validate step: it checks itself on
    construction. One table names the integrators, for ``SolverSettings`` and
    for the CLI's ``--method``."""
    assert not hasattr(ScenarioConfig, "validate")
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command in ("run", "sweep"):
        method = next(a for a in commands[command]._actions if a.dest == "method")
        assert list(method.choices) == sorted(engine.STEPPERS), command
    with pytest.raises(ValueError) as info:
        SolverSettings(method="euler")
    assert str(info.value) == "unknown solver method 'euler'"


def test_bounds_fixed_in_one_place():
    """Gain validation and the verify suites take no evaluation mass, pass
    bound, sample count or preset list from their caller."""
    knobs = {"M_eval", "bound", "rel_bound", "samples", "points", "presets"}
    for func in (antago.validate_gains, *antago.verify.SUITES.values()):
        assert not knobs & set(inspect.signature(func).parameters), func.__name__


def test_one_observer_gain():
    """The public names are unique and resolve, the point functions take the
    force estimate and the setpoint as floats, and the observer gain has one
    home: no callable takes both the gain set and a separate alpha."""
    assert len(set(antago.__all__)) == len(antago.__all__)
    for name in antago.__all__:
        assert hasattr(antago, name), name
    for name, func, parameters in _public_parameters():
        assert not parameters & {"obs", "setpoint"}, (name, func)
        assert not {"gains", "alpha"} <= parameters, (name, func)


# The package's public names, listed so that a name enters or leaves on purpose.
PUBLIC_NAMES = {
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
}


def test_public_surface_is_pinned():
    """``antago.__all__`` is exactly the listed names, and the stepper mapping
    and the pouch kinematics, which only the tests use, are not in the
    package (``tests/stepper_mapping.py`` and the oracle above hold them)."""
    assert len(PUBLIC_NAMES) == 47
    assert set(antago.__all__) == PUBLIC_NAMES
    test_side = ("StepperParams", "min_jerk_position", "min_jerk_velocity",
                 "stepper_target", "stepper_target_digital",
                 "stepper_target_empirical", "pouch_length", "pouch_volume")
    for module in (antago, antago.plant, antago.controller):
        for name in test_side:
            assert not hasattr(module, name), (module.__name__, name)


def test_gradients_match_finite_differences():
    geo = _study_geometry()
    lo, hi = geo.position_bounds()
    rng = np.random.default_rng(42)
    h = 1e-8
    for x in rng.uniform(lo + 1e-4, hi - 1e-4, size=20):
        x = float(x)
        g = geometry_terms(x, geo)
        up = geometry_terms(x + h, geo)
        dn = geometry_terms(x - h, geo)
        for V, A, dA in (("V1", "A1", "dA1"), ("V2", "A2", "dA2")):
            fd_A = (getattr(up, V) - getattr(dn, V)) / (2 * h)
            assert getattr(g, A) == pytest.approx(fd_A, rel=1e-6)
            fd_dA = (getattr(up, A) - getattr(dn, A)) / (2 * h)
            assert getattr(g, dA) == pytest.approx(fd_dA, rel=1e-5)


def test_in_domain_sweep_signs_and_bounds():
    geo = _study_geometry()
    lo, hi = geo.position_bounds()
    for x in np.linspace(lo, hi, 201):
        g = geometry_terms(float(x), geo)
        assert g.V1 > geo.V0 and g.V2 > geo.V0
        assert g.A1 < 0 < g.A2
        assert math.isfinite(g.A1) and math.isfinite(g.A2)


# --------------------------------------------------------------------------
# Mass and energies.

def test_total_mass_values():
    params = _study_params()
    assert total_mass(0.0, params) == pytest.approx(0.25313, rel=1e-4)
    massless = PlantParams(geometry=params.geometry,
                           fluid=FluidParams(Gamma0=2e9, rho=0.0),
                           m=0.25, R=5.0)
    assert total_mass(0.0, massless) == 0.25
    lo, hi = params.geometry.position_bounds()
    for x in np.linspace(lo, hi, 51):
        assert total_mass(float(x), params) > params.m


def test_fluid_energy_zero_taylor_and_nonnegative():
    fluid = FluidParams(Gamma0=2e9, rho=1e3)
    assert fluid_energy(0.0, 1e-6, fluid) == 0.0
    # quadratic approximation regime
    P, V = 1e5, 1.5e-6
    approx = P * P * V / (2 * fluid.Gamma0)
    assert fluid_energy(P, V, fluid) == pytest.approx(approx, rel=1e-3)
    rng = np.random.default_rng(7)
    for P in rng.uniform(-1e6, 1e6, size=50):
        assert fluid_energy(float(P), V, fluid) >= 0.0
        assert pressure_potential(float(P), fluid) >= 0.0


def test_hamiltonian_zero_state_and_nonnegativity():
    params = _study_params()
    assert hamiltonian(PlantState(0.0, 0.0, 0.0, 0.0), params) == 0.0
    rng = np.random.default_rng(3)
    for state in _random_states(params, rng, 30):
        assert hamiltonian(state, params) >= 0.0


def test_hamiltonian_gradient_zero_state():
    params = _study_params()
    grad = hamiltonian_gradient(PlantState(0.0, 0.0, 0.0, 0.0), params)
    assert grad == (0.0, 0.0, 0.0, 0.0)


def test_hamiltonian_gradient_matches_finite_differences():
    params = _study_params()
    rng = np.random.default_rng(11)
    steps = (1e-8, 1e-7, 1e3, 1e3)
    for state in _random_states(params, rng, 20):
        grad = hamiltonian_gradient(state, params)
        for i, (g, h) in enumerate(zip(grad, steps)):
            vals = [state.x, state.p, state.P1, state.P2]
            vals[i] += h
            up = hamiltonian(PlantState(*vals), params)
            vals[i] -= 2 * h
            dn = hamiltonian(PlantState(*vals), params)
            fd = (up - dn) / (2 * h)
            scale = max(abs(g), abs(fd), 1e-20)
            assert abs(g - fd) / scale < 1e-6, (i, state)


def test_effective_pressure_force_small_pressure_limit():
    """The pressure term entering the momentum equation reduces to A*P for
    pressures far below the bulk modulus."""
    params = _study_params()
    g = geometry_terms(1e-3, params.geometry)
    P1 = 1e5
    dH_dP1 = hamiltonian_gradient(PlantState(1e-3, 0.0, P1, 0.0), params)[2]
    effective = params.fluid.Gamma0 * g.A1 / g.V1 * dH_dP1
    assert effective == pytest.approx(g.A1 * P1, rel=1e-3)


def test_generalized_force_equals_gradient_composition():
    """The compact momentum rate equals the port-Hamiltonian composition
    -dH/dx - R*dH/dp + (Gamma0*Ai/Vi)*dH/dPi exactly (the exponential terms
    cancel analytically)."""
    params = _study_params()
    rng = np.random.default_rng(19)
    for state in _random_states(params, rng, 40):
        g = geometry_terms(state.x, params.geometry)
        dHx, dHp, dHP1, dHP2 = hamiltonian_gradient(state, params)
        composed = (-dHx - params.R * dHp
                    + params.fluid.Gamma0 * g.A1 / g.V1 * dHP1
                    + params.fluid.Gamma0 * g.A2 / g.V2 * dHP2)
        compact = generalized_force(state, params)
        scale = max(abs(composed), abs(compact), 1e-20)
        assert abs(composed - compact) / scale < 1e-9


# --------------------------------------------------------------------------
# Open-loop field.

def test_open_loop_field_zero_equilibrium():
    params = _study_params()
    field = open_loop_field(PlantState(0.0, 0.0, 0.0, 0.0), 0.0, 0.0, 0.0, params)
    assert field == (0.0, 0.0, 0.0, 0.0)


def test_pressure_rows_vanish_when_flow_tracks_volume():
    params = _study_params()
    rng = np.random.default_rng(23)
    for state in _random_states(params, rng, 10):
        g = geometry_terms(state.x, params.geometry)
        M = total_mass(state.x, params)
        v = state.p / M
        field = open_loop_field(state, g.A1 * v, g.A2 * v, 0.0, params)
        assert abs(field[2]) < 1e-9 * max(1.0, abs(state.P1))
        assert abs(field[3]) < 1e-9 * max(1.0, abs(state.P2))


def test_pressure_rows_match_independent_computation():
    params = _study_params()
    rng = np.random.default_rng(29)
    for state in _random_states(params, rng, 10):
        U1 = float(rng.uniform(-1e-6, 1e-6))
        U2 = float(rng.uniform(-1e-6, 1e-6))
        field = open_loop_field(state, U1, U2, 0.0, params)
        g = geometry_terms(state.x, params.geometry)
        v = state.p / total_mass(state.x, params)
        assert field[2] == params.fluid.Gamma0 * (U1 - g.A1 * v) / g.V1
        assert field[3] == params.fluid.Gamma0 * (U2 - g.A2 * v) / g.V2
