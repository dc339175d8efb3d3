"""Shared fixtures: the reference scenarios, their simulated records and the
expensive solver cross-check runs, each simulated once per session."""

from dataclasses import replace

import pytest

from antago.engine import SolverSettings, simulate, simulate_open_loop
from antago.plant import PlantState
from antago.scenario_io import load_preset

FIG2_PRESETS = ("fig2-F1", "fig2-F2", "fig2-F3")


@pytest.fixture(scope="session")
def study():
    """Reference scenario with the tanh friction load."""
    return load_preset("fig2-F1")


@pytest.fixture(scope="session")
def params(study):
    return study.params


@pytest.fixture(scope="session")
def gains(study):
    return study.gains


@pytest.fixture(scope="session")
def fig2_runs():
    """All three reference scenarios simulated once per session.

    Maps preset name to (scenario, record).
    """
    runs = {}
    for name in FIG2_PRESETS:
        scenario = load_preset(name)
        runs[name] = (scenario, simulate(scenario))
    return runs


@pytest.fixture(scope="session")
def rk4_runs(fig2_runs):
    """Each reference scenario re-run with fixed-step rk4 at h = 1e-4."""
    return {name: simulate(replace(scenario, solver=replace(
                scenario.solver, method="rk4", fixed_step=1e-4)))
            for name, (scenario, _) in fig2_runs.items()}


@pytest.fixture(scope="session")
def halved_runs(fig2_runs):
    """Each reference scenario re-run with both solver tolerances halved."""
    return {name: simulate(replace(scenario, solver=replace(
                scenario.solver, rel_tol=scenario.solver.rel_tol / 2,
                abs_tol=scenario.solver.abs_tol / 2)))
            for name, (scenario, _) in fig2_runs.items()}


@pytest.fixture(scope="session")
def lossless_run(params):
    """Unforced open loop with damping zero: rk4 at h = 6e-7 over 0.1 s.
    Returns (times, states, H)."""
    init = PlantState(x=5e-4, p=0.0, P1=2e4, P2=1e4)
    solver = SolverSettings(method="rk4", fixed_step=6e-7, sample_dt=1e-3)
    return simulate_open_loop(params, init, 0.1, solver, R_override=0.0)
