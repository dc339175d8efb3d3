"""Force estimator: rate law and exact decay."""

import math
from dataclasses import replace

import numpy as np
import pytest

from antago.engine import ForceModel, fit_decay_rate, simulate
from antago.observer import observer_rate
from antago.plant import PlantState, generalized_force


def test_zero_state_zero_rate(params):
    assert observer_rate(PlantState(0.0, 0.0, 0.0, 0.0), 0.0, 10.0, params) == 0.0


def test_rate_vanishes_at_balanced_rest(params, fig2_runs):
    """At the settled end of a run the pressures balance the estimated force
    and the payload is at rest, so the integrator rate is (nearly) zero."""
    scenario, record = fig2_runs["fig2-F2"]
    state = PlantState(x=float(record["x"][-1]), p=float(record["p"][-1]),
                       P1=float(record["P1"][-1]), P2=float(record["P2"][-1]))
    F_hat, alpha = float(record["F_hat"][-1]), scenario.gains.alpha
    rate = observer_rate(state, F_hat, alpha, params)
    # scale: alpha * typical force level
    assert abs(rate) < 1e-3 * alpha * max(1.0, abs(F_hat))


def test_rate_is_alpha_times_force_mismatch(params):
    """The update law is alpha*(G - F_hat + alpha*p) built purely from
    measurable quantities."""
    rng = np.random.default_rng(5)
    lo, hi = params.geometry.position_bounds()
    for _ in range(20):
        state = PlantState(x=float(rng.uniform(lo + 1e-4, hi - 1e-4)),
                           p=float(rng.uniform(-0.1, 0.1)),
                           P1=float(rng.uniform(-5e4, 5e4)),
                           P2=float(rng.uniform(-5e4, 5e4)))
        F_hat = float(rng.uniform(-5, 5))
        alpha = float(rng.uniform(1, 15))
        expected = alpha * (generalized_force(state, params) - F_hat + alpha * state.p)
        assert observer_rate(state, F_hat, alpha, params) == pytest.approx(expected, rel=1e-12)


@pytest.fixture(scope="module")
def constant_force_run(study):
    scenario = replace(study, force=ForceModel("constant", 0.01), duration=1.2)
    record = simulate(scenario)
    assert record.status == "ok"
    return scenario, record


def test_error_decays_exponentially_at_rate_alpha(constant_force_run):
    scenario, record = constant_force_run
    rate = fit_decay_rate(record["t"], record["zeta"])
    assert rate == pytest.approx(scenario.gains.alpha, rel=1e-2)


def test_pointwise_exponential_solution(constant_force_run):
    """zeta(t) = zeta(0)*exp(-alpha*t) holds pointwise, not just on average."""
    scenario, record = constant_force_run
    alpha = scenario.gains.alpha
    t, zeta = record["t"], record["zeta"]
    zeta0 = zeta[0]
    assert zeta0 != 0.0
    mask = np.abs(zeta) > 1e-6 * abs(zeta0)
    exact = zeta0 * np.exp(-alpha * t[mask])
    rel = np.abs(zeta[mask] - exact) / np.abs(exact)
    assert rel.max() < 1e-3


def test_squared_error_decays_at_twice_alpha(constant_force_run):
    scenario, record = constant_force_run
    rate = fit_decay_rate(record["t"], record["zeta"] ** 2)
    assert rate == pytest.approx(2 * scenario.gains.alpha, rel=1e-2)


def test_decay_fit_handles_degenerate_input():
    assert math.isnan(fit_decay_rate(np.array([0.0, 1.0]), np.array([0.0, 0.0])))
