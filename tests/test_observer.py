"""Force estimator: rate law and exact decay."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from antago.engine import DECAY_FIT_FLOOR, ForceModel, fit_decay_rate, simulate
from antago.observer import observer_rate
from antago.plant import PlantState, generalized_force
from antago.scenario_io import load_preset


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


def test_decay_fit_without_time_spread_is_nan_without_warning():
    """Usable samples that all share one time (0.1 three times has an inexact
    mean) give no slope: nan, and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in ([1.0, 1.0, 1.0], [0.1, 0.1, 0.1]):
            assert math.isnan(fit_decay_rate(np.array(t), np.array([1.0, 0.5, 0.25])))


# The fit and scipy's linregress are two exact formulas for the same slope, so
# they differ only by rounding: a few ulps of the slope scale
# sqrt(sum(dy^2) / sum(dt^2)) per sample at most. At up to 2,001 samples that
# is below 2001 * 2.2e-16 < 5e-13 of it (3,000 random fits: at most 1.6e-15);
# the bound leaves a factor of two over the estimate.
_LINREGRESS_BOUND = 1e-12


def _linregress_rate(t, values):
    """The decay rate by scipy.stats.linregress over the samples the fit keeps
    (above DECAY_FIT_FLOOR and 1e-6 of the first magnitude), or nan when they
    are fewer than two or share one time; and the slope scale."""
    from scipy.stats import linregress

    v = np.abs(values)
    lim = max(DECAY_FIT_FLOOR, 1e-6 * v[0])
    keep = v > lim
    if keep.sum() < 2 or np.ptp(t[keep]) == 0:
        return float("nan"), 0.0
    y = np.log(v[keep])
    scale = math.sqrt(np.sum((y - y.mean()) ** 2) / np.sum((t[keep] - t[keep].mean()) ** 2))
    return -linregress(t[keep], y).slope, scale


def _assert_matches_linregress(t, values):
    expected, scale = _linregress_rate(t, values)
    rate = fit_decay_rate(t, values)
    if math.isnan(expected):
        assert math.isnan(rate)
    else:
        assert abs(rate - expected) <= _LINREGRESS_BOUND * scale, (rate, expected, scale)


def test_decay_fit_matches_linregress_on_presets(fig2_runs):
    """The fitted |zeta| rate of each preset run agrees with scipy's
    regression (multistep holds zeta at zero, and both give nan)."""
    pytest.importorskip("scipy")
    records = [record for _, record in fig2_runs.values()]
    records.append(simulate(load_preset("multistep")))
    fitted = 0
    for record in records:
        _assert_matches_linregress(record["t"], record["zeta"])
        fitted += math.isfinite(fit_decay_rate(record["t"], record["zeta"]))
    assert fitted == 3


def test_decay_fit_matches_linregress_property():
    """Drawn noisy decays, growths and flat runs, on sorted times with
    repeats, agree with scipy's regression."""
    pytest.importorskip("scipy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @hypothesis.given(
        ticks=st.lists(st.integers(0, 10**6), min_size=2, max_size=200),
        rate=st.floats(-5.0, 50.0),
        noise=st.lists(st.floats(-1.0, 1.0), min_size=200, max_size=200),
        sign=st.sampled_from((1.0, -1.0)))
    def check(ticks, rate, noise, sign):
        t = 1e-4 * np.sort(np.array(ticks, dtype=float))   # times in [0, 100] s
        hypothesis.assume(t[0] < t[-1])
        values = sign * np.exp(-rate * (t - t[0]) + np.array(noise[:len(t)]))
        _assert_matches_linregress(t, values)

    check()
