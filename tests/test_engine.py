"""Simulation engine: force models, integration, diagnostics, robustness."""

import inspect
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from antago import engine
from antago.controller import control_flows, desired_energy, sigma
from antago.engine import (
    CHANNELS,
    ForceModel,
    ScenarioConfig,
    SolverSettings,
    augmented_field,
    diagnostics,
    simulate,
    simulate_open_loop,
)
from antago.errors import DomainError, ScenarioError, SolverError
from antago.plant import (
    PlantState,
    geometry_terms,
    geometry_terms_array,
    hamiltonian,
    open_loop_field,
    total_mass,
)
from antago.scenario_io import load_preset

STATE_CHANNELS = ("x", "p", "P1", "P2")


# --------------------------------------------------------------------------
# Force models.

def test_force_model_kinds():
    assert ForceModel("constant", 2.5)(0.0, 1.0) == 2.5
    assert ForceModel("tanh_friction", 5.0)(0.0, 0.0) == 0.0
    assert ForceModel("spring", 10.0)(1e-3, 0.0) == pytest.approx(0.01)
    assert ForceModel("spring", -10.0)(1e-3, 0.0) == pytest.approx(-0.01)
    with pytest.raises(ValueError):
        ForceModel("ramp", 1.0)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ForceModel("constant", value)


def test_tanh_friction_saturates():
    f = ForceModel("tanh_friction", 5.0)
    assert f(0.0, 50.0) == pytest.approx(5.0, rel=1e-12)
    assert f(0.0, -50.0) == pytest.approx(-5.0, rel=1e-12)


# --------------------------------------------------------------------------
# Scenario validation.

def test_scenario_validation_errors(study):
    """A scenario checks itself on construction, so each bad ``replace``
    raises; the good ones construct."""
    for duration in (0.0, math.inf, math.nan):
        with pytest.raises(ScenarioError):
            replace(study, duration=duration)
    with pytest.raises(ScenarioError):
        replace(study, setpoints=((1.0, 1e-3),))
    with pytest.raises(ScenarioError):
        replace(study, setpoints=((0.0, 1e-3), (0.5, 2e-3), (0.5, 1e-3)))
    with pytest.raises(Exception):
        replace(study, setpoints=((0.0, 5e-3),))  # out of travel
    with pytest.raises(ScenarioError):
        replace(study, initial=PlantState(5e-3, 0.0, 0.0, 0.0))
    with pytest.raises(ScenarioError, match="finite"):
        replace(study, setpoints=((0.0, 1e-3), (math.inf, 2e-3)))
    for initial in (PlantState(math.nan, 0.0, 0.0, 0.0), PlantState(0.0, math.inf, 0.0, 0.0),
                    PlantState(0.0, 0.0, math.nan, 0.0), PlantState(0.0, 0.0, 0.0, -math.inf)):
        with pytest.raises(ScenarioError, match="finite"):
            replace(study, initial=initial)
    for F_hat0 in (math.nan, math.inf):
        with pytest.raises(ScenarioError, match="finite"):
            replace(study, F_hat0=F_hat0)
    # Cost budgets are checked from the settings alone, before any allocation.
    with pytest.raises(ScenarioError, match="budget of 1000000 samples"):
        replace(study, duration=1e9)
    replace(study, duration=0.5 * engine.MAX_SAMPLES * study.solver.sample_dt)
    tiny_step = replace(study.solver, fixed_step=1e-12)
    replace(study, solver=tiny_step)   # rk23 never takes the fixed step
    with pytest.raises(ScenarioError, match="budget of 10000000 rk4 steps"):
        replace(study, solver=replace(tiny_step, method="rk4"))


def test_record_reaches_the_end_of_the_run(study):
    """The record ends at the last grid time, one sample per ``sample_dt``
    step, also where rounding the grid times to 15 decimals lifts that time a
    little above the duration (2/3 s)."""
    scenario = replace(study, duration=2 / 3)
    record = simulate(scenario)
    assert record.status == "ok"
    assert len(record) == math.ceil(scenario.duration / scenario.solver.sample_dt) + 1
    assert record["t"][-1] == pytest.approx(scenario.duration, abs=1e-15)


def test_solver_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(method="euler")
    for bad in ({"rel_tol": 0.0}, {"rel_tol": math.nan}, {"abs_tol": math.inf},
                {"max_step": math.nan}, {"fixed_step": math.inf}, {"sample_dt": math.nan}):
        with pytest.raises(ValueError):
            SolverSettings(**bad)


# --------------------------------------------------------------------------
# Simulation behaviour.

def test_equilibrium_stays_put(study):
    scenario = replace(study, force=ForceModel("constant", 0.0), duration=1.0,
                       setpoints=((0.0, 1e-3),),
                       initial=PlantState(1e-3, 0.0, 0.0, 0.0))
    record = simulate(scenario)
    assert record.status == "ok"
    assert np.max(np.abs(record["x"] - 1e-3)) <= 1e-10
    assert np.max(np.abs(record["p"])) <= 1e-10


def test_substituted_field_matches_raw_composition(study):
    """The integrated (non-stiff) pressure rows equal the raw composition of
    plant pressure dynamics with the commanded flows, at sampled states."""
    params, gains = study.params, study.gains
    x_star = 1e-3
    force = ForceModel("constant", 0.0)
    lo, hi = params.geometry.position_bounds()
    rng = np.random.default_rng(61)
    for _ in range(30):
        state = PlantState(x=float(rng.uniform(lo + 2e-4, hi - 2e-4)),
                           p=float(rng.uniform(-0.05, 0.05)),
                           P1=float(rng.uniform(-3e4, 3e4)),
                           P2=float(rng.uniform(-3e4, 3e4)))
        F_hat = float(rng.uniform(-3, 3))
        fast = augmented_field(state, F_hat, gains, x_star, force, params)
        U1, U2 = control_flows(state, F_hat, gains, x_star, params)
        raw = open_loop_field(state, U1, U2, force.value, params)
        for a, b in zip(fast[:4], raw):
            scale = max(abs(a), abs(b), 1e-20)
            assert abs(a - b) / scale < 1e-9


def test_inlined_geometry_matches_kernel(study):
    """The geometry inlined in the closed-loop and open-loop right-hand sides
    equals the plant kernel, read back through inputs that isolate each term,
    across the admissible range; the array kernel equals the scalar one."""
    params, gains = study.params, study.gains
    geo = params.geometry
    free = ForceModel("constant", 0.0)
    kpkm = gains.k_p * gains.k_m

    open_rhs = engine._make_open_rhs(params, params.R)

    lo, hi = geo.position_bounds()
    xs = np.linspace(lo, hi, 52)[1:-1]
    arr = geometry_terms_array(xs, geo)
    for i, x in enumerate(xs.tolist()):
        g = geometry_terms(x, geo)
        for name in ("V1", "V2", "A1", "A2"):
            assert getattr(arr, name)[i] == getattr(g, name)
        for name in ("dA1", "dA2"):
            assert abs(getattr(arr, name)[i] - getattr(g, name)) <= math.ulp(getattr(g, name))
        M = params.m + (g.V1 + g.V2) * params.fluid.rho

        def closed(p, P1, P2, F_hat):
            return augmented_field(PlantState(x, p, P1, P2), F_hat, gains, x, free, params)

        # At rest the momentum rate is A1*P1 + A2*P2; at p = 1 the velocity is 1/M.
        assert closed(0.0, 1.0, 0.0, 0.0)[1] == g.A1
        assert closed(0.0, 0.0, 1.0, 0.0)[1] == g.A2
        assert closed(1.0, 0.0, 0.0, 0.0)[0] == 1.0 / M
        # With sigma = 0 the pressure rate is the curvature-carrying shear term.
        for row, dA, A in ((2, g.dA1, g.A1), (3, g.dA2, g.A2)):
            P1, P2 = (1.0, 0.0) if row == 2 else (0.0, 1.0)
            shear = (1.0 + gains.k_m * (dA + kpkm)) * (1.0 / M) / (2.0 * gains.k_m)
            assert closed(1.0, P1, P2, A)[row] == -shear / A

        assert open_rhs(0.0, x, 0.0, 1.0, 0.0, 0.0)[1] == g.A1
        assert open_rhs(0.0, x, 0.0, 0.0, 1.0, 0.0)[1] == g.A2
        moving = open_rhs(0.0, x, 1.0, 0.0, 0.0, 0.0)
        assert moving[0] == 1.0 / M
        Gamma0 = params.fluid.Gamma0
        assert moving[2:4] == (-Gamma0 * (g.A1 * (1.0 / M)) / g.V1,
                               -Gamma0 * (g.A2 * (1.0 / M)) / g.V2)


def test_simulation_is_deterministic(study):
    """Reruns give equal records, also when a channel holds NaN."""
    short = replace(study, duration=0.5)
    assert simulate(short) == simulate(short)
    nan_force = replace(study, force=NaNForce("constant", 0.0), duration=0.1)
    record = simulate(nan_force)
    assert np.isnan(record["F_true"]).any()
    assert record == record
    assert record == simulate(nan_force)


def test_sample_grid_and_channels(fig2_runs):
    _, record = fig2_runs["fig2-F1"]
    t = record["t"]
    assert len(record) == 2001
    assert t[0] == 0.0 and t[-1] == pytest.approx(10.0)
    assert np.allclose(np.diff(t), 5e-3, atol=1e-12)
    table = record.table
    assert table.shape == (2001, len(CHANNELS))
    assert table.dtype == np.float64 and table.flags.c_contiguous


def test_record_channels_are_views_of_its_table(fig2_runs):
    """``record[name]`` is column ``CHANNELS.index(name)`` of the one table,
    sharing its memory; an unknown channel is a KeyError."""
    _, record = fig2_runs["fig2-F1"]
    for i, name in enumerate(CHANNELS):
        column = record[name]
        assert np.shares_memory(column, record.table), name
        assert np.array_equal(column, record.table[:, i])
    with pytest.raises(KeyError):
        record["nope"]


def test_sample_grid_memo_matches_a_fresh_grid():
    """The one-entry memo of the sample grid hands every caller the grid the
    plain function builds, bit for bit and as a tuple, for the presets, the
    1.2 s observer-decay run and an int duration next to the equal float; a
    changed argument never gets the previous grid."""
    memo = engine._sample_grid
    keys = [(sc.duration, sc.solver.sample_dt, tuple(t for t, _ in sc.setpoints))
            for sc in map(load_preset, ("fig2-F1", "fig2-F2", "fig2-F3", "multistep"))]
    keys.append((1.2, 5e-3, (0.0,)))
    # 3 * (2**52 + 1) is exact as an int and rounds as a float, so the int
    # duration's grid differs from the equal float's.
    big = 2**52 + 1
    int_key, float_key = (big, big / 5, ()), (float(big), big / 5, ())
    assert memo.__wrapped__(*int_key) != memo.__wrapped__(*float_key)
    keys += [float_key, int_key, float_key]
    for key in keys + keys[::-1]:
        grid = memo(*key)
        assert type(grid) is tuple
        assert [v.hex() for v in grid] == [v.hex() for v in memo.__wrapped__(*key)], key
        assert memo(*key) is grid


def test_setpoint_schedule_steps():
    scenario = load_preset("multistep")
    record = simulate(scenario)
    assert record.status == "ok"
    xs = record["x_star"]
    t = record["t"]
    assert np.all(xs[t < 4.0] == 1e-3)
    assert np.all(xs[(t >= 4.0) & (t < 7.0)] == 2e-3)
    assert np.all(xs[t >= 7.0] == -1e-3)
    # the position actually tracks each step
    assert abs(record["x"][t == 3.995][0] - 1e-3) < 5e-5
    assert abs(record["x"][t == 6.995][0] - 2e-3) < 2e-4
    assert abs(record["x"][-1] - (-1e-3)) < 3e-4


@pytest.mark.parametrize("exact, rounded", [(0.3, 0.1 * 3), (2.0, 2.0000000000000004),
                                            (2.0, 1.9999999999999998)])
def test_setpoint_time_within_rounding_of_a_sample(exact, rounded):
    """A setpoint time an ulp off a sample time takes that sample's place,
    instead of leaving a step below rk23's floor, and the run matches the one
    at the exact time."""
    base = load_preset("multistep")

    def run(t):
        return simulate(replace(base, setpoints=(base.setpoints[0], (t, 2e-3),
                                                 base.setpoints[2])))

    reference, record = run(exact), run(rounded)
    assert record.status == "ok" and len(record) == 2001
    assert rounded in record["t"]
    x = reference["x"]
    assert np.max(np.abs(record["x"] - x)) <= 1e-8 * np.max(np.abs(x))


def test_setpoint_time_within_rounding_of_a_run_time_is_rejected():
    """A setpoint time within rounding of time 0, of the previous setpoint
    time or of the duration would leave rk23 a step below its floor; the
    scenario rejects it on construction. Just outside that margin, and at or
    after the duration, the run ends ok."""
    base = load_preset("multistep")
    first, _, last = base.setpoints
    for setpoints in ((first, (1e-12, 2e-3), last),
                      (first, (4.002, 2e-3), (4.002 + 4e-12, 1e-3), last),
                      (first, (4.0, 2e-3), (4.000000000000001, 1e-3), last),
                      (first, (10.0 - 1e-11, 2e-3))):
        with pytest.raises(ScenarioError, match="within rounding"):
            replace(base, setpoints=setpoints)
    for setpoints in ((first, (2e-12, 2e-3), last),
                      (first, (4.002, 2e-3), (4.002 + 1e-11, 1e-3), last),
                      (first, (10.0 - 2e-11, 2e-3)),
                      (first, (10.0, 2e-3)),
                      (first, (10.000000000000002, 2e-3))):
        record = simulate(replace(base, setpoints=setpoints))
        assert record.status == "ok" and len(record) >= 2001, setpoints


def test_domain_exit_reported(study):
    pushed = replace(study, force=ForceModel("constant", 0.5), duration=2.0)
    record = simulate(pushed)
    assert record.status == "domain-exit"
    assert "actuator" in record.detail
    assert len(record) >= 1
    assert record["t"][-1] < 2.0


class NaNForce(ForceModel):
    def __call__(self, x, xdot):
        return math.nan


def test_nan_state_ends_in_domain_exit(study):
    """A NaN position fails the domain check, in the integrated field and in
    a run, instead of passing it and filling the record with NaN."""
    nan_state = PlantState(math.nan, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        augmented_field(nan_state, 0.0, study.gains, 1e-3, study.force, study.params)

    record = simulate(replace(study, force=NaNForce("constant", 0.0), duration=0.1))
    assert record.status == "domain-exit"
    assert "state=(nan" in record.detail
    assert np.all(np.isfinite(record["x"]))


def test_observer_initialization_default_and_override(study):
    moving = replace(study, initial=PlantState(0.0, 0.01, 0.0, 0.0), duration=0.05)
    record = simulate(moving)
    # default F_hat(0) = alpha * p(0) makes the initial estimate unbiased
    assert record["F_hat"][0] == pytest.approx(study.gains.alpha * 0.01)
    assert record["F_tilde"][0] == 0.0
    pinned = replace(moving, F_hat0=0.3)
    assert simulate(pinned)["F_hat"][0] == 0.3


# --------------------------------------------------------------------------
# Record channels against the scalar plant and controller functions.

# Channels whose array expressions repeat the scalar arithmetic operation for
# operation. For H, H_d and Psi numpy squares and takes expm1 where the scalar
# functions call libm pow and expm1, so they may differ in the last bits.
EXACT_CHANNELS = ("xdot", "U1", "U2", "F_tilde", "F_true", "zeta", "sigma", "x_star")
ULP_CHANNELS = ("H", "H_d", "Psi")


@pytest.fixture(scope="module")
def oracle_runs(fig2_runs):
    """The four presets, a run ending in a domain exit after its first setpoint
    segment, and a short run that never reaches the symmetric configuration."""
    runs = dict(fig2_runs)
    multistep = load_preset("multistep")
    exiting = replace(multistep, setpoints=((0.0, 0.0), (2.0, 3e-3)), duration=6.0,
                      gains=replace(multistep.gains, alpha=20.0))
    offset = replace(runs["fig2-F1"][0], initial=PlantState(1e-3, 0.0, 0.0, 0.0),
                     setpoints=((0.0, 2e-3),), duration=0.5)
    for name, scenario in (("multistep", multistep), ("domain-exit", exiting),
                           ("offset", offset)):
        runs[name] = (scenario, simulate(scenario))
    assert runs["domain-exit"][1].status == "domain-exit"
    assert len(runs["domain-exit"][1]) > 100
    return runs


def _oracle_channels(scenario, t, x, p, P1, P2, F_hat):
    """The derived channels of one sample, from the scalar functions."""
    params, gains = scenario.params, scenario.gains
    state = PlantState(x, p, P1, P2)
    x_star = [xs for ts, xs in scenario.setpoints if ts <= t][-1]
    xdot = p / total_mass(x, params)
    F_true = scenario.force(x, xdot)
    F_tilde = F_hat - gains.alpha * p
    U1, U2 = control_flows(state, F_hat, gains, x_star, params)
    H_d, Psi = desired_energy(state, F_hat, F_true, gains, x_star, params)
    return {"xdot": xdot, "U1": U1, "U2": U2, "F_tilde": F_tilde, "F_true": F_true,
            "zeta": F_tilde - F_true,
            "sigma": sigma(state, F_hat, gains, x_star, params.geometry).value,
            "x_star": x_star, "H": hamiltonian(state, params), "H_d": H_d, "Psi": Psi}


def test_record_channels_match_scalar_oracles(oracle_runs):
    for name, (scenario, record) in oracle_runs.items():
        n = len(record)
        for i in [*range(0, n, 50), n - 1]:
            row = {ch: float(record[ch][i]) for ch in CHANNELS}
            expected = _oracle_channels(scenario, *(row[ch] for ch in
                                                     ("t", "x", "p", "P1", "P2", "F_hat")))
            for ch in EXACT_CHANNELS:
                assert row[ch] == expected[ch], (name, i, ch)
            for ch in ULP_CHANNELS:
                assert abs(row[ch] - expected[ch]) <= 4 * math.ulp(expected[ch]), (name, i, ch)


def test_diagnostics_match_scalar_loop(oracle_runs):
    """The vectorised geometry checks of diagnostics equal a per-sample loop
    over the scalar geometry."""
    crossed_seen = set()
    for name, (scenario, record) in oracle_runs.items():
        summary = diagnostics(record, scenario.gains, scenario.params)
        terms = [geometry_terms(x, scenario.params.geometry) for x in record["x"].tolist()]
        sum_grad = np.array([g.A1 + g.A2 for g in terms])
        scale = np.array([abs(g.A1) + abs(g.A2) for g in terms])
        crossed = bool(np.any(np.abs(sum_grad) <= 1e-6 * scale)
                       or np.any(np.sign(sum_grad[:-1]) * np.sign(sum_grad[1:]) < 0))
        balance = (record["P1"][-1] * terms[-1].A1 + record["P2"][-1] * terms[-1].A2
                   - record["F_hat"][-1])
        assert summary.crossed_symmetric == crossed, name
        assert summary.force_balance_residual == balance, name
        crossed_seen.add(crossed)
    assert crossed_seen == {True, False}


# --------------------------------------------------------------------------
# Diagnostics.

def test_diagnostics_requires_samples(study):
    from antago.engine import TrajectoryRecord
    empty = TrajectoryRecord(np.empty((0, len(CHANNELS))))
    with pytest.raises(ValueError):
        diagnostics(empty, study.gains, study.params)


def test_diagnostics_summary_fields(fig2_runs):
    scenario, record = fig2_runs["fig2-F2"]
    summary = diagnostics(record, scenario.gains, scenario.params)
    assert summary.samples == len(record)
    assert summary.status == "ok"
    assert abs(summary.x_error) < 1e-5
    assert abs(summary.force_balance_residual) < 1e-3
    assert 0.0 < summary.settle_time < 10.0
    # all reference runs start at the symmetric configuration
    assert summary.crossed_symmetric


def test_settle_time_ordering(fig2_runs):
    """The motion-favouring spring load settles strictly faster than the
    opposing one."""
    f2 = diagnostics(fig2_runs["fig2-F2"][1], *_gp(fig2_runs["fig2-F2"][0]))
    f3 = diagnostics(fig2_runs["fig2-F3"][1], *_gp(fig2_runs["fig2-F3"][0]))
    assert f3.settle_time < f2.settle_time


def _gp(scenario):
    return scenario.gains, scenario.params


# --------------------------------------------------------------------------
# Solver robustness.

def test_rk23_rk4_cross_check(fig2_runs, rk4_runs):
    for name, (scenario, record) in fig2_runs.items():
        rk4 = rk4_runs[name]
        scale = np.max(np.abs(record["x"]))
        err = np.max(np.abs(record["x"] - rk4["x"])) / scale
        assert err < 1e-5, (name, err)


def test_tolerance_halving_converged(fig2_runs, halved_runs):
    for name, (scenario, record) in fig2_runs.items():
        halved = halved_runs[name]
        for ch in STATE_CHANNELS:
            scale = max(np.max(np.abs(record[ch])), 1e-30)
            rel = abs(record[ch][-1] - halved[ch][-1]) / scale
            assert rel < 1e-8, (name, ch, rel)


def test_lossless_energy_conservation(lossless_run):
    """With damping, inputs and load all zero the Hamiltonian is conserved;
    the fixed-step integrator must hold the drift below 1e-8 relative over
    many oscillation periods."""
    t, states, H = lossless_run
    drift = np.max(np.abs(H - H[0])) / H[0]
    assert drift < 1e-8, drift
    # sanity: this really oscillates (many sign changes of the momentum)
    assert np.sum(np.abs(np.diff(np.sign(states[:, 1])))) > 100


def test_open_loop_passivity_with_damping(params, monkeypatch):
    """With damping on the unforced plant's energy must decay monotonically
    (up to sampling resolution). A run that leaves the domain raises
    ``DomainError``; a bad or over-budget duration, a non-finite or
    out-of-range initial state and a negative or non-finite ``R_override``
    raise ``ScenarioError`` before the sample grid is built."""
    init = PlantState(x=5e-4, p=0.0, P1=2e4, P2=1e4)
    solver = SolverSettings(method="rk23", rel_tol=1e-10, abs_tol=1e-12,
                            sample_dt=1e-3, max_step=1e-4)
    t, states, H = simulate_open_loop(params, init, 0.05, solver)
    assert H[-1] < H[0]
    assert np.max(np.diff(H)) < 1e-9 * H[0]

    with pytest.raises(DomainError, match=r"actuator 2 .* \(t=.*, state=\(-0\.00374"):
        simulate_open_loop(params, PlantState(0.0, -1e3, 0.0, 0.0), 0.05, SolverSettings())
    # the stepper reports its five states; the open loop's fifth is always zero
    with pytest.raises(SolverError, match=r"underflow at t=0\.0.*"
                                          r"state=\(0\.0005, 0\.001, 20000\.0, 10000\.0, 0\.0\)"):
        simulate_open_loop(params, PlantState(5e-4, 1e-3, 2e4, 1e4), 0.01,
                           SolverSettings(rel_tol=1e-30, abs_tol=1e-300))

    def no_grid(*args):
        raise AssertionError("a rejected input reached the sample grid")

    monkeypatch.setattr(engine, "_sample_grid", no_grid)
    for duration in (-1.0, 0.0, math.inf, math.nan, 1e9):
        with pytest.raises(ScenarioError):
            simulate_open_loop(params, init, duration, solver)
    with pytest.raises(ScenarioError, match="rk4 steps"):
        simulate_open_loop(params, init, 0.05, SolverSettings(method="rk4", fixed_step=1e-12))
    lo, hi = params.geometry.position_bounds()
    for bad in (replace(init, x=math.nan), replace(init, P2=math.inf), replace(init, x=lo),
                replace(init, x=hi)):
        with pytest.raises(ScenarioError, match="initial"):
            simulate_open_loop(params, bad, 0.05, solver)
    for R in (-5.0, -1e-300, math.inf, math.nan):
        with pytest.raises(ScenarioError, match="R_override"):
            simulate_open_loop(params, init, 0.05, solver, R_override=R)


def test_open_loop_takes_no_inputs():
    """The open loop integrates the unforced plant only: it takes no flow or
    load input and no option beyond the lossless override."""
    assert list(inspect.signature(simulate_open_loop).parameters) == [
        "params", "initial", "duration", "solver", "R_override"]


def test_rk23_matches_scipy_dop853(fig2_runs):
    """An integrator from outside the package: scipy's DOP853 at rtol 1e-12
    on the public field agrees with the rk23 runs within the rk23-vs-rk4
    bound."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    for name, (scenario, record) in fig2_runs.items():
        (_, x_star), = scenario.setpoints

        def field(t, y):
            x, p, P1, P2, F_hat = y.tolist()
            return augmented_field(PlantState(x, p, P1, P2), F_hat, scenario.gains,
                                   x_star, scenario.force, scenario.params)

        y0 = [record[ch][0] for ch in ("x", "p", "P1", "P2", "F_hat")]
        sol = solve_ivp(field, (0.0, record["t"][-1]), y0, method="DOP853",
                        rtol=1e-12, atol=1e-14, t_eval=record["t"])
        assert sol.success, (name, sol.message)
        err = np.max(np.abs(sol.y[0] - record["x"])) / np.max(np.abs(record["x"]))
        assert err < 1e-5, (name, err)


# --------------------------------------------------------------------------
# The steppers and right-hand sides against reference copies: the generic
# tuple loops and the right-hand sides written with every constant computed
# in place and every min/max a builtin call.

def _reference_make_rhs(params, gains, force, x_star, margin=engine.DOMAIN_MARGIN):
    """Reference form of ``engine._make_rhs``."""
    geo = params.geometry
    L0, K0, V0, x0, x_M = geo.L0, geo.K0, geo.V0, geo.x0, geo.x_M
    rho = params.fluid.rho
    m = params.m
    R = params.R
    k_p, k_m, k_i, alpha = gains.k_p, gains.k_m, gains.k_i, gains.alpha
    kpkm = k_p * k_m
    f = force
    sqrt = math.sqrt

    def rhs(t, x, p, P1, P2, F_hat):
        u1 = x_M - x - x0
        u2 = x + x0
        if not (u1 > margin and u2 > margin):
            side = 2 if u1 > margin else 1
            raise DomainError(f"actuator {side} reached the volume-model boundary "
                              f"(t={t:.6e}, state={(x, p, P1, P2, F_hat)})")
        s1 = sqrt(6.0 * u1 / L0)
        a1 = 2.0 / 3.0 - u1 / (2.0 * L0)
        s2 = sqrt(6.0 * u2 / L0)
        a2 = 2.0 / 3.0 - u2 / (2.0 * L0)
        V1 = K0 * a1 * s1 + V0
        V2 = K0 * a2 * s2 + V0
        A1 = -K0 * (-s1 / (2.0 * L0) + 3.0 * a1 / (L0 * s1))
        A2 = K0 * (-s2 / (2.0 * L0) + 3.0 * a2 / (L0 * s2))
        dA1 = K0 * (-3.0 / (L0 * L0 * s1) - 9.0 * a1 / (L0 * L0 * s1**3))
        dA2 = K0 * (-3.0 / (L0 * L0 * s2) - 9.0 * a2 / (L0 * L0 * s2**3))

        M = m + rho * (V1 + V2)
        v = p / M
        G = p * p * rho * (A1 + A2) / (2.0 * M * M) + A1 * P1 + A2 * P2 - R * v
        F = f(x, v)
        sig = P1 * A1 + P2 * A2 - F_hat + kpkm * (x - x_star)
        dsig = P1 * dA1 + P2 * dA2 + kpkm
        shear = (1.0 + k_m * dsig) * v / (2.0 * k_m)
        return (
            v,
            G - F,
            -shear / A1 - k_i * sig / A1,
            -shear / A2 - k_i * sig / A2,
            alpha * (G - F_hat + alpha * p),
        )

    return rhs


def _reference_open_rhs(params, R, margin=engine.DOMAIN_MARGIN):
    """Reference form of ``engine._make_open_rhs``: the textbook open loop
    with both flows and the load at zero."""
    geo = params.geometry
    L0, K0, V0, x0, x_M = geo.L0, geo.K0, geo.V0, geo.x0, geo.x_M
    rho = params.fluid.rho
    Gamma0 = params.fluid.Gamma0
    m = params.m
    sqrt = math.sqrt

    def rhs(t, x, p, P1, P2, zero):
        u1 = x_M - x - x0
        u2 = x + x0
        if not (u1 > margin and u2 > margin):
            side = 2 if u1 > margin else 1
            raise DomainError(f"actuator {side} reached the volume-model boundary "
                              f"(t={t:.6e}, state={(x, p, P1, P2)})")
        s1 = sqrt(6.0 * u1 / L0)
        a1 = 2.0 / 3.0 - u1 / (2.0 * L0)
        s2 = sqrt(6.0 * u2 / L0)
        a2 = 2.0 / 3.0 - u2 / (2.0 * L0)
        V1 = K0 * a1 * s1 + V0
        V2 = K0 * a2 * s2 + V0
        A1 = -K0 * (-s1 / (2.0 * L0) + 3.0 * a1 / (L0 * s1))
        A2 = K0 * (-s2 / (2.0 * L0) + 3.0 * a2 / (L0 * s2))
        M = m + rho * (V1 + V2)
        v = p / M
        G = p * p * rho * (A1 + A2) / (2.0 * M * M) + A1 * P1 + A2 * P2 - R * v
        return (v, G, Gamma0 * -(A1 * v) / V1, Gamma0 * -(A2 * v) / V2, 0.0)

    return rhs


def _reference_rk23_segment(rhs, y, t_grid, solver, h):
    """Tuple-loop form of ``engine._rk23_segment``."""
    rtol, atol, max_step = solver.rel_tol, solver.abs_tol, solver.max_step
    out = []
    t = t_grid[0]
    k1 = rhs(t, *y)
    for tg in t_grid[1:]:
        while t < tg:
            h = min(h, max_step, tg - t)
            if h < engine._MIN_STEP_FRACTION * max(1.0, abs(t)):
                raise SolverError(f"step size underflow at t={t:.6e} (state={y})")
            k2 = rhs(t + 0.5 * h, *(yi + 0.5 * h * k for yi, k in zip(y, k1)))
            k3 = rhs(t + 0.75 * h, *(yi + 0.75 * h * k for yi, k in zip(y, k2)))
            yn = tuple(yi + h * (2.0 * a + 3.0 * b + 4.0 * c) / 9.0
                       for yi, a, b, c in zip(y, k1, k2, k3))
            k4 = rhs(t + h, *yn)
            errn = 0.0
            for yi, yni, a, b, c, d in zip(y, yn, k1, k2, k3, k4):
                e = h * (-5.0 * a / 72.0 + b / 12.0 + c / 9.0 - d / 8.0)
                sc = atol + rtol * max(abs(yi), abs(yni))
                errn = max(errn, abs(e) / sc)
            if errn <= 1.0:
                t = tg if tg - t - h <= 1e-15 * max(1.0, abs(tg)) else t + h
                y = yn
                k1 = k4
            h *= min(5.0, max(0.2, 0.9 * (errn + 1e-300) ** (-1.0 / 3.0)))
        out.append(y)
    return out, h


def _reference_rk4_segment(rhs, y, t_grid, solver, h_in):
    """Tuple-loop form of ``engine._rk4_segment``."""
    out = []
    for ta, tb in zip(t_grid[:-1], t_grid[1:]):
        n = max(1, math.ceil((tb - ta) / solver.fixed_step - 1e-12))
        h = (tb - ta) / n
        t = ta
        for _ in range(n):
            k1 = rhs(t, *y)
            k2 = rhs(t + 0.5 * h, *(yi + 0.5 * h * k for yi, k in zip(y, k1)))
            k3 = rhs(t + 0.5 * h, *(yi + 0.5 * h * k for yi, k in zip(y, k2)))
            k4 = rhs(t + h, *(yi + h * k for yi, k in zip(y, k3)))
            y = tuple(yi + h * (a + 2.0 * b + 2.0 * c + d) / 6.0
                      for yi, a, b, c, d in zip(y, k1, k2, k3, k4))
            t += h
        out.append(y)
    return out, h_in


def _nan_on_call(n):
    """A zero constant force that returns NaN on its n-th call only: a NaN
    reaches the error norm of one rk23 step while the position stays finite."""
    calls = itertools.count(1)

    class NaNOnce(ForceModel):
        def __call__(self, x, xdot):
            return math.nan if next(calls) == n else self.value

    return NaNOnce("constant", 0.0)


def test_unrolled_steppers_match_tuple_loops(study, monkeypatch):
    """Every run, early endings included, is bit-identical under the engine's
    steppers and right-hand side and under the reference tuple loops and
    reference right-hand side. Each reference stepper must be called, so a
    patch that misses the engine's dispatch cannot pass."""
    rk4 = replace(study.solver, method="rk4", fixed_step=1e-4)
    runs = {name: (lambda sc=load_preset(name): simulate(sc))
            for name in ("fig2-F1", "fig2-F2", "fig2-F3", "multistep")}
    fig2_f2 = load_preset("fig2-F2")
    # Two points of the seed-0 benchmark sweeps; the alpha point leaves the domain.
    runs["sweep-alpha"] = lambda: simulate(replace(
        study, gains=replace(study.gains, alpha=21.7082)))
    runs["sweep-k_m"] = lambda: simulate(replace(
        fig2_f2, gains=replace(fig2_f2.gains, k_m=2.2761)))
    runs["nan-force"] = lambda: simulate(replace(
        study, force=NaNForce("constant", 0.0), duration=0.1))
    runs["nan-once"] = lambda: simulate(replace(study, force=_nan_on_call(3), duration=0.1))
    runs["rk4"] = lambda: simulate(replace(study, solver=rk4, duration=0.2))
    multistep = load_preset("multistep")
    runs["domain-exit"] = lambda: simulate(replace(
        multistep, setpoints=((0.0, 0.0), (2.0, 3e-3)), duration=6.0,
        gains=replace(multistep.gains, alpha=20.0)))
    runs["step-underflow"] = lambda: simulate(replace(study, duration=0.5, solver=replace(
        study.solver, rel_tol=1e-30, abs_tol=1e-300)))
    init = PlantState(x=5e-4, p=0.0, P1=2e4, P2=1e4)
    open_solvers = {
        "open-rk23": SolverSettings(method="rk23", rel_tol=1e-10, abs_tol=1e-12,
                                    sample_dt=1e-3, max_step=1e-4),
        "open-rk4": SolverSettings(method="rk4", fixed_step=1e-6, sample_dt=1e-3),
    }
    for name, solver in open_solvers.items():
        runs[name] = lambda solver=solver: simulate_open_loop(study.params, init, 0.01, solver)

    unrolled = {name: run() for name, run in runs.items()}
    calls = dict.fromkeys(engine.STEPPERS, 0)

    def counted(method, stepper):
        def step(*args):
            calls[method] += 1
            return stepper(*args)
        return step

    monkeypatch.setitem(engine.STEPPERS, "rk23", counted("rk23", _reference_rk23_segment))
    monkeypatch.setitem(engine.STEPPERS, "rk4", counted("rk4", _reference_rk4_segment))
    monkeypatch.setattr(engine, "_make_rhs", _reference_make_rhs)
    monkeypatch.setattr(engine, "_make_open_rhs", _reference_open_rhs)
    for name, run in runs.items():
        expected = run()
        if name.startswith("open"):
            assert all(np.array_equal(a, b) for a, b in zip(unrolled[name], expected)), name
            assert unrolled[name][1].shape[1] == 4
        else:
            assert unrolled[name] == expected, name
    # rk4: one segment each for "rk4" and "open-rk4"; rk23: every other run
    assert calls["rk4"] == 2 and calls["rk23"] >= len(runs) - 2, calls
    for name in ("domain-exit", "sweep-alpha", "nan-force", "nan-once"):
        assert unrolled[name].status == "domain-exit", name
    assert unrolled["step-underflow"].status == "step-underflow"
    assert unrolled["sweep-k_m"].status == "ok"


def test_open_loop_rhs_matches_reference(params):
    """The open-loop right-hand side equals its reference form bit for bit at
    sampled states across the admissible range, with damping."""
    open_rhs = engine._make_open_rhs(params, params.R)
    reference = _reference_open_rhs(params, params.R)

    lo, hi = params.geometry.position_bounds()
    rng = np.random.default_rng(17)
    for _ in range(200):
        state = (float(rng.uniform(lo, hi)), float(rng.uniform(-0.05, 0.05)),
                 float(rng.uniform(-3e4, 3e4)), float(rng.uniform(-3e4, 3e4)), 0.0)
        assert open_rhs(0.0, *state) == reference(0.0, *state), state


class _OverriddenForce(ForceModel):
    """A load whose ``__call__`` reads both arguments, overriding the kinds."""

    def __call__(self, x, xdot):
        return self.value * x + 0.25 * xdot


def test_closed_loop_rhs_matches_reference(study):
    """The closed-loop right-hand side equals its reference form bit for bit
    at sampled states across the admissible range, for each force kind and
    for a subclass that overrides ``__call__``."""
    params, gains = study.params, study.gains
    lo, hi = params.geometry.position_bounds()
    rng = np.random.default_rng(23)
    forces = (ForceModel("constant", 0.7), ForceModel("tanh_friction", 5.0),
              ForceModel("spring", -10.0), _OverriddenForce("spring", 10.0))
    for force in forces:
        for _ in range(200):
            x, x_star = (float(v) for v in rng.uniform(lo, hi, 2))
            state = (x, float(rng.uniform(-0.05, 0.05)), float(rng.uniform(-3e4, 3e4)),
                     float(rng.uniform(-3e4, 3e4)), float(rng.uniform(-3.0, 3.0)))
            assert state[4] != 0.0 and x != x_star
            fast = engine._make_rhs(params, gains, force, x_star)(0.0, *state)
            assert fast == _reference_make_rhs(params, gains, force, x_star)(0.0, *state), \
                (force, x_star, state)
    # The override, not the base kind, is the force the right-hand side reads.
    state = (1e-3, 0.02, 0.0, 0.0, 0.0)
    base, override = (engine._make_rhs(params, gains, force, 0.0)(0.0, *state)[1]
                      for force in (ForceModel("spring", 10.0), _OverriddenForce("spring", 10.0)))
    assert base != override


def test_class_level_force_wrapper_sees_every_evaluation(study, monkeypatch):
    """A counting wrapper set on ``ForceModel.__call__``, as a tracer does,
    is called once per right-hand-side evaluation and once per record
    sample, for every force kind, and the runs stay bit-identical."""
    counts = {"force": 0, "rhs": 0}
    call = ForceModel.__call__
    make_rhs = engine._make_rhs

    def counted_call(force, x, xdot):
        counts["force"] += 1
        return call(force, x, xdot)

    def counting_make_rhs(*args):
        rhs = make_rhs(*args)

        def counted_rhs(*state):
            counts["rhs"] += 1
            return rhs(*state)
        return counted_rhs

    scenarios = [replace(study, force=ForceModel(kind, value), duration=0.5)
                 for kind, value in (("constant", 0.01), ("tanh_friction", 5.0),
                                     ("spring", -10.0))]
    plain = [simulate(scenario) for scenario in scenarios]
    monkeypatch.setattr(engine, "_make_rhs", counting_make_rhs)
    monkeypatch.setattr(ForceModel, "__call__", counted_call)
    for scenario, expected in zip(scenarios, plain):
        counts.update(force=0, rhs=0)
        record = simulate(scenario)
        assert record == expected, scenario.force
        assert counts["rhs"] > 0 and counts["force"] == counts["rhs"] + len(record), \
            (scenario.force, counts)
