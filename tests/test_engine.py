"""Simulation engine: force models, integration, diagnostics, robustness."""

import ast
import functools
import hashlib
import inspect
import itertools
import math
import os
import re
import struct
import subprocess
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

import make_output_digests as pin
from antago import engine
from antago.controller import control_flows, desired_energy, sigma
from antago.engine import (
    CHANNELS,
    SUMMARY_CHANNELS,
    ForceModel,
    ScenarioConfig,
    SolverSettings,
    TrajectoryRecord,
    augmented_field,
    diagnostics,
    simulate,
    simulate_open_loop,
    simulate_summary,
)
from antago.errors import DomainError, ScenarioError, SolverError
from antago.plant import (
    PlantState,
    geometry_terms,
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
    # A sample spacing or an rk23 max_step within rounding of the run's times
    # ended the run step-underflow at t = 0; the open loop checks them too.
    for solver, duration, words in (
            (replace(study.solver, sample_dt=1e-15), 1e-11,
             "sample spacing duration / 10000 = 9.999999999999999e-16 is within rounding"),
            (replace(study.solver, max_step=1e-15), 1e-8, "max_step = 1e-15 is within rounding")):
        for make in (lambda: replace(study, solver=solver, duration=duration),
                     lambda: simulate_open_loop(study.params, study.initial, duration, solver)):
            with pytest.raises(ScenarioError) as info:
                make()
            assert str(info.value) == f"{words} of the run's times (at or below 1e-12)"
    replace(study, solver=replace(study.solver, sample_dt=2e-12), duration=2e-11)
    replace(study, solver=replace(study.solver, max_step=2e-12), duration=1e-8)
    replace(study, solver=replace(study.solver, method="rk4", max_step=1e-15), duration=1e-8)


def test_subnormal_energy_scale_is_rejected(study):
    """H_d divides by 2 * k_m * M, and M >= m: a scenario whose 2 * k_m * m
    is below the smallest normal float, where that product could underflow
    to zero, is rejected on construction, naming the product; the smallest
    normal product is accepted."""
    tiny = sys.float_info.min
    light = replace(study.params, m=1e-3)
    with pytest.raises(ScenarioError) as info:
        replace(study, params=light, gains=replace(study.gains, k_m=5e-324))
    assert str(info.value) == f"2 * k_m * m = 0.0 is below the smallest normal float {tiny!r}"
    assert study.params.m == 0.25
    replace(study, gains=replace(study.gains, k_m=2 * tiny))   # 2 * k_m * m is tiny itself
    with pytest.raises(ScenarioError, match="2 \\* k_m \\* m = 1.1125369292536007e-308 is below"):
        replace(study, gains=replace(study.gains, k_m=tiny))


def test_record_reaches_the_end_of_the_run(study):
    """The record ends at the last grid time, one sample per ``sample_dt``
    step, also where rounding the grid times to 15 decimals lifts that time a
    little above the duration (2/3 s)."""
    scenario = replace(study, duration=2 / 3)
    record = simulate(scenario)
    assert record.status == "ok"
    assert len(record) == math.ceil(scenario.duration / scenario.solver.sample_dt) + 1
    assert record["t"][-1] == pytest.approx(scenario.duration, abs=1e-15)


def test_initial_position_next_to_a_bound_gives_row_zero(study):
    """The float next to each bound of ``position_bounds`` either runs, with
    row 0 at the initial state, or is rejected before integration: on this
    geometry the float below the upper bound passes the bounds but not the
    kernels' contraction check, whose operations round differently."""
    geo = replace(study.params.geometry, L0=0.012, x0=0.000173, x_M=0.0002)
    params = replace(study.params, geometry=geo)
    lo, hi = geo.position_bounds()
    inside = math.nextafter(lo, hi)
    run = replace(study, params=params, setpoints=((0.0, 0.0),), duration=0.01,
                  initial=PlantState(inside, 0.0, 0.0, 0.0))
    record = simulate(run)
    assert record["x"][0] == inside and record["t"][0] == 0.0
    outside = PlantState(math.nextafter(hi, lo), 0.0, 0.0, 0.0)
    assert lo < outside.x < hi and geo.x_M - outside.x - geo.x0 <= engine.DOMAIN_MARGIN
    with pytest.raises(ScenarioError, match="initial position"):
        replace(run, initial=outside)
    with pytest.raises(ScenarioError, match="initial position"):
        simulate_open_loop(params, outside, 0.01, study.solver)


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
    """The geometry inlined in the closed loop's textbook right-hand side
    equals the plant kernel, read back through inputs that isolate each term,
    across the admissible range. The open loop's body, the reduced one, is
    checked within rounding by the reduced test below."""
    params, gains = study.params, study.gains
    geo = params.geometry
    free = ForceModel("constant", 0.0)
    kpkm = gains.k_p * gains.k_m

    lo, hi = geo.position_bounds()
    for x in np.linspace(lo, hi, 52)[1:-1].tolist():
        g = geometry_terms(x, geo)
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


def test_inlined_reduced_geometry_matches_kernel(study, monkeypatch):
    """The reduced form's geometry, which the closed loop's rk4 kernels and
    every open-loop kernel inline (the closed one compiled here by keying the
    closed loop's reduced body by the one-stage template), matches the plant
    kernel, not the textbook form, read back through the inputs of
    ``test_inlined_geometry_matches_kernel``: A1, A2, 1/M, the dA-carrying
    shear term and, through the open-loop pressure rates, V1 and V2.

    The bound is rounding's. Either form computes each of these from x in
    fewer than 50 roundings (the shear term's pressure rate is the longest,
    its mass reading both volumes), each within u = 2**-53 of its result,
    and only a subtraction amplifies them, by its condition number kappa:
    (2r + 0.75s) / |2r - 0.75s| in A, (1 + k_m (|dA| + k_p k_m)) /
    |1 + k_m (dA + k_p k_m)| in the shear term, at most 3.5 and 5.2 on this
    range. So to first order the two differ by at most 2 * 50 * kappa * u at
    each x, about 6e-14. Measured: 9.5 u (1.1e-15) at most, where a 0.75 ->
    0.7499 error in the reduced A2 moves A2 by 1.6e-4."""
    params, gains = study.params, study.gains
    geo, k_m = params.geometry, gains.k_m
    free = ForceModel("constant", 0.0)
    kpkm = gains.k_p * k_m
    Gamma0 = params.fluid.Gamma0
    _reduce_point_kernel(monkeypatch)
    open_rhs = engine._open_kernel("rhs", params, params.R)

    lo, hi = geo.position_bounds()
    for x in np.linspace(lo, hi, 52)[1:-1].tolist():
        g = geometry_terms(x, geo)
        M = params.m + (g.V1 + g.V2) * params.fluid.rho
        s = [math.sqrt(6.0 * u / geo.L0) for u in (geo.x_M - x - geo.x0, x + geo.x0)]
        kappa = max([(2.0 / si + 0.75 * si) / abs(2.0 / si - 0.75 * si) for si in s]
                    + [(1.0 + k_m * (abs(dA) + kpkm)) / abs(1.0 + k_m * (dA + kpkm))
                       for dA in (g.dA1, g.dA2)])
        closed = functools.partial(engine._closed_kernel("rhs", params, gains, free, x), 0.0, x)
        A1, A2 = closed(0.0, 1.0, 0.0, 0.0)[1], closed(0.0, 0.0, 1.0, 0.0)[1]
        moving = open_rhs(0.0, x, 1.0, 0.0, 0.0)
        pairs = [(A1, g.A1), (A2, g.A2), (closed(1.0, 0.0, 0.0, 0.0)[0], 1.0 / M),
                 (open_rhs(0.0, x, 0.0, 1.0, 0.0)[1], g.A1),
                 (open_rhs(0.0, x, 0.0, 0.0, 1.0)[1], g.A2), (moving[0], 1.0 / M),
                 (moving[2], -Gamma0 * (g.A1 * (1.0 / M)) / g.V1),
                 (moving[3], -Gamma0 * (g.A2 * (1.0 / M)) / g.V2)]
        # F_hat at the kernel's own A_i makes sigma exactly 0: the pressure rate
        # is the curvature-carrying shear term.
        for row, dA, A, F_hat in ((2, g.dA1, g.A1, A1), (3, g.dA2, g.A2, A2)):
            P1, P2 = (1.0, 0.0) if row == 2 else (0.0, 1.0)
            shear = (1.0 + k_m * (dA + kpkm)) * (1.0 / M) / (2.0 * k_m)
            pairs.append((closed(1.0, P1, P2, F_hat)[row], -shear / A))
        for i, (kernel, plant) in enumerate(pairs):
            assert abs(kernel - plant) <= 2 * 50 * kappa * 2.0**-53 * abs(plant), (x, i)


# The reduced bodies' bound constants, each as its definition over the
# geometry's K0 and L0; _plant_constants computes each in at most two roundings.
_REDUCED_CONSTANTS = {"six_over_L0": "6/L0", "two_thirds_K0": "2*K0/3", "K0_over_12": "K0/12",
                      "K0_over_L0": "K0/L0", "neg_K0_over_L0": "-K0/L0",
                      "neg_K0_over_L0_sq": "-K0/L0**2"}


def test_reduced_bodies_equal_the_textbook_bellows_law_in_exact_arithmetic(study):
    """An oracle that shares no float code with the engine: sympy reads the
    ``u``, ``s``, ``r``, ``V``, ``A`` and ``dA`` lines of the reduced bodies
    that the kernels inline (the open loop's, which every template takes, and
    the closed loop's rk4 body) as exact expressions, with each bound
    constant replaced by its definition, and proves, for each actuator, V_i
    equal to the textbook law K0 * (2/3 - u/(2 L0)) * sqrt(6u/L0) + V0, A_i =
    dV_i/dx and dA_i = d2V_i/dx2. Each definition is checked against
    ``_plant_constants`` at the preset to within its two roundings."""
    sympy = pytest.importorskip("sympy")
    x, x0, x_M, V0 = sympy.symbols("x x0 x_M V0", real=True)
    K0, L0, S = sympy.symbols("K0 L0 S", positive=True)
    definitions = {sympy.Symbol(name): sympy.sympify(text, locals={"K0": K0, "L0": L0},
                                                     rational=True)
                   for name, text in _REDUCED_CONSTANTS.items()}

    geo = study.params.geometry
    constants = engine._plant_constants(study.params, study.params.R)
    exact = {K0: sympy.Rational(geo.K0), L0: sympy.Rational(geo.L0)}
    for name, definition in definitions.items():
        value = definition.subs(exact)
        assert abs(sympy.Rational(constants[name.name]) - value) <= 2.001 * 2.0**-53 * abs(value), \
            name

    def textbook(u):
        return K0 * (sympy.Rational(2, 3) - u / (2 * L0)) * sympy.sqrt(6 * u / L0) + V0

    wanted = {f"{name}{i}" for name in ("u", "s", "r", "V", "A", "dA") for i in (1, 2)}
    symbols = {"x": x, "x0": x0, "x_M": x_M, "V0": V0, "K0": K0, "L0": L0}
    for body in (engine._LOOPS["open"][1]["rk23"], engine._LOOPS["closed"][1]["rk4"]):
        values = {}
        for target, text in re.findall(r"^(\w+) = (.+)$", body, flags=re.M):
            if target in wanted:
                expr = sympy.sympify(text, locals={**symbols, **values}, rational=True)
                values[target] = expr.subs(definitions)
        assert {"u1", "u2", "V1", "V2", "A1", "A2"} <= set(values), sorted(values)
        for i, u in ((1, x_M - x - x0), (2, x + x0)):
            assert sympy.simplify(values[f"u{i}"] - u) == 0
            law = textbook(u)
            # With u = L0 * S**2 / 6, S > 0, every square root is S itself.
            at_s = {x: sympy.solve(u - L0 * S**2 / 6, x)[0]}
            pairs = [(values[f"V{i}"], law), (values[f"A{i}"], law.diff(x))]
            if f"dA{i}" in values:
                pairs.append((values[f"dA{i}"], law.diff(x, 2)))
            for kernel, oracle in pairs:
                assert sympy.simplify((kernel - oracle).subs(at_s)) == 0, (i, kernel, oracle)
        assert ("dA1" in values) == (body is engine._LOOPS["closed"][1]["rk4"])


def _reduce_point_kernel(patch, factory=None):
    """Key the closed loop's reduced body, the rk4 kernels', by the one-stage
    template too, in ``patch``, and compile in ``factory``, or in a fresh
    kernel cache: a kernel's cache key names no body."""
    bodies = engine._LOOPS["closed"][1]
    patch.setitem(bodies, "rhs", bodies["rk4"])
    patch.setattr(engine, "_kernel_factory",
                  factory or functools.cache(engine._kernel_factory.__wrapped__))


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


def test_run_peak_memory_is_about_one_table(study):
    """The kernels pack each row into one float64 ``array("d")`` and the
    table is a view of it, so after a warm-up run, which compiles the
    kernels, the tracemalloc peak of ``simulate(fig2-F1)`` and of
    ``simulate_summary(fig2-F1)`` stays below 1.5 times the record table's
    272,136 bytes: 0.304 MB and 0.291 MB (Python 3.11, numpy 2.4), where
    extending a list of floats that ``np.fromiter`` copied peaked at 1.265 MB
    and 0.773 MB."""
    import tracemalloc

    record = simulate(study)
    simulate_summary(study)
    assert record.table.nbytes == 272_136
    peaks = []
    for run in (simulate, simulate_summary):
        tracemalloc.start()
        try:
            run(study)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 1.5 * record.table.nbytes, peaks


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
    segment, and a short run that starts away from x = 0."""
    runs = dict(fig2_runs)
    multistep = load_preset("multistep")
    exiting = pin.table_runs()["domain-exit"]
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
    """The force-balance residual of diagnostics is that of the scalar
    geometry at the last sample, in float arithmetic, on every run."""
    for name, (scenario, record) in oracle_runs.items():
        summary = diagnostics(record, scenario.gains, scenario.params)
        x, P1, P2, F_hat = (float(record[ch][-1]) for ch in ("x", "P1", "P2", "F_hat"))
        g = geometry_terms(x, scenario.params.geometry)
        assert summary.force_balance_residual == P1 * g.A1 + P2 * g.A2 - F_hat, name


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


def test_settle_time_ordering(fig2_runs):
    """The motion-favouring spring load settles strictly faster than the
    opposing one."""
    f2 = diagnostics(fig2_runs["fig2-F2"][1], *_gp(fig2_runs["fig2-F2"][0]))
    f3 = diagnostics(fig2_runs["fig2-F3"][1], *_gp(fig2_runs["fig2-F3"][0]))
    assert f3.settle_time < f2.settle_time


def _gp(scenario):
    return scenario.gains, scenario.params


def _same_summary(a, b):
    """Field for field, NaN equal to NaN."""
    return all(u == v or (u != u and v != v) for u, v in zip(astuple(a), astuple(b)))


def _failing_at(scenario, i):
    """``scenario`` with its force's law called in place of being written
    out, except that its evaluation at exactly the state of its record's row
    ``i`` fails as the domain check would."""
    row = simulate(scenario).table[i]
    x, xdot = row[CHANNELS.index("x")], row[CHANNELS.index("xdot")]

    class FailAt(ForceModel):
        def __call__(self, x_, xdot_):
            if x_ == x and xdot_ == xdot:
                raise DomainError("injected failure")
            return ForceModel.__call__(self, x_, xdot_)

    return replace(scenario, force=FailAt(scenario.force.kind, scenario.force.value))


def test_summary_path_matches_diagnostics_of_the_record(study):
    """simulate_summary gives diagnostics(simulate(s)) field for field on the
    presets, the fig2-F1 domain exits, the digested runs and rk4, and after a
    failure of the last sample's evaluation (which rk4's steps never make)
    or of a later segment's first, where the last row kept is the segment
    before's."""
    scenarios = {name: load_preset(name) for name in ("fig2-F1", "fig2-F2", "fig2-F3",
                                                      "multistep")}
    for alpha in (21.5, 22.0, 23.0, 25.0):
        scenarios[f"alpha={alpha}"] = replace(study, gains=replace(study.gains, alpha=alpha))
    scenarios.update(pin.table_runs())
    rk4 = replace(study, solver=replace(study.solver, method="rk4", fixed_step=1e-4),
                  duration=0.2)
    scenarios["rk4"] = rk4
    multistep = pin.table_runs()["rk4-multistep"]
    for name, sc, i in (("rk4 last-row", rk4, -1), ("rk4-multistep last-row", multistep, -1),
                        ("rk4-multistep second segment", multistep, 16)):
        scenarios[name] = _failing_at(sc, i)
    for name, scenario in scenarios.items():
        expected = diagnostics(simulate(scenario), scenario.gains, scenario.params)
        assert _same_summary(simulate_summary(scenario), expected), name
    exits = {name: diagnostics(simulate(scenarios[name]), *_gp(scenarios[name]))
             for name in ("alpha=22.0", "domain-exit", "step-underflow", "rk4 last-row",
                          "rk4-multistep last-row", "rk4-multistep second segment")}
    assert all(summary.status != "ok" for summary in exits.values()), exits
    # the last-row failures keep the last segment through its first row; the
    # second segment's first stage fails before it emits
    assert exits["rk4 last-row"].samples == 1
    assert [exits[f"rk4-multistep {end}"].samples for end in ("last-row", "second segment")] \
        == [29, 16]


def test_summary_channels_are_every_channel_diagnostics_reads():
    """diagnostics reads no channel outside SUMMARY_CHANNELS: with every
    other column of a record set to NaN, its summary is unchanged."""
    scenario = load_preset("fig2-F3")
    record = simulate(scenario)
    table = record.table.copy()
    table[:, [i for i, name in enumerate(CHANNELS) if name not in SUMMARY_CHANNELS]] = np.nan
    blanked = TrajectoryRecord(table, record.status, record.detail)
    assert _same_summary(diagnostics(blanked, *_gp(scenario)), diagnostics(record, *_gp(scenario)))


def test_summary_rows_are_the_record_columns(study):
    """Every summary row equals the record's SUMMARY_CHANNELS columns bit for
    bit, at every sample (the summary reads most of them only at the last),
    with the same status: the four presets, a domain exit, the digested runs
    and an rk4 run. CHANNELS is the channel table's order."""
    scenarios = {name: load_preset(name)
                 for name in ("fig2-F1", "fig2-F2", "fig2-F3", "multistep")}
    scenarios["alpha=22.0"] = replace(study, gains=replace(study.gains, alpha=22.0))
    scenarios.update(pin.table_runs())
    scenarios["rk4"] = replace(study, solver=replace(study.solver, method="rk4", fixed_step=1e-4),
                               duration=0.2)
    columns = [CHANNELS.index(name) for name in SUMMARY_CHANNELS]
    for name, scenario in scenarios.items():
        record = simulate(scenario)
        table, status, _ = engine._run(scenario, SUMMARY_CHANNELS)
        assert status == record.status, name
        assert np.array_equal(table, record.table[:, columns], equal_nan=True), name
    assert CHANNELS == tuple(engine._CHANNEL_EXPRESSIONS)


def test_sliced_run_is_the_unsliced_run(study, monkeypatch):
    """Every run, integrated in slices that end at the multiples of
    SLICE_SAMPLES samples, gives the table, bit for bit, the status and the
    detail of the tuple-loop reference run that steps each whole segment in
    one kernel call, for the record's channels and the summary's, on the
    presets, a domain exit, the digested runs, rk4 and a failure at a later
    segment's first stage. ``ready`` gets the run's own row array, whose
    table is a view of it: its row counts rise, each a slice's end or a
    segment's, and an ok run's last is its length."""
    scenarios = {name: load_preset(name)
                 for name in ("fig2-F1", "fig2-F2", "fig2-F3", "multistep")}
    scenarios["alpha=22.0"] = replace(study, gains=replace(study.gains, alpha=22.0))
    scenarios.update(pin.table_runs())
    scenarios["rk4"] = replace(study, solver=replace(study.solver, method="rk4", fixed_step=1e-4),
                               duration=0.7)
    scenarios["second segment"] = _failing_at(pin.table_runs()["rk4-multistep"], 16)
    calls = []   # per segment, the calls of its kernel

    def reference_kernel(method, *args):
        kernel = _reference_kernel(_reference_closed_field(method, *args), method)
        calls.append(0)

        def counted(*args):
            calls[-1] += 1
            return kernel(*args)
        return counted

    unsliced = {}
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_closed_kernel", reference_kernel)
        patch.setattr(engine, "SLICE_SAMPLES", engine.MAX_SAMPLES + 1)
        for name, scenario in scenarios.items():
            for channels in (CHANNELS, SUMMARY_CHANNELS):
                unsliced[name, channels] = engine._run(scenario, channels)
    assert set(calls) == {1}, calls
    for name, scenario in scenarios.items():
        grid = engine._sample_grid(scenario.duration, scenario.solver.sample_dt,
                                   tuple(t for t, _ in scenario.setpoints))
        assert engine.sample_count(scenario) == len(grid), name
        segment_ends = {engine.bisect_left(grid, t) for t, _ in scenario.setpoints[1:]}
        for channels in (CHANNELS, SUMMARY_CHANNELS):
            arrays, counts = [], []

            def ready(rows):
                assert len(rows) % len(channels) == 0
                arrays.append(rows)
                counts.append(len(rows) // len(channels))

            sliced = engine._run(scenario, channels, ready)
            whole = unsliced[name, channels]
            assert sliced[0].tobytes() == whole[0].tobytes(), (name, channels)
            assert sliced[1:] == whole[1:], (name, channels)
            assert all(rows is arrays[-1] for rows in arrays), name
            if arrays:   # a run may fail within its first slice
                assert np.shares_memory(sliced[0], np.frombuffer(arrays[-1])), name
            assert counts == sorted(set(counts)), (name, counts)
            assert all(n % engine.SLICE_SAMPLES == 0 or n in segment_ends
                       for n in counts[:-1]), (name, counts)
            if whole[1] == "ok":
                assert counts[-1] == len(whole[0]) == len(grid), name
    assert scenarios["second segment"].solver.method == "rk4"
    assert {scenarios[name].solver.method for name in ("fig2-F1", "multistep")} == {"rk23"}


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


def _cumulative_integral(t, f, simpson):
    """The integral of samples ``f`` from ``t[0]`` to each even sample ``t[0],
    t[2], ...``: per pair of intervals Simpson's rule for unequal spacing, or,
    without ``simpson``, the trapezoid rule."""
    t0, t1, t2 = t[:-2:2], t[1:-1:2], t[2::2]
    f0, f1, f2 = f[:-2:2], f[1:-1:2], f[2::2]
    h0, h1 = t1 - t0, t2 - t1
    if simpson:
        pair = (h0 + h1) / 6.0 * ((2.0 - h1 / h0) * f0 + (h0 + h1) ** 2 / (h0 * h1) * f1
                                  + (2.0 - h0 / h1) * f2)
    else:
        pair = 0.5 * (h0 * (f0 + f1) + h1 * (f1 + f2))
    return np.concatenate(([0.0], np.cumsum(pair)))


def test_power_balance_of_the_record(fig2_runs):
    """The record obeys the port-Hamiltonian power balance dH/dt = sum_i
    Gamma0 * expm1(P_i / Gamma0) * U_i - R * v**2 - F * v, read from its own
    channels: H - H(0) equals the supply integrated by Simpson's rule to
    within a tenth of the largest difference between Simpson's rule and the
    trapezoid rule on the same samples, which estimates the trapezoid's
    quadrature error. Measured, the residual is 0.012-0.029 of that
    difference (2.2e-6 of max |H - H(0)| on fig2-F1), on the four presets
    and on a 2 s rk4 run of fig2-F1 at h = 1e-4, so the rk4 kernels' H and
    U_i channels are checked too."""
    runs = dict(fig2_runs)
    multistep = load_preset("multistep")
    runs["multistep"] = (multistep, simulate(multistep))
    study = fig2_runs["fig2-F1"][0]
    rk4 = replace(study, duration=2.0, solver=replace(study.solver, method="rk4", fixed_step=1e-4))
    runs["rk4 fig2-F1"] = (rk4, simulate(rk4))
    for name, (scenario, record) in runs.items():
        assert record.status == "ok", name
        Gamma0, R = scenario.params.fluid.Gamma0, scenario.params.R
        n = len(record) - 1 + len(record) % 2   # an odd number of samples
        t, H, v, F = (record[ch][:n] for ch in ("t", "H", "xdot", "F_true"))
        supply = (Gamma0 * np.expm1(record["P1"][:n] / Gamma0) * record["U1"][:n]
                  + Gamma0 * np.expm1(record["P2"][:n] / Gamma0) * record["U2"][:n]
                  - R * v * v - F * v)
        simpson = _cumulative_integral(t, supply, True)
        trapezoid = _cumulative_integral(t, supply, False)
        residual = np.max(np.abs(H[::2] - H[0] - simpson))
        bound = 0.1 * np.max(np.abs(simpson - trapezoid))
        assert 0.0 < residual <= bound, (name, residual, bound)
        assert bound < 1e-4 * np.max(np.abs(H - H[0])), name


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
    # the stepper reports the open loop's four states
    with pytest.raises(SolverError, match=r"underflow at t=0\.0.*"
                                          r"state=\(0\.0005, 0\.001, 20000\.0, 10000\.0\)\)$"):
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
# in place and every min/max a builtin call. A reference field returns the
# derivative and the row of its point as a function of the row's time. The
# closed loop's rk23 kernels and point kernel take the textbook form of the
# right-hand side, its rk4 kernels and every open-loop kernel the reduced form.

def _reference_row(channels, params, gains, x_star, x, p, P1, P2, F_hat, F, sig, shear,
                   V1, V2, A1, A2, M, v):
    """The row of a closed-loop stage, from the values the stage computed, as
    a function of the row's time: the record's channels or the
    SUMMARY_CHANNELS alone."""
    Gamma0 = params.fluid.Gamma0
    k_p, k_m, k_i, alpha = gains.k_p, gains.k_m, gains.k_i, gains.alpha
    expm1 = math.expm1

    def row(t):
        F_tilde = F_hat - alpha * p
        zeta = F_tilde - F
        H = (p * p / (2.0 * M) + (-P1 + Gamma0 * expm1(P1 / Gamma0)) * V1
             + (-P2 + Gamma0 * expm1(P2 / Gamma0)) * V2)
        H_d = (p * p / (2.0 * k_m * M) + 0.5 * k_p * ((x_star - x) * (x_star - x))
               + 0.5 * (sig * sig))
        U1 = A1 * v - (V1 / Gamma0) * (shear / A1 + k_i * sig / A1)
        U2 = A2 * v - (V2 / Gamma0) * (shear / A2 + k_i * sig / A2)
        Psi = H_d + 0.5 * (zeta * zeta)
        if channels == SUMMARY_CHANNELS:
            return (t, x, x_star, zeta, Psi, sig, P1, P2, F_hat)
        assert channels == CHANNELS, channels
        return (t, x, v, p, P1, P2, U1, U2, F_hat, F_tilde, F, zeta, sig, x_star,
                H, H_d, Psi)

    return row


def _reference_make_field(params, gains, force, x_star, channels=CHANNELS,
                          margin=engine.DOMAIN_MARGIN):
    """Reference form of the closed loop's right-hand side, in the textbook
    form, and of its row, the record's channels or the SUMMARY_CHANNELS
    alone."""
    geo = params.geometry
    L0, K0, V0, x0, x_M = geo.L0, geo.K0, geo.V0, geo.x0, geo.x_M
    rho = params.fluid.rho
    m = params.m
    R = params.R
    k_p, k_m, k_i, alpha = gains.k_p, gains.k_m, gains.k_i, gains.alpha
    kpkm = k_p * k_m
    f = force
    sqrt = math.sqrt

    def field(t, x, p, P1, P2, F_hat):
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
        row = _reference_row(channels, params, gains, x_star, x, p, P1, P2, F_hat, F, sig,
                             shear, V1, V2, A1, A2, M, v)
        return (v, G - F, -shear / A1 - k_i * sig / A1, -shear / A2 - k_i * sig / A2,
                alpha * (G - F_hat + alpha * p)), row

    return field


def _reference_reduced_field(params, gains, force, x_star, channels=CHANNELS,
                             margin=engine.DOMAIN_MARGIN):
    """Reference form of the closed loop's right-hand side in the reduced
    form, and of its row. With s * s = 6u/L0 and r = 1/s, the textbook's
    geometry reads V = K0 * s * (2/3 - s * s / 12) + V0, A1 = -(K0 / L0) * (2r
    - 0.75s), A2 the same with a + sign, and dA = -(K0 / L0**2) * r * (2.25 +
    6r * r); v = p * (1/M), and the pressure rates divide ns - k_i * sig by
    each area once."""
    geo = params.geometry
    L0, K0, V0, x0, x_M = geo.L0, geo.K0, geo.V0, geo.x0, geo.x_M
    rho = params.fluid.rho
    m = params.m
    R = params.R
    k_p, k_m, k_i, alpha = gains.k_p, gains.k_m, gains.k_i, gains.alpha
    kpkm = k_p * k_m
    f = force
    sqrt = math.sqrt

    def field(t, x, p, P1, P2, F_hat):
        u1 = x_M - x - x0
        u2 = x + x0
        if not (u1 > margin and u2 > margin):
            side = 2 if u1 > margin else 1
            raise DomainError(f"actuator {side} reached the volume-model boundary "
                              f"(t={t:.6e}, state={(x, p, P1, P2, F_hat)})")
        s1 = sqrt(6.0 / L0 * u1)
        r1 = 1.0 / s1
        s2 = sqrt(6.0 / L0 * u2)
        r2 = 1.0 / s2
        V1 = (2.0 / 3.0 * K0 - K0 / 12.0 * (s1 * s1)) * s1 + V0
        V2 = (2.0 / 3.0 * K0 - K0 / 12.0 * (s2 * s2)) * s2 + V0
        A1 = -(K0 / L0) * (2.0 * r1 - 0.75 * s1)
        A2 = K0 / L0 * (2.0 * r2 - 0.75 * s2)
        dA1 = -(K0 / (L0 * L0)) * r1 * (2.25 + 6.0 * (r1 * r1))
        dA2 = -(K0 / (L0 * L0)) * r2 * (2.25 + 6.0 * (r2 * r2))

        M = m + rho * (V1 + V2)
        v = p * (1.0 / M)
        G = 0.5 * rho * (A1 + A2) * (v * v) + A1 * P1 + A2 * P2 - R * v
        F = f(x, v)
        sig = P1 * A1 + P2 * A2 - F_hat + kpkm * (x - x_star)
        dsig = P1 * dA1 + P2 * dA2 + kpkm
        ns = (1.0 + k_m * dsig) * v * (-0.5 / k_m)
        row = _reference_row(channels, params, gains, x_star, x, p, P1, P2, F_hat, F, sig,
                             -ns, V1, V2, A1, A2, M, v)
        return (v, G - F, (ns - k_i * sig) / A1, (ns - k_i * sig) / A2,
                alpha * (G - F_hat + alpha * p)), row

    return field


def _reference_closed_field(method, params, gains, force, x_star, channels=CHANNELS):
    """The reference field of the engine's closed-loop ``method`` kernel."""
    make = _reference_reduced_field if method == "rk4" else _reference_make_field
    return make(params, gains, force, x_star, channels)


def _reference_open_field(params, R, margin=engine.DOMAIN_MARGIN):
    """Reference form of the open loop's right-hand side, the textbook open
    loop with both flows and the load at zero, and of its row, the state:
    the textbook baseline of the rk4 form-against-form tests, which no
    engine kernel inlines."""
    geo = params.geometry
    L0, K0, V0, x0, x_M = geo.L0, geo.K0, geo.V0, geo.x0, geo.x_M
    rho = params.fluid.rho
    Gamma0 = params.fluid.Gamma0
    m = params.m
    sqrt = math.sqrt

    def field(t, x, p, P1, P2):
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
        return (v, G, Gamma0 * -(A1 * v) / V1, Gamma0 * -(A2 * v) / V2), lambda t: (x, p, P1, P2)

    return field


def _reference_reduced_open_field(params, R, margin=engine.DOMAIN_MARGIN):
    """Reference form of the open loop's right-hand side in the reduced form
    (see _reference_reduced_field), and of its row, the state."""
    geo = params.geometry
    L0, K0, V0, x0, x_M = geo.L0, geo.K0, geo.V0, geo.x0, geo.x_M
    rho = params.fluid.rho
    Gamma0 = params.fluid.Gamma0
    m = params.m
    sqrt = math.sqrt

    def field(t, x, p, P1, P2):
        u1 = x_M - x - x0
        u2 = x + x0
        if not (u1 > margin and u2 > margin):
            side = 2 if u1 > margin else 1
            raise DomainError(f"actuator {side} reached the volume-model boundary "
                              f"(t={t:.6e}, state={(x, p, P1, P2)})")
        s1 = sqrt(6.0 / L0 * u1)
        r1 = 1.0 / s1
        s2 = sqrt(6.0 / L0 * u2)
        r2 = 1.0 / s2
        V1 = (2.0 / 3.0 * K0 - K0 / 12.0 * (s1 * s1)) * s1 + V0
        V2 = (2.0 / 3.0 * K0 - K0 / 12.0 * (s2 * s2)) * s2 + V0
        A1 = -(K0 / L0) * (2.0 * r1 - 0.75 * s1)
        A2 = K0 / L0 * (2.0 * r2 - 0.75 * s2)
        M = m + rho * (V1 + V2)
        v = p * (1.0 / M)
        G = 0.5 * rho * (A1 + A2) * (v * v) + A1 * P1 + A2 * P2 - R * v
        return (v, G, -Gamma0 * (A1 * v) / V1, -Gamma0 * (A2 * v) / V2), lambda t: (x, p, P1, P2)

    return field


def _emit_row(emit, row):
    """Pass ``row`` to a kernel's ``emit`` as the kernels do: its float64 bytes."""
    emit(struct.pack(f"{len(row)}d", *row))


def _reference_rk23_segment(field, y, t_grid, solver, h, emit, last):
    """Tuple-loop form of the ``rk23`` kernel: given ``last``, the row of the
    last grid time comes from the stage the landing step ended with."""
    rtol, atol, max_step = solver.rel_tol, solver.abs_tol, solver.max_step
    t = t_grid[0]
    k1, row = field(t, *y)
    for tg in t_grid[1:]:
        _emit_row(emit, row(t))
        while t < tg:
            h = min(h, max_step, tg - t)
            if h < engine._MIN_STEP_FRACTION * max(1.0, abs(t)):
                raise SolverError(f"step size underflow at t={t:.6e} (state={y})")
            k2, _ = field(t + 0.5 * h, *(yi + 0.5 * h * k for yi, k in zip(y, k1)))
            k3, _ = field(t + 0.75 * h, *(yi + 0.75 * h * k for yi, k in zip(y, k2)))
            yn = tuple(yi + h * (2.0 * a + 3.0 * b + 4.0 * c) / 9.0
                       for yi, a, b, c in zip(y, k1, k2, k3))
            k4, row4 = field(t + h, *yn)
            errn = 0.0
            for yi, yni, a, b, c, d in zip(y, yn, k1, k2, k3, k4):
                e = h * (-5.0 * a / 72.0 + b / 12.0 + c / 9.0 - d / 8.0)
                sc = atol + rtol * max(abs(yi), abs(yni))
                errn = max(errn, abs(e) / sc)
            if errn <= 1.0:
                t = tg if tg - t - h <= 1e-15 * max(1.0, abs(tg)) else t + h
                y = yn
                k1, row = k4, row4
            h *= min(5.0, max(0.2, 0.9 * (errn + 1e-300) ** (-1.0 / 3.0)))
    if last:
        _emit_row(emit, row(t))
    return y, h


def _reference_rk4_segment(field, y, t_grid, solver, h_in, emit, last, textbook=False):
    """Tuple-loop form of the ``rk4`` kernel, or, given ``textbook``, of the
    classical update ``y + h * (a + 2b + 2c + d) / 6`` in place of the
    kernel's ``y + h6 * (a + d) + h3 * (b + c)``; given ``last``, one more
    evaluation gives the row of the last grid time."""
    for ta, tb in zip(t_grid[:-1], t_grid[1:]):
        n = max(1, math.ceil((tb - ta) / solver.fixed_step - 1e-12))
        h = (tb - ta) / n
        h6, h3 = h / 6.0, h / 3.0
        t = ta
        for j in range(n):
            k1, row = field(t, *y)
            if j == 0:
                _emit_row(emit, row(t))
            k2, _ = field(t + 0.5 * h, *(yi + 0.5 * h * k for yi, k in zip(y, k1)))
            k3, _ = field(t + 0.5 * h, *(yi + 0.5 * h * k for yi, k in zip(y, k2)))
            k4, _ = field(t + h, *(yi + h * k for yi, k in zip(y, k3)))
            if textbook:
                y = tuple(yi + h * (a + 2.0 * b + 2.0 * c + d) / 6.0
                          for yi, a, b, c, d in zip(y, k1, k2, k3, k4))
            else:
                y = tuple(yi + h6 * (a + d) + h3 * (b + c)
                          for yi, a, b, c, d in zip(y, k1, k2, k3, k4))
            t += h
    if last:
        _emit_row(emit, field(t_grid[-1], *y)[1](t_grid[-1]))
    return y, h_in


_REFERENCE_STEPPERS = {"rk23": _reference_rk23_segment, "rk4": _reference_rk4_segment}


def _reference_kernel(field, method):
    """Reference form of the engine's ``method`` stepper kernel over ``field``."""
    return functools.partial(_REFERENCE_STEPPERS[method], field)


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
    kernels and under the reference tuple loops calling the reference
    right-hand sides: in the closed loop the reduced form for rk4 and the
    textbook form for rk23, in the open loop the reduced form for both.
    The rk4 runs cover each force law: tanh (fig2-F1), spring (fig2-F2,
    fig2-F3), constant over three segments (multistep) and an overriding
    ``__call__``; the runs whose tables are digested (a two-segment domain
    exit, a step underflow, rk4 over three segments) are among them. Each
    reference stepper must be called, so a patch that misses the engine's
    dispatch cannot pass. The summary path of every closed run is the same
    under both, field for field."""
    rk4 = replace(study.solver, method="rk4", fixed_step=1e-4)
    # Each closed run's scenario, made afresh per run: a force may count its calls.
    closed = {name: (lambda sc=load_preset(name): sc)
              for name in ("fig2-F1", "fig2-F2", "fig2-F3", "multistep")}
    fig2_f2 = load_preset("fig2-F2")
    # Two points of the seed-0 benchmark sweeps; the alpha point leaves the domain.
    closed["sweep-alpha"] = lambda: replace(study, gains=replace(study.gains, alpha=21.7082))
    closed["sweep-k_m"] = lambda: replace(fig2_f2, gains=replace(fig2_f2.gains, k_m=2.2761))
    closed["nan-force"] = lambda: replace(study, force=NaNForce("constant", 0.0), duration=0.1)
    closed["nan-once"] = lambda: replace(study, force=_nan_on_call(3), duration=0.1)
    closed["rk4"] = lambda: replace(study, solver=rk4, duration=0.2)
    for name in ("fig2-F2", "fig2-F3"):
        closed[f"rk4-{name}"] = lambda sc=load_preset(name): replace(
            sc, solver=replace(sc.solver, method="rk4", fixed_step=1e-4), duration=0.2)
    closed["rk4-override"] = lambda: replace(
        study, force=_OverriddenForce("spring", 10.0), solver=rk4, duration=0.2)
    closed.update((name, lambda sc=sc: sc) for name, sc in pin.table_runs().items())
    runs = {name: (lambda make=make: simulate(make())) for name, make in closed.items()}
    init = PlantState(x=5e-4, p=0.0, P1=2e4, P2=1e4)
    open_solvers = {
        "open-rk23": SolverSettings(method="rk23", rel_tol=1e-10, abs_tol=1e-12,
                                    sample_dt=1e-3, max_step=1e-4),
        "open-rk4": SolverSettings(method="rk4", fixed_step=1e-6, sample_dt=1e-3),
    }
    for name, solver in open_solvers.items():
        runs[name] = lambda solver=solver: simulate_open_loop(study.params, init, 0.01, solver)

    unrolled = {name: run() for name, run in runs.items()}
    summaries = {name: simulate_summary(make()) for name, make in closed.items()}
    calls = {"rk23": 0, "rk4": 0}

    def reference_kernel(make_field):
        def kernel(method, *args):
            calls[method] += 1
            return _reference_kernel(make_field(method, *args), method)
        return kernel

    monkeypatch.setattr(engine, "_closed_kernel", reference_kernel(_reference_closed_field))
    monkeypatch.setattr(engine, "_open_kernel", reference_kernel(
        lambda method, *args: _reference_reduced_open_field(*args)))
    for name, run in runs.items():
        expected = run()
        if name.startswith("open"):
            assert all(np.array_equal(a, b) for a, b in zip(unrolled[name], expected)), name
            assert unrolled[name][1].shape[1] == 4
        else:
            assert unrolled[name] == expected, name
    # rk4: one segment per rk4 run and "open-rk4", three for "rk4-multistep";
    # rk23: every other run
    rk4_runs = [name for name in runs if name.startswith("rk4")]
    assert calls["rk4"] == len(rk4_runs) + 3 and calls["rk23"] >= len(runs) - len(rk4_runs) - 1, \
        calls
    assert len(set(unrolled["rk4-multistep"]["x_star"].tolist())) == 3
    for name in ("domain-exit", "sweep-alpha", "nan-force", "nan-once"):
        assert unrolled[name].status == "domain-exit", name
    assert unrolled["step-underflow"].status == "step-underflow"
    for name in ("sweep-k_m", *rk4_runs):
        assert unrolled[name].status == "ok", name
    for name, make in closed.items():
        assert _same_summary(simulate_summary(make()), summaries[name]), name


def test_rk4_update_stays_within_bound_of_the_textbook_update(study, monkeypatch):
    """The rk4 update ``y + h6 * (a + d) + h3 * (b + c)`` moves a run by
    rounding only, against the textbook ``y + h * (a + 2b + 2c + d) / 6``, both
    in the tuple-loop reference: on fig2-F1 over 0.2 s at h = 1e-4 every
    channel stays within 1e-12 of its largest magnitude (measured: 2.7e-13 on
    H, at most 8.4e-15 elsewhere), and on the lossless open loop over 10 ms at
    h = 1e-6 the states within 1e-13 (measured 1.1e-14) and H, whose
    ``-P + Gamma0 * expm1(P / Gamma0)`` cancels about eleven digits, within
    1e-10 (measured 3.1e-11)."""
    def runs(make):
        tables = []
        for textbook in (True, False):
            def closed_kernel(method, params, gains, force, x_star, channels):
                field = _reference_make_field(params, gains, force, x_star, channels)
                return functools.partial(_reference_rk4_segment, field, textbook=textbook)

            def open_kernel(method, *args):
                return functools.partial(_reference_rk4_segment, _reference_open_field(*args),
                                         textbook=textbook)

            with monkeypatch.context() as patch:
                patch.setattr(engine, "_closed_kernel", closed_kernel)
                patch.setattr(engine, "_open_kernel", open_kernel)
                tables.append(make())
        return tables

    def deviation(textbook, new):
        return np.max(np.abs(new - textbook), axis=0) / np.max(np.abs(textbook), axis=0)

    rk4 = replace(study.solver, method="rk4", fixed_step=1e-4)
    textbook, new = runs(lambda: simulate(replace(study, solver=rk4, duration=0.2)))
    assert textbook.status == new.status == "ok" and not np.array_equal(textbook.table, new.table)
    closed = deviation(textbook.table[:, 1:], new.table[:, 1:])   # t is the same grid
    assert np.all(closed <= 1e-12), dict(zip(CHANNELS[1:], closed.tolist()))

    solver = SolverSettings(method="rk4", fixed_step=1e-6, sample_dt=1e-3)
    init = PlantState(x=5e-4, p=0.0, P1=2e4, P2=1e4)
    (_, states_tb, H_tb), (_, states, H) = runs(
        lambda: simulate_open_loop(study.params, init, 0.01, solver, R_override=0.0))
    assert np.all(deviation(states_tb, states) <= 1e-13), deviation(states_tb, states)
    assert deviation(H_tb, H) <= 1e-10, deviation(H_tb, H)


def test_rk4_reduced_form_stays_within_bound_of_the_textbook_form(study, monkeypatch):
    """The rk4 kernels' reduced right-hand side moves a run by rounding only,
    against the textbook form under the same update: on fig2-F1 over 0.2 s at
    h = 1e-4 every channel stays within 1e-12 of its largest magnitude
    (measured: 2.7e-13 on H, at most 1.2e-15 elsewhere), and on the lossless
    open loop over 10 ms at h = 1e-6 the states within 1e-13 (measured
    2.7e-14) and H within 1e-10 (measured 3.0e-11)."""
    def closed_kernel(method, params, gains, force, x_star, channels):
        return _reference_kernel(_reference_make_field(params, gains, force, x_star, channels),
                                 method)

    def open_kernel(method, params, R):
        return _reference_kernel(_reference_open_field(params, R), method)

    def runs(make):
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_closed_kernel", closed_kernel)
            patch.setattr(engine, "_open_kernel", open_kernel)
            textbook = make()
        return textbook, make()

    def deviation(textbook, new):
        return np.max(np.abs(new - textbook), axis=0) / np.max(np.abs(textbook), axis=0)

    rk4 = replace(study.solver, method="rk4", fixed_step=1e-4)
    textbook, new = runs(lambda: simulate(replace(study, solver=rk4, duration=0.2)))
    assert textbook.status == new.status == "ok" and not np.array_equal(textbook.table, new.table)
    closed = deviation(textbook.table[:, 1:], new.table[:, 1:])   # t is the same grid
    assert np.all(closed <= 1e-12), dict(zip(CHANNELS[1:], closed.tolist()))

    solver = SolverSettings(method="rk4", fixed_step=1e-6, sample_dt=1e-3)
    init = PlantState(x=5e-4, p=0.0, P1=2e4, P2=1e4)
    (_, states_tb, H_tb), (_, states, H) = runs(
        lambda: simulate_open_loop(study.params, init, 0.01, solver, R_override=0.0))
    assert np.all(deviation(states_tb, states) <= 1e-13), deviation(states_tb, states)
    assert deviation(H_tb, H) <= 1e-10, deviation(H_tb, H)


def test_reduced_rhs_stays_within_rounding_of_the_textbook_rhs(study, monkeypatch):
    """At 2,000 seeded states across the admissible range, for each force
    law, the reduced form's one-stage right-hand side, which the rk4 kernels
    inline (compiled here by keying the closed loop's reduced body by the
    one-stage template, in a kernel cache of its own), agrees with ``augmented_field``, the textbook form, to within
    rounding of each rate's terms, as the scalar plant functions compute
    them: the velocity to 1e-15 of itself, the momentum rate G - F and the
    observer rate to 1e-14 of the sum of their terms' magnitudes, and each
    pressure rate to 1e-14 of (|ns| + |k_i * sigma|) / |A_i|. The two terms
    of a pressure rate cancel, so the bound is not relative to the result.
    Measured: 2.7e-16, 5.6e-16, 2.1e-15 on each pressure rate and 6.2e-16."""
    params, gains = study.params, study.gains
    geo, rho, R = params.geometry, params.fluid.rho, params.R
    k_m, kpkm = gains.k_m, gains.k_p * gains.k_m
    lo, hi = geo.position_bounds()
    rng = np.random.default_rng(41)
    forces = (ForceModel("constant", 0.7), ForceModel("tanh_friction", 5.0),
              ForceModel("spring", -10.0), _OverriddenForce("spring", 10.0))
    worst = [0.0] * 5
    reduced_factory = functools.cache(engine._kernel_factory.__wrapped__)
    for i in range(2000):
        x, x_star = (float(v) for v in rng.uniform(lo, hi, 2))
        state = PlantState(x, float(rng.uniform(-0.05, 0.05)), float(rng.uniform(-3e4, 3e4)),
                           float(rng.uniform(-3e4, 3e4)))
        F_hat, force = float(rng.uniform(-3.0, 3.0)), forces[i % len(forces)]
        textbook = augmented_field(state, F_hat, gains, x_star, force, params)
        with monkeypatch.context() as patch:
            _reduce_point_kernel(patch, reduced_factory)
            reduced_rhs = engine._closed_kernel("rhs", params, gains, force, x_star)
        reduced = reduced_rhs(0.0, x, state.p, state.P1, state.P2, F_hat)
        g = geometry_terms(x, geo)
        v = state.p / total_mass(x, params)
        F = force(x, v)
        G_terms = (abs(rho * (g.A1 + g.A2) * v * v / 2.0) + abs(g.A1 * state.P1)
                   + abs(g.A2 * state.P2) + abs(R * v))
        ns = abs((1.0 + k_m * (state.P1 * g.dA1 + state.P2 * g.dA2 + kpkm)) * v / (2.0 * k_m))
        k_i_sig = abs(gains.k_i * sigma(state, F_hat, gains, x_star, geo).value)
        scales = (abs(v), G_terms + abs(F), (ns + k_i_sig) / abs(g.A1), (ns + k_i_sig) / abs(g.A2),
                  gains.alpha * (G_terms + abs(F_hat) + abs(gains.alpha * state.p)))
        for j, (a, b, scale) in enumerate(zip(textbook, reduced, scales)):
            worst[j] = max(worst[j], abs(a - b) / scale)
    assert worst[0] <= 1e-15 and max(worst[1:]) <= 1e-14, worst


# SHA-256 of the textbook bodies as they were when rk4 took the reduced form:
# while these hold, the closed loop's rk23 kernels and its one-stage kernels
# compile the same source, and their outputs stay bit-identical.
_TEXTBOOK_SHA256 = {
    "plant": "d467e958a0b79331d3506c32afd25cd78aba906c567b4ed302dca3f92bb94c4e",
    "closed": "e46687c66333de99cc0eb05edc4ba3ffcc40cafbefbdd7ba01adddad82613dbc",
}


def _kernel_sources():
    """Every generated kernel source, with its template, loop, force law,
    channels and body, over every template, loop, law and channel tuple."""
    for (method, template), (loop, (names, bodies, *_)) in itertools.product(
            engine._TEMPLATES.items(), engine._LOOPS.items()):
        laws = engine._FORCE_LINES if loop == "closed" else (None,)
        rows = (CHANNELS, SUMMARY_CHANNELS) if loop == "closed" else (names,)
        for law, channels in itertools.product(laws, rows):
            body = (bodies[method].replace("$force", engine._FORCE_LINES.get(law, ""))
                    .replace("$state", ", ".join(names)))
            yield (method, template, loop, law, channels, body,
                   engine._kernel_source(method, loop, law, channels))


def test_kernel_sources_have_no_power_operator_and_rk4_updates_no_division():
    """No generated kernel, for any method, loop, force law or channels, has
    a ``**`` (the interpreter's generic power; textbook cubes and rk23's step
    factor call the bound ``math.pow``), and each stage of a kernel is the
    body its loop keys by its template, expanded. The closed loop's rk23
    kernels inline the unchanged textbook body, which begins with
    ``_PLANT_BODY``. Every kernel of the reduced form, which the closed loop's
    rk4 and every open-loop kernel take, has no ``pow(`` and at most 5 ``/``
    per stage, every other ``/`` being in the template's per-interval lines
    or the row's emit lines, and a stage calls no function but ``sqrt`` and
    the force law's ``tanh`` or ``f``: no libm function on rk4's dynamics
    path but ``sqrt``, and ``tanh`` for the friction law. No rk4 kernel
    divides in the update of a state: the interpreter specializes float
    ``+ - *`` only."""
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    assert sha(engine._PLANT_BODY) == _TEXTBOOK_SHA256["plant"]
    textbook = engine._LOOPS["closed"][1]["rk23"]
    assert textbook.startswith(engine._PLANT_BODY)
    assert sha(textbook) == _TEXTBOOK_SHA256["closed"]
    for method, template, loop, law, channels, body, source in _kernel_sources():
        source += "\n"
        names, _, emit, expressions = engine._LOOPS[loop]
        stages = [m.groups() for m in map(functools.partial(re.fullmatch, engine._STAGE),
                                            template.splitlines()) if m]
        assert "**" not in source, (method, loop, law)
        for pad, k, t, _ in stages:
            stage = body.replace("$t", t).replace("$k", k)
            assert "".join(f"{pad}{ln}\n" for ln in stage.splitlines()) in source, \
                (method, loop, law, k)
        if body.startswith(engine._REDUCED_PLANT_BODY):
            assert "pow(" not in source and body.count("/") <= 5, (method, loop, law)
            assert set(re.findall(r"(\w+)\(", body)) <= {"sqrt", "DomainError", "tanh", "f"}
            row = emit.count("/") + sum(expressions[name].count("/") for name in channels)
            assert source.count("/") == (template.count("/") + len(stages) * body.count("/")
                                         + template.count("$emit") * row), (method, loop)
        if method == "rk4":
            updates = re.findall(r"^ *y\d+ = .*$", source, flags=re.M)
            assert len(updates) == len(names), (loop, updates)
            assert not any("/" in line for line in updates), updates


def test_every_bound_constant_is_read_by_a_kernel(study):
    """Every name that ``_closed_kernel`` or ``_open_kernel`` binds is read by
    at least one generated kernel source, across every template, loop, force
    law and channel tuple: a body deleted takes with it the constants that
    only it read, or this fails."""
    read = set()
    for *_, source in _kernel_sources():
        read |= {node.id for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = set()
    for method in engine._TEMPLATES:
        bound |= set(engine._open_kernel(method, study.params, study.params.R).keywords)
        for force in (ForceModel("constant", 0.7), _OverriddenForce("spring", 10.0)):
            bound |= set(engine._closed_kernel(method, study.params, study.gains, force,
                                               1e-3).keywords)
    assert bound <= read, sorted(bound - read)


def test_engine_branches_on_no_form_outside_the_body_lookup():
    """A template chooses nothing of the right-hand side but the body that its
    loop keys by it. The closed loop keys the textbook body by rk23 and the
    one-stage template and the reduced body by rk4; the open loop keys its one
    body, the reduced one, by every template. In ``engine`` a loop's bodies
    are read only as ``bodies[method]``, and a body's name (``_PLANT_BODY``,
    ``_REDUCED_PLANT_BODY``, ``_CLOSED_BODY``, ``_REDUCED_CLOSED_BODY``) only
    where a body or ``_LOOPS`` is built. So no constant, template or other
    code can branch on the form."""
    closed, open_ = engine._LOOPS["closed"][1], engine._LOOPS["open"][1]
    assert closed == {"rk23": engine._CLOSED_BODY, "rk4": engine._REDUCED_CLOSED_BODY,
                      "rhs": engine._CLOSED_BODY}
    assert list(open_) == list(engine._TEMPLATES) and len(set(open_.values())) == 1
    assert open_["rhs"].startswith(engine._REDUCED_PLANT_BODY)
    tree = ast.parse(inspect.getsource(engine))
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    names = {"_PLANT_BODY", "_REDUCED_PLANT_BODY", "_CLOSED_BODY", "_REDUCED_CLOSED_BODY"}

    def allowed(node):
        if node.id == "bodies":
            return ast.unparse(parent[node]) == "bodies[method]"
        while node in parent and not isinstance(node, ast.Assign):
            node = parent[node]
        return isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) in names | {"_LOOPS"}

    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and node.id in names | {"bodies", "form", "_FORMS"}]
    assert len(uses) > 5
    assert [ast.unparse(parent[node]) for node in uses if not allowed(node)] == []


def test_open_loop_rhs_matches_reference(params):
    """The open-loop right-hand side equals its reference form, the reduced
    one, bit for bit at sampled states across the admissible range, with
    damping."""
    open_rhs = engine._open_kernel("rhs", params, params.R)
    reference = _reference_reduced_open_field(params, params.R)

    lo, hi = params.geometry.position_bounds()
    rng = np.random.default_rng(17)
    for _ in range(200):
        state = (float(rng.uniform(lo, hi)), float(rng.uniform(-0.05, 0.05)),
                 float(rng.uniform(-3e4, 3e4)), float(rng.uniform(-3e4, 3e4)))
        assert open_rhs(0.0, *state) == reference(0.0, *state)[0], state


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
            fast = engine._closed_kernel("rhs", params, gains, force, x_star)(0.0, *state)
            assert fast == _reference_make_field(params, gains, force, x_star)(0.0, *state)[0], \
                (force, x_star, state)
    # The override, not the base kind, is the force the right-hand side reads.
    state = (1e-3, 0.02, 0.0, 0.0, 0.0)
    base, override = (engine._closed_kernel("rhs", params, gains, force, 0.0)(0.0, *state)[1]
                      for force in (ForceModel("spring", 10.0), _OverriddenForce("spring", 10.0)))
    assert base != override


def test_class_level_force_wrapper_sees_every_evaluation(study, monkeypatch):
    """A counting wrapper set on ``ForceModel.__call__``, as a tracer does,
    is called once per right-hand-side evaluation, for every force kind and
    both methods, and the runs stay bit-identical: the record reads the force
    of the evaluations. rk23 evaluates one first stage per slice (a kernel
    call, ending at a multiple of SLICE_SAMPLES samples or a segment's end),
    three stages per attempted step and none for the last sample, whose row
    comes from the stage its last step ended with, counted on the reference
    stepper and field, which take the same steps, over one segment and over
    the three of the multistep preset; rk4 evaluates four stages per step and
    one for the last sample. The summary path makes the same evaluations and
    gives the record's diagnostics, and makes the same evaluations as
    ``simulate`` on failing runs too: rk23 domain exits (fig2-F1 at alpha =
    22 and the digested two-segment one), a step underflow, and an rk4 run
    whose second segment fails at its first stage."""
    counts = {"force": 0, "rhs": 0}
    slices = []   # the evaluations of each kernel call of a run
    call = ForceModel.__call__

    def counted_call(force, x, xdot):
        counts["force"] += 1
        return call(force, x, xdot)

    def counting_kernel(method, *args):
        field = _reference_closed_field(method, *args)

        def counted_field(*state):
            counts["rhs"] += 1
            slices[-1] += 1
            return field(*state)

        def kernel(*args):
            slices.append(0)
            return _reference_kernel(counted_field, method)(*args)
        return kernel

    forces = [ForceModel(kind, value) for kind, value in
              (("constant", 0.01), ("tanh_friction", 5.0), ("spring", -10.0))]
    rk4 = replace(study.solver, method="rk4", fixed_step=1e-4)
    scenarios = ([replace(study, force=force, duration=0.5) for force in forces]
                 + [load_preset("multistep")]
                 + [replace(study, force=force, solver=rk4, duration=0.1) for force in forces])
    plain = [simulate(scenario) for scenario in scenarios]
    runs = pin.table_runs()
    failing = [replace(study, gains=replace(study.gains, alpha=22.0)), runs["domain-exit"],
               runs["step-underflow"], _failing_at(runs["rk4-multistep"], 16)]

    def evaluations_of(run, scenario):
        counts["rhs"] = 0
        slices.clear()
        result = run(scenario)
        return result, counts["rhs"]

    with monkeypatch.context() as patch:
        patch.setattr(engine, "_closed_kernel", counting_kernel)
        evaluations, slice_evaluations = [], []
        for scenario in scenarios:
            evaluations.append(evaluations_of(simulate, scenario)[1])
            slice_evaluations.append(list(slices))
        for scenario, rhs_evals in zip(scenarios, evaluations):
            assert evaluations_of(simulate_summary, scenario)[1] == rhs_evals, scenario
        for scenario in failing:
            record, rhs_evals = evaluations_of(simulate, scenario)
            summary, summary_evals = evaluations_of(simulate_summary, scenario)
            assert record.status != "ok" and summary.status == record.status, scenario
            assert summary_evals == rhs_evals, (scenario, rhs_evals, summary_evals)
    monkeypatch.setattr(ForceModel, "__call__", counted_call)
    for scenario, expected, rhs_evals, per_slice in zip(scenarios, plain, evaluations,
                                                        slice_evaluations):
        counts["force"] = 0
        record = simulate(scenario)
        assert record == expected, scenario
        assert rhs_evals > 0 and counts["force"] == rhs_evals, (scenario, rhs_evals, counts)
        counts["force"] = 0
        summary = simulate_summary(scenario)
        assert _same_summary(summary, diagnostics(record, scenario.gains, scenario.params))
        assert counts["force"] == rhs_evals, (scenario, rhs_evals, counts)
        if scenario.solver.method == "rk4":
            t = record["t"].tolist()
            steps = sum(math.ceil((b - a) / rk4.fixed_step - 1e-12) for a, b in zip(t, t[1:]))
            assert rhs_evals == 4 * steps + 1, (scenario, rhs_evals, steps)
        else:
            grid = record["t"].tolist()
            cuts = [grid.index(t) for t, _ in scenario.setpoints] + [len(grid) - 1]
            size = engine.SLICE_SAMPLES
            assert len(per_slice) == sum((b - 1) // size - a // size + 1
                                         for a, b in zip(cuts, cuts[1:])), (scenario, per_slice)
            assert all(n % 3 == 1 for n in per_slice), (scenario, per_slice)
    assert [len(n) for n in slice_evaluations[:4]] == [1, 1, 1, 18]


def test_each_kernel_compiles_once_per_process(study, monkeypatch):
    """A kernel is compiled once per (method, loop, force law, channels), on
    first use, and reused by every later setpoint segment and sweep point:
    the record's rows and the summary rows each have their own."""
    compiled = []

    def counting_compile(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(engine, "compile", counting_compile, raising=False)
    # an empty cache of its own, so that no earlier test has compiled a kernel
    monkeypatch.setattr(engine, "_kernel_factory",
                        functools.cache(engine._kernel_factory.__wrapped__))
    multistep = load_preset("multistep")
    rk4 = replace(multistep.solver, method="rk4", fixed_step=1e-4)
    setpoints = ((0.0, 1e-3), (0.04, 2e-3), (0.07, -1e-3))
    for alpha in (5.0, 10.0, 20.0):   # three sweep points of three segments each
        point = replace(multistep, gains=replace(multistep.gains, alpha=alpha),
                        setpoints=setpoints, duration=0.1)
        for run in (simulate_summary, simulate):
            assert run(point).status == "ok"
            assert run(replace(point, solver=rk4)).status == "ok"
        simulate_open_loop(study.params, PlantState(5e-4, 0.0, 2e4, 1e4), 0.01, rk4,
                           R_override=alpha)
    record, summary = ",".join(CHANNELS), ",".join(SUMMARY_CHANNELS)
    assert sorted(compiled) == sorted(
        [f"<antago kernel {method} closed constant {channels}>"
         for method in ("rk23", "rk4") for channels in (record, summary)]
        + ["<antago kernel rk4 open None x,p,P1,P2>"])


@pytest.mark.parametrize("method", [*engine.STEPPERS, "rhs"])
@pytest.mark.parametrize("force", [None, ForceModel("constant", 0.7),
                                   ForceModel("tanh_friction", 5.0),
                                   ForceModel("spring", -10.0),
                                   _OverriddenForce("spring", 10.0)],
                         ids=["open", "constant", "tanh_friction", "spring", "call"])
def test_kernels_take_their_constants_as_keyword_only_parameters(study, method, force):
    """A kernel reads no closure cell: each bound constant, the functions
    and the ``"call"`` law's ``f`` included, is a keyword-only parameter,
    which the segment's ``functools.partial`` supplies. A stepper kernel's
    positional parameters end in ``emit`` and ``last``, which has it emit the
    last sample's row too."""
    if force is None:
        kernel = engine._open_kernel(method, study.params, study.params.R)
    else:
        kernel = engine._closed_kernel(method, study.params, study.gains, force, 1e-3)
    code = kernel.func.__code__
    assert (kernel.args, code.co_freevars) == ((), ())
    assert code.co_kwonlyargcount == len(kernel.keywords)
    assert code.co_varnames[code.co_argcount:][:len(kernel.keywords)] == tuple(kernel.keywords)
    if method in engine.STEPPERS:
        assert code.co_varnames[:code.co_argcount][-2:] == ("emit", "last")


@pytest.mark.parametrize("method", engine.STEPPERS)
@pytest.mark.parametrize("force", [None, ForceModel("constant", 0.7),
                                   ForceModel("tanh_friction", 5.0),
                                   ForceModel("spring", -10.0),
                                   _OverriddenForce("spring", 10.0)],
                         ids=["open", "constant", "tanh_friction", "spring", "call"])
def test_last_emits_the_row_of_the_returned_state(study, method, force):
    """A stepper kernel's call with ``last`` returns the state and step of
    the call without it and emits the same rows, then one more: the row of
    the state it returns at the last grid time, bit for bit the reference
    field's row there. rk23 takes that row from the stage its landing step
    ended with, rk4 from one more evaluation."""
    solver = (study.solver if method == "rk23"
              else replace(study.solver, method="rk4", fixed_step=1e-4))
    grid = (0.0, 1e-3, 2e-3)
    if force is None:
        kernel = engine._open_kernel(method, study.params, study.params.R)
        field = _reference_reduced_open_field(study.params, study.params.R)
        y0 = (5e-4, 0.0, 2e4, 1e4)
    else:
        kernel = engine._closed_kernel(method, study.params, study.gains, force, 1e-3)
        field = _reference_closed_field(method, study.params, study.gains, force, 1e-3)
        init = study.initial
        y0 = (init.x, init.p, init.P1, init.P2, study.initial_F_hat())
    calls = {}
    for last in (False, True):
        rows = bytearray()
        calls[last] = kernel(y0, grid, solver, 1e-6, rows.extend, last), bytes(rows)
    (y, h), rows = calls[False]
    assert calls[True][0] == (y, h)
    expected = bytearray()
    _emit_row(expected.extend, field(grid[-1], *y)[1](grid[-1]))
    assert len(rows) == len(expected) * (len(grid) - 1)
    assert calls[True][1] == rows + expected


_FRESH_SETUP = """\
import sys
import antago.cli
from antago import engine
from antago.scenario_io import list_presets, load_preset
names = list_presets()
for name in names:
    load_preset(name)
print(len(names), engine._kernel_factory.cache_info().misses, "array" in sys.modules)
"""


def test_import_and_parse_compile_no_kernel():
    """Importing the CLI and parsing the presets compiles no kernel and loads
    no ``array`` module, which only the functions that build rows import, so
    a command's set-up time includes neither."""
    src = str(Path(engine.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _FRESH_SETUP], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert proc.stdout.split() == ["4", "0", "False"]
