"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line. Criterion 4
is expected to fail for the motion-favouring spring load: the descent theory
assumes the external force does not inject energy through its own variation,
and that load violates the assumption by a genuine (tiny but resolvable)
margin. The failure is reported honestly rather than tolerated away.
"""

import math
import time
from dataclasses import replace

import numpy as np

from antago.controller import validate_gains
from antago.engine import diagnostics, simulate
from antago.plant import total_mass
from antago.scenario_io import load_preset
from antago.verify import check_gradients, check_matching, check_observer_decay
from stepper_mapping import StepperParams, stepper_target, stepper_target_digital

FIG2 = ("fig2-F1", "fig2-F2", "fig2-F3")


def _report(n, name, ok, detail):
    print(f"CRITERION {n} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_matching():
    start = time.perf_counter()
    report = check_matching(seed=0)
    elapsed = time.perf_counter() - start
    (check,) = report.checks
    ok = report.ok and check.bound == 1e-9 and elapsed < 1.0
    assert _report(1, "matching identity", ok,
                   f"worst rel err {check.value:.2e} < {check.bound:.0e}, "
                   f"{elapsed:.2f}s < 1s")


def test_criterion_2_observer_exactness():
    start = time.perf_counter()
    report = check_observer_decay()
    elapsed = time.perf_counter() - start
    ok = report.ok and all(c.bound == 1e-2 for c in report.checks) and elapsed < 10.0
    assert _report(2, "observer exactness", ok,
                   "; ".join(report.lines) + f"; {elapsed:.1f}s < 10s")


def test_criterion_3_reference_reproduction():
    start = time.perf_counter()
    expected_force = {"fig2-F1": 0.0, "fig2-F2": 0.01, "fig2-F3": -0.01}
    settle = {}
    ok = True
    details = []
    for name in FIG2:
        scenario = load_preset(name)
        record = simulate(scenario)
        summary = diagnostics(record, scenario.gains, scenario.params)
        settle[name] = summary.settle_time
        x_ok = record.status == "ok" and abs(summary.x_error) < 1e-5
        F_end = record["F_tilde"][-1]
        target = expected_force[name]
        tol = 0.1 * abs(target) if target else 1e-3
        F_ok = abs(F_end - target) <= tol
        ok = ok and x_ok and F_ok
        details.append(f"{name}: |x-x*|={abs(summary.x_error):.1e}, "
                       f"F~={F_end:+.5f} (target {target:+.2f})")
    order_ok = settle["fig2-F3"] < settle["fig2-F2"]
    elapsed = time.perf_counter() - start
    ok = ok and order_ok and elapsed < 30.0
    assert _report(3, "reference study reproduction", ok,
                   "; ".join(details)
                   + f"; settle F3 {settle['fig2-F3']:.2f}s < F2 "
                     f"{settle['fig2-F2']:.2f}s; {elapsed:.1f}s < 30s")


def test_criterion_4_lyapunov_descent(fig2_runs):
    ok = True
    details = []
    for name in FIG2:
        scenario, record = fig2_runs[name]
        summary = diagnostics(record, scenario.gains, scenario.params)
        bound = 1e-9 * summary.psi_max
        this_ok = summary.max_psi_increment <= bound
        ok = ok and this_ok
        details.append(f"{name}: max increment {summary.max_psi_increment:.2e} "
                       f"vs bound {bound:.2e} ({'ok' if this_ok else 'VIOLATED'})")
    assert _report(4, "Lyapunov descent", ok, "; ".join(details))


def test_criterion_5_gradient_suites():
    report = check_gradients(seed=0)
    detail = ", ".join(f"{c.name} {c.value:.1e}<{c.bound:.0e}" for c in report.checks)
    assert _report(5, "gradient suites", report.ok, detail)


def test_criterion_6_gain_validation():
    scenario = load_preset("fig2-F1")
    params, gains = scenario.params, scenario.gains
    M = total_mass(0.0, params)
    report = validate_gains(params, gains)
    prod_ok = (report.positive_definite
               and abs(report.condition_product - 49.374) < 0.05
               and report.condition_product > 0.25)
    # damping bound flips exactly at alpha = R/M
    limit = params.R / M
    at_limit = validate_gains(params, replace(gains, alpha=limit * (1 + 1e-9)))
    below_limit = validate_gains(params, replace(gains, alpha=limit * (1 - 1e-9)))
    damping_ok = (not at_limit.positive_definite
                  and below_limit.condition_product > 0)
    # epsilon thresholds from exact arithmetic
    prod = (params.R - gains.alpha * M) * gains.alpha
    eps_pd = (math.sqrt(4 * gains.k_m * prod) - 1) / gains.k_m
    eps_rate = 2 * prod
    eps_ok = (validate_gains(params, gains, epsilon=eps_pd * (1 - 1e-9)).positive_definite
              and not validate_gains(params, gains, epsilon=eps_pd * (1 + 1e-9)).positive_definite
              and validate_gains(params, gains, epsilon=eps_rate * (1 - 1e-9)).rate_bound_ok
              and not validate_gains(params, gains, epsilon=eps_rate * (1 + 1e-9)).rate_bound_ok)
    ok = prod_ok and damping_ok and eps_ok
    assert _report(6, "gain validation", ok,
                   f"product {report.condition_product:.4f} ≈ 49.374 > 0.25; "
                   f"alpha bound flips at R/M = {limit:.4f}; epsilon bounds "
                   f"flip at {eps_pd:.4f} and {eps_rate:.4f}")


def test_criterion_7_stepper_mapping():
    stepper = StepperParams(S=5.7256e-4, delta_t=0.048, T_f=2 * 0.048)
    agree = max(
        abs(stepper_target(U, stepper, 0.0, stepper.delta_t)
            - stepper_target_digital(U, stepper, 0.0))
        / max(abs(stepper_target_digital(U, stepper, 0.0)), 1e-30)
        for U in (1e-6, -2e-6, 5e-7)
    )
    worked = stepper_target_digital(1e-6, stepper, 0.0)
    worked_ok = abs(worked - 8.943e-5) / 8.943e-5 < 5e-4  # 4 significant figures
    ok = agree < 1e-14 and worked_ok
    assert _report(7, "stepper mapping", ok,
                   f"general vs digital rel diff {agree:.1e} < 1e-14; "
                   f"worked value {worked:.6e} ≈ 8.943e-5")


def test_criterion_8_solver_robustness(fig2_runs, rk4_runs, halved_runs, lossless_run):
    cross_worst = 0.0
    halve_worst = 0.0
    for name in FIG2:
        scenario, record = fig2_runs[name]
        rk4 = rk4_runs[name]
        scale = np.max(np.abs(record["x"]))
        cross_worst = max(cross_worst,
                          float(np.max(np.abs(record["x"] - rk4["x"])) / scale))
        halved = halved_runs[name]
        for ch in ("x", "p", "P1", "P2"):
            ch_scale = max(float(np.max(np.abs(record[ch]))), 1e-30)
            halve_worst = max(halve_worst,
                              abs(float(record[ch][-1] - halved[ch][-1])) / ch_scale)
    _, _, H = lossless_run
    drift = float(np.max(np.abs(H - H[0])) / H[0])
    ok = cross_worst < 1e-5 and halve_worst < 1e-8 and drift < 1e-8
    assert _report(8, "solver robustness", ok,
                   f"rk23 vs rk4 x(t) rel err {cross_worst:.1e} < 1e-5; "
                   f"tolerance halving {halve_worst:.1e} < 1e-8; "
                   f"lossless energy drift {drift:.1e} < 1e-8")
