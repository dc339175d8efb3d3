"""Control law: sigma, matching, shaped energy, gain conditions, stepper map."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from antago.controller import (
    ControllerGains,
    closed_loop_field,
    control_flows,
    desired_energy,
    desired_energy_rate,
    sigma,
    validate_gains,
)
from antago.engine import ForceModel, augmented_field, simulate
from antago.errors import DomainError
from antago.observer import observer_rate
from antago.plant import (
    ActuatorGeometry,
    FluidParams,
    PlantParams,
    PlantState,
    open_loop_field,
    total_mass,
)
from antago.scenario_io import load_preset
from antago.verify import check_matching
from point_loop import held_flow_run, initial_state, loop_field
from stepper_mapping import (
    StepperParams,
    min_jerk_position,
    min_jerk_velocity,
    stepper_target,
    stepper_target_digital,
    stepper_target_empirical,
)


def _random_state(params, rng, p_scale=0.1, P_scale=5e4):
    lo, hi = params.geometry.position_bounds()
    pad = 0.05 * (hi - lo)
    return PlantState(x=float(rng.uniform(lo + pad, hi - pad)),
                      p=float(rng.uniform(-p_scale, p_scale)),
                      P1=float(rng.uniform(-P_scale, P_scale)),
                      P2=float(rng.uniform(-P_scale, P_scale)))


def test_gains_must_be_positive():
    for bad in ({"k_p": 0.0}, {"k_m": -1.0}, {"k_i": 0.0}, {"alpha": -2.0},
                {"k_p": math.nan}, {"k_m": math.inf}, {"alpha": math.nan}):
        kwargs = dict(k_p=1.0, k_m=2.0, k_i=10.0, alpha=10.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            ControllerGains(**kwargs)


def test_setpoint_validation(study):
    replace(study, setpoints=((0.0, 1e-3),))
    lo, hi = study.params.geometry.position_bounds()
    for x_star in (4e-3, -4e-3, math.nan):
        with pytest.raises(DomainError) as info:
            replace(study, setpoints=((0.0, 1e-3), (0.5, x_star)))
        assert str(info.value) == (
            f"setpoint {x_star!r} outside admissible range ({lo:.4e}, {hi:.4e})")


def test_sigma_trivial_zero(params, gains):
    s = sigma(PlantState(1e-3, 0.0, 0.0, 0.0), 0.0, gains, 1e-3, params.geometry)
    assert s.value == 0.0


def test_sigma_partials_match_finite_differences(params, gains):
    rng = np.random.default_rng(13)
    x_star = 1e-3
    h_x, h_P = 1e-8, 1e-1
    for _ in range(20):
        state = _random_state(params, rng)
        F_hat = float(rng.uniform(-5, 5))
        s = sigma(state, F_hat, gains, x_star, params.geometry)

        def val(st):
            return sigma(st, F_hat, gains, x_star, params.geometry).value

        fd_x = (val(replace(state, x=state.x + h_x))
                - val(replace(state, x=state.x - h_x))) / (2 * h_x)
        assert s.d_x == pytest.approx(fd_x, rel=1e-6)
        fd_P1 = (val(replace(state, P1=state.P1 + h_P))
                 - val(replace(state, P1=state.P1 - h_P))) / (2 * h_P)
        assert s.d_P1 == pytest.approx(fd_P1, rel=1e-6)
        fd_P2 = (val(replace(state, P2=state.P2 + h_P))
                 - val(replace(state, P2=state.P2 - h_P))) / (2 * h_P)
        assert s.d_P2 == pytest.approx(fd_P2, rel=1e-6)


def test_flows_vanish_at_equilibrium(params, gains):
    state = PlantState(1e-3, 0.0, 0.0, 0.0)
    U1, U2 = control_flows(state, 0.0, gains, 1e-3, params)
    assert U1 == 0.0 and U2 == 0.0


def test_closed_loop_field_zero_at_equilibrium(params, gains):
    state = PlantState(1e-3, 0.0, 0.0, 0.0)
    field = closed_loop_field(state, 0.0, 0.0, gains, 1e-3, params)
    assert field == (0.0, 0.0, 0.0, 0.0)


def test_matching_shaped_equals_driven_open_loop(params, gains):
    """The open-loop field driven by the flow commands reproduces the shaped
    field componentwise — the central design identity, exercised here on
    another seed than the acceptance run."""
    report = check_matching(seed=123)
    assert report.ok, report.lines


def test_matching_single_state_spot_check(params, gains):
    rng = np.random.default_rng(77)
    state = _random_state(params, rng)
    F_hat, x_star = 1.5, 5e-4
    F = -2.0
    U1, U2 = control_flows(state, F_hat, gains, x_star, params)
    raw = open_loop_field(state, U1, U2, F, params)
    shaped = closed_loop_field(state, F_hat, F, gains, x_star, params)
    for a, b in zip(raw, shaped):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-18)


def test_desired_energy_zero_at_equilibrium_positive_elsewhere(params, gains):
    x_star = 1e-3
    H_d, Psi = desired_energy(PlantState(1e-3, 0.0, 0.0, 0.0), 0.0, 0.0,
                              gains, x_star, params)
    assert H_d == 0.0 and Psi == 0.0
    rng = np.random.default_rng(31)
    for _ in range(20):
        state = _random_state(params, rng)
        F_hat = float(rng.uniform(-5, 5))
        H_d, Psi = desired_energy(state, F_hat, 0.0, gains, x_star, params)
        assert H_d >= 0.0 and Psi >= H_d


def test_energy_rate_matches_directional_derivative(params, gains):
    """The analytic rate of the Lyapunov candidate equals its directional
    derivative along the augmented closed-loop field."""
    rng = np.random.default_rng(41)
    x_star = 1e-3
    force = ForceModel("constant", 0.5)

    def psi_of(y):
        state = PlantState(*y[:4])
        return desired_energy(state, y[4], force.value, gains, x_star, params)[1]

    # per-component steps: the candidate is polynomial in p, P1, P2 and F_hat
    # (central differences are exact there); only x needs a small step.
    steps = np.array([1e-9, 1e-7, 1.0, 1.0, 1e-6])
    for _ in range(15):
        state = _random_state(params, rng, p_scale=0.02, P_scale=2e4)
        F_hat = float(rng.uniform(-2, 2))
        y = np.array([state.x, state.p, state.P1, state.P2, F_hat])
        f = np.array(augmented_field(state, F_hat, gains, x_star, force, params))
        numeric = 0.0
        for i, h in enumerate(steps):
            e = np.zeros(5)
            e[i] = h
            numeric += (psi_of(y + e) - psi_of(y - e)) / (2 * h) * f[i]
        analytic = desired_energy_rate(state, F_hat, force.value, gains, x_star, params)
        scale = max(abs(analytic), abs(numeric), 1e-12)
        assert abs(analytic - numeric) / scale < 1e-6, (state, analytic, numeric)


def test_energy_rate_is_negative_quadratic_at_converged_estimate(params, gains):
    """With the estimate converged (zeta = 0) and sigma = 0 the rate reduces
    to the pure damping term and is strictly negative for nonzero momentum."""
    x_star = 1e-3
    state = PlantState(1e-3, 0.05, 0.0, 0.0)
    F_hat = gains.alpha * state.p
    F = 0.0
    rate = desired_energy_rate(state, F_hat, F, gains, x_star, params)
    M = total_mass(state.x, params)
    S22 = gains.k_m * (params.R - gains.alpha * M)
    dHd_p = state.p / (gains.k_m * M)
    s = sigma(state, F_hat, gains, x_star, params.geometry)
    F_hat_rate = observer_rate(state, F_hat, gains.alpha, params)
    expected = -S22 * dHd_p**2 - 2 * gains.k_i * s.value**2 \
        + dHd_p * 0.0 - s.value * F_hat_rate
    assert rate == pytest.approx(expected, rel=1e-12)
    assert -S22 * dHd_p**2 < 0


# --------------------------------------------------------------------------
# Gain validation.

def test_reference_tuning_condition_product(params, gains):
    report = validate_gains(params, gains)
    assert report.M_eval == total_mass(0.0, params)   # the domain midpoint is x = 0
    expected = (params.R - gains.alpha * report.M_eval) * gains.alpha * gains.k_m
    assert report.condition_product == pytest.approx(expected, rel=1e-12)
    assert report.condition_product == pytest.approx(49.374, rel=1e-3)
    assert report.positive_definite
    assert report.rate_bound_ok
    assert report.threshold == 0.25


def test_midpoint_mass_is_the_heaviest():
    """validate_gains certifies at the domain-midpoint mass because no
    admissible position is heavier: on the presets and on drawn geometries
    that pass ActuatorGeometry's checks, the total mass at every interior grid
    position is at most the midpoint's. The grid leaves out the midpoint
    itself, where the two masses agree to rounding."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def assert_heaviest_at_midpoint(params):
        lo, hi = params.geometry.position_bounds()
        heaviest = total_mass(0.5 * (lo + hi), params)
        for x in np.linspace(lo, hi, 102)[1:-1]:
            assert total_mass(float(x), params) <= heaviest, (params, float(x))

    for name in ("fig2-F1", "fig2-F2", "fig2-F3", "multistep"):
        assert_heaviest_at_midpoint(load_preset(name).params)

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @hypothesis.given(L0=st.floats(1e-3, 1.0), n_L=st.integers(1, 50),
                      D_s=st.floats(1e-4, 0.1), d_c=st.floats(1e-4, 0.1),
                      k0=st.floats(1e-2, 1e2), V0=st.floats(1e-12, 1e-3),
                      reach=st.floats(0.01, 1.0), offset=st.floats(0.01, 0.99),
                      rho=st.floats(0.0, 2e4), m=st.floats(1e-6, 1e3))
    def check(L0, n_L, D_s, d_c, k0, V0, reach, offset, rho, m):
        x_M = reach * L0 / 4
        geometry = ActuatorGeometry(L0=L0, n_L=n_L, D_s=D_s, d_c=d_c, k0=k0,
                                    V0=V0, x0=offset * x_M, x_M=x_M)
        assert_heaviest_at_midpoint(PlantParams(geometry, FluidParams(Gamma0=1e9, rho=rho),
                                                m=m, R=1.0))

    check()


def test_alpha_beyond_damping_bound_invalid(params, gains):
    M = total_mass(0.0, params)
    too_fast = replace(gains, alpha=params.R / M + 0.1)
    report = validate_gains(params, too_fast)
    assert not report.positive_definite
    assert report.condition_product < 0


def test_positive_definiteness_flips_at_analytic_root(params, gains):
    """(R - alpha*M)*alpha*k_m crosses 1/4 at the larger root of the quadratic
    in alpha; validity must flip exactly there."""
    M = total_mass(0.0, params)
    R, k_m = params.R, gains.k_m
    root = (R + math.sqrt(R * R - M / k_m)) / (2 * M)
    below = validate_gains(params, replace(gains, alpha=root * (1 - 1e-6)))
    above = validate_gains(params, replace(gains, alpha=root * (1 + 1e-6)))
    assert below.positive_definite
    assert not above.positive_definite


def test_epsilon_bounds_flip_validity(params, gains):
    """Both robustness conditions flip at their analytically computed
    force-variation bounds."""
    M = total_mass(0.0, params)
    prod = (params.R - gains.alpha * M) * gains.alpha  # (R - aM)*a
    # positive-definiteness threshold: 4*k_m*prod = (1 + eps*k_m)^2
    eps_pd = (math.sqrt(4 * gains.k_m * prod) - 1) / gains.k_m
    lo = validate_gains(params, gains, epsilon=eps_pd * (1 - 1e-9))
    hi = validate_gains(params, gains, epsilon=eps_pd * (1 + 1e-9))
    assert lo.positive_definite and not hi.positive_definite
    # solvability threshold: prod = eps/2
    eps_rate = 2 * prod
    lo = validate_gains(params, gains, epsilon=eps_rate * (1 - 1e-9))
    hi = validate_gains(params, gains, epsilon=eps_rate * (1 + 1e-9))
    assert lo.rate_bound_ok and not hi.rate_bound_ok
    # outside the admissible values nothing flips: the call is rejected
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon"):
            validate_gains(params, gains, epsilon=bad)


def test_minor_and_eigenvalue_tests_agree(params):
    """The closed-form verdict equals Sylvester's criterion on the leading
    principal minors of the stability matrix, computed here independently."""
    M = total_mass(0.0, params)
    rng = np.random.default_rng(53)
    for _ in range(60):
        gains = ControllerGains(k_p=float(rng.uniform(0.1, 10)),
                                k_m=float(rng.uniform(0.1, 10)),
                                k_i=float(rng.uniform(0.1, 50)),
                                alpha=float(rng.uniform(0.1, 40)))
        eps = float(rng.uniform(0, 5))
        a = (params.R - gains.alpha * M) / (gains.k_m * M * M)
        b = 1 / (2 * gains.k_m * M) + eps / (2 * M)
        minors = (a > 0, a * gains.alpha - b * b > 0, 2 * gains.k_i > 0)
        report = validate_gains(params, gains, epsilon=eps)
        assert report.positive_definite == all(minors), (gains, eps)


def test_validate_gains_never_raises_for_finite_input(params):
    """Drawn finite positive gains, R and m, and any finite epsilon >= 0 give
    a report, even where the stability matrix leaves the float range, and its
    verdict is Sylvester's criterion on that matrix in exact arithmetic. A
    draw whose determinant's two sides agree to 1e-12 is left to rounding."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @hypothesis.given(k_p=positive, k_m=positive, k_i=positive, alpha=positive,
                      R=positive, m=positive,
                      eps=st.floats(min_value=0.0, allow_infinity=False))
    def check(k_p, k_m, k_i, alpha, R, m, eps):
        gains = ControllerGains(k_p=k_p, k_m=k_m, k_i=k_i, alpha=alpha)
        report = validate_gains(replace(params, R=R, m=m), gains, epsilon=eps)
        R, a, k, e, M = map(Fraction, (R, alpha, k_m, eps, report.M_eval))
        # The (p, zeta) block [[A, B], [B, alpha]]; its third diagonal entry 2*k_i > 0.
        A = (R - a * M) / (k * M * M)
        B = 1 / (2 * k * M) + e / (2 * M)
        if abs(A * a - B * B) <= Fraction(1, 10**12) * max(abs(A * a), B * B):
            return
        assert report.positive_definite == (A > 0 and A * a > B * B and 2 * k_i > 0)

    check()


def test_assigned_damping_positive_when_valid(params):
    rng = np.random.default_rng(59)
    for _ in range(40):
        gains = ControllerGains(k_p=1.0, k_m=float(rng.uniform(0.5, 4)),
                                k_i=10.0, alpha=float(rng.uniform(1, 30)))
        M = total_mass(0.0, params)
        report = validate_gains(params, gains)
        if report.positive_definite:
            assert gains.k_m * (params.R - gains.alpha * M) > 0


# --------------------------------------------------------------------------
# Stepper mapping.

def test_min_jerk_boundaries_and_midpoint():
    assert min_jerk_position(0.0, 2.0, 1.0, 3.0) == 1.0
    assert min_jerk_position(2.0, 2.0, 1.0, 3.0) == 3.0
    assert min_jerk_position(1.0, 2.0, 1.0, 3.0) == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(DomainError):
        min_jerk_position(-0.1, 2.0, 1.0, 3.0)
    with pytest.raises(DomainError):
        min_jerk_position(2.1, 2.0, 1.0, 3.0)


def test_min_jerk_velocity_matches_finite_difference():
    T_f, x0, x1 = 0.096, 0.0, 2e-4
    h = 1e-9
    for t in np.linspace(0.01, 0.086, 9):
        t = float(t)
        fd = (min_jerk_position(t + h, T_f, x0, x1)
              - min_jerk_position(t - h, T_f, x0, x1)) / (2 * h)
        assert min_jerk_velocity(t, T_f, x0, x1) == pytest.approx(fd, rel=1e-6)


def test_stepper_params_validation():
    for bad in ({"S": 0.0}, {"delta_t": -0.048}, {"T_f": 0.04},
                {"S": math.nan}, {"S": math.inf}, {"delta_t": math.nan},
                {"T_f": math.inf}, {"T_f": math.nan}, {"k_U": math.nan}):
        kwargs = dict(S=5.7256e-4, delta_t=0.048, T_f=0.096)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            StepperParams(**kwargs)


def test_stepper_target_zero_flow():
    stepper = StepperParams(S=5.7256e-4, delta_t=0.048, T_f=0.096)
    assert stepper_target(0.0, stepper, 1e-3, 0.02) == 1e-3
    assert stepper_target_digital(0.0, stepper, 1e-3) == 1e-3


def test_stepper_general_equals_digital_special_case():
    stepper = StepperParams(S=5.7256e-4, delta_t=0.048, T_f=2 * 0.048)
    for U in (1e-6, -3e-7, 4.2e-6):
        general = stepper_target(U, stepper, 0.0, stepper.delta_t)
        digital = stepper_target_digital(U, stepper, 0.0)
        assert general == pytest.approx(digital, rel=1e-15)


def test_stepper_worked_value():
    stepper = StepperParams(S=5.7256e-4, delta_t=0.048, T_f=0.096)
    dx = stepper_target_digital(1e-6, stepper, 0.0)
    assert dx == pytest.approx(8.943e-5, rel=5e-4)


def test_stepper_time_domain_errors():
    stepper = StepperParams(S=5.7256e-4, delta_t=0.048, T_f=0.096)
    for t in (0.0, 0.096, -0.01, 0.2):
        with pytest.raises(DomainError):
            stepper_target(1e-6, stepper, 0.0, t)


def test_stepper_empirical_mapping():
    stepper = StepperParams(S=5.7256e-4, delta_t=0.048, T_f=0.096, k_U=1234.5)
    assert stepper_target_empirical(2e-6, stepper, 1e-3) == 1e-3 + 2e-6 * 1234.5


def test_flows_held_at_the_stepper_period_stall_the_loop():
    """The mapping's arithmetic holds, but the simulated loop does not work
    at its period. The experiment's steppers take a new flow command every
    48 ms; held that long from the start of each period, the flows of the law
    leave fig2-F1's payload where it was, while the continuous loop moves it.
    The law's flows are mostly its A*v feed-forward, which must follow the
    velocity; held, they stay near their value at rest, and the stiff fluid
    (a 2.5 kHz hydraulic mode) holds the payload there."""
    pytest.importorskip("scipy.integrate")
    scenario = load_preset("fig2-F1")
    (_, x_star), = scenario.setpoints
    held = held_flow_run(scenario, 0.048, 2)
    # the composed loop, with the flows recomputed, is the engine's: at t = 0,
    # at the end of the held run and at moving, pressurised states, where the
    # A*v feed-forward and the friction's velocity are nonzero (the two agree
    # to rounding, at most 1.7e-10 relative over 200 such draws)
    rng = np.random.default_rng(26)
    draws = [_random_state(scenario.params, rng) for _ in range(5)]
    points = [initial_state(scenario), held]
    points += [(s.x, s.p, s.P1, s.P2, float(rng.uniform(-1.0, 1.0))) for s in draws]
    for y in points:
        engine_field = augmented_field(PlantState(*y[:4]), y[4], scenario.gains, x_star,
                                       scenario.force, scenario.params)
        assert loop_field(y, scenario, x_star) == pytest.approx(engine_field, rel=1e-9)

    held_x = held[0]
    moved_x = float(simulate(replace(scenario, duration=0.096))["x"][-1])
    assert abs(held_x) < 1e-9, held_x
    assert moved_x > 1e-6, moved_x
