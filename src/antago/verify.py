"""Self-contained numerical verification suites.

Each suite of :data:`SUITES` (the matching identity, observer decay,
Lyapunov descent, finite-difference gradients, and the gain arithmetic as
``validate_gains`` reports it) re-derives a theoretical property of the
closed loop with an independent oracle (finite differences, exact exponential
solutions, raw open-loop composition, exact arithmetic) and returns one
:class:`Report`: a :class:`Check` per verdict, each against a bound fixed in
this module, as are the sample counts, and the lines that the CLI ``verify``
subcommand prints. The test suite asserts on the same checks. The suites read
the presets bundled with the package (``BUNDLED_PRESET_DIR``), whatever
``ANTAGO_PRESET_DIR`` names: their bounds are fixed for those. ``lyapunov``
simulates its three presets on :func:`~antago.workers.forked_imap`.

``matching`` and ``gradients`` take a ``seed`` (a negative one is a
``ValueError``), draw their random samples from ``random.Random(seed)`` and
compare two values each time, judged by :func:`_rel_err` down to one rounding
unit of the terms the values sum, so that no verdict depends on the seed (the
test suite checks seeds 0 to 199).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .controller import ControllerGains, closed_loop_field, control_flows, sigma, validate_gains
from .engine import ForceModel, ScenarioConfig, fit_decay_rate, simulate, simulate_summary
from .plant import (
    PlantParams,
    PlantState,
    geometry_terms,
    hamiltonian,
    hamiltonian_gradient,
    open_loop_field,
)
from .scenario_io import BUNDLED_PRESET_DIR, load_scenario
from .workers import forked_imap

MATCHING_SAMPLES = 100
MATCHING_BOUND = 1e-9
DECAY_BOUND = 1e-2
LYAPUNOV_REL_BOUND = 1e-9   # on the largest Psi of the run
LYAPUNOV_PRESETS = ("fig2-F1", "fig2-F2", "fig2-F3")
GRADIENT_POINTS = 20
GRADIENT_BOUNDS = {"volume-gradients": 1e-6, "volume-curvatures": 1e-5,
                   "hamiltonian-gradient": 1e-6, "sigma-partials": 1e-6}

_ULP = 2.0**-52   # one rounding unit


def _bundled(name: str) -> ScenarioConfig:
    """The preset ``name`` as shipped with the package."""
    return load_scenario(BUNDLED_PRESET_DIR / f"{name}.ini")


def _rel_err(a: float, b: float, terms: float, bound: float) -> float:
    """``|a - b| / (max(|a|, |b|) + 2**-52 * terms / bound)``, where ``terms`` is
    the summed magnitude of the terms that ``a`` and ``b`` add up.

    It is below ``bound`` exactly when ``|a - b| < bound * max(|a|, |b|) +
    2**-52 * terms``: a value that cancellation leaves small is judged on one
    rounding unit of its terms, the error bound of a sum (Higham, *Accuracy
    and Stability of Numerical Algorithms*, section 4.2), not on its own size.
    """
    if a == b:
        return 0.0
    return abs(a - b) / (max(abs(a), abs(b)) + _ULP * terms / bound)


def _uniform(seed: int):
    """``uniform(low, high)`` over ``random.Random(seed)``, drawn as
    ``low + (high - low) * random()``: Python keeps the sequence of
    ``random()`` for a seed across versions, not that of ``Random.uniform``."""
    if seed < 0:   # Random(-n) would draw the samples of seed n
        raise ValueError("expected non-negative integer")
    draw = random.Random(seed).random
    return lambda low, high: low + (high - low) * draw()


@dataclass(frozen=True)
class Check:
    """One verdict: a measured value against its bound."""

    name: str
    value: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class Report:
    """A suite's checks and the lines that print them."""

    checks: tuple[Check, ...]
    lines: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _worse(worst: float, err: float) -> float:
    """``max(worst, err)``, except that a NaN in either is kept, so that a
    NaN comparison FAILs its check."""
    return err if err > worst or err != err else worst


def _below(name: str, value: float, bound: float) -> Check:
    return Check(name, value, bound, value < bound)


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# --------------------------------------------------------------------------
# 1. Matching: shaped closed-loop field == open-loop field under the control law.

def _matching_terms(state: PlantState, U1: float, U2: float, F_hat: float, F: float,
                    gains: ControllerGains, x_star: float, params: PlantParams
                    ) -> tuple[float, ...]:
    """Per component (dx, dp, dP1, dP2), the summed magnitudes of the terms that
    ``open_loop_field`` and ``closed_loop_field`` add; the pressure rows carry
    ``Gamma0*|U_i|/V_i``, about 1e11, and cancel to a rate far below it."""
    g = geometry_terms(state.x, params.geometry)
    Gamma0, R, k_m, alpha = params.fluid.Gamma0, params.R, gains.k_m, gains.alpha
    dH_x, v, dH_P1, dH_P2 = hamiltonian_gradient(state, params)
    s = sigma(state, F_hat, gains, x_star, params.geometry)
    M = params.m + (g.V1 + g.V2) * params.fluid.rho
    k_m_dHd_x = (-state.p * v * params.fluid.rho * (g.A1 + g.A2) / (2.0 * M)
                 - k_m * gains.k_p * (x_star - state.x) + k_m * s.value * s.d_x)
    # The open loop's dH_x, R*dH_p, Gamma0*A_i/V_i*dH_Pi and F; the closed
    # loop's k_m*dHd_x, S22*dHd_p, S23*dHd_P1 + S24*dHd_P2 and zeta.
    dp = (abs(dH_x) + R * abs(v) + abs(Gamma0 * g.A1 * dH_P1 / g.V1)
          + abs(Gamma0 * g.A2 * dH_P2 / g.V2) + abs(F)
          + abs(k_m_dHd_x) + abs((R - alpha * M) * v)
          + abs((1.0 + k_m * s.d_x) * s.value) + abs(F_hat - alpha * state.p - F))
    # |S23*dHd_p| + |S33*dHd_P1| of the closed loop, times |A1|; likewise for P2.
    shaped = abs((1.0 + k_m * s.d_x) * v / (2.0 * k_m)) + abs(gains.k_i * s.value)
    return (2.0 * abs(v), dp, *(Gamma0 * (abs(U) + abs(A * v)) / V + shaped / abs(A)
                                for U, A, V in ((U1, g.A1, g.V1), (U2, g.A2, g.V2))))


def check_matching(seed: int = 0) -> Report:
    """Compare the substituted closed-loop field against the raw composition.

    At random in-domain states, gains and forces, the open-loop plant driven
    by the computed flow commands must reproduce the shaped field exactly;
    this is the central algebraic identity of the control design. Each
    component is judged down to one rounding unit of the terms both fields
    add (:func:`_matching_terms`).
    """
    params = _bundled("fig2-F1").params
    lo, hi = params.geometry.position_bounds()
    pad = 0.05 * (hi - lo)
    uniform = _uniform(seed)
    worst = 0.0
    for _ in range(MATCHING_SAMPLES):
        state = PlantState(
            x=uniform(lo + pad, hi - pad),
            p=uniform(-0.1, 0.1),
            P1=uniform(-5e4, 5e4),
            P2=uniform(-5e4, 5e4),
        )
        gains = ControllerGains(
            k_p=uniform(0.5, 5.0),
            k_m=uniform(0.5, 4.0),
            k_i=uniform(1.0, 20.0),
            alpha=uniform(1.0, 15.0),
        )
        x_star = uniform(lo + pad, hi - pad)
        F_hat = uniform(-5.0, 5.0)
        F = uniform(-10.0, 10.0)

        U1, U2 = control_flows(state, F_hat, gains, x_star, params)
        raw = open_loop_field(state, U1, U2, F, params)
        shaped = closed_loop_field(state, F_hat, F, gains, x_star, params)
        terms = _matching_terms(state, U1, U2, F_hat, F, gains, x_star, params)
        for a, b, t in zip(raw, shaped, terms):
            worst = _worse(worst, _rel_err(a, b, t, MATCHING_BOUND))
    check = _below("matching", worst, MATCHING_BOUND)
    return Report((check,), (
        f"matching: {MATCHING_SAMPLES} random states, "
        f"worst componentwise rel. err {worst:.3e} "
        f"(bound {MATCHING_BOUND:.1e}) -> {_verdict(check.ok)}",
    ))


# --------------------------------------------------------------------------
# 2. Observer decay: zeta decays exactly like exp(-alpha t) for constant force.

def check_observer_decay() -> Report:
    """Fit the estimation-error decay in a constant-force run.

    The error obeys an exact linear ODE, so the fitted rate must equal the
    observer gain and the squared error must decay at twice that rate.
    """
    base = _bundled("fig2-F1")
    # 0.01 N matches the equilibrium-force scale of the reference scenarios.
    # At the reference tuning, a constant load from rest over 3 s ends ok up
    # to 0.086 N, though still 1.3e-4 m (0.01 N) to 5.7e-4 m (0.086 N) short
    # of the setpoint; 0.1 N leaves the travel at t = 0.312 s, 0.5 N at
    # 0.078 s and 1 N at 0.051 s.
    scenario = replace(base, force=ForceModel("constant", 0.01), duration=1.2,
                       name="observer-decay")
    record = simulate(scenario)
    alpha = scenario.gains.alpha
    t, zeta = record["t"], record["zeta"]
    zeta_rate = fit_decay_rate(t, zeta)
    upsilon_rate = fit_decay_rate(t, zeta**2)
    zeta_err = abs(zeta_rate - alpha) / alpha
    ups_err = abs(upsilon_rate - 2.0 * alpha) / (2.0 * alpha)
    checks = (_below("zeta-rate", zeta_err, DECAY_BOUND),
              _below("zeta-squared-rate", ups_err, DECAY_BOUND))
    return Report(checks, (
        f"observer decay: fitted |zeta| rate {zeta_rate:.6f} "
        f"vs gain {alpha:g} (rel. err {zeta_err:.3e})",
        f"observer energy: fitted zeta^2 rate {upsilon_rate:.6f} "
        f"vs 2*gain {2 * alpha:g} (rel. err {ups_err:.3e})",
        f"bound {DECAY_BOUND:.1e} -> {_verdict(all(c.ok for c in checks))}",
    ))


# --------------------------------------------------------------------------
# 3. Lyapunov descent over the reference scenarios.

def _lyapunov_check(name: str) -> Check:
    scenario = _bundled(name)
    summary = simulate_summary(scenario)
    bound = LYAPUNOV_REL_BOUND * summary.psi_max
    return Check(name, summary.max_psi_increment, bound, summary.max_psi_increment <= bound)


def check_lyapunov() -> Report:
    """Check that the Lyapunov candidate Psi never increases along each run.

    The descent argument assumes the external force varies no faster than the
    motion opposes it; a motion-favouring load sits outside that assumption
    and can produce genuine (tiny but resolvable) positive increments.
    """
    checks = tuple(forked_imap(_lyapunov_check, LYAPUNOV_PRESETS))
    return Report(checks, tuple(
        f"lyapunov {c.name}: max Psi increment {c.value:.3e} "
        f"(bound {c.bound:.3e}) -> {_verdict(c.ok)}"
        for c in checks
    ))


# --------------------------------------------------------------------------
# 4. Gradient suites against central finite differences.

def check_gradients(seed: int = 0) -> Report:
    """Finite-difference validation of every closed-form derivative.

    Each central difference ``(f(x + h) - f(x - h)) / (2h)`` is judged down
    to one rounding unit of its terms, ``(|f(x + h)| + |f(x - h)|) / (2h)``:
    about ``|H|/h`` for the difference quotient of the Hamiltonian H.
    """
    params = _bundled("fig2-F1").params
    geo = params.geometry
    lo, hi = geo.position_bounds()
    pad = 0.05 * (hi - lo)
    uniform = _uniform(seed)
    xs = [uniform(lo + pad, hi - pad) for _ in range(GRADIENT_POINTS)]
    worst = dict.fromkeys(GRADIENT_BOUNDS, 0.0)

    def judge(name: str, exact: float, up: float, dn: float, h: float) -> None:
        err = _rel_err(exact, (up - dn) / (2 * h), (abs(up) + abs(dn)) / (2 * h),
                       GRADIENT_BOUNDS[name])
        worst[name] = _worse(worst[name], err)

    h_x = 1e-8
    for x in xs:
        g = geometry_terms(x, geo)
        up = geometry_terms(x + h_x, geo)
        dn = geometry_terms(x - h_x, geo)
        # Volume gradients vs finite differences of the volumes, and
        # curvatures vs finite differences of the gradients.
        judge("volume-gradients", g.A1, up.V1, dn.V1, h_x)
        judge("volume-gradients", g.A2, up.V2, dn.V2, h_x)
        judge("volume-curvatures", g.dA1, up.A1, dn.A1, h_x)
        judge("volume-curvatures", g.dA2, up.A2, dn.A2, h_x)

        state = PlantState(x=x, p=uniform(-0.1, 0.1),
                           P1=uniform(1e3, 5e4),
                           P2=uniform(1e3, 5e4))
        grad = hamiltonian_gradient(state, params)
        # Pressure steps must be large enough that the energy change clears
        # the kinetic term's roundoff floor; truncation stays negligible
        # because the fluid energy is nearly quadratic in P.
        steps = (1e-8, 1e-7, 1e3, 1e3)
        for i, (dH, h) in enumerate(zip(grad, steps)):
            vals = list((state.x, state.p, state.P1, state.P2))
            vals[i] += h
            hi_val = hamiltonian(PlantState(*vals), params)
            vals[i] -= 2 * h
            judge("hamiltonian-gradient", dH, hi_val, hamiltonian(PlantState(*vals), params), h)

        gains = ControllerGains(k_p=1.0, k_m=2.0, k_i=10.0, alpha=10.0)
        x_star = uniform(lo + pad, hi - pad)
        F_hat = uniform(-5.0, 5.0)
        s = sigma(state, F_hat, gains, x_star, geo)
        for attr, d, h in (("x", s.d_x, h_x), ("P1", s.d_P1, 1e-1), ("P2", s.d_P2, 1e-1)):
            up = replace(state, **{attr: getattr(state, attr) + h})
            dn = replace(state, **{attr: getattr(state, attr) - h})
            judge("sigma-partials", d, sigma(up, F_hat, gains, x_star, geo).value,
                  sigma(dn, F_hat, gains, x_star, geo).value, h)

    checks = tuple(_below(name, worst[name], bound) for name, bound in GRADIENT_BOUNDS.items())
    return Report(checks, tuple(
        f"gradients {c.name}: worst rel. err {c.value:.3e} "
        f"(bound {c.bound:.1e}) -> {_verdict(c.ok)}"
        for c in checks
    ))


# --------------------------------------------------------------------------
# 5. Gain-condition arithmetic.

def check_gains() -> Report:
    """Evaluate the stability conditions on the reference tuning.

    The reference study quotes 80 for the condition product; recomputing it
    from the study's own parameters gives about 49.37, which still clears the
    1/4 threshold comfortably. The discrepancy is reported, not silently
    patched.
    """
    scenario = _bundled("fig2-F1")
    params, gains = scenario.params, scenario.gains
    report = validate_gains(params, gains)
    M, R, k_m = report.M_eval, params.R, gains.k_m
    # Larger root in alpha of (R - alpha*M)*alpha*k_m = threshold.
    alpha_root = (R + math.sqrt(R * R - 4.0 * report.threshold * M / k_m)) / (2.0 * M)
    check = Check("condition-product", report.condition_product, report.threshold,
                  report.positive_definite)
    return Report((check,), (
        f"gains: condition product (R - alpha*M)*alpha*k_m = "
        f"{check.value:.4f} (threshold {check.bound:.4f}) -> {_verdict(check.ok)}",
        f"gains: damping bound alpha < R/M = {R / M:.4f}",
        f"gains: positive-definiteness flips at alpha = {alpha_root:.4f}",
        "note: the reference study states 80 for this product; the parameters "
        "it lists give 49.37",
    ))


SUITES = {
    "matching": check_matching,
    "observer-decay": check_observer_decay,
    "lyapunov": check_lyapunov,
    "gradients": check_gradients,
    "gains": check_gains,
}
