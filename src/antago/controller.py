"""Energy-shaping flow-rate controller for the antagonistic actuator pair.

The controller assigns the closed-loop storage function

    H_d = p^2 / (2*k_m*M) + k_p*(x_star - x)^2 / 2 + sigma^2 / 2

where ``sigma = P1*A1 + P2*A2 - F_hat + k_p*k_m*(x - x_star)`` couples the
pressures to the regulation error. Matching the open-loop dynamics against the
shaped closed loop fixes the interconnection entries and yields the flow
commands in closed form; the estimation error ``zeta`` of the force observer
enters the shaped momentum equation as a vanishing disturbance.

Two conventions are forced by the matching identity itself (and verified to
machine precision by the test suite):

* the momentum row of the shaped dynamics is forced by ``+zeta``, with
  ``zeta = F_hat - alpha*p - F`` (the opposite sign breaks the identity);
* the velocity entering the pressure-rate correction is the shaped one,
  ``p / (k_m*M)``, as required by the pressure rows of the matching equations.

Gain validation certifies the 3x3 stability matrix in the error coordinates
``(p, zeta, sigma)`` positive definite by its closed-form condition at the
domain-midpoint mass ``M``: ``k_i > 0`` and
``(R - alpha*M) * alpha * k_m > (1 + eps*k_m)^2 / 4``, where ``eps`` bounds
the admissible motion-proportional variation of the external force
(``eps = 0`` for a constant force).

The point functions take the force estimate ``F_hat`` and the setpoint
``x_star`` as floats; the observer gain ``alpha`` lives only in ``ControllerGains``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError
from .observer import observer_rate
from .plant import (
    ActuatorGeometry,
    PlantParams,
    PlantState,
    generalized_force,
    geometry_terms,
    total_mass,
)


@dataclass(frozen=True)
class ControllerGains:
    """Constant tuning parameters of the control law and observer."""

    k_p: float    # potential stiffness [N/m]
    k_m: float    # mass scaling [-]
    k_i: float    # pressure-loop gain
    alpha: float  # observer gain [1/s]

    def __post_init__(self) -> None:
        if not all(0.0 < g < math.inf for g in (self.k_p, self.k_m, self.k_i, self.alpha)):
            raise ValueError("all controller gains must be positive and finite")


class SigmaTerms(NamedTuple):
    """Pressure-coupling scalar and its partial derivatives."""

    value: float
    d_x: float
    d_P1: float
    d_P2: float


def sigma(state: PlantState, F_hat: float, gains: ControllerGains,
          x_star: float, geometry: ActuatorGeometry) -> SigmaTerms:
    """Evaluate sigma = P1*A1 + P2*A2 - F_hat + k_p*k_m*(x - x_star) and its gradient."""
    g = geometry_terms(state.x, geometry)
    kpkm = gains.k_p * gains.k_m
    value = state.P1 * g.A1 + state.P2 * g.A2 - F_hat + kpkm * (state.x - x_star)
    d_x = state.P1 * g.dA1 + state.P2 * g.dA2 + kpkm
    return SigmaTerms(value=value, d_x=d_x, d_P1=g.A1, d_P2=g.A2)


def control_flows(state: PlantState, F_hat: float, gains: ControllerGains,
                  x_star: float, params: PlantParams) -> tuple[float, float]:
    """Flow-rate commands (U1, U2) of the energy-shaping control law."""
    g = geometry_terms(state.x, params.geometry)
    if g.A1 == 0.0 or g.A2 == 0.0:
        raise DomainError("volume gradient vanished; state outside design domain")
    M = params.m + (g.V1 + g.V2) * params.fluid.rho
    v = state.p / M
    s = sigma(state, F_hat, gains, x_star, params.geometry)
    shear = (1.0 + gains.k_m * s.d_x) * v / (2.0 * gains.k_m)
    Gamma0 = params.fluid.Gamma0
    U1 = g.A1 * v - (g.V1 / Gamma0) * (shear / g.A1 + gains.k_i * s.value / g.A1)
    U2 = g.A2 * v - (g.V2 / Gamma0) * (shear / g.A2 + gains.k_i * s.value / g.A2)
    return U1, U2


def closed_loop_field(state: PlantState, F_hat: float, true_F: float, gains: ControllerGains,
                      x_star: float, params: PlantParams) -> tuple[float, float, float, float]:
    """Shaped closed-loop state derivative (dx, dp, dP1, dP2).

    Componentwise equal to the open-loop field driven by :func:`control_flows`;
    the matching is the central correctness oracle of the package.
    """
    g = geometry_terms(state.x, params.geometry)
    rho = params.fluid.rho
    M = params.m + (g.V1 + g.V2) * rho
    k_m = gains.k_m
    s = sigma(state, F_hat, gains, x_star, params.geometry)

    dHd_x = (-state.p**2 * rho * (g.A1 + g.A2) / (2.0 * k_m * M * M)
             - gains.k_p * (x_star - state.x)
             + s.value * s.d_x)
    dHd_p = state.p / (k_m * M)
    dHd_P1 = s.value * s.d_P1
    dHd_P2 = s.value * s.d_P2

    S12 = k_m
    S22 = k_m * (params.R - gains.alpha * M)
    S23 = (1.0 + k_m * s.d_x) / (2.0 * s.d_P1)
    S24 = (1.0 + k_m * s.d_x) / (2.0 * s.d_P2)
    S33 = gains.k_i / s.d_P1**2
    S44 = gains.k_i / s.d_P2**2

    zeta = F_hat - gains.alpha * state.p - true_F
    dx = S12 * dHd_p
    dp = -S12 * dHd_x - S22 * dHd_p + S23 * dHd_P1 + S24 * dHd_P2 + zeta
    dP1 = -S23 * dHd_p - S33 * dHd_P1
    dP2 = -S24 * dHd_p - S44 * dHd_P2
    return dx, dp, dP1, dP2


def desired_energy(state: PlantState, F_hat: float, true_F: float, gains: ControllerGains,
                   x_star: float, params: PlantParams) -> tuple[float, float]:
    """Shaped energy H_d and Lyapunov candidate Psi = H_d + zeta^2 / 2."""
    M = total_mass(state.x, params)
    s = sigma(state, F_hat, gains, x_star, params.geometry)
    H_d = (state.p**2 / (2.0 * gains.k_m * M)
           + 0.5 * gains.k_p * (x_star - state.x) ** 2
           + 0.5 * s.value**2)
    zeta = F_hat - gains.alpha * state.p - true_F
    return H_d, H_d + 0.5 * zeta**2


def desired_energy_rate(state: PlantState, F_hat: float, true_F: float, gains: ControllerGains,
                        x_star: float, params: PlantParams, F_rate: float = 0.0) -> float:
    """Analytic time derivative of Psi along the closed loop.

    ``F_rate`` is the time derivative of the true external force (zero for a
    constant force). Beyond the negative quadratic form in (p, zeta, sigma),
    the exact rate carries ``-sigma * dF_hat/dt`` from the estimator moving
    inside sigma, a term the published stability argument drops; it vanishes
    at the equilibrium and is reported here in full so that numerical
    differentiation of Psi can be checked tightly.
    """
    g = geometry_terms(state.x, params.geometry)
    M = params.m + (g.V1 + g.V2) * params.fluid.rho
    s = sigma(state, F_hat, gains, x_star, params.geometry)
    zeta = F_hat - gains.alpha * state.p - true_F
    dHd_p = state.p / (gains.k_m * M)
    S22 = gains.k_m * (params.R - gains.alpha * M)
    F_hat_rate = observer_rate(state, F_hat, gains.alpha, params)
    p_rate = generalized_force(state, params) - true_F
    zeta_rate = F_hat_rate - gains.alpha * p_rate - F_rate
    return (-S22 * dHd_p**2
            - 2.0 * gains.k_i * s.value**2
            + dHd_p * zeta
            - s.value * F_hat_rate
            + zeta * zeta_rate)


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the gain validation at the domain-midpoint mass."""

    positive_definite: bool
    condition_product: float  # (R - alpha*M) * alpha * k_m
    threshold: float          # (1 + epsilon*k_m)^2 / 4, which the product must exceed
    rate_bound_ok: bool       # (R - alpha*M) * alpha > epsilon/2
    M_eval: float             # total mass at the domain midpoint


def validate_gains(params: PlantParams, gains: ControllerGains,
                   epsilon: float = 0.0) -> StabilityReport:
    """Check the closed-loop stability conditions for a gain set.

    Beside ``2*k_i > 0``, the stability matrix holds the (p, zeta) block
    ``[[(R - alpha*M) / (k_m*M^2), b], [b, alpha]]``, ``b = h / (k_m*M)`` with
    ``h = (1 + epsilon*k_m) / 2``. Its determinant is ``(condition_product -
    threshold) / (k_m*M)^2``, so by Sylvester's criterion the matrix is
    positive definite exactly when ``condition_product > threshold``.

    ``M`` is the total mass at the domain midpoint, the heaviest in range:
    each bellows volume is concave in its contraction ``u`` (the curvature is
    negative where ``2/3 - u/(2*L0) > 0``, as ``x_M <= L0/4`` ensures) and the
    two contractions sum to ``x_M``. The product falls as ``M`` grows, so a
    certificate at the midpoint holds over the whole range. Any finite
    ``epsilon >= 0`` gives a report, whatever the tuning.
    """
    if not 0.0 <= epsilon < math.inf:
        raise ValueError("force-variation bound epsilon must be nonnegative and finite")
    lo, hi = params.geometry.position_bounds()
    M_eval = total_mass(0.5 * (lo + hi), params)
    k_m, alpha = gains.k_m, gains.alpha
    damping = params.R - alpha * M_eval
    condition_product = damping * alpha * k_m
    h = (1.0 + epsilon * k_m) / 2.0
    threshold = h * h   # h**2 raises OverflowError, and (2*h)**2 / 4 overflows sooner
    positive_definite = condition_product > threshold
    if damping > 0.0 and max(condition_product, threshold) == math.inf:
        # Past the float range compare logarithms; where h overflows,
        # 1 + epsilon*k_m equals epsilon*k_m to every digit.
        log_h = math.log(h) if h < math.inf else math.log(0.5 * epsilon) + math.log(k_m)
        positive_definite = math.log(damping) + math.log(alpha) + math.log(k_m) > 2.0 * log_h
    return StabilityReport(
        positive_definite=positive_definite,
        condition_product=condition_product,
        threshold=threshold,
        rate_bound_ok=damping * alpha > 0.5 * epsilon,
        M_eval=M_eval,
    )
