"""Immersion-and-invariance estimator for the unknown external force.

The estimate splits into an integrator state ``F_hat`` and a state-dependent
part ``beta = -alpha * p``; the combined estimate is ``F_tilde = F_hat + beta``.
For a constant true force the estimation error ``zeta = F_tilde - F`` obeys
``d(zeta)/dt = -alpha * zeta`` exactly, for any positive gain ``alpha``, and
independently of the flow inputs.

The update law uses only measurable quantities (x, p, P1, P2) and the
integrator state itself; the true force never enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .plant import PlantParams, PlantState, generalized_force


@dataclass(frozen=True)
class ObserverState:
    F_hat: float   # integrator state [N]
    alpha: float   # observer gain [1/s]

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("observer gain alpha must be positive and finite")
        if not math.isfinite(self.F_hat):
            raise ValueError("integrator state F_hat must be finite")


@dataclass(frozen=True)
class ForceEstimate:
    F_tilde: float   # combined estimate F_hat + beta [N]
    beta: float      # state-dependent part -alpha*p [N]


def observer_rate(state: PlantState, obs: ObserverState, params: PlantParams) -> float:
    """Time derivative of the integrator state F_hat."""
    beta = -obs.alpha * state.p
    return obs.alpha * (generalized_force(state, params) - obs.F_hat - beta)


def force_estimate(obs: ObserverState, p: float) -> ForceEstimate:
    """Combined force estimate at momentum p."""
    beta = -obs.alpha * p
    return ForceEstimate(F_tilde=obs.F_hat + beta, beta=beta)


def initial_observer(alpha: float, p0: float = 0.0) -> ObserverState:
    """Observer state whose combined estimate starts at zero (unbiased start)."""
    return ObserverState(F_hat=alpha * p0, alpha=alpha)
