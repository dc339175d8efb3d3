"""Immersion-and-invariance estimator for the unknown external force.

The estimate splits into an integrator state ``F_hat`` and a state-dependent
part ``beta = -alpha * p``; the combined estimate is ``F_tilde = F_hat + beta``.
For a constant true force the estimation error ``zeta = F_tilde - F`` obeys
``d(zeta)/dt = -alpha * zeta`` exactly, for any positive gain ``alpha``, and
independently of the flow inputs.

The update law uses only measurable quantities (x, p, P1, P2) and the
integrator state itself; the true force never enters. ``F_hat`` is a plain
float; ``alpha`` lives only in ``ControllerGains`` and is passed in from there.
"""

from __future__ import annotations

from .plant import PlantParams, PlantState, generalized_force


def observer_rate(state: PlantState, F_hat: float, alpha: float,
                  params: PlantParams) -> float:
    """Time derivative of the integrator state F_hat."""
    return alpha * (generalized_force(state, params) - F_hat + alpha * state.p)
