"""Stepper-motor command mapping of the experiment's syringe pumps (criterion 7).

The experiment drives each syringe pump by a lead-screw stepper that the
digital controller updates every ``delta_t = 48 ms``: a flow command ``U``
becomes a target position of the plunger, reached along a minimum-jerk
profile. The simulator integrates flows that change continuously and does not
model that digital loop: held for one 48 ms period, the flows of
``control_flows`` leave the payload where it was (see
``test_controller.py::test_flows_held_at_the_stepper_period_stall_the_loop``).
So no run uses this mapping, and it lives here as the arithmetic that
criterion 7 and the stepper tests of ``test_controller.py`` check.
"""

import math
from dataclasses import dataclass

from antago.errors import DomainError


@dataclass(frozen=True)
class StepperParams:
    """Syringe-pump stepper drive parameters."""

    S: float        # syringe cross-section area [m^2]
    delta_t: float  # sampling interval [s]
    T_f: float      # point-to-point trajectory duration [s]
    k_U: float = 0.0  # empirical flow-to-position scale (raw mapping)

    def __post_init__(self) -> None:
        if not (0.0 < self.S < math.inf and 0.0 < self.delta_t < math.inf):
            raise ValueError("S and delta_t must be positive and finite")
        if not self.delta_t <= self.T_f < math.inf:
            raise ValueError("trajectory duration T_f must be finite and at least delta_t")
        if not math.isfinite(self.k_U):
            raise ValueError("flow-to-position scale k_U must be finite")


def min_jerk_position(t: float, T_f: float, x_s0: float, x_s_star: float) -> float:
    """Minimum-jerk quintic profile from x_s0 to x_s_star over duration T_f."""
    if not 0.0 <= t <= T_f:
        raise DomainError(f"time {t!r} outside [0, {T_f!r}]")
    r = t / T_f
    shape = r**3 * (10.0 - 15.0 * r + 6.0 * r * r)
    return x_s0 + (x_s_star - x_s0) * shape


def min_jerk_velocity(t: float, T_f: float, x_s0: float, x_s_star: float) -> float:
    """Velocity of the minimum-jerk profile: 30*(x* - x0)*t^2*(T_f - t)^2 / T_f^5."""
    if not 0.0 <= t <= T_f:
        raise DomainError(f"time {t!r} outside [0, {T_f!r}]")
    return (x_s_star - x_s0) * 30.0 * t * t * (T_f - t) ** 2 / T_f**5


def stepper_target(U: float, stepper: StepperParams, x_s0: float, t: float) -> float:
    """Stepper target position realizing flow U at instant t of the jerk profile.

    Inverts the minimum-jerk velocity against the syringe flow ``U = v * S``:
    ``x_s_star = x_s0 + U * T_f^5 / (30 * t^2 * S * (T_f - t)^2)``.
    """
    if not 0.0 < t < stepper.T_f:
        raise DomainError(f"time {t!r} outside the open interval (0, {stepper.T_f!r})")
    T_f = stepper.T_f
    return x_s0 + U * T_f**5 / (30.0 * t * t * stepper.S * (T_f - t) ** 2)


def stepper_target_digital(U: float, stepper: StepperParams, x_s0: float) -> float:
    """Digital special case t = delta_t with T_f = 2*delta_t: x_s0 + 32*U*delta_t/(30*S)."""
    return x_s0 + 32.0 * U * stepper.delta_t / (30.0 * stepper.S)


def stepper_target_empirical(U: float, stepper: StepperParams, x_s0: float) -> float:
    """Raw empirical mapping x_s0 + U * k_U used on the hardware prototype.

    The scale ``k_U`` folds in unit conversions of a specific drive train; no
    equivalence with the physical mapping is asserted.
    """
    return x_s0 + U * stepper.k_U
