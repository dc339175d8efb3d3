"""The closed loop composed from the package's public point functions.

:func:`loop_field` is a right-hand side ``(dx, dp, dP1, dP2, dF_hat)`` for
scipy's integrators: the plant's ``open_loop_field`` driven by the flows
``(U1, U2)`` under the scenario's load, with the observer's ``observer_rate``
running on it. It shares no code with the engine's integrated closed loop:
with the flows of ``control_flows`` recomputed at every evaluation it is that
loop, and at any point it equals ``augmented_field``. Given flows, it holds
them, as a digital controller holds its command between updates.
"""

from antago.controller import control_flows
from antago.observer import observer_rate
from antago.plant import PlantState, open_loop_field, total_mass


def loop_field(y, scenario, x_star, flows=None):
    """``(dx, dp, dP1, dP2, dF_hat)`` at ``y = (x, p, P1, P2, F_hat)`` under
    ``flows``, or under the flows of the law at ``y`` when ``flows`` is None."""
    x, p, P1, P2, F_hat = y
    state = PlantState(x, p, P1, P2)
    if flows is None:
        flows = control_flows(state, F_hat, scenario.gains, x_star, scenario.params)
    F = scenario.force(x, p / total_mass(x, scenario.params))
    return (*open_loop_field(state, *flows, F, scenario.params),
            observer_rate(state, F_hat, scenario.gains.alpha, scenario.params))


def initial_state(scenario):
    """The scenario's initial ``(x, p, P1, P2, F_hat)``."""
    s = scenario.initial
    return (s.x, s.p, s.P1, s.P2, scenario.initial_F_hat())


def held_flow_run(scenario, period, periods):
    """``(x, p, P1, P2, F_hat)`` after ``periods`` hold periods of length
    ``period`` from the scenario's initial state, toward its one setpoint.

    The flows of ``control_flows`` are computed at the start of each period
    and held through it; the observer runs continuously. Each period is one
    scipy DOP853 run at rtol 1e-8 and atol 1e-14.
    """
    from scipy.integrate import solve_ivp

    (_, x_star), = scenario.setpoints
    y = initial_state(scenario)
    for k in range(periods):
        x, p, P1, P2, F_hat = y
        flows = control_flows(PlantState(x, p, P1, P2), F_hat, scenario.gains, x_star,
                              scenario.params)
        sol = solve_ivp(lambda t, y: loop_field(y, scenario, x_star, flows),
                        (k * period, (k + 1) * period), y, method="DOP853",
                        rtol=1e-8, atol=1e-14)
        if not sol.success:
            raise RuntimeError(f"hold period {k}: {sol.message}")
        y = tuple(float(v) for v in sol.y[:, -1])
    return y
