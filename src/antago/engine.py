"""Closed-loop simulation of plant, controller and force observer.

The engine integrates the five-dimensional augmented state
``(x, p, P1, P2, F_hat)``. The pressure rows are integrated in their
analytically substituted closed-loop form, in which the bulk-modulus factor
``Gamma0 / V_i`` cancels exactly::

    dP_i/dt = -(1 + k_m * d(sigma)/dx) / (2 * A_i) * (p / (k_m * M))
              - k_i * sigma / A_i

The raw composition (flow command into the pressure dynamics) carries rate
coefficients of order ``Gamma0 / V ~ 1e15 1/s`` that would force absurd step
sizes; it is retained in :mod:`antago.plant` / :mod:`antago.controller` as a
point-verification oracle only, and the test suite checks both forms agree at
sampled states.

One table, :data:`STEPPERS`, names the integrators that ``SolverSettings``
accepts: an adaptive third-order embedded pair with second-order error estimate
(``rk23``) and a fixed-step classical fourth-order scheme (``rk4``). Both are
deterministic; identical scenarios produce bit-identical trajectories. Both
step five named scalars, with every stage written out per component, and call
the right-hand side as ``rhs(t, x, p, P1, P2, F_hat)``. The open loop's right-hand
side, built by :func:`_make_open_rhs`, is the unforced plant (no flow, no load);
its fifth state stays exactly zero and is dropped from the result. The inner
loops make no ``min``/``max``/``abs`` calls: each is written out as comparisons
that keep the builtin's tie and NaN behaviour. The right-hand sides bind their
per-segment constants (``2 * L0``, ``L0 * L0``, ``2 * k_m``, ``-K0``) once. The
closed loop also resolves the force law once per segment: when the force's
type still has ``ForceModel``'s own ``__call__`` (the function captured when
this module was imported), the evaluation computes ``value * tanh(xdot)``,
``value * x`` or ``value`` in place; any other ``__call__``, such as a
subclass's override or a wrapper put on the class, is bound and called.
Within an evaluation the products ``A_i * P_i`` and the negated shear are each
computed once, and ``(-q) + r`` is written ``r - q``, which IEEE arithmetic
defines as the same operation. So every floating-point operation keeps the
operands and order of the textbook form, and the trajectories are
bit-identical to it.

The sample grid is a pure function of ``(duration, sample_dt, setpoint
times)``, so the last one built is kept (:func:`_sample_grid`, a one-entry
memo keyed on those three with the two scalars' types): the points of a sweep
share one grid. It is a tuple, so no caller can change the shared copy.

A :class:`ScenarioConfig` checks itself on construction (``replace`` too), so
every run is bounded in cost before anything is allocated: ``MAX_SAMPLES``
output samples and setpoints and, for ``rk4``, ``MAX_RK4_STEPS`` fixed steps.
It also rejects a setpoint time within rounding of the previous one or of the
duration, which would leave a step below ``rk23``'s floor between them.

A position within the plant's fixed 1 µm ``DOMAIN_MARGIN`` of the
volume-model boundary ends a run as "domain-exit". The right-hand sides inline
:func:`antago.plant.geometry_terms`, the single geometry entry point; the
record and diagnostics call its array form.

Errors are raised once, at the failure, with the time and state in the
message: the right-hand sides raise ``DomainError``, the ``rk23`` stepper
``SolverError``. :func:`simulate` turns either into the record's status and
detail; every other caller gets the error itself.

The trajectory record and :func:`diagnostics` are built as array expressions
over the sampled states. The scalar plant and controller functions
(``control_flows``, ``sigma``, ``desired_energy``, ``hamiltonian``) are their
oracles: the test suite checks the channels against them at sampled rows.
Like them, :func:`augmented_field` takes ``F_hat`` and ``x_star`` as floats
and reads the observer gain ``alpha`` only from ``ControllerGains``.

numpy is imported by the functions that build or read arrays (the record and
its ``==``, :func:`simulate_open_loop`'s result, :func:`fit_decay_rate` and
:func:`diagnostics`), not by this module: the scalar right-hand sides and the
steppers never load it.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .controller import ControllerGains
from .errors import DomainError, ScenarioError, SolverError
from .plant import (
    DOMAIN_MARGIN,
    PlantParams,
    PlantState,
    geometry_terms_array,
    hamiltonian,
)

if TYPE_CHECKING:
    import numpy as np

FORCE_KINDS = ("constant", "tanh_friction", "spring")

# Cost budgets, checked before a run allocates anything: at most this many
# output samples plus setpoints (duration / sample_dt + len(setpoints); each
# setpoint adds a grid point and a segment) and, for rk4, this many fixed steps
# (duration / fixed_step). The presets ask for 2,001 samples; the costliest
# rk4 cross-check takes about 1.7e5 steps and `--method rk4` on a preset 1e6.
# The rk4 budget is about 4e7 right-hand-side evaluations, or roughly 100 s of
# integration at the 2.2-2.8 us per evaluation measured on one 2.1 GHz Xeon
# core with Python 3.11.
MAX_SAMPLES = 10**6
MAX_RK4_STEPS = 10**7

# diagnostics: a run has settled once |x - x_star| stays within SETTLE_TOL [m];
# fit_decay_rate ignores samples at or below DECAY_FIT_FLOOR.
SETTLE_TOL = 1e-5
DECAY_FIT_FLOOR = 1e-9


@dataclass(frozen=True)
class ForceModel:
    """External payload force as a function of the state.

    ``constant``: F = value; ``tanh_friction``: F = value * tanh(xdot)
    (Coulomb-like, vanishes at rest); ``spring``: F = value * x.

    The closed-loop right-hand side writes these three laws out in place,
    with the operands and order of :meth:`__call__`, when
    ``type(force).__call__`` is this class's own ``__call__``. Otherwise, as
    for a subclass that overrides ``__call__`` or a wrapper set on the class,
    it binds the ``__call__`` found on the instance's type once per setpoint
    segment and calls it. The record calls ``__call__`` once per sample.
    """

    kind: str
    value: float

    def __post_init__(self) -> None:
        if self.kind not in FORCE_KINDS:
            raise ValueError(f"unknown force kind {self.kind!r}; expected one of {FORCE_KINDS}")
        if not math.isfinite(self.value):
            raise ValueError("force value must be finite")

    def __call__(self, x: float, xdot: float) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "tanh_friction":
            return self.value * math.tanh(xdot)
        return self.value * x


# ForceModel's own force law, as defined above: the closed-loop right-hand side
# writes it out in place only while a force's type still has this __call__.
_FORCE_LAW = ForceModel.__call__


@dataclass(frozen=True)
class SolverSettings:
    method: str = "rk23"       # a key of STEPPERS
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = 1e-2
    fixed_step: float = 1e-5
    sample_dt: float = 5e-3    # output cadence

    def __post_init__(self) -> None:
        if self.method not in STEPPERS:
            raise ValueError(f"unknown solver method {self.method!r}")
        steps = (self.rel_tol, self.abs_tol, self.max_step, self.fixed_step, self.sample_dt)
        if not all(0.0 < v < math.inf for v in steps):
            raise ValueError("solver tolerances and steps must be positive and finite")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete specification of one closed-loop simulation, checked on construction."""

    params: PlantParams
    gains: ControllerGains
    setpoints: tuple[tuple[float, float], ...]   # (time, x_star), first at t=0
    force: ForceModel
    duration: float
    solver: SolverSettings = field(default_factory=SolverSettings)
    initial: PlantState = field(default_factory=lambda: PlantState(0.0, 0.0, 0.0, 0.0))
    F_hat0: float | None = None   # default alpha*p(0), i.e. unbiased estimate
    name: str = ""

    def __post_init__(self) -> None:
        _check_cost(self.duration, self.solver, len(self.setpoints))
        if not self.setpoints or self.setpoints[0][0] != 0.0:
            raise ScenarioError("setpoint schedule must start at time 0")
        times = [t for t, _ in self.setpoints]
        if not all(math.isfinite(t) for t in times):
            raise ScenarioError("setpoint times must be finite")
        if sorted(times) != times or len(set(times)) != len(times):
            raise ScenarioError("setpoint times must be strictly increasing")
        # Two run times within rounding of each other, by the collision rule of
        # _sample_grid, would leave rk23 a step below its floor between them.
        ends = [t for t in times if t < self.duration] + [self.duration]
        for a, b in zip(ends, ends[1:]):
            if b - a <= _COLLISION_FRACTION * max(b, 1.0):
                other = "the duration" if b == self.duration else "setpoint time"
                raise ScenarioError(
                    f"setpoint time {a!r} and {other} {b!r} are within rounding of each other")
        lo, hi = self.params.geometry.position_bounds()
        for _, x_star in self.setpoints:
            if not lo < x_star < hi:
                raise DomainError(
                    f"setpoint {x_star!r} outside admissible range ({lo:.4e}, {hi:.4e})")
        _check_initial(self.initial, self.params)
        if self.F_hat0 is not None and not math.isfinite(self.F_hat0):
            raise ScenarioError("initial force estimate F_hat0 must be finite")

    def initial_F_hat(self) -> float:
        if self.F_hat0 is not None:
            return self.F_hat0
        return self.gains.alpha * self.initial.p


def _check_cost(duration: float, solver: SolverSettings, setpoints: int) -> None:
    """Reject a duration that is not finite and positive or that exceeds a
    budget; each of the ``setpoints`` setpoint times counts as one sample."""
    if not 0.0 < duration < math.inf:
        raise ScenarioError("duration must be positive and finite")
    if duration / solver.sample_dt + setpoints > MAX_SAMPLES:
        counted = "duration / sample_dt" + (" plus the setpoint count" if setpoints else "")
        raise ScenarioError(f"{counted} exceeds the budget of {MAX_SAMPLES} samples")
    if solver.method == "rk4" and duration / solver.fixed_step > MAX_RK4_STEPS:
        raise ScenarioError(
            f"duration / fixed_step exceeds the budget of {MAX_RK4_STEPS} rk4 steps")


def _check_initial(initial: PlantState, params: PlantParams) -> None:
    """Reject an initial state that is not finite or lies outside the admissible range."""
    if not all(math.isfinite(v) for v in (initial.x, initial.p, initial.P1, initial.P2)):
        raise ScenarioError("initial state must be finite")
    lo, hi = params.geometry.position_bounds()
    if not lo < initial.x < hi:
        raise ScenarioError("initial position outside the admissible range")


# The record's channels, in the column order of its table and of its CSV.
CHANNELS = ("t", "x", "xdot", "p", "P1", "P2", "U1", "U2", "F_hat", "F_tilde",
            "F_true", "zeta", "sigma", "x_star", "H", "H_d", "Psi")
_COLUMN = {name: i for i, name in enumerate(CHANNELS)}
# The statuses simulate gives a run: it ended at the duration, left the
# actuator domain, or collapsed its rk23 step.
STATUSES = ("ok", "domain-exit", "step-underflow")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled closed-loop trajectory: ``table`` is one C-contiguous float64
    array, a row per sample and a column per channel in :data:`CHANNELS`
    order; ``record[name]`` is a view of its column, and ``len`` and ``==``
    (NaN equal to NaN) read the table. ``status`` is one of
    :data:`STATUSES`; ``detail`` describes the offending state. On early
    termination the table holds only the setpoint segments finished before
    the failure, so a one-segment run keeps only t = 0 (ROADMAP item 1).
    """

    table: np.ndarray
    status: str = "ok"
    detail: str = ""

    def __getitem__(self, channel: str) -> np.ndarray:
        return self.table[:, _COLUMN[channel]]

    def __len__(self) -> int:
        return len(self.table)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrajectoryRecord):
            return NotImplemented
        import numpy as np

        return (self.status == other.status and self.detail == other.detail
                and np.array_equal(self.table, other.table, equal_nan=True))


def _make_rhs(params: PlantParams, gains: ControllerGains, force: ForceModel,
              x_star: float):
    """Closed-loop right-hand side for one setpoint segment.

    All parameters, the derived constants and the force law are locals of the
    closure; the geometry branch is inlined because this is the innermost loop
    of every simulation. The force law is picked once: while
    ``type(force).__call__`` is ``ForceModel``'s own (``_FORCE_LAW``), its kind's
    product is computed in place; otherwise the bound ``force.__call__`` is
    called. Shared subexpressions (``A_i * P_i`` in G and sigma, the negated
    shear in both pressure rows) are computed once, with the operands and order
    of the textbook form, so the result is bit-identical to it.
    """
    geo = params.geometry
    L0 = geo.L0
    K0 = geo.K0
    V0 = geo.V0
    x0 = geo.x0
    x_M = geo.x_M
    rho = params.fluid.rho
    m = params.m
    R = params.R
    k_p, k_m, k_i, alpha = gains.k_p, gains.k_m, gains.k_i, gains.alpha
    kpkm = k_p * k_m
    two_L0 = 2.0 * L0
    L0_sq = L0 * L0
    two_k_m = 2.0 * k_m
    neg_K0 = -K0
    margin = DOMAIN_MARGIN
    kind = force.kind if type(force).__call__ is _FORCE_LAW else None
    tanh_law = kind == "tanh_friction"
    spring_law = kind == "spring"
    constant_law = kind == "constant"
    fv = force.value
    f = force.__call__
    sqrt = math.sqrt
    tanh = math.tanh

    def rhs(t: float, x: float, p: float, P1: float, P2: float, F_hat: float) -> tuple:
        u1 = x_M - x - x0
        u2 = x + x0
        # Written so that a NaN position fails the check.
        if not (u1 > margin and u2 > margin):
            side = 2 if u1 > margin else 1
            raise DomainError(f"actuator {side} reached the volume-model boundary "
                              f"(t={t:.6e}, state={(x, p, P1, P2, F_hat)})")
        s1 = sqrt(6.0 * u1 / L0)
        a1 = 2.0 / 3.0 - u1 / two_L0
        s2 = sqrt(6.0 * u2 / L0)
        a2 = 2.0 / 3.0 - u2 / two_L0
        V1 = K0 * a1 * s1 + V0
        V2 = K0 * a2 * s2 + V0
        A1 = neg_K0 * (3.0 * a1 / (L0 * s1) - s1 / two_L0)
        A2 = K0 * (3.0 * a2 / (L0 * s2) - s2 / two_L0)
        dA1 = K0 * (-3.0 / (L0_sq * s1) - 9.0 * a1 / (L0_sq * s1**3))
        dA2 = K0 * (-3.0 / (L0_sq * s2) - 9.0 * a2 / (L0_sq * s2**3))

        M = m + rho * (V1 + V2)
        v = p / M
        w1 = A1 * P1
        w2 = A2 * P2
        G = p * p * rho * (A1 + A2) / (2.0 * M * M) + w1 + w2 - R * v
        if tanh_law:
            F = fv * tanh(v)
        elif spring_law:
            F = fv * x
        elif constant_law:
            F = fv
        else:
            F = f(x, v)
        k_i_sig = k_i * (w1 + w2 - F_hat + kpkm * (x - x_star))
        ns = -((1.0 + k_m * (P1 * dA1 + P2 * dA2 + kpkm)) * v / two_k_m)
        return (
            v,
            G - F,
            ns / A1 - k_i_sig / A1,
            ns / A2 - k_i_sig / A2,
            alpha * (G - F_hat + alpha * p),
        )

    return rhs


def _make_open_rhs(params: PlantParams, R: float):
    """Right-hand side of the unforced open-loop plant with damping ``R``."""
    geo = params.geometry
    L0, K0, V0, x0, x_M = geo.L0, geo.K0, geo.V0, geo.x0, geo.x_M
    rho, neg_Gamma0, m = params.fluid.rho, -params.fluid.Gamma0, params.m
    two_L0, neg_K0 = 2.0 * L0, -K0
    margin, sqrt = DOMAIN_MARGIN, math.sqrt

    def rhs(t: float, x: float, p: float, P1: float, P2: float, zero: float) -> tuple:
        u1 = x_M - x - x0
        u2 = x + x0
        if not (u1 > margin and u2 > margin):
            side = 2 if u1 > margin else 1
            raise DomainError(f"actuator {side} reached the volume-model boundary "
                              f"(t={t:.6e}, state={(x, p, P1, P2)})")
        s1 = sqrt(6.0 * u1 / L0)
        a1 = 2.0 / 3.0 - u1 / two_L0
        s2 = sqrt(6.0 * u2 / L0)
        a2 = 2.0 / 3.0 - u2 / two_L0
        V1 = K0 * a1 * s1 + V0
        V2 = K0 * a2 * s2 + V0
        A1 = neg_K0 * (3.0 * a1 / (L0 * s1) - s1 / two_L0)
        A2 = K0 * (3.0 * a2 / (L0 * s2) - s2 / two_L0)
        M = m + rho * (V1 + V2)
        v = p / M
        G = p * p * rho * (A1 + A2) / (2.0 * M * M) + A1 * P1 + A2 * P2 - R * v
        return (v, G, neg_Gamma0 * (A1 * v) / V1, neg_Gamma0 * (A2 * v) / V2, 0.0)

    return rhs


def augmented_field(state: PlantState, F_hat: float, gains: ControllerGains,
                    x_star: float, force: ForceModel, params: PlantParams) -> tuple:
    """Public wrapper around the integrated field, for point verification."""
    rhs = _make_rhs(params, gains, force, x_star)
    return rhs(0.0, state.x, state.p, state.P1, state.P2, F_hat)


# --------------------------------------------------------------------------
# Integrators. The state is five named floats; every stage is written out per
# component because this loop dominates the cost of a run. The expressions
# keep the form and order of the textbook vector updates, so trajectories do
# not depend on the unrolling.

_MIN_STEP_FRACTION = 1e-14
# A sample time this close to a setpoint time, relative to max(|t|, 1), gives
# way to it (see _sample_grid); 100 floors keep the step between them clear.
_COLLISION_FRACTION = 100 * _MIN_STEP_FRACTION


def _rk23_segment(rhs, y, t_grid, solver, h):
    """Bogacki-Shampine 3(2) pair with FSAL, landing exactly on grid times.

    ``rhs(t, y1, ..., y5)`` returns the five derivatives as a tuple. Each
    ``min``/``max`` of the textbook loop is written out as comparisons that
    keep the builtin's result: the first argument wins a tie, and a NaN
    argument after the first never wins. Each ``abs(y)`` is written
    ``y if y >= 0.0 else -y``, which differs from it only in the sign of a
    NaN or of a zero; neither sign reaches a comparison's outcome or an output.
    """
    rtol, atol, max_step = solver.rel_tol, solver.abs_tol, solver.max_step
    out = []
    t = t_grid[0]
    y1, y2, y3, y4, y5 = y
    a1, a2, a3, a4, a5 = rhs(t, y1, y2, y3, y4, y5)
    for tg in t_grid[1:]:
        abs_tg = tg if tg >= 0.0 else -tg
        land_tol = 1e-15 * (abs_tg if abs_tg > 1.0 else 1.0)
        while t < tg:
            # h = min(h, max_step, tg - t)
            if max_step < h:
                h = max_step
            rest = tg - t
            if rest < h:
                h = rest
            abs_t = t if t >= 0.0 else -t
            if h < _MIN_STEP_FRACTION * (abs_t if abs_t > 1.0 else 1.0):
                raise SolverError(f"step size underflow at t={t:.6e} "
                                  f"(state={(y1, y2, y3, y4, y5)})")
            hb = 0.5 * h
            b1, b2, b3, b4, b5 = rhs(t + hb, y1 + hb * a1, y2 + hb * a2,
                                     y3 + hb * a3, y4 + hb * a4, y5 + hb * a5)
            hc = 0.75 * h
            c1, c2, c3, c4, c5 = rhs(t + hc, y1 + hc * b1, y2 + hc * b2,
                                     y3 + hc * b3, y4 + hc * b4, y5 + hc * b5)
            n1 = y1 + h * (2.0 * a1 + 3.0 * b1 + 4.0 * c1) / 9.0
            n2 = y2 + h * (2.0 * a2 + 3.0 * b2 + 4.0 * c2) / 9.0
            n3 = y3 + h * (2.0 * a3 + 3.0 * b3 + 4.0 * c3) / 9.0
            n4 = y4 + h * (2.0 * a4 + 3.0 * b4 + 4.0 * c4) / 9.0
            n5 = y5 + h * (2.0 * a5 + 3.0 * b5 + 4.0 * c5) / 9.0
            d1, d2, d3, d4, d5 = rhs(t + h, n1, n2, n3, n4, n5)
            # errn = max(0.0, r1, ..., r5) with r_i = |e_i| / (atol + rtol * max(|y_i|, |n_i|))
            errn = 0.0
            ay = y1 if y1 >= 0.0 else -y1
            an = n1 if n1 >= 0.0 else -n1
            e = h * (-5.0 * a1 / 72.0 + b1 / 12.0 + c1 / 9.0 - d1 / 8.0)
            r = (e if e >= 0.0 else -e) / (atol + rtol * (an if an > ay else ay))
            if r > errn:
                errn = r
            ay = y2 if y2 >= 0.0 else -y2
            an = n2 if n2 >= 0.0 else -n2
            e = h * (-5.0 * a2 / 72.0 + b2 / 12.0 + c2 / 9.0 - d2 / 8.0)
            r = (e if e >= 0.0 else -e) / (atol + rtol * (an if an > ay else ay))
            if r > errn:
                errn = r
            ay = y3 if y3 >= 0.0 else -y3
            an = n3 if n3 >= 0.0 else -n3
            e = h * (-5.0 * a3 / 72.0 + b3 / 12.0 + c3 / 9.0 - d3 / 8.0)
            r = (e if e >= 0.0 else -e) / (atol + rtol * (an if an > ay else ay))
            if r > errn:
                errn = r
            ay = y4 if y4 >= 0.0 else -y4
            an = n4 if n4 >= 0.0 else -n4
            e = h * (-5.0 * a4 / 72.0 + b4 / 12.0 + c4 / 9.0 - d4 / 8.0)
            r = (e if e >= 0.0 else -e) / (atol + rtol * (an if an > ay else ay))
            if r > errn:
                errn = r
            ay = y5 if y5 >= 0.0 else -y5
            an = n5 if n5 >= 0.0 else -n5
            e = h * (-5.0 * a5 / 72.0 + b5 / 12.0 + c5 / 9.0 - d5 / 8.0)
            r = (e if e >= 0.0 else -e) / (atol + rtol * (an if an > ay else ay))
            if r > errn:
                errn = r
            if errn <= 1.0:
                t = tg if tg - t - h <= land_tol else t + h
                y1, y2, y3, y4, y5 = n1, n2, n3, n4, n5
                a1, a2, a3, a4, a5 = d1, d2, d3, d4, d5
            # h *= min(5.0, max(0.2, q))
            q = 0.9 * (errn + 1e-300) ** (-1.0 / 3.0)
            h *= (q if q < 5.0 else 5.0) if q > 0.2 else 0.2
        out.append((y1, y2, y3, y4, y5))
    return out, h


def _rk4_segment(rhs, y, t_grid, solver, h_in):
    """Classical fixed-step RK4, subdividing each grid interval evenly into
    steps of at most ``solver.fixed_step``; hands ``h_in`` back unchanged.

    ``rhs(t, y1, ..., y5)`` returns the five derivatives as a tuple.
    """
    out = []
    y1, y2, y3, y4, y5 = y
    for ta, tb in zip(t_grid[:-1], t_grid[1:]):
        n = max(1, math.ceil((tb - ta) / solver.fixed_step - 1e-12))
        h = (tb - ta) / n
        hb = 0.5 * h
        t = ta
        for _ in range(n):
            a1, a2, a3, a4, a5 = rhs(t, y1, y2, y3, y4, y5)
            tm = t + hb
            b1, b2, b3, b4, b5 = rhs(tm, y1 + hb * a1, y2 + hb * a2,
                                     y3 + hb * a3, y4 + hb * a4, y5 + hb * a5)
            c1, c2, c3, c4, c5 = rhs(tm, y1 + hb * b1, y2 + hb * b2,
                                     y3 + hb * b3, y4 + hb * b4, y5 + hb * b5)
            d1, d2, d3, d4, d5 = rhs(t + h, y1 + h * c1, y2 + h * c2,
                                     y3 + h * c3, y4 + h * c4, y5 + h * c5)
            y1 = y1 + h * (a1 + 2.0 * b1 + 2.0 * c1 + d1) / 6.0
            y2 = y2 + h * (a2 + 2.0 * b2 + 2.0 * c2 + d2) / 6.0
            y3 = y3 + h * (a3 + 2.0 * b3 + 2.0 * c3 + d3) / 6.0
            y4 = y4 + h * (a4 + 2.0 * b4 + 2.0 * c4 + d4) / 6.0
            y5 = y5 + h * (a5 + 2.0 * b5 + 2.0 * c5 + d5) / 6.0
            t += h
        out.append((y1, y2, y3, y4, y5))
    return out, h_in


# By method name; each takes (rhs, y, t_grid, solver, h), returns (samples, next h).
STEPPERS = {"rk23": _rk23_segment, "rk4": _rk4_segment}


# One entry: the points of a sweep share their grid, and at most one grid
# (MAX_SAMPLES floats) stays alive. ``typed`` keeps an int duration apart from
# the equal float, whose products may round differently.
@functools.lru_cache(maxsize=1, typed=True)
def _sample_grid(duration: float, sample_dt: float,
                 events: tuple[float, ...]) -> tuple[float, ...]:
    """The output times of a run, shared by every caller with the same
    arguments, so it is a tuple that no caller can change."""
    n = max(1, math.ceil(duration / sample_dt - 1e-12))
    times = {round(i * duration / n, 15) for i in range(n + 1)}
    for e in events:
        if 0.0 < e < duration:
            # An inner grid time within rounding of a setpoint time would leave
            # a step below rk23's floor between them: the setpoint time replaces it.
            i = round(e * n / duration)
            g = round(i * duration / n, 15)
            if 0 < i < n and abs(g - e) <= _COLLISION_FRACTION * max(e, 1.0):
                times.discard(g)
            times.add(e)
    return tuple(sorted(times))


def simulate(scenario: ScenarioConfig) -> TrajectoryRecord:
    """Integrate the augmented closed loop and record all diagnostic channels.

    Terminates early (with status "domain-exit" or "step-underflow") if the
    state leaves the admissible region or the adaptive step collapses; the
    record keeps only the setpoint segments finished before it (ROADMAP item 1).
    """
    params, gains, force = scenario.params, scenario.gains, scenario.force
    solver = scenario.solver
    step = STEPPERS[solver.method]

    events = tuple(t for t, _ in scenario.setpoints)
    grid = _sample_grid(scenario.duration, solver.sample_dt, events)

    y = (scenario.initial.x, scenario.initial.p, scenario.initial.P1,
         scenario.initial.P2, scenario.initial_F_hat())
    times = [0.0]
    states = [y]
    status, detail = "ok", ""
    h = min(solver.max_step, 1e-6)

    # Cut the grid by index at the setpoint times before the end, each a grid
    # point: segment i runs from setpoint i to the next cut or the last point.
    cuts = [bisect_left(grid, t) for t in events if t < scenario.duration]
    cuts.append(len(grid) - 1)
    try:
        for (_, x_star), a, b in zip(scenario.setpoints, cuts, cuts[1:]):
            seg_grid = grid[a:b + 1]
            rhs = _make_rhs(params, gains, force, x_star)
            ys, h = step(rhs, y, seg_grid, solver, h)
            times.extend(seg_grid[1:])
            states.extend(ys)
            y = states[-1]
    except DomainError as exc:
        status, detail = "domain-exit", str(exc)
    except SolverError as exc:
        status, detail = "step-underflow", str(exc)

    return _build_record(scenario, times, states, status, detail)


def _build_record(scenario, times, states, status, detail) -> TrajectoryRecord:
    import numpy as np

    params, gains = scenario.params, scenario.gains
    fluid = params.fluid
    t = np.array(times, dtype=float)
    x, p, P1, P2, F_hat = np.array(states, dtype=float).T.copy()
    g = geometry_terms_array(x, params.geometry)
    M = params.m + (g.V1 + g.V2) * fluid.rho
    v = p / M
    # The force stays scalar: np.tanh and math.tanh differ in the last bit.
    F_true = np.array(list(map(scenario.force.__call__, x.tolist(), v.tolist())))
    set_times, set_values = np.array(scenario.setpoints, dtype=float).T
    x_star = set_values[np.searchsorted(set_times, t, side="right") - 1]

    kpkm = gains.k_p * gains.k_m
    s = P1 * g.A1 + P2 * g.A2 - F_hat + kpkm * (x - x_star)
    s_x = P1 * g.dA1 + P2 * g.dA2 + kpkm
    shear = (1.0 + gains.k_m * s_x) * v / (2.0 * gains.k_m)
    U1 = g.A1 * v - (g.V1 / fluid.Gamma0) * (shear / g.A1 + gains.k_i * s / g.A1)
    U2 = g.A2 * v - (g.V2 / fluid.Gamma0) * (shear / g.A2 + gains.k_i * s / g.A2)
    F_tilde = F_hat - gains.alpha * p
    zeta = F_tilde - F_true
    phi1 = -P1 + fluid.Gamma0 * np.expm1(P1 / fluid.Gamma0)
    phi2 = -P2 + fluid.Gamma0 * np.expm1(P2 / fluid.Gamma0)
    H = p * p / (2.0 * M) + phi1 * g.V1 + phi2 * g.V2
    H_d = (p**2 / (2.0 * gains.k_m * M)
           + 0.5 * gains.k_p * (x_star - x) ** 2
           + 0.5 * s**2)
    Psi = H_d + 0.5 * zeta**2
    table = np.column_stack((t, x, v, p, P1, P2, U1, U2, F_hat, F_tilde, F_true,
                             zeta, s, x_star, H, H_d, Psi))
    return TrajectoryRecord(table, status, detail)


def simulate_open_loop(params: PlantParams, initial: PlantState, duration: float,
                       solver: SolverSettings, R_override: float | None = None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate the unforced open-loop plant (no flow, no load).

    Returns (times, states[n,4], H[n]) for the passivity and energy
    conservation checks; ``R_override`` allows the lossless case R = 0. Raises
    ``ScenarioError`` (a ``ValueError``) before the sample grid is built for a
    bad or over-budget duration, a non-finite or out-of-range initial state or
    a negative or non-finite ``R_override``; ``DomainError`` when the state
    leaves the admissible region and ``SolverError`` when the adaptive step
    collapses.
    """
    import numpy as np

    _check_cost(duration, solver, 0)
    _check_initial(initial, params)
    R = params.R if R_override is None else R_override
    if not 0.0 <= R < math.inf:
        raise ScenarioError("R_override must be non-negative and finite")
    grid = _sample_grid(duration, solver.sample_dt, ())
    # The steppers advance five states; the fifth stays exactly zero here.
    y = (initial.x, initial.p, initial.P1, initial.P2, 0.0)
    ys, _ = STEPPERS[solver.method](_make_open_rhs(params, R), y, grid, solver,
                                    min(solver.max_step, 1e-8))
    states = np.array([y] + ys)[:, :4]
    energies = np.array([hamiltonian(PlantState(*row), params)
                         for row in states.tolist()])
    return np.asarray(grid), states, energies


# --------------------------------------------------------------------------
# Trajectory diagnostics.

@dataclass(frozen=True)
class DiagnosticsSummary:
    samples: int
    status: str
    x_error: float                 # final x - x_star
    sigma_final: float
    force_balance_residual: float  # final P1*A1 + P2*A2 - F_hat
    settle_time: float             # last time |x - x_star| exceeded SETTLE_TOL
    max_psi_increment: float
    psi_max: float
    zeta_rate: float               # fitted exponential decay rate of |zeta|
    zeta_rate_rel_err: float       # relative deviation from the observer gain
    crossed_symmetric: bool        # trajectory visited A1 = -A2 (degenerate config)


def fit_decay_rate(t: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of log|values| over samples above the noise floor
    (``DECAY_FIT_FLOOR``, or 1e-6 of the first magnitude if larger).

    Returns the positive decay rate, or nan if fewer than two usable samples
    or if they all share one time. The slope is the closed form
    ``sum(dt * dy) / sum(dt * dt)`` over the deviations from the means, so
    that the fit never calls LAPACK (``np.polyfit`` does, and its first call
    costs the process about 1.3 MB of memory).
    """
    import numpy as np

    v = np.abs(np.asarray(values, dtype=float))
    lim = max(DECAY_FIT_FLOOR, 1e-6 * v[0]) if len(v) and v[0] > 0 else DECAY_FIT_FLOOR
    mask = v > lim
    if mask.sum() < 2:
        return float("nan")
    t = np.asarray(t, dtype=float)[mask]
    if t.min() == t.max():
        return float("nan")
    dt = t - t.mean()
    y = np.log(v[mask])
    dy = y - y.mean()
    return float(-np.sum(dt * dy) / np.sum(dt * dt))


def diagnostics(record: TrajectoryRecord, gains: ControllerGains,
                params: PlantParams) -> DiagnosticsSummary:
    """Aggregate the stability-theory checks over one recorded trajectory."""
    import numpy as np

    if len(record) == 0:
        raise ValueError("empty trajectory")
    t = record["t"]
    x = record["x"]
    x_star = record["x_star"]

    psi = record["Psi"]
    increments = np.diff(psi)
    max_inc = float(increments.max()) if len(increments) else 0.0

    err = np.abs(x - x_star)
    over = np.nonzero(err > SETTLE_TOL)[0]
    settle_time = float(t[over[-1]]) if len(over) else 0.0

    rate = fit_decay_rate(t, record["zeta"])
    rate_err = abs(rate - gains.alpha) / gains.alpha if math.isfinite(rate) else float("nan")

    g = geometry_terms_array(x, params.geometry)
    sum_grad = g.A1 + g.A2
    scale = np.abs(g.A1) + np.abs(g.A2)
    crossed = bool(np.any(np.abs(sum_grad) <= 1e-6 * scale)
                   or np.any(np.sign(sum_grad[:-1]) * np.sign(sum_grad[1:]) < 0))

    balance = (record["P1"][-1] * g.A1[-1] + record["P2"][-1] * g.A2[-1]
               - record["F_hat"][-1])

    return DiagnosticsSummary(
        samples=len(record),
        status=record.status,
        x_error=float(x[-1] - x_star[-1]),
        sigma_final=float(record["sigma"][-1]),
        force_balance_residual=float(balance),
        settle_time=settle_time,
        max_psi_increment=max_inc,
        psi_max=float(psi.max()),
        zeta_rate=rate,
        zeta_rate_rel_err=rate_err,
        crossed_symmetric=crossed,
    )

