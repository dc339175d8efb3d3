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
deterministic; identical scenarios produce bit-identical trajectories. Each
entry is a stepper template, source text stepping the loop's states with every
stage written out per component, into which the loop's right-hand side, also
written once as source text, is inlined at every stage: no evaluation pays a
Python call or builds a tuple. ``_TEMPLATES`` holds them and the one-stage
instance, the right-hand side alone (:func:`augmented_field`). Each (method,
loop, force law, channels) kernel is compiled once per process, on first use
and never on import. It takes the scalar constants that any body reads (such
as ``2 * L0``, ``L0 * L0``, ``-2 * k_m`` and ``-K0``, and ``6 / L0``, ``K0 /
L0`` and ``-0.5 / k_m``), the same names for every kernel of a loop, the
parameters, the libm functions and the row's ``pack`` as keyword-only
parameters, so each stage reads them as fast locals, and per setpoint segment
``functools.partial`` binds their values once, so a sweep point compiles
nothing. The open loop is the unforced plant (no flow, no load); its
kernels step its four states, (x, p, P1, P2), and no observer. The closed
loop's force law is fixed with its kernel: while the force's type still has
``ForceModel``'s own ``__call__`` (captured when this module was imported),
``value * tanh(xdot)``, ``value * x`` or ``value`` is computed in place; any
other ``__call__``, such as a subclass's override or a wrapper put on the
class, is bound once per segment and called. The inner loops make no
``min``/``max``/``abs`` calls: each is written out as comparisons that keep
the builtin's tie and NaN behaviour. Within an evaluation the products
``A_i * P_i`` and the negated shear are each computed once, and ``(-q) + r``
is written ``r - q``, which IEEE arithmetic defines as the same operation.
CPython's specializing interpreter inlines float ``+ - *`` only, so the
kernels leave its generic ``/`` and ``**`` where an exact rewrite allows:
``s**3`` is ``pow(s, 3.0)`` (``math.pow``, the same libm call), the negated
shear ``-(X / two_k_m)`` is ``X / neg_two_k_m`` (round-to-nearest is
symmetric in sign), and rk23's ``d / 8.0`` is ``d * 0.125`` (a power of two)
and its step factor's ``**`` a ``pow``. So every floating-point operation of
the closed loop's ``rk23`` keeps the value of the textbook form, and its
trajectories are bit-identical to it.

Each loop keys its bodies by template name, so a template chooses the body
that its kernels inline and nothing else. The closed loop's ``rk23`` and
:func:`augmented_field` take the textbook form above. Its ``rk4``, and every
template of the open loop, take a reduced form that is exact in real
arithmetic (``_REDUCED_PLANT_BODY``): it writes the bellows law in ``s =
sqrt(6u / L0)`` and ``r = 1 / s`` per actuator, ``v`` as ``p * (1 / M)``,
and divides ``ns - k_i * sigma`` by each area once. A closed-loop evaluation
then makes 5 divisions and no ``pow`` where the textbook form makes 19 and 2,
and an open-loop one 5 divisions where the textbook form made 12. ``rk4``
also updates each state as ``y + h6 * (a + d) + h3 * (b + c)``, with ``h6 = h
/ 6.0`` and ``h3 = h / 3.0`` once per grid interval, in place of ``y + h * (a
+ 2b + 2c + d) / 6``. Its trajectories differ from the textbook form and
update by rounding only (the test suite bounds both differences). The reduced
form is meant to replace the textbook one in the closed loop's ``rk23`` too,
once the benchmark's trajectory references give rounding-noise channels an
absolute floor (ROADMAP item 9): until then any last-bit move of a
closed-loop ``rk23`` run fails them.

A :class:`ScenarioConfig` checks itself on construction (``replace`` too), so
every run is bounded in cost before anything is allocated: ``MAX_SAMPLES``
output samples and setpoints and ``MAX_RK4_STEPS`` steps (of ``max_step`` for rk23).
It also rejects a setpoint time within rounding of the previous one or of the
duration, which would leave a step below ``rk23``'s floor between them, a
sample spacing or an ``rk23`` ``max_step`` within that same rounding, which
would end the run ``step-underflow`` at t = 0, and a ``2 * k_m * m`` below
the smallest normal float, where ``2 * k_m * M``, which ``H_d`` divides by,
could underflow to zero.

A position within the plant's fixed 1 µm ``DOMAIN_MARGIN`` of the
volume-model boundary ends a run as "domain-exit". The textbook kernels
inline :func:`antago.plant.geometry_terms`, the single geometry entry point,
the reduced ones its law rewritten, and :func:`diagnostics` calls it once, at
the last sample.

Errors are raised once, at the failure, with the time and state in the
message: the right-hand side raises ``DomainError``, the ``rk23`` stepper
``SolverError``. :func:`simulate` turns either into the record's status and
detail; every other caller gets the error itself, as every caller gets an
``ArithmeticError`` of finite but extreme inputs.

The kernels emit the record's rows. ``_CHANNEL_EXPRESSIONS`` maps each
channel, in column order (:data:`CHANNELS` is its keys), to its expression
over the names of the stage evaluated at the sample. A kernel is compiled for
a tuple of channels: each ``$emit`` line becomes the loop's shared lines
(F_tilde, zeta, H_d, Psi) and one ``pack`` of those channels' expressions (the
open loop's: its state) into float64 bytes, ``struct.Struct(f"{n}d").pack``
bound like the other constants, passed to the kernel's ``emit``, so each
double is copied exactly and no Python float outlives its row. ``emit`` is
the ``frombytes`` of one ``array("d")``, every run's one row sink. Every
closed-loop run integrates each segment in slices of ``SLICE_SAMPLES``
samples, one kernel call each (:func:`simulate_open_loop` makes one call over
its whole grid), and a caller told of its rows as they are written (``antago
run``, whose CSV writer copies each finished slice into a mapping it owns)
is handed that array after each. ``rk23`` emits from its first stage and
then from the last stage of each step that lands on a grid time (the pair is
FSAL), the last sample's row too; ``rk4`` from the first stage of the step
that starts there, and the last sample's from one more evaluation. A
setpoint time's row comes from the first stage of the segment that starts
there. A slice starts with a first stage too, at the state where rk23's last
step ended, so its rows are those of a segment in one call. ``_run`` returns
the array as the table, a ``np.frombuffer`` view that copies nothing, and no
numpy expression computes a channel. The scalar plant and controller
functions (``control_flows``, ``sigma``, ``desired_energy``,
``hamiltonian``) are the channels' oracles in the test suite. Like them,
:func:`augmented_field` takes ``F_hat`` and ``x_star`` as floats and reads
``alpha`` only from ``ControllerGains``.

A run that only needs its :class:`DiagnosticsSummary` (a sweep point, the
``lyapunov`` suite) takes :func:`simulate_summary`, whose kernels emit, at
every sample, only the channels :func:`diagnostics` reads, ``SUMMARY_CHANNELS``
= (t, x, x_star, zeta, Psi, sigma, P1, P2, F_hat). Their expressions are the
record's, so a run keeps the same rows of them and a failure the same rows of
either; the summary equals ``diagnostics(simulate(scenario))`` field for
field, as both reduce those columns in one helper.

numpy is imported by the functions that build or read arrays, and ``array``
by those that build rows, so that importing the package loads neither; the
kernels never load numpy. ``struct`` is a module import: Python's start-up
(``site``) has already loaded it.
"""

from __future__ import annotations

import functools
import linecache
import math
import re
import struct
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .controller import ControllerGains
from .errors import DomainError, ScenarioError, SolverError
from .plant import DOMAIN_MARGIN, PlantParams, PlantState, geometry_terms, hamiltonian

if TYPE_CHECKING:
    import numpy as np

FORCE_KINDS = ("constant", "tanh_friction", "spring")

# Cost budgets, checked before a run allocates anything: at most this many
# output samples plus setpoints (duration / sample_dt + len(setpoints); each
# setpoint adds a grid point and a segment) and this many steps (duration /
# fixed_step for rk4, duration / max_step for rk23). The presets ask for 2,001
# samples; the costliest rk4 cross-check takes about 1.7e5 steps and `--method
# rk4` on a preset 1e6. The rk4 budget is about 4e7 right-hand-side
# evaluations, or about 50 s of integration: with the reduced right-hand side
# a run of fig2-F1 at h = 1e-4 (4e5 evaluations and the record) took 423-487
# ms (fastest and median of 12 runs; the textbook form 533-587 ms), about 1.1-
# 1.2 us per evaluation, on one core of a 2-vCPU Xeon VM with Python 3.11.
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

    The closed-loop kernels write these three laws out in place, with the
    operands and order of :meth:`__call__`, when ``type(force).__call__`` is
    this class's own ``__call__``. Otherwise, as for a subclass that
    overrides ``__call__`` or a wrapper set on the class, the ``__call__``
    found on the instance's type is bound once per setpoint segment and
    called. The record's ``F_true`` is the force of the evaluation that
    emitted its row, so nothing calls the force outside an evaluation.
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
        # H_d divides by 2 * k_m * M, with M >= m: a normal 2 * k_m * m (in
        # the kernels' order) keeps that product from underflowing to zero.
        energy_scale = 2.0 * self.gains.k_m * self.params.m
        if not energy_scale >= sys.float_info.min:
            raise ScenarioError(f"2 * k_m * m = {energy_scale!r} is below the smallest "
                                f"normal float {sys.float_info.min!r}")
        if self.F_hat0 is not None and not math.isfinite(self.F_hat0):
            raise ScenarioError("initial force estimate F_hat0 must be finite")

    def initial_F_hat(self) -> float:
        if self.F_hat0 is not None:
            return self.F_hat0
        return self.gains.alpha * self.initial.p


def _check_cost(duration: float, solver: SolverSettings, setpoints: int) -> None:
    """Reject a duration that is not finite and positive or that exceeds a
    budget (each of the ``setpoints`` setpoint times counts as one sample),
    then a sample spacing or an rk23 ``max_step`` within rounding of the
    run's times by the collision rule of :func:`_sample_grid`."""
    if not 0.0 < duration < math.inf:
        raise ScenarioError("duration must be positive and finite")
    if duration / solver.sample_dt + setpoints > MAX_SAMPLES:
        counted = "duration / sample_dt" + (" plus the setpoint count" if setpoints else "")
        raise ScenarioError(f"{counted} exceeds the budget of {MAX_SAMPLES} samples")
    step = "fixed_step" if solver.method == "rk4" else "max_step"
    if duration / getattr(solver, step) > MAX_RK4_STEPS:
        raise ScenarioError(
            f"duration / {step} exceeds the budget of {MAX_RK4_STEPS} {solver.method} steps")
    floor = _COLLISION_FRACTION * max(duration, 1.0)
    n = _grid_intervals(duration, solver.sample_dt)
    if duration / n <= floor:
        raise ScenarioError(f"sample spacing duration / {n} = {duration / n!r} is within "
                            f"rounding of the run's times (at or below {floor!r})")
    if solver.method == "rk23" and solver.max_step <= floor:
        raise ScenarioError(f"max_step = {solver.max_step!r} is within rounding of the "
                            f"run's times (at or below {floor!r})")


def _check_initial(initial: PlantState, params: PlantParams) -> None:
    """Reject an initial state that is not finite or lies outside the admissible
    range, by its bounds and by the kernels' own contraction check, which can
    differ from them in the last bit: the first stage, which emits row 0, passes."""
    if not all(math.isfinite(v) for v in (initial.x, initial.p, initial.P1, initial.P2)):
        raise ScenarioError("initial state must be finite")
    geo, x = params.geometry, initial.x
    lo, hi = geo.position_bounds()
    if not (lo < x < hi and geo.x_M - x - geo.x0 > DOMAIN_MARGIN and x + geo.x0 > DOMAIN_MARGIN):
        raise ScenarioError("initial position outside the admissible range")


# The record's channels, in the column order of its table and of its CSV, each
# with its expression over the names that the closed loop's stage and emit
# lines define (_LOOPS["closed"]). A kernel compiled for a tuple of these
# channels emits rows of their expressions: the record's, or the summary's.
# ``H`` calls ``expm1(P_i / Gamma0)`` only up to ``_EXPM1_MAX``, above which
# math.expm1 raises OverflowError, and reads ``inf`` there, so that a run whose
# dynamics stay finite keeps its status; a NaN still reaches expm1.
_EXPM1_MAX = math.log(sys.float_info.max)
_CHANNEL_EXPRESSIONS = {
    "t": "t", "x": "x", "xdot": "v", "p": "p", "P1": "P1", "P2": "P2",
    "U1": "A1 * v - (V1 / Gamma0) * (shear / A1 + k_i_sig / A1)",
    "U2": "A2 * v - (V2 / Gamma0) * (shear / A2 + k_i_sig / A2)",
    "F_hat": "F_hat", "F_tilde": "F_tilde", "F_true": "F", "zeta": "zeta", "sigma": "sig",
    "x_star": "x_star",
    "H": "p * p / (2.0 * M)"
         " + (-P1 + Gamma0 * (inf if (e1 := P1 / Gamma0) > expm1_max else expm1(e1))) * V1"
         " + (-P2 + Gamma0 * (inf if (e2 := P2 / Gamma0) > expm1_max else expm1(e2))) * V2",
    "H_d": "H_d", "Psi": "Psi",
}
CHANNELS = tuple(_CHANNEL_EXPRESSIONS)
_COLUMN = {name: i for i, name in enumerate(CHANNELS)}
# The channels diagnostics reads: the first five at every sample, the rest at the last.
SUMMARY_CHANNELS = ("t", "x", "x_star", "zeta", "Psi", "sigma", "P1", "P2", "F_hat")
# The statuses simulate gives a run: it ended at the duration, left the
# actuator domain, or collapsed its rk23 step.
STATUSES = ("ok", "domain-exit", "step-underflow")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled closed-loop trajectory: ``table`` is one C-contiguous float64
    array, a row per sample and a column per channel in :data:`CHANNELS`
    order, which :func:`simulate` makes as a view of the one ``array("d")``
    that the kernels write every row into; ``record[name]`` is a view of its
    column, and ``len`` and ``==`` (NaN equal to NaN) read the table.
    ``status`` is one of :data:`STATUSES`; ``detail`` describes the
    offending state. Each row was emitted by the kernel stage evaluated at
    its sample (see the module docstring). On early termination the table
    holds only the setpoint segments finished before the failure, through
    the row at the failed segment's start if its first stage emitted it, so
    a one-segment run keeps only t = 0 (ROADMAP item 1).
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


# --------------------------------------------------------------------------
# Kernels. Each loop's right-hand side is a body of source text, and each
# stepper one template into which its loop's body is inlined at every stage, so
# that no evaluation pays a Python call or builds a tuple. A stage is a template
# line ``k = rhs(T, E)``: it binds the body's state names to ``E`` per
# component and evaluates the body at the stage time ``T`` (read only by the
# error message) into ``k1, k2, ...``, one per state. A ``for $i in state:``
# block repeats its lines once per state, ``y$s`` stands for ``y1, y2, ...``,
# and a line ``$emit`` passes to ``emit`` the loop's row at time ``t`` from the
# names of the stage evaluated last, which must be at that time's state.

# The geometry, the mass and the momentum rate G, in the textbook form, from
# the stage's x, p, P1 and P2. ``$state`` is the stage state the error prints.
_DOMAIN_CHECK = """\
u1 = x_M - x - x0
u2 = x + x0
# Written so that a NaN position fails the check.
if not (u1 > margin and u2 > margin):
    side = 2 if u1 > margin else 1
    raise DomainError(f"actuator {side} reached the volume-model boundary "
                      f"(t={$t:.6e}, state={($state)})")
"""
_PLANT_BODY = _DOMAIN_CHECK + """\
s1 = sqrt(6.0 * u1 / L0)
g1 = 2.0 / 3.0 - u1 / two_L0
s2 = sqrt(6.0 * u2 / L0)
g2 = 2.0 / 3.0 - u2 / two_L0
V1 = K0 * g1 * s1 + V0
V2 = K0 * g2 * s2 + V0
A1 = neg_K0 * (3.0 * g1 / (L0 * s1) - s1 / two_L0)
A2 = K0 * (3.0 * g2 / (L0 * s2) - s2 / two_L0)
M = m + rho * (V1 + V2)
v = p / M
w1 = A1 * P1
w2 = A2 * P2
G = p * p * rho * (A1 + A2) / (2.0 * M * M) + w1 + w2 - R * v
"""

# The same plant in fewer operations, exact in real arithmetic: with s*s =
# 6u/L0, u/(2 L0) = s*s/12 and, with r = 1/s, 3g/(L0 s) - s/(2 L0) = (2r -
# 0.75s)/L0 and 3/(L0 L0 s) + 9g/(L0 L0 s**3) = r(2.25 + 6r*r)/(L0 L0), so a
# stage divides for r1, r2 and 1/M only and calls no pow; v * v * (rho/2)
# replaces p*p*rho/(2 M M). Its results differ from _PLANT_BODY's by rounding.
_REDUCED_PLANT_BODY = _DOMAIN_CHECK + """\
s1 = sqrt(six_over_L0 * u1)
r1 = 1.0 / s1
s2 = sqrt(six_over_L0 * u2)
r2 = 1.0 / s2
V1 = (two_thirds_K0 - K0_over_12 * (s1 * s1)) * s1 + V0
V2 = (two_thirds_K0 - K0_over_12 * (s2 * s2)) * s2 + V0
A1 = neg_K0_over_L0 * (2.0 * r1 - 0.75 * s1)
A2 = K0_over_L0 * (2.0 * r2 - 0.75 * s2)
M = m + rho * (V1 + V2)
v = p * (1.0 / M)
w1 = A1 * P1
w2 = A2 * P2
G = half_rho * (A1 + A2) * (v * v) + w1 + w2 - R * v
"""

# The closed loop's body in each form. ``$force`` is its line of _FORCE_LINES.
# Each square is written as a product (``v**2`` calls libm's pow, an ulp off
# ``v * v`` on a few samples per run), and each textbook cube as ``pow(s,
# 3.0)``, the libm call that ``s**3`` makes, without the interpreter's generic
# power. The reduced form's ``ns`` multiplies by ``-1 / (2 k_m)`` and its
# pressure rates divide ``ns - k_i * sig`` once by each area.
_CLOSED_BODY = _PLANT_BODY + """\
dA1 = K0 * (-3.0 / (L0_sq * s1) - 9.0 * g1 / (L0_sq * pow(s1, 3.0)))
dA2 = K0 * (-3.0 / (L0_sq * s2) - 9.0 * g2 / (L0_sq * pow(s2, 3.0)))
$force
sig = w1 + w2 - F_hat + kpkm * (x - x_star)
k_i_sig = k_i * sig
ns = (1.0 + k_m * (P1 * dA1 + P2 * dA2 + kpkm)) * v / neg_two_k_m
$k1 = v
$k2 = G - F
$k3 = ns / A1 - k_i_sig / A1
$k4 = ns / A2 - k_i_sig / A2
$k5 = alpha * (G - F_hat + alpha * p)
"""
_REDUCED_CLOSED_BODY = _REDUCED_PLANT_BODY + """\
dA1 = neg_K0_over_L0_sq * r1 * (2.25 + 6.0 * (r1 * r1))
dA2 = neg_K0_over_L0_sq * r2 * (2.25 + 6.0 * (r2 * r2))
$force
sig = w1 + w2 - F_hat + kpkm * (x - x_star)
k_i_sig = k_i * sig
ns = (1.0 + k_m * (P1 * dA1 + P2 * dA2 + kpkm)) * v * neg_half_over_k_m
num = ns - k_i_sig
$k1 = v
$k2 = G - F
$k3 = num / A1
$k4 = num / A2
$k5 = alpha * (G - F_hat + alpha * p)
"""

# The closed loop's force, by law: ForceModel's three kinds written out with
# the operands of its __call__, or "call" for any other __call__, bound.
_FORCE_LINES = {"constant": "F = fv", "tanh_friction": "F = fv * tanh(v)",
                "spring": "F = fv * x", "call": "F = f(x, v)"}

_MIN_STEP_FRACTION = 1e-14
# Samples per slice of a run, one kernel call each, after which _run's
# ``ready`` is told of the rows, and rows per block of the CSV writer, which
# renders each block as soon as its slice is integrated.
SLICE_SAMPLES = 128
# A sample time this close to a setpoint time, relative to max(|t|, 1), gives
# way to it (see _sample_grid); 100 floors keep the step between them clear.
_COLLISION_FRACTION = 100 * _MIN_STEP_FRACTION

# Bogacki-Shampine 3(2) pair with FSAL, landing exactly on grid times. The row
# of each grid time is emitted from the stage at its state: the first stage,
# then the last stage of the step that landed there, for the last grid time
# only if ``last`` is true. Each ``min``/``max`` of the textbook loop is
# written out as comparisons that keep the builtin's result: the first
# argument wins a tie, and a NaN argument after the first never wins. Each
# ``abs(y)`` is written ``y if y >= 0.0 else -y``, which differs from it only
# in the sign of a NaN or of a zero; neither sign reaches a comparison's
# outcome or an output.
_RK23 = """\
def kernel(y, t_grid, solver, h, emit, last):
    rtol, atol, max_step = solver.rel_tol, solver.abs_tol, solver.max_step
    t = t_grid[0]
    y$s = y
    a = rhs(t, y$i)
    for tg in t_grid[1:]:
        $emit
        land_tol = 1e-15 * (tg if tg > 1.0 else 1.0)
        while t < tg:
            # h = min(h, max_step, tg - t)
            if max_step < h:
                h = max_step
            rest = tg - t
            if rest < h:
                h = rest
            if h < _MIN_STEP_FRACTION * (t if t > 1.0 else 1.0):
                raise SolverError(f"step size underflow at t={t:.6e} (state={(y$s)})")
            hb = 0.5 * h
            b = rhs(t + hb, y$i + hb * a$i)
            hc = 0.75 * h
            c = rhs(t + hc, y$i + hc * b$i)
            for $i in state:
                n$i = y$i + h * (2.0 * a$i + 3.0 * b$i + 4.0 * c$i) / 9.0
            d = rhs(t + h, n$i)
            # errn = max(0.0, r1, r2, ...) with r_i = |e_i| / (atol + rtol * max(|y_i|, |n_i|))
            errn = 0.0
            for $i in state:
                ay = y$i if y$i >= 0.0 else -y$i
                an = n$i if n$i >= 0.0 else -n$i
                e = h * (-5.0 * a$i / 72.0 + b$i / 12.0 + c$i / 9.0 - d$i * 0.125)
                r = (e if e >= 0.0 else -e) / (atol + rtol * (an if an > ay else ay))
                if r > errn:
                    errn = r
            if errn <= 1.0:
                t = tg if tg - t - h <= land_tol else t + h
                for $i in state:
                    y$i = n$i
                    a$i = d$i
            # h *= min(5.0, max(0.2, q))
            q = 0.9 * pow(errn + 1e-300, -1.0 / 3.0)
            h *= (q if q < 5.0 else 5.0) if q > 0.2 else 0.2
    if last:
        $emit
    return (y$s), h
"""

# Classical fixed-step RK4, subdividing each grid interval evenly into steps
# of at most ``solver.fixed_step``; hands ``h_in`` back unchanged. The row of
# each grid time but the last is emitted from the first stage of the step
# that starts there, and, if ``last`` is true, the last one's from one more
# stage. The update ``y + h6 * (a + d) + h3 * (b + c)`` takes its two weights
# once per interval and divides nothing per step; it differs from the
# textbook ``y + h * (a + 2b + 2c + d) / 6`` by rounding only.
_RK4 = """\
def kernel(y, t_grid, solver, h_in, emit, last):
    y$s = y
    for ta, tb in zip(t_grid[:-1], t_grid[1:]):
        n = max(1, ceil((tb - ta) / solver.fixed_step - 1e-12))
        h = (tb - ta) / n
        hb = 0.5 * h
        h6 = h / 6.0
        h3 = h / 3.0
        t = ta
        for j in range(n):
            a = rhs(t, y$i)
            if not j:
                $emit
            b = rhs(t + hb, y$i + hb * a$i)
            c = rhs(t + hb, y$i + hb * b$i)
            d = rhs(t + h, y$i + h * c$i)
            for $i in state:
                y$i = y$i + h6 * (a$i + d$i) + h3 * (b$i + c$i)
            t += h
    if last:
        t = t_grid[-1]
        a = rhs(t, y$i)
        $emit
    return (y$s), h_in
"""

# By method name, the stepper templates. Each kernel takes (y, t_grid, solver,
# h, emit, last), passes to ``emit`` the float64 bytes of the row of each time
# of ``t_grid`` but the last, and of the last too if ``last`` is true, and
# returns (the state at the last time, the next h).
STEPPERS = {"rk23": _RK23, "rk4": _RK4}
# Every template by name: the steppers, and "rhs", the one-stage instance, which
# is the right-hand side itself, for point evaluation.
_TEMPLATES = {**STEPPERS, "rhs": """\
def kernel(t, y$s):
    a = rhs(t, y$i)
    return (a$s)
"""}
# Per loop: the names its body reads the state under, its body by template
# name, the lines that ``$emit`` runs (at time ``t``) before it packs the row,
# and the expression of each channel that a row can hold; a kernel's row is
# the channels it is compiled for. The closed loop's rk23 and one-stage kernels
# keep the textbook body while the benchmark's references demand bit-identical
# rounding noise (ROADMAP item 9). The open loop is the unforced plant: every
# template inlines its one body, the reduced one, and its row is its state.
_LOOPS = {
    "closed": (("x", "p", "P1", "P2", "F_hat"),
               {"rk23": _CLOSED_BODY, "rk4": _REDUCED_CLOSED_BODY, "rhs": _CLOSED_BODY}, """\
F_tilde = F_hat - alpha * p
zeta = F_tilde - F
err = x_star - x
H_d = p * p / (two_k_m * M) + 0.5 * k_p * (err * err) + 0.5 * (sig * sig)
Psi = H_d + 0.5 * (zeta * zeta)
shear = -ns
""", _CHANNEL_EXPRESSIONS),
    "open": (("x", "p", "P1", "P2"), dict.fromkeys(_TEMPLATES, _REDUCED_PLANT_BODY + """\
$k1 = v
$k2 = G
$k3 = neg_Gamma0 * (A1 * v) / V1
$k4 = neg_Gamma0 * (A2 * v) / V2
"""), "", {"x": "x", "p": "p", "P1": "P1", "P2": "P2"}),
}

_STAGE = r"( *)(\w) = rhs\((.+?), (.+)\)"


def _kernel_source(method: str, loop: str, law: str | None, channels: tuple[str, ...]) -> str:
    """Expand the template of ``method`` (a key of _TEMPLATES) with the body
    that ``loop`` keys by it inlined at each stage and, at each ``$emit``, its
    emit lines and its row of ``channels``."""
    names, bodies, emit, expressions = _LOOPS[loop]
    emit += f"emit(pack({', '.join(expressions[name] for name in channels)}))\n"
    components = range(1, len(names) + 1)
    body = bodies[method].replace("$force", _FORCE_LINES.get(law, ""))
    body = body.replace("$state", ", ".join(names))
    lines = _TEMPLATES[method].splitlines()
    out = []
    while lines:
        line = lines.pop(0)
        indent = len(line) - len(line.lstrip())
        stage = re.fullmatch(_STAGE, line)
        if line.strip() == "for $i in state:":
            block = []
            while lines and len(lines[0]) - len(lines[0].lstrip()) > indent:
                block.append(lines.pop(0)[4:])
            out += [ln.replace("$i", str(i)) for i in components for ln in block]
        elif stage:
            pad, k, t, arg = stage.groups()
            out += [f"{pad}{name} = {arg.replace('$i', str(i))}"
                    for i, name in zip(components, names)]
            out += [pad + ln for ln in body.replace("$t", t).replace("$k", k).splitlines()]
        elif line.strip() == "$emit":
            out += [line[:indent] + ln for ln in emit.splitlines()]
        else:
            out.append(line)
    text = "\n".join(out)
    return re.sub(r"(\w+)\$s\b", lambda m: ", ".join(f"{m[1]}{i}" for i in components), text)


@functools.cache
def _kernel_factory(method: str, loop: str, law: str | None, channels: tuple[str, ...],
                    constants: tuple[str, ...]):
    """Compile the kernel of ``method`` (a key of _TEMPLATES) for ``loop`` and
    force ``law``, emitting rows of ``channels``, taking ``constants`` (the
    same names for every call of a loop) as keyword-only parameters, which it
    reads as fast locals."""
    source = _kernel_source(method, loop, law, channels)
    # The template's first line is its ``def kernel(...):``.
    source = source.replace("):\n", f", *, {', '.join(constants)}):\n", 1) + "\n"
    filename = f"<antago kernel {method} {loop} {law} {','.join(channels)}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"ceil": math.ceil, "DomainError": DomainError, "SolverError": SolverError,
                 "_MIN_STEP_FRACTION": _MIN_STEP_FRACTION}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["kernel"]


def _plant_constants(params: PlantParams, R: float) -> dict:
    """Every plant constant that any body reads, with damping ``R``."""
    geo = params.geometry
    K0, L0, rho = geo.K0, geo.L0, params.fluid.rho
    return {"L0": L0, "K0": K0, "V0": geo.V0, "x0": geo.x0, "x_M": geo.x_M,
            "rho": rho, "m": params.m, "R": R, "two_L0": 2.0 * L0, "L0_sq": L0 * L0,
            "neg_K0": -K0, "margin": DOMAIN_MARGIN, "sqrt": math.sqrt, "pow": math.pow,
            "six_over_L0": 6.0 / L0, "two_thirds_K0": 2.0 / 3.0 * K0,
            "K0_over_12": K0 / 12.0, "K0_over_L0": K0 / L0, "neg_K0_over_L0": -(K0 / L0),
            "neg_K0_over_L0_sq": -(K0 / (L0 * L0)), "half_rho": 0.5 * rho}


def _closed_kernel(method: str, params: PlantParams, gains: ControllerGains,
                   force: ForceModel, x_star: float, channels: tuple[str, ...] = CHANNELS):
    """The closed loop's ``method`` kernel for one setpoint segment, emitting
    rows of ``channels``, its constants bound by ``functools.partial``, with
    the force's kind written in place while its type has ``_FORCE_LAW``."""
    law = force.kind if type(force).__call__ is _FORCE_LAW else "call"
    k_m = gains.k_m
    constants = _plant_constants(params, params.R)
    constants.update(k_p=gains.k_p, k_m=k_m, k_i=gains.k_i, alpha=gains.alpha,
                     kpkm=gains.k_p * k_m, two_k_m=2.0 * k_m, neg_two_k_m=-2.0 * k_m,
                     neg_half_over_k_m=-0.5 / k_m, x_star=x_star, fv=force.value,
                     f=force.__call__, tanh=math.tanh, Gamma0=params.fluid.Gamma0,
                     expm1=math.expm1, expm1_max=_EXPM1_MAX, inf=math.inf,
                     pack=struct.Struct(f"{len(channels)}d").pack)
    kernel = _kernel_factory(method, "closed", law, channels, tuple(constants))
    return functools.partial(kernel, **constants)


def _open_kernel(method: str, params: PlantParams, R: float):
    """The ``method`` kernel of the unforced open-loop plant with damping ``R``."""
    channels = _LOOPS["open"][0]
    constants = _plant_constants(params, R)
    constants.update(neg_Gamma0=-params.fluid.Gamma0, pack=struct.Struct(f"{len(channels)}d").pack)
    kernel = _kernel_factory(method, "open", None, channels, tuple(constants))
    return functools.partial(kernel, **constants)


def augmented_field(state: PlantState, F_hat: float, gains: ControllerGains,
                    x_star: float, force: ForceModel, params: PlantParams) -> tuple:
    """The integrated closed-loop field at one point, for point verification."""
    rhs = _closed_kernel("rhs", params, gains, force, x_star)
    return rhs(0.0, state.x, state.p, state.P1, state.P2, F_hat)


def _grid_intervals(duration: float, sample_dt: float) -> int:
    """The sample intervals of a run before its setpoint times are added."""
    return max(1, math.ceil(duration / sample_dt - 1e-12))


# One entry: the points of a sweep share their grid, and at most one grid
# (MAX_SAMPLES floats) stays alive. ``typed`` keeps an int duration apart from
# the equal float, whose products may round differently.
@functools.lru_cache(maxsize=1, typed=True)
def _sample_grid(duration: float, sample_dt: float,
                 events: tuple[float, ...]) -> tuple[float, ...]:
    """The output times of a run, shared by every caller with the same
    arguments, so it is a tuple that no caller can change."""
    n = _grid_intervals(duration, sample_dt)
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


def sample_count(scenario: ScenarioConfig) -> int:
    """The rows of an ok :func:`simulate` of ``scenario``, one per output time."""
    return len(_sample_grid(scenario.duration, scenario.solver.sample_dt,
                            tuple(t for t, _ in scenario.setpoints)))


def _run(scenario: ScenarioConfig, channels: tuple[str, ...],
         ready=None) -> tuple[np.ndarray, str, str]:
    """Integrate the augmented closed loop into a table of ``channels``, a row
    per sample: a view of the new float64 ``array("d")`` into which the
    kernels write each row (``frombytes``). Each setpoint segment is cut into
    slices that end at the multiples of ``SLICE_SAMPLES`` samples, one kernel
    call each, and the run's last slice emits the last sample's row too.
    Given ``ready``, ``ready(rows)`` is called with that array after each
    slice. A slice starts with a first stage, so rk23 makes one more
    evaluation per slice after a segment's first, at a state it has evaluated
    already, and none for the last row. Returns the table, the status and the
    detail.
    """
    from array import array

    import numpy as np

    params, gains, force = scenario.params, scenario.gains, scenario.force
    solver = scenario.solver

    events = tuple(t for t, _ in scenario.setpoints)
    grid = _sample_grid(scenario.duration, solver.sample_dt, events)

    y = (scenario.initial.x, scenario.initial.p, scenario.initial.P1,
         scenario.initial.P2, scenario.initial_F_hat())
    rows, width = array("d"), len(channels)
    h = min(solver.max_step, 1e-6)

    # Cut the grid by index at the setpoint times before the end, each a grid
    # point: segment i runs from setpoint i to the next cut or the last point.
    # A segment emits the rows of its times but the last, and the last segment
    # that one too, so the row at a setpoint time comes from the segment that
    # starts there, with its x_star.
    cuts = [bisect_left(grid, t) for t in events if t < scenario.duration]
    cuts.append(len(grid) - 1)
    try:
        for (_, x_star), a, b in zip(scenario.setpoints, cuts, cuts[1:]):
            kept = len(rows) // width + 1   # through the segment's first row
            kernel = _closed_kernel(solver.method, params, gains, force, x_star, channels)
            while a < b:
                # row i is the sample at grid[i]
                end = min(b, (a // SLICE_SAMPLES + 1) * SLICE_SAMPLES)
                y, h = kernel(y, grid[a:end + 1], solver, h, rows.frombytes, end == len(grid) - 1)
                a = end
                if ready is not None:
                    ready(rows)
        kept = len(rows) // width
        status, detail = "ok", ""
    except (DomainError, SolverError) as exc:
        # the failed segment keeps only its first row (ROADMAP item 1)
        kept = min(kept, len(rows) // width)
        status, detail = ("domain-exit" if isinstance(exc, DomainError) else "step-underflow",
                          str(exc))
    table = np.frombuffer(rows, count=kept * width).reshape(-1, width)
    return table, status, detail


def simulate(scenario: ScenarioConfig, ready=None) -> TrajectoryRecord:
    """Integrate the augmented closed loop and record all diagnostic channels.

    Terminates early (with status "domain-exit" or "step-underflow") if the
    state leaves the admissible region or the adaptive step collapses; the
    record keeps the setpoint segments finished before it and, once emitted,
    the failed segment's first row (see :class:`TrajectoryRecord`; ROADMAP
    item 1). An ``ArithmeticError`` of the kernels' float arithmetic, which
    finite but extreme inputs can raise (a division by areas that underflowed
    to zero), reaches the caller as raised; the ``H`` channel reads ``inf``
    where ``expm1(P_i / Gamma0)`` would overflow. The kernels write the rows
    in slices, as :func:`_run` describes; given ``ready``, it is called with
    the run's row array after each, so that the caller can pass on each slice
    as soon as it is there.
    """
    return TrajectoryRecord(*_run(scenario, CHANNELS, ready))


def simulate_summary(scenario: ScenarioConfig) -> DiagnosticsSummary:
    """``diagnostics(simulate(scenario), scenario.gains, scenario.params)``,
    field for field, from ``_run``'s table of the SUMMARY_CHANNELS alone:
    kernels compiled for those channels emit them with the record's
    expressions from the same evaluations, so a run keeps the same samples,
    and a failure truncates them at the same row, as the record.
    """
    table, status, _ = _run(scenario, SUMMARY_CHANNELS)
    return _reduce(table.T, status, scenario.gains, scenario.params)


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
    from array import array

    import numpy as np

    _check_cost(duration, solver, 0)
    _check_initial(initial, params)
    R = params.R if R_override is None else R_override
    if not 0.0 <= R < math.inf:
        raise ScenarioError("R_override must be non-negative and finite")
    grid = _sample_grid(duration, solver.sample_dt, ())
    y = (initial.x, initial.p, initial.P1, initial.P2)
    rows = array("d")
    _open_kernel(solver.method, params, R)(y, grid, solver, min(solver.max_step, 1e-8),
                                           rows.frombytes, True)
    states = np.frombuffer(rows).reshape(-1, len(y))
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
    return _reduce([record[name] for name in SUMMARY_CHANNELS], record.status, gains, params)


def _reduce(columns, status: str, gains: ControllerGains,
            params: PlantParams) -> DiagnosticsSummary:
    """The summary of a run from its SUMMARY_CHANNELS ``columns``: t, x,
    x_star, zeta and Psi over every sample, the rest at the last."""
    import numpy as np

    t, x, x_star, zeta, psi, sigma, P1, P2, F_hat = columns
    if len(t) == 0:
        raise ValueError("empty trajectory")
    increments = np.diff(psi)
    max_inc = float(increments.max()) if len(increments) else 0.0

    err = np.abs(x - x_star)
    over = np.nonzero(err > SETTLE_TOL)[0]
    settle_time = float(t[over[-1]]) if len(over) else 0.0

    rate = fit_decay_rate(t, zeta)
    rate_err = abs(rate - gains.alpha) / gains.alpha if math.isfinite(rate) else float("nan")

    g = geometry_terms(float(x[-1]), params.geometry)
    balance = P1[-1] * g.A1 + P2[-1] * g.A2 - F_hat[-1]

    return DiagnosticsSummary(
        samples=len(t),
        status=status,
        x_error=float(x[-1] - x_star[-1]),
        sigma_final=float(sigma[-1]),
        force_balance_residual=float(balance),
        settle_time=settle_time,
        max_psi_increment=max_inc,
        psi_max=float(psi.max()),
        zeta_rate=rate,
        zeta_rate_rel_err=rate_err,
    )

