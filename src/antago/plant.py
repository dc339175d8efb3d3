"""Port-Hamiltonian model of an antagonistic pair of soft hydraulic bellow actuators.

Two bellow actuators made of inextensible pouches drive a payload of mass ``m``
along a horizontal axis ``x``. Each actuator contracts when its internal fluid
volume grows, so the pair acts antagonistically: actuator 2 contracts (and
actuator 1 expands) as ``x`` increases. The state is ``(x, p, P1, P2)`` with
momentum ``p`` and gauge pressures ``P1``, ``P2``; the open-loop dynamics are
Hamiltonian with a skew interconnection, transmission damping ``R``, an
external force ``F`` on the payload, and the syringe-pump flow rates
``(U1, U2)`` as inputs.

The volume law is a square root in each actuator's contraction with a positive
volume scale, and the model keeps a fixed 1 µm margin (``DOMAIN_MARGIN``) from
its boundary: :func:`geometry_terms` (array form :func:`geometry_terms_array`),
the single entry point to the volumes, gradients and curvatures, raises
:class:`DomainError` for a position within it.

All functions here are pure and operate on plain floats (``geometry_terms_array``
on arrays); they are safe to call concurrently. Only ``geometry_terms_array``
imports numpy, when it is called, so that a process that builds no array
never loads it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

# Margin [m] kept between the position and the square-root domain boundary,
# where the volume gradients blow up. A property of the volume model: every
# domain check of the package uses this one value.
DOMAIN_MARGIN = 1e-6

# Relative tolerance for the k0/K0 redundancy check.
_K0_CONSISTENCY_RTOL = 1e-12


@dataclass(frozen=True, kw_only=True)
class ActuatorGeometry:
    """Geometry of one bellow actuator (both actuators of the pair are identical).

    ``k0`` and ``K0`` are redundant: ``K0 = k0 * (L0**2 / n_L) * (d_c/3 + D_s/2)``
    is the combined volume scale. Either may be left out, and is then derived
    from the other; both are stored, positive, finite and checked for
    consistency.
    """

    L0: float    # length of the empty actuator [m]
    n_L: int     # number of pouches
    D_s: float   # geometric diameter [m]
    d_c: float   # geometric diameter [m]
    k0: float | None = None   # dimensionless volume scaling factor
    K0: float | None = None   # combined volume scale [m^3]
    V0: float    # dead volume of fluid [m^3]
    x0: float    # initial offset contraction [m]
    x_M: float   # maximum contraction [m]

    def __post_init__(self) -> None:
        # n_L must have a finite float value: the division below converts it.
        if not (isinstance(self.n_L, int) and 1 <= self.n_L <= sys.float_info.max):
            raise ValueError("n_L must be a positive integer")
        # L0 * L0, not L0**2: a float power overflows with OverflowError.
        unit = (self.L0 * self.L0 / self.n_L) * (self.d_c / 3 + self.D_s / 2)
        if not 0.0 < unit < math.inf:
            raise ValueError("L0, D_s and d_c must be positive and finite")
        if self.k0 is None and self.K0 is None:
            raise ValueError("section [plant] needs k0 or K0 (or both)")
        if self.k0 is None:
            object.__setattr__(self, "k0", self.K0 / unit)
        elif self.K0 is None:
            object.__setattr__(self, "K0", self.k0 * unit)
        if not all(0.0 < v < math.inf for v in (self.L0, self.D_s, self.d_c, self.V0)):
            raise ValueError("L0, D_s, d_c and V0 must be positive and finite")
        # A NaN scale would pass the consistency check below; a zero scale
        # divides by zero in the area, and a negative one reverses the pair.
        if not (0.0 < self.k0 < math.inf and 0.0 < self.K0 < math.inf):
            raise ValueError("volume scales k0 and K0 must be positive and finite")
        if not (0 < self.x0 < self.x_M):
            raise ValueError("offset contraction must satisfy 0 < x0 < x_M")
        # x_M <= L0/4 keeps the analytic zero of the volume gradient, at
        # contraction 4*L0/9, strictly outside the reachable range.
        if self.x_M > self.L0 / 4:
            raise ValueError("maximum contraction must satisfy x_M <= L0/4")
        expected = self.k0 * (self.L0 * self.L0 / self.n_L) * (self.d_c / 3 + self.D_s / 2)
        if abs(self.K0 - expected) > _K0_CONSISTENCY_RTOL * abs(expected):
            raise ValueError(
                f"inconsistent volume scales: K0={self.K0!r} but "
                f"k0*(L0^2/n_L)*(d_c/3 + D_s/2)={expected!r}"
            )

    def position_bounds(self) -> tuple[float, float]:
        """Open interval of admissible positions, ``DOMAIN_MARGIN`` inside the travel."""
        return (-self.x0 + DOMAIN_MARGIN, self.x_M - self.x0 - DOMAIN_MARGIN)


@dataclass(frozen=True)
class FluidParams:
    """Hydraulic fluid properties. All stored pressures are gauge."""

    Gamma0: float        # isothermal bulk modulus [Pa]
    rho: float           # density [kg/m^3]
    P_atm: float = 1e5   # atmospheric reference [Pa], metadata only

    def __post_init__(self) -> None:
        if not (0.0 < self.Gamma0 < math.inf and 0.0 <= self.rho < math.inf
                and math.isfinite(self.P_atm)):
            raise ValueError("Gamma0 must be positive, rho nonnegative, and all finite")


@dataclass(frozen=True)
class PlantParams:
    """Complete physical description of the antagonistic pair."""

    geometry: ActuatorGeometry
    fluid: FluidParams
    m: float   # payload mass [kg]
    R: float   # transmission damping [N*s/m]

    def __post_init__(self) -> None:
        if not (0.0 < self.m < math.inf and 0.0 < self.R < math.inf):
            raise ValueError("m and R must be positive and finite")


@dataclass(frozen=True)
class PlantState:
    """State vector (position, momentum, gauge pressures)."""

    x: float
    p: float
    P1: float
    P2: float


class GeometryTerms(NamedTuple):
    """Volumes, volume gradients and curvatures at one position.

    A1 = dV1/dx < 0 and A2 = dV2/dx > 0 throughout the admissible range.
    """

    V1: float
    V2: float
    A1: float
    A2: float
    dA1: float
    dA2: float


def _check_contraction(u: float, actuator: int) -> None:
    # Written so that a NaN contraction fails the check.
    if not u > DOMAIN_MARGIN:
        raise DomainError(
            f"actuator {actuator} contraction {u:.3e} m is within {DOMAIN_MARGIN:.1e} m "
            "of the volume-model boundary"
        )


def _bellows_branch(u, geometry: ActuatorGeometry, sqrt=math.sqrt):
    """Volume of one actuator and its first two derivatives w.r.t. contraction u
    (a float, or an ndarray with ``sqrt=numpy.sqrt``)."""
    L0 = geometry.L0
    K0 = geometry.K0
    s = sqrt(6.0 * u / L0)
    a = 2.0 / 3.0 - u / (2.0 * L0)
    V = K0 * a * s + geometry.V0
    d1 = K0 * (-s / (2.0 * L0) + 3.0 * a / (L0 * s))
    d2 = K0 * (-3.0 / (L0 * L0 * s) - 9.0 * a / (L0 * L0 * s**3))
    return V, d1, d2


def geometry_terms(x: float, geometry: ActuatorGeometry) -> GeometryTerms:
    """Evaluate both actuators' volumes, gradients and curvatures at position x."""
    u1 = geometry.x_M - x - geometry.x0
    u2 = x + geometry.x0
    _check_contraction(u1, 1)
    _check_contraction(u2, 2)
    V1, f1, g1 = _bellows_branch(u1, geometry)
    V2, f2, g2 = _bellows_branch(u2, geometry)
    # u1 decreases with x, so the chain rule flips the sign of odd derivatives.
    return GeometryTerms(V1=V1, V2=V2, A1=-f1, A2=f2, dA1=g1, dA2=g2)


def geometry_terms_array(x: np.ndarray, geometry: ActuatorGeometry) -> GeometryTerms:
    """:func:`geometry_terms` over an array of positions, one array per field.

    Raises :class:`DomainError` if any position is outside the domain.
    Volumes and gradients equal the scalar form exactly; the curvatures go
    through numpy's vectorised ``pow`` and may differ from it by an ulp.
    """
    import numpy as np

    u1 = geometry.x_M - x - geometry.x0
    u2 = x + geometry.x0
    _check_contraction(float(u1.min()), 1)
    _check_contraction(float(u2.min()), 2)
    V1, f1, g1 = _bellows_branch(u1, geometry, np.sqrt)
    V2, f2, g2 = _bellows_branch(u2, geometry, np.sqrt)
    return GeometryTerms(V1=V1, V2=V2, A1=-f1, A2=f2, dA1=g1, dA2=g2)


def total_mass(x: float, params: PlantParams) -> float:
    """Total moving mass: payload plus the fluid contained in both actuators."""
    g = geometry_terms(x, params.geometry)
    return params.m + (g.V1 + g.V2) * params.fluid.rho


def pressure_potential(P: float, fluid: FluidParams) -> float:
    """Specific internal-energy density phi(P) = -P + Gamma0*(exp(P/Gamma0) - 1).

    Convex with minimum 0 at P = 0; evaluated with expm1 because the two terms
    cancel to second order for gauge pressures far below the bulk modulus.
    """
    return -P + fluid.Gamma0 * math.expm1(P / fluid.Gamma0)


def fluid_energy(P: float, V: float, fluid: FluidParams) -> float:
    """Internal energy of a volume V of fluid pressurized to gauge pressure P."""
    return pressure_potential(P, fluid) * V


def hamiltonian(state: PlantState, params: PlantParams) -> float:
    """Total mechanical energy: kinetic plus fluid internal energy."""
    g = geometry_terms(state.x, params.geometry)
    M = params.m + (g.V1 + g.V2) * params.fluid.rho
    return (state.p**2 / (2.0 * M)
            + fluid_energy(state.P1, g.V1, params.fluid)
            + fluid_energy(state.P2, g.V2, params.fluid))


def hamiltonian_gradient(state: PlantState, params: PlantParams
                         ) -> tuple[float, float, float, float]:
    """Gradient of the Hamiltonian: (dH/dx, dH/dp, dH/dP1, dH/dP2)."""
    g = geometry_terms(state.x, params.geometry)
    fluid = params.fluid
    rho = fluid.rho
    M = params.m + (g.V1 + g.V2) * rho
    dH_x = (-state.p**2 * rho * (g.A1 + g.A2) / (2.0 * M * M)
            + pressure_potential(state.P1, fluid) * g.A1
            + pressure_potential(state.P2, fluid) * g.A2)
    dH_p = state.p / M
    dH_P1 = g.V1 * math.expm1(state.P1 / fluid.Gamma0)
    dH_P2 = g.V2 * math.expm1(state.P2 / fluid.Gamma0)
    return dH_x, dH_p, dH_P1, dH_P2


def generalized_force(state: PlantState, params: PlantParams) -> float:
    """Net momentum rate excluding the external force.

    Equals ``-dH/dx - R*dH/dp + (Gamma0*A1/V1)*dH/dP1 + (Gamma0*A2/V2)*dH/dP2``
    in the exactly simplified form ``p^2*rho*(A1+A2)/(2*M^2) + A1*P1 + A2*P2
    - R*p/M``, which avoids evaluating the exponential pressure terms. This is
    the measurable quantity the force observer integrates.
    """
    g = geometry_terms(state.x, params.geometry)
    rho = params.fluid.rho
    M = params.m + (g.V1 + g.V2) * rho
    return (state.p**2 * rho * (g.A1 + g.A2) / (2.0 * M * M)
            + g.A1 * state.P1 + g.A2 * state.P2
            - params.R * state.p / M)


def open_loop_field(state: PlantState, U1: float, U2: float, F: float,
                    params: PlantParams) -> tuple[float, float, float, float]:
    """Open-loop state derivative (dx, dp, dP1, dP2) under flows (U1, U2) and force F."""
    g = geometry_terms(state.x, params.geometry)
    fluid = params.fluid
    Gamma0 = fluid.Gamma0
    dH_x, dH_p, dH_P1, dH_P2 = hamiltonian_gradient(state, params)
    Gamma01 = Gamma0 * g.A1 / g.V1
    Gamma02 = Gamma0 * g.A2 / g.V2
    dx = dH_p
    dp = -dH_x - params.R * dH_p + Gamma01 * dH_P1 + Gamma02 * dH_P2 - F
    dP1 = Gamma0 * (U1 - g.A1 * dx) / g.V1
    dP2 = Gamma0 * (U2 - g.A2 * dx) / g.V2
    return dx, dp, dP1, dP2

