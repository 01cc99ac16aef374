"""The equations: PDE right-hand side, wave ODE, and unit rescaling.

The normalized two-species system couples an active density A (diffusing,
self-limiting growth) to an inactive density I (produced by the active
species, immobile):

    dA/dt = Lap(A) + A - A(A + I)
    dI/dt = A(A + I) + r A

`pde_rhs` is the sum of `laplacian` on A and the pointwise `reaction`, which
the PDE simulator steps apart.

Traveling-wave profiles a(z), i(z) with z = x - ct turn this into a 3-D
first-order system in (a, b, i) with b = a'.  All functions here are pure;
integration and IO live elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, OscillatoryRegimeError

__all__ = [
    "Params",
    "GeneralParams",
    "Scaling",
    "WaveState",
    "GeneralPredictions",
    "wave_rhs",
    "laplacian",
    "reaction",
    "pde_rhs",
    "normalize",
    "denormalize",
    "general_wave_predictions",
]


@dataclass(frozen=True)
class Params:
    """Normalized model parameters: finite wave speed c > 0 and rate r >= 0."""

    c: float
    r: float = 0.0

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise DomainError(f"wave speed c must be positive and finite, got {self.c}")
        if not 0 <= self.r < math.inf:
            raise DomainError(f"production rate r must be >= 0 and finite, got {self.r}")
        # plain floats, so numpy scalars never reach the integrator's arithmetic
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "r", float(self.r))


@dataclass(frozen=True)
class GeneralParams:
    """Dimensional parameters before normalization.

    r_S: saturation rate, r_A: branching rate, r_I: direct production rate,
    D: diffusion constant.
    """

    r_S: float
    r_A: float
    r_I: float
    D: float

    def __post_init__(self):
        if not (self.r_S > 0 and self.r_A > 0 and self.D > 0):
            raise DomainError(
                f"r_S, r_A, D must be positive, got {self.r_S}, {self.r_A}, {self.D}"
            )
        if not (self.r_I >= 0):
            raise DomainError(f"r_I must be >= 0, got {self.r_I}")


@dataclass(frozen=True)
class Scaling:
    """Unit factors mapping normalized quantities back to general ones.

    time_factor is the rate unit (1/time), space_factor the unit of length,
    density_factor the density unit: t = s / time_factor, x = space_factor * y,
    A = a / density_factor for normalized (s, y, a).
    """

    time_factor: float
    space_factor: float
    density_factor: float

    def __post_init__(self):
        if min(self.time_factor, self.space_factor, self.density_factor) <= 0:
            raise DomainError("scaling factors must be strictly positive")


class WaveState(NamedTuple):
    """State of the traveling-wave ODE: active a, slope b = a', inactive i."""

    a: float
    b: float
    i: float


def wave_rhs(state, p: Params) -> tuple[float, float, float]:
    """Right-hand side (a', b', i') of the wave ODE in (a, b, i), a plain tuple.

    a' = b
    b' = a(a + i) - a - c b
    i' = -(1/c) a(a + i + r)
    """
    a, b, i = state
    c = p.c
    return b, a * (a + i) - a - c * b, -(a * (a + i + p.r)) / c


def laplacian(A, dx: float, out=None):
    """Lap(A) of a 1-D field of at least 3 points, into `out` (sharing no memory with A) if given.

    One three-point stencil, weights (1/dx^2, -2/dx^2, 1/dx^2), summed left to
    right; zero-flux ends mirror A[1] (A[-2]) to the ghost point.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 1 or A.size < 3:
        raise ValueError(f"field must be 1-D with >= 3 points, got shape {A.shape}")
    if not dx > 0:
        raise DomainError(f"grid spacing must be positive, got {dx}")
    lap = np.empty_like(A) if out is None else out
    inv_dx2 = 1.0 / (dx * dx)
    lap[1:-1] = np.correlate(A, (inv_dx2, -2.0 * inv_dx2, inv_dx2))
    lap[0] = 2.0 * (A[1] - A[0]) * inv_dx2
    lap[-1] = 2.0 * (A[-2] - A[-1]) * inv_dx2
    return lap


def reaction(A, I, r: float, out=None):
    """The reaction (A - A(A + I), A(A + I) + r A) of the fields at production rate r.

    Formed in place as (A(1 - S), A(S + r)), S = A + I, in the rows of `out` if given,
    which must share no memory with A or I.
    """
    A = np.asarray(A, dtype=float)
    dA, dI = (np.empty_like(A), np.empty_like(A)) if out is None else out
    np.add(A, I, out=dI)
    np.subtract(1.0, dI, out=dA)
    dA *= A
    dI += r
    dI *= A
    return dA, dI


def pde_rhs(A, I, r: float, dx: float):
    """(dA/dt, dI/dt) at production rate r: `reaction` plus `laplacian` on A (no wave speed)."""
    dA, dI = reaction(A, I, r)
    return dA + laplacian(A, dx), dI


def normalize(g: GeneralParams) -> tuple[Params, Scaling]:
    """Rescale the general system to the normalized one.

    Time is measured in units of the branching rate, space in units of
    sqrt(D / r_A), densities in units of r_A / r_S.  The returned Params
    carries r = r_I / r_A; its speed slot is not determined by the
    rescaling (speeds convert separately, see general_wave_predictions)
    and is set to 1.
    """
    return (
        Params(c=1.0, r=g.r_I / g.r_A),
        Scaling(
            time_factor=g.r_A,
            space_factor=math.sqrt(g.D / g.r_A),
            density_factor=g.r_S / g.r_A,
        ),
    )


def denormalize(p: Params, s: Scaling) -> GeneralParams:
    """Invert normalize: recover the general parameters from (Params, Scaling)."""
    r_A = s.time_factor
    return GeneralParams(
        r_S=s.density_factor * r_A,
        r_A=r_A,
        r_I=p.r * r_A,
        D=s.space_factor**2 * r_A,
    )


@dataclass(frozen=True)
class GeneralPredictions:
    """Closed-form wave quantities for the general system at speed c.

    i_c is the minimal admissible inactive level ahead of the wave,
    limit_sum the sum of the two inactive limits, c_normalized the speed
    in normalized units.
    """

    g: GeneralParams
    c: float
    i_c: float
    limit_sum: float
    c_normalized: float

    def decay_rate(self, i_limit: float) -> float:
        """Spatial rate -c/(2D) + sqrt(c^2/(4D^2) + (r_S i - r_A)/D) at an inactive limit."""
        g = self.g
        disc = self.c**2 / (4.0 * g.D**2) + (g.r_S * i_limit - g.r_A) / g.D
        if disc < 0:
            raise OscillatoryRegimeError(
                f"negative discriminant {disc} at i = {i_limit}: oscillatory regime"
            )
        return -self.c / (2.0 * g.D) + math.sqrt(disc)


def general_wave_predictions(g: GeneralParams, c: float) -> GeneralPredictions:
    """Evaluate the closed-form wave quantities in original (unscaled) units."""
    if not c > 0:
        raise DomainError(f"wave speed must be positive, got {c}")
    return GeneralPredictions(
        g=g,
        c=c,
        i_c=max(0.0, (g.r_A - c**2 / (4.0 * g.D)) / g.r_S),
        limit_sum=2.0 * g.r_A / g.r_S,
        c_normalized=c / math.sqrt(g.r_A * g.D),
    )
