"""Closed-form objects of the wave analysis, as checkable functions.

Everything here is exact arithmetic on formulas: the fixed-point rates and
eigenvectors (the one far field of `wave` and `spectral`), the invariant
triangles of the frozen-inactive 2-D subsystem (one closed form over one
level or an array of levels), the attractor limit formula and its threshold
inversion, and the integral (mass-transfer) identities evaluated on
computed profile segments.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidSegmentError, OscillatoryRegimeError, SplittingError
from .model import Params

__all__ = [
    "Triangle",
    "MassResiduals",
    "fixed_point_spectrum",
    "eigenvector",
    "minimal_inactive_limit",
    "decay_rate",
    "triangle",
    "triangle_contains",
    "i_plus_infinity",
    "alpha_threshold",
    "a_star",
    "a_at_first_max",
    "mass_residuals",
    "limit_symmetry",
]


def fixed_point_spectrum(K: float, c: float, gamma: complex = 0.0, w: float = 0.0) -> tuple:
    """Eigenvalues at the fixed point (0, 0, K): (i-mode, growing root, decaying root).

    gamma/c + w and w - c/2 +- sqrt(c^2/4 + gamma + K - 1), principal branch, at the
    spectral parameter gamma and weight w of `spectral`.  At the defaults, the wave-ODE
    rates: the i-mode is exactly 0, and the roots are a complex pair where c^2/4 + K < 1.
    """
    if not c > 0:
        raise DomainError(f"wave speed must be positive, got {c}")
    root = cmath.sqrt(c * c / 4.0 + gamma + K - 1.0)
    return (gamma / c + w, w - c / 2.0 + root, w - c / 2.0 - root)


def eigenvector(K: float, c: float, r: float, lam: complex, gamma: complex = 0.0):
    """Eigenvector (1, lam, (K + r) / (gamma - c lam)) at (0, 0, K) for a root lam.

    lam is a root of `fixed_point_spectrum` at the same K, c and gamma,
    less the weight.  SplittingError where gamma - c lam is below 1e-10 in
    modulus: lam collides with the i-mode there and this form degenerates.
    """
    den = gamma - c * lam
    if abs(den) < 1e-10:
        raise SplittingError(f"limit eigenvalue {lam} collides with the i-mode at gamma = "
                             f"{gamma}, where its eigenvector degenerates")
    return (1.0, lam, (K + r) / den)


def minimal_inactive_limit(c: float) -> float:
    """Smallest inactive level ahead of a non-negative wave: max{0, 1 - c^2/4}."""
    if not c > 0:
        raise DomainError(f"wave speed must be positive, got {c}")
    return max(0.0, 1.0 - c * c / 4.0)


def decay_rate(i_limit: float, c: float) -> float:
    """Spatial tail rate -c/2 + sqrt(c^2/4 + i_limit - 1) at an inactive limit.

    This is the growing root of the fixed-point spectrum, rejected where it
    is complex.
    """
    rate = fixed_point_spectrum(i_limit, c)[1]
    if rate.imag:
        raise OscillatoryRegimeError(f"complex tail rate {rate} at i = {i_limit}, c = {c}: "
                                     "oscillatory regime")
    return rate.real


@dataclass(frozen=True)
class Triangle:
    """Invariant triangle of the subsystem a' = b, b' = a(a + i - 1) - c b.

    Its vertices are the fixed points v0 = (0, 0) and v1 = (w, 0), w = 1 - i,
    and the apex below the a-axis, where the lambda_plus eigenline through
    v0 meets the beta_plus eigenline through v1.  The interior angles are
    gamma_l = atan2(w, c/2 + sqrt(c^2/4 - w)) at v0 and
    gamma_r = atan2(w, c/2 + sqrt(c^2/4 + w)) at v1.  i is one level or an
    array of levels; every field follows its shape, the vertices with a
    trailing (a, b) axis.
    """

    i: float | np.ndarray
    c: float
    gamma_l: float | np.ndarray
    gamma_r: float | np.ndarray

    @property
    def v0(self) -> np.ndarray:
        return np.zeros(np.shape(self.i) + (2,))

    @property
    def v1(self) -> np.ndarray:
        return np.stack([1.0 - self.i, np.zeros_like(self.i)], axis=-1)

    @property
    def apex(self) -> np.ndarray:
        # s = |apex - v0|, by the law of sines
        s = (1.0 - self.i) * np.sin(self.gamma_r) / np.sin(self.gamma_l + self.gamma_r)
        return np.stack([s * np.cos(self.gamma_l), -s * np.sin(self.gamma_l)], axis=-1)


def triangle(i: float | np.ndarray, c: float) -> Triangle:
    """Invariant triangle at level i, or at each level of an array i, in [i_c, 1)."""
    i_c = minimal_inactive_limit(c)
    if not np.all((i_c - 1e-12 <= i) & (i < 1.0)):
        raise DomainError(f"triangle needs i in [{i_c}, 1), got {i}")
    w, half = 1.0 - i, c / 2.0
    # levels down to i_c - 1e-12 are admitted, where c^2/4 - w dips below 0
    return Triangle(
        i=i,
        c=c,
        gamma_l=np.arctan2(w, half + np.sqrt(np.maximum(half * half - w, 0.0))),
        gamma_r=np.arctan2(w, half + np.sqrt(half * half + w)),
    )


def triangle_contains(t: Triangle, points, tol: float = 0.0) -> np.ndarray:
    """Whether points of shape (..., 2) lie in t inflated by slack tol.

    A boolean per point, the points broadcast against the levels of t.
    Each test is a signed distance to one edge, so tol is a true margin.
    """
    if tol < 0:
        raise DomainError(f"slack must be >= 0, got {tol}")
    p = np.asarray(points, dtype=float)
    a, b = p[..., 0], p[..., 1]
    return (
        (b <= tol)
        & (a * np.sin(t.gamma_l) + b * np.cos(t.gamma_l) >= -tol)
        & ((1.0 - t.i - a) * np.sin(t.gamma_r) + b * np.cos(t.gamma_r) >= -tol)
    )


def i_plus_infinity(a0: float, i0: float, c: float, r: float) -> float:
    """Predicted inactive limit of a trajectory started at (a0, 0, i0).

    Closed form derived from the mass-transfer identities; decreasing in
    a0 on [0, 1 - i0].
    """
    if not c > 0:
        raise DomainError(f"wave speed must be positive, got {c}")
    return 1.0 - math.sqrt(
        (i0 + a0 - 1.0) ** 2 + (1.0 + r) / (c * c) * (a0 * a0 + 2.0 * c * c * a0)
    )


def _first_root(i: float, gap: float, c: float, r: float) -> float:
    """Positive root a of (1 + r + c^2) a^2 + 2 c^2 (i + r) a = c^2 gap.

    This inverts the attractor formula: a start (a, 0, i) has the limit
    level at squared distance (1 - i)^2 + gap from 1.  A discriminant made
    negative by round-off is clamped to zero.
    """
    c2 = c * c
    k = (c2 + 1.0 + r) / c2
    arg = (i + r) ** 2 + k * gap
    return (c2 / (c2 + 1.0 + r)) * (-(i + r) + math.sqrt(max(arg, 0.0)))


def alpha_threshold(i0: float, c: float, r: float) -> float:
    """The a0 at which the predicted limit hits the minimal level i_c.

    Unique positive root of i_plus_infinity(a0, i0) = i_c; zero exactly
    at i0 = i_c.
    """
    i_c = minimal_inactive_limit(c)
    if not (i_c - 1e-12 <= i0 < 1.0):
        raise DomainError(f"alpha_threshold needs i0 in [{i_c}, 1), got {i0}")
    return _first_root(i0, (1.0 - i_c) ** 2 - (1.0 - i0) ** 2, c, r)


def a_star(i0: float, c: float, r: float) -> float:
    """Largest admissible start height at level i0: min{alpha_threshold, 1 - i0}."""
    return min(alpha_threshold(i0, c, r), 1.0 - i0)


def a_at_first_max(i_minus_inf: float, i_z0: float, c: float, r: float) -> float:
    """Active height at the first maximum, from the backward limit i_minus_inf.

    Valid for i_minus_inf > 1 with (i_minus_inf - 1)^2 > (1 - i_z0)^2;
    outside that range the root turns imaginary and no first maximum of
    this kind exists.
    """
    if not c > 0:
        raise DomainError(f"wave speed must be positive, got {c}")
    if not i_minus_inf > 1.0:
        raise DomainError(f"backward limit must exceed 1, got {i_minus_inf}")
    gap = (i_minus_inf - 1.0) ** 2 - (1.0 - i_z0) ** 2
    if gap <= 0:
        raise DomainError(
            f"imaginary root: (i_minus_inf - 1)^2 = {(i_minus_inf - 1.0) ** 2} "
            f"must exceed (1 - i_z0)^2 = {(1.0 - i_z0) ** 2}"
        )
    return _first_root(i_z0, gap, c, r)


# largest |b| at either end of a segment handed to mass_residuals
ENDPOINT_TOL = 1e-6


@dataclass(frozen=True)
class MassResiduals:
    """Absolute residuals of the three integral identities on a segment.

    total_mass is the integral of a over the segment.
    """

    res1: float
    res2: float
    res3: float
    total_mass: float


def mass_residuals(zs, states, p: Params) -> MassResiduals:
    """Evaluate the three mass-transfer identities on a profile segment.

    The segment must start and end at turning points of a (|b| at most
    ENDPOINT_TOL at both ends); integrals use composite trapezoid on the
    given samples.  Identities, with Atot = integral of a and
    S = integral of a(a+i) over [z1, z2]:

        S = Atot + c (a2 - a1)
        i1 - i2 = (1+r)/c * Atot
        S = (i2 + a2) Atot + (1+r)/(2c) Atot^2 + (a1^2 - a2^2)/(2c)
    """
    zs = np.asarray(zs, dtype=float)
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[1] != 3 or states.shape[0] != zs.size:
        raise ValueError(f"expected states of shape (len(zs), 3), got {states.shape}")
    if zs.size < 2:
        raise InvalidSegmentError("segment needs at least two samples")
    a, b, i = states[:, 0], states[:, 1], states[:, 2]
    if abs(b[0]) > ENDPOINT_TOL or abs(b[-1]) > ENDPOINT_TOL:
        raise InvalidSegmentError(
            f"segment endpoints must have |b| <= {ENDPOINT_TOL}, "
            f"got {b[0]} and {b[-1]}"
        )

    atot = float(np.trapezoid(a, zs))
    s = float(np.trapezoid(a * (a + i), zs))
    a1, a2 = float(a[0]), float(a[-1])
    i1, i2 = float(i[0]), float(i[-1])
    c, r = p.c, p.r

    res1 = abs(s - (atot + c * (a2 - a1)))
    res2 = abs((i1 - i2) - (1.0 + r) / c * atot)
    res3 = abs(s - ((i2 + a2) * atot + (1.0 + r) / (2.0 * c) * atot**2 + (a1 * a1 - a2 * a2) / (2.0 * c)))
    return MassResiduals(res1=res1, res2=res2, res3=res3, total_mass=atot)


def rel_err(got: float, want: float) -> float:
    """|got - want| relative to |want|, or absolute when want is 0."""
    return abs(got - want) if want == 0 else abs(got - want) / abs(want)


def limit_symmetry(i_minus_inf: float) -> float:
    """Forward inactive limit implied by the backward one: 2 - i_minus_inf."""
    return 2.0 - i_minus_inf
