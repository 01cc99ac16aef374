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
from typing import NamedTuple

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


def fixed_point_spectrum(K, c: float, gamma=0.0, w: float = 0.0) -> tuple:
    """Eigenvalues at the fixed point (0, 0, K): (i-mode, growing root, decaying root).

    gamma/c + w and w - c/2 +- sqrt(c^2/4 + gamma + K - 1), principal branch, at the
    spectral parameter gamma and weight w of `spectral`.  At the defaults, the wave-ODE
    rates: the i-mode is exactly 0, and the roots are a complex pair where c^2/4 + K < 1.
    A complex array of gammas gives arrays: at finite gammas, one-gamma values to the bit.
    """
    if not c > 0:
        raise DomainError(f"wave speed must be positive, got {c}")
    if isinstance(gamma, np.ndarray):  # a complex over a float, part by part as in Python
        mode, sqrt = gamma.real / c + w + 1j * (gamma.imag / c), np.sqrt
    else:
        mode, sqrt = gamma / c + w, cmath.sqrt
    root = sqrt(c * c / 4.0 + gamma + K - 1.0)
    return (mode, w - c / 2.0 + root, w - c / 2.0 - root)


def eigenvector(K: float, c: float, r: float, lam, gamma=0.0) -> tuple:
    """Eigenvector (1, lam, (K + r) / (gamma - c lam)) at (0, 0, K) for a root lam.

    lam is a root of `fixed_point_spectrum` at the same K, c and gamma,
    less the weight.  SplittingError where gamma - c lam is below 1e-10 in
    modulus, at the first such entry of arrays: lam collides with the i-mode
    there and this form degenerates.  Array entries are Python's to the bit.
    """
    den = gamma - c * lam
    near = np.less(abs(den), 1e-10)
    if near.any():  # name the first such entry
        lam, gamma = (np.broadcast_to(x, near.shape).flat[near.argmax()].item() for x in (lam, gamma))
        raise SplittingError(f"limit eigenvalue {lam} collides with the i-mode at gamma = "
                             f"{gamma}, where its eigenvector degenerates")
    if isinstance(den, np.ndarray):  # divided as Python numbers: numpy's quotient can be a bit off
        return (1.0, lam, np.asarray((K + r) / den.astype(object), dtype=complex))
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


class Triangle(NamedTuple):
    """Invariant triangle of the subsystem a' = b, b' = a(a + i - 1) - c b.

    Vertices: the fixed points v0 = (0, 0) and v1 = (w, 0), w = 1 - i, and the apex
    below the a-axis.  The edges are eigenlines at interior angles gamma_l and gamma_r,
    of slopes tan_l = w / (c/2 + sqrt(c^2/4 - w)) = -lambda_plus(i) through v0 and
    tan_r = w / (c/2 + sqrt(c^2/4 + w)) = beta_plus, the growing rate at level 2 - i,
    through v1.  A float level (np.float64 too) stays on Python floats; the fields
    of an array of levels take its shape, the vertices with a trailing (a, b) axis.
    """

    i: float | np.ndarray
    c: float
    tan_l: float | np.ndarray
    tan_r: float | np.ndarray

    gamma_l = property(lambda self: np.arctan(self.tan_l))
    gamma_r = property(lambda self: np.arctan(self.tan_r))

    @property
    def v0(self) -> np.ndarray:
        return np.zeros(np.shape(self.i) + (2,))

    @property
    def v1(self) -> np.ndarray:
        return np.stack([1.0 - self.i, np.zeros_like(self.i)], axis=-1)

    @property
    def apex(self) -> np.ndarray:
        # where b = -tan_l a meets b = -tan_r (w - a)
        s = (1.0 - self.i) / (self.tan_l + self.tan_r)
        return np.stack([self.tan_r * s, -self.tan_l * self.tan_r * s], axis=-1)


def triangle(i: float | np.ndarray, c: float) -> Triangle:
    """Invariant triangle at level i, or at each level of an array i, in [i_c, 1)."""
    c = float(c)
    i_c = minimal_inactive_limit(c)
    if isinstance(i, float):
        i, sqrt = float(i), math.sqrt
        if not i_c - 1e-12 <= i < 1.0:
            raise DomainError(f"triangle needs i in [{i_c}, 1), got {i}")
    else:
        i, sqrt = np.asarray(i, dtype=float), np.sqrt
        bad = np.flatnonzero(~((i_c - 1e-12 <= i) & (i < 1.0)))
        if bad.size:
            raise DomainError(f"triangle needs i in [{i_c}, 1), got {bad.size} of {i.size} levels "
                              f"outside, the first at flat index {bad[0]}: {i.flat[bad[0]]}")
    w, half = 1.0 - i, c / 2.0
    # d < 0 at the levels admitted down to i_c - 1e-12; (d + |d|) / 2 is max(d, 0) exactly
    d = half * half - w
    tan_l = w / (half + sqrt((d + abs(d)) * 0.5))
    return Triangle(i, c, tan_l, w / (half + sqrt(half * half + w)))


def triangle_contains(t: Triangle, points, tol: float = 0.0) -> bool | np.ndarray:
    """Whether points of shape (..., 2), or one (a, b) pair, lie in t inflated by slack tol.

    A boolean per point, broadcast against the levels of t; a Python bool for a float
    level and float pair.  Each edge test is a signed distance, so tol is a true margin.
    """
    if not tol >= 0:
        raise DomainError(f"slack must be >= 0, got {tol}")
    if (isinstance(t.i, float) and len(points) == 2
            and isinstance(points[0], float) and isinstance(points[1], float)):
        a, b, sqrt = float(points[0]), float(points[1]), math.sqrt
    else:
        p = np.asarray(points, dtype=float)
        a, b, sqrt = p[..., 0], p[..., 1], np.sqrt
    return ((b <= tol) & (a * t.tan_l + b >= -tol * sqrt(1.0 + t.tan_l * t.tan_l))
            & ((1.0 - t.i - a) * t.tan_r + b >= -tol * sqrt(1.0 + t.tan_r * t.tan_r)))


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
    level at squared distance (1 - i)^2 + gap from 1.  Where i + r > 0 it is
    gap / ((i + r) + sqrt(...)), which cancels nothing as r grows.  A discriminant
    made negative by round-off is clamped to zero; DomainError once (i + r)^2 overflows.
    """
    c2 = c * c
    k = (c2 + 1.0 + r) / c2
    try:
        arg = (i + r) ** 2 + k * gap
    except OverflowError:
        raise DomainError(f"production rate r = {r:g} is past the range of the attractor "
                          "formula: (i + r)^2 overflows") from None
    root = math.sqrt(max(arg, 0.0))
    return gap / ((i + r) + root) if i + r > 0.0 else (c2 / (c2 + 1.0 + r)) * (root - (i + r))


def alpha_threshold(i0: float, c: float, r: float) -> float:
    """The a0 at which the predicted limit hits the minimal level i_c.

    Unique positive root of i_plus_infinity(a0, i0) = i_c; zero exactly
    at i0 = i_c.
    """
    i_c = minimal_inactive_limit(c)
    if not (i_c - 1e-12 <= i0 < 1.0):
        raise DomainError(f"alpha_threshold needs i0 in [{i_c}, 1), got {i0}")
    return _first_root(i0, (i0 - i_c) * (2.0 - i_c - i0), c, r)


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
