"""Closed-form objects of the wave analysis, as checkable functions.

Everything here is exact arithmetic on formulas: fixed-point spectra, the
frozen-inactive 2-D subsystem with its invariant triangles, the attractor
limit formula and its threshold inversion, and the integral
(mass-transfer) identities evaluated on computed profile segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidSegmentError, OscillatoryRegimeError
from .model import Params

__all__ = [
    "Spectrum3",
    "Subsystem2",
    "Triangle",
    "MassResiduals",
    "fixed_point_spectrum",
    "subsystem_spectrum",
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


@dataclass(frozen=True)
class Spectrum3:
    """Eigenvalues of the wave-ODE Jacobian at a fixed point (0, 0, K).

    lambda0 is exactly 0 (the fixed-point continuum direction); the other
    two are -c/2 +- sqrt(discriminant), a complex pair when the
    discriminant c^2/4 + K - 1 is negative.
    """

    lambda0: float
    lambda_plus: float | complex
    lambda_minus: float | complex
    discriminant: float


def fixed_point_spectrum(K: float, c: float) -> Spectrum3:
    """Spectrum of the linearization at the fixed point (0, 0, K)."""
    if not c > 0:
        raise DomainError(f"wave speed must be positive, got {c}")
    disc = c * c / 4.0 + K - 1.0
    root = math.sqrt(disc) if disc >= 0 else complex(0.0, math.sqrt(-disc))
    return Spectrum3(
        lambda0=0.0,
        lambda_plus=-c / 2.0 + root,
        lambda_minus=-c / 2.0 - root,
        discriminant=disc,
    )


@dataclass(frozen=True)
class Subsystem2:
    """Spectra and eigendirections of the frozen-inactive 2-D subsystem.

    At inactive level i the subsystem a' = b, b' = a(a + i - 1) - c b has
    fixed points (0, 0) with eigenvalues lambda_pm and (1 - i, 0) with
    eigenvalues beta_pm; l_pm and r_pm are the matching eigendirections
    (any positive multiple is equivalent).
    """

    i: float
    c: float
    lambda_plus: float | complex
    lambda_minus: float | complex
    beta_plus: float
    beta_minus: float
    l_plus: np.ndarray
    l_minus: np.ndarray
    r_plus: np.ndarray
    r_minus: np.ndarray


def subsystem_spectrum(i: float, c: float) -> Subsystem2:
    """Eigen-structure of the 2-D subsystem at frozen inactive level i in [0, 1)."""
    spec = fixed_point_spectrum(i, c)
    if not (0.0 <= i < 1.0):
        raise DomainError(f"inactive level must lie in [0, 1), got {i}")
    lp, lm = spec.lambda_plus, spec.lambda_minus
    root_r = math.sqrt(c * c / 4.0 + 1.0 - i)
    bp, bm = -c / 2.0 + root_r, -c / 2.0 - root_r
    return Subsystem2(
        i=i,
        c=c,
        lambda_plus=lp,
        lambda_minus=lm,
        beta_plus=bp,
        beta_minus=bm,
        l_plus=np.array([lm, 1.0 - i]),
        l_minus=np.array([lp, 1.0 - i]),
        r_plus=np.array([-bm, 1.0 - i]),
        r_minus=np.array([-bp, 1.0 - i]),
    )


def minimal_inactive_limit(c: float) -> float:
    """Smallest inactive level ahead of a non-negative wave: max{0, 1 - c^2/4}."""
    if not c > 0:
        raise DomainError(f"wave speed must be positive, got {c}")
    return max(0.0, 1.0 - c * c / 4.0)


def decay_rate(i_limit: float, c: float) -> float:
    """Spatial tail rate -c/2 + sqrt(c^2/4 + i_limit - 1) at an inactive limit.

    This is lambda_plus of the fixed-point spectrum, rejected where it is
    complex.
    """
    spec = fixed_point_spectrum(i_limit, c)
    if spec.discriminant < 0:
        raise OscillatoryRegimeError(
            f"negative discriminant {spec.discriminant} at i = {i_limit}, "
            f"c = {c}: oscillatory regime"
        )
    return spec.lambda_plus


@dataclass(frozen=True)
class Triangle:
    """Invariant triangle of the 2-D subsystem at inactive level i.

    Vertices: the origin v0, the saturated state v1 = (1 - i, 0), and the
    apex (strictly below the a-axis) where the two incoming eigendirections
    intersect.  gamma_l and gamma_r are the interior angles at v0 and v1.
    """

    i: float
    c: float
    v0: np.ndarray
    v1: np.ndarray
    apex: np.ndarray
    gamma_l: float
    gamma_r: float


def triangle(i: float, c: float) -> Triangle:
    """Invariant triangle at level i, valid for i in [i_c, 1)."""
    i_c = minimal_inactive_limit(c)
    if not (i_c - 1e-12 <= i < 1.0):
        raise DomainError(f"triangle needs i in [{i_c}, 1), got {i}")
    sub = subsystem_spectrum(i, c)
    v0 = np.array([0.0, 0.0])
    v1 = np.array([1.0 - i, 0.0])
    # apex solves q*r_plus - p*l_plus = v1 with p, q >= 0; then apex = -p*l_plus
    mat = np.column_stack([sub.r_plus, -np.real(sub.l_plus)])
    q, p = np.linalg.solve(mat, v1)
    apex = -p * np.real(sub.l_plus)

    def interior_angle(at, other, third):
        u = other - at
        v = third - at
        return math.atan2(abs(u[0] * v[1] - u[1] * v[0]), float(np.dot(u, v)))

    return Triangle(
        i=i,
        c=c,
        v0=v0,
        v1=v1,
        apex=apex,
        gamma_l=interior_angle(v0, v1, apex),
        gamma_r=interior_angle(v1, v0, apex),
    )


def triangle_contains(t: Triangle, point, tol: float = 0.0) -> bool:
    """Whether a point lies in the closed triangle inflated by slack tol.

    Half-plane tests against the three edges, with distances measured in
    absolute units so the slack is a true geometric margin.
    """
    if tol < 0:
        raise DomainError(f"slack must be >= 0, got {tol}")
    p = np.asarray(point, dtype=float)
    verts = (t.v0, t.v1, t.apex)
    for k in range(3):
        va, vb = verts[k], verts[(k + 1) % 3]
        vc = verts[(k + 2) % 3]
        edge = vb - va
        normal = np.array([-edge[1], edge[0]])
        norm = float(np.hypot(normal[0], normal[1]))
        if norm == 0.0:  # degenerate edge (i -> 1 limit): fall back to vertex test
            if float(np.hypot(*(p - va))) > tol:
                return False
            continue
        normal /= norm
        if float(np.dot(normal, vc - va)) < 0:
            normal = -normal  # orient inward
        if float(np.dot(normal, p - va)) < -tol:
            return False
    return True


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


@dataclass(frozen=True)
class MassResiduals:
    """Absolute residuals of the three integral identities on a segment.

    total_mass is the integral of a over the segment.
    """

    res1: float
    res2: float
    res3: float
    total_mass: float


def mass_residuals(zs, states, p: Params, endpoint_tol: float = 1e-8) -> MassResiduals:
    """Evaluate the three mass-transfer identities on a profile segment.

    The segment must start and end at turning points of a (|b| below
    endpoint_tol at both ends); integrals use composite trapezoid on the
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
    if abs(b[0]) > endpoint_tol or abs(b[-1]) > endpoint_tol:
        raise InvalidSegmentError(
            f"segment endpoints must have |b| <= {endpoint_tol}, "
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


def limit_symmetry(i_minus_inf: float) -> float:
    """Forward inactive limit implied by the backward one: 2 - i_minus_inf."""
    return 2.0 - i_minus_inf
