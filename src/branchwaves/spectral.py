"""Weighted linearization along a wave and Evans-function winding checks.

The comoving linearization about a wave has essential spectrum touching the
imaginary axis, so point spectrum is probed in an exponentially weighted
space: states are scaled by exp(w_exp * z), which shifts every far-field
eigenvalue by w_exp.  For admissible weights the shifted system has two
unstable directions behind the front and one stable direction ahead of it,
and a candidate eigenvalue gamma is a zero of the determinant pairing those
subspaces at z = 0.  `limit_rates` gives the shifted far-field eigenvalues
and rejects any gamma at which that splitting fails.

The rear subspace is carried as a wedge (second exterior power), which keeps
the initial data analytic in gamma even where the two rear eigenvectors
collide.  Propagation removes dominant exponential growth through constant
complex shifts, so the returned pairing differs from the raw determinant by
a factor that is analytic and nonvanishing in gamma; winding numbers are
unaffected.  Each leg is marched with the exact propagator of the
coefficient matrix frozen at subinterval midpoints, which stays accurate at
fixed cost however large |gamma| gets, where adaptive steppers stall on the
fast phase rotation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import expm

from .errors import ContourResolutionError, DomainError, SplittingError
from .model import Params
from .wave import WaveProfile, shoot_wave

__all__ = [
    "DEFAULT_STEP",
    "EvansSample",
    "SpectralSetup",
    "contour_of_S",
    "evans",
    "limit_rates",
    "make_setup",
    "winding_number",
]

DEFAULT_STEP = 0.05

_ARG_CAP = math.pi / 3.0
_MAX_REFINE = 12
_RE_MARGIN = 1e-10
_SETTLED_FRACTION = 1e-8


@dataclass
class SpectralSetup:
    """Context for weighted-linearization evaluations about one wave.

    Profile coefficients a(z) and i(z) come from cubic interpolation of the
    wave trajectory; beyond its sampled range they continue with the
    fixed-point values, so both ends of [-L, L] sit on an exact equilibrium.
    Construction rejects an L at which the wave has not settled, measured
    against the weighted-decay budget 1e-8 * a_max.
    """

    wave: WaveProfile
    w_exp: float
    L: float
    _z_lo: float = field(init=False, repr=False)
    _z_hi: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.w_exp < math.inf:
            raise DomainError("exponential weight must be positive and finite")
        if not 0.0 < self.L < math.inf:
            raise DomainError("domain half-length must be positive and finite")
        zs = self.wave.trajectory.zs
        states = self.wave.trajectory.states
        self._z_lo = float(zs[0])
        self._z_hi = float(zs[-1])
        self._a_spline = CubicSpline(zs, states[:, 0])
        self._b_spline = CubicSpline(zs, states[:, 1])
        self._i_spline = CubicSpline(zs, states[:, 2])
        budget = _SETTLED_FRACTION * self.wave.a_max
        for z_end in (-self.L, self.L):
            a = self._interp_inside(self._a_spline, z_end, 0.0)
            b = self._interp_inside(self._b_spline, z_end, 0.0)
            if math.hypot(a, b) > budget:
                raise DomainError(
                    f"wave has not settled at z = {z_end:g}: |(a, b)| = "
                    f"{math.hypot(a, b):.3e} exceeds 1e-8 * a_max; pick L "
                    "beyond the sampled trajectory"
                )

    def _interp_inside(self, spline: CubicSpline, z: float, outside: float) -> float:
        if z < self._z_lo or z > self._z_hi:
            return outside
        return float(spline(z))

    def coefficient_table(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Profile values (a, i) at each z, extended by the limits off the data."""
        zs = np.asarray(zs, dtype=float)
        a = np.zeros_like(zs)
        i = np.empty_like(zs)
        i[zs < self._z_lo] = self.wave.i_minus_inf
        i[zs > self._z_hi] = self.wave.i_plus_inf
        inside = (zs >= self._z_lo) & (zs <= self._z_hi)
        a[inside] = self._a_spline(zs[inside])
        i[inside] = self._i_spline(zs[inside])
        return a, i


def make_setup(
    wave: WaveProfile | None = None,
    w_exp: float | None = None,
    L: float | None = None,
) -> SpectralSetup:
    """Build a SpectralSetup, defaulting to the critical wave at r = 0.

    The default weight is c/2 (centered in the admissible band) and the
    default half-length is the smallest integer at least 30 that clears both
    ends of the sampled trajectory, so the equilibrium extension applies at
    +-L.
    """
    if wave is None:
        wave = shoot_wave(2.0, Params(c=2.0, r=0.0))
    if w_exp is None:
        w_exp = wave.params.c / 2.0
    if L is None:
        zs = wave.trajectory.zs
        L = max(30.0, math.ceil(-zs[0]) + 1.0, math.ceil(zs[-1]) + 1.0)
    return SpectralSetup(wave=wave, w_exp=float(w_exp), L=float(L))


@dataclass(frozen=True)
class EvansSample:
    """One contour evaluation; construction rejects non-finite values."""

    gamma: complex
    value: complex

    def __post_init__(self) -> None:
        if not (np.isfinite(self.gamma) and np.isfinite(self.value)):
            raise DomainError(
                f"non-finite Evans sample at gamma = {self.gamma}"
            )


def _weighted_matrix(a: float, i: float, gamma: complex, p: Params, w: float) -> np.ndarray:
    c, r = p.c, p.r
    return np.array(
        [
            [w, 1.0, 0.0],
            [gamma + 2.0 * a + i - 1.0, w - c, a],
            [-(2.0 * a + i + r) / c, 0.0, (gamma - a) / c + w],
        ],
        dtype=complex,
    )


def _limit_rates(gamma: complex, i_limit: float, c: float, w: float):
    """Shifted far-field eigenvalues, principal branch, sorted (i-mode, +, -)."""
    root = cmath.sqrt(c * c / 4.0 + gamma + i_limit - 1.0)
    return (gamma / c + w, w - c / 2.0 + root, w - c / 2.0 - root)


def limit_rates(gamma: complex, setup: SpectralSetup):
    """Shifted far-field eigenvalues (nu_minus, nu_plus) at z = -inf, +inf.

    Each triple is ordered (i-mode, growing root, decaying root).  Raises
    DomainError off Re(gamma) >= 0 or at gamma = 0, and SplittingError
    unless both sides split into two unstable and one stable direction,
    each real part at least 1e-10 from zero.
    """
    g = complex(gamma)
    if g.real < -1e-12:
        raise DomainError("spectral probe is defined for Re(gamma) >= 0")
    if g == 0:
        raise DomainError("gamma = 0 sits on the essential-spectrum boundary")
    c, w = setup.wave.params.c, setup.w_exp
    nu_minus = _limit_rates(g, setup.wave.i_minus_inf, c, w)
    nu_plus = _limit_rates(g, setup.wave.i_plus_inf, c, w)
    for nu in (*nu_minus, *nu_plus):
        if abs(nu.real) < _RE_MARGIN:
            raise SplittingError(
                f"shifted limit eigenvalue {nu} sits on the splitting "
                f"boundary at gamma = {g}"
            )
    for side, nus in (("rear", nu_minus), ("front", nu_plus)):
        if tuple(nu.real > 0 for nu in nus) != (True, True, False):
            raise SplittingError(
                f"{side} splitting is not two unstable / one stable at "
                f"gamma = {g}"
            )
    return nu_minus, nu_plus


def _wedge_square(m: np.ndarray) -> np.ndarray:
    """Action of m on the second exterior power, axes (e12, e13, e23)."""
    return np.array(
        [
            [m[0, 0] + m[1, 1], m[1, 2], -m[0, 2]],
            [m[2, 1], m[0, 0] + m[2, 2], m[0, 1]],
            [-m[2, 0], m[1, 0], m[1, 1] + m[2, 2]],
        ],
        dtype=complex,
    )


def evans(gamma: complex, setup: SpectralSetup, step: float = DEFAULT_STEP) -> complex:
    """Normalized Evans determinant at gamma.

    The rear unstable plane starts at -L as the wedge (0, -1, -lambda2),
    which is analytic in gamma everywhere the splitting exists, and marches
    forward with the wedge growth nu1 + nu2 removed; the front stable vector
    marches backward from +L with its decay nu3 removed.  The value is the
    determinant pairing of the two at z = 0.  It differs from the raw
    determinant by exp((nu1 + nu2 - nu3) L), analytic and nonvanishing in
    gamma, which at large |gamma| is far beyond floating-point range; the
    bounded pairing is the useful invariant and is what is returned.
    """
    if step <= 0.0:
        raise DomainError("marching step must be positive")
    g = complex(gamma)
    nu_minus, nu_plus = limit_rates(g, setup)
    p, w = setup.wave.params, setup.w_exp
    n = int(math.ceil(setup.L / step))
    h = setup.L / n
    eye = np.eye(3, dtype=complex)

    lam2 = nu_minus[1] - w
    V = np.array([0.0, -1.0, -lam2], dtype=complex)
    shift_v = nu_minus[0] + nu_minus[1]
    mids = -setup.L + h * (np.arange(n) + 0.5)
    a_mid, i_mid = setup.coefficient_table(mids)
    for a, i in zip(a_mid, i_mid):
        m2 = _wedge_square(_weighted_matrix(a, i, g, p, w))
        V = expm((m2 - shift_v * eye) * h) @ V

    # front stable vector (1, lam3, (i_plus + r) / (g - c lam3)); the form
    # degenerates at an eigenvalue collision, where g - c lam3 vanishes
    lam3 = nu_plus[2] - w
    den = g - p.c * lam3
    if abs(den) < 1e-10:
        raise SplittingError(
            f"limit eigenvectors collide at gamma = {g}; perturb gamma "
            "radially off the collision point"
        )
    X = np.array([1.0, lam3, (setup.wave.i_plus_inf + p.r) / den], dtype=complex)
    mids = setup.L - h * (np.arange(n) + 0.5)
    a_mid, i_mid = setup.coefficient_table(mids)
    for a, i in zip(a_mid, i_mid):
        m = _weighted_matrix(a, i, g, p, w)
        X = expm(-(m - nu_plus[2] * eye) * h) @ X

    return complex(V[0] * X[2] - V[1] * X[1] + V[2] * X[0])


def contour_of_S(
    r_min: float = 1e-3, r_max: float = 1000.0, base_n: int = 200
) -> np.ndarray:
    """Closed positively oriented boundary of the right-half annulus S.

    S = {Re(gamma) >= 0, r_min <= |gamma| <= r_max}.  The polyline starts at
    -i * r_max, runs the outer arc counterclockwise through +r_max to
    +i * r_max, descends the imaginary axis to +i * r_min with
    logarithmically spaced moduli, runs the inner arc clockwise through
    +r_min to -i * r_min, and returns to the start; the last point repeats
    the first.
    """
    if not 0.0 < r_min < r_max < math.inf:
        raise DomainError("need 0 < r_min < r_max < inf")
    if base_n < 16:
        raise DomainError("base_n below 16 cannot resolve the contour")
    n_arc = int(base_n)
    n_seg = max(int(base_n) // 2, 8)
    n_inner = max(int(base_n) // 4, 8)

    theta = np.linspace(-math.pi / 2.0, math.pi / 2.0, n_arc + 1)
    outer = r_max * np.exp(1j * theta)
    outer[0] = complex(0.0, -r_max)
    outer[-1] = complex(0.0, r_max)
    down = 1j * np.logspace(math.log10(r_max), math.log10(r_min), n_seg + 1)[1:]
    theta_in = np.linspace(math.pi / 2.0, -math.pi / 2.0, n_inner + 1)
    inner = r_min * np.exp(1j * theta_in)[1:]
    inner[-1] = complex(0.0, -r_min)
    up = -1j * np.logspace(math.log10(r_min), math.log10(r_max), n_seg + 1)[1:]

    pts = np.concatenate([outer, down, inner, up])
    pts[-1] = pts[0]
    return pts


def _arg_sweep(
    fn: Callable[[complex], complex],
    s0: EvansSample,
    s1: EvansSample,
    depth: int,
) -> tuple[float, float]:
    if s0.value == 0 or s1.value == 0:
        raise ContourResolutionError(
            f"vanishing value on the contour near gamma = {s0.gamma}"
        )
    delta = cmath.phase(s1.value / s0.value)
    if abs(delta) <= _ARG_CAP:
        return delta, abs(delta)
    if depth >= _MAX_REFINE:
        raise ContourResolutionError(
            f"argument step {delta:.3f} rad between gamma = {s0.gamma} and "
            f"{s1.gamma} still unresolved after {_MAX_REFINE} bisections"
        )
    g_mid = 0.5 * (s0.gamma + s1.gamma)
    s_mid = EvansSample(g_mid, fn(g_mid))
    d0, m0 = _arg_sweep(fn, s0, s_mid, depth + 1)
    d1, m1 = _arg_sweep(fn, s_mid, s1, depth + 1)
    return d0 + d1, max(m0, m1)


def winding_number(
    fn: Callable[[complex], complex], contour: Sequence[complex]
) -> tuple[int, float]:
    """Winding of the values of fn along a closed contour.

    fn is typically `lambda g: evans(g, setup)`; the synthetic self-test
    winds the identity map.  Returns (integer winding number, maximum
    argument step after refinement).  Steps above pi/3 are bisected
    recursively, evaluating at chord midpoints, up to 12 levels.  A sweep
    whose accumulated argument misses an integer number of turns by 0.1 or
    more is reported as a resolution failure rather than rounded over.  The
    initial sample pass is an independent map over contour points; the
    argument sweep itself is sequential.
    """
    pts = np.asarray(contour, dtype=complex)
    if pts.ndim != 1 or pts.size < 4:
        raise DomainError("contour must be a closed polyline of points")
    if pts[0] != pts[-1]:
        raise DomainError("contour must close: last point repeats the first")

    samples = [EvansSample(complex(g), fn(complex(g))) for g in pts[:-1]]
    samples.append(samples[0])

    total = 0.0
    max_step = 0.0
    for s0, s1 in zip(samples[:-1], samples[1:]):
        delta, largest = _arg_sweep(fn, s0, s1, 0)
        total += delta
        max_step = max(max_step, largest)

    turns = total / (2.0 * math.pi)
    nearest = round(turns)
    if abs(turns - nearest) >= 0.1:
        raise ContourResolutionError(
            f"accumulated argument is {turns:.4f} turns, not close to an "
            "integer"
        )
    return int(nearest), max_step
