"""Weighted linearization along a wave and Evans-function winding checks.

The comoving linearization about a wave has essential spectrum touching the
imaginary axis, so point spectrum is probed in an exponentially weighted
space: states are scaled by exp(w_exp * z), which shifts every far-field
eigenvalue by w_exp.  For admissible weights the shifted system has two
unstable directions behind the front and one stable direction ahead of it,
and a candidate eigenvalue gamma is a zero of the determinant pairing those
subspaces at z = 0.  `limit_rates` gives the shifted far-field eigenvalues
(`analysis.fixed_point_spectrum` at each limit) and rejects any gamma at
which that splitting fails.

The rear subspace is carried as a wedge (second exterior power), which keeps
the initial data analytic in gamma even where the two rear eigenvectors
collide.  Propagation removes dominant exponential growth through constant
complex shifts, so the returned pairing differs from the raw determinant by
a factor that is analytic and nonvanishing in gamma; winding numbers are
unaffected.

Each leg is marched with the fourth-order Magnus step at the two Gauss
points of every subinterval (Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
2009), Omega = h/2 (A1 + A2) + sqrt(3) h^2/12 [A2, A1], and its exact
exponential, which stays accurate at fixed cost however large |gamma| gets,
where adaptive steppers stall on the fast phase rotation.  Its local error
is h^5 times the variation of the coefficients, which falls with the wave
down the tails, so each leg runs on a mesh graded by the wave's own decay:
the step is `step` where max(|a|, |b|) peaks and grows as that maximum to
the power -1/5, which keeps fourth order with far fewer steps.  One
`evans` call marches a whole array of gammas together; the exponentials of
a block of steps for all of them are one stack of about 512 matrices (one
step's when the gammas alone are more), never the whole (gamma, step)
field.  `expm` is Pade-13 scaling and squaring (Higham, SIAM J. Matrix
Anal. Appl. 26, 2005), a power per matrix and the Pade sums in place.
The wave is real, so E(conj gamma) = conj E(gamma) (Sandstede, Handbook of
Dynamical Systems II, 2002): `evans` marches each conjugate pair once, and
`contour_of_S` mirrors its points exactly, so a sweep marches half of them.
Beyond the sampled trajectory the coefficients are the far-field limits,
of which the start data are exact eigenvectors once the growth is removed,
so the march there is the identity: each leg starts where the trajectory
ends, or at +-L if that comes first, and the cost does not grow with L.

`winding_number` sweeps a contour with one batch, bisects large argument
steps one gamma at a time and returns a `Winding` of all it evaluated;
`evans_winding` runs it on `evans`, checks the sweep by recomputing a few
of its points at half the step, and counts what it computed.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .analysis import eigenvector, fixed_point_spectrum
from .errors import ContourResolutionError, DomainError, SplittingError
from .model import Params, wave_rhs
from .wave import WaveProfile

__all__ = [
    "DEFAULT_STEP",
    "SpectralSetup",
    "Winding",
    "contour_of_S",
    "evans",
    "evans_winding",
    "expm",
    "limit_rates",
    "make_setup",
    "winding_number",
]

DEFAULT_STEP = 0.2

_ARG_CAP = math.pi / 3.0
# Gauss nodes of each Magnus step sit at 1/2 -+ sqrt(3)/6 of the step
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
# argument steps telescope and are capped at pi/3, so only a phase error
# near pi/3 per point could change a count; halving may move values this much
_HALVING_TOL = 0.1
# a sweep whose argument misses a whole number of turns by this much is unresolved
CLOSURE_TOL = 0.1
_MAX_REFINE = 12
# matrices per stacked exponential in the march: enough that a batch of a
# few gammas pays numpy's per-call cost once per block of steps, not once
# per step; on a 2-vCPU Xeon the sweep time was flat from 512 to 2048
# matrices while memory grew with the block
_BLOCK = 512
_RE_MARGIN = 1e-10
# a contour has about 2.25 base_n points, marched at once: 22,501 take about 30 s
# on a 2-vCPU host, while 10**9 would allocate tens of GB before the first value
MAX_CONTOUR_N = 10**4
# r_min, r_max, base_n of the default contour: `evans --contour`, `evans-winding`
CONTOUR = (1e-3, 1000.0, 200)
_SETTLED_FRACTION = 1e-8


@dataclass
class SpectralSetup:
    """Context for weighted-linearization evaluations about one wave.

    Profile coefficients a(z) and i(z) come from the cubic Hermite
    interpolant of the wave samples with the wave ODE's own slopes (error
    h^4/384 max|y''''| for samples h apart); beyond the sampled range they
    continue with the fixed-point values, so both ends of [-L, L] sit on an
    exact equilibrium.
    Construction rejects an L at which the wave has not settled, measured
    against the weighted-decay budget 1e-8 * a_max.
    """

    wave: WaveProfile
    w_exp: float
    L: float

    def __post_init__(self) -> None:
        if not 0.0 < self.w_exp < math.inf:
            raise DomainError("exponential weight must be positive and finite")
        if not 0.0 < self.L < math.inf:
            raise DomainError("domain half-length must be positive and finite")
        traj = self.wave.trajectory
        self._z_lo, self._z_hi = float(traj.zs[0]), float(traj.zs[-1])
        self._meshes: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        slopes = np.stack(wave_rhs(traj.states.T, self.wave.params), axis=-1)
        self._spline = partial(_hermite, traj.zs, traj.states, slopes)
        budget = _SETTLED_FRACTION * self.wave.a_max
        for z_end in (-self.L, self.L):
            a, b = self._spline(z_end)[:2] if self._z_lo <= z_end <= self._z_hi else (0.0, 0.0)
            if math.hypot(a, b) > budget:
                raise DomainError(
                    f"wave has not settled at z = {z_end:g}: |(a, b)| = "
                    f"{math.hypot(a, b):.3e} exceeds 1e-8 * a_max; pick L "
                    "beyond the sampled trajectory"
                )

    def coefficient_table(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Profile values (a, i) at each z, extended by the limits off the data."""
        zs = np.asarray(zs, dtype=float)
        table = self._spline(np.clip(zs, self._z_lo, self._z_hi))
        a, i = table[..., 0], table[..., 2]
        a[(zs < self._z_lo) | (zs > self._z_hi)] = 0.0
        i[zs < self._z_lo] = self.wave.i_minus_inf
        i[zs > self._z_hi] = self.wave.i_plus_inf
        return a, i


def _hermite(zs: np.ndarray, ys: np.ndarray, slopes: np.ndarray, z) -> np.ndarray:
    """Cubic Hermite interpolant of (ys, slopes) at knots zs, at z: z.shape + ys.shape[1:]."""
    z = np.asarray(z, dtype=float)
    k = np.clip(np.searchsorted(zs, z, side="right") - 1, 0, zs.size - 2)
    h = (zs[k + 1] - zs[k])[..., None]
    t = (z - zs[k])[..., None] / h
    u = 1.0 - t
    return (u * u * ((1.0 + 2.0 * t) * ys[k] + t * h * slopes[k])
            + t * t * ((3.0 - 2.0 * t) * ys[k + 1] - u * h * slopes[k + 1]))


def make_setup(
    wave: WaveProfile, w_exp: float | None = None, L: float | None = None
) -> SpectralSetup:
    """Build the SpectralSetup about a wave.

    The default weight is c/2 (centered in the admissible band) and the
    default half-length is the smallest integer at least 30 that clears both
    ends of the sampled trajectory, so the equilibrium extension applies at
    +-L.
    """
    if w_exp is None:
        w_exp = wave.params.c / 2.0
    if L is None:
        zs = wave.trajectory.zs
        L = max(30.0, math.ceil(-zs[0]) + 1.0, math.ceil(zs[-1]) + 1.0)
    return SpectralSetup(wave=wave, w_exp=float(w_exp), L=float(L))


def _weighted_matrix(a, i, gamma, p: Params, w: float) -> np.ndarray:
    """M(z, gamma) + w I at coefficients (a, i), broadcast over a, i and gamma.

    The result has the broadcast shape of the three followed by (3, 3).
    """
    c, r = p.c, p.r
    gamma = np.asarray(gamma, dtype=complex)
    shape = np.broadcast_shapes(np.shape(a), np.shape(i), gamma.shape)
    m = np.zeros(shape + (3, 3), dtype=complex)
    m[..., 0, 0] = w
    m[..., 0, 1] = 1.0
    m[..., 1, 0] = gamma + 2.0 * a + i - 1.0
    m[..., 1, 1] = w - c
    m[..., 1, 2] = a
    m[..., 2, 0] = -(2.0 * a + i + r) / c
    m[..., 2, 2] = (gamma - a) / c + w
    return m


def limit_rates(gamma: complex, setup: SpectralSetup):
    """Shifted far-field eigenvalues (nu_minus, nu_plus) at z = -inf, +inf.

    Each triple is `fixed_point_spectrum` at that limit, ordered (i-mode,
    growing root, decaying root).  Raises DomainError at a non-finite
    gamma, off Re(gamma) >= 0 or at gamma = 0, and SplittingError unless
    both sides split into two unstable and one stable direction, each real
    part at least 1e-10 from zero.
    """
    g = complex(gamma)
    if not cmath.isfinite(g):
        raise DomainError(f"gamma must be finite, got {g}")
    if g.real < -1e-12:
        raise DomainError("spectral probe is defined for Re(gamma) >= 0")
    if g == 0:
        raise DomainError("gamma = 0 sits on the essential-spectrum boundary")
    c, w = setup.wave.params.c, setup.w_exp
    nu_minus = fixed_point_spectrum(setup.wave.i_minus_inf, c, g, w)
    nu_plus = fixed_point_spectrum(setup.wave.i_plus_inf, c, g, w)
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
    """Action of m on the second exterior power, axes (e12, e13, e23).

    Works on a stack of shape (..., 3, 3).  The lift is linear and keeps
    commutators, so it can be taken after a Magnus step is formed.
    """
    out = np.empty(np.shape(m), dtype=complex)
    out[..., 0, 0] = m[..., 0, 0] + m[..., 1, 1]
    out[..., 0, 1] = m[..., 1, 2]
    out[..., 0, 2] = -m[..., 0, 2]
    out[..., 1, 0] = m[..., 2, 1]
    out[..., 1, 1] = m[..., 0, 0] + m[..., 2, 2]
    out[..., 1, 2] = m[..., 0, 1]
    out[..., 2, 0] = -m[..., 2, 0]
    out[..., 2, 1] = m[..., 1, 0]
    out[..., 2, 2] = m[..., 1, 1] + m[..., 2, 2]
    return out


# Pade-13 numerator coefficients b_0..b_13 and the 1-norm up to which the
# unscaled approximant is accurate to double precision (Higham 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152
# adj(q) = q[i] q[j] - q[k] q[l] entrywise, (i, j, k, l) flat indices in product order
_ADJUGATE = np.array([[4, 8, 5, 7], [2, 7, 1, 8], [1, 5, 2, 4], [5, 6, 3, 8], [0, 8, 2, 6],
                      [2, 3, 0, 5], [3, 7, 4, 6], [1, 6, 0, 7], [0, 4, 1, 3]]).T.reshape(4, 3, 3)


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Products of 3x3 matrices laid out (3, 3, G), one per last index, by broadcasting."""
    out = x[:, 0, None] * y[0]
    out += x[:, 1, None] * y[1]
    out += x[:, 2, None] * y[2]
    return out


def expm(A: np.ndarray) -> np.ndarray:
    """Exponential of each matrix in a stack of shape (..., 3, 3).

    Pade-13 scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26,
    2005) on entries laid out (3, 3, G), each step one vector operation;
    sorted by the least s with ||A||_1 / 2^s <= theta_13, the stack squares
    a shrinking tail slice.  The Pade sums run in place, real coefficients on
    float views and the identity terms on the diagonal alone.  The adjugate
    inverts the denominator, well conditioned once scaled.  A matrix with a
    non-finite entry gives a non-finite result.
    """
    A = np.asarray(A, dtype=complex)
    M = np.ascontiguousarray(A.reshape(-1, 3, 3).transpose(1, 2, 0))
    norm = np.abs(M).sum(axis=0).max(axis=0)
    s = np.zeros(norm.shape, dtype=int)
    big = np.isfinite(norm) & (norm > _THETA13)
    s[big] = np.ceil(np.log2(norm[big] / _THETA13))
    order = np.argsort(s, kind="stable")
    M, s = np.take(M, order, axis=2), s[order]
    M /= np.ldexp(1.0, s)
    b = _PADE13
    M2 = _mul(M, M)
    M4 = _mul(M2, M2)
    M6 = _mul(M4, M2)
    f6, f4, f2 = (x.view(float) for x in (M6, M4, M2))
    tmp = np.empty_like(f2)

    def add(x, *terms):  # x + c p for each (c, p) in turn, summed into x in place
        for c, p in terms:
            x += np.multiply(p, c, out=tmp)
        return x
    U = _mul(M6, add(f6 * b[13], (b[11], f4), (b[9], f2)).view(complex))
    add(U.view(float), (b[7], f6), (b[5], f4), (b[3], f2))
    U.reshape(9, -1)[::4] += b[1]
    U = _mul(M, U)
    V = _mul(M6, add(f6 * b[12], (b[10], f4), (b[8], f2)).view(complex))
    add(V.view(float), (b[6], f6), (b[4], f4), (b[2], f2))
    V.reshape(9, -1)[::4] += b[0]
    q = V - U
    w, x, y, z = (q.reshape(9, -1)[i] for i in _ADJUGATE)
    adj = w * x - y * z
    det = q[0, 0] * adj[0, 0] + q[0, 1] * adj[1, 0] + q[0, 2] * adj[2, 0]
    R = _mul(adj, np.add(V, U, out=V))
    R /= det
    for k in range(int(s.max(initial=0))):
        tail = slice(np.searchsorted(s, k, side="right"), None)
        R[:, :, tail] = _mul(R[:, :, tail], R[:, :, tail])
    return R[:, :, np.argsort(order)].transpose(2, 0, 1).reshape(A.shape)


def _legs(setup: SpectralSetup, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Meshes of the rear and the front leg, each from its start to exactly 0.

    A leg starts where the sampled trajectory ends, or at -L (+L) if that
    comes first: between there and the end of the domain the coefficients
    are the limits, whose march is the identity on the start data.  The
    fourth-order Magnus step errs by h^5 times the variation of the
    coefficients, which is proportional to m = max(|a|, |b|), so the step
    ending at z (its end nearer 0) is step * (a_max / m(z)) ** (1/5): `step`
    at the peak and longer down the tails.  m runs linearly between the
    samples, the peak (0, a_max) among them, and is 0 past them; the last
    step ends at the leg start.  A setup keeps its meshes, read-only, by step.
    """
    if not 0.0 < step < math.inf:
        raise DomainError("marching step must be positive and finite")
    if step in setup._meshes:
        return setup._meshes[step]
    traj, a_max = setup.wave.trajectory, setup.wave.a_max
    at = np.searchsorted(traj.zs, 0.0)
    zs = np.insert(traj.zs, at, 0.0)
    ms = np.insert(np.abs(traj.states[:, :2]).max(axis=1), at, a_max)
    legs = []
    for start in (max(-setup.L, min(setup._z_lo, 0.0)), min(setup.L, max(setup._z_hi, 0.0))):
        mesh = [0.0]
        while abs(mesh[-1]) < abs(start):
            m = float(np.interp(mesh[-1], zs, ms, left=0.0, right=0.0))
            h = step * (a_max / m) ** 0.2 if m > 0.0 else math.inf
            mesh.append(math.copysign(min(abs(mesh[-1]) + h, abs(start)), start))
        legs.append(np.array(mesh[::-1]))
        legs[-1].flags.writeable = False
    return setup._meshes.setdefault(step, tuple(legs))


def _march(
    Y: np.ndarray,
    shift: np.ndarray,
    gammas: np.ndarray,
    setup: SpectralSetup,
    mesh: np.ndarray,
    lift: Callable[[np.ndarray], np.ndarray],
    tally: Counter,
) -> np.ndarray:
    """March the (G, 3) states Y over a leg's mesh with Gauss-point Magnus steps.

    The generator at gamma is lift(M(z, gamma) + w I) - shift; lift is the
    wedge lift on the rear leg and the identity on the front one.  The
    generator is affine in gamma, M0(z) + gamma D, so the Magnus exponent of
    the step of length h_k is P_k + gamma Q_k - shift h_k, with P and Q
    built once for the mesh.  The exponentials are taken a block of steps
    at a time, about _BLOCK matrices per stack, so a few gammas cost a few
    stacked calls, not one per step.
    """
    h = np.diff(mesh)
    if h.size == 0:
        return Y
    p, w = setup.wave.params, setup.w_exp
    nodes = mesh[:-1, None] + h[:, None] * (0.5 - _GAUSS_OFFSET, 0.5 + _GAUSS_OFFSET)
    m1, m2 = np.moveaxis(_weighted_matrix(*setup.coefficient_table(nodes), 0.0, p, w), 1, 0)
    d = _weighted_matrix(0.0, 0.0, 1.0, p, w) - _weighted_matrix(0.0, 0.0, 0.0, p, w)
    hk = h[:, None, None]
    k = math.sqrt(3.0) / 12.0 * hk * hk
    P = lift(0.5 * hk * (m1 + m2) + k * (m2 @ m1 - m1 @ m2))
    Q = lift(hk * d + k * ((m2 - m1) @ d - d @ (m2 - m1)))
    g = gammas[:, None, None, None]
    per = max(1, _BLOCK // max(gammas.size, 1))
    for b in range(0, h.size, per):
        shift_h = (shift[:, None] * h[b:b + per])[:, :, None, None] * np.eye(3)
        props = expm(P[b:b + per] + g * Q[b:b + per] - shift_h)
        tally["stacked"] += 1
        tally["matrices"] += props.shape[0] * props.shape[1]
        for e in np.moveaxis(props, 1, 0):
            Y = np.einsum("gij,gj->gi", e, Y)
    return Y


def _start(g: complex, setup: SpectralSetup) -> tuple:
    """Rear wedge, front vector and their growth shifts (rear, front) at one gamma."""
    p, w = setup.wave.params, setup.w_exp
    nu_minus, nu_plus = limit_rates(g, setup)
    x = eigenvector(setup.wave.i_plus_inf, p.c, p.r, nu_plus[2] - w, g)
    return (0.0, -1.0, -(nu_minus[1] - w)), x, (nu_minus[0] + nu_minus[1], nu_plus[2])


def evans(
    gamma, setup: SpectralSetup, step: float = DEFAULT_STEP, *, tally: Counter | None = None
):
    """Normalized Evans determinant at gamma, one value or an array of them.

    The rear unstable plane starts as the wedge (0, -1, -lambda2), which is
    analytic in gamma everywhere the splitting exists, and marches forward
    to z = 0 with the wedge growth nu1 + nu2 removed; the front stable
    vector marches backward to z = 0 with its decay nu3 removed.  The value
    is the determinant pairing of the two at z = 0.  It differs from the
    raw determinant by exp((nu1 + nu2 - nu3) L), analytic and nonvanishing
    in gamma, which at large |gamma| is far beyond floating-point range;
    the bounded pairing is the useful invariant and is what is returned.
    `step` is the march step at the wave's peak; down the tails the mesh
    grades it longer (see `_legs`), and halving `step` halves the step at
    every z.

    A complex gamma gives a complex value; an array gives an array of its
    shape, all gammas marched together.  A gamma that `limit_rates` or the
    front eigenvector rejects raises the error that a call on it alone
    raises.  Each conjugate pair and each repeated gamma is marched once,
    from the member with Im(gamma) >= 0.  A `tally` given gains the number
    of stacked exponentials (`stacked`), of the matrices in them
    (`matrices`) and of the distinct gammas marched (`gammas`).
    """
    legs = _legs(setup, step)
    gammas = np.asarray(gamma, dtype=complex)
    flat = gammas.reshape(-1)
    lower = flat.imag < 0
    upper, first, inverse = np.unique(np.where(lower, flat.conj(), flat),
                                      return_index=True, return_inverse=True)
    V, X = np.empty((2, upper.size, 3), dtype=complex)
    shifts = np.empty((upper.size, 2), dtype=complex)
    for k in np.argsort(first):
        try:
            V[k], X[k], shifts[k] = _start(complex(upper[k]), setup)
        except (DomainError, SplittingError):
            _start(complex(flat[first[k]]), setup)  # the error of the gamma as given
            raise
    tally = Counter() if tally is None else tally
    tally["gammas"] += upper.size
    V = _march(V, shifts[:, 0], upper, setup, legs[0], _wedge_square, tally)
    X = _march(X, shifts[:, 1], upper, setup, legs[1], lambda m: m, tally)
    values = (V[:, 0] * X[:, 2] - V[:, 1] * X[:, 1] + V[:, 2] * X[:, 0])[inverse]
    values = np.where(lower, values.conj(), values)
    return complex(values[0]) if gammas.ndim == 0 else values.reshape(gammas.shape)


def contour_of_S(
    r_min: float = CONTOUR[0], r_max: float = CONTOUR[1], base_n: int = CONTOUR[2]
) -> np.ndarray:
    """Closed positively oriented boundary of the right-half annulus S.

    S = {Re(gamma) >= 0, r_min <= |gamma| <= r_max}.  The polyline starts at
    -i * r_max, runs the outer arc counterclockwise through +r_max to
    +i * r_max, descends the imaginary axis to +i * r_min with
    logarithmically spaced moduli, runs the inner arc clockwise through
    +r_min to -i * r_min, and returns to the start; the last point repeats
    the first.  The arcs take angles antisymmetric about 0 and the two legs
    one set of moduli, so the points other than the last are closed under
    conjugation exactly and `evans` marches only the upper half of them.
    """
    if not 0.0 < r_min < r_max < math.inf:
        raise DomainError("need 0 < r_min < r_max < inf")
    if base_n < 16:
        raise DomainError("base_n below 16 cannot resolve the contour")
    if base_n > MAX_CONTOUR_N:
        raise DomainError(f"base_n is capped at {MAX_CONTOUR_N}, got {base_n}")
    n_arc = int(base_n)
    n_seg = max(int(base_n) // 2, 8)
    n_inner = max(int(base_n) // 4, 8)

    theta = np.linspace(-math.pi / 2.0, math.pi / 2.0, n_arc + 1)
    outer = r_max * np.exp(0.5j * (theta - theta[::-1]))
    outer[0] = complex(0.0, -r_max)
    outer[-1] = complex(0.0, r_max)
    moduli = np.logspace(math.log10(r_max), math.log10(r_min), n_seg + 1)
    theta_in = np.linspace(math.pi / 2.0, -math.pi / 2.0, n_inner + 1)
    inner = r_min * np.exp(0.5j * (theta_in - theta_in[::-1]))[1:]
    inner[-1] = -1j * moduli[-1]

    pts = np.concatenate([outer, 1j * moduli[1:], inner, -1j * moduli[-2::-1]])
    pts[-1] = pts[0]
    return pts


class Winding(NamedTuple):
    """One contour sweep: winding number, largest argument step, `gammas` and
    `values` of every evaluation in call order (contour points, then bisection
    midpoints) and `diagnostics` (None unless from `evans_winding`)."""

    winding: int
    max_arg_step: float
    gammas: np.ndarray
    values: np.ndarray
    diagnostics: dict | None


def _evaluate(fn: Callable, gammas: np.ndarray, seen: list) -> list[tuple[complex, complex]]:
    """fn at gammas as (gamma, value) samples, rejected unless finite; the arrays go to seen."""
    values = np.asarray(fn(gammas), dtype=complex)
    if values.shape != gammas.shape:
        raise DomainError("fn must give one value per contour point")
    bad = ~(np.isfinite(gammas) & np.isfinite(values))
    if bad.any():
        raise DomainError(f"non-finite Evans sample at gamma = {complex(gammas[bad][0])}")
    seen.append((gammas, values))
    return [(complex(g), complex(v)) for g, v in zip(gammas, values)]


def _arg_sweep(
    fn: Callable[[np.ndarray], np.ndarray],
    s0: tuple[complex, complex],
    s1: tuple[complex, complex],
    depth: int,
    seen: list,
) -> tuple[float, float]:
    (g0, v0), (g1, v1) = s0, s1
    if v0 == 0 or v1 == 0:
        raise ContourResolutionError(
            f"vanishing value on the contour near gamma = {g0}"
        )
    delta = cmath.phase(v1 / v0)
    if abs(delta) <= _ARG_CAP:
        return delta, abs(delta)
    if depth >= _MAX_REFINE:
        raise ContourResolutionError(
            f"argument step {delta:.3f} rad between gamma = {g0} and "
            f"{g1} still unresolved after {_MAX_REFINE} bisections"
        )
    (s_mid,) = _evaluate(fn, np.array([0.5 * (g0 + g1)]), seen)
    d0, m0 = _arg_sweep(fn, s0, s_mid, depth + 1, seen)
    d1, m1 = _arg_sweep(fn, s_mid, s1, depth + 1, seen)
    return d0 + d1, max(m0, m1)


def winding_number(
    fn: Callable[[np.ndarray], np.ndarray], contour: Sequence[complex]
) -> Winding:
    """Winding of the values of fn along a closed contour.

    fn maps an array of gammas to the array of its values, typically
    `lambda g: evans(g, setup)`; the synthetic self-test winds the identity
    map.  The contour points go to fn in one call.  Steps above pi/3 are
    bisected recursively, each chord midpoint going to fn as an array of
    one, up to 12 levels.  A non-finite gamma or value raises DomainError,
    and a sweep whose accumulated argument misses an integer number of
    turns by CLOSURE_TOL or more is reported as a resolution failure rather than
    rounded over.  Returns a `Winding` without diagnostics.
    """
    pts = np.asarray(contour, dtype=complex)
    if pts.ndim != 1 or pts.size < 4:
        raise DomainError("contour must be a closed polyline of points")
    if pts[0] != pts[-1]:
        raise DomainError("contour must close: last point repeats the first")

    seen: list[tuple[np.ndarray, np.ndarray]] = []
    samples = _evaluate(fn, pts[:-1], seen)
    total = 0.0
    max_step = 0.0
    for s0, s1 in zip(samples, samples[1:] + samples[:1]):
        delta, largest = _arg_sweep(fn, s0, s1, 0, seen)
        total += delta
        max_step = max(max_step, largest)

    turns = total / (2.0 * math.pi)
    nearest = round(turns)
    if abs(turns - nearest) >= CLOSURE_TOL:
        raise ContourResolutionError(
            f"accumulated argument is {turns:.4f} turns, not close to an "
            "integer"
        )
    gammas, values = (np.concatenate(part) for part in zip(*seen))
    return Winding(int(nearest), max_step, gammas, values, None)


def evans_winding(setup: SpectralSetup, contour: Sequence[complex]) -> Winding:
    """Winding of `evans` along a closed contour, checked by step halving.

    The contour goes to `evans` as one batch and each bisection midpoint as
    a batch of one (see `winding_number`).  Then at most four contour
    points, the extreme moduli and the two ends of the largest argument
    step, are recomputed as one batch at DEFAULT_STEP / 2; a relative
    change above 0.1 in any of them raises ContourResolutionError.

    The `Winding` comes back with `diagnostics`: the number of
    `evaluations`, the `halving_probes`, the stacked exponentials of both,
    the matrices in them and the distinct gammas marched (`propagators`),
    the `steps` of the rear and the front mesh at DEFAULT_STEP, the
    `bisections`, `min_abs_E` over the values and the worst relative
    change under step halving (`halving_rel_diff`).
    """
    tally: Counter = Counter()
    sweep = winding_number(lambda g: evans(g, setup, tally=tally), contour)

    n = len(contour) - 1
    gammas, values = sweep.gammas[:n], sweep.values[:n]
    turn = np.abs(np.angle(np.roll(values, -1) / values))
    k = int(np.argmax(turn))
    moduli = np.abs(gammas)
    probe = sorted({int(np.argmin(moduli)), int(np.argmax(moduli)), k, (k + 1) % n})
    fine = evans(gammas[probe], setup, DEFAULT_STEP / 2.0, tally=tally)
    rel = np.abs(fine - values[probe]) / np.abs(fine)
    worst = int(np.argmax(rel))
    if not rel[worst] <= _HALVING_TOL:
        raise ContourResolutionError(
            f"halving the march step {DEFAULT_STEP:g} moves the Evans value at "
            f"gamma = {complex(gammas[probe[worst]])} by {rel[worst]:.3g} "
            f"(relative), more than {_HALVING_TOL:g}"
        )

    return sweep._replace(diagnostics={
        "evaluations": sweep.gammas.size,
        "halving_probes": len(probe),
        "propagators": {k: tally[k] for k in ("stacked", "matrices", "gammas")},
        "steps": dict(zip(("rear", "front"), (m.size - 1 for m in _legs(setup, DEFAULT_STEP)))),
        "bisections": sweep.gammas.size - n,
        "min_abs_E": float(np.abs(sweep.values).min()),
        "halving_rel_diff": float(rel[worst]),
    })
