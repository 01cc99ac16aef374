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
where adaptive steppers stall on the fast phase rotation.  Omega is affine
in gamma, P + gamma Q, and a setup keeps each leg's P and Q by step.  The
local error is h^5 times the variation of the coefficients, which falls with
the wave down the tails, so each leg runs on a mesh graded by the wave's own
decay: the step is `step` where max(|a|, |b|) peaks and grows as that
maximum to the power -1/5, which keeps fourth order with far fewer steps.
One `evans` call marches a whole array of gammas together, `_BLOCK` of them
at a time; the exponentials of a block of steps for those are one (3, 3, n)
stack of at most `_BLOCK` matrices, the layout of P and Q, never the whole
(gamma, step) field.  `expm` is Pade-13 scaling and squaring (Higham, SIAM
J. Matrix Anal. Appl. 26, 2005), the Pade sums in place in kept stacks.
The wave is real, so E(conj gamma) = conj E(gamma) (Sandstede, Handbook of
Dynamical Systems II, 2002): `evans` marches each conjugate pair once, and
`contour_of_S` mirrors its points exactly, so a sweep marches half of them.
Beyond the sampled trajectory the coefficients are the far-field limits,
of which the start data are exact eigenvectors once the growth is removed,
so the march there is the identity: each leg starts where the trajectory
ends and runs to z = 0.

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
# matrices per stacked exponential and gammas per march: each expm call has a fixed
# cost, and `_stacks` keeps eight stacks this size.  A default `evans` op on a 2-vCPU
# Xeon (8 alternated rounds of 15, one CPU) took 40.5 ms at 1024, 38.5 at 2048, 38.9 at
# 4096, at 34.3, 35.6, 37.9 MB peak RSS (42.2 ms, 34.4 MB with stacks allocated per
# call at 1024): 2048 halves the calls for 1.2 MB
_BLOCK = 2048
_KEPT: list[np.ndarray] = []  # the flat buffers behind `_stacks`
_RE_MARGIN = 1e-10
# a contour has about 2.25 base_n points, marched _BLOCK gammas at a time: 22,501
# take about 1.4 s and 44 MB peak RSS on a 2-vCPU host, while 10**9 would allocate
# tens of GB of contour and values before the first value
MAX_CONTOUR_N = 10**4
# r_min, r_max, base_n of the default contour: `evans --contour`, `evans-winding`
CONTOUR = (1e-3, 1000.0, 200)


@dataclass
class SpectralSetup:
    """Context for weighted-linearization evaluations about one wave.

    Profile coefficients a(z) and i(z) come from `_spline`, the cubic Hermite
    interpolant of the wave samples with the wave ODE's own slopes (error
    h^4/384 max|y''''| for samples h apart).  The march reads it only inside
    the sampled range, since each leg starts at one end of it (`_legs`).
    """

    wave: WaveProfile
    w_exp: float

    def __post_init__(self) -> None:
        if not 0.0 < self.w_exp < math.inf:
            raise DomainError("exponential weight must be positive and finite")
        traj = self.wave.trajectory
        self._legs_by_step: dict[float, tuple[tuple[np.ndarray, ...], ...]] = {}
        slopes = np.stack(wave_rhs(traj.states.T, self.wave.params), axis=-1)
        self._spline = partial(_hermite, traj.zs, traj.states, slopes)


def _hermite(zs: np.ndarray, ys: np.ndarray, slopes: np.ndarray, z) -> np.ndarray:
    """Cubic Hermite interpolant of (ys, slopes) at knots zs, at z: z.shape + ys.shape[1:]."""
    z = np.asarray(z, dtype=float)
    k = np.clip(np.searchsorted(zs, z, side="right") - 1, 0, zs.size - 2)
    h = (zs[k + 1] - zs[k])[..., None]
    t = (z - zs[k])[..., None] / h
    u = 1.0 - t
    return (u * u * ((1.0 + 2.0 * t) * ys[k] + t * h * slopes[k])
            + t * t * ((3.0 - 2.0 * t) * ys[k + 1] - u * h * slopes[k + 1]))


def make_setup(wave: WaveProfile, w_exp: float | None = None) -> SpectralSetup:
    """Build the SpectralSetup about a wave; the default weight is c/2,
    centered in the admissible band."""
    if w_exp is None:
        w_exp = wave.params.c / 2.0
    return SpectralSetup(wave=wave, w_exp=float(w_exp))


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


def limit_rates(gamma, setup: SpectralSetup):
    """Shifted far-field eigenvalues (nu_minus, nu_plus) at z = -inf, +inf.

    Each triple is `fixed_point_spectrum` at that limit, ordered (i-mode,
    growing root, decaying root), in Python numbers at one gamma, in arrays
    at an array.  Raises DomainError at a non-finite gamma, off Re(gamma) >= 0
    or at gamma = 0, and SplittingError unless both sides split into two
    unstable and one stable direction, each real part at least 1e-10 from
    zero.  Over an array, the first gamma rejected in the order given raises
    the error it raises alone.
    """
    g = np.asarray(gamma, dtype=complex)
    limits = np.array([setup.wave.i_minus_inf, setup.wave.i_plus_inf]).reshape((2,) + (1,) * g.ndim)
    mode, grow, decay = fixed_point_spectrum(limits, setup.wave.params.c, g, setup.w_exp)
    rates = ((mode, grow[0], decay[0]), (mode, grow[1], decay[1]))
    # the checks below pass where each real part clears the margin with signs (+, +, -)
    passed = (np.isfinite(g) & (g.real >= -1e-12) & (g != 0) & (mode.real >= _RE_MARGIN)
              & (grow.real >= _RE_MARGIN) & (decay.real <= -_RE_MARGIN))
    if not passed.all():
        k = int(np.argmin(passed.all(axis=0)))  # the first gamma rejected, in flat order
        g, nus = complex(g.flat[k]), [complex(nu.flat[k]) for side in rates for nu in side]
        if not cmath.isfinite(g):
            raise DomainError(f"gamma must be finite, got {g}")
        if g.real < -1e-12:
            raise DomainError("spectral probe is defined for Re(gamma) >= 0")
        if g == 0:
            raise DomainError("gamma = 0 sits on the essential-spectrum boundary")
        for nu in nus:
            if abs(nu.real) < _RE_MARGIN:
                raise SplittingError(f"shifted limit eigenvalue {nu} sits on the splitting "
                                     f"boundary at gamma = {g}")
        side = "rear" if [nu.real > 0 for nu in nus[:3]] != [True, True, False] else "front"
        raise SplittingError(f"{side} splitting is not two unstable / one stable at gamma = {g}")
    return rates if g.ndim else tuple(tuple(complex(nu) for nu in side) for side in rates)


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


def _mul(x: np.ndarray, y: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Products of 3x3 matrices laid out (3, 3, G), one per last index, by broadcasting,
    into `out` with `tmp` as scratch."""
    np.multiply(x[:, 0, None], y[0], out=out)
    out += np.multiply(x[:, 1, None], y[1], out=tmp)
    out += np.multiply(x[:, 2, None], y[2], out=tmp)
    return out


def _stacks(n: int) -> list[np.ndarray]:
    """Eight (3, 3, n <= _BLOCK) stacks, expm's seven and the march's, in buffers kept."""
    if not _KEPT or _KEPT[0].size != 9 * _BLOCK:
        _KEPT[:] = [np.empty(9 * _BLOCK, dtype=complex) for _ in range(8)]
    return [x[:9 * n].reshape(3, 3, n) for x in _KEPT]


def expm(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exponential of each matrix X[:, :, k] of a (3, 3, n) stack, into `out` (X itself allowed).

    Pade-13 scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26,
    2005), each step one vector operation; sorted by the least s with
    ||X||_1 / 2^s <= theta_13, the stack squares a shrinking tail slice.  The
    Pade sums run in place, real coefficients on float views and the identity
    terms on the diagonal alone.  The adjugate inverts the denominator, well
    conditioned once scaled.  From the sorted copy of X on, every step writes
    into seven stacks kept across calls (`_stacks`): no stack-sized array is
    allocated or transposed per call, and calls must not overlap (threads).
    At most _BLOCK matrices, the most a march builds, come in (ValueError
    past that); a matrix with a non-finite entry gives a non-finite result.
    """
    X = np.asarray(X, dtype=complex)
    if X.shape[2] > _BLOCK:
        raise ValueError(f"expm takes at most _BLOCK = {_BLOCK} matrices, got {X.shape[2]}")
    out = np.empty_like(X) if out is None else out
    M, M2, M4, M6, U, S, T = _stacks(X.shape[2])[:7]
    norm = np.abs(X, out=T.real).sum(axis=0).max(axis=0)
    s = np.zeros(norm.shape, dtype=int)
    big = np.isfinite(norm) & (norm > _THETA13)
    s[big] = np.ceil(np.log2(norm[big] / _THETA13))
    order = np.argsort(s, kind="stable")
    M, s = np.take(X, order, axis=2, out=M, mode="clip"), s[order]
    M /= np.ldexp(1.0, s)
    b = _PADE13
    _mul(M, M, M2, T)
    _mul(M2, M2, M4, T)
    _mul(M4, M2, M6, T)
    f6, f4, f2, tmp = (x.view(float) for x in (M6, M4, M2, T))

    def add(x, *terms):  # x + c p for each (c, p) in turn, summed into x in place
        for c, p in terms:
            x += np.multiply(p, c, out=tmp)
        return x
    # U: the inner sum in U, M6 times it in S, M times that in U
    add(np.multiply(f6, b[13], out=U.view(float)), (b[11], f4), (b[9], f2))
    add(_mul(M6, U, S, T).view(float), (b[7], f6), (b[5], f4), (b[3], f2))
    S.reshape(9, -1)[::4] += b[1]
    _mul(M, S, U, T)
    # V: the inner sum in S, M6 times it in M, which is spent
    add(np.multiply(f6, b[12], out=S.view(float)), (b[10], f4), (b[8], f2))
    V = _mul(M6, S, M, T)
    add(V.view(float), (b[6], f6), (b[4], f4), (b[2], f2))
    V.reshape(9, -1)[::4] += b[0]
    q = np.subtract(V, U, out=M2).reshape(9, -1)
    # the four operands in spent buffers; "clip" skips take's copy for `out`
    w, x, y, z = (np.take(q, i, axis=0, out=o, mode="clip") for i, o in zip(_ADJUGATE, (M4, M6, S, T)))
    adj = np.multiply(w, x, out=M4)
    adj -= np.multiply(y, z, out=M6)
    det = q[0] * adj[0, 0] + q[1] * adj[1, 0] + q[2] * adj[2, 0]
    R = _mul(adj, np.add(V, U, out=V), U, T)
    R /= det
    for tail in np.searchsorted(s, np.arange(s.max(initial=0)), side="right"):
        # into the heads of S and T: a product into strided slices takes about 1.75x as long
        R[:, :, tail:] = _mul(R[:, :, tail:], R[:, :, tail:], *_stacks(s.size - tail)[5:7])
    back = np.argsort(order, kind="stable")  # a gather by it takes a quarter of a scatter's time
    return np.take(R, back, axis=2, out=out, mode="clip")


def _magnus(setup: SpectralSetup, mesh: np.ndarray, wedge: bool) -> tuple[np.ndarray, ...]:
    """The read-only leg record (mesh, P, Q) of `_march`: M(z, gamma) + w I = M0(z) + gamma D,
    so the Magnus exponent of step k is P_k + gamma Q_k, from the coefficients at its two
    Gauss points; `wedge` lifts both to the second exterior power (the rear leg)."""
    p, w = setup.wave.params, setup.w_exp
    h = np.diff(mesh)
    nodes = mesh[:-1, None] + h[:, None] * (0.5 - _GAUSS_OFFSET, 0.5 + _GAUSS_OFFSET)
    table = setup._spline(nodes)
    m1, m2 = np.moveaxis(_weighted_matrix(table[..., 0], table[..., 2], 0.0, p, w), 1, 0)
    d = np.subtract(*_weighted_matrix(0.0, 0.0, np.array([1.0, 0.0]), p, w))
    hk = h[:, None, None]
    k = math.sqrt(3.0) / 12.0 * hk * hk
    P = 0.5 * hk * (m1 + m2) + k * (m2 @ m1 - m1 @ m2)
    Q = hk * d + k * ((m2 - m1) @ d - d @ (m2 - m1))
    if wedge:
        P, Q = _wedge_square(P), _wedge_square(Q)
    P, Q = (np.ascontiguousarray(x.transpose(1, 2, 0)) for x in (P, Q))
    for part in (mesh, P, Q):
        part.flags.writeable = False
    return mesh, P, Q


def _legs(setup: SpectralSetup, step: float) -> tuple[tuple[np.ndarray, ...], ...]:
    """The rear and the front leg record (`_magnus`), each mesh from its start to exactly 0.

    A leg starts where the sampled trajectory ends (or at 0 if the trajectory
    does not reach past it): beyond there the coefficients are the limits,
    whose march is the identity on the start data, so the march reads the
    interpolant inside it alone.  The fourth-order Magnus step errs by h^5
    times the variation of the coefficients, which is proportional to
    m = max(|a|, |b|), so the step ending at z (its end nearer 0) is
    step * (a_max / m(z)) ** (1/5): `step` at the peak and longer down the
    tails.  m runs linearly between the samples, the peak (0, a_max) among
    them; the last step ends at the leg start.  A setup keeps its legs by step.
    """
    if not 0.0 < step < math.inf:
        raise DomainError("marching step must be positive and finite")
    if step in setup._legs_by_step:
        return setup._legs_by_step[step]
    traj, a_max = setup.wave.trajectory, setup.wave.a_max
    at = np.searchsorted(traj.zs, 0.0)
    zs = np.insert(traj.zs, at, 0.0)
    ms = np.insert(np.abs(traj.states[:, :2]).max(axis=1), at, a_max)
    legs = []
    for start, wedge in ((min(traj.zs[0], 0.0), True), (max(traj.zs[-1], 0.0), False)):
        mesh = [0.0]
        while abs(mesh[-1]) < abs(start):
            m = float(np.interp(mesh[-1], zs, ms))
            h = step * (a_max / m) ** 0.2 if m > 0.0 else math.inf
            mesh.append(math.copysign(min(abs(mesh[-1]) + h, abs(start)), start))
        legs.append(_magnus(setup, np.array(mesh[::-1]), wedge))
    return setup._legs_by_step.setdefault(step, tuple(legs))


def _march(Y: np.ndarray, shift: np.ndarray, gammas: np.ndarray,
           leg: tuple[np.ndarray, ...], tally: Counter) -> np.ndarray:
    """March the (3, G) states Y over a leg record (mesh, P, Q) of `_magnus`.

    The exponent of the step of length h_k at gamma is P_k + gamma Q_k -
    shift h_k.  At most _BLOCK gammas come in (`evans` cuts more into chunks),
    and a block of steps at a time, at most _BLOCK matrices, is built and
    exponentiated in place in one kept (3, 3, steps, G) stack, so a few gammas
    cost a few stacked calls, not one per step.
    """
    mesh, P, Q = leg
    h = np.diff(mesh)
    per = _BLOCK // gammas.size
    for b in range(0, h.size, per):
        steps = slice(b, b + per)
        X = _stacks(h[steps].size * gammas.size)[7]
        E = X.reshape(3, 3, -1, gammas.size)  # the same stack by (step, gamma)
        np.multiply(gammas, Q[:, :, steps, None], out=E)
        E += P[:, :, steps, None]
        E.reshape(9, -1, gammas.size)[::4] -= shift * h[steps, None]
        expm(X, out=X)
        tally.update(stacked=1, matrices=X.shape[2])
        tally["largest_stack"] = max(tally["largest_stack"], X.shape[2])
        for e in np.moveaxis(E, 2, 0):
            Y = np.einsum("ijg,jg->ig", e, Y)
    return Y


def evans(
    gamma, setup: SpectralSetup, step: float = DEFAULT_STEP, *, tally: Counter | None = None
):
    """Normalized Evans determinant at gamma, one value or an array of them.

    The rear unstable plane starts as the wedge (0, -1, -lambda2), which is
    analytic in gamma everywhere the splitting exists, and marches forward
    to z = 0 with the wedge growth nu1 + nu2 removed; the front stable
    vector marches backward to z = 0 with its decay nu3 removed.  The value
    is the determinant pairing of the two at z = 0.  On a domain [-l, l]
    the raw determinant is this pairing times exp((nu1 + nu2 - nu3) l),
    analytic and nonvanishing in gamma, which at large |gamma| is far beyond
    floating-point range; the bounded pairing is the useful invariant and
    is what is returned, the same for every domain that holds the sampled
    trajectory.
    `step` is the march step at the wave's peak; down the tails the mesh
    grades it longer (see `_legs`), and halving `step` halves the step at
    every z.

    A complex gamma gives a complex value; an array gives an array of its
    shape, all gammas marched together.  The first gamma in the order given
    that `limit_rates`, then the front eigenvector, rejects raises the error
    of a call on it alone.  Each conjugate pair and each repeated gamma is
    marched once, from the member with Im(gamma) >= 0.  A `tally` given gains the number
    of stacked exponentials (`stacked`), of the matrices in them
    (`matrices`) and of the distinct gammas marched (`gammas`), and keeps
    the most matrices one stack held (`largest_stack`).
    """
    legs = _legs(setup, step)
    gammas = np.asarray(gamma, dtype=complex)
    flat = gammas.reshape(-1)
    wave, w = setup.wave, setup.w_exp
    nu_minus, nu_plus = limit_rates(flat, setup)
    x3 = eigenvector(wave.i_plus_inf, wave.params.c, wave.params.r, nu_plus[2] - w, flat)[2]
    lower = flat.imag < 0
    upper, first, inverse = np.unique(np.where(lower, flat.conj(), flat),
                                      return_index=True, return_inverse=True)
    # conjugating the far field is exact, so these are the rates at upper to the bit
    start = np.array([nu_minus[0] + nu_minus[1], -(nu_minus[1] - w), nu_plus[2], x3])[:, first]
    growth, neg_lam2, nu3, x3 = np.conjugate(start, out=start, where=lower[first])
    V = np.array([np.zeros_like(neg_lam2), np.full_like(neg_lam2, -1.0), neg_lam2])
    X = np.array([np.ones_like(x3), nu3 - w, x3])
    tally = Counter() if tally is None else tally
    tally["gammas"] += upper.size
    for lo in range(0, upper.size, _BLOCK):
        part = slice(lo, lo + _BLOCK)
        V[:, part] = _march(V[:, part], growth[part], upper[part], legs[0], tally)
        X[:, part] = _march(X[:, part], nu3[part], upper[part], legs[1], tally)
    values = (V[0] * X[2] - V[1] * X[1] + V[2] * X[0])[inverse]
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
    """fn at gammas as (gamma, value) samples; the arrays go to seen. A non-finite gamma
    raises DomainError, a non-finite value ContourResolutionError."""
    values = np.asarray(fn(gammas), dtype=complex)
    if values.shape != gammas.shape:
        raise DomainError("fn must give one value per contour point")
    for bad, error in ((~np.isfinite(gammas), DomainError),
                       (~np.isfinite(values), ContourResolutionError)):
        if bad.any():
            raise error(f"non-finite Evans sample at gamma = {complex(gammas[bad][0])}")
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
    one, up to 12 levels.  A non-finite gamma raises DomainError; a non-finite
    value, like a vanishing one, and a sweep whose accumulated argument misses
    a whole number of turns by CLOSURE_TOL or more raise ContourResolutionError
    rather than being rounded over.  Returns a `Winding` without diagnostics.
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
    the matrices in them, the distinct gammas marched and the largest
    stack (`propagators`), the `steps` of the rear and the front mesh at
    DEFAULT_STEP, the z and max(|a|, |b|) where each leg starts
    (`leg_starts`), the `bisections`, `min_abs_E` over the values and the worst relative
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

    legs = [mesh for mesh, _, _ in _legs(setup, DEFAULT_STEP)]
    return sweep._replace(diagnostics={
        "evaluations": sweep.gammas.size,
        "halving_probes": len(probe),
        "propagators": {k: tally[k] for k in ("stacked", "matrices", "gammas", "largest_stack")},
        "steps": dict(zip(("rear", "front"), (m.size - 1 for m in legs))),
        "leg_starts": {side: {"z": float(m[0]), "max_ab": float(np.abs(setup._spline(m[0])[:2]).max())}
                       for side, m in zip(("rear", "front"), legs)},
        "bisections": sweep.gammas.size - n,
        "min_abs_E": float(np.abs(sweep.values).min()),
        "halving_rel_diff": float(rel[worst]),
    })
