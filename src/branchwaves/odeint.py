"""Adaptive Dormand–Prince integration of the wave state with the shooting events.

One unrolled DP5(4) loop (Dormand & Prince 1980) on the float triple
(a, b, i) with the step control of scipy's `RK45`: its tableau with
first-same-as-last stages, RMS error norm, safety 0.9, step factors in
[0.2, 10] (at most 1 after a rejection), initial-step rule and underflow
test. It runs forward from z = 0 with steps set by the tolerance alone,
cuts each step longer than SAMPLE_DZ into ceil(h / SAMPLE_DZ) equal parts
read off its quartic dense output, and computes the three shooting events
on every sample as plain arithmetic; a falling crossing between two
samples is refined on that same interpolant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, NonConvergenceError

__all__ = ["Trajectory", "integrate"]

REL_TOL = 1e-9
ABS_TOL = 1e-12
SAMPLE_DZ = 0.1
MAX_STEPS = 1_000_000
EVENT_ZTOL = 1e-10
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0

# scipy's RK45 tableau; the zero weights B2 and E2 are left out
C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
A21, A31, A32, A41, A42, A43 = 1 / 5, 3 / 40, 9 / 40, 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40
# quartic dense output (scipy's RK45.P): x weighs the first stage alone, Dsj stage s on x^j
D12, D13, D14 = -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432
D32, D33, D34 = 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799
D42, D43, D44 = -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072
D52, D53, D54 = (127303824393 / 49829197408, -318862633887 / 49829197408,
                 701980252875 / 199316789632)
D62, D63, D64 = -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844
D72, D73, D74 = 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423

# `EventRecord` indices of the falling crossings `integrate` watches, given
# stops = (neg_tol, stop_tol): b through 0 (a maximum of a), a + neg_tol through 0
# and max(|a|, |b|) - stop_tol through 0; the last two are terminal
EV_MAX, EV_NEG, EV_STOP = 0, 1, 2


class EventRecord(NamedTuple):
    index: int
    z: float
    state: np.ndarray


@dataclass
class Trajectory:
    """Sampled abscissae (strictly increasing) and states, plus refined event hits.

    `diagnostics` holds the counts of the `integrate` run that made it
    (empty otherwise): accepted and rejected steps, right-hand-side
    evaluations, crossings refined on the dense output, and the samples
    kept from inside steps (len - 1 = accepted_steps + dense_samples).
    """

    zs: np.ndarray
    states: np.ndarray
    events: list[EventRecord] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.zs = np.asarray(self.zs, dtype=float)
        if len(self.zs) != len(self.states):
            raise ValueError(
                f"zs has {len(self.zs)} entries but states has {len(self.states)}"
            )
        if not np.all(np.diff(self.zs) > 0):
            raise ValueError("zs must be strictly increasing")

    def __len__(self):
        return len(self.zs)


def _rms(xa, xb, xi) -> float:
    return math.sqrt(xa * xa + xb * xb + xi * xi) / 3 ** 0.5


def _initial_step(rhs, y, f, z_end) -> float:
    """scipy's `select_initial_step` for a fifth-order pair with a fourth-order error."""
    sa, sb, si = (ABS_TOL + abs(v) * REL_TOL for v in y)
    d0 = _rms(y[0] / sa, y[1] / sb, y[2] / si)
    d1 = _rms(f[0] / sa, f[1] / sb, f[2] / si)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, z_end)
    f1 = rhs(h0, tuple(v + h0 * fv for v, fv in zip(y, f)))
    d2 = _rms((f1[0] - f[0]) / sa, (f1[1] - f[1]) / sb, (f1[2] - f[2]) / si) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:  # a zero or NaN maximum bounds nothing, as numpy's inf or nan does in scipy
        h1 = (0.01 / max(d1, d2)) ** 0.2 if max(d1, d2) > 0.0 else math.inf
    return min(100 * h0, h1, z_end)


def _quartic(h, y, f, k3, k4, k5, k6, k7):
    """One component's Horner coefficients of its step's quartic dense output:
    y(z + x h) = y + x (q1 + x (q2 + x (q3 + x q4)))."""
    return (y, h * f,
            h * (D12 * f + D32 * k3 + D42 * k4 + D52 * k5 + D62 * k6 + D72 * k7),
            h * (D13 * f + D33 * k3 + D43 * k4 + D53 * k5 + D63 * k6 + D73 * k7),
            h * (D14 * f + D34 * k3 + D44 * k4 + D54 * k5 + D64 * k6 + D74 * k7))


def _at(coeffs, x):
    """The dense output at the fraction x of its step, from the `_quartic` of each component."""
    (ya, a1, a2, a3, a4), (yb, b1, b2, b3, b4), (yi, i1, i2, i3, i4) = coeffs
    return (ya + x * (a1 + x * (a2 + x * (a3 + x * a4))),
            yb + x * (b1 + x * (b2 + x * (b3 + x * b4))),
            yi + x * (i1 + x * (i2 + x * (i3 + x * i4))))


def _refine(g, lo, g_lo, hi, g_hi) -> float:
    """Root of g in [lo, hi], given g_lo > 0 >= g_hi: bisection down to EVENT_ZTOL,
    then the secant of the final bracket."""
    while hi - lo > EVENT_ZTOL:
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid > 0.0:
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    return hi - g_hi * (hi - lo) / (g_hi - g_lo)


def _events(y, neg_tol, stop_tol):
    """The three event values at state y, indexed EV_MAX, EV_NEG, EV_STOP."""
    return y[1], y[0] + neg_tol, max(abs(y[0]), abs(y[1])) - stop_tol


def integrate(
    rhs: Callable, y0, z_end: float, stops: tuple[float, float] | None = None
) -> Trajectory:
    """Integrate ``y' = rhs(z, y)`` forward over [0, z_end], sampled at most SAMPLE_DZ apart.

    The state is the wave triple (a, b, i): ``rhs`` receives it as a tuple
    of floats and returns three numbers. States come back as an (N, 3)
    float array. With ``stops = (neg_tol, stop_tol)`` every sample is
    checked for the falling crossings of `_events`: b through 0 is
    recorded (EV_MAX), and a + neg_tol (EV_NEG) or max(|a|, |b|) - stop_tol
    (EV_STOP) through 0 ends the run at the refined abscissa; ``None``
    watches nothing. Raises :class:`~branchwaves.errors.NonConvergenceError`
    (carrying the partial trajectory) on step underflow or when
    ``MAX_STEPS`` accepted steps are exhausted before reaching ``z_end``.
    """
    if not z_end > 0.0:
        raise DomainError(f"z_end must be positive, got {z_end}")
    if len(y0) != 3:
        raise DomainError(f"y0 must hold the three components (a, b, i), got {len(y0)}")
    watch = stops is not None
    neg_tol, stop_tol = stops if watch else (0.0, 0.0)
    rtol, atol, sample_dz, max_steps = REL_TOL, ABS_TOL, SAMPLE_DZ, MAX_STEPS
    z = 0.0
    a, b, i = (float(v) for v in y0)
    fa, fb, fi = rhs(z, (a, b, i))
    h_abs = _initial_step(rhs, (a, b, i), (fa, fb, fi), z_end)
    zs, ys, hits = [z], [a, b, i], []  # ys flat, three floats per sample
    p0, p1, p2 = _events((a, b, i), neg_tol, stop_tol)
    accepted = rejected = refined = dense_samples = 0
    n_rhs = 2

    def partial() -> Trajectory:
        return Trajectory(np.array(zs), np.array(ys).reshape(-1, 3), hits, {
            "accepted_steps": accepted, "rejected_steps": rejected,
            "rhs_evaluations": n_rhs, "refined_events": refined, "dense_samples": dense_samples})

    while z < z_end:
        if accepted >= max_steps:
            raise NonConvergenceError(f"no convergence within {max_steps} steps", partial())
        min_step = 10.0 * (math.nextafter(z, math.inf) - z)
        h_abs = max(h_abs, min_step)
        retried = False
        while True:
            if h_abs < min_step:
                raise NonConvergenceError("step size underflow", partial())
            z_new = min(z + h_abs, z_end)
            h = h_abs = z_new - z
            n_rhs += 6
            k2a, k2b, k2i = rhs(z + C2 * h, (a + h * (A21 * fa), b + h * (A21 * fb),
                                             i + h * (A21 * fi)))
            k3a, k3b, k3i = rhs(z + C3 * h, (a + h * (A31 * fa + A32 * k2a),
                                             b + h * (A31 * fb + A32 * k2b),
                                             i + h * (A31 * fi + A32 * k2i)))
            k4a, k4b, k4i = rhs(z + C4 * h, (a + h * (A41 * fa + A42 * k2a + A43 * k3a),
                                             b + h * (A41 * fb + A42 * k2b + A43 * k3b),
                                             i + h * (A41 * fi + A42 * k2i + A43 * k3i)))
            k5a, k5b, k5i = rhs(z + C5 * h, (
                a + h * (A51 * fa + A52 * k2a + A53 * k3a + A54 * k4a),
                b + h * (A51 * fb + A52 * k2b + A53 * k3b + A54 * k4b),
                i + h * (A51 * fi + A52 * k2i + A53 * k3i + A54 * k4i)))
            k6a, k6b, k6i = rhs(z + h, (
                a + h * (A61 * fa + A62 * k2a + A63 * k3a + A64 * k4a + A65 * k5a),
                b + h * (A61 * fb + A62 * k2b + A63 * k3b + A64 * k4b + A65 * k5b),
                i + h * (A61 * fi + A62 * k2i + A63 * k3i + A64 * k4i + A65 * k5i)))
            na = a + h * (B1 * fa + B3 * k3a + B4 * k4a + B5 * k5a + B6 * k6a)
            nb = b + h * (B1 * fb + B3 * k3b + B4 * k4b + B5 * k5b + B6 * k6b)
            ni = i + h * (B1 * fi + B3 * k3i + B4 * k4i + B5 * k5i + B6 * k6i)
            k7a, k7b, k7i = rhs(z_new, (na, nb, ni))
            error_norm = _rms(
                h * (E1 * fa + E3 * k3a + E4 * k4a + E5 * k5a + E6 * k6a + E7 * k7a)
                / (atol + max(abs(a), abs(na)) * rtol),
                h * (E1 * fb + E3 * k3b + E4 * k4b + E5 * k5b + E6 * k6b + E7 * k7b)
                / (atol + max(abs(b), abs(nb)) * rtol),
                h * (E1 * fi + E3 * k3i + E4 * k4i + E5 * k5i + E6 * k6i + E7 * k7i)
                / (atol + max(abs(i), abs(ni)) * rtol))
            if error_norm < 1.0:
                factor = (MAX_FACTOR if error_norm == 0.0
                          else min(MAX_FACTOR, SAFETY * error_norm ** -0.2))
                h_abs *= min(1.0, factor) if retried else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** -0.2)
            retried = True
            rejected += 1
        accepted += 1

        # samples at most sample_dz apart: a longer step is cut into equal parts whose
        # inner ends lie on the dense output, and the events are checked at every sample
        parts = math.ceil(h / sample_dz) if h > sample_dz else 1
        coeffs = None
        if parts > 1:
            coeffs = (_quartic(h, a, fa, k3a, k4a, k5a, k6a, k7a),
                      _quartic(h, b, fb, k3b, k4b, k5b, k6b, k7b),
                      _quartic(h, i, fi, k3i, k4i, k5i, k6i, k7i))
        for j in range(1, parts + 1):
            if j < parts:
                z_hi, y_hi = z + h * (j / parts), _at(coeffs, j / parts)
            else:
                z_hi, y_hi = z_new, (na, nb, ni)
            # `_events`, written out: this runs on every sample
            sa, sb = y_hi[0], y_hi[1]
            g0, g1, g2 = sb, sa + neg_tol, max(abs(sa), abs(sb)) - stop_tol
            if watch and (p0 > 0.0 >= g0 or p1 > 0.0 >= g1 or p2 > 0.0 >= g2):
                if coeffs is None:
                    coeffs = (_quartic(h, a, fa, k3a, k4a, k5a, k6a, k7a),
                              _quartic(h, b, fb, k3b, k4b, k5b, k6b, k7b),
                              _quartic(h, i, fi, k3i, k4i, k5i, k6i, k7i))
                crossings = []  # (z, event index)
                for k, g_lo, g_hi in ((EV_MAX, p0, g0), (EV_NEG, p1, g1), (EV_STOP, p2, g2)):
                    if g_lo > 0.0 >= g_hi:
                        if g_hi == 0.0:
                            z_e = z_hi
                        else:
                            z_e = _refine(lambda zq: _events(_at(coeffs, (zq - z) / h),
                                                             neg_tol, stop_tol)[k],
                                          zs[-1], g_lo, z_hi, g_hi)
                            refined += 1
                        crossings.append((z_e, k))
                crossings.sort()

                for z_e, k in crossings:
                    y_e = _at(coeffs, (z_e - z) / h) if z_e < z_hi else y_hi
                    hits.append(EventRecord(k, z_e, np.array(y_e)))
                    if k != EV_MAX:
                        if z_e > zs[-1]:
                            zs.append(z_e)
                            ys += y_e
                        return partial()

            zs.append(z_hi)
            ys += y_hi
            dense_samples += j < parts
            p0, p1, p2 = g0, g1, g2
        z, a, b, i, fa, fb, fi = z_new, na, nb, ni, k7a, k7b, k7i

    return partial()
