"""Adaptive Dormand–Prince integration of the wave state with the shooting events.

One unrolled DP5(4) loop (Dormand & Prince 1980) on the float triple
(a, b, i) of an autonomous system y' = rhs(y, p) with the step control
of scipy's `RK45`: its tableau with first-same-as-last stages, RMS error
norm, safety 0.9, step factors in [0.2, 10] (at most 1 after a
rejection), initial-step rule and underflow test. It runs forward from
z = 0 with steps set by the tolerance alone, cuts each step longer than
SAMPLE_DZ into ceil(h / SAMPLE_DZ) equal parts read off its quartic
dense output (computed once, in the loop), and computes the three
shooting events, whose thresholds every call passes, on every sample as
plain arithmetic, abs, min and max written as conditionals that keep the
builtins' results; a falling crossing between two samples is refined on
that same interpolant.
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


def _initial_step(rhs, p, y, f, z_end) -> float:
    """scipy's `select_initial_step` for a fifth-order pair with a fourth-order error."""
    sa, sb, si = (ABS_TOL + abs(v) * REL_TOL for v in y)
    d0 = _rms(y[0] / sa, y[1] / sb, y[2] / si)
    d1 = _rms(f[0] / sa, f[1] / sb, f[2] / si)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, z_end)
    f1 = rhs(tuple(v + h0 * fv for v, fv in zip(y, f)), p)
    d2 = _rms((f1[0] - f[0]) / sa, (f1[1] - f[1]) / sb, (f1[2] - f[2]) / si) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:  # a zero or NaN maximum bounds nothing, as numpy's inf or nan does in scipy
        h1 = (0.01 / max(d1, d2)) ** 0.2 if max(d1, d2) > 0.0 else math.inf
    return min(100 * h0, h1, z_end)


def _at(coeffs, x):
    """The dense output at the fraction x of its step, from each component's Horner
    coefficients (y, q1, q2, q3, q4): y(z + x h) = y + x (q1 + x (q2 + x (q3 + x q4)))."""
    (ya, a1, a2, a3, a4), (yb, b1, b2, b3, b4), (yi, i1, i2, i3, i4) = coeffs
    return (ya + x * (a1 + x * (a2 + x * (a3 + x * a4))),
            yb + x * (b1 + x * (b2 + x * (b3 + x * b4))),
            yi + x * (i1 + x * (i2 + x * (i3 + x * i4))))


def _refine(coeffs, z, h, k, stops, lo, g_lo, hi, g_hi) -> float:
    """Root in [lo, hi] of event k on the dense output `coeffs` of the step from z over h,
    given g_lo > 0 >= g_hi: bisection down to EVENT_ZTOL, then the final bracket's secant."""
    while hi - lo > EVENT_ZTOL:
        mid = 0.5 * (lo + hi)
        g_mid = _events(_at(coeffs, (mid - z) / h), *stops)[k]
        if g_mid > 0.0:
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    return hi - g_hi * (hi - lo) / (g_hi - g_lo)


def _events(y, neg_tol, stop_tol):
    """The three event values at state y, indexed EV_MAX, EV_NEG, EV_STOP."""
    return y[1], y[0] + neg_tol, max(abs(y[0]), abs(y[1])) - stop_tol


def integrate(rhs: Callable, p, y0, z_end: float, stops: tuple[float, float]) -> Trajectory:
    """Integrate the autonomous ``y' = rhs(y, p)`` over [0, z_end], sampled at most SAMPLE_DZ apart.

    The state is the wave triple (a, b, i): ``rhs`` receives it as a tuple of floats and ``p``
    as passed (`model.wave_rhs`'s own signature), never the abscissa, and returns three numbers.
    States come back as an (N, 3) float array. Every sample is checked, at the required
    ``stops = (neg_tol, stop_tol)``, for the falling crossings of `_events`: b through 0 is
    recorded (EV_MAX), and a + neg_tol (EV_NEG) or max(|a|, |b|) - stop_tol (EV_STOP) through 0
    ends the run at the refined abscissa; stops no sample crosses, such as (inf, -inf), watch
    EV_MAX alone. A step's quartic dense output is computed once, when the step has inner
    samples or a crossing, and the loop's abs, min and max are conditionals that keep the
    builtins' results. Raises DomainError at a non-finite ``y0``, and NonConvergenceError (with
    the partial trajectory) on step underflow, a NaN step included, or when ``MAX_STEPS``
    accepted steps run out before ``z_end``.
    """
    if not z_end > 0.0:
        raise DomainError(f"z_end must be positive, got {z_end}")
    if len(y0) != 3:
        raise DomainError(f"y0 must hold the three components (a, b, i), got {len(y0)}")
    neg_tol, stop_tol = stops
    rtol, atol, sample_dz, max_steps = REL_TOL, ABS_TOL, SAMPLE_DZ, MAX_STEPS
    z = 0.0
    a, b, i = (float(v) for v in y0)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(i)):
        raise DomainError(f"y0 must be finite, got {(a, b, i)}")
    fa, fb, fi = rhs((a, b, i), p)
    h_abs = _initial_step(rhs, p, (a, b, i), (fa, fb, fi), z_end)
    zs, ys, hits = [z], [a, b, i], []  # ys flat, three floats per sample
    p0, p1, p2 = _events((a, b, i), neg_tol, stop_tol)
    accepted = rejected = refined = dense_samples = 0

    def partial() -> Trajectory:
        return Trajectory(np.array(zs), np.array(ys).reshape(-1, 3), hits, {
            "accepted_steps": accepted, "rejected_steps": rejected,
            "rhs_evaluations": 2 + 6 * (accepted + rejected), "refined_events": refined,
            "dense_samples": dense_samples})

    # abs, min and max are conditionals here, as calls they took a sixth of a battery shot;
    # each keeps the builtin's result: max(x, y) keeps x unless y > x and min(x, y) keeps x
    # unless y < x, NaN included, and -x if x < 0.0 else x differs from abs at -0.0 alone,
    # where each use agrees: atol + m rtol is atol, and m - stop_tol is only compared
    while z < z_end:
        if accepted >= max_steps:
            raise NonConvergenceError(f"no convergence within {max_steps} steps", partial())
        min_step = 10.0 * (math.nextafter(z, math.inf) - z)
        h_abs = min_step if min_step > h_abs else h_abs
        cap = MAX_FACTOR  # on the step's growth; 1 after a rejection
        while True:
            if not h_abs >= min_step:  # a NaN step, from a NaN derivative, underflows too
                raise NonConvergenceError("step size underflow", partial())
            z_new = z + h_abs
            if z_end < z_new:
                z_new = z_end
            h = h_abs = z_new - z
            k2a, k2b, k2i = rhs((a + h * (A21 * fa), b + h * (A21 * fb), i + h * (A21 * fi)), p)
            k3a, k3b, k3i = rhs((a + h * (A31 * fa + A32 * k2a), b + h * (A31 * fb + A32 * k2b),
                                 i + h * (A31 * fi + A32 * k2i)), p)
            k4a, k4b, k4i = rhs((a + h * (A41 * fa + A42 * k2a + A43 * k3a),
                                 b + h * (A41 * fb + A42 * k2b + A43 * k3b),
                                 i + h * (A41 * fi + A42 * k2i + A43 * k3i)), p)
            k5a, k5b, k5i = rhs((a + h * (A51 * fa + A52 * k2a + A53 * k3a + A54 * k4a),
                                 b + h * (A51 * fb + A52 * k2b + A53 * k3b + A54 * k4b),
                                 i + h * (A51 * fi + A52 * k2i + A53 * k3i + A54 * k4i)), p)
            k6a, k6b, k6i = rhs((
                a + h * (A61 * fa + A62 * k2a + A63 * k3a + A64 * k4a + A65 * k5a),
                b + h * (A61 * fb + A62 * k2b + A63 * k3b + A64 * k4b + A65 * k5b),
                i + h * (A61 * fi + A62 * k2i + A63 * k3i + A64 * k4i + A65 * k5i)), p)
            na = a + h * (B1 * fa + B3 * k3a + B4 * k4a + B5 * k5a + B6 * k6a)
            nb = b + h * (B1 * fb + B3 * k3b + B4 * k4b + B5 * k5b + B6 * k6b)
            ni = i + h * (B1 * fi + B3 * k3i + B4 * k4i + B5 * k5i + B6 * k6i)
            k7a, k7b, k7i = rhs((na, nb, ni), p)
            # `_rms` of the error over the scales atol + max(|y|, |y_new|) rtol, written out
            ma, mna = -a if a < 0.0 else a, -na if na < 0.0 else na
            mb, mnb = -b if b < 0.0 else b, -nb if nb < 0.0 else nb
            mi, mni = -i if i < 0.0 else i, -ni if ni < 0.0 else ni
            ea = (h * (E1 * fa + E3 * k3a + E4 * k4a + E5 * k5a + E6 * k6a + E7 * k7a)
                  / (atol + (mna if mna > ma else ma) * rtol))
            eb = (h * (E1 * fb + E3 * k3b + E4 * k4b + E5 * k5b + E6 * k6b + E7 * k7b)
                  / (atol + (mnb if mnb > mb else mb) * rtol))
            ei = (h * (E1 * fi + E3 * k3i + E4 * k4i + E5 * k5i + E6 * k6i + E7 * k7i)
                  / (atol + (mni if mni > mi else mi) * rtol))
            error_norm = math.sqrt(ea * ea + eb * eb + ei * ei) / 3 ** 0.5
            if error_norm < 1.0:
                factor = SAFETY * error_norm ** -0.2 if error_norm != 0.0 else cap
                h_abs *= factor if factor < cap else cap
                break
            factor = SAFETY * error_norm ** -0.2
            h_abs *= factor if factor > MIN_FACTOR else MIN_FACTOR
            cap = 1.0
            rejected += 1
        accepted += 1

        # samples at most sample_dz apart: a longer step is cut into equal parts on its dense
        # output, which a step without inner samples needs only for a crossing at its end
        e0, e1, e2 = nb, na + neg_tol, (mnb if mnb > mna else mna) - stop_tol
        parts = math.ceil(h / sample_dz) if h > sample_dz else 1
        if parts > 1 or p0 > 0.0 >= e0 or p1 > 0.0 >= e1 or p2 > 0.0 >= e2:
            # the Horner coefficients of `_at`, (a, a1, a2, a3, a4) and likewise for b and i
            a1, b1, i1 = h * fa, h * fb, h * fi
            a2 = h * (D12 * fa + D32 * k3a + D42 * k4a + D52 * k5a + D62 * k6a + D72 * k7a)
            b2 = h * (D12 * fb + D32 * k3b + D42 * k4b + D52 * k5b + D62 * k6b + D72 * k7b)
            i2 = h * (D12 * fi + D32 * k3i + D42 * k4i + D52 * k5i + D62 * k6i + D72 * k7i)
            a3 = h * (D13 * fa + D33 * k3a + D43 * k4a + D53 * k5a + D63 * k6a + D73 * k7a)
            b3 = h * (D13 * fb + D33 * k3b + D43 * k4b + D53 * k5b + D63 * k6b + D73 * k7b)
            i3 = h * (D13 * fi + D33 * k3i + D43 * k4i + D53 * k5i + D63 * k6i + D73 * k7i)
            a4 = h * (D14 * fa + D34 * k3a + D44 * k4a + D54 * k5a + D64 * k6a + D74 * k7a)
            b4 = h * (D14 * fb + D34 * k3b + D44 * k4b + D54 * k5b + D64 * k6b + D74 * k7b)
            i4 = h * (D14 * fi + D34 * k3i + D44 * k4i + D54 * k5i + D64 * k6i + D74 * k7i)
        for j in range(1, parts + 1):
            if j < parts:  # `_at` and `_events`, written out: this runs on every inner sample
                x = j / parts
                z_hi = z + h * x
                sa = a + x * (a1 + x * (a2 + x * (a3 + x * a4)))
                sb = b + x * (b1 + x * (b2 + x * (b3 + x * b4)))
                si = i + x * (i1 + x * (i2 + x * (i3 + x * i4)))
                ma, mb = -sa if sa < 0.0 else sa, -sb if sb < 0.0 else sb
                g0, g1, g2 = sb, sa + neg_tol, (mb if mb > ma else ma) - stop_tol
            else:
                z_hi, sa, sb, si, g0, g1, g2 = z_new, na, nb, ni, e0, e1, e2
            if p0 > 0.0 >= g0 or p1 > 0.0 >= g1 or p2 > 0.0 >= g2:
                coeffs = (a, a1, a2, a3, a4), (b, b1, b2, b3, b4), (i, i1, i2, i3, i4)
                crossings = []  # (z, event index)
                for k, g_lo, g_hi in ((EV_MAX, p0, g0), (EV_NEG, p1, g1), (EV_STOP, p2, g2)):
                    if g_lo > 0.0 >= g_hi:
                        if g_hi == 0.0:
                            z_e = z_hi
                        else:
                            z_e = _refine(coeffs, z, h, k, stops, zs[-1], g_lo, z_hi, g_hi)
                            refined += 1
                        crossings.append((z_e, k))
                crossings.sort()

                for z_e, k in crossings:
                    y_e = _at(coeffs, (z_e - z) / h) if z_e < z_hi else (sa, sb, si)
                    hits.append(EventRecord(k, z_e, np.array(y_e)))
                    if k != EV_MAX:
                        if z_e > zs[-1]:
                            zs.append(z_e)
                            ys += y_e
                        dense_samples += j - 1
                        return partial()

            zs.append(z_hi)
            ys += (sa, sb, si)
            p0, p1, p2 = g0, g1, g2
        dense_samples += parts - 1
        z, a, b, i, fa, fb, fi = z_new, na, nb, ni, k7a, k7b, k7i

    return partial()
