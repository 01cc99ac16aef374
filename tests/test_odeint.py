import ast
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest
from scipy.integrate import RK45, solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq

import branchwaves
from branchwaves import odeint
from branchwaves.acceptance import _admissible_draw
from branchwaves.errors import DomainError, NonConvergenceError
from branchwaves.model import Params, wave_rhs
from branchwaves.odeint import (  # the tableau `reference_integrate` reads
    A21, A31, A32, A41, A42, A43, A51, A52, A53, A54, A61, A62, A63, A64, A65, B1, B3, B4,
    B5, B6, D12, D13, D14, D32, D33, D34, D42, D43, D44, D52, D53, D54, D62, D63, D64, D72,
    D73, D74, E1, E3, E4, E5, E6, E7, MAX_FACTOR, MIN_FACTOR, SAFETY)
from branchwaves.odeint import (EV_MAX, EV_NEG, EV_STOP, EventRecord, Trajectory, _at, _events,
                                _initial_step, _rms, integrate)
from branchwaves.wave import NEGATIVITY_TOL, STOP_TOL, Z_BUDGET, seed_unstable_manifold


def decay(y, p):
    return (-y[0], -y[1], -y[2])


def turns_nan(y, p):
    # a and b decay while i, started at 0.5, keeps the clock (i' = 1): NaN past z = 0.5
    return (math.nan,) * 3 if y[2] > 1.0 else (-y[0], -y[1], 1.0)


Y0 = (1.0, -2.0, 0.5)
# the shooting thresholds (neg_tol, stop_tol)
STOPS = (NEGATIVITY_TOL, STOP_TOL)
# thresholds no sample crosses: a plain run, recording the EV_MAX crossings alone
PLAIN = (math.inf, -math.inf)


def samples_of(ends):
    """The samples `integrate` keeps on the given step ends: each step cut into
    ceil(h / SAMPLE_DZ) equal parts."""
    out = [ends[0]]
    for z0, z1 in zip(ends, ends[1:]):
        h = z1 - z0
        parts = math.ceil(h / odeint.SAMPLE_DZ) if h > odeint.SAMPLE_DZ else 1
        out += [z0 + h * (j / parts) for j in range(1, parts)] + [z1]
    return np.array(out)


def _quartic(h, y, f, k3, k4, k5, k6, k7):
    return (y, h * f,
            h * (D12 * f + D32 * k3 + D42 * k4 + D52 * k5 + D62 * k6 + D72 * k7),
            h * (D13 * f + D33 * k3 + D43 * k4 + D53 * k5 + D63 * k6 + D73 * k7),
            h * (D14 * f + D34 * k3 + D44 * k4 + D54 * k5 + D64 * k6 + D74 * k7))


def _refine(g, lo, g_lo, hi, g_hi) -> float:
    while hi - lo > odeint.EVENT_ZTOL:
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid > 0.0:
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    return hi - g_hi * (hi - lo) / (g_hi - g_lo)


def reference_integrate(rhs, p, y0, z_end, stops):
    """`integrate` as plain calls: the builtins abs, min and max, a helper per sample and
    per dense output, and a closure per refined event.

    The bitwise oracle of the written-out loop: the same floating-point
    operations on the same operands, in the same order.
    """
    neg_tol, stop_tol = stops
    rtol, atol = odeint.REL_TOL, odeint.ABS_TOL
    sample_dz, max_steps = odeint.SAMPLE_DZ, odeint.MAX_STEPS
    z = 0.0
    a, b, i = (float(v) for v in y0)
    fa, fb, fi = rhs((a, b, i), p)
    h_abs = _initial_step(rhs, p, (a, b, i), (fa, fb, fi), z_end)
    zs, ys, hits = [z], [a, b, i], []
    p0, p1, p2 = _events((a, b, i), neg_tol, stop_tol)
    accepted = rejected = refined = dense_samples = 0
    n_rhs = 2

    def partial() -> Trajectory:
        return Trajectory(np.array(zs), np.array(ys).reshape(-1, 3), hits, {
            "accepted_steps": accepted, "rejected_steps": rejected,
            "rhs_evaluations": n_rhs, "refined_events": refined, "dense_samples": dense_samples})

    def dense():
        return (_quartic(h, a, fa, k3a, k4a, k5a, k6a, k7a),
                _quartic(h, b, fb, k3b, k4b, k5b, k6b, k7b),
                _quartic(h, i, fi, k3i, k4i, k5i, k6i, k7i))

    while z < z_end:
        if accepted >= max_steps:
            raise NonConvergenceError(f"no convergence within {max_steps} steps", partial())
        min_step = 10.0 * (math.nextafter(z, math.inf) - z)
        h_abs = max(h_abs, min_step)
        retried = False
        while True:
            if not h_abs >= min_step:
                raise NonConvergenceError("step size underflow", partial())
            z_new = min(z + h_abs, z_end)
            h = h_abs = z_new - z
            n_rhs += 6
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

        parts = math.ceil(h / sample_dz) if h > sample_dz else 1
        coeffs = dense() if parts > 1 else None
        for j in range(1, parts + 1):
            if j < parts:
                z_hi, y_hi = z + h * (j / parts), _at(coeffs, j / parts)
            else:
                z_hi, y_hi = z_new, (na, nb, ni)
            g0, g1, g2 = _events(y_hi, neg_tol, stop_tol)
            if p0 > 0.0 >= g0 or p1 > 0.0 >= g1 or p2 > 0.0 >= g2:
                coeffs = coeffs or dense()
                crossings = []
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


class TestOptions:
    def test_defaults(self):
        assert odeint.REL_TOL == 1e-9
        assert odeint.ABS_TOL == 1e-12
        assert odeint.SAMPLE_DZ == 0.1
        assert odeint.MAX_STEPS == 1_000_000
        # the tolerance alone sets the step: there is no cap to tune
        assert not hasattr(odeint, "MAX_STEP")


class TestTrajectory:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 2)))

    def test_non_monotone(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0, 0.5]), np.zeros((3, 2)))

    def test_decreasing_rejected(self):
        # integrate runs forward only, so a trajectory's zs increase
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(np.array([1.0, 0.5, 0.0]), np.zeros((3, 2)))


class TestIntegrate:
    def test_exponential_decay(self):
        traj = integrate(decay, None, Y0, 1.0, PLAIN)
        assert traj.zs[0] == 0.0
        assert traj.zs[-1] == 1.0
        np.testing.assert_allclose(traj.states[-1], np.multiply(Y0, math.exp(-1.0)),
                                   rtol=1e-9)

    def test_fixed_point_stays_put(self):
        p = Params(c=2.0, r=1.0)
        y0 = np.array([0.0, 0.0, 1.6])
        traj = integrate(wave_rhs, p, y0, 5.0, PLAIN)
        assert np.max(np.abs(traj.states - y0)) == 0.0
        # no error at all: scipy's degenerate initial step, then tenfold growth
        ref = solve_ivp(lambda z, y: wave_rhs(y, p), (0.0, 5.0), y0, method="RK45",
                        rtol=odeint.REL_TOL, atol=odeint.ABS_TOL)
        assert traj.diagnostics["accepted_steps"] == len(ref.t) - 1
        assert traj.diagnostics["rhs_evaluations"] == ref.nfev
        np.testing.assert_allclose(traj.zs, samples_of(ref.t), rtol=0.0, atol=1e-15)

    def test_degenerate_span(self):
        with pytest.raises(DomainError):
            integrate(decay, None, Y0, 0.0, PLAIN)

    def test_max_steps_carries_partial(self, monkeypatch):
        monkeypatch.setattr(odeint, "MAX_STEPS", 5)
        with pytest.raises(NonConvergenceError) as info:
            integrate(decay, None, Y0, 10.0, PLAIN)
        partial = info.value.trajectory
        assert partial is not None
        assert len(partial) == 6
        assert partial.zs[-1] < 10.0

    def test_constant_matrix_vs_expm(self):
        M = np.array([[0.2, 1.0, 0.0], [-0.7, -0.5, 0.3], [0.1, 0.0, -0.4]])
        y0 = np.array([1.0, 0.5, -0.25])
        traj = integrate(lambda y, M: M @ y, M, y0, 2.0, PLAIN)
        np.testing.assert_allclose(traj.states[-1], expm(2.0 * M) @ y0, atol=1e-8)

    def test_real_start_gives_float_states(self):
        traj = integrate(decay, None, [1, 2, 3], 1.0, PLAIN)
        assert traj.states.dtype == np.float64

    def test_monotone_convergence(self, monkeypatch):
        # halving REL_TOL must not worsen the final-state error
        monkeypatch.setattr(odeint, "ABS_TOL", 1e-14)
        errs = []
        for k in range(14):
            monkeypatch.setattr(odeint, "REL_TOL", 1e-4 * 0.5**k)
            traj = integrate(decay, None, [1.0, 1.0, 1.0], 1.0, PLAIN)
            errs.append(abs(traj.states[-1, 0] - math.exp(-1.0)))
        for worse, better in zip(errs, errs[1:]):
            assert better <= worse + 1e-15


class TestEvents:
    @staticmethod
    def oscillator(y, p):
        # a held at 1, b' = i and i' = -b
        return (0.0, y[2], -y[1])

    def test_downward_only(self):
        # b = sin z falls through zero at odd multiples of pi only
        traj = integrate(self.oscillator, None, [1.0, 0.0, 1.0], 10.0, STOPS)
        zs = [rec.z for rec in traj.events]
        assert zs == pytest.approx([math.pi, 3 * math.pi], abs=1e-8)

    def test_event_state_recorded(self):
        traj = integrate(self.oscillator, None, [1.0, 0.0, 1.0], 4.0, STOPS)
        rec = traj.events[0]
        assert rec.index == EV_MAX
        assert rec.state[2] == pytest.approx(-1.0, abs=1e-8)

    def test_terminal_event_truncates(self):
        # a = sin z with b held at 1: a + NEGATIVITY_TOL falls through zero just past pi
        traj = integrate(lambda y, p: (y[2], 0.0, -y[0]), None, [0.0, 1.0, 1.0], 10.0, STOPS)
        assert traj.zs[-1] == pytest.approx(math.pi + math.asin(NEGATIVITY_TOL), abs=1e-8)
        assert [rec.index for rec in traj.events] == [EV_NEG]

    def test_stop_event_truncates(self):
        # max(|a|, |b|) = 2 e^{-z} falls to STOP_TOL at z = log(2 / STOP_TOL);
        # b < 0 and a > 0 throughout, so nothing else fires
        traj = integrate(decay, None, Y0, 50.0, STOPS)
        assert [rec.index for rec in traj.events] == [EV_STOP]
        # ABS_TOL is 1% of that level, so z holds to about 1e-4 there
        assert traj.zs[-1] == traj.events[0].z == pytest.approx(math.log(2.0 / STOP_TOL), abs=1e-3)
        assert abs(traj.states[-1, 1]) == pytest.approx(STOP_TOL, rel=1e-12)

    def test_crossings_taken_in_z_order(self):
        # a = sin z falls below -NEGATIVITY_TOL just past pi, and b = sin(z - 0.001)
        # through zero 0.001 later, between the same two samples: the run ends
        # at the first and never reaches the second; i = z keeps the clock
        def rhs(y, p):
            return (math.cos(y[2]), math.cos(y[2] - 0.001), 1.0)

        y0 = [0.0, math.sin(-0.001), 0.0]
        traj = integrate(rhs, None, y0, 10.0, STOPS)
        assert [rec.index for rec in traj.events] == [EV_NEG]
        assert traj.zs[-1] == pytest.approx(math.pi + math.asin(NEGATIVITY_TOL), abs=1e-8)
        # the plain run keeps the same samples and shows both crossings in one interval
        zs = integrate(rhs, None, y0, 10.0, PLAIN).zs
        j = np.searchsorted(zs, traj.zs[-2])
        assert zs[j] == traj.zs[-2] and zs[j + 1] > math.pi + 0.001

    def test_abscissae_increasing_within_steps(self):
        traj = integrate(self.oscillator, None, [1.0, 0.0, 1.0], 20.0, STOPS)
        zs = [rec.z for rec in traj.events]
        assert len(zs) == 3
        assert zs == sorted(zs)
        for z in zs:
            j = np.searchsorted(traj.zs, z)
            assert 0 < j < len(traj.zs)
            assert traj.zs[j - 1] < z <= traj.zs[j]

    def test_dip_inside_one_long_step(self, monkeypatch):
        # b = (z - 5)^2 - 0.15^2 falls through zero at 4.85 and rises again at
        # 5.15, with i = z the clock; the fifth-order pair is exact on both, so
        # the step grows tenfold each time and one step spans the dip
        def parabola(y, p):
            return (0.0, 2.0 * (y[2] - 5.0), 1.0)

        y0 = (1.0, 25.0 - 0.15 ** 2, 0.0)
        traj = integrate(parabola, None, y0, 10.0, STOPS)
        assert [rec.z for rec in traj.events] == pytest.approx([4.85], abs=1e-8)
        # the step ends alone straddle the dip and miss it
        monkeypatch.setattr(odeint, "SAMPLE_DZ", math.inf)
        ends = integrate(parabola, None, y0, 10.0, STOPS)
        assert ends.events == []
        assert np.count_nonzero((ends.zs > 4.85) & (ends.zs < 5.15)) == 0

    def test_event_active_at_start_not_refired(self):
        # b = -sin z starts exactly on the zero set and falls from there;
        # only the true falling crossing at 2 pi counts
        traj = integrate(self.oscillator, None, [1.0, 0.0, -1.0], 7.0, STOPS)
        zs = [rec.z for rec in traj.events]
        assert zs == pytest.approx([2 * math.pi], abs=1e-8)


P_WAVE = Params(c=2.0, r=0.5)


def wave(z, y):
    """The wave system as scipy calls it."""
    return wave_rhs(y, P_WAVE)


@pytest.fixture(scope="module")
def seed():
    return np.array(seed_unstable_manifold(1.5, P_WAVE), dtype=float)


def reference_crossings(fn, y0, z_end):
    """Falling crossings of fn as the scipy-based integrator placed them:
    brentq to EVENT_ZTOL on each step's RK45 dense output."""
    solver = RK45(lambda z, y: np.asarray(wave(z, y), dtype=float), 0.0, y0, z_end,
                  rtol=odeint.REL_TOL, atol=odeint.ABS_TOL)
    found, g_prev = [], fn(0.0, y0)  # (z, state)
    while solver.status == "running":
        z_old = solver.t
        solver.step()
        dense, g_new = solver.dense_output(), fn(solver.t, solver.y)
        if g_prev > 0.0 >= g_new:
            z = brentq(lambda z: fn(z, dense(z)), z_old, solver.t, xtol=odeint.EVENT_ZTOL)
            found.append((z, dense(z)))
        g_prev = g_new
    return found


class TestScipyOracle:
    """scipy's RK45 is the reference: the core keeps its steps exactly."""

    def test_wave_shot_matches_solve_ivp(self, seed, monkeypatch):
        traj = integrate(wave_rhs, P_WAVE, seed, 150.0, PLAIN)
        ref = solve_ivp(wave, (0.0, 150.0), seed, method="RK45", rtol=odeint.REL_TOL,
                        atol=odeint.ABS_TOL, dense_output=True)
        assert len(traj) >= 1501  # samples at most SAMPLE_DZ apart
        assert traj.diagnostics["accepted_steps"] == len(ref.t) - 1
        assert traj.diagnostics["rhs_evaluations"] == ref.nfev
        assert traj.zs[-1] == ref.t[-1] == 150.0
        # with no inner samples the trajectory holds the step ends alone, and
        # sampling moves none of them
        monkeypatch.setattr(odeint, "SAMPLE_DZ", math.inf)
        ends = integrate(wave_rhs, P_WAVE, seed, 150.0, PLAIN).zs
        assert np.isin(ends, traj.zs).all()
        # The error estimate cancels heavily, so a rounding-level change moves
        # the error-controlled step ends: scipy itself, started one ulp away,
        # moves its step sizes by up to 3.3e-5 relative on such shots. The
        # states lie on scipy's solution curve to rounding all the same.
        np.testing.assert_allclose(np.diff(ends), np.diff(ref.t), rtol=1e-4, atol=0.0)
        np.testing.assert_allclose(traj.states, ref.sol(traj.zs).T, rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("stops, index, fn", [
        (STOPS, EV_MAX, lambda z, y: y[1]),
        ((-1e-3, STOP_TOL), EV_NEG, lambda z, y: y[0] - 1e-3),
        ((NEGATIVITY_TOL, 1e-3), EV_STOP, lambda z, y: max(abs(y[0]), abs(y[1])) - 1e-3),
    ], ids=["b", "a-level", "stop"])
    def test_events_match_brentq(self, seed, stops, index, fn):
        traj = integrate(wave_rhs, P_WAVE, seed, 150.0, stops)
        hits = [rec for rec in traj.events if rec.index == index]
        found = reference_crossings(fn, seed, 150.0)
        assert len(hits) >= 1
        # none missed before the run stopped
        assert all(z > traj.zs[-1] for z, _ in found[len(hits):])
        found = found[:len(hits)]
        np.testing.assert_allclose([rec.z for rec in hits], [z for z, _ in found],
                                   rtol=0.0, atol=2 * odeint.EVENT_ZTOL)
        np.testing.assert_allclose([rec.state for rec in hits], [y for _, y in found],
                                   rtol=0.0, atol=1e-11)
        # the final secant puts the event on its zero set to rounding
        assert max(abs(fn(rec.z, rec.state)) for rec in hits) <= 1e-14

    def test_rejections_match_solve_ivp(self):
        # tenfold growth on a fast decay makes the control cut steps back
        traj = integrate(lambda y, p: tuple(-50.0 * v for v in y), None, Y0, 5.0, PLAIN)
        ref = solve_ivp(lambda z, y: -50.0 * y, (0.0, 5.0), np.array(Y0), method="RK45",
                        rtol=odeint.REL_TOL, atol=odeint.ABS_TOL)
        assert traj.diagnostics["rejected_steps"] > 0
        assert traj.diagnostics["accepted_steps"] == len(ref.t) - 1
        assert traj.diagnostics["rhs_evaluations"] == ref.nfev

    @pytest.mark.parametrize("y0", [(1.0, math.inf, 0.5), (math.nan, 0.0, 1.5), (0.0, 0.0, -math.inf)])
    def test_non_finite_start_rejected(self, deadline, y0):
        # a seed with b = inf (c^2/4 overflows at c = 1e155) made the initial step NaN,
        # and the run rejected steps forever
        with pytest.raises(DomainError, match="y0 must be finite"):
            integrate(decay, None, y0, 2.0, PLAIN)

    def test_nan_initial_step_underflows(self, deadline):
        # a NaN derivative at the start makes the initial step NaN, which never
        # compared below the least step: the run rejected steps forever
        with pytest.raises(NonConvergenceError, match="step size underflow") as info:
            integrate(lambda y, p: (math.nan,) * 3, None, Y0, 2.0, PLAIN)
        assert info.value.trajectory.zs.tolist() == [0.0]
        assert info.value.trajectory.diagnostics["rejected_steps"] == 0

    def test_nan_rhs_underflows_like_scipy(self):
        with pytest.raises(NonConvergenceError, match="step size underflow") as info:
            integrate(turns_nan, None, Y0, 2.0, PLAIN)
        partial = info.value.trajectory

        solver = RK45(lambda z, y: np.asarray(turns_nan(y, None)), 0.0, np.array(Y0), 2.0,
                      rtol=odeint.REL_TOL, atol=odeint.ABS_TOL)
        while solver.status == "running":
            solver.step()
        assert solver.status == "failed"
        # both creep up to the NaN wall, i = 1 on the clock, by rejected and shrunken steps;
        # the clock and z round apart by a few ulps, so z lands on either side of 0.5
        assert 1.0 - 1e-12 < partial.states[-1, 2] <= 1.0
        assert 1.0 - 1e-12 < solver.y[2] <= 1.0
        assert partial.zs[-1] == pytest.approx(0.5, abs=1e-12)
        assert solver.t == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(partial.states[-1], solver.y, rtol=0.0, atol=1e-11)
        assert partial.diagnostics["rejected_steps"] > 0

    @pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(branchwaves.__path__)])
    def test_imports_nothing_from_scipy(self, name):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"branchwaves.{name}")))
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [node.module or "" for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)]
        assert not [name for name in imported if name.split(".")[0] == "scipy"]

    @pytest.mark.parametrize("y0", [[1.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
    def test_wrong_length_state_rejected(self, y0):
        with pytest.raises(DomainError, match="three components"):
            integrate(lambda y, p: y, None, y0, 1.0, PLAIN)


class TestDiagnostics:
    def test_counts_every_rhs_call(self, seed):
        calls = []

        def counted(y, p):
            calls.append(y)
            return wave_rhs(y, p)

        traj = integrate(counted, P_WAVE, seed, 30.0, PLAIN)
        diag = traj.diagnostics
        assert diag["rhs_evaluations"] == len(calls)
        assert diag["rhs_evaluations"] == 2 + 6 * (
            diag["accepted_steps"] + diag["rejected_steps"])
        # no terminal event: every step end is a sample, and so is every inner point
        assert len(traj) - 1 == diag["accepted_steps"] + diag["dense_samples"]
        assert diag["dense_samples"] > 0
        assert diag["refined_events"] == 0

    def test_refined_events_counted(self):
        # b = sin z falls at pi and 3 pi; a = 1 - z / 12 falls below -NEGATIVITY_TOL
        # just past 12 and ends the run
        traj = integrate(lambda y, p: (-1.0 / 12.0, y[2], -y[1]), None, [1.0, 0.0, 1.0], 20.0,
                         STOPS)
        assert [rec.index for rec in traj.events] == [EV_MAX, EV_MAX, EV_NEG]
        assert traj.diagnostics["refined_events"] == len(traj.events) == 3


def outcome(run, *args):
    """The trajectory run returns, or the message and trajectory of its NonConvergenceError."""
    try:
        return None, run(*args)
    except NonConvergenceError as exc:
        return str(exc), exc.trajectory


def wave_run(c, r, y0):
    return (wave_rhs, Params(c=c, r=r), y0, Z_BUDGET, STOPS)


class TestBitwise:
    """The written-out loop against `reference_integrate`: samples, events and
    counts equal bit for bit, signed zeros included."""

    @staticmethod
    def assert_same(args):
        (message, got), (want_message, want) = (outcome(run, *args)
                                                for run in (integrate, reference_integrate))
        assert message == want_message
        assert got.zs.tobytes() == want.zs.tobytes()
        assert got.states.tobytes() == want.states.tobytes()
        assert [(e.index, e.z.hex(), e.state.tobytes()) for e in got.events] == \
            [(e.index, e.z.hex(), e.state.tobytes()) for e in want.events]
        assert got.diagnostics == want.diagnostics

    def test_battery_shots(self):
        # 16 draws of the triangles criterion's (c, r, i0, a0), each shot from (a0, 0, i0)
        rng = np.random.default_rng(1)
        for _ in range(16):
            c, r, _, i0, a0 = _admissible_draw(rng)
            self.assert_same(wave_run(c, r, (a0, 0.0, i0)))

    @pytest.mark.parametrize("c", [2.0, 3.0])
    @pytest.mark.parametrize("r", [0.0, 1.0])
    def test_wave_grid_seeds(self, c, r):
        for i_minus in (1.2, 1.5, 1.8, 2.0):
            seed = np.array(seed_unstable_manifold(i_minus, Params(c=c, r=r)), dtype=float)
            self.assert_same(wave_run(c, r, seed))

    def test_nan_rhs(self):
        self.assert_same((turns_nan, None, Y0, 2.0, STOPS))

    def test_nan_rhs_from_the_start(self, deadline):
        # the first step is NaN: both underflow at once with the start sample alone
        # rather than reject steps forever
        args = (lambda y, p: (math.nan,) * 3, None, Y0, 2.0, STOPS)
        assert outcome(integrate, *args)[0] == "step size underflow"
        self.assert_same(args)

    def test_signed_zero_start(self):
        # abs(-0.0) is 0.0 but the conditionals keep -0.0, in the error scales and the stop
        # value; with stop_tol = 0 the stop value itself is -0.0 against the reference's 0.0
        self.assert_same(wave_run(2.0, 1.0, (-0.0, -0.0, 1.6)))
        self.assert_same((lambda y, p: (-0.0, -0.0, -y[2]), None, (-0.0, -0.0, 1.6), 5.0,
                          (0.0, 0.0)))
