import math

import numpy as np
import pytest
from scipy.linalg import expm

from branchwaves.errors import DomainError, NonConvergenceError
from branchwaves.model import Params, wave_rhs
from branchwaves.odeint import Event, IntegratorOptions, Trajectory, integrate


def decay(z, y):
    return -y


class TestOptions:
    def test_defaults(self):
        opts = IntegratorOptions()
        assert opts.rel_tol == 1e-9
        assert opts.abs_tol == 1e-12
        assert opts.max_step == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"rel_tol": 0.1},
            {"abs_tol": -1e-9},
            {"max_step": 0.0},
            {"max_steps": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            IntegratorOptions(**kwargs)


class TestTrajectory:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 2)))

    def test_non_monotone(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0, 0.5]), np.zeros((3, 2)))

    def test_decreasing_ok(self):
        t = Trajectory(np.array([1.0, 0.5, 0.0]), np.zeros((3, 2)))
        assert len(t) == 3


class TestIntegrate:
    def test_exponential_decay(self):
        traj = integrate(decay, [1.0], (0.0, 1.0))
        assert traj.zs[0] == 0.0
        assert traj.zs[-1] == 1.0
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_backward_run(self):
        traj = integrate(decay, [math.exp(-1.0)], (1.0, 0.0))
        assert np.all(np.diff(traj.zs) < 0)
        assert traj.zs[-1] == 0.0
        assert traj.states[-1, 0] == pytest.approx(1.0, rel=1e-9)

    def test_fixed_point_stays_put(self):
        p = Params(c=2.0, r=1.0)
        y0 = np.array([0.0, 0.0, 1.6])
        traj = integrate(lambda z, y: wave_rhs(y, p), y0, (0.0, 5.0))
        assert np.max(np.abs(traj.states - y0)) == 0.0

    def test_degenerate_span(self):
        with pytest.raises(DomainError):
            integrate(decay, [1.0], (2.0, 2.0))

    def test_max_steps_carries_partial(self):
        opts = IntegratorOptions(max_steps=5)
        with pytest.raises(NonConvergenceError) as info:
            integrate(decay, [1.0], (0.0, 10.0), opts)
        partial = info.value.trajectory
        assert partial is not None
        assert len(partial) == 6
        assert partial.zs[-1] < 10.0

    def test_max_steps_carries_complex_partial(self):
        opts = IntegratorOptions(max_steps=5)
        with pytest.raises(NonConvergenceError) as info:
            integrate(lambda z, w: 1j * w, [1.0 + 0.5j], (0.0, 10.0), opts)
        partial = info.value.trajectory
        assert len(partial) == 6
        assert partial.states.dtype == np.complex128
        assert np.all(partial.states.imag != 0.0)

    def test_real_start_gives_float_states(self):
        traj = integrate(decay, [1, 2], (0.0, 1.0))
        assert traj.states.dtype == np.float64

    def test_monotone_convergence(self):
        # halving rel_tol must not worsen the final-state error; a large
        # max_step keeps the tolerance (not the cap) in control throughout
        errs = []
        for k in range(14):
            opts = IntegratorOptions(
                rel_tol=1e-4 * 0.5**k, abs_tol=1e-14, max_step=10.0
            )
            traj = integrate(decay, [1.0], (0.0, 1.0), opts)
            errs.append(abs(traj.states[-1, 0] - math.exp(-1.0)))
        for worse, better in zip(errs, errs[1:]):
            assert better <= worse + 1e-15


class TestEvents:
    @staticmethod
    def oscillator(z, y):
        return np.array([y[1], -y[0]])

    def test_zero_crossings_any_direction(self):
        # y = sin z crosses zero at every multiple of pi
        traj = integrate(
            self.oscillator, [0.0, 1.0], (0.0, 7.0),
            events=[Event(lambda z, y: y[0])],
        )
        zs = [rec.z for rec in traj.events]
        assert zs == pytest.approx([math.pi, 2 * math.pi], abs=1e-8)

    def test_downward_only(self):
        traj = integrate(
            self.oscillator, [0.0, 1.0], (0.0, 10.0),
            events=[Event(lambda z, y: y[0], direction=-1)],
        )
        zs = [rec.z for rec in traj.events]
        assert zs == pytest.approx([math.pi, 3 * math.pi], abs=1e-8)

    def test_event_state_recorded(self):
        traj = integrate(
            self.oscillator, [0.0, 1.0], (0.0, 4.0),
            events=[Event(lambda z, y: y[0], direction=-1)],
        )
        rec = traj.events[0]
        assert rec.index == 0
        assert rec.state[1] == pytest.approx(-1.0, abs=1e-8)

    def test_terminal_event_truncates(self):
        traj = integrate(
            self.oscillator, [0.0, 1.0], (0.0, 10.0),
            events=[Event(lambda z, y: y[0], direction=-1, terminal=True)],
        )
        assert traj.zs[-1] == pytest.approx(math.pi, abs=1e-8)
        assert len(traj.events) == 1

    def test_abscissae_increasing_within_steps(self):
        traj = integrate(
            self.oscillator, [0.0, 1.0], (0.0, 20.0),
            events=[Event(lambda z, y: y[0])],
        )
        zs = [rec.z for rec in traj.events]
        assert zs == sorted(zs)
        for z in zs:
            j = np.searchsorted(traj.zs, z)
            assert 0 < j < len(traj.zs)
            assert traj.zs[j - 1] < z <= traj.zs[j]

    def test_event_active_at_start_not_refired(self):
        # y[0] starts exactly on the zero set; only true crossings count
        traj = integrate(
            self.oscillator, [0.0, 1.0], (0.0, 4.0),
            events=[Event(lambda z, y: y[0])],
        )
        assert all(rec.z > 1.0 for rec in traj.events)

    def test_bad_direction(self):
        with pytest.raises(DomainError):
            Event(lambda z, y: y[0], direction=2)


class TestIntegrateComplex:
    def test_rotation(self):
        traj = integrate(lambda z, w: 1j * w, [1.0 + 0.0j], (0.0, math.pi))
        assert traj.states[-1, 0] == pytest.approx(-1.0 + 0.0j, abs=1e-8)

    def test_zero_rhs_constant(self):
        w0 = np.array([0.3 + 0.4j, -1.0 + 2.0j])
        traj = integrate(lambda z, w: np.zeros(2, dtype=complex), w0, (0.0, 3.0))
        assert np.max(np.abs(traj.states - w0)) == 0.0

    def test_constant_matrix_vs_expm(self):
        M = np.array([[0.2 + 1.0j, 0.3], [-0.1j, -0.5 + 2.0j]])
        w0 = np.array([1.0 + 0.0j, 0.5 - 0.5j])
        traj = integrate(lambda z, w: M @ w, w0, (0.0, 2.0))
        want = expm(2.0 * M) @ w0
        np.testing.assert_allclose(traj.states[-1], want, atol=1e-8)

    def test_complex_event(self):
        # Im(w) for w = e^{iz} rises through 1/2 at z = pi/6
        traj = integrate(
            lambda z, w: 1j * w, [1.0 + 0.0j], (0.0, 3.0),
            events=[Event(lambda z, w: w[0].imag - 0.5, direction=1, terminal=True)],
        )
        assert traj.zs[-1] == pytest.approx(math.pi / 6, abs=1e-7)
        assert traj.events[0].state.dtype == complex

    def test_backward_rotation(self):
        traj = integrate(lambda z, w: 1j * w, [-1.0 + 0.0j], (math.pi, 0.0))
        assert np.all(np.diff(traj.zs) < 0)
        assert traj.states[-1, 0] == pytest.approx(1.0 + 0.0j, abs=1e-8)
