import math

import numpy as np
import pytest
from scipy.linalg import expm

from branchwaves import odeint
from branchwaves.errors import DomainError, NonConvergenceError
from branchwaves.model import Params, wave_rhs
from branchwaves.odeint import Event, Trajectory, integrate


def decay(z, y):
    return -y


class TestOptions:
    def test_defaults(self):
        assert odeint.REL_TOL == 1e-9
        assert odeint.ABS_TOL == 1e-12
        assert odeint.MAX_STEP == 0.1
        assert odeint.MAX_STEPS == 1_000_000


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
        traj = integrate(decay, [1.0], 1.0)
        assert traj.zs[0] == 0.0
        assert traj.zs[-1] == 1.0
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_fixed_point_stays_put(self):
        p = Params(c=2.0, r=1.0)
        y0 = np.array([0.0, 0.0, 1.6])
        traj = integrate(lambda z, y: wave_rhs(y, p), y0, 5.0)
        assert np.max(np.abs(traj.states - y0)) == 0.0

    def test_degenerate_span(self):
        with pytest.raises(DomainError):
            integrate(decay, [1.0], 0.0)

    def test_max_steps_carries_partial(self, monkeypatch):
        monkeypatch.setattr(odeint, "MAX_STEPS", 5)
        with pytest.raises(NonConvergenceError) as info:
            integrate(decay, [1.0], 10.0)
        partial = info.value.trajectory
        assert partial is not None
        assert len(partial) == 6
        assert partial.zs[-1] < 10.0

    def test_constant_matrix_vs_expm(self):
        M = np.array([[0.2, 1.0], [-0.7, -0.5]])
        y0 = np.array([1.0, 0.5])
        traj = integrate(lambda z, y: M @ y, y0, 2.0)
        np.testing.assert_allclose(traj.states[-1], expm(2.0 * M) @ y0, atol=1e-8)

    def test_real_start_gives_float_states(self):
        traj = integrate(decay, [1, 2], 1.0)
        assert traj.states.dtype == np.float64

    def test_monotone_convergence(self, monkeypatch):
        # halving REL_TOL must not worsen the final-state error; a large
        # MAX_STEP keeps the tolerance (not the cap) in control throughout
        monkeypatch.setattr(odeint, "ABS_TOL", 1e-14)
        monkeypatch.setattr(odeint, "MAX_STEP", 10.0)
        errs = []
        for k in range(14):
            monkeypatch.setattr(odeint, "REL_TOL", 1e-4 * 0.5**k)
            traj = integrate(decay, [1.0], 1.0)
            errs.append(abs(traj.states[-1, 0] - math.exp(-1.0)))
        for worse, better in zip(errs, errs[1:]):
            assert better <= worse + 1e-15


class TestEvents:
    @staticmethod
    def oscillator(z, y):
        return np.array([y[1], -y[0]])

    def test_downward_only(self):
        # y = sin z falls through zero at odd multiples of pi only
        traj = integrate(
            self.oscillator, [0.0, 1.0], 10.0, [Event(lambda z, y: y[0])]
        )
        zs = [rec.z for rec in traj.events]
        assert zs == pytest.approx([math.pi, 3 * math.pi], abs=1e-8)

    def test_event_state_recorded(self):
        traj = integrate(
            self.oscillator, [0.0, 1.0], 4.0, [Event(lambda z, y: y[0])]
        )
        rec = traj.events[0]
        assert rec.index == 0
        assert rec.state[1] == pytest.approx(-1.0, abs=1e-8)

    def test_terminal_event_truncates(self):
        traj = integrate(
            self.oscillator, [0.0, 1.0], 10.0,
            [Event(lambda z, y: y[0], terminal=True)],
        )
        assert traj.zs[-1] == pytest.approx(math.pi, abs=1e-8)
        assert len(traj.events) == 1

    def test_abscissae_increasing_within_steps(self):
        traj = integrate(
            self.oscillator, [0.0, 1.0], 20.0, [Event(lambda z, y: y[0])]
        )
        zs = [rec.z for rec in traj.events]
        assert len(zs) == 3
        assert zs == sorted(zs)
        for z in zs:
            j = np.searchsorted(traj.zs, z)
            assert 0 < j < len(traj.zs)
            assert traj.zs[j - 1] < z <= traj.zs[j]

    def test_event_active_at_start_not_refired(self):
        # y[0] = -sin z starts exactly on the zero set and falls from there;
        # only the true falling crossing at 2 pi counts
        traj = integrate(
            self.oscillator, [0.0, -1.0], 7.0, [Event(lambda z, y: y[0])]
        )
        zs = [rec.z for rec in traj.events]
        assert zs == pytest.approx([2 * math.pi], abs=1e-8)
