import math

import numpy as np
import pytest

from branchwaves import analysis, odeint, wave
from branchwaves.errors import BudgetError, DomainError, NegativityError, NonConvergenceError
from branchwaves.model import Params, wave_rhs
from branchwaves.odeint import Trajectory
from branchwaves.wave import (
    WaveProfile,
    seed_unstable_manifold,
    shoot_from_max,
    shoot_wave,
    verify_profile,
)

P20 = Params(c=2.0, r=0.0)


@pytest.fixture(scope="module")
def critical_wave():
    return shoot_wave(2.0, P20)


@pytest.fixture(scope="module")
def interior_wave():
    return shoot_wave(1.8, P20)


class TestSeed:
    def test_sign_pattern(self, monkeypatch):
        monkeypatch.setattr(wave, "SEED_EPS", 1e-6)
        s = seed_unstable_manifold(2.0, P20)
        assert s.a == 1e-6
        assert s.b > 0
        assert s.i < 2.0

    def test_small_eps_approaches_fixed_point(self, monkeypatch):
        eps = 1e-9
        monkeypatch.setattr(wave, "SEED_EPS", eps)
        s = seed_unstable_manifold(2.0, P20)
        assert np.linalg.norm(np.subtract(s, (0.0, 0.0, 2.0))) < 3 * eps

    def test_residual_aligned_with_eigendirection(self, monkeypatch):
        # rhs at the seed = eps*lambda*e_hat + O(eps^2)
        eps = 1e-4
        monkeypatch.setattr(wave, "SEED_EPS", eps)
        lam = analysis.decay_rate(2.0, 2.0)
        e_hat = np.array([1.0, lam, -2.0 / (2.0 * lam)])
        s = seed_unstable_manifold(2.0, P20)
        residual = np.asarray(wave_rhs(s, P20)) - eps * lam * e_hat
        assert np.linalg.norm(residual) < 10 * eps**2

    def test_not_unstable(self):
        with pytest.raises(DomainError):
            seed_unstable_manifold(1.0, P20)
        with pytest.raises(DomainError):
            seed_unstable_manifold(0.9, P20)
        with pytest.raises(DomainError):
            seed_unstable_manifold(math.nan, P20)

    def test_level_cap(self):
        with pytest.raises(DomainError):
            seed_unstable_manifold(2.5, P20)


class TestShootingOptions:
    def test_defaults(self):
        assert wave.SEED_EPS == 1e-7
        assert wave.STOP_TOL == 1e-10
        assert wave.Z_BUDGET == 1000.0
        assert wave.NEGATIVITY_TOL == 1e-6


class TestCriticalWave:
    def test_forward_limit(self, critical_wave):
        assert abs(critical_wave.i_plus_inf) < 1e-3

    def test_rising_rate(self, critical_wave):
        expected = -1.0 + math.sqrt(2.0)
        assert critical_wave.mu_minus == pytest.approx(expected, rel=0.02)

    def test_subexponential_tail(self, critical_wave):
        assert critical_wave.mu_plus == -1.0
        assert critical_wave.tail_prefactor_exp == pytest.approx(1.0, abs=0.15)

    def test_anchoring(self, critical_wave):
        traj = critical_wave.trajectory
        assert traj.zs[0] == pytest.approx(-critical_wave.z_first_max)
        k = np.argmin(np.abs(traj.zs))
        assert abs(traj.states[k, 0] - critical_wave.a_max) < 1e-4

    def test_report_passes(self, critical_wave):
        rep = verify_profile(critical_wave)
        assert rep.i_monotone
        assert rep.single_max
        assert rep.limit_sum_residual < 1e-3
        assert rep.passed


class TestInteriorWave:
    def test_forward_limit(self, interior_wave):
        assert interior_wave.i_plus_inf == pytest.approx(0.2, abs=1e-3)

    def test_decay_rate(self, interior_wave):
        expected = analysis.decay_rate(interior_wave.i_plus_inf, 2.0)
        assert interior_wave.mu_plus == pytest.approx(expected, rel=0.02)
        assert interior_wave.tail_prefactor_exp is None

    def test_first_max_formula(self, interior_wave):
        want = analysis.a_at_first_max(1.8, interior_wave.i_at_max, 2.0, 0.0)
        assert interior_wave.a_max == pytest.approx(want, rel=1e-4)

    def test_mass_residuals(self, interior_wave):
        rep = verify_profile(interior_wave)
        scale = rep.mass.total_mass
        assert abs(rep.mass.res1) < 1e-4 * scale
        assert abs(rep.mass.res2) < 1e-4 * scale
        assert abs(rep.mass.res3) < 1e-4 * scale

    def test_a_nonnegative_i_monotone(self, interior_wave):
        states = interior_wave.trajectory.states
        assert states[:, 0].min() >= -1e-8
        assert np.all(np.diff(states[:, 2]) <= 1e-8)


class TestLimitSymmetry:
    @pytest.mark.parametrize("c,r,i_minus", [(2.0, 1.0, 1.5), (3.0, 0.0, 1.2)])
    def test_spot_checks(self, c, r, i_minus):
        w = shoot_wave(i_minus, Params(c=c, r=r))
        assert abs(w.i_plus_inf - (2.0 - i_minus)) < 1e-3

    def test_r_independence(self):
        w = shoot_wave(1.8, Params(c=2.0, r=1.0))
        rep = verify_profile(w)
        assert rep.limit_sum_residual < 1e-3
        assert rep.passed

    def test_seed_size_robustness(self, monkeypatch):
        w1 = shoot_wave(1.8, P20)
        monkeypatch.setattr(wave, "SEED_EPS", 5e-8)
        w2 = shoot_wave(1.8, P20)
        assert abs(w1.i_plus_inf - w2.i_plus_inf) < 1e-5


class TestOscillatoryRegime:
    def test_negativity_above_critical_level(self):
        # at c=1 the admissible band ends at 2 - i_c = 1.25
        with pytest.raises(NegativityError) as info:
            shoot_wave(1.5, Params(c=1.0, r=0.0))
        err = info.value
        assert err.value < -9e-7
        assert err.trajectory is not None
        assert err.trajectory.states[-1, 0] < 0


class TestBudget:
    def test_budget_error_carries_trajectory(self, monkeypatch):
        monkeypatch.setattr(wave, "Z_BUDGET", 5.0)
        with pytest.raises(BudgetError) as info:
            shoot_wave(1.8, P20)
        traj = info.value.trajectory
        assert traj is not None
        assert traj.zs[-1] <= 5.0 + 1e-12

    def test_maximum_without_convergence(self, monkeypatch, critical_wave):
        # a budget past the first maximum but short of the stop
        monkeypatch.setattr(wave, "Z_BUDGET", critical_wave.z_first_max + 10.0)
        with pytest.raises(BudgetError, match="no convergence to the far equilibrium"):
            shoot_wave(2.0, P20)

    def test_shot_without_convergence(self, monkeypatch):
        monkeypatch.setattr(wave, "Z_BUDGET", 5.0)
        with pytest.raises(BudgetError, match="no convergence within z budget 5"):
            shoot_from_max(0.3, 0.5, P20)


class TestLimitBand:
    def test_limit_at_one_does_not_converge(self):
        traj = Trajectory(np.array([0.0, 1.0]), np.array([[0.1, 0.0, 0.9], [0.0, 0.0, 1.0]]))
        with pytest.raises(NonConvergenceError, match="converged to i = 1.000000, outside"):
            wave._check_limit_band(traj, P20)


def count_crossings_loop(b):
    """The reference count: a sign pass over b with |b| <= 1e-12 left out."""
    s = [v for v in b if not abs(v) <= 1e-12]
    pairs = list(zip(s, s[1:]))
    return (sum(prev > 0 > cur for prev, cur in pairs),
            sum(prev < 0 < cur for prev, cur in pairs))


class TestCrossings:
    def test_down_and_up(self):
        assert wave._count_b_crossings(np.array([1.0, -1.0, 1.0, -1.0])) == (2, 1)

    @pytest.mark.parametrize("b, counts", [
        ([1.0, 1e-12, -1e-12, 0.0, -1.0], (1, 0)),  # a plateau inside one crossing
        ([-1.0, -1e-12, 1e-12, 1.0, 1.0, 2.0, -3.0, -3.0], (1, 1)),  # repeated signs
        ([1.0, math.nan, -1.0, 1e-13, 1.0, -2.0], (1, 1)),  # NaN breaks the pair
        ([1e-12, -1e-12, 0.0], (0, 0)),
        ([], (0, 0)),
    ])
    def test_matches_loop(self, b, counts):
        assert wave._count_b_crossings(np.array(b, dtype=float)) == counts
        assert count_crossings_loop(b) == counts

    def test_random_sequences_match_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            b = rng.choice([-1.0, -1e-12, 0.0, 1e-12, 1.0, 2e-12, math.nan], size=40)
            assert wave._count_b_crossings(b) == count_crossings_loop(b)


class TestShootFromMax:
    def test_trivial_a0(self):
        traj, lim = shoot_from_max(0.0, 0.5, P20)
        assert lim == 0.5
        assert len(traj) == 1
        np.testing.assert_array_equal(traj.states[0], [0.0, 0.0, 0.5])

    def test_limit_matches_formula(self):
        traj, lim = shoot_from_max(0.3, 0.5, P20)
        assert lim == pytest.approx(analysis.i_plus_infinity(0.3, 0.5, 2.0, 0.0), abs=1e-4)

    def test_threshold_start_lands_at_minimal_level(self):
        a_star = analysis.a_star(0.5, 2.0, 0.0)
        traj, lim = shoot_from_max(a_star, 0.5, P20)
        assert abs(lim - 0.0) < 1e-3

    def test_containment(self):
        # (a, b) stays inside the widest triangle; i stays in [i_c, i0]
        t = analysis.triangle(analysis.minimal_inactive_limit(2.0), 2.0)
        traj, lim = shoot_from_max(0.3, 0.5, P20)
        for state in traj.states:
            assert analysis.triangle_contains(t, state[:2], tol=1e-6)
        assert traj.states[:, 2].min() >= -1e-6
        assert traj.states[:, 2].max() <= 0.5 + 1e-12

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            shoot_from_max(0.1, 1.0, P20)
        with pytest.raises(DomainError):
            shoot_from_max(-0.1, 0.5, P20)
        with pytest.raises(DomainError):
            shoot_from_max(0.6, 0.5, P20)  # above the cap 1 - i0

    def test_above_threshold_may_go_negative(self):
        # past a_star the level would undershoot i_c; expect negativity
        with pytest.raises(NegativityError):
            shoot_from_max(0.49, 0.51, Params(c=1.5, r=0.0))


class TestSampling:
    """Steps grow past SAMPLE_DZ; the samples stay at most that far apart."""

    def test_battery_shot(self):
        traj, _ = shoot_from_max(np.float64(0.2), np.float64(0.6),
                                 Params(c=np.float64(3.0), r=np.float64(1.0)))
        assert traj.diagnostics["dense_samples"] > 0
        assert np.diff(traj.zs).max() <= odeint.SAMPLE_DZ * (1 + 1e-12)

    def test_shoot_wave(self, interior_wave):
        traj = interior_wave.trajectory
        assert traj.diagnostics["dense_samples"] > 0
        assert np.diff(traj.zs).max() <= odeint.SAMPLE_DZ * (1 + 1e-12)


class TestCounters:
    def test_rhs_evaluations_count_the_calls(self, monkeypatch):
        # the shot calls the right-hand side through the module name the benchmark traces
        calls = []
        monkeypatch.setattr(wave, "wave_rhs", lambda y, p: calls.append(1) or wave_rhs(y, p))
        traj, _ = shoot_from_max(0.2, 0.3, P20)
        assert traj.diagnostics["rhs_evaluations"] == len(calls) > 0
        calls.clear()
        profile = shoot_wave(1.8, P20)
        assert profile.trajectory.diagnostics["rhs_evaluations"] == len(calls) > 0


class TestVerifyConstantProfile:
    def test_trivially_passes(self):
        zs = np.linspace(-10.0, 10.0, 201)
        states = np.zeros((201, 3))
        states[:, 2] = 1.0
        profile = WaveProfile(
            trajectory=Trajectory(zs, states),
            i_minus_inf=1.0,
            i_plus_inf=1.0,
            z_first_max=0.0,
            a_max=0.0,
            i_at_max=1.0,
            mu_minus=0.0,
            mu_plus=0.0,
            params=P20,
            tail_prefactor_exp=None,
        )
        rep = verify_profile(profile)
        assert rep.limit_sum_residual == 0.0
        assert rep.mass.res1 == 0.0
        assert rep.i_monotone and rep.single_max


class TestNearCriticalTails:
    """Falling tails at and just off the critical level 2 - i_c, where the rates nearly collide."""

    @pytest.mark.parametrize("s", [0.02 * k for k in range(11)])
    @pytest.mark.parametrize("r", [0.0, 1.0])
    @pytest.mark.parametrize("c", [1.0, 1.5, 2.0])
    def test_verification_passes(self, c, r, s):
        # the forward limit i_c + s^2 has rates -c/2 +- s
        i_minus = 2.0 - analysis.minimal_inactive_limit(c) - s * s
        rep = verify_profile(shoot_wave(i_minus, Params(c=c, r=r)))
        assert rep.passed

    @pytest.mark.parametrize("i0", [0.25, 0.5, 0.9])
    def test_critical_wave_at_lower_speed(self, i0):
        # c = 2 sqrt(1 - i0) puts i_c at i0, so i_minus = 2 - i0 is the critical level
        c = 2.0 * math.sqrt(1.0 - i0)
        w = shoot_wave(2.0 - i0, Params(c=c, r=0.0))
        assert w.mu_plus == -c / 2.0
        assert w.tail_prefactor_exp == pytest.approx(1.0, abs=0.15)
        assert verify_profile(w).passed

    @pytest.mark.parametrize("s", [0.0, 0.05])
    @pytest.mark.parametrize("prefactor", [0.7, 1.0, 1.3, 2.0])
    def test_recovers_synthetic_prefactor(self, prefactor, s):
        # a profile rising as e^{z/2} to a = 1 at z = 0 and falling as
        # e^{-cz/2} cosh(sz) (zeta + 1)^prefactor, zeta = tanh(sz)/s, with exact
        # b = a'. A fit of y = C1 z + C2 read as a log-log slope gives ~1 for each.
        c = 2.0
        zs = np.linspace(-60.0, 80.0, 14001)
        rise, fall = zs[zs <= 0], zs[zs > 0]
        zeta = np.tanh(s * fall) / s if s > 0 else fall
        a = np.exp(-c * fall / 2.0) * np.cosh(s * fall) * (zeta + 1.0) ** prefactor
        b = a * (-c / 2.0 + s * np.tanh(s * fall) + prefactor / (np.cosh(s * fall) ** 2 * (zeta + 1.0)))
        states = np.zeros((zs.size, 3))
        states[:, 0] = np.concatenate([np.exp(rise / 2.0), a])
        states[:, 1] = np.concatenate([np.exp(rise / 2.0) / 2.0, b])
        i_plus = analysis.minimal_inactive_limit(c) + s * s
        mu_minus, mu_plus, fitted = wave._fit_tails(Trajectory(zs, states), 1.0, i_plus,
                                                    Params(c=c, r=0.0))
        assert mu_minus == pytest.approx(0.5, rel=1e-9)
        assert mu_plus == -c / 2.0
        assert fitted == pytest.approx(prefactor, rel=1e-6)
