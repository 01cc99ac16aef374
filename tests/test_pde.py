import json
import math
import re

import numpy as np
import pytest

from branchwaves import cli, pde
from branchwaves.errors import (
    BlowUpError,
    ContaminatedMeasurementError,
    DomainError,
)
from branchwaves.model import pde_rhs
from branchwaves.pde import (
    FieldSeries,
    Grid,
    comoving_profile,
    front_position,
    measure_speed,
    plateau,
    simulate,
)

R0 = 0.0  # production rate of the runs below


def bump(grid):
    xs = grid.xs()
    return 0.5 * np.exp(-(xs**2)), np.zeros_like(xs)


@pytest.fixture(scope="module")
def bump_series():
    # scaled-down front emergence run shared by the slower tests
    grid = Grid(-70.0, 70.0, 1401)
    return simulate(*bump(grid), R0, grid, 16.0, 0.5)


def rk4_reference(A, I, r, grid, times):
    """Snapshots at times of classical RK4 steps under dt <= 0.4 dx^2 and dt <= 0.1.

    The reference the RKC steps of `simulate` are checked against: fourth
    order, with a step set by diffusive stability rather than accuracy.
    """
    dt_cap = min(0.4 * grid.dx**2, 0.1)
    snaps = [(A, I)]
    for span in np.diff(times):
        n_sub = max(1, int(math.ceil(span / dt_cap - 1e-12)))
        dt = span / n_sub
        for _ in range(n_sub):
            kA1, kI1 = pde_rhs(A, I, r, grid.dx)
            kA2, kI2 = pde_rhs(A + 0.5 * dt * kA1, I + 0.5 * dt * kI1, r, grid.dx)
            kA3, kI3 = pde_rhs(A + 0.5 * dt * kA2, I + 0.5 * dt * kI2, r, grid.dx)
            kA4, kI4 = pde_rhs(A + dt * kA3, I + dt * kI3, r, grid.dx)
            A = A + (dt / 6.0) * (kA1 + 2.0 * kA2 + 2.0 * kA3 + kA4)
            I = I + (dt / 6.0) * (kI1 + 2.0 * kI2 + 2.0 * kI3 + kI4)
        snaps.append((A, I))
    return snaps


def field_gaps(series, reference):
    """Largest |A - A_ref| and |I - I_ref| over all snapshots."""
    return tuple(
        max(float(np.max(np.abs(s[f] - ref[f]))) for s, ref in zip(series.snapshots, reference))
        for f in (0, 1)
    )


def beta(s):
    """Stability bound (1 + w0) T_s''(w0) / T_s'(w0) of s damped Chebyshev stages."""
    w0 = 1.0 + pde.DAMPING / s**2
    T = np.polynomial.Chebyshev.basis(s)
    return (1.0 + w0) * T.deriv(2)(w0) / T.deriv(1)(w0)


class TestGrid:
    def test_spacing(self):
        g = Grid(-100.0, 100.0, 2001)
        assert g.dx == pytest.approx(0.1)
        assert g.xs()[0] == -100.0
        assert g.xs()[-1] == 100.0

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            Grid(0.0, 1.0, 15)

    def test_empty_domain(self):
        with pytest.raises(DomainError):
            Grid(1.0, 1.0, 32)

    @pytest.mark.parametrize("x_min, x_max", [(-math.inf, 0.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_infinite_domain(self, x_min, x_max):
        with pytest.raises(DomainError, match="must be finite and non-empty"):
            Grid(x_min, x_max, 32)

    @pytest.mark.parametrize("x_min, x_max, n", [(0.0, 1e-320, 32), (-1e300, 1e300, 16)])
    def test_spacing_square_out_of_range(self, x_min, x_max, n):
        # 1/dx^2 of the Laplacian would divide by zero, or dx^2 overflow
        with pytest.raises(DomainError, match="positive, finite square"):
            Grid(x_min, x_max, n)


class TestSimulate:
    def test_steady_state_exact(self):
        g = Grid(0.0, 10.0, 32)
        K = 1.7
        series = simulate(np.zeros(32), np.full(32, K), R0, g, 2.0, 0.5)
        for A, I in series.snapshots:
            assert np.max(np.abs(A)) == 0.0
            assert np.max(np.abs(I - K)) == 0.0

    def test_snapshot_times(self):
        g = Grid(0.0, 10.0, 32)
        series = simulate(np.zeros(32), np.zeros(32), R0, g, 1.2, 0.5)
        np.testing.assert_allclose(series.times, [0.0, 0.5, 1.0, 1.2])

    def test_mirror_symmetry(self):
        g = Grid(-20.0, 20.0, 401)
        xs = g.xs()
        series = simulate(0.5 * np.exp(-(xs**2)), np.zeros(401), R0, g, 3.0, 1.0)
        for A, I in series.snapshots:
            assert np.max(np.abs(A - A[::-1])) < 1e-10
            assert np.max(np.abs(I - I[::-1])) < 1e-10

    def test_positivity(self, bump_series):
        for A, I in bump_series.snapshots:
            assert A.min() >= -1e-9
            assert I.min() >= -1e-9

    def test_monotone_deposition(self, bump_series):
        prev = None
        for _, I in bump_series.snapshots:
            if prev is not None:
                assert np.min(I - prev) >= -1e-12
            prev = I

    def test_mass_transfer_rate(self, bump_series):
        # d/dt integral(A + I) = (1 + r) integral(A) at quadrature accuracy
        g = bump_series.grid
        times = bump_series.times
        total = np.array(
            [np.trapezoid(A + I, dx=g.dx) for A, I in bump_series.snapshots]
        )
        active = np.array(
            [np.trapezoid(A, dx=g.dx) for A, _ in bump_series.snapshots]
        )
        k1, k2 = 8, 20
        gained = total[k2] - total[k1]
        fed = np.trapezoid(active[k1 : k2 + 1], times[k1 : k2 + 1])
        assert gained == pytest.approx(fed, rel=0.01)

    def test_blow_up_carries_series(self):
        g = Grid(0.0, 1.0, 21)
        with pytest.raises(BlowUpError) as info:
            simulate(np.full(21, -10.0), np.zeros(21), R0, g, 5.0, 0.1)
        series = info.value.series
        assert series is not None
        assert len(series.times) == len(series.snapshots) >= 1
        assert np.isfinite(series.snapshots[-1][0]).all()

    def test_shape_mismatch(self):
        g = Grid(0.0, 1.0, 21)
        with pytest.raises(ValueError):
            simulate(np.zeros(20), np.zeros(21), R0, g, 1.0, 0.5)

    def test_negative_rate_rejected(self):
        g = Grid(0.0, 1.0, 21)
        with pytest.raises(DomainError, match="production rate r must be >= 0"):
            simulate(np.zeros(21), np.zeros(21), -1.0, g, 1.0, 0.5)
        with pytest.raises(DomainError, match="production rate r must be >= 0"):
            simulate(np.zeros(21), np.zeros(21), math.inf, g, 1.0, 0.5)

    @pytest.mark.parametrize("t_end", [1e300, 0.5 * (10**8 // 32 - 1) + 0.1])
    def test_snapshot_storage_is_capped(self, t_end):
        # 16 points hold 10**8 // 32 snapshots of both fields; the second
        # end time asks for one more (its partial last interval)
        g = Grid(0.0, 1.0, 16)
        with pytest.raises(DomainError, match=re.escape(f"t_end = {t_end:g} at snapshot_dt")):
            simulate(np.zeros(16), np.zeros(16), R0, g, t_end, 0.5)

    @pytest.mark.parametrize("t_end, snapshot_dt", [
        (math.nan, 0.5), (math.inf, 0.5), (0.0, 0.5), (1.0, math.nan), (1.0, math.inf),
    ])
    def test_times_must_be_positive_and_finite(self, t_end, snapshot_dt):
        g = Grid(0.0, 1.0, 21)
        with pytest.raises(DomainError):
            simulate(np.zeros(21), np.zeros(21), R0, g, t_end, snapshot_dt)

    def test_at_unknown_time(self, bump_series):
        with pytest.raises(DomainError):
            bump_series.at(0.123)


class TestRkc:
    @pytest.fixture(scope="class")
    def rk4_bump(self, bump_series):
        return rk4_reference(*bump(bump_series.grid), R0, bump_series.grid, bump_series.times)

    def test_fields_match_rk4(self, bump_series, rk4_bump):
        gap_a, gap_i = field_gaps(bump_series, rk4_bump)
        assert gap_a <= 2e-3
        assert gap_i <= 3e-3

    def test_front_matches_rk4(self, bump_series, rk4_bump):
        g = bump_series.grid
        x_rkc = front_position(bump_series.snapshots[-1][0], g, 0.1)
        x_rk4 = front_position(rk4_bump[-1][0], g, 0.1)
        assert x_rkc == pytest.approx(x_rk4, abs=0.05)

    def test_second_order(self, monkeypatch):
        g = Grid(-20.0, 20.0, 401)
        times = np.array([0.0, 2.0, 4.0])
        reference = rk4_reference(*bump(g), 1.0, g, times)
        gaps = []
        for step in (0.04, 0.02):
            monkeypatch.setattr(pde, "STEP", step)
            gaps.append(field_gaps(simulate(*bump(g), 1.0, g, 4.0, 2.0), reference))
        for coarse, fine in zip(*gaps):
            assert 3.0 < coarse / fine < 5.0

    @pytest.mark.parametrize("grid, r, stages", [
        (Grid(-30.0, 120.0, 2001), 0.0, 5),  # the reference grid
        (Grid(-30.0, 120.0, 2001), 1.0, 5),
        (Grid(-70.0, 70.0, 1401), 0.0, 4),
        (Grid(0.0, 1.0, 21), 2.0, 8),
        (Grid(0.0, 1e4, 16), 0.0, 2),
    ])
    def test_stage_count_is_least_stable(self, grid, r, stages):
        diag = simulate(*bump(grid), r, grid, pde.STEP, 0.5).diagnostics
        s, h_rho = diag["stages"], diag["h"] * (4.0 / grid.dx**2 + 5.0 + r)
        assert s == stages
        assert beta(s) >= h_rho
        assert s == 2 or h_rho > beta(s - 1)

    def test_stage_cap(self, monkeypatch):
        # 16 points over 1e-4 would need about 1e5 stages per step, an O(s^2)
        # search of hours; one evaluation at the cap rejects it first
        calls = []
        chebyshev = pde._chebyshev
        monkeypatch.setattr(pde, "_chebyshev", lambda s: calls.append(s) or chebyshev(s))
        g = Grid(0.0, 1e-4, 16)
        with pytest.raises(DomainError, match=f"over {pde.MAX_STAGES} RKC stages"):
            simulate(*bump(g), R0, g, 1.0, 0.5)
        assert calls == [pde.MAX_STAGES]

    def test_diagnostics(self, bump_series):
        diag = bump_series.diagnostics
        assert diag["h"] == 0.02
        assert diag["steps"] == 800
        assert diag["rhs_evaluations"] == diag["steps"] * diag["stages"]
        assert 0.0 <= diag["mass_balance_residual"] < 1e-13

    def test_source_term_breaks_mass_balance(self, monkeypatch):
        def leaky(A, I, r, dx):
            dA, dI = pde_rhs(A, I, r, dx)
            return dA + 1e-6, dI

        monkeypatch.setattr(pde, "pde_rhs", leaky)
        g = Grid(-20.0, 20.0, 401)
        with pytest.raises(BlowUpError, match="mass balance residual") as info:
            simulate(*bump(g), R0, g, 2.0, 0.5)
        series = info.value.series
        assert len(series.times) == len(series.snapshots) == 1
        assert series.diagnostics["steps"] == 25

    def test_cli_reports_diagnostics(self, tmp_path, capsys):
        argv = ["pde", "--grid", "201:-30:120", "--t-end", "2", "--out", str(tmp_path / "p")]
        code = cli.main(argv)
        diag = json.loads(capsys.readouterr().out)["diagnostics"]
        assert code == 0
        assert diag["stages"] == 2
        assert diag["steps"] == 100
        assert diag["rhs_evaluations"] == 200
        assert diag["h"] == 0.02
        assert diag["mass_balance_residual"] < 1e-13


class TestFrontPosition:
    def test_all_below_sentinel(self):
        g = Grid(0.0, 10.0, 101)
        assert front_position(np.zeros(101), g, 0.1) == -math.inf

    def test_step_interpolation(self):
        g = Grid(0.0, 10.0, 101)
        A = np.where(g.xs() <= 5.0, 1.0, 0.0)
        x = front_position(A, g, 0.3)
        assert 5.0 <= x <= 5.0 + g.dx

    def test_above_everywhere_reports_right_end(self):
        g = Grid(0.0, 10.0, 101)
        assert front_position(np.ones(101), g, 0.1) == 10.0

    def test_threshold_validation(self):
        g = Grid(0.0, 10.0, 101)
        with pytest.raises(DomainError):
            front_position(np.zeros(101), g, 0.0)
        with pytest.raises(DomainError):
            front_position(np.zeros(101), g, math.nan)

    def test_translation_identity(self):
        # shifting a sampled profile by whole cells moves the front exactly
        g = Grid(-40.0, 40.0, 801)
        xs = g.xs()
        profile = 0.4 / (1.0 + np.exp(2.0 * (xs - 0.0)))
        m = 30  # 3.0 length units at dx = 0.1
        shifted = np.concatenate([profile[:m][::-1] * 0 + profile[0], profile[:-m]])
        x1 = front_position(profile, g, 0.1)
        x2 = front_position(shifted, g, 0.1)
        assert x2 - x1 == pytest.approx(m * g.dx, abs=1e-12)


class TestPlateau:
    GRID = Grid(0.0, 100.0, 1001)

    def test_mean_over_the_window(self):
        xs = self.GRID.xs()
        I = 1.0 + 0.01 * xs
        # window [10, 80.05 - 20] holds x = 10.0, ..., 60.0; the mean of a
        # linear field over evenly spaced points is its midpoint value
        assert plateau(I, self.GRID, 80.05) == pytest.approx(1.35, rel=1e-12)

    def test_no_front(self):
        assert plateau(np.ones(1001), self.GRID, -math.inf) is None

    def test_empty_window(self):
        # the window [10, x_front - 20] is empty until the front passes x = 30
        assert plateau(np.ones(1001), self.GRID, 29.95) is None
        assert plateau(np.ones(1001), self.GRID, 30.05) == 1.0


class TestMeasureSpeed:
    @staticmethod
    def synthetic_series(speed):
        g = Grid(-40.0, 40.0, 801)
        xs = g.xs()
        times = np.linspace(0.0, 6.0, 13)
        snaps = [
            (0.4 / (1.0 + np.exp(2.0 * (xs + 20.0 - speed * t))), np.zeros(801))
            for t in times
        ]
        return FieldSeries(g, times, snaps)

    def test_exact_translation_speed(self):
        series = self.synthetic_series(3.0)
        m = measure_speed(series, 0.1, (0.0, 6.0))
        assert m.c_est == pytest.approx(3.0, rel=1e-3)
        assert m.residual < 1e-3

    def test_window_validation(self):
        series = self.synthetic_series(3.0)
        with pytest.raises(DomainError):
            measure_speed(series, 0.1, (0.0, 7.0))
        with pytest.raises(DomainError):
            measure_speed(series, 0.1, (4.0, 4.0))

    def test_boundary_contamination(self):
        series = self.synthetic_series(11.0)  # front exits by t = 6
        with pytest.raises(ContaminatedMeasurementError):
            measure_speed(series, 0.1, (0.0, 6.0))

    def test_emergent_speed(self, bump_series):
        # the young front still carries its logarithmic shift, so this
        # scaled-down run sits ~5% low; the full-size acceptance run
        # measures the 5% claim itself
        m = measure_speed(bump_series, 0.1, (10.0, 16.0))
        assert m.c_est == pytest.approx(2.0, rel=0.06)


class TestComovingProfile:
    def test_anchored_at_threshold(self, bump_series):
        prof = comoving_profile(bump_series, 16.0, 2.0, 0.1)
        assert np.interp(0.0, prof.z, prof.a) == pytest.approx(0.1, abs=1e-6)

    def test_steady_state_flat(self):
        g = Grid(0.0, 10.0, 32)
        series = simulate(np.zeros(32), np.ones(32), R0, g, 1.0, 0.5)
        prof = comoving_profile(series, 1.0, 2.0, 0.1)
        assert np.max(np.abs(prof.a)) == 0.0
        assert np.max(np.abs(prof.i - 1.0)) == 0.0

    def test_late_shapes_agree(self, bump_series):
        # shape convergence: two late snapshots nearly coincide comoving
        p1 = comoving_profile(bump_series, 14.0, 2.0, 0.1)
        p2 = comoving_profile(bump_series, 16.0, 2.0, 0.1)
        zq = np.linspace(-8.0, 8.0, 400)
        a1 = np.interp(zq, p1.z, p1.a)
        a2 = np.interp(zq, p2.z, p2.a)
        scale = max(np.max(np.abs(a1)), np.max(np.abs(a2)))
        assert np.max(np.abs(a1 - a2)) < 0.02 * scale
