import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from branchwaves import cli, pde
from branchwaves.errors import (
    BlowUpError,
    ContaminatedMeasurementError,
    DomainError,
    PositivityError,
)
from branchwaves.model import Params, laplacian, pde_rhs, reaction
from branchwaves.pde import (
    FieldSeries,
    Grid,
    bump,
    front_position,
    measure_speed,
    plateau,
    shape_misfit,
    simulate,
)
from branchwaves.wave import shoot_wave

R0 = 0.0  # production rate of the runs below


@pytest.fixture(scope="module")
def bump_series():
    # scaled-down front emergence run shared by the slower tests
    grid = Grid(-70.0, 70.0, 1401)
    return simulate(*bump(grid), R0, grid, 16.0)


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


def split_reference(A, I, r, grid, times):
    """Snapshots at times of the split steps of `simulate`, a new array per operation.

    The bitwise oracle of the buffers `simulate` updates in place: the same
    operations on the same operands, in the same order. Each snapshot interval
    is R(h/2) D(h) R(h) ... D(h) R(h/2): R(dt) the midpoint rule on the
    reaction, in ceil(dt (5 + r) / 2) substeps once dt (5 + r) passes 2, and
    D(h) the correlation of the reflected A with the taps of one RKC step.
    """
    s = pde._stages(pde.STEP * 4.0 / grid.dx**2)

    def react(Y, dt):
        m = max(1, math.ceil(dt * (5.0 + r) / 2.0))
        dt /= m
        for _ in range(m):
            mid = np.array(reaction(Y[0], Y[1], r)) * (0.5 * dt) + Y
            Y = Y + np.array(reaction(mid[0], mid[1], r)) * dt
        return Y

    Y = np.array([A, I])
    snaps = [(A, I)]
    for span in np.diff(times):
        n_steps = max(1, math.ceil(span / pde.STEP - 1e-12))
        h = float(span) / n_steps
        taps = pde._diffusion_taps(h, grid.dx, s)
        Y = react(Y, 0.5 * h)
        for step in range(n_steps):
            Y = np.array([np.correlate(np.pad(Y[0], s, mode="reflect"), taps), Y[1]])
            Y = react(Y, h if step < n_steps - 1 else 0.5 * h)
        snaps.append((Y[0], Y[1]))
    return snaps


def rkc_stages(s):
    """Stage coefficients (mu, nu, mu~, gamma~) of s-stage RKC (Sommeijer, Shampine &
    Verwer 1997), from the damped Chebyshev values T_j, T_j', T_j'' at w0, j = 0..s."""
    w0 = 1.0 + pde.DAMPING / (s * s)
    T, dT, d2T = [1.0, w0], [0.0, 1.0], [0.0, 0.0]
    for j in range(2, s + 1):
        T.append(2.0 * w0 * T[j - 1] - T[j - 2])
        dT.append(2.0 * T[j - 1] + 2.0 * w0 * dT[j - 1] - dT[j - 2])
        d2T.append(4.0 * dT[j - 1] + 2.0 * w0 * d2T[j - 1] - d2T[j - 2])
    w1 = dT[s] / d2T[s]
    b = [d2T[max(j, 2)] / dT[max(j, 2)] ** 2 for j in range(s + 1)]  # b_0 = b_1 = b_2
    stages = [(0.0, 0.0, b[1] * w1, 0.0)]
    for j in range(2, s + 1):
        mu_t = 2.0 * b[j] * w1 / b[j - 1]
        stages.append((2.0 * b[j] * w0 / b[j - 1], -b[j] / b[j - 2], mu_t,
                       -(1.0 - b[j - 1] * T[j - 1]) * mu_t))
    return stages


def rkc_step(A, h, dx, s):
    """One s-stage RKC step of A' = Lap(A) over h, its increment recurrence on new arrays:
    K_j = mu K_{j-1} + nu K_{j-2} + mu~ h Lap(A + K_{j-1}) + gamma~ h Lap(A), K_j = A_j - A."""
    stages = rkc_stages(s)
    F0 = laplacian(A, dx)
    prev, cur = np.zeros_like(A), F0 * (stages[0][2] * h)
    for mu, nu, mu_t, gamma_t in stages[1:]:
        F = laplacian(A + cur, dx)
        cur, prev = mu * cur + nu * prev + (mu_t * h) * F + (gamma_t * h) * F0, cur
    return A + cur


def field_gaps(series, reference):
    """Largest |A - A_ref| and |I - I_ref| over all snapshots."""
    return tuple(
        max(float(np.max(np.abs(s[f] - ref[f]))) for s, ref in zip(series.snapshots, reference))
        for f in (0, 1)
    )


def gaps_to_rk4(r):
    """`field_gaps` of `simulate` at rate r to `rk4_reference`, the bump on 401 points to t = 4."""
    g = Grid(-20.0, 20.0, 401)
    times = pde.SNAPSHOT_DT * np.arange(9)
    return field_gaps(simulate(*bump(g), r, g, times[-1]), rk4_reference(*bump(g), r, g, times))


def beta(s):
    """Stability bound (1 + w0) T_s''(w0) / T_s'(w0) of s damped Chebyshev stages."""
    w0 = 1.0 + pde.DAMPING / s**2
    T = np.polynomial.Chebyshev.basis(s)
    return (1.0 + w0) * T.deriv(2)(w0) / T.deriv(1)(w0)


class TestBump:
    def test_bump_formula(self):
        # amplitude exp(-(x/width)^2) in empty tissue
        g = Grid(-4.0, 4.0, 81)
        A, I = bump(g, 2.0, 0.5)
        np.testing.assert_array_equal(A, 2.0 * np.exp(-((g.xs() / 0.5) ** 2)))
        np.testing.assert_array_equal(I, np.zeros(81))


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

    def test_storage_cap(self):
        # every run stores at least 4 n values; the grid is checked before any allocation
        Grid(0.0, 1.0, pde.MAX_STORED_VALUES // 4)
        with pytest.raises(DomainError, match="at most 25000000 grid points"):
            Grid(0.0, 1.0, pde.MAX_STORED_VALUES // 4 + 1)

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
        series = simulate(np.zeros(32), np.full(32, K), R0, g, 2.0)
        for A, I in series.snapshots:
            assert np.max(np.abs(A)) == 0.0
            assert np.max(np.abs(I - K)) == 0.0

    def test_snapshot_times(self):
        g = Grid(0.0, 10.0, 32)
        series = simulate(np.zeros(32), np.zeros(32), R0, g, 1.2)
        np.testing.assert_allclose(series.times, [0.0, 0.5, 1.0, 1.2])

    @pytest.mark.parametrize("t_end", [1e-9, 5e-10])
    def test_end_time_below_the_time_tolerance(self, t_end):
        # no whole snapshot interval: t = 0 is kept and t_end is reached by a step
        g = Grid(-10.0, 40.0, 401)
        A0, I0 = bump(g)
        series = simulate(A0, I0, R0, g, t_end=t_end)
        assert series.times.tolist() == [0.0, t_end]
        assert series.diagnostics["steps"] >= 1
        np.testing.assert_array_equal(series.snapshots[0][0], A0)

    def test_mirror_symmetry(self):
        g = Grid(-20.0, 20.0, 401)
        series = simulate(*bump(g), R0, g, 3.0)
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
        # the driver of the CLI blow-up tests: A up to 1000, far past the 0 <= A <= 1 the
        # reaction substeps are sized for, overflows before t = 0.5
        g = Grid(-10.0, 10.0, 201)
        with pytest.raises(BlowUpError) as info:
            simulate(1e3 * np.exp(-g.xs() ** 2), np.zeros(g.n), R0, g, 8.0)
        series = info.value.series
        assert series is not None
        assert len(series.times) == len(series.snapshots) >= 1
        assert np.isfinite(series.snapshots[-1][0]).all()

    def test_unresolved_spike_fails_positivity(self):
        # the damped Chebyshev taps have negative entries, which a one-point spike on the
        # reference grid meets at full weight: measured min A = -6.22e-2 at t = 0.5
        g = pde.GRID
        A = np.zeros(g.n)
        A[np.argmin(np.abs(g.xs()))] = 1.0
        with pytest.raises(PositivityError, match=r"^A = -0\.0622 < -1e-12 max A at t = 0\.5$") as info:
            simulate(A, np.zeros(g.n), R0, g, 2.0)
        series = info.value.series
        assert len(series.times) == len(series.snapshots) == 1
        assert series.diagnostics["min_A"] == pytest.approx(-6.22e-2, rel=1e-2)

    def test_shape_mismatch(self):
        g = Grid(0.0, 1.0, 21)
        with pytest.raises(ValueError):
            simulate(np.zeros(20), np.zeros(21), R0, g, 1.0)

    def test_negative_rate_rejected(self):
        g = Grid(0.0, 1.0, 21)
        with pytest.raises(DomainError, match="production rate r must be >= 0"):
            simulate(np.zeros(21), np.zeros(21), -1.0, g, 1.0)
        with pytest.raises(DomainError, match="production rate r must be >= 0"):
            simulate(np.zeros(21), np.zeros(21), math.inf, g, 1.0)

    @pytest.mark.parametrize("t_end", [1e300, 0.5 * (10**8 // 32 - 1) + 0.1])
    def test_snapshot_storage_is_capped(self, t_end):
        # 16 points hold 10**8 // 32 snapshots of both fields; the second
        # end time asks for one more (its partial last interval)
        g = Grid(0.0, 1.0, 16)
        with pytest.raises(DomainError, match=re.escape(f"t_end = {t_end:g} at snapshot_dt")):
            simulate(np.zeros(16), np.zeros(16), R0, g, t_end)

    @pytest.mark.parametrize("step", [0.0, -0.05, math.nan, math.inf])
    def test_step_must_be_positive_and_finite(self, step):
        g = Grid(0.0, 1.0, 21)
        with pytest.raises(DomainError, match="step must be positive and finite"):
            simulate(np.zeros(21), np.zeros(21), R0, g, 1.0, step)

    def test_step_argument_matches_the_patched_constant(self, monkeypatch):
        g = Grid(-20.0, 20.0, 201)
        given = simulate(*bump(g), 1.0, g, 1.0, 0.1)
        monkeypatch.setattr(pde, "STEP", 0.1)
        patched = simulate(*bump(g), 1.0, g, 1.0)
        assert given.diagnostics == patched.diagnostics
        for got, want in zip(given.snapshots, patched.snapshots, strict=True):
            np.testing.assert_array_equal(got, want)

    # each id names t_end and the snapshot spacing
    @pytest.mark.parametrize("t_end", [math.nan, math.inf, 0.0],
                             ids=lambda t_end: f"{t_end}-{pde.SNAPSHOT_DT}")
    def test_times_must_be_positive_and_finite(self, t_end):
        g = Grid(0.0, 1.0, 21)
        with pytest.raises(DomainError, match="t_end must be positive and finite"):
            simulate(np.zeros(21), np.zeros(21), R0, g, t_end)


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
        times = pde.SNAPSHOT_DT * np.arange(9)
        reference = rk4_reference(*bump(g), 1.0, g, times)
        gaps = []
        # both steps divide the snapshot spacing, so the fine one is exactly half the coarse
        for step in (0.05, 0.025):
            monkeypatch.setattr(pde, "STEP", step)
            gaps.append(field_gaps(simulate(*bump(g), 1.0, g, times[-1]), reference))
        for coarse, fine in zip(*gaps):
            assert 3.0 < coarse / fine < 5.0

    @pytest.mark.parametrize("r, bound_a, bound_i", [
        (1.0, 5.5e-5, 3.5e-4),
        (100.0, 3.5e-5, 3.5e-3),
        (1000.0, 7e-6, 4.5e-3),
    ], ids=["r=1", "r=100", "r=1000"])
    def test_gap_to_rk4_at_step(self, r, bound_a, bound_i, monkeypatch):
        # bounds twice the gaps measured at step 0.02. At r = 1 they price the split on the
        # steep start, where the reaction and the diffusion do not commute (the unsplit
        # RKC steps missed by 2.0e-5 and 2.6e-5); at r = 100 and 1000, h (5 + r) passes
        # 2 and each reaction step takes substeps (2 and 11 per full step), without
        # which I misses by 8e-3 and 0.28
        monkeypatch.setattr(pde, "STEP", 0.02)
        gap_a, gap_i = gaps_to_rk4(r)
        assert gap_a <= bound_a
        assert gap_i <= bound_i

    @pytest.mark.parametrize("r, bound_a, bound_i", [
        (1.0, 3.5e-4, 2.0e-3),
        (100.0, 1.6e-4, 1.3e-2),
        (1000.0, 4.5e-5, 2.1e-2),
    ], ids=["r=1", "r=100", "r=1000"])
    def test_gap_to_rk4_at_default_step(self, r, bound_a, bound_i):
        # bounds twice the gaps measured at STEP = 0.05: 1.6e-4 and 9.9e-4 at r = 1,
        # 7.6e-5 and 6.4e-3 at r = 100 (3 reaction substeps per full step), 2.2e-5 and
        # 1.0e-2 at r = 1000 (26)
        gap_a, gap_i = gaps_to_rk4(r)
        assert gap_a <= bound_a
        assert gap_i <= bound_i

    @pytest.mark.parametrize("grid, r, stages", [
        (Grid(-30.0, 120.0, 2001), 0.0, 8),  # the reference grid
        (Grid(-30.0, 120.0, 2001), 1.0, 8),
        (Grid(-70.0, 70.0, 1401), 0.0, 6),
        (Grid(0.0, 1.0, 21), 2.0, 12),
        (Grid(0.0, 1e4, 16), 0.0, 2),
    ])
    def test_stage_count_is_least_stable(self, grid, r, stages):
        # the stages carry the diffusion alone, whose Gershgorin bound is 4/dx^2
        diag = simulate(*bump(grid), r, grid, pde.STEP).diagnostics
        s, h_rho = diag["stages"], diag["h"] * 4.0 / grid.dx**2
        assert s == stages
        assert beta(s) >= h_rho
        assert s == 2 or h_rho > beta(s - 1)

    def test_stage_cap(self, monkeypatch):
        # 16 points over 1e-4 would need about 1e5 stages per step, an O(s^2)
        # search of hours; the doubling reaches the cap in ten evaluations and stops there
        calls = []
        chebyshev = pde._chebyshev
        monkeypatch.setattr(pde, "_chebyshev", lambda s: calls.append(s) or chebyshev(s))
        g = Grid(0.0, 1e-4, 16)
        with pytest.raises(DomainError, match=f"over {pde.MAX_STAGES} RKC stages"):
            simulate(*bump(g), R0, g, 1.0)
        assert calls == [2, 4, 8, 16, 32, 64, 128, 256, 512, pde.MAX_STAGES]

    def test_beta_grows_with_s(self):
        # the precondition of the bisection in `_stages`
        betas = [pde._chebyshev(s)[0] for s in range(2, pde.MAX_STAGES + 1)]
        assert all(b0 < b1 for b0, b1 in zip(betas, betas[1:]))

    def test_stage_search_is_the_least_stable(self):
        # at beta(s) and one ulp below it s stages are stable and s - 1 are not;
        # one ulp above it takes s + 1
        for s in (2, 3, 5, 47, 500, 707, 985, 999):
            b = pde._chebyshev(s)[0]
            assert pde._stages(b) == s
            assert pde._stages(math.nextafter(b, 0.0)) == s
            assert pde._stages(math.nextafter(b, math.inf)) == s + 1
        assert pde._stages(pde._chebyshev(pde.MAX_STAGES)[0]) == pde.MAX_STAGES

    @pytest.mark.parametrize("s, n", [(2, 401), (4, 401), (5, 401), (8, 401), (47, 401),
                                      (74, 64)])
    def test_taps_match_the_stage_recurrence(self, s, n):
        # one D step at the stability edge h rho = beta(s) against the RKC increment
        # recurrence; at s > n the reflection repeats. Measured: at most 2.9e-14 max|A|,
        # taps symmetric to 1.1e-16 and summing to 1 within 2.9e-14
        h = pde.STEP
        dx = math.sqrt(4.0 * h / beta(s))
        A = np.random.default_rng(7).uniform(0.0, 1.0, n)
        taps = pde._diffusion_taps(h, dx, s)
        assert taps.shape == (2 * s + 1,)
        assert np.max(np.abs(taps - taps[::-1])) <= 1e-15
        assert abs(taps.sum() - 1.0) <= 1e-13
        D = np.correlate(np.pad(A, s, mode="reflect"), taps)
        assert np.max(np.abs(D - rkc_step(A, h, dx, s))) <= 1e-13 * np.max(np.abs(A))

    @pytest.mark.parametrize("L, stages", [(0.0224, 985), (0.0312, 707)])
    def test_mass_balance_near_the_stage_cap(self, L, stages, monkeypatch):
        # taps of up to 1971 points round the mass D carries by 7.3e-12 and 8.1e-12
        # relative, measured at step 0.02, where these grids stay under MAX_STAGES; the
        # bound is about twice that, 5 times under MASS_BALANCE_TOL
        monkeypatch.setattr(pde, "STEP", 0.02)
        g = Grid(0.0, L, 64)
        diag = simulate(*bump(g), 1.0, g, 1.0).diagnostics
        assert diag["stages"] == stages
        assert diag["mass_balance_residual"] < 2e-11

    def test_diagnostics(self, bump_series):
        diag = bump_series.diagnostics
        assert diag["h"] == pde.STEP
        assert diag["steps"] == round(16.0 / pde.STEP)
        assert diag["rhs_evaluations"] == diag["stages"]  # one step size: the taps are built once
        assert diag["min_A"] >= 0.0
        assert 0.0 <= diag["mass_balance_residual"] < 1e-13
        # the scheme's own pulled speed, from the run's taps
        assert (diag["c_star_scheme"], diag["lambda_star"]) == pde.spreading_speed(
            bump_series.grid.dx, pde.STEP)

    def test_source_term_breaks_mass_balance(self, monkeypatch):
        # a source in either part of the split is caught at the first snapshot
        def leaky_laplacian(A, dx):
            lap = laplacian(A, dx)
            lap += 1e-6
            return lap

        def leaky_reaction(A, I, r, out=None):
            dA, dI = reaction(A, I, r, out)
            dA += 1e-6
            return dA, dI

        g = Grid(-20.0, 20.0, 401)
        for name, leaky in (("laplacian", leaky_laplacian), ("reaction", leaky_reaction)):
            with monkeypatch.context() as patch:
                patch.setattr(pde, name, leaky)
                with pytest.raises(BlowUpError, match="mass balance residual") as info:
                    simulate(*bump(g), R0, g, 2.0)
            series = info.value.series
            assert len(series.times) == len(series.snapshots) == 1
            assert series.diagnostics["steps"] == round(pde.SNAPSHOT_DT / pde.STEP)

    def test_stage_buffers_match_plain_expressions(self):
        g = Grid(-20.0, 20.0, 401)
        series = simulate(*bump(g), 1.0, g, 1.0)
        reference = split_reference(*bump(g), 1.0, g, series.times)
        for got, want in zip(series.snapshots, reference, strict=True):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("grid, t_end", [(Grid(0.0, 0.0312, 64), 0.7),
                                             (Grid(0.0, 0.1, 16), 1.3)])
    def test_repeated_reflection_matches_plain_expressions(self, grid, t_end, monkeypatch):
        # at s >= n the mirror gather reflects more than once, as `np.pad` does; t_end ends
        # on a partial snapshot interval, whose step size builds a second set of taps. The
        # step is pinned to 0.02, where 64 points over 0.0312 stay under MAX_STAGES (707)
        monkeypatch.setattr(pde, "STEP", 0.02)
        series = simulate(*bump(grid), 1.0, grid, t_end)
        assert series.diagnostics["stages"] >= grid.n
        assert series.diagnostics["rhs_evaluations"] == 2 * series.diagnostics["stages"]
        reference = split_reference(*bump(grid), 1.0, grid, series.times)
        for got, want in zip(series.snapshots, reference, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_snapshots_do_not_depend_on_the_blas_thread_count(self):
        # the CLI runs with the default BLAS thread count and the benchmark with one, so
        # no product in the field update may round by thread count, as a BLAS product
        # split across threads would
        probe = ("import sys, numpy as np; from branchwaves import pde; "
                 "s = pde.simulate(*pde.bump(pde.GRID), 1.0, pde.GRID, 1.0); "
                 "sys.stdout.buffer.write(np.array(s.snapshots).tobytes())")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        # without `site` (-S) each start takes about half the time; the path names
        # the two packages the probe imports
        env["PYTHONPATH"] = os.pathsep.join(str(Path(m.__file__).resolve().parents[1])
                                            for m in (pde, np))
        procs = [subprocess.Popen([sys.executable, "-S", "-c", probe], env=env | extra,
                                  stdout=subprocess.PIPE)
                 for extra in ({"OPENBLAS_NUM_THREADS": "1"}, {})]
        one, default = (np.frombuffer(p.communicate(timeout=60)[0]) for p in procs)
        assert all(p.returncode == 0 for p in procs)
        assert one.size == 3 * 2 * pde.GRID.n
        np.testing.assert_array_equal(one, default)

    def test_snapshots_are_copies(self):
        g = Grid(-20.0, 20.0, 201)
        A0, I0 = bump(g)
        series = simulate(A0, I0, R0, g, 1.0)
        first, middle, last = series.snapshots
        np.testing.assert_array_equal(first, (A0, I0))
        assert not np.array_equal(middle[0], last[0])

    def test_rhs_evaluations_count_the_calls(self, monkeypatch):
        # each stage evaluates the Laplacian once, the stiff part the stages carry
        calls = []
        monkeypatch.setattr(pde, "laplacian",
                            lambda *args, **kwargs: calls.append(1) or laplacian(*args, **kwargs))
        g = Grid(-20.0, 20.0, 201)
        series = simulate(*bump(g), R0, g, 1.0)
        assert series.diagnostics["rhs_evaluations"] == len(calls) > 0

    def test_cli_reports_diagnostics(self, tmp_path, capsys):
        argv = ["pde", "--grid", "201:-30:120", "--t-end", "2", "--out", str(tmp_path / "p")]
        code = cli.main(argv)
        diag = json.loads(capsys.readouterr().out)["diagnostics"]
        assert code == 0
        assert diag["stages"] == 2
        assert diag["steps"] == round(2.0 / pde.STEP)
        assert diag["rhs_evaluations"] == 2  # 2 stages x 1 step size
        assert diag["h"] == pde.STEP
        assert diag["mass_balance_residual"] < 1e-13
        assert (diag["c_star_scheme"], diag["lambda_star"]) == pde.spreading_speed(0.75, pde.STEP)


class TestSpreadingSpeed:
    """The pulled speed c* of the split scheme's leading edge against its error budget."""

    @staticmethod
    def oracle(dx, h, r):
        # c* by scipy's bounded minimizer, with P(lambda) the stability polynomial of the
        # RKC step at the Laplacian's symbol (2 cosh(lambda dx) - 2)/dx^2, not the taps, and
        # the gain of m midpoint substeps on A' = A written out
        m = max(1, math.ceil(h * (5.0 + r) / 2.0))
        gain = (1.0 + h / m + 0.5 * (h / m) ** 2) ** m
        s = pde._stages(h * 4.0 / dx**2)
        w0 = 1.0 + pde.DAMPING / s**2
        T = np.polynomial.Chebyshev.basis(s)
        b, w1 = T.deriv(2)(w0) / T.deriv(1)(w0) ** 2, T.deriv(1)(w0) / T.deriv(2)(w0)

        def speed(lam):
            z = h * (2.0 * math.cosh(lam * dx) - 2.0) / dx**2
            P = 1.0 - b * T(w0) + b * T(w0 + w1 * z)
            return math.log(gain * P) / (h * lam)

        # lambda* is near 1 on fine grids and near ln(dx) / dx on coarse ones
        best = minimize_scalar(speed, bounds=(0.1 / max(dx, 1.0), 50.0 / max(dx, 1.0)),
                               method="bounded", options={"xatol": 1e-9})
        return best.fun, best.x

    @pytest.mark.parametrize("h, c_star, lambda_star", [
        (0.02, 2.00037, 0.99934),
        (0.05, 1.99990, 0.99952),
    ])
    def test_reference_grid(self, h, c_star, lambda_star):
        c, lam = pde.spreading_speed(pde.GRID.dx, h)
        assert c == pytest.approx(c_star, abs=2e-5)
        assert lam == pytest.approx(lambda_star, abs=2e-5)

    def test_vanishing_step_leaves_the_lattice_laplacian(self):
        # the lattice Laplacian takes e^(-x) to (1 + dx^2/12 + ...) e^(-x): c* -> 2 + dx^2/12
        c, _ = pde.spreading_speed(pde.GRID.dx, 1e-4)
        assert c == pytest.approx(2.00047, abs=2e-5)
        assert c == pytest.approx(2.0 + pde.GRID.dx**2 / 12.0, abs=2e-5)

    @pytest.mark.parametrize("dx, h, r", [(pde.GRID.dx, 0.05, 0.0), (pde.GRID.dx, 0.1, 1.0),
                                          (0.3, 0.05, 0.0), (0.01, 0.002, 0.0),
                                          (pde.GRID.dx, 0.05, 100.0), (pde.GRID.dx, 0.05, 1000.0),
                                          (50.0, 0.05, 0.0), (6667.0, 0.05, 0.0)])
    def test_matches_the_stability_polynomial(self, dx, h, r):
        # at r = 100 and 1000 each reaction step takes 3 and 26 substeps, which move c* by
        # +3.6e-4 and +4.0e-4 from r = 0; at dx = 6667, lambda* = 2.2e-3 lies far below the
        # lambda* near 1 of fine grids (c* = 477 there, 1.8e5 at lambda = 0.01)
        c, lam = pde.spreading_speed(dx, h, r)
        c_ref, lam_ref = self.oracle(dx, h, r)
        assert c == pytest.approx(c_ref, rel=1e-10)
        assert lam == pytest.approx(lam_ref, rel=1e-5)

    def test_simulate_reports_it_at_its_rate(self):
        # at r = 100 each reaction step takes substeps, whose gain the reported c* carries
        g = Grid(-20.0, 20.0, 201)
        diag = simulate(*bump(g), 100.0, g, 0.5).diagnostics
        assert (diag["c_star_scheme"], diag["lambda_star"]) == pde.spreading_speed(g.dx, pde.STEP,
                                                                                   100.0)
        assert diag["c_star_scheme"] > pde.spreading_speed(g.dx, pde.STEP)[0]

    @pytest.mark.parametrize("grid, r, c_hex, lambda_hex", [
        (pde.GRID, 0.0, "0x1.fff92c467a28ap+0", "0x1.ffc124a740929p-1"),
        (pde.GRID, 1.0, "0x1.fff92c467a28ap+0", "0x1.ffc124a740929p-1"),
        (Grid(-20.0, 20.0, 201), 100.0, "0x1.0062efd8207a4p+1", "0x1.fdc68a601e199p-1"),
    ], ids=["reference-r0", "reference-r1", "coarse-r100"])
    def test_bump_runs_keep_their_bits(self, grid, r, c_hex, lambda_hex):
        # every bump has I = 0 ahead, the level the probe took before it read the initial I:
        # the bits it reported then, at STEP = 0.05
        diag = simulate(*bump(grid), r, grid, 0.5).diagnostics
        assert (diag["c_star_scheme"].hex(), diag["lambda_star"].hex()) == (c_hex, lambda_hex)

    def test_front_into_a_raised_level(self):
        # I = 0.5 ahead leaves A the growth rate 1/2: the continuum's c* = 2 sqrt(0.5) = 1.41421
        # and lambda* = sqrt(0.5) = 0.70711, where a probe at I = 0 read 1.99990
        g = pde.GRID
        diag = simulate(bump(g)[0], np.full(g.n, 0.5), R0, g, 0.5).diagnostics
        assert diag["c_star_scheme"] == pytest.approx(1.41428, abs=2e-5)
        assert diag["lambda_star"] == pytest.approx(0.70690, abs=2e-5)
        assert (diag["c_star_scheme"], diag["lambda_star"]) == pde.spreading_speed(
            g.dx, pde.STEP, i_ahead=0.5)

    def test_no_front_pulled_at_or_above_one(self, tmp_path, capsys):
        # at I >= 1 ahead A decays there: no front is pulled, so neither number exists
        for i_ahead in (1.0, 1.2):
            assert pde.spreading_speed(pde.GRID.dx, pde.STEP, i_ahead=i_ahead) == (None, None)
        xs = np.linspace(-30.0, 120.0, 201)
        path = tmp_path / "raised.csv"
        np.savetxt(path, np.column_stack([xs, 0.5 * np.exp(-xs * xs), np.full_like(xs, 1.2)]),
                   delimiter=",", header="x,A,I", comments="", fmt="%.17g")
        code = cli.main(["pde", "--initial", str(path), "--t-end", "2", "--threshold", "0.01",
                         "--out", str(tmp_path / "p")])
        out = capsys.readouterr().out
        assert code == 0
        assert '"c_star_scheme": null' in out and '"lambda_star": null' in out

    def test_default_step_balances_the_budget(self):
        # the time part of c*'s error at STEP stays within 1.5 times the grid part; measured
        # 0.20 at step 0.02, 1.23 at 0.05 and 4.9 at 0.1
        dx = pde.GRID.dx
        c_step, c_fine = (pde.spreading_speed(dx, h)[0] for h in (pde.STEP, pde.STEP / 10.0))
        assert abs(c_step - c_fine) <= 1.5 * abs(c_fine - 2.0)


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

    def test_default_window_is_the_second_half(self):
        series = self.synthetic_series(3.0)
        series.times = series.times + 2.0  # recorded over [2, 8]: the second half is [5, 8]
        m = measure_speed(series, 0.1)
        assert m.window == (5.0, 8.0)
        assert m == measure_speed(series, 0.1, (5.0, 8.0))

    def test_window_between_snapshots(self):
        g = Grid(0.0, 10.0, 32)
        series = simulate(np.zeros(32), np.zeros(32), R0, g, 2.0)
        with pytest.raises(DomainError, match="window covers fewer than two snapshots"):
            measure_speed(series, 0.1, (0.2, 0.8))


class TestShapeMisfit:
    @staticmethod
    def synthetic_series(speed):
        # a front at x = 20 + speed t with a wake I that grows in x and t
        g = Grid(-40.0, 80.0, 1201)
        xs = g.xs()
        times = np.linspace(0.0, 6.0, 13)
        snaps = [(0.4 / (1.0 + np.exp(2.0 * (xs - 20.0 - speed * t))), 1.0 + 0.01 * xs + 0.1 * t)
                 for t in times]
        return FieldSeries(g, times, snaps)

    @pytest.mark.parametrize("window", [(0.0, 6.0), (1.0, 3.0)])
    def test_final_front_and_plateau(self, window):
        # taken at the last snapshot, also when the speed window ends earlier
        series = self.synthetic_series(3.0)
        A, I = series.snapshots[-1]
        m = measure_speed(series, 0.1, window)
        assert m.x_front == front_position(A, series.grid, 0.1)
        assert 37.0 < m.x_front < 40.0
        assert m.plateau == plateau(I, series.grid, m.x_front)
        assert m.plateau is not None

    def test_final_front_missing(self):
        # the window ends before the front leaves the domain; the last snapshot has none
        series = self.synthetic_series(3.0)
        series.snapshots[-1] = (np.zeros(1201), series.snapshots[-1][1])
        m = measure_speed(series, 0.1, (0.0, 3.0))
        assert m.x_front == -math.inf
        assert m.plateau is None

    def test_translated_wave_fits(self):
        # the wave itself, its maximum moved to the grid point x = 20, fits to
        # rounding (the scan holds the shift that undoes the move); an offset
        # of I shows as offset / i_minus_inf
        wave = shoot_wave(1.8, Params(c=2.0, r=0.0))
        g = Grid(-20.0, 60.0, 801)
        zs, states = wave.trajectory.zs, wave.trajectory.states
        A = np.interp(g.xs() - 20.0, zs, states[:, 0])
        I = np.interp(g.xs() - 20.0, zs, states[:, 2]) + 0.018
        x_front = front_position(A, g, 0.1)
        series = FieldSeries(g, np.array([0.0]), [(A, I)])
        active, inactive = shape_misfit(series, x_front, wave)
        assert active < 1e-9
        assert inactive == pytest.approx(0.01, rel=1e-9)

    @pytest.mark.parametrize("x_front", [-math.inf, math.nan, 100.0])
    def test_no_grid_point_near_the_front(self, x_front):
        series = self.synthetic_series(3.0)
        with pytest.raises(DomainError, match="no grid point within 10 of the front"):
            shape_misfit(series, x_front, shoot_wave(1.8, Params(c=2.0, r=0.0)))

    def test_late_bump_front_matches_wave(self, bump_series):
        # shape convergence: by t = 16 the bump has grown into the shot
        # critical wave within the 5% of the pde-ode-shape criterion
        m = measure_speed(bump_series, 0.1, (10.0, 16.0))
        active, inactive = shape_misfit(bump_series, m.x_front, shoot_wave(2.0, Params(c=2.0)))
        assert active < 0.05
        assert inactive < 0.05
