"""One test per acceptance criterion.

Each test runs its criterion at the stated tolerance through the shared
battery and prints the single pass/fail line (visible under `pytest -s`).
The context is module-scoped so the wave grid, the two reference PDE
runs and their twins at twice the step are computed once.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from branchwaves import acceptance, analysis, pde, wave
from branchwaves.odeint import Trajectory


@pytest.fixture(scope="module")
def ctx():
    return acceptance.AcceptanceContext()


def _run(name, ctx):
    results = acceptance.run_all(only=name, ctx=ctx)
    assert len(results) == 1
    result = results[0]
    print(result.line())
    assert result.passed, result.detail
    return result


def test_limit_symmetry(ctx):
    _run("limit-symmetry", ctx)


def test_limit_symmetry_to_the_integrator_floor(ctx):
    # each front limit closes its tail past the stop; read off the last sample the
    # worst pair missed 2 by 8.8e-10
    worst = max(rep.limit_sum_residual for rep in ctx.wave_reports().values())
    assert worst <= 1e-11


def test_attractor_formula(ctx):
    result = _run("attractor-formula", ctx)
    assert result.seconds < 60.0


def test_threshold_consistency(ctx):
    _run("threshold-consistency", ctx)


def test_decay_rates(ctx):
    _run("decay-rates", ctx)


def test_triangles(ctx):
    _run("triangles", ctx)


def test_mass_identities(ctx):
    _run("mass-identities", ctx)


def test_pde_front(ctx):
    _run("pde-front", ctx)


def test_pde_ode_shape(ctx):
    _run("pde-ode-shape", ctx)


def test_evans_winding(ctx):
    _run("evans-winding", ctx)


def test_oscillatory_exclusion(ctx):
    _run("oscillatory-exclusion", ctx)


@pytest.mark.parametrize("floor", [1e-7, 1e-5])
def test_oscillatory_exclusion_reads_the_floor_in_force(ctx, monkeypatch, floor):
    # the shot stops at -NEGATIVITY_TOL, so the criterion checks and names that floor
    monkeypatch.setattr(wave, "NEGATIVITY_TOL", floor)
    result = _run("oscillatory-exclusion", ctx)
    assert result.detail.endswith(f"reaching the -{floor:g} floor")


def test_rescaling(ctx):
    _run("rescaling", ctx)


def test_battery_covers_all_criteria():
    assert len(acceptance.CRITERION_NAMES) == 11
    assert len(set(acceptance.CRITERION_NAMES)) == 11


def test_unknown_filter_matches_nothing(ctx):
    assert acceptance.run_all(only="no-such-criterion", ctx=ctx) == []


def test_diagnostics_where_the_criterion_holds_them(ctx):
    [front] = acceptance.run_all(only="pde-front", ctx=ctx)
    for r in (0.0, 1.0):
        # the a-posteriori step error (c(2h) - c(h)) / 3 of the reference run's c_est,
        # measured -4.5e-4 (r = 0) and -4.4e-4 (r = 1)
        c_h, c_2h = (pde.measure_speed(ctx.pde_run(r, step), pde.FRONT_LEVEL).c_est
                     for step in (None, 2.0 * pde.STEP))
        assert front.diagnostics[f"r={r:g}"] == ctx.pde_run(r).diagnostics | {
            "step_doubling_c_diff": (c_2h - c_h) / 3.0}
        assert -6e-4 < (c_2h - c_h) / 3.0 < -3e-4
    # the shooting counters summed over each criterion's shots
    for name, shots in (("attractor-formula", 50), ("triangles", 200)):
        [result] = acceptance.run_all(only=name, ctx=ctx)
        diag = result.diagnostics
        assert list(diag) == ["shots", "accepted_steps", "rejected_steps", "rhs_evaluations",
                              "refined_events", "dense_samples"]
        assert diag["shots"] == shots
        assert diag["rhs_evaluations"] == 2 * shots + 6 * (
            diag["accepted_steps"] + diag["rejected_steps"])
        assert diag["refined_events"] >= shots  # each shot's stop, at least
    [rescaling] = acceptance.run_all(only="rescaling", ctx=ctx)
    assert rescaling.diagnostics == {}


def test_raising_criterion_reports_failure(ctx, monkeypatch):
    # the battery folds an exception into a failed result instead of
    # propagating it
    def broken(ctx):
        raise ValueError("boom")

    monkeypatch.setattr(acceptance, "_CRITERIA", [("broken", broken)])
    result = acceptance.run_all(ctx=ctx)[0]
    assert not result.passed
    assert result.detail == "raised ValueError: boom"


def test_missing_plateau_fails_pde_front(ctx, monkeypatch):
    monkeypatch.setattr(acceptance.pde, "plateau", lambda I, grid, x_front: None)
    result = acceptance.run_all(only="pde-front", ctx=ctx)[0]
    assert not result.passed
    assert "no plateau (no front, or no grid point in [10, x_front - 20])" in result.detail


@pytest.mark.parametrize("name", ["attractor-formula", "threshold-consistency", "rescaling"])
def test_nan_defect_fails(ctx, monkeypatch, name):
    # a NaN defect in one draw must fail the criterion, not drop out of the
    # worst-case fold
    calls = itertools.count()

    def nan_first(value):
        return math.nan if next(calls) == 0 else value

    if name == "attractor-formula":
        # closed-form limits stand in for the shots, each a one-point trajectory
        monkeypatch.setattr(acceptance.wave_mod, "shoot_from_max", lambda a0, i0, p: (
            Trajectory(np.array([0.0]), np.array([[a0, 0.0, i0]])),
            nan_first(analysis.i_plus_infinity(a0, i0, p.c, p.r))))
    elif name == "threshold-consistency":
        real = analysis.a_at_first_max
        monkeypatch.setattr(analysis, "a_at_first_max", lambda *args: nan_first(real(*args)))
    else:
        real = acceptance.rel_err
        monkeypatch.setattr(acceptance, "rel_err", lambda *args: nan_first(real(*args)))
    result = acceptance.run_all(only=name, ctx=ctx)[0]
    assert next(calls) > 1
    assert not result.passed
    assert "= nan" in result.detail


@pytest.mark.parametrize("name, field", [
    ("limit-symmetry", "limit_sum_residual"),
    ("decay-rates", "mu_minus_rel_err"),
    ("decay-rates", "mu_plus_rel_err"),
    ("mass-identities", "mass"),
])
def test_nan_in_last_wave_report_fails(ctx, monkeypatch, name, field):
    # the last report, not the first: a builtin max() fold keeps a NaN only
    # when it comes first
    reports = dict(ctx.wave_reports())
    key, last = list(reports.items())[-1]
    nan = dataclasses.replace(last.mass, res2=math.nan) if field == "mass" else math.nan
    reports[key] = dataclasses.replace(last, **{field: nan})
    monkeypatch.setattr(ctx, "wave_reports", lambda: reports)
    result = acceptance.run_all(only=name, ctx=ctx)[0]
    assert not result.passed
    assert "= nan" in result.detail
