"""One test per acceptance criterion.

Each test runs its criterion at the stated tolerance through the shared
battery and prints the single pass/fail line (visible under `pytest -s`).
The context is module-scoped so the wave grid and the two reference PDE
runs are computed once.
"""

import pytest

from branchwaves import acceptance


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


def test_rescaling(ctx):
    _run("rescaling", ctx)


def test_battery_covers_all_criteria():
    assert len(acceptance.CRITERION_NAMES) == 11
    assert len(set(acceptance.CRITERION_NAMES)) == 11


def test_unknown_filter_matches_nothing(ctx):
    assert acceptance.run_all(only="no-such-criterion", ctx=ctx) == []


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
