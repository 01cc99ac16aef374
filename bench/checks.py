"""Acceptance checks applied to every benchmark op.

Each check takes what the program returned and gives `(ok, err)`: `ok`
says the answer meets its acceptance tolerance, `err` is the worst
residual divided by that tolerance (below 1 passes), or None when the
program gave no report to measure.  The tolerances are those of the
acceptance battery and of `wave.VerificationReport.passed`; they are
written out here so that the benchmark does not take the program's word
for its own answer.
"""

from __future__ import annotations

import math

from branchwaves import analysis

# spectral refines any argument step above pi/3, so a resolved sweep stays below it
EVANS_ARG_CAP = math.pi / 3.0
LIMIT_TOL = 1e-4
TRIANGLE_SLACK = 1e-6
WAVE_LIMIT_SUM_BUDGET = 1e-3
WAVE_MASS_BUDGET = 1e-4
WAVE_RATE_BUDGET = 0.02
WAVE_PREFACTOR_BUDGET = 0.15
PDE_SPEED = 2.0
PDE_SPEED_TOL = 0.05
PDE_PLATEAU = 2.0
PDE_PLATEAU_TOL = 0.02


def evans_sweep(code: int, report: dict | None) -> tuple[bool, float | None]:
    """`branchwaves evans` on a stable wave: exit 0, winding 0, steps resolved."""
    if report is None:
        return False, None
    err = report["max_arg_step"] / EVANS_ARG_CAP
    return code == 0 and report["winding"] == 0 and err < 1.0, err


def shot(limit: float, expected: float, in_triangles: bool) -> tuple[bool, float]:
    """One shot from a maximum: limit against the closed form, samples in triangles."""
    err = abs(limit - expected) / LIMIT_TOL
    return err < 1.0 and in_triangles, err


def in_triangles(states, c: float) -> bool:
    """Every sample (a, b, i) lies in the invariant triangle of its level.

    The level is i clamped to [i_c, 1), as in the acceptance battery.
    """
    i_c = analysis.minimal_inactive_limit(c)
    for a, b, i in states:
        level = min(max(i, i_c), 1.0 - 1e-12)
        if not analysis.triangle_contains(
            analysis.triangle(level, c), (a, b), tol=TRIANGLE_SLACK
        ):
            return False
    return True


def wave_profile(code: int, report: dict | None) -> tuple[bool, float | None]:
    """`branchwaves wave`: exit 0 and every verification residual within budget."""
    if report is None:
        return False, None
    res = report["residuals"]
    rates = report["rates"]
    scale = max(abs(res["total_mass"]), 1.0)
    if rates["tail_prefactor_exp"] is not None:
        tail = abs(rates["tail_prefactor_exp"] - 1.0) / WAVE_PREFACTOR_BUDGET
    else:
        tail = rates["mu_plus_rel_err"] / WAVE_RATE_BUDGET
    err = max(
        report["limits"]["sum_residual"] / WAVE_LIMIT_SUM_BUDGET,
        max(abs(res["mass1"]), abs(res["mass2"]), abs(res["mass3"]))
        / (WAVE_MASS_BUDGET * scale),
        rates["mu_minus_rel_err"] / WAVE_RATE_BUDGET,
        tail,
    )
    return code == 0 and report["passed"] is True and err < 1.0, err


def pde_front(code: int, report: dict | None) -> tuple[bool, float | None]:
    """`branchwaves pde`: exit 0, speed within 5% of 2, plateau within 2% of 2."""
    if report is None or report["plateau"] is None:
        return False, None
    err = max(
        abs(report["c_est"] - PDE_SPEED) / PDE_SPEED / PDE_SPEED_TOL,
        abs(report["plateau"] - PDE_PLATEAU) / PDE_PLATEAU / PDE_PLATEAU_TOL,
    )
    return code == 0 and err < 1.0, err
