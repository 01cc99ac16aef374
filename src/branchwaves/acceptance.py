"""Acceptance battery: the headline numerical claims as pass/fail checks.

Each criterion measures one quantitative claim end to end, at its stated
tolerance, and reports a single line.  Expensive shared artifacts (the wave
grid, the reference PDE run of `pde` at r = 0 and r = 1) are cached on an
AcceptanceContext so the battery reuses them across criteria; the PDE
criteria read their front, at `pde.FRONT_LEVEL` over the run's second half,
from `pde.measure_speed` and `pde.shape_misfit`.  `run_all` is the entry point
used both by the test suite and by the `verify` command.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import analysis, pde, spectral
from . import wave as wave_mod
from .analysis import rel_err
from .errors import NegativityError
from .model import GeneralParams, Params, denormalize, general_wave_predictions, normalize
from .wave import LIMIT_SUM_TOL, MASS_TOL, PREFACTOR_BAND, RATE_TOL

__all__ = [
    "AcceptanceContext",
    "CRITERION_NAMES",
    "CriterionResult",
    "run_all",
]

WAVE_GRID_C = (2.0, 3.0)
WAVE_GRID_R = (0.0, 1.0)
WAVE_GRID_I = (1.2, 1.5, 1.8, 2.0)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    diagnostics: dict

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.name}: {self.detail} ({self.seconds:.1f}s)"


class AcceptanceContext:
    """Lazy cache of the artifacts shared between criteria."""

    def __init__(self, seed: int = 2026):
        self.seed = seed
        self._waves: dict[tuple[float, float, float], wave_mod.WaveProfile] | None = None
        self._reports: dict[tuple[float, float, float], wave_mod.VerificationReport] | None = None
        self._pde_runs: dict[tuple[float, float | None], pde.FieldSeries] = {}

    def rng(self, salt: int) -> np.random.Generator:
        return np.random.default_rng(self.seed + salt)

    def wave_grid(self) -> dict[tuple[float, float, float], wave_mod.WaveProfile]:
        if self._waves is None:
            self._waves = {(c, r, i_minus): wave_mod.shoot_wave(i_minus, Params(c=c, r=r))
                           for c in WAVE_GRID_C for r in WAVE_GRID_R for i_minus in WAVE_GRID_I}
        return self._waves

    def wave_reports(self) -> dict[tuple[float, float, float], wave_mod.VerificationReport]:
        """One `verify_profile` report per wave of the grid, same keys."""
        if self._reports is None:
            self._reports = {
                key: wave_mod.verify_profile(w) for key, w in self.wave_grid().items()
            }
        return self._reports

    def wave_counters(self) -> dict:
        """The shooting counters of the wave grid's trajectories, summed, and the wave count."""
        return _counters("waves", [w.trajectory for w in self.wave_grid().values()])

    def pde_run(self, r: float, step: float | None = None) -> pde.FieldSeries:
        if (r, step) not in self._pde_runs:
            self._pde_runs[r, step] = pde.simulate(*pde.bump(pde.GRID), r, pde.GRID, pde.T_END,
                                                   step)
        return self._pde_runs[r, step]


def _counters(unit: str, trajectories: list) -> dict:
    """The shooting counters of the trajectories, summed, after their count keyed by unit."""
    totals = Counter()
    for traj in trajectories:
        totals.update(traj.diagnostics)
    return {unit: len(trajectories), **totals}


def _level_draw(rng: np.random.Generator) -> tuple[float, float, float, float]:
    """Random (c, r, i_c, i0): a speed, a rate, its minimal level and a start level above it."""
    c = rng.uniform(1.5, 4.0)
    r = rng.uniform(0.0, 2.0)
    i_c = analysis.minimal_inactive_limit(c)
    return c, r, i_c, rng.uniform(i_c + 0.05, 0.95)


def _admissible_draw(rng: np.random.Generator) -> tuple[float, float, float, float, float]:
    """`_level_draw`'s (c, r, i_c, i0), then a random admissible start height a0."""
    c, r, i_c, i0 = _level_draw(rng)
    return c, r, i_c, i0, rng.uniform(0.0, analysis.a_star(i0, c, r))


def _limit_symmetry(ctx: AcceptanceContext, tol: float = LIMIT_SUM_TOL) -> tuple[bool, str, dict]:
    t0 = time.perf_counter()
    reports = ctx.wave_reports()
    worst = float(np.max([rep.limit_sum_residual for rep in reports.values()]))
    per_wave = (time.perf_counter() - t0) / len(reports)
    return worst < tol, (
        f"max |i+inf + i-inf - 2| = {worst:.2e} over {len(reports)} waves "
        f"(tol {tol:g}, {per_wave:.2f}s/wave)"
    ), ctx.wave_counters()


def _attractor_formula(ctx: AcceptanceContext, tol: float = 1e-4) -> tuple[bool, str, dict]:
    rng = ctx.rng(2)
    t0 = time.perf_counter()
    defects, shots, closures = [], [], []
    for _ in range(50):
        c, r, _, i0, a0 = _admissible_draw(rng)
        traj, limit = wave_mod.shoot_from_max(a0, i0, Params(c=c, r=r))
        shots.append(traj)
        defects.append(abs(limit - analysis.i_plus_infinity(a0, i0, c, r)))
        closures.append(abs(limit - traj.states[-1, 2]))
    worst = float(np.max(defects))  # NaN propagates, failing worst < tol
    elapsed = time.perf_counter() - t0
    return worst < tol and elapsed < 60.0, (
        f"max |measured limit - closed form| = {worst:.2e} over 50 random "
        f"starts (tol {tol:g}, {elapsed:.0f}s of 60s budget)"
    ), _counters("shots", shots) | {"max_tail_closure": float(np.max(closures))}


def _threshold_consistency(ctx: AcceptanceContext, tol: float = 1e-10) -> tuple[bool, str, dict]:
    rng = ctx.rng(3)
    defects = []
    for _ in range(100):
        c, r, i_c, i0 = _level_draw(rng)
        alpha = analysis.alpha_threshold(i0, c, r)
        a_max = analysis.a_at_first_max(analysis.limit_symmetry(i_c), i0, c, r)
        defects += [abs(analysis.i_plus_infinity(alpha, i0, c, r) - i_c), abs(a_max - alpha)]
    worst = float(np.max(defects))  # NaN propagates, failing worst < tol
    return worst < tol, (
        f"max defect of threshold identities = {worst:.2e} over 100 random "
        f"(i0, c, r) (tol {tol:g})"
    ), {}


def _decay_rates(ctx: AcceptanceContext, tol: float = RATE_TOL) -> tuple[bool, str, dict]:
    reports = ctx.wave_reports().values()
    # np.max keeps a NaN from either fold, failing worst < tol
    worst_rear = float(np.max([rep.mu_minus_rel_err for rep in reports]))
    worst_front = float(np.max([rep.mu_plus_rel_err for rep in reports
                                if rep.mu_plus_rel_err is not None]))
    prefactors = [rep.prefactor_exp for rep in reports if rep.prefactor_exp is not None]
    pre_ok = all(abs(p - 1.0) <= PREFACTOR_BAND for p in prefactors)
    pre_txt = ", ".join(f"{p:.3f}" for p in prefactors) or "none"
    return worst_rear < tol and worst_front < tol and pre_ok, (
        f"max rear-rate rel err = {worst_rear:.2e}, max front-rate rel err = "
        f"{worst_front:.2e} (tol {tol:g}); critical tail prefactor exponents "
        f"[{pre_txt}] within 1 +- {PREFACTOR_BAND:g}"
    ), ctx.wave_counters()


def _triangles(ctx: AcceptanceContext, tol: float = 1e-6) -> tuple[bool, str, dict]:
    rng = ctx.rng(5)
    escapes = 0
    shots = []
    for _ in range(200):
        c, r, i_c, i0, a0 = _admissible_draw(rng)
        traj, _ = wave_mod.shoot_from_max(a0, i0, Params(c=c, r=r))
        shots.append(traj)
        levels = np.clip(traj.states[:, 2], i_c, 1.0 - 1e-12)
        inside = analysis.triangle_contains(
            analysis.triangle(levels, c), traj.states[:, :2], tol=tol
        )
        escapes += int(np.count_nonzero(~inside))
    nested = True
    for _ in range(50):
        c = rng.uniform(1.5, 4.0)
        i_c = analysis.minimal_inactive_limit(c)
        lo, hi = sorted(rng.uniform(i_c + 1e-3, 0.98, size=2))
        if hi - lo < 1e-9:
            hi = min(hi + 1e-3, 0.985)
        outer, inner = analysis.triangle(lo, c), analysis.triangle(hi, c)
        vertices = [inner.v0, inner.v1, inner.apex]
        nested &= bool(analysis.triangle_contains(outer, vertices, tol=1e-9).all())
    return escapes == 0 and nested, (
        f"{escapes} escapes beyond slack {tol:g} across {sum(map(len, shots))} samples of "
        f"200 trajectories; vertex nesting over 50 level pairs "
        f"{'holds' if nested else 'FAILS'}"
    ), _counters("shots", shots)


def _mass_identities(ctx: AcceptanceContext) -> tuple[bool, str, dict]:
    reports = ctx.wave_reports()
    worst = float(np.max([[r.mass.res1, r.mass.res2, r.mass.res3] for r in reports.values()]))
    return all(r.mass_ok for r in reports.values()), (
        f"max of the three identity residuals = {worst:.2e} over "
        f"{len(reports)} waves (tol {MASS_TOL:g})"
    ), ctx.wave_counters()


def _pde_front(ctx: AcceptanceContext, tol: float = 0.05) -> tuple[bool, str, dict]:
    plateau_tol = 0.02
    parts, diagnostics = [], {}
    ok = True
    for r in (0.0, 1.0):
        series = ctx.pde_run(r)
        c_est, _, _, plateau, _ = pde.measure_speed(series, pde.FRONT_LEVEL)
        # the a-posteriori step error of c_est, (c(2h) - c(h)) / 3 for a second-order step
        c_2h = pde.measure_speed(ctx.pde_run(r, 2.0 * pde.STEP), pde.FRONT_LEVEL).c_est
        diagnostics[f"r={r:g}"] = series.diagnostics | {"step_doubling_c_diff": (c_2h - c_est) / 3}
        if plateau is None:
            ok = False
            level = "no plateau (no front, or no grid point in [10, x_front - 20])"
        else:
            ok &= rel_err(c_est, 2.0) < tol and rel_err(plateau, 2.0) < plateau_tol
            level = (f"plateau={plateau:.4f} ({100 * rel_err(plateau, 2.0):.2f}% of "
                     f"{100 * plateau_tol:.0f}%)")
        parts.append(
            f"r={r:g}: c_est={c_est:.4f} ({100 * rel_err(c_est, 2.0):.1f}% of "
            f"{100 * tol:.0f}%), {level}"
        )
    return ok, "; ".join(parts), diagnostics


def _pde_ode_shape(ctx: AcceptanceContext, tol: float = 0.05) -> tuple[bool, str, dict]:
    series = ctx.pde_run(0.0)
    x_front = pde.measure_speed(series, pde.FRONT_LEVEL).x_front
    rel_a, rel_i = pde.shape_misfit(series, x_front, ctx.wave_grid()[(2.0, 0.0, 2.0)])
    return rel_a < tol and rel_i < tol, (
        f"sup-norm misfit on z in [-10, 10] after optimal shift: active "
        f"{100 * rel_a:.2f}%, inactive {100 * rel_i:.2f}% (tol {100 * tol:.0f}%)"
    ), {}


def _evans_winding(ctx: AcceptanceContext) -> tuple[bool, str, dict]:
    parts, diagnostics = [], {}
    ok = True
    for r in (0.0, 1.0):
        setup = spectral.make_setup(wave=ctx.wave_grid()[(2.0, r, 2.0)])
        sweep = spectral.evans_winding(setup, spectral.contour_of_S())
        ok &= sweep.winding == 0
        diag = diagnostics[f"r={r:g}"] = sweep.diagnostics
        parts.append(
            f"r={r:g}: winding={sweep.winding}, max arg step {sweep.max_arg_step:.3f} rad, "
            f"closure deviation enforced < {spectral.CLOSURE_TOL:g}, halving rel diff "
            f"{diag['halving_rel_diff']:.1e}, {diag['bisections']} bisections"
        )
    return ok, "; ".join(parts), diagnostics


def _oscillatory_exclusion(ctx: AcceptanceContext) -> tuple[bool, str, dict]:
    tol = wave_mod.NEGATIVITY_TOL  # the floor the shot stops at, read when the check runs
    try:
        wave_mod.shoot_wave(1.5, Params(c=1.0, r=0.0))
    except NegativityError as exc:
        depth = exc.value
        # the integration stops on the downward crossing of -tol itself, so
        # the recorded depth equals -tol up to the event locator's rounding
        # (z to 1e-10, hence a to ~1e-13)
        return depth is not None and depth <= -tol + 1e-12, (
            f"(c=1, i-inf=1.5) rejected: a falls to {depth:.6e}, reaching the -{tol:g} floor"), {}
    return False, "(c=1, i-inf=1.5) unexpectedly produced a non-negative wave", {}


def _rescaling(ctx: AcceptanceContext, tol: float = 1e-12) -> tuple[bool, str, dict]:
    rng = ctx.rng(11)
    defects = []
    for _ in range(100):
        g = GeneralParams(
            r_S=rng.uniform(0.2, 5.0),
            r_A=rng.uniform(0.2, 5.0),
            r_I=rng.uniform(0.0, 5.0),
            D=rng.uniform(0.2, 5.0),
        )
        c = rng.uniform(0.2, 6.0)
        direct = general_wave_predictions(g, c)

        # density_factor converts general densities to normalized ones, so
        # normalized predictions map back by division
        p, s = normalize(g)
        speed_factor = s.space_factor * s.time_factor
        c_n = c / speed_factor
        i_c_mapped = analysis.minimal_inactive_limit(c_n) / s.density_factor
        limit_sum_mapped = 2.0 / s.density_factor
        defects += [
            rel_err(direct.i_c, i_c_mapped),
            rel_err(direct.limit_sum, limit_sum_mapped),
            rel_err(direct.c_normalized, c_n),
        ]
        span = 2.0 * g.r_A / g.r_S - direct.i_c
        i_limit = direct.i_c + rng.uniform(0.01, 1.0) * span
        rate_mapped = (
            analysis.decay_rate(i_limit * s.density_factor, c_n) / s.space_factor
        )
        defects.append(rel_err(direct.decay_rate(i_limit), rate_mapped))

        back = denormalize(p, s)
        for got, want in zip(
            (back.r_S, back.r_A, back.r_I, back.D), (g.r_S, g.r_A, g.r_I, g.D)
        ):
            defects.append(rel_err(got, want))
    worst = float(np.max(defects))  # NaN propagates, failing worst < tol
    return worst < tol, (
        f"max rel deviation between direct and normalize-then-map routes = "
        f"{worst:.2e} over 100 random parameter sets (tol {tol:g})"
    ), {}


_CRITERIA: list[tuple[str, Callable]] = [
    ("limit-symmetry", _limit_symmetry),
    ("attractor-formula", _attractor_formula),
    ("threshold-consistency", _threshold_consistency),
    ("decay-rates", _decay_rates),
    ("triangles", _triangles),
    ("mass-identities", _mass_identities),
    ("pde-front", _pde_front),
    ("pde-ode-shape", _pde_ode_shape),
    ("evans-winding", _evans_winding),
    ("oscillatory-exclusion", _oscillatory_exclusion),
    ("rescaling", _rescaling),
]

CRITERION_NAMES = tuple(name for name, _ in _CRITERIA)


def run_all(
    only: str | None = None,
    seed: int = 2026,
    ctx: AcceptanceContext | None = None,
) -> list[CriterionResult]:
    """Run the battery; `only` filters criteria by substring match on name.

    Each criterion checks at the `tol=` default in its own signature and returns
    (passed, detail, diagnostics), the diagnostics of its solvers or {}.  A
    criterion that raises is reported as failed, not propagated.
    """
    if ctx is None:
        ctx = AcceptanceContext(seed=seed)
    results = []
    for name, fn in _CRITERIA:
        if only is not None and only not in name:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail, diagnostics = fn(ctx)
        except Exception as exc:
            passed, detail, diagnostics = False, f"raised {type(exc).__name__}: {exc}", {}
        results.append(CriterionResult(name, bool(passed), detail, time.perf_counter() - t0,
                                       diagnostics))
    return results
