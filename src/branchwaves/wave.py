"""Traveling-wave construction by shooting.

A profile is grown from a seed on the one-dimensional unstable manifold
of the invaded equilibrium, followed forward until the active density
peaks (first b = 0 down-crossing) and then decays into the attracting
equilibrium continuum. The profile is re-anchored so the maximum sits at
z = 0 and both tail rates are fitted. Every run is one forward `integrate`
call with the same three falling-crossing events and the settings fixed
below; it stops once sup|(a, b)| < STOP_TOL (LIMIT_STOP_TOL for a shot from
a maximum), and its forward limit closes the linearized tail past the stop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis
from .errors import (BudgetError, DomainError, NegativityError, NonConvergenceError,
                     OscillatoryRegimeError)
from .model import Params, WaveState, wave_rhs
from .odeint import EV_MAX, EV_NEG, EV_STOP, EventRecord, Trajectory, integrate

__all__ = ["WaveProfile", "VerificationReport", "shoot_wave", "shoot_from_max",
           "verify_profile"]

# seed offset along the unstable eigendirection
SEED_EPS = 1e-7
# sup-norm of (a, b) below which a run counts as converged, and the same for a shot
# from a maximum, whose callers need only its limit and path
STOP_TOL = 1e-10
LIMIT_STOP_TOL = 1e-8
# pseudo-time after which a run gives up with a budget error
Z_BUDGET = 1000.0
# a below -NEGATIVITY_TOL means no non-negative wave
NEGATIVITY_TOL = 1e-6
# `VerificationReport` budgets: the limit sum, each mass residual relative to the
# total transferred mass, both tail rates relative, the near-critical prefactor exponent
LIMIT_SUM_TOL = 1e-3
MASS_TOL = 1e-4
RATE_TOL = 0.02
PREFACTOR_BAND = 0.15

# falling tails with s z_hi <= TWO_MODE_SPAN (rates -c/2 +- s, z_hi the far end of
# the fit window) are fitted as two modes; past it tanh(sz) saturates, and the fast
# mode, e^{-2sz} relative, is gone for the pure exponential fit
TWO_MODE_SPAN = 3.0


@dataclass
class WaveProfile:
    """A computed traveling wave, anchored so the a-maximum sits at z = 0.

    z_first_max is the pseudo-time from the seed to that maximum (the
    amount the raw shooting coordinate was shifted by). i_plus_inf is the last
    sample's i with the tail past the STOP_TOL stop closed. mu_minus is the
    fitted growth rate of a on the rising tail, mu_plus the fitted decay
    rate on the falling tail. Near the critical level, where the forward
    rates -c/2 +- s stay close across the fitted window (s z_hi <=
    TWO_MODE_SPAN), mu_plus is pinned at -c/2 and tail_prefactor_exp carries
    the fitted exponent p of the tail e^{-cz/2} cosh(sz) (tanh(sz)/s + d)^p:
    1 for every two-mode tail, and for the pulled-front tail (z + d) e^{-cz/2}
    at s = 0 (van Saarloos, Phys. Rep. 386, 2003).
    """

    trajectory: Trajectory
    i_minus_inf: float
    i_plus_inf: float
    z_first_max: float
    a_max: float
    i_at_max: float
    mu_minus: float
    mu_plus: float
    params: Params
    tail_prefactor_exp: float | None = None


def seed_unstable_manifold(i_minus_inf: float, p: Params) -> WaveState:
    """Point at distance ~SEED_EPS from (0, 0, i_minus_inf) along its unstable direction.

    The eigendirection is normalized so its a-component equals +1, selecting
    the branch that enters a > 0; a seed that lands at i <= 1 raises NonConvergenceError.
    """
    if not 1.0 < i_minus_inf <= 2.0:
        raise DomainError(
            f"level {i_minus_inf} must lie in (1, 2]: at or below 1 it leaves "
            "no unstable direction, and 2 is the admissible maximum"
        )
    lam = analysis.decay_rate(i_minus_inf, p.c)
    e_hat = analysis.eigenvector(i_minus_inf, p.c, p.r, lam)
    seed = WaveState(*(x + SEED_EPS * e for x, e in zip((0.0, 0.0, i_minus_inf), e_hat)))
    if not seed.i > 1.0:
        raise NonConvergenceError(f"seed at i = {seed.i:.7g} <= 1: the rear level {i_minus_inf:.12g} "
                                  f"is too close to 1 for the seed offset SEED_EPS = {SEED_EPS:g}")
    return seed


def _rear_band(i_c: float) -> str:
    return f"rear levels need i_minus <= 2 - i_c = {analysis.limit_symmetry(i_c):g}"


def _run_shoot(y0, p: Params, stop: float = STOP_TOL) -> Trajectory:
    # `wave_rhs` is read from this module per shot, so a wrapper set here sees every evaluation
    traj = integrate(wave_rhs, p, y0, Z_BUDGET, (NEGATIVITY_TOL, stop))
    for rec in traj.events:
        if rec.index == EV_NEG:
            raise NegativityError(
                f"no non-negative wave through this shot at c = {p.c:g}: a fell to "
                f"{rec.state[0]:.2e} at z = {rec.z:.2f}, so the approach to the far equilibrium "
                f"is oscillatory; {_rear_band(analysis.minimal_inactive_limit(p.c))}",
                z=rec.z,
                value=rec.state[0],
                trajectory=traj,
            )
    return traj


def _stopped(traj: Trajectory) -> bool:
    return any(rec.index == EV_STOP for rec in traj.events)


def _closed_limit(a: float, b: float, i: float, p: Params) -> float:
    """Forward limit of i past a stop at (a, b, i), i < 1, up to O(a^2): the linear tail
    b' + c b + (1 - i) a = 0 gives int a = (b + c a) / (1 - i), and i' = -(i + r) a / c."""
    return i - (i + p.r) * (b + p.c * a) / (p.c * (1.0 - i))


def _check_limit_band(traj: Trajectory, p: Params) -> float:
    a, b, i_limit = (float(x) for x in traj.states[-1])
    i_c = analysis.minimal_inactive_limit(p.c)
    # below i_c, disc = c^2/4 + i_plus - 1 < 0: the oscillatory regime, even
    # when the spiral's first dip was too shallow to trip the negativity event
    if i_limit < i_c - 1e-6:
        raise OscillatoryRegimeError(
            f"converged to i_plus = {i_limit:.6f} below i_c = {i_c:g}, so the "
            f"approach is oscillatory: no non-negative wave; {_rear_band(i_c)}"
        )
    if not i_limit < 1.0:
        raise NonConvergenceError(
            f"converged to i = {i_limit:.6f}, outside [{i_c:g} - 1e-6, 1)",
            traj,
        )
    return _closed_limit(a, b, i_limit, p)


def _slope(x, y) -> float:
    return float(np.polyfit(x, y, 1)[0])


def _fit_tails(traj: Trajectory, a_max: float, i_plus: float,
               p: Params) -> tuple[float, float, float | None]:
    """`WaveProfile`'s tail rates and prefactor exponent by least squares, z from the maximum."""
    zs = traj.zs
    a = traj.states[:, 0]
    lo, hi = 1e-8 * a_max, 1e-3 * a_max

    rise = (zs < 0) & (a >= max(3.0 * SEED_EPS, lo)) & (a <= hi)
    if np.count_nonzero(rise) < 8:
        raise NonConvergenceError("rising tail too sparse to fit a rate", traj)
    mu_minus = _slope(zs[rise], np.log(a[rise]))

    decay = (zs > 0) & (a >= lo) & (a <= hi)
    if np.count_nonzero(decay) < 8:
        raise NonConvergenceError("decaying tail too sparse to fit a rate", traj)
    zw, aw, bw = zs[decay], a[decay], traj.states[decay, 1]

    _, slow, fast = analysis.fixed_point_spectrum(i_plus, p.c)
    s = 0.5 * (slow - fast).real
    if s * zw[-1] > TWO_MODE_SPAN:
        return mu_minus, _slope(zw, np.log(aw)), None
    # ahead of the wave a'' + c a' + (i_plus - 1) a = 0, so y = a e^{cz/2} has
    # y'' = s^2 y and Y = y / cosh(sz) is affine in zeta = tanh(sz)/s (zeta = z
    # at s = 0). A prefactor Y = (zeta + d)^p has Y / (dY/dzeta) = (zeta + d)/p,
    # here q in terms of a and the exact b = a': p is 1 / its slope on zeta.
    ch, sh = np.cosh(s * zw), np.sinh(s * zw)
    zeta = np.tanh(s * zw) / s if s > 0 else zw
    q = aw / (ch * ((bw + 0.5 * p.c * aw) * ch - s * aw * sh))
    return mu_minus, -p.c / 2.0, 1.0 / _slope(zeta, q)


def shoot_wave(i_minus_inf: float, p: Params) -> WaveProfile:
    """Construct the wave connecting level i_minus_inf to its forward limit.

    Seeds the unstable manifold, integrates forward recording the first
    b = 0 down-crossing, and stops once sup|(a, b)| < STOP_TOL.
    Raises NegativityError when a dips below -NEGATIVITY_TOL (expected
    above the critical level 2 - i_c, where every connection spirals),
    OscillatoryRegimeError when the run settles below i_c without such a
    dip (just past that level), and BudgetError when the maximum or the
    convergence never arrives within Z_BUDGET.
    """
    traj = _run_shoot(seed_unstable_manifold(i_minus_inf, p), p)

    max_hits = [rec for rec in traj.events if rec.index == EV_MAX]
    if not max_hits:
        raise BudgetError(f"no maximum of a within z budget {Z_BUDGET:g}", traj)
    if not _stopped(traj):
        raise BudgetError(f"no convergence to the far equilibrium within z budget {Z_BUDGET:g}",
                          traj)
    i_plus = _check_limit_band(traj, p)

    first = max_hits[0]
    anchored = Trajectory(
        traj.zs - first.z,
        traj.states,
        [EventRecord(r.index, r.z - first.z, r.state) for r in traj.events],
        traj.diagnostics,
    )
    a_max, i_at_max = float(first.state[0]), float(first.state[2])
    mu_minus, mu_plus, prefactor = _fit_tails(anchored, a_max, i_plus, p)

    return WaveProfile(
        trajectory=anchored,
        i_minus_inf=i_minus_inf,
        i_plus_inf=i_plus,
        z_first_max=float(first.z),
        a_max=a_max,
        i_at_max=i_at_max,
        mu_minus=mu_minus,
        mu_plus=mu_plus,
        params=p,
        tail_prefactor_exp=prefactor,
    )


def shoot_from_max(a0: float, i0: float, p: Params) -> tuple[Trajectory, float]:
    """Forward run from (a0, 0, i0) into the attracting continuum.

    Returns the trajectory, stopped once sup|(a, b)| < LIMIT_STOP_TOL, and the forward
    limit of i with the tail past the stop closed, as for a start inside the stop.
    Starting above the threshold a_star(i0) typically ends in NegativityError, or in
    OscillatoryRegimeError if the run settles below i_c before a dips that deep;
    that is the expected dynamics, not a failure of the integrator. A limit at or
    above 1 raises NonConvergenceError.
    """
    i_c = analysis.minimal_inactive_limit(p.c)
    if not (i_c - 1e-12 <= i0 < 1.0):
        raise DomainError(f"i0 must lie in [{i_c:g}, 1), got {i0}")
    if a0 < 0.0:
        raise DomainError(f"a0 must be non-negative, got {a0}")
    if a0 > 1.0 - i0 + 1e-9:
        raise DomainError(
            f"a0 = {a0} exceeds the equilibrium cap 1 - i0 = {1.0 - i0}"
        )

    if a0 < LIMIT_STOP_TOL:
        # already inside the stop
        traj = Trajectory(np.array([0.0]), np.array([[a0, 0.0, i0]]))
        return traj, _closed_limit(a0, 0.0, i0, p)

    traj = _run_shoot(np.array([a0, 0.0, i0]), p, LIMIT_STOP_TOL)
    if not _stopped(traj):
        raise BudgetError(f"no convergence within z budget {Z_BUDGET:g}", traj)
    return traj, _check_limit_band(traj, p)


@dataclass(frozen=True)
class VerificationReport:
    """Diagnostics for a computed profile; thresholds live in `passed`."""

    i_monotone: bool
    single_max: bool
    limit_sum_residual: float
    mass: analysis.MassResiduals
    mu_minus_rel_err: float
    mu_plus_rel_err: float | None
    prefactor_exp: float | None

    @property
    def passed(self) -> bool:
        """All structural flags hold and every residual is within its budget:
        LIMIT_SUM_TOL, MASS_TOL, RATE_TOL and PREFACTOR_BAND."""
        scale = max(abs(self.mass.total_mass), 1.0)
        mass_ok = all(
            abs(r) <= MASS_TOL * scale
            for r in (self.mass.res1, self.mass.res2, self.mass.res3)
        )
        if self.prefactor_exp is not None:
            tail_ok = abs(self.prefactor_exp - 1.0) <= PREFACTOR_BAND
        else:
            tail_ok = self.mu_plus_rel_err is not None and self.mu_plus_rel_err <= RATE_TOL
        return (
            self.i_monotone
            and self.single_max
            and self.limit_sum_residual <= LIMIT_SUM_TOL
            and mass_ok
            and self.mu_minus_rel_err <= RATE_TOL
            and tail_ok
        )


def _count_b_crossings(b: np.ndarray) -> tuple[int, int]:
    """(down, up) sign changes of b, ignoring |b| <= 1e-12 plateaus.

    A NaN is kept, so the signs on either side of it are not compared."""
    s = b[~(np.abs(b) <= 1e-12)]
    prev, cur = s[:-1], s[1:]
    return (int(np.count_nonzero((prev > 0.0) & (cur < 0.0))),
            int(np.count_nonzero((prev < 0.0) & (cur > 0.0))))


def verify_profile(w: WaveProfile) -> VerificationReport:
    """Report-only structural checks of a profile against its own theory."""
    traj = w.trajectory
    i_vals = traj.states[:, 2]
    i_monotone = bool(np.all(np.diff(i_vals) <= 1e-8))

    down, up = _count_b_crossings(traj.states[:, 1])
    single_max = down <= 1 and up == 0

    limit_sum_residual = abs(w.i_minus_inf + w.i_plus_inf - 2.0)
    mass = analysis.mass_residuals(traj.zs, traj.states, w.params)

    c = w.params.c
    mu_minus_rel_err = analysis.rel_err(w.mu_minus, analysis.decay_rate(w.i_minus_inf, c))
    if w.tail_prefactor_exp is not None:
        mu_plus_rel_err = None
    else:
        # profiles without a prefactor have s z_hi > TWO_MODE_SPAN, so real rates
        mu_plus_rel_err = analysis.rel_err(w.mu_plus, analysis.decay_rate(w.i_plus_inf, c))

    return VerificationReport(
        i_monotone=i_monotone,
        single_max=single_max,
        limit_sum_residual=limit_sum_residual,
        mass=mass,
        mu_minus_rel_err=mu_minus_rel_err,
        mu_plus_rel_err=mu_plus_rel_err,
        prefactor_exp=w.tail_prefactor_exp,
    )
