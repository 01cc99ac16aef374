"""Method-of-lines front simulator.

The two-field system on a uniform grid: a second-order central Laplacian on
the diffusing field, zero-flux ends, and Strang splitting (Strang 1968) into
second-order Runge-Kutta-Chebyshev steps (RKC; Sommeijer, Shampine & Verwer
1997) of the diffusion, whose stage count, not size, follows its stiffness,
and explicit midpoint steps of the pointwise reaction. On the diffusion an
s-stage RKC step is its stability polynomial in h Lap, a local stencil of
2s + 1 taps built by s Laplacians per step size, so A stays physical ahead of the
front (`min_A`); each step correlates them with one gather of A and its mirror ends.
The only model parameter is the production rate r; the PDE selects its own front
speed. Also front tracking, speed fits, the wake plateau and the shape misfit to a shot wave.

The reference front run of the `pde` CLI defaults, the battery and the demo is
declared here once: the `bump` in empty tissue on GRID to T_END, its front at
FRONT_LEVEL, its speed fitted over the run's second half (`measure_speed`).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import BlowUpError, ContaminatedMeasurementError, DomainError, PositivityError
from .model import laplacian, pde_rhs, reaction  # pde_rhs unused: bench/ traces the name
from .wave import WaveProfile

__all__ = ["Grid", "FieldSeries", "SpeedMeasurement", "simulate", "spreading_speed",
           "front_position", "measure_speed", "plateau", "shape_misfit"]

# RKC step, shrunk to divide each snapshot interval. Its part of c* (`spreading_speed`) on GRID,
# |c*(dx, STEP) - c*(dx, STEP/10)| = 5.7e-4 is 1.2 times the grid's |c*(dx, STEP/10) - 2| = 4.6e-4
STEP = 0.05
DAMPING = 2.0 / 13.0  # epsilon of the damped Chebyshev stability polynomial
MASS_BALANCE_TOL = 1e-10  # carried vs measured sum w(A + I), relative
POSITIVITY_TOL = 1e-12  # a snapshot fails with min A < -POSITIVITY_TOL max A

BOUNDARY_MARGIN_CELLS = 10
MAX_STORED_VALUES = 10**8  # snapshot values one run may keep: 0.8 GB of float64
MAX_STAGES = 1000  # RKC stages per step, so dx >= 5.5e-4 at STEP; 20001 points on GRID take 74
SNAPSHOT_DT = 0.5  # spacing of the snapshots `simulate` keeps


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n points spanning a finite [x_min, x_max]."""

    x_min: float
    x_max: float
    n: int
    dx: float = field(init=False)

    def __post_init__(self):
        if self.n < 16:
            raise DomainError(f"need at least 16 grid points, got {self.n}")
        if self.n > MAX_STORED_VALUES // 4:  # every run stores A and I at t = 0 and at t_end
            raise DomainError(f"need at most {MAX_STORED_VALUES // 4} grid points, got {self.n}")
        if not -math.inf < self.x_min < self.x_max < math.inf:
            raise DomainError(
                f"domain [{self.x_min}, {self.x_max}] must be finite and non-empty"
            )
        object.__setattr__(self, "dx", (self.x_max - self.x_min) / (self.n - 1))
        if not 0.0 < self.dx * self.dx < math.inf:
            raise DomainError(f"grid spacing {self.dx:g} must have a positive, finite square")

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)


# the reference front run (module docstring)
GRID = Grid(-30.0, 120.0, 2001)
T_END = 30.0
FRONT_LEVEL = 0.1
BUMP_AMPLITUDE = 0.5
BUMP_WIDTH = 1.0


def bump(grid: Grid, amplitude: float = BUMP_AMPLITUDE,
         width: float = BUMP_WIDTH) -> tuple[np.ndarray, np.ndarray]:
    """(A, I): A = amplitude exp(-(x/width)^2) and I = 0 on grid, non-finite values kept."""
    xs = grid.xs()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return amplitude * np.exp(-((xs / width) ** 2)), np.zeros_like(xs)


@dataclass
class FieldSeries:
    """Snapshots (A, I) at the recorded times; `diagnostics` of `simulate`, if it made them."""

    grid: Grid
    times: np.ndarray
    snapshots: list[tuple[np.ndarray, np.ndarray]]
    diagnostics: dict = field(default_factory=dict)


def _snapshot_times(t_end: float, n: int) -> np.ndarray:
    """Multiples of SNAPSHOT_DT, then t_end; DomainError past the storage cap."""
    ratio = t_end / SNAPSHOT_DT
    # a ratio past the cap is rejected anyway; capping keeps floor finite
    n_whole = math.floor(min(ratio + 1e-9, MAX_STORED_VALUES))
    # with no whole interval t_end is its own snapshot, never t = 0 relabelled
    partial = n_whole == 0 or SNAPSHOT_DT * n_whole < t_end - 1e-9 * max(t_end, 1.0)
    if 2 * n * (n_whole + 1 + partial) > MAX_STORED_VALUES:
        raise DomainError(
            f"t_end = {t_end:g} at snapshot_dt = {SNAPSHOT_DT:g} asks for {ratio:.6g} "
            f"snapshots of 2 x {n} values, over the cap of {MAX_STORED_VALUES:.0e}"
        )
    times = SNAPSHOT_DT * np.arange(n_whole + 1 + partial)
    times[-1] = t_end
    return times


def _chebyshev(s: int) -> tuple[float, float, float, float, float]:
    """beta(s) = (1 + w0) T_s''(w0) / T_s'(w0), w0 = 1 + DAMPING / s^2, and T_s, T_s', T_s''."""
    w0 = 1.0 + DAMPING / (s * s)
    T, dT, d2T = (1.0, w0), (0.0, 1.0), (0.0, 0.0)  # (j - 1, j) terms of each recurrence
    for _ in range(s - 1):
        d2T = d2T[1], 4.0 * dT[1] + 2.0 * w0 * d2T[1] - d2T[0]
        dT = dT[1], 2.0 * T[1] + 2.0 * w0 * dT[1] - dT[0]
        T = T[1], 2.0 * w0 * T[1] - T[0]
    return (1.0 + w0) * d2T[1] / dT[1], w0, T[1], dT[1], d2T[1]


def _stages(h_rho: float) -> int:
    """The least s >= 2 stable at h_rho, that is with beta(s) >= h_rho: s doubles from 2 until
    stable, then bisects above its half (beta grows with s); DomainError if MAX_STAGES is not."""
    hi = 2
    while _chebyshev(hi)[0] < h_rho:
        if hi == MAX_STAGES:
            raise DomainError(f"stiffness h rho = {h_rho:.3g} needs over {MAX_STAGES} RKC "
                              "stages per step; use a coarser grid")
        hi = min(2 * hi, MAX_STAGES)
    return bisect.bisect_left(range(hi), h_rho, hi // 2 + 1, key=lambda s: _chebyshev(s)[0])


def _diffusion_taps(h: float, dx: float, s: int) -> np.ndarray:
    """The 2s + 1 taps of one s-stage RKC step of A' = Lap(A) over h, 1 - b T_s(w0) +
    b T_s(w0 + w1 h Lap) with b = T_s''/T_s'^2, w1 = T_s'/T_s'': the Chebyshev recurrence
    U_j = 2 w0 U_{j-1} + 2 w1 h Lap(U_{j-1}) - U_{j-2} on a unit impulse of 4s + 1 points,
    whose ends its spread of s points never reaches, cut to the centre."""
    _, w0, T, dT, d2T = _chebyshev(s)
    b, w1h = d2T / dT ** 2, h * dT / d2T
    e = np.zeros(4 * s + 1)
    e[2 * s] = 1.0
    prev, U = e, w0 * e + w1h * laplacian(e, dx)
    for _ in range(s - 1):
        prev, U = U, 2.0 * w0 * U + 2.0 * w1h * laplacian(U, dx) - prev
    return ((1.0 - b * T) * e + b * U)[s:3 * s + 1]


def _react(Y: np.ndarray, dt: float, r: float, w: np.ndarray, R: np.ndarray,
           Ym: np.ndarray) -> float:
    """Midpoint steps of the reaction on Y = (A, I) in place over dt, (2, n) buffers R, Ym;
    ceil(dt (5 + r) / 2) of them once dt (5 + r), the Gershgorin bound while 0 <= A <= 1
    and 0 <= I <= 2, passes 2. Returns the mass dt (1 + r) w.A_mid they carry."""
    m = max(1, math.ceil(dt * (5.0 + r) / 2.0))
    dt /= m
    carried = 0.0
    for _ in range(m):
        reaction(Y[0], Y[1], r, out=R)
        np.multiply(R, 0.5 * dt, out=Ym)
        Ym += Y
        reaction(Ym[0], Ym[1], r, out=R)
        carried += dt * (1.0 + r) * (w @ Ym[0])
        R *= dt
        Y += R
    return carried


def spreading_speed(dx: float, h: float, r: float = 0.0, taps=None,
                    i_ahead: float = 0.0) -> tuple[float, float] | tuple[None, None]:
    """(c*, lambda*), the scheme's pulled speed at spacing dx, step h, rate r (van Saarloos 2003,
    sec. 2): ahead of the front (I = i_ahead, A small) a step takes e^(-lambda x) to
    G P e^(-lambda x), G the gain of `_react` over h, P = sum_j taps_j e^(lambda j dx) (default
    taps: `_diffusion_taps` at the least stable s); c* = min of ln(G P)/(h lambda) over
    1e-6 <= lambda max(dx, 1) <= 1e3. (None, None) where G <= 1 (i_ahead >= 1): the leading edge
    decays and pulls no front."""
    Y = np.array([[1e-100], [i_ahead]])  # one point ahead of the front, where A's growth is linear
    _react(Y, h, r, np.ones(1), np.empty_like(Y), np.empty_like(Y))
    if not 1e100 * Y[0, 0] > 1.0:
        return None, None
    taps = _diffusion_taps(h, dx, _stages(h * 4.0 / dx**2)) if taps is None else taps
    j = dx * (np.arange(taps.size) - taps.size // 2)
    lam = np.geomspace(1e-6, 1e3, 101) / max(dx, 1.0)  # past dx = 1, lambda* dx grows like ln dx
    with np.errstate(over="ignore", invalid="ignore"):  # P overflows far past lambda*
        for _ in range(4):
            c = np.log(1e100 * Y[0, 0] * (np.exp(np.outer(lam, j)) @ taps)) / (h * lam)
            k = int(np.nanargmin(c))
            lam_k, lam = lam[k], np.geomspace(lam[max(k - 1, 0)], lam[min(k + 1, 100)], 101)
    return float(c[k]), float(lam_k)


def simulate(A0, I0, r: float, grid: Grid, t_end: float,
             step: float | None = None) -> FieldSeries:
    """Advance to t_end at production rate r >= 0, snapshot every SNAPSHOT_DT.

    Each snapshot interval is R(h/2) D(h) R(h) ... D(h) R(h/2), D(h) an RKC step of
    A' = Lap(A), the correlation of A, reflected about each end point by one gather (the
    mirror ends of `laplacian`), with the taps of `_diffusion_taps` for h, R(dt) `_react`.
    r, t_end and `step` (default STEP) must be finite, t_end and `step` positive, the snapshots
    at most MAX_STORED_VALUES values, and the RKC steps of at most `step`, which divide each
    snapshot interval exactly, at most MAX_STAGES stages. Non-finite values, or a trapezoid mass
    w.(A + I) carried through R (D moves none) that misses the measured one by over
    MASS_BALANCE_TOL, raise BlowUpError, and A below -POSITIVITY_TOL max A PositivityError, each
    carrying the series so far. Diagnostics: `steps`, `stages` per step, largest step `h`,
    `min_A`, `rhs_evaluations` (Laplacians, s per distinct h), worst `mass_balance_residual`,
    and `c_star_scheme` and `lambda_star`, the `spreading_speed` of the run at h into the initial
    I at the right end, where `front_position` tracks the front (None where no front is pulled).
    """
    if not 0 <= r < math.inf:
        raise DomainError(f"production rate r must be >= 0 and finite, got {r}")
    A, I = np.array(A0, dtype=float), np.array(I0, dtype=float)
    if A.shape != (grid.n,) or I.shape != (grid.n,):
        raise ValueError(f"fields must have shape ({grid.n},), got {A.shape} and {I.shape}")
    if not 0.0 < t_end < math.inf:
        raise DomainError(f"t_end must be positive and finite, got {t_end}")
    step = STEP if step is None else step
    if not 0.0 < step < math.inf:
        raise DomainError(f"step must be positive and finite, got {step}")

    s = _stages(step * 4.0 / grid.dx**2)  # Gershgorin: |Lap| <= 4/dx^2
    w = grid.dx * np.r_[0.5, np.ones(grid.n - 2), 0.5]  # trapezoid weights
    times = _snapshot_times(t_end, grid.n)
    Y = np.array([A, I])
    snaps = [(A, I)]
    diag = dict(steps=0, stages=s, h=0.0, rhs_evaluations=0, mass_balance_residual=0.0,
                min_A=float(A.min()))
    R, Ym = np.empty_like(Y), np.empty_like(Y)  # `_react` buffers, reused by the whole run
    mirror = np.pad(np.arange(grid.n), s, mode="reflect")  # A's mirror ends as one gather
    taps = {}  # per distinct step size h: a whole snapshot interval's and a last partial one's

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, len(times)):
            n_steps = max(1, math.ceil((times[k] - times[k - 1]) / step - 1e-12))
            h = float(times[k] - times[k - 1]) / n_steps
            mass = w @ (Y[0] + Y[1]) + _react(Y, 0.5 * h, r, w, R, Ym)
            if h not in taps:
                taps[h] = _diffusion_taps(h, grid.dx, s)
                diag["rhs_evaluations"] += s
            for j in range(n_steps):
                Y[0] = np.correlate(Y[0][mirror], taps[h])
                mass += _react(Y, h if j < n_steps - 1 else 0.5 * h, r, w, R, Ym)
            diag["steps"] += n_steps
            diag["h"] = max(diag["h"], h)
            measured, scale = w @ (Y[0] + Y[1]), w @ np.abs(Y).sum(axis=0)
            residual = float(abs(mass - measured) / (scale or 1.0))  # NaN if Y is not finite
            if not residual <= MASS_BALANCE_TOL:
                problem = "non-finite field values" if not np.isfinite(Y).all() else (
                    f"mass balance residual {residual:.2e} over {MASS_BALANCE_TOL:g}")
                raise BlowUpError(
                    f"{problem} by t = {times[k]:g} (last finite snapshot at t = {times[k - 1]:g})",
                    series=FieldSeries(grid, times[:k], snaps, diag))
            diag["mass_balance_residual"] = max(diag["mass_balance_residual"], residual)
            diag["min_A"] = min(diag["min_A"], low := float(Y[0].min()))
            if low < -POSITIVITY_TOL * Y[0].max():
                raise PositivityError(f"A = {low:.3g} < -{POSITIVITY_TOL} max A at t = {times[k]:g}",
                                      series=FieldSeries(grid, times[:k], snaps, diag))
            snaps.append(tuple(Y.copy()))
        diag["c_star_scheme"], diag["lambda_star"] = spreading_speed(
            grid.dx, diag["h"], r, taps[diag["h"]], i_ahead=float(I[-1]))
    return FieldSeries(grid, times, snaps, diag)


def front_position(A, grid: Grid, threshold: float) -> float:
    """Largest x where A crosses threshold, linearly interpolated.

    Returns -inf when A stays below threshold everywhere; returns
    grid.x_max when A is still above threshold at the right end (the
    front has left the domain).
    """
    if not 0.0 < threshold < math.inf:
        raise DomainError(f"threshold must be positive and finite, got {threshold}")
    A = np.asarray(A, dtype=float)
    above = np.nonzero(A >= threshold)[0]
    if above.size == 0:
        return -math.inf
    j = int(above[-1])
    if j == grid.n - 1:
        return grid.x_max
    x_j = grid.x_min + j * grid.dx
    return x_j + grid.dx * (threshold - A[j]) / (A[j + 1] - A[j])


def plateau(I, grid: Grid, x_front: float) -> float | None:
    """Mean of I over x in [10, x_front - 20], the wake behind the front.

    The window starts at x = 10, clear of the initial bump at x = 0 where
    I overshoots, and ends 20 units behind the front. Returns None when
    x_front is not finite or the window holds no grid point.
    """
    xs = grid.xs()
    sel = (xs >= 10.0) & (xs <= x_front - 20.0)
    if not (math.isfinite(x_front) and sel.any()):
        return None
    return float(np.mean(I[sel]))


class SpeedMeasurement(NamedTuple):
    c_est: float
    residual: float
    x_front: float  # `front_position` at the last snapshot, whatever the window
    plateau: float | None  # `plateau` behind that front
    window: tuple[float, float]  # the fit window used


def measure_speed(series: FieldSeries, threshold: float,
                  window: tuple[float, float] | None = None) -> SpeedMeasurement:
    """Least-squares front speed over a time window, and the final front and plateau.

    The window defaults to the second half of the recorded times. The front
    must exist and stay at least 10 grid cells away from both domain ends
    throughout the window; otherwise the measurement counts as contaminated.
    """
    times = series.times
    t1, t2 = window or (float((times[0] + times[-1]) / 2.0), float(times[-1]))
    if not (times[0] <= t1 < t2 <= times[-1]):
        raise DomainError(
            f"window ({t1}, {t2}) not inside simulated times "
            f"[{times[0]:g}, {times[-1]:g}]"
        )
    sel = (times >= t1 - 1e-12) & (times <= t2 + 1e-12)
    if np.count_nonzero(sel) < 2:
        raise DomainError("window covers fewer than two snapshots")

    grid = series.grid
    margin = BOUNDARY_MARGIN_CELLS * grid.dx
    fronts = []
    for k in np.nonzero(sel)[0]:
        x_f = front_position(series.snapshots[k][0], grid, threshold)
        if not (grid.x_min + margin <= x_f <= grid.x_max - margin):
            raise ContaminatedMeasurementError(
                f"front at x = {x_f:g} (t = {times[k]:g}) is within "
                f"{BOUNDARY_MARGIN_CELLS} cells of the boundary" if x_f > -math.inf else
                f"no front: A never reaches the threshold {threshold:g} at t = {times[k]:g}; "
                "choose a lower --threshold"
            )
        fronts.append(x_f)

    ts = times[sel]
    slope, intercept = np.polyfit(ts, fronts, 1)
    fit = slope * ts + intercept
    residual = float(np.sqrt(np.mean((fit - np.asarray(fronts)) ** 2)))
    A, I = series.snapshots[-1]
    x_front = float(front_position(A, grid, threshold))
    return SpeedMeasurement(float(slope), residual, x_front, plateau(I, grid, x_front), (t1, t2))


def shape_misfit(series: FieldSeries, x_front: float, wave: WaveProfile) -> tuple[float, float]:
    """(active, inactive) sup-norm misfit of the last snapshot against a shot wave.

    Taken on z = x - x_front in [-10, 10], relative to wave.a_max and
    wave.i_minus_inf. The wave has its maximum at z = 0, so it is moved to
    the snapshot's maximum and then by the first shift of -1, -0.99, ..., 1
    with the least active misfit; the inactive misfit is read at that shift.
    """
    A, I = series.snapshots[-1]
    z = series.grid.xs() - x_front
    sel = (z >= -10.0) & (z <= 10.0)
    if not sel.any():
        raise DomainError(f"no grid point within 10 of the front at x = {x_front:g}")
    z, a, i = z[sel], A[sel], I[sel]
    zs, states = wave.trajectory.zs, wave.trajectory.states
    zq = z - (z[np.argmax(a)] + np.arange(-1.0, 1.0 + 1e-9, 0.01))[:, None]
    sup_a = np.max(np.abs(a - np.interp(zq, zs, states[:, 0])), axis=1)
    k = int(np.argmin(sup_a))
    sup_i = np.max(np.abs(i - np.interp(zq[k], zs, states[:, 2])))
    return float(sup_a[k] / wave.a_max), float(sup_i / wave.i_minus_inf)
