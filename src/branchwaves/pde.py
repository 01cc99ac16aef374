"""Method-of-lines front simulator.

The two-field system on a uniform grid: a second-order central Laplacian on
the diffusing field, zero-flux ends, and second-order Runge-Kutta-Chebyshev
steps (RKC; Sommeijer, Shampine & Verwer 1997) whose stage count, not size,
follows the diffusive stiffness, each stage on the local stencil only, so A
stays physical ahead of the front. The only model parameter is the production
rate r; the PDE selects its own front speed. Also front tracking, speed fits,
the plateau behind the front, and comoving profiles to compare with shot waves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import BlowUpError, ContaminatedMeasurementError, DomainError
from .model import pde_rhs

STEP = 0.02  # RKC step, shrunk to divide each snapshot interval
DAMPING = 2.0 / 13.0  # epsilon of the damped Chebyshev stability polynomial
MASS_BALANCE_TOL = 1e-10  # carried vs measured sum w(A + I), relative

BOUNDARY_MARGIN_CELLS = 10
MAX_STORED_VALUES = 10**8  # snapshot values one run may keep: 0.8 GB of float64
MAX_STAGES = 1000  # RKC stages per step; a 20001-point reference grid takes 47


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
        if not -math.inf < self.x_min < self.x_max < math.inf:
            raise DomainError(
                f"domain [{self.x_min}, {self.x_max}] must be finite and non-empty"
            )
        object.__setattr__(self, "dx", (self.x_max - self.x_min) / (self.n - 1))
        if not 0.0 < self.dx * self.dx < math.inf:
            raise DomainError(f"grid spacing {self.dx:g} must have a positive, finite square")

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)


@dataclass
class FieldSeries:
    """Snapshots (A, I) at the recorded times; `diagnostics` of `simulate`, if it made them."""

    grid: Grid
    times: np.ndarray
    snapshots: list[tuple[np.ndarray, np.ndarray]]
    diagnostics: dict = field(default_factory=dict)

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Snapshot at time t (must match a recorded time)."""
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-9:
            raise DomainError(
                f"t = {t} not in the recorded times "
                f"[{self.times[0]:g}, {self.times[-1]:g}] "
                f"(spacing {self.times[1] - self.times[0]:g})"
                if len(self.times) > 1
                else f"t = {t} not recorded"
            )
        return self.snapshots[k]


def _snapshot_times(t_end: float, snapshot_dt: float, n: int) -> np.ndarray:
    """Multiples of snapshot_dt, then t_end; DomainError past the storage cap."""
    ratio = t_end / snapshot_dt
    # a ratio past the cap is rejected anyway; capping keeps floor finite
    n_whole = math.floor(min(ratio + 1e-9, MAX_STORED_VALUES))
    partial = snapshot_dt * n_whole < t_end - 1e-9 * max(t_end, 1.0)
    if 2 * n * (n_whole + 1 + partial) > MAX_STORED_VALUES:
        raise DomainError(
            f"t_end = {t_end:g} at snapshot_dt = {snapshot_dt:g} asks for {ratio:.6g} "
            f"snapshots of 2 x {n} values, over the cap of {MAX_STORED_VALUES:.0e}"
        )
    times = snapshot_dt * np.arange(n_whole + 1)
    if partial:
        times = np.append(times, t_end)
    else:
        times[-1] = t_end
    return times


def _chebyshev(s: int) -> tuple[float, float, list[float], list[float], list[float]]:
    """beta(s) = (1 + w0) T_s''(w0) / T_s'(w0), w0 = 1 + DAMPING / s^2, and T_j, T_j', T_j''."""
    w0 = 1.0 + DAMPING / (s * s)
    T, dT, d2T = [1.0, w0], [0.0, 1.0], [0.0, 0.0]
    for j in range(2, s + 1):
        T.append(2.0 * w0 * T[j - 1] - T[j - 2])
        dT.append(2.0 * T[j - 1] + 2.0 * w0 * dT[j - 1] - dT[j - 2])
        d2T.append(4.0 * dT[j - 1] + 2.0 * w0 * d2T[j - 1] - d2T[j - 2])
    return (1.0 + w0) * d2T[s] / dT[s], w0, T, dT, d2T


def _rkc_stages(h_rho: float) -> list[tuple[float, float, float, float]]:
    """Stage coefficients (mu, nu, mu~, gamma~) for the least s >= 2 stable at h_rho,
    that is with beta(s) >= h_rho (beta grows with s); DomainError past MAX_STAGES."""
    if _chebyshev(MAX_STAGES)[0] < h_rho:
        raise DomainError(f"stiffness h rho = {h_rho:.3g} needs over {MAX_STAGES} RKC stages "
                          "per step; use a coarser grid")
    s = next(s for s in itertools.count(2) if _chebyshev(s)[0] >= h_rho)
    _, w0, T, dT, d2T = _chebyshev(s)
    w1 = dT[s] / d2T[s]
    b = [d2T[max(j, 2)] / dT[max(j, 2)] ** 2 for j in range(s + 1)]  # b_0 = b_1 = b_2
    stages = [(0.0, 0.0, b[1] * w1, 0.0)]
    for j in range(2, s + 1):
        mu_t = 2.0 * b[j] * w1 / b[j - 1]
        stages.append((2.0 * b[j] * w0 / b[j - 1], -b[j] / b[j - 2], mu_t,
                       -(1.0 - b[j - 1] * T[j - 1]) * mu_t))
    return stages


def simulate(A0, I0, r: float, grid: Grid, t_end: float,
             snapshot_dt: float = 0.5) -> FieldSeries:
    """Advance to t_end at production rate r >= 0, snapshot every snapshot_dt.

    r and both times must be finite, the times positive, the snapshots at most
    MAX_STORED_VALUES values, and the RKC steps of at most STEP, which divide
    each snapshot interval exactly, at most MAX_STAGES stages. Non-finite
    values, or a trapezoid mass w.(A + I) carried through the stages that
    misses the measured one by over MASS_BALANCE_TOL relative, raise
    BlowUpError carrying the series so far. Diagnostics: `steps`, `stages`
    per step, largest step `h`, `rhs_evaluations`, worst `mass_balance_residual`.
    """
    if not 0 <= r < math.inf:
        raise DomainError(f"production rate r must be >= 0 and finite, got {r}")
    A = np.array(A0, dtype=float)
    I = np.array(I0, dtype=float)
    if A.shape != (grid.n,) or I.shape != (grid.n,):
        raise ValueError(
            f"fields must have shape ({grid.n},), got {A.shape} and {I.shape}"
        )
    for name, value in (("t_end", t_end), ("snapshot_dt", snapshot_dt)):
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {value}")

    # Gershgorin: spectral radius <= 4/dx^2 + 5 + r while 0 <= A <= 1, 0 <= I <= 2
    stages = _rkc_stages(STEP * (4.0 / grid.dx**2 + 5.0 + r))
    w = grid.dx * np.r_[0.5, np.ones(grid.n - 2), 0.5]  # trapezoid weights
    times = _snapshot_times(t_end, snapshot_dt, grid.n)
    Y = np.array([A, I])
    snaps = [(Y[0], Y[1])]
    diag = dict(steps=0, stages=len(stages), h=0.0, rhs_evaluations=0, mass_balance_residual=0.0)

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, len(times)):
            n_steps = max(1, math.ceil((times[k] - times[k - 1]) / STEP - 1e-12))
            h = float(times[k] - times[k - 1]) / n_steps
            mass = w @ (Y[0] + Y[1])
            # stage j: Y_j - Y0 = mu (Y_{j-1} - Y0) + nu (Y_{j-2} - Y0) + mu~ h F_{j-1}
            # + gamma~ h F_0, so F = 0 keeps Y bitwise; the mass of F(Y) is (1 + r) w.A
            for _ in range(n_steps):
                F0 = np.array(pde_rhs(Y[0], Y[1], r, grid.dx))
                f0 = (1.0 + r) * (w @ Y[0])
                prev, m_prev = 0.0, 0.0
                cur, m_cur = (stages[0][2] * h) * F0, stages[0][2] * h * f0
                for mu, nu, mu_t, gamma_t in stages[1:]:
                    Ys = Y + cur
                    F = np.array(pde_rhs(Ys[0], Ys[1], r, grid.dx))
                    f = (1.0 + r) * (w @ Ys[0])
                    cur, prev = mu * cur + nu * prev + (mu_t * h) * F + (gamma_t * h) * F0, cur
                    m_cur, m_prev = mu * m_cur + nu * m_prev + h * (mu_t * f + gamma_t * f0), m_cur
                Y = Y + cur
                mass += m_cur
            diag["steps"] += n_steps
            diag["rhs_evaluations"] += n_steps * len(stages)
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
            snaps.append((Y[0], Y[1]))
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


def measure_speed(series: FieldSeries, threshold: float,
                  window: tuple[float, float]) -> SpeedMeasurement:
    """Least-squares front speed over a time window.

    The front must stay at least 10 grid cells away from both domain
    ends throughout the window; otherwise the measurement counts as
    contaminated.
    """
    t1, t2 = window
    times = series.times
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
                f"{BOUNDARY_MARGIN_CELLS} cells of the boundary"
            )
        fronts.append(x_f)

    ts = times[sel]
    slope, intercept = np.polyfit(ts, fronts, 1)
    fit = slope * ts + intercept
    residual = float(np.sqrt(np.mean((fit - np.asarray(fronts)) ** 2)))
    return SpeedMeasurement(float(slope), residual)


class ComovingProfile(NamedTuple):
    z: np.ndarray
    a: np.ndarray
    i: np.ndarray


def comoving_profile(series: FieldSeries, t: float, c_est: float,
                     anchor: float) -> ComovingProfile:
    """Snapshot at time t on the front-anchored coordinate z = x - x_front.

    The anchor threshold crossing sits at z = 0. When the snapshot never
    reaches the anchor level (no front), the nominal position c_est * t
    anchors the shift instead.
    """
    A, I = series.at(t)
    x_front = front_position(A, series.grid, anchor)
    if not math.isfinite(x_front):
        x_front = c_est * t
    z = series.grid.xs() - x_front
    return ComovingProfile(z, A.copy(), I.copy())
