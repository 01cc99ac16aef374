"""Method-of-lines front simulator.

Advances the two-field system on a uniform grid with a second-order
central Laplacian on the diffusing field, zero-flux ends, and a fixed-dt
classical four-stage Runge-Kutta step obeying both the diffusive and the
reaction stability bounds. The only model parameter is the production
rate r; the PDE selects its own front speed. Includes front tracking,
speed measurement, the plateau left behind the front, and extraction of
comoving profiles for comparison with shot waves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import BlowUpError, ContaminatedMeasurementError, DomainError
from .model import pde_rhs

# dt <= DIFFUSIVE_CFL * dx^2 and dt <= REACTION_DT_CAP
DIFFUSIVE_CFL = 0.4
REACTION_DT_CAP = 0.1

BOUNDARY_MARGIN_CELLS = 10
MAX_STORED_VALUES = 10**8  # snapshot values one run may keep: 0.8 GB of float64


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n points spanning [x_min, x_max]."""

    x_min: float
    x_max: float
    n: int
    dx: float = field(init=False)

    def __post_init__(self):
        if self.n < 16:
            raise DomainError(f"need at least 16 grid points, got {self.n}")
        if not self.x_max > self.x_min:
            raise DomainError(
                f"empty domain [{self.x_min}, {self.x_max}]"
            )
        object.__setattr__(self, "dx", (self.x_max - self.x_min) / (self.n - 1))

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)


@dataclass
class FieldSeries:
    """Snapshots (A, I) of one simulation at the recorded times."""

    grid: Grid
    times: np.ndarray
    snapshots: list[tuple[np.ndarray, np.ndarray]]

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


def _rk4_interval(A, I, r, dx, span, dt_cap):
    n_sub = max(1, int(math.ceil(span / dt_cap - 1e-12)))
    dt = span / n_sub
    for _ in range(n_sub):
        kA1, kI1 = pde_rhs(A, I, r, dx)
        kA2, kI2 = pde_rhs(A + 0.5 * dt * kA1, I + 0.5 * dt * kI1, r, dx)
        kA3, kI3 = pde_rhs(A + 0.5 * dt * kA2, I + 0.5 * dt * kI2, r, dx)
        kA4, kI4 = pde_rhs(A + dt * kA3, I + dt * kI3, r, dx)
        A = A + (dt / 6.0) * (kA1 + 2.0 * kA2 + 2.0 * kA3 + kA4)
        I = I + (dt / 6.0) * (kI1 + 2.0 * kI2 + 2.0 * kI3 + kI4)
    return A, I


def simulate(A0, I0, r: float, grid: Grid, t_end: float,
             snapshot_dt: float = 0.5) -> FieldSeries:
    """Advance to t_end at production rate r >= 0, snapshot every snapshot_dt.

    r and both times must be finite, the times positive, and the snapshots
    at most MAX_STORED_VALUES values. The step size obeys dt <= 0.4
    dx^2 (diffusion) and dt <= 0.1 (reaction) and divides each snapshot
    interval exactly. Non-finite values raise BlowUpError carrying the
    series recorded so far.
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

    dt_cap = min(DIFFUSIVE_CFL * grid.dx * grid.dx, REACTION_DT_CAP)
    times = _snapshot_times(t_end, snapshot_dt, grid.n)
    snaps = [(A.copy(), I.copy())]

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, len(times)):
            A, I = _rk4_interval(A, I, r, grid.dx, times[k] - times[k - 1], dt_cap)
            if not (np.isfinite(A).all() and np.isfinite(I).all()):
                raise BlowUpError(
                    f"non-finite field values by t = {times[k]:g} "
                    f"(last finite snapshot at t = {times[k - 1]:g})",
                    series=FieldSeries(grid, times[:k], snaps),
                )
            snaps.append((A.copy(), I.copy()))
    return FieldSeries(grid, times, snaps)


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
