"""Adaptive explicit integration with event detection.

Thin layer over scipy's embedded RK45 pair for the shooting runs: a manual
step loop that runs forward from z = 0 on float states, records every
accepted step, scans the events for falling crossings on the step
interpolant, and refines each crossing by root bracketing. The step
control is fixed by the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.integrate import RK45
from scipy.optimize import brentq

from .errors import DomainError, NonConvergenceError

REL_TOL = 1e-9
ABS_TOL = 1e-12
MAX_STEP = 0.1
MAX_STEPS = 1_000_000
EVENT_ZTOL = 1e-10


class Event(NamedTuple):
    """Scalar event function and a halt flag.

    ``fn(z, y)`` is evaluated after every accepted step; a falling
    crossing (positive at the step start, at or below zero at its end) is
    refined on the step interpolant. A terminal event truncates the
    trajectory at the refined abscissa.
    """

    fn: Callable
    terminal: bool = False


class EventRecord(NamedTuple):
    index: int
    z: float
    state: np.ndarray


@dataclass
class Trajectory:
    """Accepted abscissae (strictly increasing) and states, plus refined event hits."""

    zs: np.ndarray
    states: np.ndarray
    events: list[EventRecord] = field(default_factory=list)

    def __post_init__(self):
        self.zs = np.asarray(self.zs, dtype=float)
        if len(self.zs) != len(self.states):
            raise ValueError(
                f"zs has {len(self.zs)} entries but states has {len(self.states)}"
            )
        if not np.all(np.diff(self.zs) > 0):
            raise ValueError("zs must be strictly increasing")

    def __len__(self):
        return len(self.zs)


def integrate(
    rhs: Callable, y0, z_end: float, events: Sequence[Event] | None = None
) -> Trajectory:
    """Integrate ``y' = rhs(z, y)`` forward over [0, z_end], recording accepted steps.

    States are float arrays. Raises
    :class:`~branchwaves.errors.NonConvergenceError` (carrying the
    partial trajectory) on step underflow or when ``MAX_STEPS`` accepted
    steps are exhausted before reaching ``z_end``.
    """
    if not z_end > 0.0:
        raise DomainError(f"z_end must be positive, got {z_end}")
    evs = list(events or [])

    def f(z, y):
        return np.asarray(rhs(z, y), dtype=float)

    y0 = np.asarray(y0, dtype=float)
    solver = RK45(f, 0.0, y0, z_end, rtol=REL_TOL, atol=ABS_TOL, max_step=MAX_STEP)

    zs = [0.0]
    states = [y0.copy()]
    hits: list[EventRecord] = []
    g_prev = [ev.fn(0.0, y0) for ev in evs]

    def partial() -> Trajectory:
        return Trajectory(np.array(zs), np.array(states), hits)

    while solver.status == "running":
        if len(zs) - 1 >= MAX_STEPS:
            raise NonConvergenceError(
                f"no convergence within {MAX_STEPS} steps", partial()
            )
        solver.step()
        if solver.status == "failed":
            raise NonConvergenceError("step size underflow", partial())

        z_old, z_new = zs[-1], solver.t
        y_new = solver.y
        dense = solver.dense_output()

        g_new = [ev.fn(z_new, y_new) for ev in evs]
        crossings = []  # (z, event index)
        for k, ev in enumerate(evs):
            if g_prev[k] > 0.0 >= g_new[k]:
                if g_new[k] == 0.0:
                    z_e = z_new
                else:
                    z_e = brentq(
                        lambda z: ev.fn(z, dense(z)),
                        z_old, z_new, xtol=EVENT_ZTOL,
                    )
                crossings.append((z_e, k))
        crossings.sort()

        stopped = False
        for z_e, k in crossings:
            y_e = dense(z_e) if z_e < z_new else y_new.copy()
            hits.append(EventRecord(k, z_e, y_e))
            if evs[k].terminal:
                if z_e > z_old:
                    zs.append(z_e)
                    states.append(y_e)
                stopped = True
                break
        if stopped:
            break

        zs.append(z_new)
        states.append(y_new.copy())
        g_prev = g_new

    return partial()
