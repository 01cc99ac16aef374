"""Adaptive explicit integration with event detection.

Thin layer over scipy's embedded RK45 pair, for real or complex states: a
manual step loop that records every accepted step, scans user events for
sign changes on the step interpolant, and refines each crossing by root
bracketing. Backward runs negate the right-hand side so the core only ever
steps forward.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.integrate import RK45
from scipy.optimize import brentq

from .errors import DomainError, NonConvergenceError

EVENT_ZTOL = 1e-10


@dataclass(frozen=True)
class IntegratorOptions:
    """Step-control knobs for :func:`integrate`."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = 0.1
    max_steps: int = 1_000_000

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            tol = getattr(self, name)
            if not 0.0 < tol <= 1e-2:
                raise DomainError(f"{name} must lie in (0, 1e-2], got {tol}")
        if self.max_step <= 0.0:
            raise DomainError(f"max_step must be positive, got {self.max_step}")
        if self.max_steps < 1:
            raise DomainError(f"max_steps must be at least 1, got {self.max_steps}")


class Event:
    """Scalar event function with a crossing direction and a halt flag.

    ``fn(z, y)`` is evaluated after every accepted step; a sign change in
    the requested direction (+1 rising, -1 falling, 0 either) is refined
    on the step interpolant. A terminal event truncates the trajectory at
    the refined abscissa.
    """

    def __init__(self, fn: Callable, direction: int = 0, terminal: bool = False):
        if direction not in (-1, 0, 1):
            raise DomainError(f"direction must be -1, 0, or +1, got {direction}")
        self.fn = fn
        self.direction = direction
        self.terminal = terminal


class EventRecord(NamedTuple):
    index: int
    z: float
    state: np.ndarray


@dataclass
class Trajectory:
    """Accepted abscissae and states, plus refined event hits."""

    zs: np.ndarray
    states: np.ndarray
    events: list[EventRecord] = field(default_factory=list)

    def __post_init__(self):
        self.zs = np.asarray(self.zs, dtype=float)
        if len(self.zs) != len(self.states):
            raise ValueError(
                f"zs has {len(self.zs)} entries but states has {len(self.states)}"
            )
        if len(self.zs) > 1:
            dz = np.diff(self.zs)
            if not (np.all(dz > 0) or np.all(dz < 0)):
                raise ValueError("zs must be strictly monotone")

    def __len__(self):
        return len(self.zs)


def _crossed(g_old: float, g_new: float, direction: int) -> bool:
    if g_old == 0.0:
        return False  # already on the zero set at the step start
    rising = g_old < 0.0 and g_new >= 0.0
    falling = g_old > 0.0 and g_new <= 0.0
    if direction > 0:
        return rising
    if direction < 0:
        return falling
    return rising or falling


def integrate(
    rhs: Callable,
    y0,
    z_span: tuple[float, float],
    opts: IntegratorOptions | None = None,
    events: Sequence[Event] | None = None,
) -> Trajectory:
    """Integrate ``y' = rhs(z, y)`` over ``z_span``, recording accepted steps.

    ``z_span`` may run in either direction; a decreasing span is handled
    by negating the right-hand side internally, so ``zs`` in the result
    is strictly decreasing in that case. Raises
    :class:`~branchwaves.errors.NonConvergenceError` (carrying the
    partial trajectory) on step underflow or when ``opts.max_steps``
    accepted steps are exhausted before reaching the far end.

    States keep the kind of ``y0``: complex if ``y0`` is complex, float
    otherwise.  Event functions receive the state and return a real scalar.
    """
    if opts is None:
        opts = IntegratorOptions()
    z_start, z_end = float(z_span[0]), float(z_span[1])
    if z_start == z_end:
        raise DomainError("z_span must be non-degenerate")
    evs = list(events or [])

    dtype = complex if np.iscomplexobj(y0) else float
    backward = z_end < z_start
    if backward:
        # internal clock tau = z_start - z runs forward
        def f(tau, y):
            return -np.asarray(rhs(z_start - tau, y), dtype=dtype)

        to_z = lambda tau: z_start - tau
        bound = z_start - z_end
    else:
        def f(tau, y):
            return np.asarray(rhs(z_start + tau, y), dtype=dtype)

        to_z = lambda tau: z_start + tau
        bound = z_end - z_start

    y0 = np.asarray(y0, dtype=dtype)
    solver = RK45(
        f, 0.0, y0, bound,
        rtol=opts.rel_tol, atol=opts.abs_tol, max_step=opts.max_step,
    )

    taus = [0.0]
    states = [y0.copy()]
    hits: list[EventRecord] = []
    g_prev = [ev.fn(z_start, y0) for ev in evs]

    def partial() -> Trajectory:
        return Trajectory(
            np.array([to_z(t) for t in taus]), np.array(states), hits
        )

    while solver.status == "running":
        if len(taus) - 1 >= opts.max_steps:
            raise NonConvergenceError(
                f"no convergence within {opts.max_steps} steps", partial()
            )
        solver.step()
        if solver.status == "failed":
            raise NonConvergenceError("step size underflow", partial())

        tau_old, tau_new = taus[-1], solver.t
        y_new = solver.y
        dense = solver.dense_output()

        g_new = [ev.fn(to_z(tau_new), y_new) for ev in evs]
        crossings = []  # (tau, event index)
        for k, ev in enumerate(evs):
            if _crossed(g_prev[k], g_new[k], ev.direction):
                if g_new[k] == 0.0:
                    tau_e = tau_new
                else:
                    tau_e = brentq(
                        lambda t: evs[k].fn(to_z(t), dense(t)),
                        tau_old, tau_new, xtol=EVENT_ZTOL,
                    )
                crossings.append((tau_e, k))
        crossings.sort()

        stopped = False
        for tau_e, k in crossings:
            y_e = dense(tau_e) if tau_e < tau_new else y_new.copy()
            hits.append(EventRecord(k, to_z(tau_e), y_e))
            if evs[k].terminal:
                if tau_e > tau_old:
                    taus.append(tau_e)
                    states.append(y_e)
                stopped = True
                break
        if stopped:
            break

        taus.append(tau_new)
        states.append(y_new.copy())
        g_prev = g_new

    return partial()

