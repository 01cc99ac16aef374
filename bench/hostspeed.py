"""Host speed, sampled next to the timed work on the same CPU.

The benchmark runs on shared virtual CPUs whose speed drifts by up to
about 2x over seconds to minutes, independently on each CPU.  The
benchmark therefore times a fixed pure-Python kernel, which does not
depend on the program, next to the work, and reports times scaled to the
speed at which the kernel takes `REFERENCE_S`:

    scaled time = wall time * REFERENCE_S / mean kernel time during that span

`Sampler` runs the kernel in a background thread every `PERIOD_S` while
the work runs.  The process is pinned to one CPU first, so that the
kernel runs on the CPU the work runs on.  The kernel holds the GIL for
about a millisecond, so the work loses 2-3% of its time to it, the same
on every commit.

This module imports nothing that a fresh interpreter has not loaded
already, so that the set-up probe in run.py can use it before it times
`import branchwaves.cli`.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

# about the fastest kernel time seen on the baseline machine (see README.md)
REFERENCE_S = 1.0e-3
PERIOD_S = 0.05
KERNEL_N = 12_000


def kernel() -> float:
    """Seconds taken by a fixed loop of Python float arithmetic."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(KERNEL_N):
        s += (i * 0.5) ** 0.5
    return time.perf_counter() - t0


def burst_scale(n: int = 20) -> float:
    """Factor that turns wall time now into time at reference speed."""
    return REFERENCE_S * n / sum(kernel() for _ in range(n))


def pin_to_one_cpu() -> int:
    """Pin this process, and the threads it starts, to its lowest allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Sampler:
    """Background thread that records (end time, kernel seconds) samples."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            spent = kernel()
            self.samples.append((time.perf_counter(), spent))

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, t0: float, t1: float) -> float:
        """`burst_scale` over [t0, t1], from the samples that ended in it.

        It takes the mean kernel time, since wall time adds up the slow
        and the fast moments of the span alike.
        """
        ends = [end for end, _ in self.samples]
        lo, hi = bisect.bisect_left(ends, t0), bisect.bisect_right(ends, t1)
        inside = [spent for _, spent in self.samples[lo:hi]]
        return REFERENCE_S * len(inside) / sum(inside) if inside else burst_scale()
