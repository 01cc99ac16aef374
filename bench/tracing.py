"""Call tracing for the benchmark's traced run.

Hooks replace module-level names of the program with timing wrappers, so
every caller that looks the name up at call time goes through the wrapper.
Nothing inside the program changes.  Two kinds of wrapper exist:

- a span wrapper records (id, parent id, name, start, end) for each call;
  it is used at coarse boundaries (one op, one CLI call, one shot, one
  sweep, one simulation), a few thousand calls per run at most;
- a leaf wrapper only adds to a call count and to total and self time; it
  is used at hot names such as the wave right-hand side (about 5k calls per
  shot) and `expm` (about 1680 calls per Evans value).

A wrapper's self time is its duration minus the time of the wrapped calls
made beneath it.  A hook whose name no longer exists in its module is
skipped and listed in `Tracer.absent`; its metrics are then left out.
"""

from __future__ import annotations

import importlib
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    extra: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Hook:
    """Wrap `module.attr` under the layer name `name`.

    `span` records one span per call.  `on_result(stat, result)` may add
    counts taken from the returned value.
    """

    module: str
    attr: str
    name: str
    span: bool = False
    on_result: Callable[[Stat, object], None] | None = None


class Tracer:
    """In-memory spans and per-name aggregates for one traced phase."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.absent: list[str] = []
        # one [time covered by wrapped children] cell per open wrapped call
        self._child_time: list[list[float]] = []
        self._open_spans: list[int] = [0]
        self._span_ids = itertools.count(1)

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def wrap(self, fn: Callable, name: str, span: bool = False,
             on_result: Callable[[Stat, object], None] | None = None) -> Callable:
        stat = self.stat(name)
        child_time = self._child_time
        open_spans = self._open_spans
        spans = self.spans
        span_ids = self._span_ids
        clock = time.perf_counter

        if not span and on_result is None:
            def leaf(*args, **kwargs):
                cell = [0.0]
                child_time.append(cell)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    child_time.pop()
                    stat.calls += 1
                    stat.total_s += elapsed
                    stat.self_s += elapsed - cell[0]
                    if child_time:
                        child_time[-1][0] += elapsed
            return leaf

        def spanned(*args, **kwargs):
            cell = [0.0]
            child_time.append(cell)
            parent = open_spans[-1]
            if span:
                span_id = next(span_ids)
                open_spans.append(span_id)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                elapsed = t1 - t0
                child_time.pop()
                if span:
                    open_spans.pop()
                    spans.append((span_id, parent, name, t0, t1))
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - cell[0]
                if child_time:
                    child_time[-1][0] += elapsed
                if on_result is not None and result is not None:
                    on_result(stat, result)
        return spanned

    @contextmanager
    def installed(self, hooks: list[Hook]):
        """Patch every hook in, and restore the original names on exit."""
        saved = []
        try:
            for hook in hooks:
                try:
                    module = importlib.import_module(hook.module)
                except ModuleNotFoundError:
                    module = None
                original = getattr(module, hook.attr, None)
                if original is None:
                    self.absent.append(hook.name)
                    continue
                saved.append((module, hook.attr, original))
                setattr(module, hook.attr,
                        self.wrap(original, hook.name, hook.span, hook.on_result))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_time(self, prefix: str) -> float:
        """Summed self time of every name under a layer prefix."""
        return sum(s.self_s for n, s in self.stats.items() if n.startswith(prefix))

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "parent": p, "name": n, "start": s, "end": e}
            for i, p, n, s, e in sorted(self.spans)
        ]
