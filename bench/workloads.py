"""Benchmark worker: runs one workload in this process and checks every op.

`run.py` starts it with BLAS/OpenMP threads pinned to 1, `src/` as the
only import path for the program and TMPDIR pointing at a scratch
directory inside the checkout.  The worker pins itself to one CPU and
makes a directory of its own under TMPDIR; every CLI output goes there,
is deleted after each op, and the directory is removed at exit.  The last
line of stdout is one JSON object with the op counts, the metrics and run
details.

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (an op is the unit `ops_per_s` counts):

- evans_contour: `branchwaves evans` at c=2, r=0, i_minus=2 on the
  default contour; one sweep per pass, 450 contour points as ops.
- shoot_battery: `wave.shoot_from_max` on 64 seeded draws with the
  battery's distribution, each checked against the closed-form limit and
  the invariant triangles; the 64 shots are one pass, one shot per op.
- wave_grid: `branchwaves wave` over c in {2,3}, r in {0,1}, i_minus in
  {1.2,1.5,1.8,2.0}; the 16 waves are one pass, one wave per op.
- pde_front: `branchwaves pde --r R` for R in {0,1} on the default grid
  to t=30; both runs are one pass, one run per op.

With --trace 0 passes repeat until the next one would end after --seconds
(at least one pass), and the end-to-end metrics are reported; every pass
runs the same ops, and `ops_per_s` is the op rate over all passes at
reference host speed (hostspeed.py).
With --trace 1 one pass runs untraced and then again traced, so counts
repeat exactly for a seed, and the per-layer metrics are reported.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import branchwaves
from branchwaves import analysis, cli, wave
from branchwaves.model import Params

import checks
import hostspeed
from tracing import Hook, Stat, Tracer

ROOT = Path(__file__).resolve().parent.parent

EVANS_ARGV = ["evans", "--c", "2", "--r", "0", "--i-minus", "2",
              "--contour", "0.001:1000:200"]
# contour_of_S(0.001, 1000, 200) has 451 points and the last repeats the first
EVANS_POINTS = 450
WAVE_GRID = [(c, r, i) for c in (2.0, 3.0) for r in (0.0, 1.0)
             for i in (1.2, 1.5, 1.8, 2.0)]
PDE_ARGV = ["pde", "--grid", "2001:-30:120", "--t-end", "30"]
PDE_RATES = (0.0, 1.0)
SHOTS_PER_PASS = 128
# a residual below this share of its tolerance counts as this share in err_ratio,
# so that an exact answer cannot make the geometric mean zero
ERR_FLOOR = 1e-15

Op = Callable[[], "tuple[bool, float | None]"]
Draw = tuple[float, float, float, float]


class CliRunner:
    """Calls `cli.main` in-process with outputs in a directory of its own.

    Every call writes under the `--out` prefix `<scratch>/out`; the files
    it wrote are measured and deleted after the call.
    """

    def __init__(self, scratch: Path):
        self.out = scratch / "out"
        self.csv_bytes = 0
        self.errors: list[str] = []

    def __call__(self, argv: list[str]) -> tuple[int, dict | None]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--out", str(self.out)])
        for path in self.out.parent.glob(self.out.name + "*"):
            self.csv_bytes += path.stat().st_size
            path.unlink()
        if code != 0:
            self.errors.append(f"{' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
        try:
            report = json.loads(out.getvalue())
        except json.JSONDecodeError:
            report = None
        return code, report


class EvansContour:
    def __init__(self, seed: int, run_cli: CliRunner):
        self.cli = run_cli

    def warmup(self) -> None:
        self.cli(["evans", "--self-test"])

    def pass_ops(self) -> list[tuple[int, Op]]:
        return [(EVANS_POINTS, self._sweep)]

    def _sweep(self):
        return checks.evans_sweep(*self.cli(EVANS_ARGV))


class ShootBattery:
    def __init__(self, seed: int, run_cli: CliRunner):
        self._draws = self._battery_draws(np.random.default_rng(seed), SHOTS_PER_PASS)

    @staticmethod
    def _battery_draws(rng: np.random.Generator, n: int) -> list[Draw]:
        """n draws of (a0, i0, c, r) with the battery's distribution.

        The battery maps four uniforms to c in [1.5, 4], r in [0, 2], i0 in
        [i_c + 0.05, 0.95] and a0 in [0, a_star(i0, c, r)].  Here the n sets
        of uniforms form a Latin hypercube, so each draw keeps that
        distribution while the set covers every range evenly; shot cost
        depends mostly on c and i0, and this keeps the mean cost of the set
        from swinging with the seed.
        """
        strata = np.column_stack([rng.permutation(n) for _ in range(4)])
        draws = []
        for u_c, u_r, u_i, u_a in (strata + rng.uniform(size=(n, 4))) / n:
            c = 1.5 + 2.5 * u_c
            r = 2.0 * u_r
            i_lo = analysis.minimal_inactive_limit(c) + 0.05
            i0 = i_lo + (0.95 - i_lo) * u_i
            a0 = analysis.a_star(i0, c, r) * u_a
            draws.append((a0, i0, c, r))
        return draws

    def warmup(self) -> None:
        self._shot(0.3, 0.5, 2.0, 0.0)

    def pass_ops(self) -> list[tuple[int, Op]]:
        return [(1, partial(self._shot, *draw)) for draw in self._draws]

    @staticmethod
    def _shot(a0: float, i0: float, c: float, r: float):
        traj, limit = wave.shoot_from_max(a0, i0, Params(c=c, r=r))
        return checks.shot(
            limit,
            analysis.i_plus_infinity(a0, i0, c, r),
            checks.in_triangles(traj.states, c),
        )


class WaveGrid:
    def __init__(self, seed: int, run_cli: CliRunner):
        self.cli = run_cli

    def warmup(self) -> None:
        self.cli(["wave"])

    def pass_ops(self) -> list[tuple[int, Op]]:
        return [(1, partial(self._wave, *point)) for point in WAVE_GRID]

    def _wave(self, c: float, r: float, i_minus: float):
        argv = ["wave", "--c", f"{c:g}", "--r", f"{r:g}", "--i-minus", f"{i_minus:g}"]
        return checks.wave_profile(*self.cli(argv))


class PdeFront:
    def __init__(self, seed: int, run_cli: CliRunner):
        self.cli = run_cli

    def warmup(self) -> None:
        self.cli(["pde", "--grid", "201:-30:120", "--t-end", "2"])

    def pass_ops(self) -> list[tuple[int, Op]]:
        return [(1, partial(self._run, r)) for r in PDE_RATES]

    def _run(self, r: float):
        return checks.pde_front(*self.cli([*PDE_ARGV, "--r", f"{r:g}"]))


WORKLOADS = {
    "evans_contour": EvansContour,
    "shoot_battery": ShootBattery,
    "wave_grid": WaveGrid,
    "pde_front": PdeFront,
}


@dataclass
class Phase:
    """Op outcomes and pass timings of one untraced or traced phase."""

    ops: int = 0
    failed: int = 0
    errs: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    # each pass's wall time scaled to reference host speed
    scaled_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def run_pass(self, workload, wrap: Callable[[Op], Op] | None = None) -> tuple[float, float]:
        items = workload.pass_ops()
        if wrap is not None:
            items = [(weight, wrap(op)) for weight, op in items]
        t0 = time.perf_counter()
        for weight, op in items:
            try:
                ok, err = op()
            except Exception:  # a raising op is a failed op; keep measuring the rest
                ok, err = False, None
                self.failures.append(traceback.format_exc(limit=4))
            self.ops += weight
            if not ok:
                self.failed += weight
            if err is not None:
                self.errs.append(err)
        t1 = time.perf_counter()
        self.pass_s.append(t1 - t0)
        return t0, t1

    def detail(self) -> dict:
        return {
            "ops": self.ops,
            "failed": self.failed,
            "passes": len(self.pass_s),
            "pass_s": self.pass_s,
            "scaled_s": self.scaled_s,
            "max_err_ratio": max(self.errs, default=None),
            "failures": self.failures[:3],
        }


def timed_phase(workload, seconds: float) -> Phase:
    """Passes until the next one, at the mean pass time, would end after `seconds`.

    Host speed is sampled throughout, and each pass's time is also kept
    scaled to reference speed (see hostspeed.py).
    """
    phase = Phase()
    spans = []
    with hostspeed.Sampler() as sampler:
        start = time.perf_counter()
        while True:
            spans.append(phase.run_pass(workload))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.fmean(phase.pass_s) > seconds:
                break
    phase.scaled_s = [(t1 - t0) * sampler.scale(t0, t1) for t0, t1 in spans]
    return phase


def _count_trajectory(stat: Stat, traj) -> None:
    stat.extra["steps"] = stat.extra.get("steps", 0) + len(traj) - 1
    stat.extra["events"] = stat.extra.get("events", 0) + len(traj.events)


# Names the program's callers look up at call time.  Spans at coarse
# boundaries; aggregates only at the hot leaves (wave_rhs, expm, pde_rhs,
# triangle tests).
HOOKS = [
    Hook("branchwaves.cli", "main", "cli.main", span=True),
    Hook("branchwaves.wave", "shoot_wave", "wave.shoot_wave", span=True),
    Hook("branchwaves.wave", "shoot_from_max", "wave.shoot_from_max", span=True),
    Hook("branchwaves.wave", "verify_profile", "wave.verify_profile", span=True),
    Hook("branchwaves.wave", "integrate", "odeint.integrate", on_result=_count_trajectory),
    Hook("branchwaves.wave", "wave_rhs", "model.wave_rhs"),
    Hook("branchwaves.analysis", "triangle", "analysis.triangle"),
    Hook("branchwaves.analysis", "triangle_contains", "analysis.triangle_contains"),
    Hook("branchwaves.analysis", "mass_residuals", "analysis.mass_residuals"),
    Hook("branchwaves.spectral", "make_setup", "spectral.make_setup", span=True),
    Hook("branchwaves.spectral", "winding_number", "spectral.winding_number", span=True),
    Hook("branchwaves.spectral", "evans", "spectral.evans"),
    Hook("branchwaves.spectral", "expm", "spectral.expm"),
    Hook("branchwaves.pde", "simulate", "pde.simulate", span=True),
    Hook("branchwaves.pde", "pde_rhs", "model.pde_rhs"),
    Hook("branchwaves.pde", "measure_speed", "pde.measure_speed", span=True),
]

LAYERS = ("model", "odeint", "wave", "analysis", "spectral", "pde", "cli")

# (metric, hook name, Stat field, unit)
HOOK_METRICS = [
    ("model.wave_rhs.calls", "model.wave_rhs", "calls", "count"),
    ("model.wave_rhs.s", "model.wave_rhs", "total_s", "s"),
    ("model.pde_rhs.calls", "model.pde_rhs", "calls", "count"),
    ("model.pde_rhs.s", "model.pde_rhs", "total_s", "s"),
    ("odeint.integrate.calls", "odeint.integrate", "calls", "count"),
    ("odeint.integrate.self_s", "odeint.integrate", "self_s", "s"),
    ("wave.shoot_from_max.self_s", "wave.shoot_from_max", "self_s", "s"),
    ("wave.shoot_wave.self_s", "wave.shoot_wave", "self_s", "s"),
    ("wave.verify_profile.self_s", "wave.verify_profile", "self_s", "s"),
    ("analysis.triangle.calls", "analysis.triangle", "calls", "count"),
    ("analysis.triangle.s", "analysis.triangle", "total_s", "s"),
    ("analysis.triangle_contains.calls", "analysis.triangle_contains", "calls", "count"),
    ("analysis.triangle_contains.s", "analysis.triangle_contains", "total_s", "s"),
    ("analysis.mass_residuals.s", "analysis.mass_residuals", "total_s", "s"),
    ("spectral.make_setup.s", "spectral.make_setup", "total_s", "s"),
    ("spectral.evans.calls", "spectral.evans", "calls", "count"),
    ("spectral.evans.self_s", "spectral.evans", "self_s", "s"),
    ("spectral.expm.calls", "spectral.expm", "calls", "count"),
    ("spectral.expm.s", "spectral.expm", "total_s", "s"),
    ("spectral.winding_number.self_s", "spectral.winding_number", "self_s", "s"),
    ("pde.simulate.self_s", "pde.simulate", "self_s", "s"),
    ("pde.measure_speed.s", "pde.measure_speed", "total_s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, base: Phase, traced: Phase,
                  csv_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced phase; metrics of absent hooks are left out.

    Only evans_contour calls `evans`, and there an op is one contour point,
    so ops per Evans call is the share of evaluations not spent on bisection.
    """
    st = tracer.stats
    out: dict[str, tuple[float, str]] = {}
    for metric, hook, attr, unit in HOOK_METRICS:
        if hook in st:
            out[metric] = (getattr(st[hook], attr), unit)
    if "odeint.integrate" in st:
        integ = st["odeint.integrate"]
        steps = integ.extra.get("steps", 0)
        out["odeint.steps"] = (steps, "count")
        out["odeint.events"] = (integ.extra.get("events", 0), "count")
        if "model.wave_rhs" in st:
            out["odeint.rhs_per_step"] = (_ratio(st["model.wave_rhs"].calls, steps), "ratio")
    if "spectral.evans" in st:
        out["spectral.useful_ratio"] = (_ratio(traced.ops, st["spectral.evans"].calls), "ratio")
    if "model.pde_rhs" in st:
        out["pde.rk4_steps"] = (st["model.pde_rhs"].calls // 4, "count")
    if "cli.main" in st:
        out["cli.csv_bytes"] = (csv_bytes, "bytes")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tracer.self_time(layer + "."), "s")
    out["trace.overhead"] = (sum(traced.scaled_s) / sum(base.scaled_s), "ratio")
    out["trace.unattributed_s"] = (st["op"].self_s, "s")
    return out


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = Path(branchwaves.__file__).resolve().parent
    if package != ROOT / "src" / "branchwaves":
        print(f"error: imported branchwaves from {package}, not from this checkout",
              file=sys.stderr)
        return 2

    hostspeed.pin_to_one_cpu()
    with tempfile.TemporaryDirectory(prefix="bench-") as scratch:
        return run(args, CliRunner(Path(scratch)))


def run(args: argparse.Namespace, run_cli: CliRunner) -> int:
    workload = WORKLOADS[args.workload](args.seed, run_cli)
    workload.warmup()

    detail: dict = {"workload": args.workload, "seed": args.seed}
    if not args.trace:
        phase = timed_phase(workload, args.seconds)
        metrics = {
            # at reference host speed, so that the host's drift cancels (see README.md)
            "ops_per_s": (phase.ops / sum(phase.scaled_s), "1/s"),
            "err_ratio": (statistics.geometric_mean(max(e, ERR_FLOOR) for e in phase.errs)
                          if phase.errs else None, "ratio"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
        phases = [phase]
        detail["timed"] = phase.detail()
        detail["wall_ops_per_s"] = phase.ops / sum(phase.pass_s)
    else:
        base, traced, tracer = Phase(), Phase(), Tracer()
        with hostspeed.Sampler() as sampler:
            base_span = base.run_pass(workload)
            csv_before = run_cli.csv_bytes
            with tracer.installed(HOOKS):
                traced_span = traced.run_pass(
                    workload, wrap=partial(tracer.wrap, name="op", span=True))
        for phase, (t0, t1) in ((base, base_span), (traced, traced_span)):
            phase.scaled_s = [(t1 - t0) * sampler.scale(t0, t1)]
        metrics = layer_metrics(tracer, base, traced, run_cli.csv_bytes - csv_before)
        phases = [base, traced]
        detail["untraced"] = base.detail()
        detail["traced"] = traced.detail()
        detail["absent_hooks"] = tracer.absent
        spans_dir = ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        spans_path = spans_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.span_records()))
        detail["spans"] = str(spans_path.relative_to(ROOT))
    detail["cli_errors"] = run_cli.errors[:3]

    print(json.dumps({
        "attempted": sum(p.ops for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
