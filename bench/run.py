"""Benchmark entry point: set-up time, one worker run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`
and nothing needs building.  With --trace 0 the result carries the
end-to-end metrics: `setup_s`, the lower quartile over 12 fresh
interpreters of the time to import `branchwaves.cli`, scaled to reference
host speed (hostspeed.py), and `ops_per_s`, `err_ratio` and `peak_rss_mb`
from the worker (see workloads.py).  With --trace 1 it
carries the per-layer metrics of a traced run, and the spans of that run
are kept in `.bench_out/`.

All child processes get BLAS/OpenMP threads pinned to 1 and TMPDIR set to
a scratch directory under `.bench_tmp/` that is removed at the end.  The
line before the result holds the machine facts and run details.  Exit
status 0 means a result was printed; anything else means no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("evans_contour", "shoot_battery", "wave_grid", "pde_front")

# one untimed import first fills the bytecode cache, as an installed package has it
SETUP_REPEATS = 12
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 160
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# host speed is sampled just before and just after the timed import
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.append(sys.argv[1])\n"
    "import hostspeed\n"
    "sys.path.pop()\n"
    "hostspeed.pin_to_one_cpu()\n"
    "before = hostspeed.burst_scale()\n"
    "t0 = time.perf_counter()\n"
    "import branchwaves.cli\n"
    "t1 = time.perf_counter()\n"
    "print(t1 - t0, (before + hostspeed.burst_scale()) / 2)\n"
    "print(branchwaves.cli.__file__)\n"
)


def child_env(tmp: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    return env


def measure_setup(env: dict[str, str]) -> list[tuple[float, float]]:
    """(wall, scale) of importing `branchwaves.cli`, each in a fresh interpreter."""
    samples = []
    for k in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(BENCH)], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"importing branchwaves.cli failed:\n{proc.stderr}")
        seconds, scale, path = proc.stdout.split()
        if Path(path).resolve().parent.parent != SRC:
            raise RuntimeError(f"imported branchwaves from {path}, not from {SRC}")
        if k:
            samples.append((float(seconds), float(scale)))
    return samples


def machine_facts() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "branchwaves" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'branchwaves'}; run from a checkout",
              file=sys.stderr)
        return 2

    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    try:
        env = child_env(tmp)
        setup = [] if args.trace else measure_setup(env)
        worker = subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if worker.returncode != 0 or not worker.stdout.strip():
        print(f"error: worker exited with {worker.returncode}\n{worker.stderr}",
              file=sys.stderr)
        return 1

    result = json.loads(worker.stdout.splitlines()[-1])
    metrics = result["metrics"]
    if setup:
        # lower quartile of the import times at reference host speed
        scaled = [wall * scale for wall, scale in setup]
        metrics = {
            "ops_per_s": metrics["ops_per_s"],
            "setup_s": {"value": statistics.quantiles(scaled, n=4)[0], "unit": "s"},
            **metrics,
        }
    facts = {**machine_facts(), **result["versions"]}
    detail = {**result["detail"], "setup_wall_s": [wall for wall, _ in setup],
              "setup_scale": [scale for _, scale in setup]}
    print(json.dumps({"machine": facts, "detail": detail}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
