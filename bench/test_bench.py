"""Tests of the benchmark's own checks and tracer.

    PYTHONPATH=src python3 -m pytest bench

Each check must pass a correct answer and reject a perturbed one, so that
a wrong answer counts as a failed op and never as a fast one.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

from branchwaves import analysis, wave
from branchwaves.model import Params

import checks
import hostspeed
import workloads
from tracing import Hook, Tracer

BENCH_DIR = Path(__file__).resolve().parent

EVANS_REPORT = {"winding": 0, "max_arg_step": 0.5, "evaluations": 450}
WAVE_REPORT = {
    "limits": {"sum_residual": 2e-7},
    "residuals": {"mass1": 1e-9, "mass2": 2e-9, "mass3": 1e-9, "total_mass": 2.0},
    "rates": {"mu_minus_rel_err": 1e-4, "mu_plus_rel_err": 3e-4, "tail_prefactor_exp": None},
    "passed": True,
}
PDE_REPORT = {"c_est": 1.934, "plateau": 1.981}


def test_evans_accepts_and_rejects():
    assert checks.evans_sweep(0, EVANS_REPORT) == (True, 0.5 / checks.EVANS_ARG_CAP)
    assert not checks.evans_sweep(1, EVANS_REPORT)[0]
    assert not checks.evans_sweep(0, {**EVANS_REPORT, "winding": 1})[0]
    assert not checks.evans_sweep(0, None)[0]


def test_wave_accepts_and_rejects():
    ok, err = checks.wave_profile(0, WAVE_REPORT)
    assert ok and err == pytest.approx(3e-4 / 0.02)
    assert not checks.wave_profile(1, WAVE_REPORT)[0]
    off_limit = {**WAVE_REPORT, "limits": {"sum_residual": 2e-3}}
    assert not checks.wave_profile(0, off_limit)[0]
    critical = {**WAVE_REPORT, "rates": {**WAVE_REPORT["rates"], "tail_prefactor_exp": 1.2}}
    ok, err = checks.wave_profile(0, critical)
    assert not ok and err == pytest.approx(0.2 / 0.15)


def test_pde_accepts_and_rejects():
    ok, err = checks.pde_front(0, PDE_REPORT)
    assert ok and err == pytest.approx(0.033 / 0.05)
    assert not checks.pde_front(3, PDE_REPORT)[0]
    assert not checks.pde_front(0, {**PDE_REPORT, "c_est": 2.0 * 1.06})[0]
    assert not checks.pde_front(0, {**PDE_REPORT, "c_est": 2.0 * 0.94})[0]
    assert not checks.pde_front(0, {**PDE_REPORT, "plateau": None})[0]


def test_shot_limit_off_by_2e4_fails():
    a0, i0, c, r = 0.2, 0.5, 2.5, 0.5
    traj, limit = wave.shoot_from_max(a0, i0, Params(c=c, r=r))
    expected = analysis.i_plus_infinity(a0, i0, c, r)
    inside = checks.in_triangles(traj.states, c)
    assert inside
    assert checks.shot(limit, expected, inside)[0]
    assert not checks.shot(limit + 2e-4, expected, inside)[0]
    assert not checks.shot(limit, expected, False)[0]


def test_sample_outside_its_triangle_fails():
    c, level = 2.5, 0.5
    tri = analysis.triangle(level, c)
    inside = np.array([[0.5 * tri.v1[0], 0.0, level]])
    outside = np.array([[tri.v1[0] + 1e-5, 0.0, level]])
    assert checks.in_triangles(inside, c)
    assert not checks.in_triangles(np.vstack([inside, outside]), c)


def test_cli_runner_deletes_only_its_own_outputs(tmp_path):
    keep = tmp_path / "keep.csv"
    keep.write_text("not the benchmark's\n")
    run_cli = workloads.CliRunner(tmp_path)
    code, report = run_cli(["pde", "--grid", "201:-30:120", "--t-end", "2"])
    assert code == 0 and report is not None
    assert run_cli.csv_bytes > 0
    assert sorted(tmp_path.iterdir()) == [keep]


def test_host_speed_scale_uses_samples_in_span():
    sampler = hostspeed.Sampler()
    ref = hostspeed.REFERENCE_S
    sampler.samples = [(1.0, 4 * ref), (2.0, 2 * ref), (3.0, 1 * ref), (9.0, 8 * ref)]
    # mean kernel time over [1.5, 3.5] is 1.5 x reference, so time there counts 2/3
    assert sampler.scale(1.5, 3.5) == pytest.approx(2 / 3)
    assert sampler.scale(0.0, 3.0) == pytest.approx(3 / 7)
    with hostspeed.Sampler() as live:
        time.sleep(3 * hostspeed.PERIOD_S)
    assert live.samples and 0.0 < live.scale(0.0, time.perf_counter()) < 10.0


def test_tracer_self_time_and_spans():
    module = types.ModuleType("fake_layer")

    def leaf(x):
        return x + 1

    def outer(x):
        return module.leaf(x) + module.leaf(x)

    module.leaf, module.outer = leaf, outer
    sys.modules["fake_layer"] = module
    try:
        tracer = Tracer()
        hooks = [Hook("fake_layer", "outer", "fake.outer", span=True),
                 Hook("fake_layer", "leaf", "fake.leaf"),
                 Hook("fake_layer", "gone", "fake.gone"),
                 Hook("no_such_module", "gone", "fake.no_module")]
        with tracer.installed(hooks):
            assert module.outer(1) == 4
        assert module.outer is outer and module.leaf is leaf
    finally:
        del sys.modules["fake_layer"]
    st = tracer.stats
    assert st["fake.leaf"].calls == 2 and st["fake.outer"].calls == 1
    assert st["fake.outer"].self_s == pytest.approx(
        st["fake.outer"].total_s - st["fake.leaf"].total_s)
    assert tracer.absent == ["fake.gone", "fake.no_module"]
    (span,) = tracer.span_records()
    assert span["name"] == "fake.outer" and span["parent"] == 0


def test_traced_metrics_match_benchmark_json():
    tracer = Tracer()
    for hook in workloads.HOOKS:
        tracer.stat(hook.name)
    tracer.stat("op")
    phase = workloads.Phase(ops=1, pass_s=[1.0], scaled_s=[1.0])
    produced = workloads.layer_metrics(tracer, phase, phase, csv_bytes=0)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in produced.items()
    }


def test_run_without_program_fails_without_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wave_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
