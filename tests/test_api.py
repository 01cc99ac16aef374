"""Every name in an `__all__`, of the package and of each submodule, resolves;
the package root exports exactly its library modules' `__all__` and keeps every
name it has exported; every demo imports and runs as a script; and every
program attribute the benchmark traces by name exists."""

import ast
import contextlib
import importlib
import importlib.util
import io
import itertools
import os
import pkgutil
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import branchwaves

EXPORTING = [
    module
    for module in [branchwaves] + [
        importlib.import_module(f"branchwaves.{info.name}")
        for info in pkgutil.iter_modules(branchwaves.__path__)
    ]
    if hasattr(module, "__all__")
]

# the library modules in the root's export order; `cli` is the one module left out
LIBRARY = ["model", "analysis", "odeint", "wave", "pde", "spectral", "acceptance", "errors"]

# every name the root has exported, by defining module: none may go
EXPORTED = {
    "model": ["Params", "GeneralParams", "Scaling", "WaveState", "wave_rhs", "laplacian",
              "reaction", "pde_rhs", "normalize", "denormalize", "general_wave_predictions"],
    "analysis": ["Triangle", "MassResiduals", "minimal_inactive_limit", "decay_rate",
                 "triangle", "triangle_contains", "i_plus_infinity", "alpha_threshold",
                 "a_star", "a_at_first_max", "mass_residuals", "limit_symmetry"],
    "odeint": ["Trajectory", "integrate"],
    "wave": ["WaveProfile", "VerificationReport", "shoot_wave", "shoot_from_max",
             "verify_profile"],
    "pde": ["Grid", "FieldSeries", "SpeedMeasurement", "simulate", "spreading_speed",
            "front_position", "measure_speed", "plateau", "shape_misfit"],
    "spectral": ["SpectralSetup", "Winding", "make_setup", "limit_rates", "evans",
                 "evans_winding", "contour_of_S", "winding_number"],
    "acceptance": ["CRITERION_NAMES", "CriterionResult", "run_all"],
    "errors": ["DomainError", "OscillatoryRegimeError", "InvalidSegmentError",
               "NonConvergenceError", "NegativityError", "BudgetError", "BlowUpError",
               "PositivityError", "ContaminatedMeasurementError", "SplittingError",
               "ContourResolutionError"],
}

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Hook("<module>", "<attr>", ...) literals in the benchmark's trace list,
# read from the source so the benchmark itself is not imported
HOOKS = [
    (node.args[0].value, node.args[1].value)
    for node in ast.walk(ast.parse((ROOT / "bench" / "workloads.py").read_text()))
    if isinstance(node, ast.Call)
    and isinstance(node.func, ast.Name)
    and node.func.id == "Hook"
    and len(node.args) >= 2
    and all(isinstance(arg, ast.Constant) for arg in node.args[:2])
]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_library_is_every_module_but_cli():
    names = {info.name for info in pkgutil.iter_modules(branchwaves.__path__)}
    assert names - {"cli"} == set(LIBRARY)


def test_root_exports_the_library_all():
    modules = [importlib.import_module(f"branchwaves.{name}") for name in LIBRARY]
    expected = ["__version__", *itertools.chain.from_iterable(m.__all__ for m in modules)]
    assert branchwaves.__all__ == expected
    assert len(set(expected)) == len(expected)  # no module's name shadows another's


@pytest.mark.parametrize("module, name", [(module, name) for module, names in EXPORTED.items()
                                          for name in names], ids=lambda x: x)
def test_exported_name_kept(module, name):
    assert name in branchwaves.__all__
    assert getattr(branchwaves, name) is getattr(importlib.import_module(f"branchwaves.{module}"), name)


def test_root_import_loads_no_cli():
    probe = "import sys, branchwaves; print('branchwaves.cli' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(branchwaves.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "False"


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path, monkeypatch):
    # as `python3 demos/<name>.py` would, from an empty directory so a stray
    # output file would show
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
    assert not list(tmp_path.iterdir())


def test_bench_hooks_found():
    assert len(HOOKS) >= 16


@pytest.mark.parametrize("module, attr", HOOKS, ids=lambda x: x)
def test_bench_hook_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)


@pytest.mark.parametrize("shot", ["shoot_wave", "shoot_from_max"])
def test_bench_wave_rhs_hook_sees_every_evaluation(shot, monkeypatch):
    # the benchmark's own wrapper at the name it traces counts the calls `model.wave_rhs.calls`
    # reports; a shot that bound the right-hand side elsewhere would hide them from it
    assert ("branchwaves.wave", "wave_rhs") in HOOKS
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    wave, p = branchwaves.wave, branchwaves.Params(c=2.0, r=0.0)

    tracer = tracing.Tracer()
    with tracer.installed([tracing.Hook("branchwaves.wave", "wave_rhs", "model.wave_rhs")]):
        if shot == "shoot_wave":
            traj = wave.shoot_wave(1.8, p).trajectory
        else:
            traj, _ = wave.shoot_from_max(0.2, 0.3, p)
    assert tracer.absent == []
    assert tracer.stats["model.wave_rhs"].calls == traj.diagnostics["rhs_evaluations"] > 0
