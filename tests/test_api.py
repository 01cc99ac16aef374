"""Every name in an `__all__`, of the package and of each submodule, resolves,
every demo imports (without running its `main`), and every program attribute
the benchmark traces by name exists."""

import ast
import importlib
import importlib.util
import pkgutil
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


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)


def test_bench_hooks_found():
    assert len(HOOKS) >= 16


@pytest.mark.parametrize("module, attr", HOOKS, ids=lambda x: x)
def test_bench_hook_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)
