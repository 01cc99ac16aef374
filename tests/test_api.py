"""Every name in an `__all__`, of the package and of each submodule, resolves,
and every demo imports (without running its `main`)."""

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

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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
