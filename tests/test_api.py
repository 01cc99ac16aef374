"""Every name in an `__all__`, of the package and of each submodule, resolves."""

import importlib
import pkgutil

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


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
