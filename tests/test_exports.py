"""Every name a module lists in ``__all__`` resolves on that module."""

import importlib
import pkgutil

import pytest

import mfgkit

MODULES = ["mfgkit"] + [f"mfgkit.{info.name}" for info in pkgutil.iter_modules(mfgkit.__path__)]
EXPORTS = [
    (module, name)
    for module in MODULES
    for name in getattr(importlib.import_module(module), "__all__", ())
]


@pytest.mark.parametrize("module, name", EXPORTS, ids=[f"{m}.{n}" for m, n in EXPORTS])
def test_exported_name_resolves(module, name):
    getattr(importlib.import_module(module), name)
