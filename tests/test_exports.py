"""Export lists: every name a module advertises exists."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import adarc

MODULES = ["adarc"] + [f"adarc.{info.name}" for info in pkgutil.iter_modules(adarc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"
