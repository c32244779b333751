"""Every name that ``funcsel`` or one of its modules exports resolves."""

import importlib
import pkgutil

import pytest

import funcsel

MODULES = [
    funcsel,
    *(importlib.import_module(f"funcsel.{info.name}")
      for info in pkgutil.iter_modules(funcsel.__path__)),
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_exported_names_resolve(module):
    # a module without __all__ (errors) exports nothing by name
    names = getattr(module, "__all__", [])
    assert [name for name in names if not hasattr(module, name)] == []
