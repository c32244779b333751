"""Every name that ``funcsel`` or one of its modules exports resolves."""

import importlib
import pkgutil

import pytest

import funcsel
import funcsel.cli
import funcsel.ingest

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


def test_cli_reexports_the_reader():
    # the benchmark traces the reader under the name cli.ingest_long_csv
    assert funcsel.cli.ingest_long_csv is funcsel.ingest.ingest_long_csv
