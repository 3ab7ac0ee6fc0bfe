"""Every public name the package lists must resolve: a stale __all__ entry
fails only on ``import *``, and the package re-exports only public names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import phi4vqe

MODULES = sorted(info.name for info in pkgutil.iter_modules(phi4vqe.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"phi4vqe.{name}")
    exported = getattr(module, "__all__", [])
    assert [entry for entry in exported if not hasattr(module, entry)] == []


def test_every_package_reexport_is_public_in_its_module():
    tree = ast.parse(Path(phi4vqe.__file__).read_text())
    stale = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"phi4vqe.{node.module}")
            stale += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name not in module.__all__]
    assert stale == []
