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


# the boundary messages every module shares, and the phrasings they replaced
SHARED_STEMS = ("entries must be numbers, got dtype", "has NaN or inf entries", "is not a Pauli word")
RETIRED_STEMS = ("got NaN or inf", "requires finite entries", "invalid Pauli word",
                 "has a label outside IXYZ")


def test_each_shared_boundary_message_is_written_in_one_module():
    sources = {path.name: path.read_text() for path in Path(phi4vqe.__file__).parent.glob("*.py")}
    homes = {stem: sorted(name for name, text in sources.items() if stem in text)
             for stem in SHARED_STEMS + RETIRED_STEMS}
    assert homes == {**{stem: [] for stem in RETIRED_STEMS},
                     SHARED_STEMS[0]: ["lattice_model.py"], SHARED_STEMS[1]: ["lattice_model.py"],
                     SHARED_STEMS[2]: ["qubit_encoding.py"]}
