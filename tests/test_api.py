"""The public API: each module's ``__all__`` and the package's re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import memheat

MODULES = sorted(m.name for m in pkgutil.iter_modules(memheat.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    mod = importlib.import_module(f"memheat.{name}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(mod, n)] == []


def test_the_package_reexports_only_declared_names():
    tree = ast.parse(Path(memheat.__file__).read_text())
    checked, stray = 0, []
    for node in tree.body:
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        mod = importlib.import_module(f"memheat.{node.module}")
        if not hasattr(mod, "__all__"):
            continue
        checked += len(node.names)
        stray += [f"{node.module}.{a.name}" for a in node.names
                  if a.name not in mod.__all__]
    assert checked > 0
    assert stray == []
