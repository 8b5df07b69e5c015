"""The public API: each module's ``__all__`` and the package's re-exports."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import memheat
from memheat import cli, domain, experiments, memory, solver

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


# the span tracer of the benchmark reads these arguments by position and
# rebinds these names in the modules that call them
TRACED_SIGNATURES = {
    solver.evolve: ["y0", "cfg"],
    solver.step_peps: ["state", "cfg"],
    solver.step_p0: ["state", "cfg"],
    memory.advance_history: ["phi", "u_new", "dt", "u_prev"],
    domain.solve_wentzell_shifted: ["c0", "c_a", "rhs", "d", "alpha", "beta"],
    cli.checkpoint_save: ["state", "path", "canon", "records"],
}


@pytest.mark.parametrize("fn", TRACED_SIGNATURES,
                         ids=lambda fn: fn.__name__)
def test_traced_functions_keep_their_signatures(fn):
    assert list(inspect.signature(fn).parameters) == TRACED_SIGNATURES[fn]


def test_traced_names_are_bound_where_they_are_called():
    assert experiments.step_peps is solver.step_peps
    assert cli.evolve is solver.evolve
    assert solver.advance_history is memory.advance_history
    # the grid counter sees only this cross-module call
    assert solver.build_history_grid is memory.build_history_grid
