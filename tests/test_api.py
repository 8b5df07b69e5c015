"""The public API: each module's ``__all__`` and the package's re-exports."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
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


def test_what_no_run_read_is_gone():
    # the exponential kernel's dissipation is an identity (tests/test_memory),
    # no run read a seed, and no module added or scaled whole histories
    assert not hasattr(memory, "dissipation_check")
    assert not hasattr(memory, "DissipationReport")
    assert [op for op in ("__add__", "__mul__", "__rmul__")
            if hasattr(memory.HistoryField, op)] == []
    assert not hasattr(domain.StateField, "__neg__")
    assert "seed" not in cli._SCHEMA
    assert "seed" not in {f.name for f in dataclasses.fields(cli.LoadedConfig)}
    assert list(inspect.signature(cli.load_config).parameters) == ["path"]
    # a checkpoint is checked against its own embedded config only
    assert list(inspect.signature(cli.checkpoint_load).parameters) == ["path"]


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


def test_memory_binds_no_domain_function():
    # the tracer wraps every module function one layer imports from
    # another; the V1 kernel is a DiscreteDomain method, so the recorder's
    # time stays in memory's own spans
    assert [name for name, obj in vars(memory).items()
            if inspect.isfunction(obj)
            and obj.__module__ == domain.__name__] == []


README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(),
                      re.DOTALL | re.MULTILINE)


def test_readme_quick_start_config_validates(tmp_path, capsys):
    (text,) = _fenced("json")
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert cli.main(["validate", "--config", str(path)]) == 0
    assert "config ok" in capsys.readouterr().out


def test_readme_library_snippet_runs(capsys):
    (code,) = _fenced("python")
    exec(compile(code, str(README), "exec"), {})
    t, energy = capsys.readouterr().out.split()
    assert float(t) == 0.2 and float(energy) > 0.0
