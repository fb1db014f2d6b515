"""The package surface: exported names resolve, imports stay stdlib-only."""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import capstation
import capstation.core
import capstation.wire

PACKAGE_DIR = pathlib.Path(capstation.__file__).resolve().parent
MODULES = sorted(PACKAGE_DIR.rglob("*.py"))


@pytest.mark.parametrize(
    "package", [capstation, capstation.core, capstation.wire], ids=lambda p: p.__name__
)
def test_every_exported_name_resolves(package):
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []


def imported_roots(path: pathlib.Path) -> set:
    """Top-level package of every absolute import in a module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE_DIR)))
def test_modules_import_only_the_standard_library(path):
    allowed = set(sys.stdlib_module_names) | {"capstation"}
    assert imported_roots(path) - allowed == set()


def imported_at_import_time(path: pathlib.Path) -> set:
    """Every module that an import statement outside a function body names."""
    names = set()
    pending = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # runs when called, not when the module is imported
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
        pending.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE_DIR)))
def test_no_module_imports_dataclasses_when_it_is_imported(path):
    # dataclasses loads inspect, and a @dataclass generates its methods in each process
    assert {"dataclasses", "inspect"} & imported_at_import_time(path) == set()


ROOT = PACKAGE_DIR.parent.parent
# runs one command through cli_main, then prints the capstation modules it
# loaded and whether dataclasses or inspect was loaded
_LOADED_BY = (
    "import sys; from capstation.cli import cli_main; cli_main(sys.argv[1:]); "
    "print(*sorted(m for m in sys.modules if m.startswith('capstation'))); "
    "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
)


@pytest.mark.parametrize("argv, needed, unneeded", [
    (["monitor", "--trace", "tests/golden/simulate_nominal.jsonl", "--topology", "all"],
     {"capstation.monitor", "capstation.wire.trace", "capstation.wire.report"},
     {"capstation.simulator", "capstation.spatial", "capstation.dot", "capstation.scenarios",
      "capstation.wire.script", "capstation.wire.model"}),
    (["simulate", "--scenario", "scenarios/nominal.jsonl", "--out", os.devnull],
     {"capstation.simulator", "capstation.wire.script", "capstation.wire.common"},
     {"capstation.monitor", "capstation.spatial", "capstation.dot", "capstation.scenarios",
      "capstation.wire.trace", "capstation.wire.report", "capstation.wire.model"}),
], ids=["monitor", "simulate"])
def test_each_command_loads_only_its_modules(argv, needed, unneeded):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    run = subprocess.run(
        [sys.executable, "-c", _LOADED_BY, *argv], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    *_, modules, generators = run.stdout.split("\n")[:-1]
    loaded = set(modules.split())
    assert needed <= loaded
    assert loaded & unneeded == set()
    assert generators == ""  # neither dataclasses nor inspect



@pytest.mark.parametrize("part", sorted(capstation.wire._EXPORTS))
def test_the_names_of_a_wire_part_load_only_that_part(part):
    names = ", ".join(capstation.wire._EXPORTS[part])
    code = (
        f"import sys; from capstation.wire import {names}; "
        "print(*sorted(m for m in sys.modules if m.startswith('capstation.wire.')))"
    )
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert set(run.stdout.split()) == {"capstation.wire.common", f"capstation.wire.{part}"}
