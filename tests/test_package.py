"""The package surface: exported names resolve, imports stay stdlib-only."""

from __future__ import annotations

import ast
import pathlib
import sys

import pytest

import capstation
import capstation.core

PACKAGE_DIR = pathlib.Path(capstation.__file__).resolve().parent
MODULES = sorted(PACKAGE_DIR.rglob("*.py"))


@pytest.mark.parametrize("package", [capstation, capstation.core], ids=lambda p: p.__name__)
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
