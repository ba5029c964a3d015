"""The library is numpy-only: every module of the package imports only the
standard library, numpy and the package itself."""

import ast
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "spwood"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "spwood"}


def imported_modules(tree):
    """Top-level names of the absolute imports in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        foreign = set(imported_modules(tree)) - ALLOWED
        assert not foreign, f"{path.name} imports {sorted(foreign)}"
