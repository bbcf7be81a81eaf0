"""The library stays stdlib-only: every absolute import in the package,
function-level imports included, names a standard-library module."""

import ast
import importlib
import sys
from dataclasses import is_dataclass
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "signedconn"
MODULES = sorted(PACKAGE.glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_modules_found():
    assert PACKAGE / "core.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib(path):
    outside = {
        name for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_only_matroid_imports_cycles():
    """Cycle enumeration serves `matroid.is_quasibalanced` alone: every other
    module reads the spine, or decides by shape, or keeps the oracle's own
    enumeration."""
    importers = set()
    for path in MODULES:
        names = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names.add(node.module or "")
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
        if any(name.split(".")[-1] == "_cycles" for name in names):
            importers.add(path.name)
    assert importers == {"matroid.py"}


def _package_imports(path):
    """The package modules that a module imports, relatively or by the
    package's name."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "signedconn":
                    yield rest or top
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif (node.module or "").partition(".")[0] == "signedconn":
                module = node.module.partition(".")[2]
            else:
                continue
            if module:
                yield module
            else:
                yield from (alias.name for alias in node.names)


def test_oracle_imports_only_core_and_errors():
    """The oracle stays independent of the modules it checks: from the
    package it reads only the graph type and the errors."""
    assert set(_package_imports(PACKAGE / "oracle.py")) <= {"core", "errors"}


def test_only_the_decomposition_and_the_sweep_result_are_dataclasses():
    """The value types are named tuples, which cost far less to create at
    import than generated dataclasses.  `BlockDecomposition` keeps values in
    a `__dict__`, and `SweepResult` is mutable.  `SignedGraph` is a plain
    class over its edge columns."""
    dataclasses_found = set()
    for path in MODULES:
        module = importlib.import_module(f"signedconn.{path.stem}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__ and is_dataclass(obj):
                dataclasses_found.add(obj.__name__)
    assert dataclasses_found == {"BlockDecomposition", "SweepResult"}
