"""Rules about the package source itself, checked with the stdlib parser."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ldsramsey"


def test_no_assert_statements_in_the_package():
    # python -O strips assert, so an invariant the package relies on must
    # raise a real exception instead
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths, PACKAGE
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found, found


def test_all_names_exactly_the_imported_names():
    # a name deleted from a module must leave __all__ too, and a new
    # import must be exported or not imported
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = []
    exported = None
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = ast.literal_eval(node.value)
    assert exported is not None
    assert sorted(exported) == sorted(imported), sorted(set(exported) ^ set(imported))


def test_runtime_imports_only_the_standard_library():
    # the package runs with no third-party dependency: every import is
    # relative or names a standard-library module
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths, PACKAGE
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert not found, found


def test_parses_at_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10; newer syntax would
    # break that promise on import
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths, PACKAGE
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
