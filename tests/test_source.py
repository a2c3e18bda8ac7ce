"""Rules about the package source itself, checked with the stdlib parser."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ldsramsey"


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


def _package_chain(node: ast.AST) -> tuple[str, ...] | None:
    """The attribute names read off the package for ``L.a.b`` or
    ``self.L.a.b``, as ("a", "b"); None for any other expression."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    names.reverse()
    if isinstance(node, ast.Name) and node.id == "self" and names[:1] == ["L"]:
        return tuple(names[1:])
    if isinstance(node, ast.Name) and node.id == "L":
        return tuple(names)
    return None


def test_benchmark_harness_names_resolve_on_the_package():
    # perfbench reaches the package as L (or self.L) and patches names on
    # it by string; a rename or deletion here must not strand it, so every
    # chain it reads and every attribute it patches must exist
    import ldsramsey

    paths = sorted((ROOT / "perfbench").glob("*.py"))
    assert paths
    chains = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            chain = _package_chain(node)
            if chain:
                chains.add(chain)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "patch"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                owner = _package_chain(node.args[0])
                assert owner, f"{path.name}:{node.lineno} patches a non-package object"
                chains.add(owner + (node.args[1].value,))
    # the collector itself still sees the calls it is meant to guard
    assert ("search", "find_good_coloring") in chains
    assert ("coloring", "TwoColoring", "set_edge") in chains
    missing = []
    for chain in sorted(chains):
        obj = ldsramsey
        for name in chain:
            if not hasattr(obj, name):
                missing.append(".".join(chain))
                break
            obj = getattr(obj, name)
    assert not missing, missing
