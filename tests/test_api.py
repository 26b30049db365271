"""The package's public names: ``__all__`` lists exactly what ``__init__`` imports."""

import ast
from pathlib import Path

import convexinfo


def _imported_names() -> list[str]:
    tree = ast.parse(Path(convexinfo.__file__).read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]


def test_all_lists_exactly_the_imported_names_and_each_resolves():
    names = _imported_names()
    assert len(names) == 64
    assert convexinfo.__all__ == names
    for name in names:
        assert getattr(convexinfo, name) is not None, name


def test_a_star_import_binds_exactly_all():
    namespace = {}
    exec("from convexinfo import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(convexinfo.__all__)
    assert all(namespace[name] is getattr(convexinfo, name) for name in namespace)
