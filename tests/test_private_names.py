"""Every module-level private function or class of the package is named
by production code other than its own definition.  A private helper
that only tests call is a test hook living in the package; it belongs
in the tests that use it."""

from __future__ import annotations

import ast
from pathlib import Path

import udrfusion

PACKAGE_DIR = Path(udrfusion.__file__).resolve().parent


def _names_in(node: ast.AST) -> set[str]:
    """The names node refers to: plain names, attributes and imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _private_definitions_and_uses() -> tuple[dict[str, list[str]], dict[str, set[str]]]:
    """(module-level private defs: name -> modules defining it, names used
    by each top-level statement, keyed by "module:position")."""
    defined: dict[str, list[str]] = {}
    used: dict[str, set[str]] = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for pos, node in enumerate(tree.body):
            key = f"{path.stem}:{pos}"
            is_def = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if is_def and node.name.startswith("_") and not node.name.startswith("__"):
                defined.setdefault(node.name, []).append(key)
            used[key] = _names_in(node)
    return defined, used


def test_every_private_definition_is_used_by_the_package():
    defined, used = _private_definitions_and_uses()
    assert "_gauss_jordan" in defined and "_MonomialModule" in defined
    unused = sorted(
        name
        for name, keys in defined.items()
        if not any(name in names for key, names in used.items() if key not in keys)
    )
    assert unused == []
