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


# the one private function a package module may take from another: the
# cocycle oracle eliminates with ffield's routine
CROSS_MODULE_ALLOWED = {("cohomology", "ffield", "_gauss_jordan")}


def _cross_module_private_uses(sources: dict[str, str]) -> set[tuple[str, str, str]]:
    """(module, defining module, name) for every module-level private
    function or class that a module of sources (module -> source) names
    from another one, by `from .other import _name` or as `other._name`."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    private = {
        module: {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not node.name.startswith("__")
        }
        for module, tree in trees.items()
    }
    uses = set()
    for module, tree in trees.items():
        # local name -> package module, for `from . import other [as name]`
        aliases = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                elif alias.name in private.get(node.module, ()):
                    uses.add((module, node.module, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                other = aliases.get(node.value.id)
                if other is not None and node.attr in private.get(other, ()):
                    uses.add((module, other, node.attr))
    return {use for use in uses if use[0] != use[1]}


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}


def test_no_module_names_another_modules_private_function():
    assert _cross_module_private_uses(_package_sources()) == CROSS_MODULE_ALLOWED


def test_a_planted_cross_module_private_use_is_caught():
    sources = _package_sources()
    sources["cli"] += (
        "\n\ndef _planted(p, sweep, elements, matrices):\n"
        "    from . import fusion\n\n"
        "    return fusion._read_sweep(p, sweep, elements, matrices)\n"
    )
    assert _cross_module_private_uses(sources) - CROSS_MODULE_ALLOWED == {
        ("cli", "fusion", "_read_sweep")
    }
    sources["abelian"] += "\nfrom .fusion import _sweep_orbits as sweep\n"
    assert ("abelian", "fusion", "_sweep_orbits") in _cross_module_private_uses(sources)
