"""Every module-level private function or class of the package is named
by production code other than its own definition.  A private helper
that only tests call is a test hook living in the package; it belongs
in the tests that use it.

A function is bound once, in the module that defines it: other modules
call it through that module, so a patch there reaches every caller.

An import inside a function means one thing, load this module late: only
cli's command dispatch, cli_report's abelian body and JSON writer,
abelian's sweep oracle and the PEP 562 hooks of ffield and cohomology
have one, and each package import there is of a module,
`from . import X`.  A hook is a module-level __getattr__ over a constant
table of names, whose one import is the module those names moved to,
and the module does not import that one at load.  At load, cli imports only the standard
library, the package's __version__ and records.

No test patches a hooked name on the module it moved from: callers read
it from the module that defines it, so such a patch reaches none of
them, and it shadows the hook for the rest of the session.

A frozen record stores its fields and runs its checks one way, through
FrozenRecord._init: no other FrozenRecord subclass's __init__ calls
__post_init__ or stores a field itself.  FusionOrbitSet, which takes
runs in place of its fields, is the exception."""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

import udrfusion
from udrfusion import abelian, cohomology, deformation, dihedral

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
    assert "_prime_divisors" in defined and "_MonomialModule" in defined
    unused = sorted(
        name
        for name, keys in defined.items()
        if not any(name in names for key, names in used.items() if key not in keys)
    )
    assert unused == []


# the private functions a package module may take from another: none, as
# what several modules call (ffield.gauss_jordan) is public
CROSS_MODULE_ALLOWED: set[tuple[str, str, str]] = set()


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


# the by-name bindings of another module's function that a package module
# may make: none
BY_NAME_ALLOWED: set[tuple[str, str, str]] = set()


def _by_name_function_bindings(sources: dict[str, str]) -> set[tuple[str, str, str]]:
    """(module, other module, name) for every `from .other import name`, at
    load or in a function, in a module of sources (module -> source) where
    name is a function that other binds: one it defines by a top-level
    def, or one it imports by name in turn."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    functions = {
        module: {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        for module, tree in trees.items()
    }
    imports = {
        (module, node.module, alias.name)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }
    found: set[tuple[str, str, str]] = set()
    # a function imported by name is bound in the importer too: follow
    # such bindings until none is added
    while True:
        new = {imp for imp in imports if imp[2] in functions.get(imp[1], ())} - found
        if not new:
            return found
        found |= new
        for module, _, name in new:
            functions[module].add(name)


def test_no_module_binds_another_modules_function_by_name():
    assert _by_name_function_bindings(_package_sources()) == BY_NAME_ALLOWED


def test_a_planted_by_name_binding_is_caught():
    sources = _package_sources()
    sources["deformation"] += "\nfrom .cohomology import dims\n"
    sources["dihedral"] += "\nfrom .ffield import is_prime\n"
    assert _by_name_function_bindings(sources) - BY_NAME_ALLOWED == {
        ("deformation", "cohomology", "dims"),
        ("dihedral", "ffield", "is_prime"),
    }
    # a function bound by name is caught, and so is one imported from there
    sources["fusion"] += "\nfrom .orbits import coset_minima\n"
    sources["deformation"] += "from .fusion import coset_minima\n"
    assert {("fusion", "orbits", "coset_minima"), ("deformation", "fusion", "coset_minima")} <= (
        _by_name_function_bindings(sources)
    )


# (home module, function, calling module, a call that reaches the
# function from that module)
@pytest.mark.parametrize("home, name, caller, call", [
    ("cohomology", "dims", "deformation",
     lambda: deformation.udr_class(dihedral.DihedralParams.standard(6), 1, 2)),
    ("fusion", "same_fusion", "deformation",
     lambda: deformation.check_maximality_matches_doubling_fibers(
         dihedral.DihedralParams.standard(5))),
    ("ffield", "is_prime", "deformation", lambda: deformation.determinability_rule(6)),
    ("dihedral", "irr2_rep", "cohomology",
     lambda: cohomology.d1_oracle_cocycles(dihedral.DihedralParams.standard(3), 1, 1)),
    ("ffield", "is_odd_prime", "dihedral", lambda: dihedral.DihedralParams(3, 7, 2)),
    ("orbits", "coset_minima", "abelian",
     lambda: abelian.abelian_orbits(abelian.CharacterPair.from_exponents(
         abelian.AbelianParams((2, 3), 7), (1, 0), (1, 2)))),
], ids=[
    "cohomology.dims-deformation.udr_class",
    "fusion.same_fusion-deformation.check_maximality_matches_doubling_fibers",
    "ffield.is_prime-deformation.determinability_rule",
    "dihedral.irr2_rep-cohomology.d1_oracle_cocycles",
    "ffield.is_odd_prime-dihedral.DihedralParams",
    "orbits.coset_minima-abelian.abelian_orbits",
])
def test_a_patch_on_a_functions_home_reaches_a_caller_in_another_module(
    monkeypatch, home, name, caller, call
):
    """The patch is called from caller itself, not only through another
    function of its home (ffield's own helpers call is_odd_prime too)."""
    module = importlib.import_module(f"udrfusion.{home}")
    real = getattr(module, name)
    callers = set()

    def spy(*args):
        callers.add(sys._getframe(1).f_globals["__name__"])
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    call()
    assert f"udrfusion.{caller}" in callers


# the functions that may import inside their body, by module: an import
# there loads a module late, the command bodies from cli's dispatch,
# abelian from cli_report's abelian body, json from the two JSON writers
# and fusion, the sweep's module, from abelian's sweep oracle
LATE_LOADS = {
    "cli": {"_cmd_verify", "_cmd_analyze", "_cmd_scan"},
    "cli_report": {"analyze_abelian", "report_pieces"},
    "abelian": {"abelian_orbits_bruteforce"},
}

# the PEP 562 hooks: module -> the module its __getattr__ loads on the
# first read of a name that moved there
LATE_HOOKS = {"ffield": "fpmatrix", "cohomology": "dense"}


def _imports_inside_functions(sources: dict[str, str]):
    """(module, function, statement) for every import statement inside
    the body of a function of a module of sources.  An import in a nested
    function is listed under every function that holds it.  Only
    statements are walked: no expression holds one."""
    for module, source in sources.items():
        stack = [(ast.parse(source), ())]
        while stack:
            node, functions = stack.pop()
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from ((module, function, node) for function in functions)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions += (node.name,)
            stack.extend(
                (child, functions)
                for child in ast.iter_child_nodes(node)
                if isinstance(child, (ast.stmt, ast.excepthandler, ast.match_case))
            )


def _late_import_faults(imports) -> set[tuple[str, str, str]]:
    """(module, function, import) for each of imports, as
    _imports_inside_functions gives them, that is outside LATE_LOADS,
    takes names from a package module, `from .other import name`, or,
    in a __getattr__ of LATE_HOOKS, imports anything but the hook's
    module; the import is given as its source text."""
    faults = set()
    for module, function, statement in imports:
        text = ast.unparse(statement)
        if function == "__getattr__" and module in LATE_HOOKS:
            allowed = text == f"from . import {LATE_HOOKS[module]}"
        else:
            allowed = function in LATE_LOADS.get(module, ()) and not (
                isinstance(statement, ast.ImportFrom) and statement.level and statement.module
            )
        if not allowed:
            faults.add((module, function, text))
    return faults


def _hook_faults(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, fault) for each __getattr__ of a module of sources that
    holds an import and is not a hook: one defined at the module's top
    level, holding one import statement, that tests `name in TABLE` for
    a TABLE the module assigns once, at top level, to a tuple of strings,
    and that binds nothing (no global statement, no globals() or setattr
    call).  A hook's module that imports the hooked module at load, as
    `from . import X` or `from .X import name`, is a fault too."""
    faults = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        tables = {}
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    value = node.value
                    constant = isinstance(value, ast.Tuple) and all(
                        isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                        for elt in value.elts
                    )
                    # a name assigned twice is no constant table
                    tables[target.id] = constant and target.id not in tables
        top_level = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or node.name != "__getattr__":
                continue
            inner = list(ast.walk(node))
            imports = [sub for sub in inner if isinstance(sub, (ast.Import, ast.ImportFrom))]
            if not imports:
                continue
            if id(node) not in top_level:
                faults.add((module, "not at module level"))
            if len(imports) != 1:
                faults.add((module, f"{len(imports)} imports"))
            tested = {
                sub.comparators[0].id
                for sub in inner
                if isinstance(sub, ast.Compare)
                and isinstance(sub.ops[0], ast.In)
                and isinstance(sub.comparators[0], ast.Name)
            }
            if not any(tables.get(name) for name in tested):
                faults.add((module, "no constant names table"))
            if any(
                isinstance(sub, (ast.Global, ast.Nonlocal))
                or isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in ("globals", "setattr")
                for sub in inner
            ):
                faults.add((module, "binds a name"))
        hooked = LATE_HOOKS.get(module)
        for node in tree.body:
            if hooked and isinstance(node, ast.ImportFrom) and node.level == 1 and (
                node.module == hooked
                or node.module is None and hooked in {alias.name for alias in node.names}
            ):
                faults.add((module, ast.unparse(node)))
    return faults


def test_only_late_loads_import_inside_a_function():
    sources = _package_sources()
    imports = list(_imports_inside_functions(sources))
    assert _late_import_faults(imports) == set()
    assert _hook_faults(sources) == set()
    holders = {(module, function) for module, function, _ in imports}
    assert holders == {
        (module, f) for module, functions in LATE_LOADS.items() for f in functions
    } | {(module, "__getattr__") for module in LATE_HOOKS}


def test_a_planted_import_of_names_inside_a_function_is_caught():
    sources = _package_sources()
    sources["cli_verify"] += (
        "\n\ndef _planted(params, i0, j):\n"
        "    from .deformation import dims\n\n"
        "    return dims(params, i0, j)\n"
    )
    sources["fusion"] += (
        "\n\ndef planted(params, i0):\n"
        "    from .dihedral import irr2_rep\n\n"
        "    return irr2_rep(params, i0)\n"
    )
    assert _late_import_faults(_imports_inside_functions(sources)) == {
        ("cli_verify", "_planted", "from .deformation import dims"),
        ("fusion", "planted", "from .dihedral import irr2_rep"),
    }
    # a late load of names, where a late load is allowed, is caught too
    cli = sources["cli"].replace("from . import cli_verify", "from .cli_verify import families")
    assert _late_import_faults(_imports_inside_functions({"cli": cli})) == {
        ("cli", "_cmd_verify", "from .cli_verify import families")
    }


def test_a_planted_fault_in_a_hook_is_caught():
    sources = _package_sources()
    hook = "        from . import fpmatrix\n"
    assert hook in sources["ffield"]

    def planted(module, source):
        return {**sources, module: source}

    # a by-name import in the hook, and a second module loaded there
    by_name = planted(
        "ffield", sources["ffield"].replace(hook, "        from .fpmatrix import FpMatrix\n")
    )
    assert _late_import_faults(_imports_inside_functions(by_name)) == {
        ("ffield", "__getattr__", "from .fpmatrix import FpMatrix")
    }
    second = planted(
        "ffield", sources["ffield"].replace(hook, hook + "        from . import dense\n")
    )
    assert _late_import_faults(_imports_inside_functions(second)) == {
        ("ffield", "__getattr__", "from . import dense")
    }
    assert _hook_faults(second) == {("ffield", "2 imports")}
    # an eager import of the hooked module, by module or by name
    for eager in ("from . import fpmatrix\n", "from .fpmatrix import FpMatrix\n"):
        top = "from .records import LimitExceeded\n"
        assert _hook_faults(planted("ffield", sources["ffield"].replace(top, top + eager))) == {
            ("ffield", eager.strip())
        }
    # a hook over no constant table, or one that binds what it loads
    assert _hook_faults(planted("ffield", sources["ffield"].replace(
        "if name in _MOVED_NAMES:", "if name.startswith('Fp'):"))) == {
        ("ffield", "no constant names table")
    }
    assert _hook_faults(planted("ffield", sources["ffield"].replace(
        '_MOVED_NAMES = ("FpMatrix",)', '_MOVED_NAMES = ["FpMatrix"]'))) == {
        ("ffield", "no constant names table")
    }
    assert _hook_faults(planted("ffield", sources["ffield"].replace(
        "        return getattr(fpmatrix, name)",
        "        globals()[name] = getattr(fpmatrix, name)\n        return globals()[name]"))) == {
        ("ffield", "binds a name")
    }
    # a hook in a module outside LATE_HOOKS, or not at module level
    stray = "\n\ndef __getattr__(name):\n    from . import dense\n\n    return getattr(dense, name)\n"
    assert _late_import_faults(_imports_inside_functions({"fusion": stray})) == {
        ("fusion", "__getattr__", "from . import dense")
    }
    nested = "\n\nclass Lazy:\n    def __getattr__(self, name):\n        from . import dense\n\n" \
        "        return getattr(dense, name)\n"
    assert ("cohomology", "not at module level") in _hook_faults(
        planted("cohomology", sources["cohomology"] + nested)
    )


def _moved_name_patches(sources: dict[str, str]) -> set[tuple[str, str, str]]:
    """(test file, module, name) for every monkeypatch.setattr in a test
    file of sources (file -> source) of a name of the _MOVED_NAMES table
    of a module of LATE_HOOKS on that module.  The target is read as a
    "udrfusion.module.name" string, or as the module, named as imported
    from udrfusion or as udrfusion.module, and the name as a string; a
    target held in a variable is not read."""
    moved = {
        module: importlib.import_module(f"udrfusion.{module}")._MOVED_NAMES
        for module in LATE_HOOKS
    }
    found = set()
    for file, source in sources.items():
        tree = ast.parse(source)
        # local name -> package module, for `from udrfusion import m [as x]`
        aliases = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "udrfusion"
            for alias in node.names
        }
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setattr"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "monkeypatch"
                and node.args
            ):
                continue
            target, *rest = node.args
            if isinstance(target, ast.Constant) and isinstance(target.value, str):
                module, _, name = target.value.removeprefix("udrfusion.").rpartition(".")
            elif rest and isinstance(rest[0], ast.Constant):
                name = rest[0].value
                if isinstance(target, ast.Name):
                    module = aliases.get(target.id)
                elif isinstance(target, ast.Attribute) and ast.unparse(target.value) == "udrfusion":
                    module = target.attr
                else:
                    continue
            else:
                continue
            if name in moved.get(module, ()):
                found.add((file, module, name))
    return found


def test_no_test_patches_a_moved_name_on_the_module_it_moved_from():
    """Callers read a moved name from its defining module, so a patch on
    the hooked module reaches none of them, and, bound there, it shadows
    the hook for the rest of the session."""
    tests = {path.name: path.read_text() for path in sorted(Path(__file__).parent.glob("*.py"))}
    assert "test_imports.py" in tests
    assert _moved_name_patches(tests) == set()


def test_a_planted_patch_of_a_moved_name_is_caught():
    planted = (
        "import udrfusion\n"
        "from udrfusion import cohomology as coh, ffield\n\n\n"
        "def test_planted(monkeypatch):\n"
        "    from udrfusion import abelian, fpmatrix\n\n"
        "    monkeypatch.setattr(ffield, 'FpMatrix', None)\n"
        "    monkeypatch.setattr(coh, 'GModule', None)\n"
        "    monkeypatch.setattr(udrfusion.cohomology, 'fixed_point_dim', None)\n"
        "    monkeypatch.setattr('udrfusion.cohomology.tensor', None)\n"
        # names that live in their module, and a moved name on its new home
        "    monkeypatch.setattr(ffield, 'is_prime', None)\n"
        "    monkeypatch.setattr(abelian, 'all_character_pairs', None)\n"
        "    monkeypatch.setattr(udrfusion.abelian, 'abelian_orbits_bruteforce', None)\n"
        "    monkeypatch.setattr(coh, 'dims', None)\n"
        "    monkeypatch.setattr(fpmatrix, 'FpMatrix', None)\n"
        "    monkeypatch.setattr('udrfusion.dense.tensor', None)\n"
    )
    assert _moved_name_patches({"test_planted.py": planted}) == {
        ("test_planted.py", "ffield", "FpMatrix"),
        ("test_planted.py", "cohomology", "GModule"),
        ("test_planted.py", "cohomology", "fixed_point_dim"),
        ("test_planted.py", "cohomology", "tensor"),
    }


def _cli_load_faults(source: str) -> set[str]:
    """The imports that the module source makes at load, outside every
    function, and that take something other than a standard library
    module, the package's __version__ or records; each given as its
    source text."""
    faults = set()
    stack = [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] not in sys.stdlib_module_names
                   for alias in node.names):
                faults.add(ast.unparse(node))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                allowed = node.module.split(".")[0] in sys.stdlib_module_names
            elif node.module is None:
                allowed = {alias.name for alias in node.names} <= {"__version__", "records"}
            else:
                allowed = node.level == 1 and node.module == "records"
            if not allowed:
                faults.add(ast.unparse(node))
        stack.extend(
            child
            for child in ast.iter_child_nodes(node)
            if isinstance(child, (ast.stmt, ast.excepthandler, ast.match_case))
            and not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
    return faults


def test_cli_loads_only_the_standard_library_and_records():
    assert _cli_load_faults(_package_sources()["cli"]) == set()


def test_a_planted_load_of_another_package_module_by_cli_is_caught():
    cli = _package_sources()["cli"]
    top = "from .records import LimitExceeded\n"
    assert top in cli
    planted = cli.replace(
        top, top + "from .ffield import LimitExceeded\nfrom . import cli_report\n", 1
    )
    assert _cli_load_faults(planted) == {
        "from .ffield import LimitExceeded", "from . import cli_report"
    }


def _constructor_faults(sources: dict[str, str]) -> set[tuple[str, str, str]]:
    """(module, class, fault) for every direct FrozenRecord subclass of a
    module of sources (module -> source), FusionOrbitSet aside, whose
    __init__ calls __post_init__ (fault "__post_init__") or stores one of
    the class's _fields with object.__setattr__ (fault: the field)."""
    faults = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not (
                isinstance(node, ast.ClassDef)
                and any(isinstance(b, ast.Name) and b.id == "FrozenRecord" for b in node.bases)
                and node.name != "FusionOrbitSet"
            ):
                continue
            fields = next(
                ast.literal_eval(stmt.value)
                for stmt in node.body
                if isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_fields" for t in stmt.targets)
            )
            calls = (
                call
                for stmt in node.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
                for call in ast.walk(stmt)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            )
            for call in calls:
                if call.func.attr == "__post_init__":
                    faults.add((module, node.name, "__post_init__"))
                elif (
                    call.func.attr == "__setattr__"
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id == "object"
                    and isinstance(call.args[1], ast.Constant)
                    and call.args[1].value in fields
                ):
                    faults.add((module, node.name, call.args[1].value))
    return faults


def test_every_frozen_record_constructs_through_init():
    sources = _package_sources()
    assert _constructor_faults(sources) == set()
    # the rule reads all ten constructors: each is caught with a planted call
    planted = {
        module: source.replace("self._init(", "self.__post_init__(); self._init(")
        for module, source in sources.items()
    }
    assert {cls for _, cls, _ in _constructor_faults(planted)} == {
        "CohomologyDims", "VerificationReport", "DihedralParams", "GroupElement", "RepLabel",
        "Rep2", "AbelianParams", "CharacterPair", "GModule", "FusionOrbit",
    }


def test_a_planted_second_constructor_path_is_caught():
    """A stored field and a __post_init__ call are each named; a stored
    attribute outside _fields, as FusionOrbit stores images, is not."""
    sources = _package_sources()
    one_path = "        self._init(d1, d2)\n"
    assert one_path in sources["records"]
    sources["records"] = sources["records"].replace(
        one_path,
        '        object.__setattr__(self, "d1", d1)\n'
        '        object.__setattr__(self, "extra", None)\n'
        + one_path
        + "        self.__post_init__()\n",
    )
    assert _constructor_faults(sources) == {
        ("records", "CohomologyDims", "d1"),
        ("records", "CohomologyDims", "__post_init__"),
    }
