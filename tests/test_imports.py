"""Which modules each command loads, and the package's lazy exports.

The package exports its names lazily (PEP 562) and each CLI command
imports the modules of its route when it starts, so a command compiles
only the half of the package it runs.  The load tests start a fresh
interpreter and compare sys.modules before and after the call, so that
site's own imports and this process's imports do not count."""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import udrfusion
from udrfusion import (
    cli_dihedral, cli_verify, cohomology, deformation, ffield, fusion, records,
)

ROUTE_MODULES = {f"udrfusion.{name}" for name in
                 ("abelian", "cohomology", "deformation", "dihedral", "fusion", "orbits")}

ABELIAN_ARGV = ["analyze", "abelian", "--orders", "2,3", "--p", "7",
                "--theta1", "1,1", "--theta2", "1,2"]


def _modules_loaded_by(call: str) -> tuple[str, set[str]]:
    """The value of the expression call, in which udrfusion is imported,
    and the modules a fresh interpreter loads to evaluate it.  What call
    writes to stdout is discarded."""
    result, loaded = _after(call, "' '.join(sorted(set(sys.modules) - before))")
    return result, set(loaded.split())


def _after(call: str, expression: str, src: Path | None = None) -> tuple[str, str]:
    """The values of the expression call, in which udrfusion is imported,
    and then of expression, evaluated in a fresh interpreter that holds
    in before the modules it had loaded before the import.  The package
    is imported from the directory src, by default the one under test.
    What call writes to stdout is discarded.  The interpreter starts with
    -S, without site's imports, which would fall in before anyway: the
    package imports nothing outside the standard library."""
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import udrfusion\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    result = {call}\n"
        "print(result)\n"
        f"print({expression})\n"
    )
    src = src or Path(udrfusion.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    result, value = proc.stdout.splitlines()
    return result, value


def _loaded_by(call: str, src: Path | None = None) -> tuple[str, set[str]]:
    """The value of call and the package modules loaded to evaluate it,
    with the package imported from src as _after does."""
    result, loaded = _after(call, "' '.join(sorted(set(sys.modules) - before))", src)
    return result, {name for name in loaded.split() if name.startswith("udrfusion")}


def test_build_parser_loads_no_route_module():
    result, loaded = _loaded_by("type(udrfusion.cli.build_parser()).__name__")
    assert result == "ArgumentParser"
    assert loaded == {"udrfusion", "udrfusion.cli", "udrfusion.records"}
    assert loaded & ROUTE_MODULES == set()


def test_analyze_abelian_loads_no_dihedral_half():
    result, loaded = _loaded_by(f"udrfusion.cli.main({ABELIAN_ARGV!r})")
    assert result == "0"
    assert loaded & {"udrfusion.cohomology", "udrfusion.deformation", "udrfusion.dihedral",
                     "udrfusion.fusion"} == set()
    assert loaded == {"udrfusion", "udrfusion.cli", "udrfusion.cli_report", "udrfusion.ffield",
                      "udrfusion.records", "udrfusion.orbits", "udrfusion.abelian"}


def test_abelian_sweep_oracle_loads_fusion_and_dihedral():
    """abelian_orbits_bruteforce loads fusion, the sweep's module, and
    fusion loads dihedral at import; nothing else of the dihedral half."""
    result, loaded = _loaded_by(
        "len(udrfusion.abelian_orbits_bruteforce(udrfusion.CharacterPair.from_exponents("
        "udrfusion.AbelianParams.standard((3,)), (1,), (0,))).orbits)"
    )
    assert result == "21"
    assert loaded == {"udrfusion", "udrfusion.ffield", "udrfusion.records", "udrfusion.orbits",
                      "udrfusion.abelian", "udrfusion.fusion", "udrfusion.dihedral"}


# the modules that hold what moved out of ffield and cohomology: the
# matrix class and the dense module route
MOVED_TO = {"ffield": "fpmatrix", "cohomology": "dense"}
HOOKED_NAMES = {
    "ffield": ("FpMatrix",),
    "cohomology": (
        "GModule", "rep_module", "trivial_module", "sign_module", "module_for_label",
        "contragredient", "tensor", "det_module", "adjoint_module", "fixed_point_dim",
        "adjoint_decomposition_check",
    ),
}


def _moved_modules_loaded_by(argv: list[str], src: Path | None = None) -> set[str]:
    result, loaded = _loaded_by(f"udrfusion.cli.main({argv!r})", src)
    assert result == "0"
    return loaded & {f"udrfusion.{module}" for module in MOVED_TO.values()}


def test_analyze_abelian_loads_none_of_the_moved_modules():
    assert _moved_modules_loaded_by(ABELIAN_ARGV) == set()


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["scan", "dihedral", "--n-min", "3", "--n-max", "6"],
    ["analyze", "dihedral", "--n", "5", "--i0", "1"],
])
def test_dihedral_commands_load_neither_the_dense_route_nor_the_catalog(argv):
    # nor the matrix class: the representation matrices are 2x2 tuples;
    # the abelian sweep catalog is in abelian, which
    # test_dihedral_commands_load_no_abelian keeps out
    assert _moved_modules_loaded_by(argv) == set()


def test_each_hooked_name_is_its_defining_modules_object():
    for module, names in HOOKED_NAMES.items():
        home = importlib.import_module(f"udrfusion.{module}")
        defining = importlib.import_module(f"udrfusion.{MOVED_TO[module]}")
        assert home._MOVED_NAMES == names
        for name in names:
            assert getattr(home, name) is getattr(defining, name), (module, name)
        with pytest.raises(AttributeError, match=f"udrfusion.{module}' has no attribute 'nothing'"):
            home.nothing
        with pytest.raises(ImportError):
            exec(f"from udrfusion.{module} import nothing", {})


def test_a_hook_binds_nothing_in_the_module_it_serves():
    # in a fresh interpreter: a test's monkeypatch on the old home binds
    # the name there when it is undone
    count, bound = _after(
        f"len([getattr(getattr(udrfusion, m), n) for m, ns in {HOOKED_NAMES!r}.items() "
        f"for n in ns])",
        f"[n for m, ns in {HOOKED_NAMES!r}.items() for n in ns if n in vars(getattr(udrfusion, m))]",
    )
    assert (count, bound) == ("12", "[]")


def test_a_hooked_module_reads_a_patch_on_the_defining_module(monkeypatch):
    from udrfusion import dense

    def stand_in(*args):
        raise AssertionError("not called")

    monkeypatch.setattr(dense, "fixed_point_dim", stand_in)
    assert cohomology.fixed_point_dim is stand_in


def test_a_planted_eager_import_of_fpmatrix_is_caught(tmp_path):
    """The load check of analyze abelian sees a top-level import of
    fpmatrix in ffield, and that of verify one in dihedral, each planted
    in its own copy of the package."""
    package = Path(udrfusion.__file__).resolve().parent
    for module, top, argv in (
        ("ffield", "from .records import LimitExceeded\n", ABELIAN_ARGV),
        ("dihedral", "from .records import FrozenRecord\n", ["verify"]),
    ):
        copy = tmp_path / module / "udrfusion"
        copy.mkdir(parents=True)
        for path in package.glob("*.py"):
            (copy / path.name).write_text(path.read_text())
        planted = copy / f"{module}.py"
        assert top in planted.read_text()
        planted.write_text(
            planted.read_text().replace(top, top + "from .fpmatrix import FpMatrix\n", 1))
        assert _moved_modules_loaded_by(argv, tmp_path / module) == {"udrfusion.fpmatrix"}


@pytest.mark.parametrize("argv", [
    ["verify", "--check", "lemma410"],
    ["scan", "dihedral", "--n-min", "3", "--n-max", "6"],
    ["analyze", "dihedral", "--n", "5", "--i0", "1"],
])
def test_dihedral_commands_load_no_abelian(argv):
    result, loaded = _loaded_by(f"udrfusion.cli.main({argv!r})")
    assert result == "0"
    assert "udrfusion.abelian" not in loaded
    assert ROUTE_MODULES - loaded == {"udrfusion.abelian"}


COMMAND_MODULES = {"udrfusion.cli_dihedral", "udrfusion.cli_report", "udrfusion.cli_verify"}
DIHEDRAL_BODY = {"udrfusion.cli_dihedral", "udrfusion.cli_report"}


@pytest.mark.parametrize("argv, body", [
    (ABELIAN_ARGV, {"udrfusion.cli_report"}),
    (["analyze", "dihedral", "--n", "5", "--i0", "1"], DIHEDRAL_BODY),
    (["scan", "dihedral", "--n-min", "3", "--n-max", "6"], DIHEDRAL_BODY),
    (["verify", "--check", "lemma410"], {"udrfusion.cli_verify"}),
])
def test_each_command_loads_only_its_own_body(argv, body):
    result, loaded = _loaded_by(f"udrfusion.cli.main({argv!r})")
    assert result == "0"
    assert loaded & COMMAND_MODULES == body


def _dihedral_only_names() -> set[str]:
    """Every function or class defined in fusion (its routes act through
    theta_i0 or sweep, and its census counts their orbits) or in a
    dihedral command module: none of them is used by analyze abelian or
    build_parser."""
    return {
        name
        for module in (fusion, cli_dihedral, cli_verify)
        for name, value in vars(module).items()
        if (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }


def test_the_dihedral_only_names_cover_the_moved_bodies():
    names = _dihedral_only_names()
    assert {"fusion_orbits_closed_form", "_sweep_orbits", "_theta_table", "orbit_sets_bruteforce",
            "analyze_dihedral", "scan_rows", "families", "_orbit_reports",
            "_thm42", "_oracle_h1", "FusionNumbers", "fusion_numbers", "SweepPointSets"} <= names
    # the orbit-set records fusion binds are not its own
    assert {"FusionOrbitSet", "FusionOrbit", "coset_minima", "diagonal_images"}.isdisjoint(names)


@pytest.mark.parametrize("call", [
    "type(udrfusion.cli.build_parser()).__name__",
    f"udrfusion.cli.main({ABELIAN_ARGV!r})",
])
def test_no_module_loaded_by_the_abelian_half_binds_a_dihedral_only_name(call):
    names = sorted(_dihedral_only_names())
    _, bound = _after(call, (
        f"' '.join(sorted(f'{{module}}.{{name}}' for module, found in sys.modules.items() "
        f"if module.startswith('udrfusion') for name in {names!r} if name in vars(found)))"
    ))
    assert bound == ""


@pytest.mark.parametrize("call, result", [
    ("type(udrfusion.cli.build_parser()).__name__", "ArgumentParser"),
    ("udrfusion.cli.main(['verify'])", "0"),
    ("udrfusion.cli.main(['scan', 'dihedral', '--n-min', '3', '--n-max', '6'])", "0"),
])
def test_commands_that_write_no_json_load_no_json(call, result):
    found, loaded = _modules_loaded_by(call)
    assert found == result and "json" not in loaded


@pytest.mark.parametrize("argv", [
    ABELIAN_ARGV,
    ["scan", "dihedral", "--n-min", "3", "--n-max", "6", "--format", "json"],
])
def test_json_writers_load_json(argv):
    # the difference of sys.modules does see json when a command loads it
    result, loaded = _modules_loaded_by(f"udrfusion.cli.main({argv!r})")
    assert result == "0" and "json" in loaded


def test_importing_the_package_loads_no_submodule():
    result, loaded = _loaded_by("udrfusion.__version__")
    assert result == udrfusion.__version__
    assert loaded == {"udrfusion"}


# every name the package exported when it imported each module eagerly,
# with the module that defined it then: a name that has moved since
# still reads there, through that module's PEP 562 hook, or is defined
# there again
EXPORTS = {
    "ffield": (
        "FpMatrix", "find_prime", "find_primes", "multiplicative_order",
        "primitive_root_of_unity",
    ),
    "dihedral": (
        "DihedralParams", "GroupElement", "Rep2", "RepLabel", "center_acts_trivially",
        "irr2_indices", "irr2_rep", "irr2_reps", "kernel_invariant", "omega_set",
        "rep_kernel_scan", "t_map", "t_preimage",
    ),
    "fusion": (
        "FusionNumbers", "FusionOrbit", "FusionOrbitSet", "act", "fusion_numbers",
        "fusion_orbits_bruteforce", "fusion_orbits_closed_form", "same_fusion",
    ),
    "records": ("CohomologyDims", "LimitExceeded", "UdrClass", "VerificationReport"),
    "cohomology": (
        "GModule", "adjoint_decomposition_check", "adjoint_module",
        "cohomologically_maximal_set", "contragredient", "d1_oracle_cocycles", "det_module",
        "dims", "dims_row", "fixed_point_dim", "rep_module", "sign_module", "tensor",
        "trivial_module",
    ),
    "deformation": (
        "UdrSignature", "check_center_constraint", "check_determinability_rule",
        "check_gcd_pair_identity", "check_kernel_sets_detect_fusion",
        "check_maximality_matches_doubling_fibers", "check_orbit_census",
        "check_orbit_closed_form", "determinability_rule", "fusion_determinability",
        "udr_class", "udr_signature",
    ),
    "abelian": (
        "AbelianParams", "CharacterPair", "abelian_dims", "abelian_dims_projector",
        "abelian_fixed_count", "abelian_fixed_count_bruteforce", "abelian_orbits",
        "abelian_orbits_bruteforce", "abelian_udr", "find_underdetermined_pair",
    ),
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_every_export_is_its_defining_module_object():
    assert len(EXPORTED) == 66
    listed = dir(udrfusion)
    for module, name in EXPORTED:
        defining = importlib.import_module(f"udrfusion.{module}")
        assert getattr(udrfusion, name) is getattr(defining, name), name
        assert name in udrfusion.__all__ and name in listed, name
    assert sorted(udrfusion.__all__) == sorted(name for _, name in EXPORTED)


def test_shared_records_are_one_class_each():
    # the modules that defined them before still bind them
    assert cohomology.CohomologyDims is records.CohomologyDims
    assert deformation.UdrClass is records.UdrClass
    assert deformation.VerificationReport is records.VerificationReport
    assert records.UdrClass.ZP_CP.label == "Zp[Z/p]"


def test_limit_exceeded_is_one_class():
    # ffield, which raised it first, binds the class records defines
    assert ffield.LimitExceeded is records.LimitExceeded
    assert udrfusion.LimitExceeded is records.LimitExceeded


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from udrfusion import *", namespace)
    for module, name in EXPORTED:
        assert namespace[name] is getattr(importlib.import_module(f"udrfusion.{module}"), name)


def test_submodules_resolve_as_attributes():
    for module in ("abelian", "cli", "cohomology", "deformation", "dihedral", "ffield",
                   "fusion", "records"):
        assert getattr(udrfusion, module) is sys.modules[f"udrfusion.{module}"]
        assert module in dir(udrfusion)


def test_package_reads_a_rebound_name_from_its_module(monkeypatch):
    def stand_in(*args):
        raise AssertionError("not called")

    monkeypatch.setattr(cohomology, "dims", stand_in)
    assert udrfusion.dims is stand_in


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        udrfusion.no_such_name
    assert not hasattr(udrfusion, "oracles")
    with pytest.raises(ImportError):
        exec("from udrfusion import no_such_name", {})
