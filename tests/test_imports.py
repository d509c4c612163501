"""Which modules each command loads, and the package's lazy exports.

The package exports its names lazily (PEP 562) and each CLI command
imports the modules of its route when it starts, so a command compiles
only the half of the package it runs.  The load tests start a fresh
interpreter and compare sys.modules before and after the call, so that
site's own imports and this process's imports do not count."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import udrfusion
from udrfusion import cohomology, deformation, records

ROUTE_MODULES = {f"udrfusion.{name}" for name in
                 ("abelian", "cohomology", "deformation", "dihedral", "fusion")}

ABELIAN_ARGV = ["analyze", "abelian", "--orders", "2,3", "--p", "7",
                "--theta1", "1,1", "--theta2", "1,2"]


def _modules_loaded_by(call: str) -> tuple[str, set[str]]:
    """The value of the expression call, in which udrfusion is imported,
    and the modules a fresh interpreter loads to evaluate it.  What call
    writes to stdout is discarded."""
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import udrfusion\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    result = {call}\n"
        "print(result)\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(udrfusion.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    result, loaded = proc.stdout.splitlines()
    return result, set(loaded.split())


def _loaded_by(call: str) -> tuple[str, set[str]]:
    """The value of call and the package modules loaded to evaluate it."""
    result, loaded = _modules_loaded_by(call)
    return result, {name for name in loaded if name.startswith("udrfusion")}


def test_build_parser_loads_no_route_module():
    result, loaded = _loaded_by("type(udrfusion.cli.build_parser()).__name__")
    assert result == "ArgumentParser"
    assert loaded == {"udrfusion", "udrfusion.cli", "udrfusion.ffield", "udrfusion.records"}
    assert loaded & ROUTE_MODULES == set()


def test_analyze_abelian_loads_no_dihedral_half():
    result, loaded = _loaded_by(f"udrfusion.cli.main({ABELIAN_ARGV!r})")
    assert result == "0"
    assert loaded & {"udrfusion.cohomology", "udrfusion.deformation", "udrfusion.dihedral"} == set()
    assert loaded == {"udrfusion", "udrfusion.cli", "udrfusion.ffield", "udrfusion.records",
                      "udrfusion.fusion", "udrfusion.abelian"}


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
# with the module that defines it
EXPORTS = {
    "ffield": (
        "FpMatrix", "LimitExceeded", "find_prime", "find_primes", "multiplicative_order",
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
    "records": ("CohomologyDims", "UdrClass", "VerificationReport"),
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
