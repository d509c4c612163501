"""Fusion orbits, cohomology dimensions and deformation ring classes for
rank-2 actions of dihedral and finite abelian groups over prime fields.

The names below are exported lazily (PEP 562): importing the package
loads no submodule, and the first access to a name imports the module
that defines it.  A command that runs one half of the package, dihedral
or abelian, so never compiles the other.  Submodules are reachable as
attributes too, as udrfusion.cohomology and so on.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_MODULE_EXPORTS = {
    "ffield": (
        "FpMatrix",
        "LimitExceeded",
        "find_prime",
        "find_primes",
        "multiplicative_order",
        "primitive_root_of_unity",
    ),
    "dihedral": (
        "DihedralParams",
        "GroupElement",
        "Rep2",
        "RepLabel",
        "center_acts_trivially",
        "irr2_indices",
        "irr2_rep",
        "irr2_reps",
        "kernel_invariant",
        "omega_set",
        "rep_kernel_scan",
        "t_map",
        "t_preimage",
    ),
    "fusion": (
        "FusionNumbers",
        "FusionOrbit",
        "FusionOrbitSet",
        "act",
        "fusion_numbers",
        "fusion_orbits_bruteforce",
        "fusion_orbits_closed_form",
        "same_fusion",
    ),
    "records": (
        "CohomologyDims",
        "UdrClass",
        "VerificationReport",
    ),
    "cohomology": (
        "GModule",
        "adjoint_decomposition_check",
        "adjoint_module",
        "cohomologically_maximal_set",
        "contragredient",
        "d1_oracle_cocycles",
        "det_module",
        "dims",
        "dims_row",
        "fixed_point_dim",
        "rep_module",
        "sign_module",
        "tensor",
        "trivial_module",
    ),
    "deformation": (
        "UdrSignature",
        "check_center_constraint",
        "check_determinability_rule",
        "check_gcd_pair_identity",
        "check_kernel_sets_detect_fusion",
        "check_maximality_matches_doubling_fibers",
        "check_orbit_census",
        "check_orbit_closed_form",
        "determinability_rule",
        "fusion_determinability",
        "udr_class",
        "udr_signature",
    ),
    "abelian": (
        "AbelianParams",
        "CharacterPair",
        "abelian_dims",
        "abelian_dims_projector",
        "abelian_fixed_count",
        "abelian_fixed_count_bruteforce",
        "abelian_orbits",
        "abelian_orbits_bruteforce",
        "abelian_udr",
        "find_underdetermined_pair",
    ),
}

_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

_SUBMODULES = frozenset(
    ("abelian", "cli", "cohomology", "deformation", "dihedral", "ffield", "fusion", "records")
)

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # the value is read from its module on every access and not stored
    # here, so a name rebound in its module (a test's patch, a tracer's
    # wrapper) reads the same through the package
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
