"""Fusion orbits, cohomology dimensions and deformation ring classes for
rank-2 actions of dihedral and finite abelian groups over prime fields."""

from .ffield import (
    FpMatrix,
    LimitExceeded,
    find_prime,
    find_primes,
    multiplicative_order,
    primitive_root_of_unity,
)
from .dihedral import (
    DihedralParams,
    GroupElement,
    Rep2,
    RepLabel,
    center_acts_trivially,
    irr2_indices,
    irr2_rep,
    irr2_reps,
    kernel_invariant,
    omega_set,
    rep_kernel_scan,
    t_map,
    t_preimage,
)
from .fusion import (
    FusionNumbers,
    FusionOrbit,
    FusionOrbitSet,
    act,
    fusion_numbers,
    fusion_orbits_bruteforce,
    fusion_orbits_closed_form,
    same_fusion,
)
from .cohomology import (
    CohomologyDims,
    GModule,
    adjoint_decomposition_check,
    adjoint_module,
    cohomologically_maximal_set,
    contragredient,
    d1_oracle_cocycles,
    det_module,
    dims,
    dims_row,
    fixed_point_dim,
    rep_module,
    sign_module,
    tensor,
    trivial_module,
)
from .deformation import (
    UdrClass,
    UdrSignature,
    VerificationReport,
    check_center_constraint,
    check_determinability_rule,
    check_gcd_pair_identity,
    check_kernel_sets_detect_fusion,
    check_maximality_matches_doubling_fibers,
    check_orbit_census,
    check_orbit_closed_form,
    determinability_rule,
    fusion_determinability,
    udr_class,
    udr_signature,
)
from .abelian import (
    AbelianParams,
    CharacterPair,
    abelian_dims,
    abelian_dims_projector,
    abelian_fixed_count,
    abelian_fixed_count_bruteforce,
    abelian_orbits,
    abelian_orbits_bruteforce,
    abelian_udr,
    find_underdetermined_pair,
)

__version__ = "0.1.0"
