"""Acceptance gate: ten exact desk-scale checks, one per criterion.

Each test prints a single PASS or FAIL line and then asserts.  Every
comparison is exact integer or structural equality; there are no
tolerances anywhere.
"""

from __future__ import annotations

from math import gcd

from udrfusion.abelian import (
    AbelianParams,
    abelian_dims,
    abelian_fixed_count,
    abelian_fixed_count_bruteforce,
    abelian_orbits_bruteforce,
    abelian_udr,
    all_character_pairs,
    find_underdetermined_pair,
)
from udrfusion.cohomology import d1_oracle_cocycles, dims
from udrfusion.deformation import (
    UdrClass,
    check_center_constraint,
    check_determinability_rule,
    check_gcd_pair_identity,
    check_kernel_sets_detect_fusion,
    check_maximality_matches_doubling_fibers,
    determinability_rule,
    fusion_determinability,
    udr_class,
    udr_signature,
)
from udrfusion.dihedral import DihedralParams, RepLabel, omega_set, t_map
from udrfusion.ffield import LimitExceeded, find_primes
from udrfusion.fusion import (
    FusionNumbers,
    fusion_numbers,
    fusion_orbits_bruteforce,
    fusion_orbits_closed_form,
    same_fusion,
)

ORACLE_GUARD = 10**4


def _verdict(cid: str, ok: bool, detail: str) -> None:
    print(f"{cid} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{cid}: {detail}"


def _dihedral_grid():
    for n in range(3, 13):
        for p in find_primes(n, 2):
            yield DihedralParams.standard(n, p)


def test_c01_closed_form_orbits_match_bruteforce():
    checked = 0
    for params in _dihedral_grid():
        for i0 in params.irr2_indices():
            brute = fusion_orbits_bruteforce(params, i0)
            closed = fusion_orbits_closed_form(params, i0)
            assert brute.partition() == closed.partition(), (params, i0)
            for a, b in zip(brute.orbits, closed.orbits):
                assert a.representative == b.representative, (params, i0)
                assert a.stabilizer_order == b.stabilizer_order, (params, i0)
                assert a.size * a.stabilizer_order == 2 * params.n, (params, i0)
            checked += 1
    _verdict(
        "C1",
        checked == 2 * sum(len(range(1, (n + 1) // 2)) for n in range(3, 13)),
        f"closed-form orbit partitions match brute force on {checked} instances",
    )


def test_c02_fusion_number_census():
    checked = 0
    for params in _dihedral_grid():
        p = params.p
        for i0 in params.irr2_indices():
            census = fusion_numbers(fusion_orbits_bruteforce(params, i0))
            k = params.n // gcd(i0, params.n)
            expected = FusionNumbers.dihedral_closed_form(p, k)
            assert census == expected, (params, i0, census.counts)
            assert census.total_points() == p * p, (params, i0)
            checked += 1
    _verdict("C2", checked == 60, f"orbit size censuses match the closed form on {checked} instances")


def test_c03_cohomology_dims_structure():
    checked = 0
    for params in _dihedral_grid():
        for i0 in params.irr2_indices():
            target = RepLabel.irr2(i0)
            for j in params.irr2_indices():
                dd = dims(params, i0, j)
                assert dd.d1 in (0, 1), (params, i0, j, dd)
                assert dd.d2 == dd.d1 + 1, (params, i0, j, dd)
                assert dd.d1 == (1 if t_map(params, j) == target else 0), (params, i0, j)
                checked += 1
    _verdict("C3", checked == 220, f"d1/d2 structure holds on {checked} instances")


def test_c04_cocycle_oracle_agrees():
    required = {(3, 7), (4, 5), (5, 11), (6, 7)}
    covered = set()
    checked = 0
    for params in _dihedral_grid():
        if 2 * params.n * params.p ** 2 > ORACLE_GUARD:
            continue
        for i0 in params.irr2_indices():
            for j in params.irr2_indices():
                assert d1_oracle_cocycles(params, i0, j) == dims(params, i0, j).d1, (
                    params, i0, j,
                )
                checked += 1
        covered.add((params.n, params.p))
    assert required <= covered, covered
    _verdict(
        "C4",
        checked > 0,
        f"presentation cocycle count of dim H1 agrees with the projector value on "
        f"{checked} instances across {sorted(covered)}",
    )


def test_c05_deformation_ring_classes():
    checked = 0
    for params in _dihedral_grid():
        for i0 in params.irr2_indices():
            target = RepLabel.irr2(i0)
            for j in params.irr2_indices():
                cls = udr_class(params, i0, j)
                assert cls in (UdrClass.ZP, UdrClass.ZP_T_TORSION), (params, i0, j)
                assert (cls is UdrClass.ZP_T_TORSION) == (dims(params, i0, j).d2 == 2)
                assert (cls is UdrClass.ZP_T_TORSION) == (t_map(params, j) == target)
                checked += 1
            report = check_center_constraint(params, i0)
            assert report.passed, report
    _verdict("C5", checked == 220, f"ring classes track d2 with the center constraint on {checked} instances")


def test_c06_kernel_sets_detect_fusion():
    kernel_checks = 0
    fiber_checks = 0
    for params in _dihedral_grid():
        for i0 in sorted(omega_set(params)):
            report = check_kernel_sets_detect_fusion(params, i0)
            assert report.passed, report
            kernel_checks += 1
        report = check_maximality_matches_doubling_fibers(params)
        assert report.passed, report
        fiber_checks += 1
    _verdict(
        "C6",
        kernel_checks == 42 and fiber_checks == 20,
        f"kernel sets separate orbit structures ({kernel_checks} action checks, "
        f"{fiber_checks} fiber checks)",
    )


def test_c07_determinability_rule():
    checked = []
    for n in range(4, 31, 2):
        expected = determinability_rule(n)
        report = check_determinability_rule(n)
        assert report.passed, (n, report.witness)
        if not expected:
            tag, per_prime = report.witness
            assert tag == "witness_pairs", (n, report.witness)
            for p, determinable, pair in per_prime:
                assert determinable is False and pair is not None, (n, p)
                i1, i2 = pair
                params = DihedralParams.standard(n, p)
                assert udr_signature(params, i1) == udr_signature(params, i2), (n, p, pair)
                assert not same_fusion(params, i1, i2), (n, p, pair)
        checked.append((n, expected))
    negatives = [n for n, flag in checked if not flag]
    _verdict(
        "C7",
        negatives == [12, 18, 20, 24, 28, 30],
        f"signature tables determine orbit structure exactly for the predicted even n; "
        f"witness pairs verified at n in {negatives}",
    )


def test_c08_gcd_pair_identity():
    checked = 0
    for n in range(4, 41, 2):
        params = DihedralParams.standard(n)
        expected_omega = frozenset(range(2, (n + 1) // 2, 2))
        assert omega_set(params) == expected_omega, n
        for i0 in sorted(expected_omega):
            report = check_gcd_pair_identity(n, i0)
            assert report.passed, report
            assert gcd(i0, n) == 2 * gcd(i0 // 2, n // 2), (n, i0)
            checked += 1
    _verdict("C8", checked == 90, f"gcd pair identity holds at all {checked} even-rank instances")


def test_c09_abelian_character_actions():
    checked = 0
    for m in range(1, 11):
        params = AbelianParams.standard((m,))
        for pair in all_character_pairs(params):
            j = pair.trivial_count()
            fixed = abelian_fixed_count(pair)
            assert fixed == params.p ** j, (m, pair.theta1, pair.theta2)
            assert fixed == abelian_fixed_count_bruteforce(pair), (m, pair.theta1)
            dd = abelian_dims(pair)
            assert dd.d1 == j, (m, pair.theta1, pair.theta2)
            assert dd.d2 - dd.d1 == (1 if pair.are_inverse() else 0)
            assert abelian_udr(pair) is (UdrClass.ZP, UdrClass.ZP_CP, UdrClass.ZP_CP_SQUARED)[j]
            census = fusion_numbers(abelian_orbits_bruteforce(pair)).counts
            assert census.get(1, 0) == fixed, (m, pair.theta1, pair.theta2)
            checked += 1
    witness = find_underdetermined_pair(AbelianParams((6,), 7))
    assert witness is not None
    first, second = witness
    set1, set2 = abelian_orbits_bruteforce(first), abelian_orbits_bruteforce(second)
    assert fusion_numbers(set1) == fusion_numbers(set2)
    assert abelian_dims(first) == abelian_dims(second)
    assert abelian_udr(first) is abelian_udr(second)
    assert set1.partition() != set2.partition()
    _verdict(
        "C9",
        checked == sum(m * m for m in range(1, 11)),
        f"abelian fixed counts, dims and ring classes verified on {checked} character "
        f"pairs; order-6 witness shows the summaries underdetermine the orbits",
    )


def test_c10_root_of_unity_invariance():
    compared = 0
    for n in range(3, 9):
        base = DihedralParams.standard(n)
        p = base.p
        baseline = {}
        for i0 in base.irr2_indices():
            orbit_set = fusion_orbits_bruteforce(base, i0)
            baseline[i0] = (
                orbit_set.partition(),
                fusion_numbers(orbit_set),
                {j: dims(base, i0, j) for j in base.irr2_indices()},
                udr_signature(base, i0).digest(),
            )
        base_flag = fusion_determinability(base).passed
        for w in range(2, p):
            try:
                params = DihedralParams(n, p, w)
            except ValueError:
                continue
            for i0 in params.irr2_indices():
                part, census, table, digest = baseline[i0]
                orbit_set = fusion_orbits_bruteforce(params, i0)
                assert orbit_set.partition() == part, (n, w, i0)
                assert fusion_numbers(orbit_set) == census, (n, w, i0)
                assert {j: dims(params, i0, j) for j in params.irr2_indices()} == table
                assert udr_signature(params, i0).digest() == digest, (n, w, i0)
            assert fusion_determinability(params).passed == base_flag, (n, w)
            compared += 1
    # one instance per primitive root: phi(3..8) sums to 20
    _verdict(
        "C10",
        compared == 20,
        f"fusion numbers, dims, ring classes and determinability agree across all "
        f"{compared} primitive root choices for n = 3..8",
    )
