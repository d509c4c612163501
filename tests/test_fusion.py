from __future__ import annotations

from functools import lru_cache
from itertools import compress, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udrfusion import abelian, fusion
from udrfusion.dihedral import DihedralParams, GroupElement, group_elements, irr2_rep
from udrfusion.ffield import FpMatrix, LimitExceeded, find_primes, primitive_root_of_unity
from udrfusion.fusion import (
    FusionNumbers,
    FusionOrbit,
    FusionOrbitSet,
    NPoint,
    act,
    coset_minima,
    fusion_numbers,
    fusion_orbits_bruteforce,
    fusion_orbits_closed_form,
    same_fusion,
)

from orbit_checks import abelian_orbit_grid, assert_same_orbits, burnside_count

# the sweep is quadratic in p; the oracle grids below stop at planes of
# SWEEP_PRIME_CEILING^2 points so the comparisons stay well under a second
SWEEP_PRIME_CEILING = 40


def _dihedral_grid():
    """(params, i0) for n = 3..24 at the two smallest primes each."""
    for n in range(3, 25):
        for p in find_primes(n, 2):
            params = DihedralParams.standard(n, p)
            for i0 in params.irr2_indices():
                yield params, i0


def test_act_frozen():
    params = DihedralParams.standard(5)  # p = 11, w = 3
    r = GroupElement.rotation(5)
    s = GroupElement.reflection(5)
    assert act(params, 1, r, (1, 0)) == (3, 0)
    assert act(params, 1, s, (1, 2)) == (2, 1)
    assert act(params, 1, r * r, (1, 1)) == (9, 5)
    assert act(params, 2, r, (1, 1)) == (9, 5)


def test_act_is_left_action():
    params = DihedralParams.standard(4)
    pts = [(x, y) for x in range(params.p) for y in range(params.p)]
    for g in group_elements(4):
        for h in group_elements(4):
            for v in pts:
                assert act(params, 1, g * h, v) == act(params, 1, g, act(params, 1, h, v))


def test_bruteforce_census_frozen():
    orbit_set = fusion_orbits_bruteforce(DihedralParams.standard(3), 1)
    assert orbit_set.size_census() == {1: 1, 3: 6, 6: 5}
    assert len(orbit_set.orbits) == 12
    zero = orbit_set.orbit_of((0, 0))
    assert zero.size == 1 and zero.stabilizer_order == 6


def test_bruteforce_census_n5():
    params = DihedralParams.standard(5)
    for i0 in (1, 2):
        orbit_set = fusion_orbits_bruteforce(params, i0)
        assert orbit_set.size_census() == {1: 1, 5: 10, 10: 7}


def test_bruteforce_guard():
    with pytest.raises(LimitExceeded):
        fusion_orbits_bruteforce(DihedralParams.standard(3, 1009), 1)


def test_closed_form_orbit_frozen():
    # n = 6, p = 7, i0 = 2: k = 3, orbit of (1, 2) stays in the ratio locus
    params = DihedralParams.standard(6)
    orbit_set = fusion_orbits_closed_form(params, 2)
    orb = orbit_set.orbit_of((1, 2))
    assert orb.elements == frozenset({(1, 2), (2, 1), (4, 4)})
    assert orb.representative == (1, 2)
    assert orb.size == 3
    assert orb.stabilizer_order == 4
    assert orb.stabilizer_gens == (GroupElement.rotation(6, 3), GroupElement.reflection(6, 1))


def test_closed_form_index_validation():
    with pytest.raises(ValueError):
        fusion_orbits_closed_form(DihedralParams.standard(5), 0)
    with pytest.raises(ValueError):
        fusion_orbits_closed_form(DihedralParams.standard(5), 3)


def test_closed_form_matches_bruteforce():
    checked = 0
    for params, i0 in _dihedral_grid():
        if params.p <= SWEEP_PRIME_CEILING:
            closed = fusion_orbits_closed_form(params, i0)
            assert_same_orbits(closed, fusion_orbits_bruteforce(params, i0))
            checked += 1
    assert checked == 95


def test_closed_form_orbit_count_is_burnside_count():
    checked = 0
    for params, i0 in _dihedral_grid():
        rep = irr2_rep(params, i0)
        rotations = [FpMatrix.identity(params.p, 2)]
        for _ in range(params.n - 1):
            rotations.append(rotations[-1] * rep.mat_r)
        matrices = rotations + [rep.mat_s * m for m in rotations]
        orbits = fusion_orbits_closed_form(params, i0).orbits
        assert len(orbits) == burnside_count(params.p, matrices), (params, i0)
        checked += 1
    assert checked == 264


def test_closed_form_orbit_ceiling():
    # (p - 1)(p + 1 - k)/(2k) orbits of size 2k: about 1.7e11 at k = 3
    with pytest.raises(LimitExceeded):
        fusion_orbits_closed_form(DihedralParams.standard(3, 1000003), 1)


def test_orbit_of_canonicalises():
    params = DihedralParams.standard(6)  # p = 7
    for orbit_set in (
        fusion_orbits_closed_form(params, 1),
        fusion_orbits_bruteforce(params, 2),
    ):
        for x in range(7):
            for y in range(7):
                orb = orbit_set.orbit_of((x, y))
                assert (x, y) in orb.elements
                assert orb.representative == min(orb.elements)
        with pytest.raises(KeyError):
            orbit_set.orbit_of((7, 0))


def test_orbit_elements_are_lazy_and_checked():
    orb = FusionOrbit((1, 2), 2, 1, (), lambda v: {v})
    assert orb.representative == (1, 2) and orb.size == 2
    with pytest.raises(ValueError):
        orb.elements
    with pytest.raises(ValueError):
        FusionOrbit((0, 0), 0, 1, (), lambda v: {v})


def test_coset_minima():
    # <2> = {1, 2, 4} in F_7^*: cosets {1, 2, 4} and {3, 5, 6}
    assert coset_minima(7, (1, 2, 4)) == [0, 1, 1, 3, 1, 3, 3]
    assert coset_minima(7, (1,)) == list(range(7))


def test_stabilizer_generators_fix_representative():
    for n in (5, 6, 12):
        params = DihedralParams.standard(n)
        for i0 in params.irr2_indices():
            for orb in fusion_orbits_closed_form(params, i0).orbits:
                for g in orb.stabilizer_gens:
                    assert act(params, i0, g, orb.representative) == orb.representative


def test_stabilizer_generators_generate_stabilizer():
    for n in (5, 6, 8):
        params = DihedralParams.standard(n)
        for i0 in params.irr2_indices():
            for orb in fusion_orbits_closed_form(params, i0).orbits:
                closure = {GroupElement.identity(n)}
                while True:
                    grown = closure | {
                        a * b for a in closure for b in orb.stabilizer_gens
                    }
                    if grown == closure:
                        break
                    closure = grown
                assert len(closure) == orb.stabilizer_order


def test_bruteforce_table_is_the_representation_matrices(monkeypatch):
    # the sweep's table is a running product of irr2_rep's generators;
    # it must equal Rep2.matrix element by element
    tables = []
    monkeypatch.setattr(fusion, "_sweep_orbits", lambda p, table: tables.append(table))
    for n in (3, 4, 6, 7, 12):
        for p in find_primes(n, 2):
            params = DihedralParams.standard(n, p)
            for i0 in params.irr2_indices():
                fusion_orbits_bruteforce(params, i0)
                rep = irr2_rep(params, i0)
                expected = [
                    (g, tuple(x for row in rep.matrix(g).data for x in row))
                    for g in group_elements(n)
                ]
                assert tables.pop() == expected


def test_renamed_sweep_needs_the_same_matrix_set():
    params = DihedralParams.standard(12, 13)
    one, two, five = (fusion._theta_table(params, i0) for i0 in (1, 2, 5))
    brute = fusion_orbits_bruteforce(params, 1)
    renamed = fusion.renamed_sweep(brute, one, five)
    assert renamed.runs == fusion_orbits_bruteforce(params, 5).runs
    assert renamed.point_sets is brute.point_sets and renamed.images is brute.images
    with pytest.raises(ValueError):
        fusion.renamed_sweep(brute, one, two)
    # theta_2 has kernel {1, r^6}: giving r the identity's matrix keeps the
    # set of matrices and changes two multiplicities, which a sweep does
    # not read; the stabilizers and their orders follow the new table
    doubled = [(g, two[0][1] if g == GroupElement.rotation(12) else mat) for g, mat in two]
    assert {mat for _, mat in doubled} == {mat for _, mat in two}
    sweep_two = fusion_orbits_bruteforce(params, 2)
    assert fusion.renamed_sweep(sweep_two, two, doubled).runs == fusion._sweep_orbits(13, doubled).runs
    # a table whose set lacks one matrix of the other's
    with pytest.raises(ValueError):
        fusion.renamed_sweep(sweep_two, two, [(g, mat) for g, mat in two if mat != two[-1][1]])


@pytest.mark.parametrize(
    "swept, renamed",
    [((3, 13, 1), (6, 13, 2)), ((3, 13, 1), (12, 13, 4)), ((4, 13, 1), (12, 13, 3)),
     ((3, 7, 1), (6, 7, 2))],
)
def test_renamed_sweep_crosses_ranks(swept, renamed):
    """Tables of different ranks at one prime with the same set of
    matrices, in different multiplicities: the renamed sweep equals a fresh
    sweep of the other index in runs, rows with their stabilizer
    generators and orders, and point sets."""
    (n, p, i0), (m, q, j0) = swept, renamed
    params, other_params = DihedralParams.standard(n, p), DihedralParams.standard(m, q)
    table, other = fusion._theta_table(params, i0), fusion._theta_table(other_params, j0)
    assert len(other) != len(table)
    got = fusion.renamed_sweep(fusion_orbits_bruteforce(params, i0), table, other)
    fresh = fusion_orbits_bruteforce(other_params, j0)
    # each row carries its stabilizer order and generators
    assert got.runs == fresh.runs and got.rows == fresh.rows
    assert got.point_sets == fresh.point_sets


def test_orbit_rows_and_lazy_orbits_agree():
    params = DihedralParams.standard(12, 13)
    for orbit_set in (fusion_orbits_closed_form(params, 5), fusion_orbits_bruteforce(params, 2)):
        assert orbit_set.orbit_count == len(orbit_set.orbits) == len(orbit_set.rows)
        assert orbit_set.representatives == [o.representative for o in orbit_set.orbits]
        assert [
            (o.representative, o.size, o.stabilizer_order, o.stabilizer_gens)
            for o in orbit_set.orbits
        ] == list(orbit_set.rows)
        # built once and kept
        assert orbit_set.orbits is orbit_set.orbits
    # the sweep hands its point sets to its orbits: nothing is recomputed
    brute = fusion_orbits_bruteforce(params, 2)
    assert all("elements" in vars(o) for o in brute.orbits)
    assert not any("elements" in vars(o) for o in fusion_orbits_closed_form(params, 2).orbits)


# the sweeps whose rows the run tests regroup: dihedral n = 3..8 at the
# smallest prime, the trivial group at 5, where every orbit is a point,
# and a Z/2 x Z/3 pair at 7
_SWEEPS = [("dihedral", n, i0) for n in range(3, 9) for i0 in range(1, (n + 1) // 2)]
_SWEEPS += [("abelian", (1,), 5, (0,), (0,)), ("abelian", (2, 3), 7, (1, 0), (1, 2))]


@lru_cache(maxsize=None)
def _sweep(case):
    if case[0] == "dihedral":
        return fusion_orbits_bruteforce(DihedralParams.standard(case[1]), case[2])
    _, orders, p, e1, e2 = case
    pair = abelian.CharacterPair.from_exponents(abelian.AbelianParams(orders, p), e1, e2)
    return abelian.abelian_orbits_bruteforce(pair)


@st.composite
def _split_sweep(draw):
    """A sweep and its rows grouped into runs at random: a row joins the
    run before it when both share x, size and stabilizer and no drawn cut
    falls between them."""
    sweep = _sweep(draw(st.sampled_from(_SWEEPS)))
    rows = sweep.rows
    cuts = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    runs = []
    for ((x, y), *shared), cut in zip(rows, cuts):
        if runs and not cut and runs[-1][0] == x and list(runs[-1][2:]) == shared:
            runs[-1][1].append(y)
        else:
            runs.append((x, [y], *shared))
    return sweep, tuple(runs)


@settings(max_examples=80, deadline=None)
@given(_split_sweep())
def test_any_runs_of_a_sweep_read_as_its_rows(case):
    sweep, runs = case
    # the sweep merges its runs as far as they go: no two neighbouring
    # runs share x, size and stabilizer
    assert all(a[0] != b[0] or a[2:] != b[2:] for a, b in zip(sweep.runs, sweep.runs[1:]))
    split = FusionOrbitSet(runs, sweep.p, sweep.images, sweep.point_sets)
    assert split.rows == sweep.rows
    assert split.representatives == sweep.representatives
    assert split.orbit_count == sweep.orbit_count
    assert split.size_census() == sweep.size_census()
    assert split == sweep and hash(split) == hash(sweep) and repr(split) == repr(sweep)
    assert split.partition() == sweep.partition()
    assert FusionOrbitSet.from_rows(split.rows, sweep.p, sweep.images) == split


def test_a_run_without_representatives_is_refused():
    with pytest.raises(ValueError, match="every run needs at least one representative"):
        FusionOrbitSet(((0, (0,), 1, 2, ()), (0, [], 2, 1, ())), 3, list)
    with pytest.raises(ValueError):
        FusionOrbitSet(((1, range(1, 1), 2, 1, ()),), 3, list)


def test_rows_passed_as_runs_are_refused():
    # a row (representative, size, stabilizer_order, stabilizer_gens) has
    # a truthy second field, but four fields, not a run's five
    sweep = fusion_orbits_bruteforce(DihedralParams.standard(5), 1)
    with pytest.raises(ValueError, match="a run is .* got 4 fields"):
        FusionOrbitSet(sweep.rows, sweep.p, sweep.images)
    with pytest.raises(ValueError, match="got 6 fields"):
        FusionOrbitSet(((0, (0,), 1, 2, (), None),), 3, list)
    assert FusionOrbitSet(sweep.runs, sweep.p, sweep.images) == sweep


def test_closed_form_runs_expand_to_their_rows():
    """The closed form stores runs; its rows, read back through
    from_rows, give the same set, and it keeps fewer runs than rows."""
    params = DihedralParams.standard(12, 61)
    for i0 in params.irr2_indices():
        closed = fusion_orbits_closed_form(params, i0)
        assert FusionOrbitSet.from_rows(closed.rows, closed.p, closed.images) == closed
        assert len(closed.runs) < closed.orbit_count == len(closed.rows)


def test_orbit_stabilizer_identity():
    for n in (3, 6, 12):
        params = DihedralParams.standard(n)
        for i0 in params.irr2_indices():
            for orb in fusion_orbits_bruteforce(params, i0).orbits:
                assert orb.size * orb.stabilizer_order == 2 * n


def test_census_closed_form_frozen():
    assert FusionNumbers.dihedral_closed_form(11, 5).counts == {1: 1, 5: 10, 10: 7}
    assert FusionNumbers.dihedral_closed_form(7, 3).counts == {1: 1, 3: 6, 6: 5}
    assert FusionNumbers.dihedral_closed_form(7, 6).counts == {1: 1, 6: 6, 12: 1}
    assert FusionNumbers.dihedral_closed_form(13, 12).counts == {1: 1, 12: 12, 24: 1}
    # k = p + 1 kills the size-2k term entirely
    assert FusionNumbers.dihedral_closed_form(5, 6).counts == {1: 1, 6: 4}


def test_census_closed_form_total():
    for p, k in ((7, 3), (7, 6), (11, 5), (13, 4), (13, 12)):
        assert FusionNumbers.dihedral_closed_form(p, k).total_points() == p * p


def test_census_closed_form_rejects_nonintegral():
    # 7 is not 1 mod 5, and the formula notices
    with pytest.raises(ValueError):
        FusionNumbers.dihedral_closed_form(7, 5)


def test_census_matches_formula():
    from math import gcd

    for n in range(3, 11):
        params = DihedralParams.standard(n)
        for i0 in params.irr2_indices():
            census = fusion_numbers(fusion_orbits_bruteforce(params, i0))
            k = n // gcd(i0, n)
            assert census == FusionNumbers.dihedral_closed_form(params.p, k)
            assert census.total_points() == params.p ** 2


def test_same_fusion_frozen():
    p12 = DihedralParams.standard(12)
    assert same_fusion(p12, 1, 5)
    assert not same_fusion(p12, 1, 2)
    assert not same_fusion(p12, 2, 4)
    assert same_fusion(p12, 3, 3)
    assert not same_fusion(DihedralParams.standard(6), 1, 2)
    with pytest.raises(ValueError):
        same_fusion(DihedralParams.standard(5), 0, 1)


def test_partition_independent_of_root_choice():
    n = 5
    p = 11
    partitions = []
    censuses = []
    for w in range(2, p):
        try:
            params = DihedralParams(n, p, w)
        except ValueError:
            continue
        partitions.append(fusion_orbits_closed_form(params, 1).partition())
        censuses.append(fusion_numbers(fusion_orbits_bruteforce(params, 1)))
    assert len(partitions) == 4  # four primitive fifth roots mod 11
    assert all(part == partitions[0] for part in partitions)
    assert all(c == censuses[0] for c in censuses)
    assert primitive_root_of_unity(p, n) == 3


def _tuple_sweep_reference(p, table):
    """The orbit sweep as it was written on (x, y) tuples before points
    became codes x*p + y, kept verbatim but for its return value: the runs,
    the tuple orbit map and the tuple point sets."""

    def images(v: NPoint) -> set:
        x, y = v
        return {((a * x + b * y) % p, (c * x + d * y) % p) for _, (a, b, c, d) in table}

    elements = [g for g, _ in table]
    matrices = [mat for _, mat in table]
    seen = set()
    runs = []
    point_sets = []
    for x in range(p):
        for y in range(p):
            rep = (x, y)
            if rep in seen:
                continue
            image_list = [((a * x + b * y) % p, (c * x + d * y) % p) for a, b, c, d in matrices]
            orbit = frozenset(image_list)
            if min(orbit) != rep:
                raise ValueError(f"the table does not map {rep} to the least point of its orbit")
            seen |= orbit
            if len(orbit) == len(image_list):
                # the images are distinct, so exactly one element fixes rep
                stab = (elements[image_list.index(rep)],)
            else:
                stab = tuple(compress(elements, [image == rep for image in image_list]))
            runs.append((x, (y,), len(orbit), len(stab), stab))
            point_sets.append(orbit)
    return tuple(runs), images, tuple(point_sets)


def _maximal_merge(runs):
    """runs with each joined to the run before it whenever both share x,
    size, stabilizer order and stabilizer; ys stay tuples."""
    merged = []
    for x, ys, *shared in runs:
        if merged and merged[-1][0] == x and list(merged[-1][2:]) == shared:
            merged[-1] = (x, merged[-1][1] + tuple(ys), *shared)
        else:
            merged.append((x, tuple(ys), *shared))
    return tuple(merged)


def _assert_sweep_matches_tuple_reference(sweep, table):
    p = sweep.p
    runs, images, point_sets = _tuple_sweep_reference(p, table)
    assert sweep.runs == _maximal_merge(runs)
    assert sweep.rows == tuple(
        ((x, y), size, order, gens) for x, ys, size, order, gens in runs for y in ys
    )
    assert [frozenset(divmod(code, p) for code in codes) for codes in sweep.point_sets] == list(
        point_sets
    )
    assert [orb.elements for orb in sweep.orbits] == list(point_sets)
    assert sweep.partition() == frozenset(point_sets)
    by_representative = {min(points): points for points in point_sets}
    for v in product(range(p), repeat=2):
        orb = sweep.orbit_of(v)
        assert orb.representative == min(images(v))
        assert orb.elements == by_representative[orb.representative]


def test_coded_sweep_matches_the_tuple_reference(monkeypatch):
    """The coded sweep against the tuple sweep on the same tables: every
    dihedral n = 3..8 at two primes and every i0, and every character
    pair of the abelian orbit grid."""
    tables = []
    real = fusion._sweep_orbits

    def recording(p, table):
        tables.append(table)
        return real(p, table)

    monkeypatch.setattr(fusion, "_sweep_orbits", recording)
    monkeypatch.setattr(abelian, "_sweep_orbits", recording)
    checked = 0
    for n in range(3, 9):
        for p in find_primes(n, 2):
            params = DihedralParams.standard(n, p)
            for i0 in params.irr2_indices():
                _assert_sweep_matches_tuple_reference(fusion_orbits_bruteforce(params, i0),
                                                      tables.pop())
                checked += 1
    for pair in abelian_orbit_grid():
        _assert_sweep_matches_tuple_reference(abelian.abelian_orbits_bruteforce(pair),
                                              tables.pop())
        checked += 1
    # 24 dihedral actions and 2 * (4 + 16 + 36 + 16 + 36 + 81) character pairs
    assert checked == 24 + 378


def test_coded_sweep_refuses_a_table_that_misses_the_least_point():
    # a table without the identity: (0, 0) is fixed, and (0, 1), the next
    # point swept, is not among its own images
    table = [(GroupElement.rotation(3), (2, 0, 0, 2))]
    with pytest.raises(ValueError, match=r"does not map \(0, 1\) to the least point"):
        fusion._sweep_orbits(5, table)
