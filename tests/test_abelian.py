from __future__ import annotations

from time import perf_counter

import pytest

from udrfusion import abelian
from udrfusion.abelian import (
    ABELIAN_GROUP_ORDER_LIMIT,
    AbelianParams,
    CharacterPair,
    abelian_dims,
    abelian_dims_projector,
    abelian_fixed_count,
    abelian_fixed_count_bruteforce,
    abelian_orbits,
    abelian_orbits_bruteforce,
    abelian_udr,
    all_character_pairs,
    find_underdetermined_pair,
    smallest_valid_abelian_prime,
)
from udrfusion.cohomology import CohomologyDims
from udrfusion.deformation import UdrClass
from udrfusion.ffield import FpMatrix, LimitExceeded, is_prime
from udrfusion.fusion import fusion_numbers

from orbit_checks import abelian_orbit_grid, assert_same_orbits, burnside_count


def test_smallest_valid_prime():
    assert smallest_valid_abelian_prime(1) == 3
    assert smallest_valid_abelian_prime(2) == 3
    assert smallest_valid_abelian_prime(3) == 7
    assert smallest_valid_abelian_prime(6) == 7
    assert smallest_valid_abelian_prime(10) == 11


def test_smallest_valid_prime_is_the_brute_force_search():
    """The smallest odd prime p with exponent | p - 1 and p prime to the
    order, searched directly, for every exponent up to 200 and orders
    with the exponent's prime divisors."""
    for exponent in range(1, 201):
        for order in (exponent, exponent**2):
            p = 3
            while not ((p - 1) % exponent == 0 and order % p and is_prime(p)):
                p += 2
            assert smallest_valid_abelian_prime(exponent) == p, (exponent, order)


def test_smallest_valid_prime_ceiling():
    # every p = 1 (mod 1000003) exceeds the 10^6 ceiling
    with pytest.raises(LimitExceeded):
        smallest_valid_abelian_prime(1000003)


def test_params_standard():
    assert AbelianParams.standard((6,)).p == 7
    assert AbelianParams.standard((3,)).p == 7
    assert AbelianParams.standard((2, 2)).p == 3
    assert AbelianParams.standard((2, 3)).p == 7


def test_params_order_exponent_elements():
    params = AbelianParams.standard((2, 3))
    assert params.order == 6
    assert params.exponent == 6
    assert list(params.elements()) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert AbelianParams.standard((2, 2)).exponent == 2


def test_params_validation():
    with pytest.raises(ValueError):
        AbelianParams((3,), 5)  # 3 does not divide 5 - 1
    with pytest.raises(ValueError):
        AbelianParams((3,), 3)  # p divides the group order
    with pytest.raises(ValueError):
        AbelianParams((0,), 7)
    with pytest.raises(ValueError):
        AbelianParams((3,), 9)


def test_generator_roots():
    assert AbelianParams.standard((6,)).generator_roots() == (3,)
    assert AbelianParams((2, 3), 7).generator_roots() == (6, 2)


def test_character_from_exponents():
    params = AbelianParams.standard((6,))
    pair = CharacterPair.from_exponents(params, (1,), (0,))
    assert pair.theta1 == (3,) and pair.theta2 == (1,)
    assert pair.value1((2,)) == 2  # 3^2 mod 7
    assert pair.value2((5,)) == 1
    two = CharacterPair.from_exponents(AbelianParams((2, 3), 7), (1, 1), (0, 2))
    assert two.theta1 == (6, 2) and two.theta2 == (1, 4)
    assert two.value1((1, 1)) == 5  # 6 * 2 mod 7
    # each exponent iterable is read once, so generators give what lists give
    generated = CharacterPair.from_exponents(two.params, iter((1, 1)), (e for e in (0, 2)))
    assert generated == CharacterPair.from_exponents(two.params, [1, 1], [0, 2]) == two


def test_character_validation():
    params = AbelianParams.standard((6,))
    with pytest.raises(ValueError):
        CharacterPair(params, (0,), (1,))  # zero image
    with pytest.raises(ValueError):
        CharacterPair(AbelianParams((2,), 7), (3,), (1,))  # 3^2 != 1 mod 7
    with pytest.raises(ValueError):
        CharacterPair(params, (3, 3), (1, 1))  # wrong arity
    with pytest.raises(ValueError):
        CharacterPair.from_exponents(params, (1, 2), (0,))


def test_trivial_count_and_inverse():
    params = AbelianParams.standard((6,))
    assert CharacterPair.from_exponents(params, (0,), (0,)).trivial_count() == 2
    assert CharacterPair.from_exponents(params, (1,), (0,)).trivial_count() == 1
    assert CharacterPair.from_exponents(params, (1,), (2,)).trivial_count() == 0
    assert CharacterPair.from_exponents(params, (1,), (5,)).are_inverse()
    assert CharacterPair.from_exponents(params, (3,), (3,)).are_inverse()
    assert not CharacterPair.from_exponents(params, (1,), (1,)).are_inverse()


def test_fixed_count_frozen():
    params = AbelianParams.standard((6,))
    assert abelian_fixed_count(CharacterPair.from_exponents(params, (0,), (0,))) == 49
    assert abelian_fixed_count(CharacterPair.from_exponents(params, (1,), (0,))) == 7
    assert abelian_fixed_count(CharacterPair.from_exponents(params, (1,), (1,))) == 1


def test_fixed_count_matches_bruteforce():
    checked = 0
    for pair in abelian_orbit_grid():
        count = abelian_fixed_count_bruteforce(pair)
        assert count == abelian_fixed_count(pair) == pair.params.p ** pair.trivial_count()
        checked += 1
    assert checked == 2 * (4 + 16 + 36 + 16 + 36 + 81)


def test_dims_frozen():
    params = AbelianParams.standard((6,))
    assert abelian_dims(CharacterPair.from_exponents(params, (0,), (0,))) == CohomologyDims(2, 3)
    assert abelian_dims(CharacterPair.from_exponents(params, (1,), (0,))) == CohomologyDims(1, 1)
    assert abelian_dims(CharacterPair.from_exponents(params, (1,), (5,))) == CohomologyDims(0, 1)
    assert abelian_dims(CharacterPair.from_exponents(params, (1,), (2,))) == CohomologyDims(0, 0)


def test_dims_match_projector():
    for orders in ((2,), (3,), (6,), (2, 2), (2, 3)):
        params = AbelianParams.standard(orders)
        for pair in all_character_pairs(params):
            assert abelian_dims_projector(pair) == abelian_dims(pair)


def test_udr_three_way():
    params = AbelianParams.standard((6,))
    assert abelian_udr(CharacterPair.from_exponents(params, (1,), (5,))) is UdrClass.ZP
    assert abelian_udr(CharacterPair.from_exponents(params, (1,), (0,))) is UdrClass.ZP_CP
    assert abelian_udr(CharacterPair.from_exponents(params, (0,), (0,))) is UdrClass.ZP_CP_SQUARED


def test_orbits_frozen():
    params = AbelianParams.standard((3,))  # p = 7, root 2
    pair = CharacterPair.from_exponents(params, (1,), (0,))
    orbit_set = abelian_orbits_bruteforce(pair)
    assert orbit_set.size_census() == {1: 7, 3: 14}
    assert len(orbit_set.orbits) == 21
    assert orbit_set.orbit_of((1, 5)).elements == frozenset({(1, 5), (2, 5), (4, 5)})
    assert orbit_set.orbit_of((0, 3)).size == 1


def test_direct_orbits_match_bruteforce():
    checked = 0
    for pair in abelian_orbit_grid():
        direct, sweep = abelian_orbits(pair), abelian_orbits_bruteforce(pair)
        assert_same_orbits(direct, sweep)
        # both list the whole stabilizer, in group element order
        assert [o.stabilizer_gens for o in direct.orbits] == [
            o.stabilizer_gens for o in sweep.orbits
        ]
        checked += 1
    assert checked == 2 * (4 + 16 + 36 + 16 + 36 + 81)


def test_direct_orbit_count_is_burnside_count():
    for pair in abelian_orbit_grid():
        p = pair.params.p
        matrices = [
            FpMatrix.diagonal(p, (pair.value1(g), pair.value2(g))) for g in pair.params.elements()
        ]
        assert len(abelian_orbits(pair).orbits) == burnside_count(p, matrices)


def test_direct_orbits_frozen():
    params = AbelianParams.standard((3,))  # p = 7, root 2
    orbit_set = abelian_orbits(CharacterPair.from_exponents(params, (1,), (0,)))
    assert orbit_set.size_census() == {1: 7, 3: 14}
    assert [o.representative for o in orbit_set.orbits[:4]] == [(0, 0), (0, 1), (0, 2), (0, 3)]
    assert orbit_set.orbit_of((1, 5)).elements == frozenset({(1, 5), (2, 5), (4, 5)})
    assert orbit_set.orbit_of((4, 5)).representative == (1, 5)
    assert orbit_set.orbit_of((0, 3)).size == 1
    with pytest.raises(KeyError):
        orbit_set.orbit_of((0, 7))


def test_orbit_stabilizer_identity():
    for orders in ((6,), (2, 2)):
        params = AbelianParams.standard(orders)
        for pair in all_character_pairs(params):
            orbit_set = abelian_orbits_bruteforce(pair)
            assert fusion_numbers(orbit_set).total_points() == params.p ** 2
            for orb in orbit_set.orbits:
                assert orb.size * orb.stabilizer_order == params.order


def test_all_character_pairs_count():
    assert sum(1 for _ in all_character_pairs(AbelianParams.standard((6,)))) == 36
    assert sum(1 for _ in all_character_pairs(AbelianParams.standard((2, 2)))) == 16


def test_bruteforce_guard():
    params = AbelianParams((6,), 1009)
    pair = CharacterPair.from_exponents(params, (1,), (0,))
    with pytest.raises(LimitExceeded):
        abelian_orbits_bruteforce(pair)
    with pytest.raises(LimitExceeded):
        abelian_fixed_count_bruteforce(pair)


def test_group_order_ceiling():
    # 2^22 elements: every route that walks the group refuses before the
    # first element, and the closed forms still answer
    params = AbelianParams((2,) * 22, 3)
    pair = CharacterPair.from_exponents(params, (1,) * 22, (1,) * 22)
    for route in (abelian_dims_projector, abelian_orbits):
        with pytest.raises(LimitExceeded, match="group has 4194304 elements, limit is 10000"):
            route(pair)
    # the brute forces' plane guard refuses first
    for route in (abelian_orbits_bruteforce, abelian_fixed_count_bruteforce):
        with pytest.raises(LimitExceeded):
            route(pair)
    assert abelian_dims(pair) == CohomologyDims(0, 1)
    assert abelian_fixed_count(pair) == 1
    # the ceiling itself is admitted
    at_limit = AbelianParams.standard((ABELIAN_GROUP_ORDER_LIMIT,))
    assert sum(1 for _ in at_limit.elements()) == ABELIAN_GROUP_ORDER_LIMIT
    with pytest.raises(LimitExceeded):
        AbelianParams.standard((ABELIAN_GROUP_ORDER_LIMIT + 1,)).elements()


def test_underdetermined_pair_smallest_case():
    # swapping the roles of the two characters transposes the orbit
    # picture without moving any of the summary invariants
    found = find_underdetermined_pair(AbelianParams.standard((2,)))
    assert found is not None
    assert find_underdetermined_pair(AbelianParams((2,), 3)) == found
    first, second = found
    assert first.theta1 == (1,) and first.theta2 == (2,)
    assert second.theta1 == (2,) and second.theta2 == (1,)


def test_underdetermined_pair_refuses_past_the_sweep_ceiling(monkeypatch):
    # 2^7 elements at p = 3: 16,384 sweeps of 1,152 points each, refused
    # before the first
    def no_sweep(pair):
        raise AssertionError("swept past the ceiling")

    monkeypatch.setattr(abelian, "abelian_orbits_bruteforce", no_sweep)
    start = perf_counter()
    with pytest.raises(LimitExceeded, match="16384 sweeps of size 1152 exceed 1000000"):
        find_underdetermined_pair(AbelianParams((2,) * 7, 3))
    assert perf_counter() - start < 1.0


def test_underdetermined_pair_order_six():
    found = find_underdetermined_pair(AbelianParams.standard((6,)))
    assert found is not None
    assert find_underdetermined_pair(AbelianParams((6,), 7)) == found
    first, second = found
    assert (first.theta1, first.theta2, second.theta1, second.theta2) == ((1,), (3,), (3,), (1,))
    set1, set2 = abelian_orbits_bruteforce(first), abelian_orbits_bruteforce(second)
    assert fusion_numbers(set1) == fusion_numbers(set2)
    assert abelian_dims(first) == abelian_dims(second)
    assert abelian_udr(first) is abelian_udr(second)
    assert set1.partition() != set2.partition()
