"""Checks shared by the dihedral and abelian orbit tests."""

from __future__ import annotations

from math import lcm, prod

from udrfusion.abelian import AbelianParams, all_character_pairs
from udrfusion.ffield import FpMatrix, is_prime

ORBIT_GRID_ORDERS = ((2,), (4,), (6,), (2, 2), (2, 3), (3, 3))


def abelian_orbit_grid():
    """Every character pair of each group in ORBIT_GRID_ORDERS at its two
    smallest valid primes."""
    for orders in ORBIT_GRID_ORDERS:
        exponent, order = lcm(*orders), prod(orders)
        primes = [p for p in range(3, 40) if is_prime(p) and (p - 1) % exponent == 0 and order % p]
        for p in primes[:2]:
            yield from all_character_pairs(AbelianParams(orders, p))


def assert_same_orbits(direct, sweep):
    """Two orbit sets agree on representatives, sizes, stabilizer orders
    and the partition itself."""
    assert [(o.representative, o.size, o.stabilizer_order) for o in direct.orbits] == [
        (o.representative, o.size, o.stabilizer_order) for o in sweep.orbits
    ]
    assert direct.partition() == sweep.partition()


def burnside_count(p, matrices):
    """Cauchy-Frobenius orbit count (1/|G|) sum_g |Fix(g)| over the 2 x 2
    matrices of the group elements, with |Fix(g)| = p^(2 - rank(M_g - I))
    read off each matrix; no orbit is ever built."""
    identity = FpMatrix.identity(p, 2)
    total = sum(p ** (2 - (m - identity).rank()) for m in matrices)
    assert total % len(matrices) == 0
    return total // len(matrices)
