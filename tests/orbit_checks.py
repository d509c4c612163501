"""Checks shared by the dihedral and abelian orbit tests."""

from __future__ import annotations

from udrfusion.ffield import FpMatrix


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
