"""The abelian sweep catalog: the brute-force orbit sweep, which is the
oracle of abelian.abelian_orbits, and the search over every character
pair for two whose summary invariants agree while their orbit
partitions differ.

No command calls them, so no command loads this module: abelian's
importers still read its names there, and the first read loads it
(PEP 562), with fusion, the sweep's module, and so dihedral.
"""

from __future__ import annotations

import itertools

from . import abelian, fusion
from .abelian import ABELIAN_BRUTE_FORCE_LIMIT, AbelianParams, CharacterPair
from .orbits import FusionOrbitSet
from .records import LimitExceeded


def abelian_orbits_bruteforce(pair: CharacterPair) -> FusionOrbitSet:
    """Orbit partition of the plane by sweeping every point; the oracle
    for abelian.abelian_orbits."""
    params = pair.params
    abelian.check_sweep_size(params)
    elements = list(params.elements())
    matrices = [(pair.value1(g), 0, 0, pair.value2(g)) for g in elements]
    ((_, orbit_set),) = fusion.orbit_sets_bruteforce([(pair, params.p, elements, matrices)])
    return orbit_set


def all_character_pairs(params: AbelianParams):
    """Every character pair, in deterministic exponent order."""
    ranges = [range(m) for m in params.cyclic_orders]
    for e1 in itertools.product(*ranges):
        for e2 in itertools.product(*ranges):
            yield CharacterPair.from_exponents(params, e1, e2)


def find_underdetermined_pair(params: AbelianParams):
    """Search for two character pairs with identical fusion numbers,
    dimensions and ring class whose orbit partitions still differ.

    Returns the first such (pair, pair) in search order, or None.  The
    existence of one shows the summary invariants cannot reconstruct
    the orbit structure.  It sweeps the plane once for each of the
    order^2 pairs, so it refuses groups whose sweeps together pass
    ABELIAN_BRUTE_FORCE_LIMIT before the first one.
    """
    sweep = params.order * params.p**2
    if params.order**2 * sweep > ABELIAN_BRUTE_FORCE_LIMIT:
        raise LimitExceeded(
            f"{params.order**2} sweeps of size {sweep} exceed {ABELIAN_BRUTE_FORCE_LIMIT} in total"
        )
    catalog = []
    for pair in all_character_pairs(params):
        orbit_set = abelian_orbits_bruteforce(pair)
        summary = (
            tuple(orbit_set.size_census().items()),
            abelian.abelian_dims(pair),
            abelian.abelian_udr(pair),
        )
        catalog.append((pair, summary, orbit_set.partition()))
    for a_pos, (pair1, sum1, part1) in enumerate(catalog):
        for pair2, sum2, part2 in catalog[a_pos + 1 :]:
            if sum1 == sum2 and part1 != part2:
                return pair1, pair2
    return None
