"""Rank-2 actions of a finite abelian group through a pair of characters.

The group is a product of cyclic factors acting diagonally on the plane:
the first coordinate through theta1, the second through theta2.  Fixed
counts, cohomology dimensions and ring classes all reduce to how many of
the two characters are trivial and whether they are mutually inverse;
the orbit partition shows those summaries genuinely under-determine the
orbit structure.

abelian_orbits enumerates the least orbit representatives directly from
coset minima of three subgroups of F_p^* (the projections A and B of the
image H of the group in F_p^* x F_p^*, and the kernel K of the first
projection), in time and memory linear in p plus the number of orbits.
The brute-force sweep abelian_orbits_bruteforce and the per-value fixed
count abelian_fixed_count_bruteforce are its independent oracles.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import gcd, lcm, prod

from . import ffield, orbits
from .ffield import FpMatrix, LimitExceeded
from .orbits import ORBIT_LIMIT, FusionOrbitSet
from .records import CohomologyDims, FrozenRecord, UdrClass

ABELIAN_BRUTE_FORCE_LIMIT = 10**6

# elements() refuses a group of more elements than this, so that every
# route that walks the group (the projector, the orbit tables, the brute
# forces) is bounded; the largest admitted analyze takes under a second
ABELIAN_GROUP_ORDER_LIMIT = 10**4


def smallest_valid_abelian_prime(exponent: int) -> int:
    """Smallest odd prime p with exponent | p - 1 and p coprime to the order.

    The order and the exponent have the same prime divisors, and a prime
    p = 1 (mod exponent) divides neither, so the order is not needed:
    this is find_prime(exponent), which raises LimitExceeded past its
    ceiling, and 3 for an exponent of 1 or 2.
    """
    return ffield.find_prime(exponent) if exponent >= 3 else 3


class AbelianParams(FrozenRecord):
    """Product of cyclic groups Z/m_1 x ... x Z/m_t over F_p, with the
    group exponent dividing p - 1 and p coprime to the group order."""

    __slots__ = _fields = ("cyclic_orders", "p")

    def __init__(self, cyclic_orders: tuple, p: int) -> None:
        self._init(cyclic_orders, p)

    def __post_init__(self) -> None:
        orders = tuple(int(m) for m in self.cyclic_orders)
        object.__setattr__(self, "cyclic_orders", orders)
        if not orders or any(m < 1 for m in orders):
            raise ValueError("cyclic orders must be positive integers")
        if not ffield.is_odd_prime(self.p):
            raise ValueError(f"{self.p} is not an odd prime")
        if gcd(self.p, self.order) != 1:
            raise ValueError(f"{self.p} divides the group order {self.order}")
        if (self.p - 1) % self.exponent != 0:
            raise ValueError(
                f"group exponent {self.exponent} does not divide p - 1 = {self.p - 1}"
            )

    @classmethod
    def standard(cls, cyclic_orders, p: int | None = None) -> "AbelianParams":
        orders = tuple(int(m) for m in cyclic_orders)
        if p is None:
            if not orders or any(m < 1 for m in orders):
                raise ValueError("cyclic orders must be positive integers")
            p = smallest_valid_abelian_prime(lcm(*orders))
        return cls(orders, p)

    @property
    def order(self) -> int:
        return prod(self.cyclic_orders)

    @property
    def exponent(self) -> int:
        return lcm(*self.cyclic_orders)

    def elements(self):
        """All group elements as exponent tuples, in lexicographic order.
        Raises LimitExceeded, before enumerating, for a group of more than
        ABELIAN_GROUP_ORDER_LIMIT elements."""
        if self.order > ABELIAN_GROUP_ORDER_LIMIT:
            raise LimitExceeded(
                f"group has {self.order} elements, limit is {ABELIAN_GROUP_ORDER_LIMIT}"
            )
        return itertools.product(*(range(m) for m in self.cyclic_orders))

    def generator_roots(self) -> tuple[int, ...]:
        """Deterministic primitive m_i-th root of unity for each factor."""
        return tuple(ffield.primitive_root_of_unity(self.p, m) for m in self.cyclic_orders)


class CharacterPair(FrozenRecord):
    """Two characters of the group, each given by its generator images."""

    __slots__ = _fields = ("params", "theta1", "theta2")

    def __init__(self, params: AbelianParams, theta1: tuple, theta2: tuple) -> None:
        self._init(params, theta1, theta2)

    def __post_init__(self) -> None:
        p = self.params.p
        for which in ("theta1", "theta2"):
            raw = getattr(self, which)
            images = tuple(int(v) % p for v in raw)
            object.__setattr__(self, which, images)
            if len(images) != len(self.params.cyclic_orders):
                raise ValueError(f"{which} needs one image per cyclic factor")
            for img, m in zip(images, self.params.cyclic_orders):
                if img == 0 or pow(img, m, p) != 1:
                    raise ValueError(
                        f"{which} image {img} does not have order dividing {m} mod {p}"
                    )

    @classmethod
    def from_exponents(cls, params: AbelianParams, e1, e2) -> "CharacterPair":
        """Characters g_i -> w_i^(e_i) for the deterministic roots w_i."""
        roots = params.generator_roots()
        e1, e2 = tuple(e1), tuple(e2)
        if len(e1) != len(roots) or len(e2) != len(roots):
            raise ValueError("need one exponent per cyclic factor")
        img1 = tuple(pow(w, int(e) % m, params.p) for w, e, m in zip(roots, e1, params.cyclic_orders))
        img2 = tuple(pow(w, int(e) % m, params.p) for w, e, m in zip(roots, e2, params.cyclic_orders))
        return cls(params, img1, img2)

    def _value(self, images: tuple, elem) -> int:
        p = self.params.p
        v = 1
        for img, e in zip(images, elem):
            v = v * pow(img, e, p) % p
        return v

    def value1(self, elem) -> int:
        return self._value(self.theta1, elem)

    def value2(self, elem) -> int:
        return self._value(self.theta2, elem)

    def trivial_count(self) -> int:
        ones1 = all(v == 1 for v in self.theta1)
        ones2 = all(v == 1 for v in self.theta2)
        return int(ones1) + int(ones2)

    def are_inverse(self) -> bool:
        p = self.params.p
        return all(a * b % p == 1 for a, b in zip(self.theta1, self.theta2))


def abelian_fixed_count(pair: CharacterPair) -> int:
    """Number of plane points fixed by the whole group: p to the number
    of trivial characters in the pair."""
    return pair.params.p ** pair.trivial_count()


def _check_sweep_size(params: AbelianParams) -> None:
    """Refuse a brute force over the order * p^2 (element, point) pairs of
    the plane past ABELIAN_BRUTE_FORCE_LIMIT."""
    size = params.order * params.p**2
    if size > ABELIAN_BRUTE_FORCE_LIMIT:
        raise LimitExceeded(f"sweep size {size} exceeds {ABELIAN_BRUTE_FORCE_LIMIT}")


def abelian_fixed_count_bruteforce(pair: CharacterPair) -> int:
    """Fixed points counted by testing every group element on every
    coordinate value; the guard matches the orbit brute force.

    For each value x, bit i of mask1[x] says whether the i-th group
    element fixes x in the first coordinate, and likewise mask2 for the
    second; (x, y) is fixed by the group when the two masks AND to the
    full set.  That is 2 p |G| evaluations, not p^2 |G|.
    """
    params = pair.params
    p = params.p
    _check_sweep_size(params)
    values = [(pair.value1(g), pair.value2(g)) for g in params.elements()]
    full = (1 << len(values)) - 1

    def mask_counts(coord: int) -> Counter:
        return Counter(
            sum(1 << i for i, v in enumerate(values) if v[coord] * x % p == x) for x in range(p)
        )

    masks1, masks2 = mask_counts(0), mask_counts(1)
    return sum(
        c1 * c2 for m1, c1 in masks1.items() for m2, c2 in masks2.items() if m1 & m2 == full
    )


def abelian_dims(pair: CharacterPair) -> CohomologyDims:
    """d1 counts the trivial characters; d2 adds one exactly when the
    characters are mutually inverse.  Independent of the coefficient
    module, which is one-dimensional with trivial adjoint."""
    d1 = pair.trivial_count()
    return CohomologyDims(d1, d1 + (1 if pair.are_inverse() else 0))


def abelian_dims_projector(pair: CharacterPair) -> CohomologyDims:
    """The same dimensions from averaging idempotents over the group:
    d1 from the contragredient of the diagonal action, the d2 increment
    from its determinant character."""
    params = pair.params
    p = params.p
    inv_order = pow(params.order % p, -1, p)
    acc2 = FpMatrix.zeros(p, 2, 2)
    acc1 = FpMatrix.zeros(p, 1, 1)
    for g in params.elements():
        v1 = pow(pair.value1(g), -1, p)
        v2 = pow(pair.value2(g), -1, p)
        acc2 = acc2 + FpMatrix.diagonal(p, (v1, v2))
        acc1 = acc1 + FpMatrix(p, ((v1 * v2 % p,),))
    d1 = (inv_order * acc2).rank()
    return CohomologyDims(d1, d1 + (inv_order * acc1).rank())


def abelian_udr(pair: CharacterPair) -> UdrClass:
    """Ring class from d1: the group ring of a p-elementary quotient of
    rank d1 (0, 1 or 2)."""
    d1 = abelian_dims(pair).d1
    return (UdrClass.ZP, UdrClass.ZP_CP, UdrClass.ZP_CP_SQUARED)[d1]


def abelian_orbits(pair: CharacterPair) -> FusionOrbitSet:
    """Orbit partition of the plane under the diagonal character action,
    enumerated from coset minima without a sweep.

    With H = {(theta1(g), theta2(g))}, A and B its two projections and
    K = {b : (1, b) in H}, the least representatives, in lexicographic
    order, are (0, 0); (0, y) for each coset minimum y of B, orbit size
    |B|; then for each coset minimum x of A, first (x, 0), size |A|, and
    then (x, y) for each coset minimum y of K, size |H|.  The stabilizer
    depends only on which coordinates are nonzero, so it is computed once
    per class, and the set is returned as 2 + 2|A'| runs, A' the coset
    minima of A: the origin, the axis x = 0, and (x, 0) and (x, K-minima)
    for each x.  Raises LimitExceeded before enumerating when there are
    more than ORBIT_LIMIT orbits.
    """
    params = pair.params
    p = params.p
    elements = list(params.elements())
    values = [(pair.value1(g), pair.value2(g)) for g in elements]
    image = set(values)
    first = {a for a, _ in image}
    second = {b for _, b in image}
    kernel = {b for a, b in image if a == 1}
    orbit_count = 1 + (p - 1) // len(second) + (p - 1) // len(first) * (1 + (p - 1) // len(kernel))
    if orbit_count > ORBIT_LIMIT:
        raise LimitExceeded(f"action has {orbit_count} orbits, limit is {ORBIT_LIMIT}")

    def stabilizer(v) -> tuple:
        x, y = v
        return tuple(g for g, (a, b) in zip(elements, values) if a * x % p == x and b * y % p == y)

    def minima(subgroup) -> list[int]:
        cmin = orbits.coset_minima(p, subgroup)
        return [y for y in range(1, p) if cmin[y] == y]

    stab_0 = stabilizer((0, 0))
    stab_y, stab_x, stab_xy = stabilizer((0, 1)), stabilizer((1, 0)), stabilizer((1, 1))
    axis_y = (len(second), len(stab_y), stab_y)
    axis_x = (len(first), len(stab_x), stab_x)
    generic = (len(image), len(stab_xy), stab_xy)
    runs = [(0, (0,), 1, len(stab_0), stab_0), (0, minima(second), *axis_y)]
    # every x shares one list of kernel minima: no orbit is built here
    kernel_minima = minima(kernel)
    for x in minima(first):
        runs += ((x, (0,), *axis_x), (x, kernel_minima, *generic))
    return FusionOrbitSet(tuple(runs), p, orbits.diagonal_images(p, image))


def abelian_orbits_bruteforce(pair: CharacterPair) -> FusionOrbitSet:
    """Orbit partition of the plane by sweeping every point; the oracle
    for abelian_orbits.  It loads fusion, the sweep's module, when called."""
    from . import fusion

    params = pair.params
    _check_sweep_size(params)
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
            abelian_dims(pair),
            abelian_udr(pair),
        )
        catalog.append((pair, summary, orbit_set.partition()))
    for a_pos, (pair1, sum1, part1) in enumerate(catalog):
        for pair2, sum2, part2 in catalog[a_pos + 1 :]:
            if sum1 == sum2 and part1 != part2:
                return pair1, pair2
    return None
