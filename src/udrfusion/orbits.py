"""The orbit sets that every orbit route returns, dihedral or abelian.

A FusionOrbitSet is a full orbit partition of the plane F_p x F_p,
stored as runs of orbits that share one x, one size and one stabilizer;
FusionOrbit is one orbit of it and FusionNumbers its census of orbit
sizes.  coset_minima and diagonal_images are the pieces that the direct
routes (fusion_orbits_closed_form, abelian.abelian_orbits) build their
sets from.  This module builds no group table and sweeps nothing: the
dihedral routes and the brute-force sweep live in fusion, the abelian
ones in abelian, so the abelian route loads neither fusion nor dihedral.

Inside the orbit layer a point (x, y) is the integer code x*p + y, which
sorts as (x, y) does, so the least point of an orbit is still its min.
The images maps of every orbit set, and the point sets a sweep keeps,
take and hold codes; no tuple is built per point.  What a caller reads
stays tuple-valued: rows, representatives, orbit_of, partition() and
FusionOrbit.elements decode with divmod(code, p).  Other modules reach
the codes only through FusionOrbitSet and diagonal_images.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from functools import cached_property

from .records import FrozenRecord, LimitExceeded, Record

NPoint = tuple[int, int]

# an orbit set's action: maps the code x*p + y of a point to the codes of
# its images under every group element
OrbitMap = Callable[[int], Iterable[int]]
# the same action on (x, y) points, as an orbit reads it
PointMap = Callable[[NPoint], Iterable[NPoint]]

# the direct routes refuse to emit more orbits than this
ORBIT_LIMIT = 10**6


class FusionOrbit(FrozenRecord):
    """One orbit: lexicographically least representative, size, and the
    stabilizer of the representative (generators plus order).  The full
    point set, elements, is the image set of the representative under
    images, computed on first access; images is left out of repr and ==."""

    _fields = ("representative", "size", "stabilizer_order", "stabilizer_gens")

    def __init__(
        self,
        representative: NPoint,
        size: int,
        stabilizer_order: int,
        stabilizer_gens: tuple,
        images: PointMap,
    ) -> None:
        object.__setattr__(self, "images", images)
        self._init(representative, size, stabilizer_order, stabilizer_gens)

    def __post_init__(self) -> None:
        if self.size < 1 or self.stabilizer_order < 1:
            raise ValueError("orbit and stabilizer sizes must be positive")

    @cached_property
    def elements(self) -> frozenset:
        points = frozenset(self.images(self.representative))
        if self.size != len(points):
            raise ValueError("orbit size does not match element count")
        return points


class FusionOrbitSet(FrozenRecord):
    """A full orbit partition of F_p x F_p, sorted by representative.

    runs is the set's one stored representation: a tuple of runs
    (x, ys, size, stabilizer_order, stabilizer_gens), each standing for
    the orbits with representatives (x, y), y in the increasing, nonempty
    sequence ys, that share one size and one stabilizer.  orbit_count,
    representatives and size_census() read the runs without expanding
    them.  rows, one (representative, size, stabilizer_order,
    stabilizer_gens) tuple per orbit, is their expansion, built on first
    access, and so are the FusionOrbit objects of orbits, each orbit's
    point set on its own first access.  images is the action shared by
    every orbit of the set, on codes x*p + y: it maps the code of a point
    to the codes of its images, and every orbit's elements are read from
    it.  point_sets, when given, holds the point set of each orbit in row
    order as a frozenset of codes, as a sweep keeps them; only
    deformation.check_orbit_closed_form reads them.
    repr, == and hash read rows and p; images and point_sets are left out.
    """

    _fields = ("rows", "p")

    def __init__(
        self, runs: tuple, p: int, images: OrbitMap, point_sets: tuple | None = None
    ) -> None:
        for run in runs:
            if len(run) != 5:
                raise ValueError(
                    "a run is (x, ys, size, stabilizer_order, stabilizer_gens), "
                    f"got {len(run)} fields"
                )
            if not run[1]:
                raise ValueError("every run needs at least one representative")
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "point_sets", point_sets)

    @classmethod
    def from_rows(
        cls, rows, p: int, images: OrbitMap, point_sets: tuple | None = None
    ) -> "FusionOrbitSet":
        """The orbit set of rows, one run per row."""
        return cls(tuple((x, (y,), *rest) for (x, y), *rest in rows), p, images, point_sets)

    def iter_rows(self) -> Iterator[tuple]:
        """The rows, expanded run by run and not kept."""
        for x, ys, size, order, gens in self.runs:
            for y in ys:
                yield (x, y), size, order, gens

    @cached_property
    def rows(self) -> tuple:
        return tuple(self.iter_rows())

    @cached_property
    def orbits(self) -> tuple:
        p, images = self.p, self.images

        def point_images(v: NPoint) -> list:
            x, y = v
            return [divmod(code, p) for code in images(x * p + y)]

        return tuple(FusionOrbit(*row, point_images) for row in self.iter_rows())

    @property
    def orbit_count(self) -> int:
        return sum(len(run[1]) for run in self.runs)

    @property
    def representatives(self) -> list:
        return [(x, y) for x, ys, *_ in self.runs for y in ys]

    @cached_property
    def _by_representative(self) -> dict:
        return {orb.representative: orb for orb in self.orbits}

    def orbit_of(self, v: NPoint) -> FusionOrbit:
        """The orbit of v, found by its least image."""
        x, y = v
        p = self.p
        if not (0 <= x < p and 0 <= y < p):
            raise KeyError(f"{v} is not a point of the plane being partitioned")
        return self._by_representative[divmod(min(self.images(x * p + y)), p)]

    def partition(self) -> frozenset:
        return frozenset(orb.elements for orb in self.orbits)

    def size_census(self) -> dict[int, int]:
        # a plain dict: Counter's += costs twice as much per run
        census = {}
        for _, ys, size, _, _ in self.runs:
            census[size] = census.get(size, 0) + len(ys)
        return dict(sorted(census.items()))


class FusionNumbers(Record):
    """Census size -> number of orbits of that size."""

    __slots__ = _fields = ("counts",)

    def __init__(self, counts: dict) -> None:
        self.counts = counts

    @classmethod
    def from_orbits(cls, orbit_set: FusionOrbitSet) -> "FusionNumbers":
        return cls(orbit_set.size_census())

    @classmethod
    def dihedral_closed_form(cls, p: int, k: int) -> "FusionNumbers":
        """Expected census for a dihedral action with k = n/gcd(i0, n):
        one fixed point, p - 1 orbits of size k, and (p-1)(p+1-k)/(2k)
        orbits of size 2k."""
        num = (p - 1) * (p + 1 - k)
        if num % (2 * k) != 0:
            raise ValueError(f"census formula not integral for p={p}, k={k}")
        counts = {1: 1, k: p - 1}
        big = num // (2 * k)
        if big:
            counts[2 * k] = counts.get(2 * k, 0) + big
        return cls(dict(sorted(counts.items())))

    def total_points(self) -> int:
        return sum(size * cnt for size, cnt in self.counts.items())


def coset_minima(p: int, subgroup) -> list[int]:
    """cmin with cmin[y] the least element of the coset y * subgroup of
    F_p^* for 0 < y < p, and cmin[0] = 0.  Linear in p: every coset is
    written once, from its least element.  Raises LimitExceeded for p
    above ORBIT_LIMIT, which each caller's orbit count refuses first."""
    if p > ORBIT_LIMIT:
        raise LimitExceeded(f"coset table of {p} entries, limit is {ORBIT_LIMIT}")
    cmin = [0] * p
    for y in range(1, p):
        if not cmin[y]:
            for u in subgroup:
                cmin[y * u % p] = y
    return cmin


def diagonal_images(p: int, scalars) -> OrbitMap:
    """The orbit map, on codes, of a group acting on the plane through the
    diagonal matrices diag(a, b) for (a, b) in scalars."""

    def images(v: int) -> set:
        x, y = divmod(v, p)
        return {(a * x % p) * p + b * y % p for a, b in scalars}

    return images


def fusion_numbers(orbit_set: FusionOrbitSet) -> FusionNumbers:
    return FusionNumbers.from_orbits(orbit_set)
