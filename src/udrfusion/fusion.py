"""Orbits of a dihedral group acting on the plane N = F_p x F_p.

The action comes from a 2-dim irreducible theta_i0: rotations scale the
two coordinates by inverse powers of w^i0 and reflections swap them.
Every orbit other than {(0,0)} has size k or 2k with k = n/gcd(i0, n),
and the census of orbit sizes (the fusion numbers) only depends on p and
k.

The production route, fusion_orbits_closed_form, enumerates the
lexicographically least representative of every orbit directly from the
coset minima of U = <w^i0> in F_p^*, in time and memory linear in p plus
the number of orbits.  The brute-force sweep over all p^2 points,
_sweep_orbits, shares no code with it and is kept as its oracle; the
abelian brute force in abelian.py runs on the same sweep.  The sweep
reads nothing of the group but the set of matrices of its table, so two
tables with the same set, of any ranks and multiplicities, have the same
sweep up to the stabilizer elements: renamed_sweep turns the one into
the other, and verify sweeps each distinct set at a prime once.

Both routes return their orbits as runs (FusionOrbitSet), each run as
long as its neighbours allow.

Inside the orbit layer a point (x, y) is the integer code x*p + y, which
sorts as (x, y) does, so the least point of an orbit is still its min.
The images maps of every orbit set, and the point sets the sweep keeps,
take and hold codes; no tuple is built per point.  What a caller reads
stays tuple-valued: rows, representatives, orbit_of, partition() and
FusionOrbit.elements decode with divmod(code, p).  Other modules reach
the codes only through FusionOrbitSet and diagonal_images.

The abelian route shares the orbit sets, the census and the sweep, so
this module does not import dihedral at load; the three functions that
act through theta_i0 import it when called.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from functools import cached_property
from itertools import compress
from math import gcd
from typing import TYPE_CHECKING

from .ffield import LimitExceeded
from .records import FrozenRecord, Record

if TYPE_CHECKING:
    from .dihedral import DihedralParams, GroupElement

NPoint = tuple[int, int]

# an orbit set's action: maps the code x*p + y of a point to the codes of
# its images under every group element
OrbitMap = Callable[[int], Iterable[int]]
# the same action on (x, y) points, as an orbit reads it
PointMap = Callable[[NPoint], Iterable[NPoint]]

BRUTE_FORCE_POINT_LIMIT = 10**6

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
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "stabilizer_order", stabilizer_order)
        object.__setattr__(self, "stabilizer_gens", stabilizer_gens)
        object.__setattr__(self, "images", images)
        self.__post_init__()

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
    to the codes of its images.  point_sets, when given, holds the point
    set of each orbit in row order as a frozenset of codes (a sweep has
    them already); decoded, they become the elements of the orbits built.
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

    def iter_codes(self) -> Iterator[int]:
        """The representatives as codes x*p + y, in row order."""
        p = self.p
        for x, ys, *_ in self.runs:
            base = x * p
            for y in ys:
                yield base + y

    @cached_property
    def orbits(self) -> tuple:
        p, images = self.p, self.images

        def point_images(v: NPoint) -> list:
            x, y = v
            return [divmod(code, p) for code in images(x * p + y)]

        orbits = tuple(FusionOrbit(*row, point_images) for row in self.iter_rows())
        if self.point_sets is not None:
            for orb, codes in zip(orbits, self.point_sets):
                orb.__dict__["elements"] = frozenset(divmod(code, p) for code in codes)
        return orbits

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
        census = Counter()
        for _, ys, size, _, _ in self.runs:
            census[size] += len(ys)
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


def act(params: DihedralParams, i0: int, g: GroupElement, v: NPoint) -> NPoint:
    """Image of the point v under g through theta_i0."""
    from .dihedral import irr2_rep

    return irr2_rep(params, i0).matrix(g).apply(v)


def coset_minima(p: int, subgroup) -> list[int]:
    """cmin with cmin[y] the least element of the coset y * subgroup of
    F_p^* for 0 < y < p, and cmin[0] = 0.  Linear in p: every coset is
    written once, from its least element."""
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


def _sweep_orbits(p: int, table) -> FusionOrbitSet:
    """Orbit partition by sweeping every point of the plane.

    table lists (g, (a, b, c, d)) with g acting as the matrix
    [[a, b], [c, d]].  Points are the codes x*p + y; every orbit is built
    as a frozenset of codes and every point is marked in a bytearray of
    p^2 flags; callers guard the p^2 cost.  Points are swept in
    increasing code order, which is lexicographic order, jumping to the
    next unmarked point, so the first point met of each orbit is its
    least one and the orbits come out sorted.  Each distinct matrix is
    applied once per orbit; the stabilizer is the elements whose matrix
    fixes the point, in table order, and neighbouring orbits of one x
    with the same size and stabilizer make one run.
    """
    matrices = list(dict.fromkeys(mat for _, mat in table))

    def images(v: int) -> set:
        x, y = divmod(v, p)
        return {((a * x + b * y) % p) * p + (c * x + d * y) % p for a, b, c, d in matrices}

    # the positions of the matrices fixing a point -> its stabilizer
    stabilizers: dict[tuple, tuple] = {}
    seen = bytearray(p * p)
    runs = []
    point_sets = []
    row = -1
    pos = 0
    while pos >= 0:
        x, y = divmod(pos, p)
        if x != row:
            # a*x and c*x are fixed along a row
            row = x
            shifted = [(a * x, b, c * x, d) for a, b, c, d in matrices]
        image_list = [((ax + b * y) % p) * p + (cx + d * y) % p for ax, b, cx, d in shifted]
        orbit = frozenset(image_list)
        if min(orbit) != pos:
            raise ValueError(f"the table does not map {(x, y)} to the least point of its orbit")
        for v in orbit:
            seen[v] = 1
        if len(orbit) == len(image_list):
            # the images are distinct, so exactly one matrix fixes pos
            fixing = (image_list.index(pos),)
        else:
            fixing = tuple(compress(range(len(image_list)), [image == pos for image in image_list]))
        stab = stabilizers.get(fixing)
        if stab is None:
            fixed = {matrices[i] for i in fixing}
            stab = stabilizers[fixing] = tuple(g for g, mat in table if mat in fixed)
        if runs and runs[-1][:3] == (x, len(orbit), stab):
            runs[-1][3].append(y)
        else:
            runs.append((x, len(orbit), stab, [y]))
        point_sets.append(orbit)
        pos = seen.find(0, pos + 1)
    runs = tuple((x, tuple(ys), size, len(stab), stab) for x, size, stab, ys in runs)
    # the sweep already holds every point set: hand them to the orbits
    return FusionOrbitSet(runs, p, images, tuple(point_sets))


def _theta_table(params: DihedralParams, i0: int) -> list:
    """(g, (a, b, c, d)) for every group element g, in group_elements
    order, with g acting through theta_i0 as the matrix [[a, b], [c, d]]."""
    from .dihedral import group_elements, irr2_rep

    p = params.p
    rep = irr2_rep(params, i0)
    (r00, r01), (r10, r11) = rep.mat_r.data
    (s00, s01), (s10, s11) = rep.mat_s.data
    # g = s^flip r^rot acts as mat_s^flip mat_r^rot: a running product of
    # the generator matrices, rotations first as group_elements lists them
    powers = [(1, 0, 0, 1)]
    for _ in range(params.n - 1):
        a, b, c, d = powers[-1]
        powers.append(
            ((a * r00 + b * r10) % p, (a * r01 + b * r11) % p,
             (c * r00 + d * r10) % p, (c * r01 + d * r11) % p)
        )
    reflected = [
        ((s00 * a + s01 * c) % p, (s00 * b + s01 * d) % p,
         (s10 * a + s11 * c) % p, (s10 * b + s11 * d) % p)
        for a, b, c, d in powers
    ]
    return list(zip(group_elements(params.n), powers + reflected))


def fusion_orbits_bruteforce(params: DihedralParams, i0: int) -> FusionOrbitSet:
    """Orbit partition by sweeping every point of the plane.

    Serves as the oracle for the closed form; refuses planes larger
    than BRUTE_FORCE_POINT_LIMIT points.
    """
    p = params.p
    if p * p > BRUTE_FORCE_POINT_LIMIT:
        raise LimitExceeded(f"plane has {p * p} points, limit is {BRUTE_FORCE_POINT_LIMIT}")
    return _sweep_orbits(p, _theta_table(params, i0))


def renamed_sweep(brute: FusionOrbitSet, table: list, other: list) -> FusionOrbitSet:
    """The sweep of the action through other, from brute, the sweep of the
    action through table, when the two tables hold the same set of
    matrices, in any multiplicities; raises ValueError otherwise.

    The runs, sizes, point sets and images stay; each stabilizer becomes
    the elements of other whose matrix is one of its elements' matrices,
    in other's order, and its order their number.
    """
    if {mat for _, mat in table} != {mat for _, mat in other}:
        raise ValueError("the two tables do not hold the same matrices")
    matrix_of = dict(table)
    # by identity, as a sweep shares one tuple per stabilizer: hashing one
    # would hash each of its elements
    renamed: dict[int, tuple] = {}
    runs = []
    for x, ys, size, _, stab in brute.runs:
        new = renamed.get(id(stab))
        if new is None:
            fixing = {matrix_of[g] for g in stab}
            new = renamed[id(stab)] = tuple(g for g, mat in other if mat in fixing)
        runs.append((x, ys, size, len(new), new))
    return FusionOrbitSet(tuple(runs), brute.p, brute.images, brute.point_sets)


def fusion_orbits_closed_form(params: DihedralParams, i0: int) -> FusionOrbitSet:
    """Orbit partition enumerated from coset minima, without a sweep.

    With k = n/gcd(i0, n), U = <w^i0> of order k and cmin[y] the least
    element of yU, the orbit of (x, y) is {(ux, y/u), (uy, x/u) : u in U}.
    Its least representatives, in lexicographic order, are:
      * (0, 0), alone, with the full group as stabilizer;
      * (0, m) for each coset minimum m: the axis points of mU, size 2k,
        stabilizer <r^k>;
      * (m, y) for each coset minimum m and each y != 0 with
        cmin[y] >= m.  When cmin[y] = m the ratio y/m = w^(i0 j0) lies in
        U and the orbit has size k with stabilizer <r^k, s r^j0>;
        otherwise it has size 2k with stabilizer <r^k>.
    Raises LimitExceeded before enumerating when the census counts more
    than ORBIT_LIMIT orbits.
    """
    from .dihedral import GroupElement

    n, p, w = params.n, params.p, params.omega
    if i0 not in params.irr2_indices():
        raise ValueError(f"index {i0} is not in [1, {n}/2)")
    g0 = gcd(i0, n)
    k = n // g0
    orbit_count = sum(FusionNumbers.dihedral_closed_form(p, k).counts.values())
    if orbit_count > ORBIT_LIMIT:
        raise LimitExceeded(f"action has {orbit_count} orbits, limit is {ORBIT_LIMIT}")
    wi = pow(w, i0, p)
    unit_powers = [pow(wi, t, p) for t in range(k)]
    exponent_of = {u: t for t, u in enumerate(unit_powers)}
    inverse_powers = [pow(u, -1, p) for u in unit_powers]
    cmin = coset_minima(p, unit_powers)
    minima = [m for m in range(1, p) if cmin[m] == m]

    units = list(zip(unit_powers, inverse_powers))

    def images(v: int) -> list:
        x, y = divmod(v, p)
        return [(u * x % p) * p + ui * y % p for u, ui in units] + [
            (u * y % p) * p + ui * x % p for u, ui in units
        ]

    r_k = GroupElement.rotation(n, k)
    big_gens = (r_k,)
    small_gens = [(r_k, GroupElement.reflection(n, j0)) for j0 in range(k)]
    runs = [
        (0, (0,), 1, 2 * n, (GroupElement.rotation(n), GroupElement.reflection(n))),
        (0, minima, 2 * k, g0, big_gens),
    ]
    # each size-k orbit is a run of its own (its stabilizer names its j0);
    # the size-2k orbits between two of them make one run
    for m in minima:
        m_inv = pow(m, -1, p)
        stretch = []
        # cmin[y] <= y, so no y below m has cmin[y] >= m
        for y in range(m, p):
            c = cmin[y]
            if c == m:
                if stretch:
                    runs.append((m, stretch, 2 * k, g0, big_gens))
                    stretch = []
                runs.append((m, (y,), k, 2 * g0, small_gens[exponent_of[y * m_inv % p]]))
            elif c > m:
                stretch.append(y)
        if stretch:
            runs.append((m, stretch, 2 * k, g0, big_gens))
    return FusionOrbitSet(tuple(runs), p, images)


def fusion_numbers(orbit_set: FusionOrbitSet) -> FusionNumbers:
    return FusionNumbers.from_orbits(orbit_set)


def same_fusion(params: DihedralParams, i: int, i0: int) -> bool:
    """Two actions give the same orbit structure iff gcd(i, n) = gcd(i0, n)."""
    n = params.n
    for idx in (i, i0):
        if idx not in params.irr2_indices():
            raise ValueError(f"index {idx} is not in [1, {n}/2)")
    return gcd(i, n) == gcd(i0, n)
