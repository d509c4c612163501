"""Orbits of a dihedral group acting on the plane N = F_p x F_p.

The action comes from a 2-dim irreducible theta_i0: rotations scale the
two coordinates by inverse powers of w^i0 and reflections swap them.
Every orbit other than {(0,0)} has size k or 2k with k = n/gcd(i0, n),
and the census of orbit sizes (the fusion numbers) only depends on p and
k.

The production route, fusion_orbits_closed_form, enumerates the
lexicographically least representative of every orbit directly from the
coset minima of U = <w^i0> in F_p^*, in time and memory linear in p plus
the number of orbits.  Its oracle, the brute-force sweep over all p^2
points, shares no code with it; only this module builds theta_i0 tables,
sweeps and reads.  A sweep (_sweep_orbits) reads nothing of a group but
the set of its matrices, and _read_sweep names each run's stabilizer from
a group's own elements and matrices, so orbit_sets_bruteforce sweeps each
set of matrices at a prime once for all the tables that hold it.  Every
brute-force orbit set, dihedral or abelian, comes from it.

The closed form's geometry, the coset minima of U and the orbit map,
depends on p and U alone: _closed_form_geometry memoizes it on
(p, the set U), so the actions of one (p, U) share one images object,
and the actions that share a sweep share its SweepPointSets.  prop48
(deformation.check_orbit_closed_form) checks every action's rows but
compares the image sets once per such pair of objects, keeping the
result on the point sets with the representatives and sizes it read; an
action with the same pair, representatives and sizes would compute that
very result.
The memo dies with the sweep: no module-level cache holds a sweep.

Both routes return their orbits as runs (FusionOrbitSet), each run as
long as its neighbours allow.  The orbit-set records live in orbits,
which the abelian route imports without this module; the classes are
bound here too, as fusion.FusionOrbitSet and fusion.FusionOrbit.  What
the abelian route does not read is defined here: the sweep's point sets
(SweepPointSets) and the census of orbit sizes (FusionNumbers,
fusion_numbers), with its closed form for a dihedral action.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import chain, groupby
from math import gcd
from operator import itemgetter

from . import dihedral, orbits
from .dihedral import DihedralParams, GroupElement
from .ffield import LimitExceeded
from .orbits import ORBIT_LIMIT, FusionOrbit, FusionOrbitSet, NPoint
from .records import Record

BRUTE_FORCE_POINT_LIMIT = 10**6


class SweepPointSets(tuple):
    """A sweep's point sets, one frozenset of codes per orbit in row
    order, with compared, the memo of deformation.check_orbit_closed_form
    on them: it maps an orbit map to the (x, ys, size) of each run it was
    applied to and whether it took each representative to the point set
    of its row, of the row's size.  Every orbit set read from the sweep
    holds this one object, so the memo lives and dies with the sweep, and
    no module-level cache holds one."""

    def __init__(self, point_sets) -> None:
        self.compared = {}


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


def fusion_numbers(orbit_set: FusionOrbitSet) -> FusionNumbers:
    return FusionNumbers.from_orbits(orbit_set)


def act(params: DihedralParams, i0: int, g: GroupElement, v: NPoint) -> NPoint:
    """Image of the point v under g through theta_i0."""
    x, y = v
    return tuple((a * x + b * y) % params.p for a, b in dihedral.irr2_rep(params, i0).matrix(g))


def _sweep_orbits(p: int, matrices) -> tuple:
    """Orbit partition by sweeping every point of the plane, refused past
    BRUTE_FORCE_POINT_LIMIT points, as (swept, runs, images, point_sets).

    swept holds the distinct matrices [[a, b], [c, d]] of matrices, given
    as (a, b, c, d), in first-seen order; each is applied once per orbit.
    Points are the codes x*p + y; every orbit is built as a frozenset of
    codes, kept in a SweepPointSets, and every point is marked in a
    bytearray of p^2 flags.  Points are swept in increasing code order,
    which is lexicographic order, jumping to the next unmarked point,
    so the first point met of each orbit is its least one and the orbits
    come out sorted.  A run (x, ys, size, fixing) holds the orbits of
    (x, y), y in ys, fixed by the matrices at the positions fixing of
    swept: neighbouring orbits of one x with the same size and fixing
    make one run.
    """
    if p * p > BRUTE_FORCE_POINT_LIMIT:
        raise LimitExceeded(f"plane has {p * p} points, limit is {BRUTE_FORCE_POINT_LIMIT}")
    swept = tuple(dict.fromkeys(matrices))

    def images(v: int) -> set:
        x, y = divmod(v, p)
        return {((a * x + b * y) % p) * p + (c * x + d * y) % p for a, b, c, d in swept}

    seen = bytearray(p * p)
    runs = []
    point_sets = []
    row = -1
    pos = 0
    key = None
    while pos >= 0:
        x, y = divmod(pos, p)
        if x != row:
            # a*x and c*x are fixed along a row
            row = x
            shifted = [(a * x, b, c * x, d) for a, b, c, d in swept]
        image_list = [((ax + b * y) % p) * p + (cx + d * y) % p for ax, b, cx, d in shifted]
        if min(image_list) != pos:
            raise ValueError(f"the table does not map {(x, y)} to the least point of its orbit")
        # marked from the list, which is quicker to walk than the set
        for v in image_list:
            seen[v] = 1
        orbit = frozenset(image_list)
        size = len(orbit)
        # the positions of pos in image_list, found by index; when the
        # images are distinct, pos is at exactly one
        at = image_list.index(pos)
        fixing = (at,)
        if size < len(image_list):
            for _ in range(image_list.count(pos) - 1):
                at = image_list.index(pos, at + 1)
                fixing += (at,)
        if (x, size, fixing) == key:
            ys.append(y)
        else:
            key, ys = (x, size, fixing), [y]
            runs.append((key, ys))
        point_sets.append(orbit)
        pos = seen.find(0, pos + 1)
    runs = tuple((x, tuple(ys), size, fixing) for (x, size, fixing), ys in runs)
    return swept, runs, images, SweepPointSets(point_sets)


def _read_sweep(p: int, sweep: tuple, elements, matrices) -> FusionOrbitSet:
    """The orbit set of the group whose element elements[t] acts as
    matrices[t], read from sweep, a _sweep_orbits of the same set of
    matrices in any multiplicities; raises ValueError when the sets
    differ.  Each run's stabilizer is the elements whose matrix fixes its
    representatives, in table order, and its order their number; the
    sweep's point sets are kept for check_orbit_closed_form, and the
    orbits read their elements from the sweep's images."""
    swept, runs, images, point_sets = sweep
    if set(swept) != set(matrices):
        raise ValueError("the table does not hold the matrices the sweep applied")
    position = {mat: i for i, mat in enumerate(swept)}
    # owners[i]: the table positions of the elements acting as swept[i]
    owners = [[] for _ in swept]
    for t, mat in enumerate(matrices):
        owners[position[mat]].append(t)
    stabilizers: dict[tuple, tuple] = {}
    read = []
    for x, ys, size, fixing in runs:
        stab = stabilizers.get(fixing)
        if stab is None:
            table_order = sorted(chain.from_iterable(map(owners.__getitem__, fixing)))
            stab = stabilizers[fixing] = tuple(map(elements.__getitem__, table_order))
        read.append((x, ys, size, len(stab), stab))
    return FusionOrbitSet(tuple(read), p, images, point_sets)


def _theta_table(params: DihedralParams, i0: int) -> list:
    """(a, b, c, d) for every group element g, in group_elements order,
    with g acting through theta_i0 as the matrix [[a, b], [c, d]]."""
    p = params.p
    rep = dihedral.irr2_rep(params, i0)
    (r00, r01), (r10, r11) = rep.mat_r
    (s00, s01), (s10, s11) = rep.mat_s
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
    return powers + reflected


def orbit_sets_bruteforce(tables) -> Iterator[tuple]:
    """(key, orbit set) for each (key, p, elements, matrices) of tables:
    the orbit set at the prime p of the group whose element elements[t]
    acts as matrices[t].  Neighbouring tables of one prime that hold one
    set of matrices, in any order and multiplicities, share one sweep.
    Only one prime's tables are read in at a time, and no sweep is alive
    here while the next one is made."""
    for p, of_prime in groupby(tables, itemgetter(1)):
        groups: dict[frozenset, list] = {}
        for key, _, elements, matrices in of_prime:
            groups.setdefault(frozenset(matrices), []).append((key, elements, matrices))
        for group in groups.values():
            sweep = _sweep_orbits(p, group[0][2])
            for key, elements, matrices in group:
                yield key, _read_sweep(p, sweep, elements, matrices)
            del sweep


def fusion_orbit_sets_bruteforce(instances) -> Iterator[tuple]:
    """((params, i0), orbit set) for each (params, i0) of instances, as
    fusion_orbits_bruteforce gives it, from orbit_sets_bruteforce on the
    theta_i0 tables, built prime by prime.  Each rank lists its group
    elements once."""
    instances = sorted(instances, key=lambda instance: instance[0].p)
    elements = {n: dihedral.group_elements(n) for n in {params.n for params, _ in instances}}
    return orbit_sets_bruteforce(
        ((params, i0), params.p, elements[params.n], _theta_table(params, i0))
        for params, i0 in instances
    )


def fusion_orbits_bruteforce(params: DihedralParams, i0: int) -> FusionOrbitSet:
    """Orbit partition by sweeping every point of the plane.

    Serves as the oracle for the closed form; the sweep refuses planes
    larger than BRUTE_FORCE_POINT_LIMIT points.
    """
    ((_, orbit_set),) = fusion_orbit_sets_bruteforce([(params, i0)])
    return orbit_set


# Bound of the closed form's geometry cache, above the 26 (p, U) of a
# default `verify`, so that run never evicts; kept small, since an entry
# holds a list of p coset minima.
GEOMETRY_CACHE_SIZE = 32
# Bound of the closed form's stabilizer cache, above the 17 (n, k) of a
# default `verify`; an entry holds k + 3 group elements.
STABILIZER_CACHE_SIZE = 64


@lru_cache(maxsize=STABILIZER_CACHE_SIZE)
def _closed_form_stabilizers(n: int, k: int) -> tuple:
    """(whole, big, small): the generators of the stabilizers that the
    closed form names for k = n/gcd(i0, n), those of the whole group
    (r, s), of <r^k> (r^k,) and, for each j0 < k, of <r^k, s r^j0>.
    Nothing here reads p or i0 beyond k, so the actions of one (n, k)
    share the entry, at every prime."""
    r_k = GroupElement.rotation(n, k)
    small = tuple((r_k, GroupElement.reflection(n, j0)) for j0 in range(k))
    return (GroupElement.rotation(n), GroupElement.reflection(n)), (r_k,), small


@lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _closed_form_geometry(p: int, units: frozenset) -> tuple:
    """(cmin, minima, images) of the closed form at the prime p for the
    subgroup units = U of F_p^*: the coset minima, the least element of
    each coset in increasing order, and the orbit map on codes.  Nothing
    here reads the group or i0, so the actions of one (p, U) share the
    entry and its one images object, and a wrong U is a key of its own."""
    cmin = orbits.coset_minima(p, units)
    minima = tuple(m for m in range(1, p) if cmin[m] == m)
    pairs = [(u, pow(u, -1, p)) for u in sorted(units)]

    def images(v: int) -> list:
        # (x, y) and its transpose (y, x), each under (s, t) -> (u s, t/u)
        x, y = divmod(v, p)
        return [(u * s % p) * p + ui * t % p for s, t in ((x, y), (y, x)) for u, ui in pairs]

    return cmin, minima, images


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
    The coset minima and the orbit map depend on p and U alone and come
    from _closed_form_geometry, the stabilizer generators on n and k
    alone and come from _closed_form_stabilizers; the exponents j0 and
    the runs are built per action.  Raises LimitExceeded before
    enumerating when the census counts more than ORBIT_LIMIT orbits.
    """
    n, p, w = params.n, params.p, params.omega
    dihedral.irr2_position(n, i0)
    g0 = gcd(i0, n)
    k = n // g0
    orbit_count = sum(FusionNumbers.dihedral_closed_form(p, k).counts.values())
    if orbit_count > ORBIT_LIMIT:
        raise LimitExceeded(f"action has {orbit_count} orbits, limit is {ORBIT_LIMIT}")
    wi = pow(w, i0, p)
    unit_powers = [pow(wi, t, p) for t in range(k)]
    exponent_of = {u: t for t, u in enumerate(unit_powers)}
    cmin, minima, images = _closed_form_geometry(p, frozenset(unit_powers))
    whole_gens, big_gens, small_gens = _closed_form_stabilizers(n, k)

    runs = [(0, (0,), 1, 2 * n, whole_gens), (0, minima, 2 * k, g0, big_gens)]
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
                    runs.append((m, tuple(stretch), 2 * k, g0, big_gens))
                    stretch = []
                runs.append((m, (y,), k, 2 * g0, small_gens[exponent_of[y * m_inv % p]]))
            elif c > m:
                stretch.append(y)
        if stretch:
            runs.append((m, tuple(stretch), 2 * k, g0, big_gens))
    return FusionOrbitSet(tuple(runs), p, images)


def same_fusion(params: DihedralParams, i: int, i0: int) -> bool:
    """Two actions give the same orbit structure iff gcd(i, n) = gcd(i0, n)."""
    n = params.n
    for idx in (i, i0):
        dihedral.irr2_position(n, idx)
    return gcd(i, n) == gcd(i0, n)
