"""Universal deformation ring classes and the detection checks built on them.

For a rank-2 dihedral action in odd coprime characteristic the ring is
determined symbolically by the cohomology dimensions: d2 = 2 gives the
t-torsion quotient Zp[[t]]/(t^2, pt), anything else gives Zp.  The
checks below mechanically confirm, instance by instance, that kernel
sets of the cohomologically distinguished representations detect the
orbit structure of the plane, and delimit exactly when the whole table
of ring classes determines that orbit structure.
"""

from __future__ import annotations

from math import gcd
from operator import eq, itemgetter, mul

from . import cohomology, dihedral, ffield, fusion
from .dihedral import DihedralParams
from .fusion import FusionNumbers, FusionOrbitSet
from .records import Record, UdrClass, VerificationReport


class UdrSignature(Record):
    """Ring class per 2-dim irreducible index, for one fixed action."""

    __slots__ = _fields = ("per_rep",)

    def __init__(self, per_rep: dict) -> None:
        self.per_rep = per_rep

    def digest(self) -> str:
        """One letter per index in increasing order: T for the t-torsion
        class, Z for Zp.  Comma-free for CSV cells."""
        return "".join(
            "T" if self.per_rep[j] is UdrClass.ZP_T_TORSION else "Z"
            for j in sorted(self.per_rep)
        )


def _class_of(d2: int) -> UdrClass:
    return UdrClass.ZP_T_TORSION if d2 == 2 else UdrClass.ZP


def udr_class(params: DihedralParams, i0: int, j: int) -> UdrClass:
    return _class_of(cohomology.dims(params, i0, j).d2)


def udr_signature(params: DihedralParams, i0: int) -> UdrSignature:
    """The ring class of every index j, read off the row of dims."""
    row = cohomology.dims_row(params, i0)
    return UdrSignature({j: _class_of(d2) for j, (_, d2) in zip(params.irr2_indices(), row)})


def _kernel_subgroup(params: DihedralParams, i: int) -> frozenset:
    return frozenset(dihedral.kernel_invariant(params, i)[1])


def _subgroup_words(subgroup: frozenset) -> tuple[str, ...]:
    return tuple(g.word() for g in sorted(subgroup, key=lambda g: g.sort_key()))


def maximal_kernel_set(params: DihedralParams, i0: int) -> frozenset:
    """Kernels of the representations with maximal d2, as a set of subgroups."""
    return frozenset(
        _kernel_subgroup(params, j) for j in cohomology.cohomologically_maximal_set(params, i0)
    )


def nontrivial_udr_kernel_set(params: DihedralParams, i0: int) -> frozenset:
    """Kernels of the representations whose ring class is not Zp."""
    return frozenset(
        _kernel_subgroup(params, j)
        for j in params.irr2_indices()
        if udr_class(params, i0, j) is not UdrClass.ZP
    )


def check_kernel_sets_detect_fusion(params: DihedralParams, i0: int) -> VerificationReport:
    """Two claims for an action index i0 in the doubling-map image.

    (a) The kernel set of the d2-maximal representations equals the
        kernel set of the non-Zp representations.
    (b) Across all action indices in the doubling-map image, equal
        kernel sets correspond exactly to equal orbit structure.
    Kernels are compared as explicit element-list subgroups.
    """
    name = "kernel_sets_detect_fusion"
    if i0 not in dihedral.omega_set(params):
        raise ValueError(f"index {i0} is not a doubling-map value for n = {params.n}")
    ks0 = maximal_kernel_set(params, i0)
    if ks0 != nontrivial_udr_kernel_set(params, i0):
        witness = (
            "maximal_vs_nontrivial",
            sorted(map(_subgroup_words, ks0)),
            sorted(map(_subgroup_words, nontrivial_udr_kernel_set(params, i0))),
        )
        return VerificationReport(name, (params.n, params.p, i0), False, witness)
    for i1 in sorted(dihedral.omega_set(params)):
        same_kernels = maximal_kernel_set(params, i1) == ks0
        if same_kernels != fusion.same_fusion(params, i1, i0):
            return VerificationReport(
                name,
                (params.n, params.p, i0),
                False,
                ("mismatch_at", i1, same_kernels, fusion.same_fusion(params, i1, i0)),
            )
    return VerificationReport(name, (params.n, params.p, i0), True)


def check_maximality_matches_doubling_fibers(params: DihedralParams) -> VerificationReport:
    """Two claims for a fixed (n, p).

    (a) For every action index in the doubling-map image, the d2-maximal
        set equals the doubling-map fiber over that index.
    (b) Two doubling-image actions have equal orbit structure iff their
        fibers have equal kernel sets.
    For odd n the image is every index and each fiber is one index, so
    (b) compares the kernels of the two fiber elements.
    """
    name = "maximality_matches_doubling_fibers"
    n = params.n
    om = sorted(dihedral.omega_set(params))
    for phi in om:
        fiber = dihedral.t_preimage(params, phi)
        maximal = cohomology.cohomologically_maximal_set(params, phi)
        if maximal != fiber:
            return VerificationReport(
                name, (n, params.p), False, ("fiber_mismatch", phi, sorted(maximal), sorted(fiber))
            )
    case = "odd_case" if n % 2 else "even_case"
    for a_pos, phi1 in enumerate(om):
        for phi2 in om[a_pos + 1 :]:
            fibers = dihedral.t_preimage(params, phi1), dihedral.t_preimage(params, phi2)
            ks1, ks2 = (frozenset(_kernel_subgroup(params, i) for i in f) for f in fibers)
            if (ks1 == ks2) != fusion.same_fusion(params, phi1, phi2):
                return VerificationReport(name, (n, params.p), False, (case, phi1, phi2))
    return VerificationReport(name, (n, params.p), True)


def check_gcd_pair_identity(n: int, i0: int) -> VerificationReport:
    """Arithmetic identity behind fiber kernel sets for even n.

    With k = n/2, d0 = i0/2 and a0 = gcd(d0, k):
    {gcd(d0, n), gcd(k - d0, n)} = {gcd(a0, n), gcd(k - a0, n)},
    gcd(i0, n) = 2 a0, gcd(a0, n) = a0, and gcd(k - a0, n) is a0 or 2 a0.
    """
    name = "gcd_pair_identity"
    if n % 2 != 0 or n < 4:
        raise ValueError("needs even n >= 4")
    if i0 % 2 != 0 or not 1 <= i0 < n / 2:
        raise ValueError(f"index {i0} is not an even index in [1, {n}/2)")
    k = n // 2
    d0 = i0 // 2
    a0 = gcd(d0, k)
    left = {gcd(d0, n), gcd(k - d0, n)}
    right = {gcd(a0, n), gcd(k - a0, n)}
    checks = (
        left == right,
        gcd(i0, n) == 2 * a0,
        gcd(a0, n) == a0,
        gcd(k - a0, n) in (a0, 2 * a0),
    )
    witness = None if all(checks) else ("sets", sorted(left), sorted(right), "a0", a0)
    return VerificationReport(name, (n, i0), all(checks), witness)


def check_center_constraint(params: DihedralParams, i0: int) -> VerificationReport:
    """A non-Zp ring class anywhere forces the center to act trivially."""
    name = "center_constraint"
    nontrivial = [
        j for j in params.irr2_indices() if udr_class(params, i0, j) is not UdrClass.ZP
    ]
    ok = not nontrivial or dihedral.center_acts_trivially(params, i0)
    witness = None if ok else ("nontrivial_at", nontrivial)
    return VerificationReport(name, (params.n, params.p, i0), ok, witness)


def _image_sets_match(images, p: int, runs, point_sets) -> bool:
    """Whether point_sets holds one point set per row of runs, with the
    row's size as its length, and the orbit map images takes the code of
    each row's representative to that point set."""
    codes = [x * p + y for x, ys, _, _, _ in runs for y in ys]
    sizes = [size for _, ys, size, _, _ in runs for _ in ys]
    return list(map(len, point_sets)) == sizes and all(
        map(eq, map(frozenset, map(images, codes)), point_sets)
    )


# the (x, ys, size) of a run: the key of an image comparison
_RUN_POINTS = itemgetter(0, 1, 2)


def check_orbit_closed_form(
    params: DihedralParams, i0: int, brute: FusionOrbitSet
) -> VerificationReport:
    """The closed-form orbit rows equal the rows of the brute-force sweep
    brute of the same action, row by row: the same number of rows, and in
    each the same representative, size and stabilizer order, with
    size * stabilizer order = 2n, the sweep's point set of that row of
    that size and the closed form's image set of the representative
    equal to it.  Since the sweep's representatives are least in their
    orbits, so are the closed form's.  The point sets are compared as the
    orbit sets hold them, as sets of point codes.  brute must be read
    from a sweep, holding its fusion.SweepPointSets; else ValueError.

    The rows are compared from the runs: column by column (x, ys, size,
    stabilizer order, by C-level passes) where both sets group them into
    the same runs, and else row by row from iter_rows, so a closed form
    that groups the same rows into other runs passes.

    The rows are checked per action.  The point sets are compared once
    per pair of orbit map and point sets: the actions of one (p, U) share
    the closed form's images object, those of one sweep its
    SweepPointSets, and the point sets keep each comparison with the
    (x, ys, size) of each run that it read.  An action whose pair and
    runs are those of a comparison made reuses its result, which is the
    one its own comparison would compute, whatever the closed form does."""
    sweep_sets = brute.point_sets
    if not isinstance(sweep_sets, fusion.SweepPointSets):
        raise ValueError("brute must be read from a sweep, with its SweepPointSets")
    closed = fusion.fusion_orbits_closed_form(params, i0)
    p, runs = brute.p, brute.runs
    # the runs as columns x, ys, size, stabilizer order and generators
    columns = list(zip(*runs))
    sizes, orders = columns[2:4] or ((), ())
    ok = (
        columns[:4] == list(zip(*closed.runs))[:4]
        or [row[:3] for row in brute.iter_rows()] == [row[:3] for row in closed.iter_rows()]
    ) and set(map(mul, sizes, orders)) <= {2 * params.n}
    if ok:
        key, images = tuple(map(_RUN_POINTS, runs)), closed.images
        # keyed by identity, an equal but distinct map being compared anew;
        # the entry holds its map, so no other object takes its id
        made = sweep_sets.compared.get(id(images))
        if made is None or made[1] != key:
            made = images, key, _image_sets_match(images, p, runs, sweep_sets)
            sweep_sets.compared[id(images)] = made
        ok = made[2]
    return VerificationReport(
        "orbit_closed_form_matches_bruteforce", (params.n, params.p, i0), ok
    )


def check_orbit_census(
    params: DihedralParams, i0: int, brute: FusionOrbitSet
) -> VerificationReport:
    """The orbit-size census of the brute-force partition brute equals
    the closed-form fusion numbers for k = n/gcd(i0, n), and its orbits
    cover all p^2 points."""
    n, p = params.n, params.p
    census = fusion.fusion_numbers(brute)
    expected = FusionNumbers.dihedral_closed_form(p, n // gcd(i0, n))
    ok = census.counts == expected.counts and census.total_points() == p * p
    return VerificationReport("orbit_census_closed_form", (n, p, i0), ok)


def fusion_determinability(params: DihedralParams) -> VerificationReport:
    """Can the orbit structure be read off the table of ring signatures?

    passed is the determinability flag: True when equal signatures imply
    equal orbit structure across all action indices.  When False the
    witness is the first pair (in index order) with equal signatures but
    different orbit structure.
    """
    return signature_table_determinability(
        params, {i: udr_signature(params, i) for i in params.irr2_indices()}
    )


def signature_table_determinability(
    params: DihedralParams, sigs: dict[int, UdrSignature]
) -> VerificationReport:
    """fusion_determinability read off a table sigs of the signature of
    every action index, for callers that need the table as well."""
    idxs = sorted(sigs)
    for pos, i1 in enumerate(idxs):
        for i2 in idxs[pos + 1 :]:
            if sigs[i1] == sigs[i2] and not fusion.same_fusion(params, i1, i2):
                return VerificationReport(
                    "fusion_determinability", (params.n, params.p), False, (i1, i2)
                )
    return VerificationReport("fusion_determinability", (params.n, params.p), True)


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and m & (m - 1) == 0


def determinability_rule(n: int) -> bool:
    """Closed-form prediction: determinable iff n is odd, a power of two,
    or twice an odd prime."""
    if n % 2 == 1:
        return True
    return _is_power_of_two(n) or (n // 2 % 2 == 1 and ffield.is_prime(n // 2))


def check_determinability_rule(n: int) -> VerificationReport:
    """Computed determinability equals the closed-form rule, for each of
    the two smallest valid primes (so in particular it does not depend on
    the prime)."""
    name = "determinability_rule"
    expected = determinability_rule(n)
    witnesses = []
    ok = True
    for p in ffield.find_primes(n, 2):
        rep = fusion_determinability(DihedralParams.standard(n, p))
        if rep.passed != expected:
            ok = False
        witnesses.append((p, rep.passed, rep.witness))
    witness = (("expected", expected), tuple(witnesses)) if not ok else (
        None if expected else ("witness_pairs", tuple(witnesses))
    )
    return VerificationReport(name, (n,), ok, witness)
