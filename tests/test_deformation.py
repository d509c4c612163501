from __future__ import annotations

import inspect
import textwrap
import tracemalloc
from collections import Counter

import pytest

from udrfusion import abelian, cli, cohomology, deformation, fusion, orbits
from udrfusion.deformation import (
    UdrClass,
    check_center_constraint,
    check_determinability_rule,
    check_gcd_pair_identity,
    check_kernel_sets_detect_fusion,
    check_maximality_matches_doubling_fibers,
    check_orbit_census,
    check_orbit_closed_form,
    determinability_rule,
    fusion_determinability,
    maximal_kernel_set,
    nontrivial_udr_kernel_set,
    udr_class,
    udr_signature,
)
from udrfusion.dihedral import DihedralParams, GroupElement, omega_set
from udrfusion.fusion import FusionOrbitSet, fusion_orbits_bruteforce, fusion_orbits_closed_form


def test_udr_class_frozen():
    params = DihedralParams.standard(5)
    assert udr_class(params, 2, 1) is UdrClass.ZP_T_TORSION
    assert udr_class(params, 2, 2) is UdrClass.ZP
    assert udr_class(params, 1, 1) is UdrClass.ZP
    assert udr_class(params, 1, 2) is UdrClass.ZP_T_TORSION


def test_udr_class_serialization():
    assert UdrClass.ZP.value == "Zp" and UdrClass.ZP.label == "Zp"
    assert UdrClass.ZP_T_TORSION.value == "ZpTtorsion"
    assert UdrClass.ZP_T_TORSION.label == "Zp[[t]]/(t^2,pt)"
    assert UdrClass.ZP_CP.label == "Zp[Z/p]"
    assert UdrClass.ZP_CP_SQUARED.label == "Zp[Z/pxZ/p]"
    assert UdrClass("ZpTtorsion") is UdrClass.ZP_T_TORSION
    # CSV cells must stay comma-free
    assert all("," not in c.value for c in UdrClass)


def test_udr_signature_frozen():
    params = DihedralParams.standard(5)
    sig = udr_signature(params, 2)
    assert sig.per_rep == {1: UdrClass.ZP_T_TORSION, 2: UdrClass.ZP}
    assert sig.digest() == "TZ"
    assert udr_signature(params, 1).digest() == "ZT"
    p12 = DihedralParams.standard(12)
    assert udr_signature(p12, 3).digest() == "ZZZZZ"
    assert udr_signature(p12, 2).digest() == "TZZZT"
    assert udr_signature(p12, 4).digest() == "ZTZTZ"


def test_signature_digest_length():
    for n in (3, 7, 12):
        params = DihedralParams.standard(n)
        for i0 in params.irr2_indices():
            assert len(udr_signature(params, i0).digest()) == len(list(params.irr2_indices()))


def test_maximal_kernel_set_frozen():
    params = DihedralParams.standard(5)
    trivial_subgroup = frozenset({GroupElement(5, 0)})
    assert maximal_kernel_set(params, 1) == frozenset({trivial_subgroup})
    assert maximal_kernel_set(params, 1) == nontrivial_udr_kernel_set(params, 1)


def test_kernel_sets_detect_fusion():
    for n in (5, 9, 12):
        params = DihedralParams.standard(n)
        for i0 in sorted(omega_set(params)):
            report = check_kernel_sets_detect_fusion(params, i0)
            assert report.passed, report.witness
            assert report.check_name == "kernel_sets_detect_fusion"
            assert report.parameters == (n, params.p, i0)


def test_kernel_sets_check_writes_its_kernels_as_sorted_words(monkeypatch):
    """With no d2-maximal representation the first claim fails, and its
    witness writes each kernel as the words of its elements, sorted."""
    monkeypatch.setattr(cohomology, "cohomologically_maximal_set", lambda params, i0: frozenset())
    report = check_kernel_sets_detect_fusion(DihedralParams.standard(6), 2)
    assert (report.passed, report.witness) == (
        False, ("maximal_vs_nontrivial", [], [("e",), ("e", "r^3")])
    )


def test_kernel_sets_check_requires_omega():
    with pytest.raises(ValueError):
        check_kernel_sets_detect_fusion(DihedralParams.standard(12), 1)


def test_maximality_matches_fibers():
    for n in range(3, 11):
        report = check_maximality_matches_doubling_fibers(DihedralParams.standard(n))
        assert report.passed, report.witness


def test_maximality_check_fails_at_the_first_pair_when_fusion_is_negated(monkeypatch):
    """One pair loop serves both parities; its witness is tagged by the
    parity of n.  n = 8 still passes: its doubling image has one index,
    so there is no pair to compare."""
    real = fusion.same_fusion
    monkeypatch.setattr(fusion, "same_fusion", lambda params, i, i0: not real(params, i, i0))
    for n, case in ((5, "odd_case"), (7, "odd_case"), (12, "even_case"), (16, "even_case")):
        report = check_maximality_matches_doubling_fibers(DihedralParams.standard(n))
        pair = (1, 2) if case == "odd_case" else (2, 4)
        assert (report.passed, report.witness) == (False, (case, *pair))
    assert check_maximality_matches_doubling_fibers(DihedralParams.standard(8)).passed


@pytest.mark.parametrize("n, i0", [(5, 2), (6, 1), (8, 2)])
def test_orbit_checks_pass_on_the_sweep_and_fail_on_a_corrupted_one(n, i0):
    params = DihedralParams.standard(n)
    brute = fusion_orbits_bruteforce(params, i0)
    *kept, (rep, size, stabilizer_order, gens) = brute.rows
    dropped = FusionOrbitSet.from_rows(tuple(kept), brute.p, brute.images, brute.point_sets)
    restabilized = FusionOrbitSet.from_rows(
        (*kept, (rep, size, 2 * stabilizer_order, gens)), brute.p, brute.images, brute.point_sets
    )
    closed_form = check_orbit_closed_form(params, i0, brute)
    census = check_orbit_census(params, i0, brute)
    assert (closed_form.check_name, closed_form.parameters, closed_form.passed) == (
        "orbit_closed_form_matches_bruteforce", (n, params.p, i0), True
    )
    assert (census.check_name, census.parameters, census.passed) == (
        "orbit_census_closed_form", (n, params.p, i0), True
    )
    assert not check_orbit_closed_form(params, i0, dropped).passed
    assert not check_orbit_closed_form(params, i0, restabilized).passed
    assert not check_orbit_census(params, i0, dropped).passed
    # the census reads orbit sizes only
    assert check_orbit_census(params, i0, restabilized).passed


@pytest.mark.parametrize("n, i0", [(5, 2), (6, 1), (8, 2)])
def test_orbit_closed_form_check_compares_row_by_row(n, i0):
    """Two corruptions that leave the orbit partition as it is and still
    fail: a representative that is not least in its orbit, and the point
    sets of two neighbouring rows swapped."""
    params = DihedralParams.standard(n)
    brute = fusion_orbits_bruteforce(params, i0)
    rows, point_sets = list(brute.rows), list(brute.point_sets)
    pos = next(pos for pos, (_, size, _, _) in enumerate(rows) if size > 1)
    rep, size, stabilizer_order, gens = rows[pos]
    # the sweep keeps its point sets as codes x*p + y
    other_point = divmod(max(point_sets[pos]), brute.p)
    assert other_point > rep
    rows[pos] = (other_point, size, stabilizer_order, gens)
    non_least = FusionOrbitSet.from_rows(tuple(rows), brute.p, brute.images, brute.point_sets)
    point_sets[pos], point_sets[pos + 1] = point_sets[pos + 1], point_sets[pos]
    swapped = FusionOrbitSet.from_rows(brute.rows, brute.p, brute.images, tuple(point_sets))
    assert non_least.partition() == swapped.partition() == brute.partition()
    assert not check_orbit_closed_form(params, i0, non_least).passed
    assert not check_orbit_closed_form(params, i0, swapped).passed
    # without point sets the sweep's rows are expanded through its images
    unswept = FusionOrbitSet.from_rows(brute.rows, brute.p, brute.images)
    assert check_orbit_closed_form(params, i0, unswept).passed
    # the census reads orbit sizes only
    assert check_orbit_census(params, i0, non_least).passed
    assert check_orbit_census(params, i0, swapped).passed


def _transposed(p, images):
    return lambda v: [(code % p) * p + code // p for code in images(v)]


def _wrong_base(p, images):
    return lambda v: [(code // p) * (p + 1) + code % p for code in images(v)]


def _neighbour(p, images):
    return lambda v: images(v + 1)


@pytest.mark.parametrize("n, i0", [(5, 2), (6, 1), (8, 2)])
@pytest.mark.parametrize("fault", [_wrong_base, _neighbour], ids=["wrong_base", "neighbour"])
def test_closed_form_check_fails_on_a_planted_coding_fault(monkeypatch, n, i0, fault):
    """The closed form's orbit map, on codes x*p + y, built with a wrong
    base or applied to the code of the next point, fails the check."""
    params = DihedralParams.standard(n)
    brute = fusion_orbits_bruteforce(params, i0)
    real = fusion.fusion_orbits_closed_form

    def planted(params, i0):
        closed = real(params, i0)
        return FusionOrbitSet(closed.runs, closed.p, fault(closed.p, closed.images))

    assert check_orbit_closed_form(params, i0, brute).passed
    monkeypatch.setattr(fusion, "fusion_orbits_closed_form", planted)
    assert not check_orbit_closed_form(params, i0, brute).passed


@pytest.mark.parametrize("n, i0", [(5, 2), (6, 1), (8, 2)])
def test_transposed_codes_are_invisible_in_a_dihedral_orbit(monkeypatch, n, i0):
    """A transposed code y*p + x in the closed form's orbit map changes no
    image set: s swaps the two coordinates, so every dihedral orbit is
    closed under (x, y) -> (y, x), and the check rightly passes.  The same
    fault in the abelian direct map, whose orbits are not closed under the
    swap, splits the partition away from the sweep's."""
    params = DihedralParams.standard(n)
    brute = fusion_orbits_bruteforce(params, i0)
    closed = fusion_orbits_closed_form(params, i0)
    p = closed.p
    transposed = _transposed(p, closed.images)
    assert all(
        frozenset(transposed(x * p + y)) == frozenset(closed.images(x * p + y))
        for (x, y), *_ in brute.iter_rows()
    )
    monkeypatch.setattr(
        fusion,
        "fusion_orbits_closed_form",
        lambda params, i0: FusionOrbitSet(closed.runs, closed.p, transposed),
    )
    assert check_orbit_closed_form(params, i0, brute).passed

    pair = abelian.CharacterPair.from_exponents(abelian.AbelianParams((2, 3), 7), (1, 0), (1, 2))
    sweep = abelian.abelian_orbits_bruteforce(pair)
    assert abelian.abelian_orbits(pair).partition() == sweep.partition()
    real = orbits.diagonal_images
    monkeypatch.setattr(
        orbits, "diagonal_images", lambda p, scalars: _transposed(p, real(p, scalars))
    )
    assert abelian.abelian_orbits(pair).partition() != sweep.partition()


def test_orbit_checks_peak_memory():
    """tracemalloc peak of the sweep and both orbit checks at (12, 313, 1).
    With point sets of (x, y) tuples and a set of p^2 seen tuples it was
    19.8 MB; with frozensets of codes x*p + y and a bytearray of seen
    flags it is 12.4 MB.  The bound leaves 3.6 MB of headroom."""
    params = DihedralParams.standard(12, 313)
    fusion_orbits_closed_form(params, 1)  # loads and caches what the closed form imports
    tracemalloc.start()
    try:
        brute = fusion_orbits_bruteforce(params, 1)
        assert check_orbit_closed_form(params, 1, brute).passed
        assert check_orbit_census(params, 1, brute).passed
        del brute
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


# two groups of actions at p = 13 that share a sweep each: (3, 1), (6, 2)
# and (12, 4) act through U of order 3, (12, 1) and (12, 5) through all
# of F_13^*
_SHARED_AT_13 = [(3, 1), (6, 2), (12, 4), (12, 1), (12, 5)]


def _planted_fusion(name, old, new):
    """fusion's function name compiled from its own source with the one
    occurrence of old replaced by new, in a copy of fusion's namespace."""
    source = textwrap.dedent(inspect.getsource(getattr(fusion, name)))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(fusion))
    exec(source.replace(old, new), namespace)
    return namespace[name]


def _prop48_on_shared_sweeps(monkeypatch):
    """prop48 on every action of _SHARED_AT_13, each on the orbit set
    read from its group's sweep: (n, i0) -> passed, and the number of
    sweeps and of image-set comparisons made."""
    calls = Counter()
    real_sweep, real_match = fusion._sweep_orbits, deformation._image_sets_match

    def sweeping(p, matrices):
        calls["sweeps"] += 1
        return real_sweep(p, matrices)

    def matching(*args):
        calls["comparisons"] += 1
        return real_match(*args)

    monkeypatch.setattr(fusion, "_sweep_orbits", sweeping)
    monkeypatch.setattr(deformation, "_image_sets_match", matching)
    instances = [(DihedralParams.standard(n, 13), i0) for n, i0 in _SHARED_AT_13]
    passed = {
        (params.n, i0): check_orbit_closed_form(params, i0, brute).passed
        for (params, i0), brute in fusion.fusion_orbit_sets_bruteforce(instances)
    }
    return passed, calls["sweeps"], calls["comparisons"]


def test_shared_image_comparison_is_made_once_per_sweep(monkeypatch):
    passed, sweeps, comparisons = _prop48_on_shared_sweeps(monkeypatch)
    assert passed == dict.fromkeys(_SHARED_AT_13, True)
    assert sweeps == comparisons == 2


def test_a_planted_geometry_fault_fails_every_action_of_its_group(monkeypatch):
    """The closed form's orbit map scaling y by u in place of 1/u fails
    prop48 on every action whose (p, U) it serves; each group still
    compares its image sets once."""
    planted = _planted_fusion("_closed_form_geometry", "ui * y", "u * y")
    monkeypatch.setattr(fusion, "_closed_form_geometry", planted)
    passed, sweeps, comparisons = _prop48_on_shared_sweeps(monkeypatch)
    assert passed == dict.fromkeys(_SHARED_AT_13, False)
    assert sweeps == comparisons == 2


def test_a_planted_stabilizer_fault_fails_only_its_own_action(monkeypatch):
    """A doubled stabilizer order in the last run of (12, 13, 4) alone
    fails that action's row check; the other actions of its group read
    the same images object and point sets and pass."""
    real = fusion.fusion_orbits_closed_form

    def planted(params, i0):
        closed = real(params, i0)
        if (params.n, i0) != (12, 4):
            return closed
        *kept, (x, ys, size, order, gens) = closed.runs
        return FusionOrbitSet((*kept, (x, ys, size, 2 * order, gens)), closed.p, closed.images)

    monkeypatch.setattr(fusion, "fusion_orbits_closed_form", planted)
    passed, sweeps, comparisons = _prop48_on_shared_sweeps(monkeypatch)
    assert passed == {**dict.fromkeys(_SHARED_AT_13, True), (12, 4): False}
    assert sweeps == comparisons == 2


def test_a_planted_wrong_subgroup_misses_the_geometry_cache_and_fails(monkeypatch):
    """U built from w^(i0+1) is another unit set, so the closed form
    gets that set's own geometry, not the cached one of the right U, and
    prop48 fails."""
    params = DihedralParams.standard(12, 13)
    brute = fusion_orbits_bruteforce(params, 1)
    fusion._closed_form_geometry.cache_clear()
    assert check_orbit_closed_form(params, 1, brute).passed
    planted = _planted_fusion("fusion_orbits_closed_form", "pow(w, i0, p)", "pow(w, i0 + 1, p)")
    monkeypatch.setattr(fusion, "fusion_orbits_closed_form", planted)
    assert not check_orbit_closed_form(params, 1, brute).passed
    info = fusion._closed_form_geometry.cache_info()
    assert (info.hits, info.misses) == (0, 2)
    monkeypatch.undo()
    assert check_orbit_closed_form(params, 1, brute).passed
    assert fusion._closed_form_geometry.cache_info().hits == 1


def test_verify_orbit_families_build_no_orbit_objects(capsys, monkeypatch):
    calls = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        fusion.FusionOrbit, "__post_init__",
        counting("orbit", fusion.FusionOrbit.__post_init__),
    )
    monkeypatch.setattr(
        fusion.FusionOrbitSet, "partition",
        counting("partition", fusion.FusionOrbitSet.partition),
    )
    monkeypatch.setattr(fusion, "_sweep_orbits", counting("sweep", fusion._sweep_orbits))
    assert cli.main(["verify", "--n-max", "6"]) == 0
    out = capsys.readouterr().out
    prop48 = sum(line.startswith("PASS prop48 ") for line in out.splitlines())
    # 12 instances (n, p, i0) for n = 3..6 at two primes each, and one
    # sweep per distinct set of theta_i0 matrices at each prime: i0 = 1, 2
    # share theirs at n = 5, and (6, p, 2) shares that of (3, p, 1)
    assert prop48 == 12 and calls["sweep"] == 8
    assert calls["orbit"] == calls["partition"] == 0


def test_gcd_pair_identity_frozen():
    report = check_gcd_pair_identity(12, 2)
    assert report.passed and report.witness is None
    assert report.parameters == (12, 2)
    assert check_gcd_pair_identity(40, 8).passed


def test_gcd_pair_identity_exhaustive():
    for n in range(4, 41, 2):
        for i0 in range(2, (n + 1) // 2, 2):
            assert check_gcd_pair_identity(n, i0).passed


def test_gcd_pair_identity_validation():
    with pytest.raises(ValueError):
        check_gcd_pair_identity(9, 2)
    with pytest.raises(ValueError):
        check_gcd_pair_identity(12, 3)
    with pytest.raises(ValueError):
        check_gcd_pair_identity(12, 0)


def test_center_constraint():
    for n in range(3, 11):
        params = DihedralParams.standard(n)
        for i0 in params.irr2_indices():
            assert check_center_constraint(params, i0).passed


def test_determinability_witness_frozen():
    report = fusion_determinability(DihedralParams.standard(12))
    assert not report.passed
    assert report.witness == (1, 3)
    assert fusion_determinability(DihedralParams.standard(5)).passed
    assert fusion_determinability(DihedralParams.standard(8)).passed


def test_determinability_rule_frozen():
    expected = {
        4: True,
        6: True,
        8: True,
        10: True,
        12: False,
        14: True,
        16: True,
        18: False,
        20: False,
        22: True,
        24: False,
        26: True,
        28: False,
        30: False,
    }
    for n, flag in expected.items():
        assert determinability_rule(n) == flag, n
    for n in (3, 5, 7, 9, 15):
        assert determinability_rule(n)


def test_check_determinability_rule():
    positive = check_determinability_rule(6)
    assert positive.passed and positive.witness is None
    negative = check_determinability_rule(12)
    assert negative.passed  # computed value matches the rule, which says no
    tag, per_prime = negative.witness
    assert tag == "witness_pairs"
    assert [p for p, _, _ in per_prime] == [13, 37]
    for _, determinable, pair in per_prime:
        assert determinable is False
        assert pair == (1, 3)
