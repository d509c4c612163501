"""The body of the verify command: each family's reports function.  cli
imports this module when verify starts, hands families the n ceiling of
each family to run, and prints the reports; cli.VERIFY_CEILINGS holds
each family's token and ceilings, in the order verify runs them.
"""

from __future__ import annotations

from itertools import chain, groupby, starmap

from . import cohomology, deformation, dihedral, ffield, fusion
from .dihedral import DihedralParams
from .ffield import LimitExceeded
from .records import VerificationReport


def _thm42(n: int) -> list[VerificationReport]:
    params = DihedralParams.standard(n)
    return [deformation.check_kernel_sets_detect_fusion(params, i0)
            for i0 in sorted(dihedral.omega_set(params))]


def _thm43(n: int) -> list[VerificationReport]:
    return [deformation.check_maximality_matches_doubling_fibers(DihedralParams.standard(n))]


def _thm11(n: int) -> list[VerificationReport]:
    return [] if n % 2 else [deformation.check_determinability_rule(n)]


def _lemma410(n: int) -> list[VerificationReport]:
    if n % 2:
        return []
    return [deformation.check_gcd_pair_identity(n, i0) for i0 in range(2, (n + 1) // 2, 2)]


def _cor34(n: int) -> list[VerificationReport]:
    params = DihedralParams.standard(n)
    return [deformation.check_center_constraint(params, i0) for i0 in params.irr2_indices()]


def _oracle_h1(n: int):
    for p in ffield.find_primes(n, 2):
        params = DihedralParams.standard(n, p)
        for i0 in params.irr2_indices():
            for j in params.irr2_indices():
                try:
                    oracle = cohomology.d1_oracle_cocycles(params, i0, j)
                except LimitExceeded:
                    continue
                ok = oracle == cohomology.dims(params, i0, j).d1
                yield VerificationReport("cocycle_oracle_d1", (n, p, i0, j), ok)


def _ranks(reports_of_rank):
    """The reports function of a family whose reports of one rank n are
    reports_of_rank(n): those of ranks 3..n_max, made as they are read."""
    return lambda n_max, tokens: [chain.from_iterable(map(reports_of_rank, range(3, n_max + 1)))]


def _orbit_reports(n_max: int, tokens) -> list[list[VerificationReport]]:
    """The reports function of prop48 and cor49: for each of tokens, its
    check on the brute-force orbit set of every (n, p, i0) up to n_max, in
    that order, every check reading the one orbit set fusion gives."""
    check_of = {"prop48": deformation.check_orbit_closed_form,
                "cor49": deformation.check_orbit_census}
    checks = [check_of[t] for t in tokens]
    planes = (DihedralParams.standard(n, p)
              for n in range(3, n_max + 1) for p in ffield.find_primes(n, 2))
    instances = [(params, i0) for params in planes for i0 in params.irr2_indices()]

    def row(instance, brute):
        params, i0 = instance
        return (params.n, params.p, i0), [check(params, i0, brute) for check in checks]

    # starmap, unlike a for loop, keeps no orbit set while the next is swept
    rows = sorted(starmap(row, fusion.fusion_orbit_sets_bruteforce(instances)))
    return [[reports[t] for _, reports in rows] for t in range(len(checks))]


# each family's reports function, by token: reports(n_max, tokens) gives
# the reports up to n_max of each of tokens, the families that share it
_REPORTS = {
    "thm42": _ranks(_thm42),
    "thm43": _ranks(_thm43),
    "thm11": _ranks(_thm11),
    "lemma410": _ranks(_lemma410),
    "cor34": _ranks(_cor34),
    "prop48": _orbit_reports,
    "cor49": _orbit_reports,
    "oracle-h1": _ranks(_oracle_h1),
}


def families(found: dict[str, int]):
    """(token, ceiling, reports) for each token of found, in order, with
    found[token] its n ceiling, the reports made as they are read.
    Neighbouring families with one reports function run from one call of
    it, at the ceiling of the first: prop48 and cor49 share their sweeps."""
    for reports, group in groupby(found, _REPORTS.__getitem__):
        tokens = list(group)
        for token, family in zip(tokens, reports(found[tokens[0]], tokens)):
            yield token, found[token], family
