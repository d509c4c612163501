"""The bodies of the dihedral calculator commands, analyze dihedral and
scan.  cli imports this module when one of them starts, and writes what
they return.
"""

from __future__ import annotations

from math import gcd

from . import cohomology, deformation, dihedral, ffield, fusion
from .dihedral import DihedralParams, RepLabel
from .ffield import LimitExceeded
from .fusion import ORBIT_LIMIT
from .records import VerificationReport

# analyze dihedral refuses a rank above this: its checks are O(n^2), and
# the slowest ranks near it (odd n) take about 2 s on a 2-core Intel Xeon
ANALYZE_RANK_LIMIT = 2500


def analyze_dihedral(args) -> tuple:
    """The params, k, orbit set, rows and checks of the report of analyze
    dihedral on the parsed arguments, for cli to write."""
    if args.n > ANALYZE_RANK_LIMIT:
        raise LimitExceeded(f"--n {args.n} is above the rank limit {ANALYZE_RANK_LIMIT}")
    # the census has at least p orbits: refuse such p before any work
    if args.p is not None and args.p > ORBIT_LIMIT:
        raise LimitExceeded(f"--p {args.p} gives at least p orbits, limit is {ORBIT_LIMIT}")
    params = DihedralParams.standard(args.n, args.p)
    i0 = args.i0
    if i0 not in params.irr2_indices():
        raise ValueError(f"--i0 must lie in [1, {args.n}/2), got {i0}")
    n, p = params.n, params.p
    closed = fusion.fusion_orbits_closed_form(params, i0)
    checks = []

    try:
        brute = fusion.fusion_orbits_bruteforce(params, i0)
        checks.append(deformation.check_orbit_closed_form(params, i0, brute))
        checks.append(deformation.check_orbit_census(params, i0, brute))
    except LimitExceeded:
        pass

    om = dihedral.omega_set(params)
    reps = []
    structure_ok = True
    for j in params.irr2_indices():
        dd = cohomology.dims(params, i0, j)
        image = dihedral.t_map(params, j)
        structural = dd.d2 == dd.d1 + 1 and dd.d1 == (1 if image == RepLabel.irr2(i0) else 0)
        reps.append(
            {
                "j": j,
                "gcd": gcd(j, n),
                "T": image.name,
                "in_omega": j in om,
                "d1": dd.d1,
                "d2": dd.d2,
                "udr": deformation.udr_class(params, i0, j).label,
            }
        )
        if not structural:
            structure_ok = False
            checks.append(
                VerificationReport("cohomology_dims_structure", (n, p, i0, j), False)
            )
    checks.append(VerificationReport("cohomology_dims_structure", (n, p, i0), structure_ok))
    checks.append(deformation.check_center_constraint(params, i0))
    if i0 in om:
        checks.append(deformation.check_kernel_sets_detect_fusion(params, i0))

    report_params = {"group": "dihedral", "n": n, "p": p, "omega": params.omega, "i0": i0}
    return report_params, n // gcd(i0, n), closed, reps, checks


# scan refuses a range whose signature tables hold more entries than this:
# about (n/2)^2 dims evaluations per (n, p), summed over the range.  It
# admits 3..200 at one prime per n (671,673 entries).
SCAN_WORK_LIMIT = 10**6


def _scan_work(n_min: int, n_max: int, primes_per_n: int) -> int:
    """Sum over n = n_min..n_max of (n/2)^2 * primes_per_n, rounded down,
    in closed form so that it costs nothing however wide the range."""

    def squares(m: int) -> int:
        return m * (m + 1) * (2 * m + 1) // 6

    return (squares(n_max) - squares(n_min - 1)) * primes_per_n // 4


def scan_rows(n_min: int, n_max: int, primes_per_n: int) -> list[dict]:
    """The rows of scan dihedral: one per (n, p, i0), for primes_per_n
    primes of each n = n_min..n_max."""
    if n_min < 3 or n_max < n_min:
        raise ValueError("need 3 <= n-min <= n-max")
    if primes_per_n < 1:
        raise ValueError("need at least one prime per n")
    work = _scan_work(n_min, n_max, primes_per_n)
    if work > SCAN_WORK_LIMIT:
        raise LimitExceeded(
            f"scan of n = {n_min}..{n_max} at {primes_per_n} primes per n needs about "
            f"{work} signature entries, limit is {SCAN_WORK_LIMIT}"
        )
    rows = []
    for n in range(n_min, n_max + 1):
        for p in ffield.find_primes(n, primes_per_n):
            params = DihedralParams.standard(n, p)
            om = dihedral.omega_set(params)
            signatures = {i0: deformation.udr_signature(params, i0) for i0 in params.irr2_indices()}
            determinable = deformation.signature_table_determinability(params, signatures).passed
            for i0, signature in signatures.items():
                rows.append(
                    {
                        "n": n,
                        "p": p,
                        "i0": i0,
                        "k": n // gcd(i0, n),
                        "in_omega": i0 in om,
                        "determinable": determinable,
                        "signature": signature.digest(),
                    }
                )
    return rows
