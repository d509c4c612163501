"""The bodies of the dihedral calculator commands, analyze dihedral and
scan.  cli imports this module when one of them starts, and writes what
they return.

Each function imports the route names it calls when it is called, so a
name rebound in the module that defines it (a test's patch, a tracer's
wrapper) is the one called.
"""

from __future__ import annotations

from math import gcd

from .ffield import LimitExceeded
from .records import VerificationReport

# analyze dihedral refuses a rank above this: its checks are O(n^2), and
# the slowest ranks near it (odd n) take about 2 s on a 2-core Intel Xeon
ANALYZE_RANK_LIMIT = 2500


def analyze_dihedral(args) -> tuple:
    """The params, k, orbit set, rows and checks of the report of analyze
    dihedral on the parsed arguments, for cli to write."""
    from .cohomology import dims
    from .deformation import (
        check_center_constraint,
        check_kernel_sets_detect_fusion,
        check_orbit_census,
        check_orbit_closed_form,
        udr_class,
    )
    from .dihedral import DihedralParams, RepLabel, omega_set, t_map
    from .fusion import ORBIT_LIMIT, fusion_orbits_bruteforce, fusion_orbits_closed_form

    if args.n > ANALYZE_RANK_LIMIT:
        raise LimitExceeded(f"--n {args.n} is above the rank limit {ANALYZE_RANK_LIMIT}")
    # the census has at least p orbits: refuse such p before trial division
    if args.p is not None and args.p > ORBIT_LIMIT:
        raise LimitExceeded(f"--p {args.p} gives at least p orbits, limit is {ORBIT_LIMIT}")
    params = DihedralParams.standard(args.n, args.p)
    i0 = args.i0
    if i0 not in params.irr2_indices():
        raise ValueError(f"--i0 must lie in [1, {args.n}/2), got {i0}")
    n, p = params.n, params.p
    closed = fusion_orbits_closed_form(params, i0)
    checks = []

    try:
        brute = fusion_orbits_bruteforce(params, i0)
        checks.append(check_orbit_closed_form(params, i0, brute))
        checks.append(check_orbit_census(params, i0, brute))
    except LimitExceeded:
        pass

    om = omega_set(params)
    reps = []
    structure_ok = True
    for j in params.irr2_indices():
        dd = dims(params, i0, j)
        structural = dd.d2 == dd.d1 + 1 and dd.d1 == (
            1 if t_map(params, j) == RepLabel.irr2(i0) else 0
        )
        reps.append(
            {
                "j": j,
                "gcd": gcd(j, n),
                "T": t_map(params, j).name,
                "in_omega": j in om,
                "d1": dd.d1,
                "d2": dd.d2,
                "udr": udr_class(params, i0, j).label,
            }
        )
        if not structural:
            structure_ok = False
            checks.append(
                VerificationReport("cohomology_dims_structure", (n, p, i0, j), False)
            )
    checks.append(VerificationReport("cohomology_dims_structure", (n, p, i0), structure_ok))
    checks.append(check_center_constraint(params, i0))
    if i0 in om:
        checks.append(check_kernel_sets_detect_fusion(params, i0))

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
    from .deformation import signature_table_determinability, udr_signature
    from .dihedral import DihedralParams, omega_set
    from .ffield import find_primes

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
        for p in find_primes(n, primes_per_n):
            params = DihedralParams.standard(n, p)
            om = omega_set(params)
            signatures = {i0: udr_signature(params, i0) for i0 in params.irr2_indices()}
            determinable = signature_table_determinability(params, signatures).passed
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
