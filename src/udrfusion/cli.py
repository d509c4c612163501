"""Command line front end: analyze one action, scan a range, or run the
verification families.  Output is deterministic; rerunning a command
reproduces it byte for byte.

At load this module imports only what the parser, the dispatch and the
writers need.  Each command imports the modules of its route when it
starts, once: analyze abelian never loads cohomology, deformation or
dihedral, and verify and scan never load abelian.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain
from math import gcd

from . import __version__
from .ffield import LimitExceeded, find_primes
from .records import UdrClass, VerificationReport

# JSON reports carry the ring class label; CSV cells carry its comma-free tag
_CSV_TAGS = {cls.label: cls.value for cls in UdrClass}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udrfusion",
        description="Orbit structure, cohomology dimensions and deformation "
        "ring classes for rank-2 group actions on a prime-field plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a single action")
    analyze_sub = analyze.add_subparsers(dest="family", required=True)

    dih = analyze_sub.add_parser("dihedral", help="dihedral group action")
    dih.add_argument("--n", type=int, required=True, help="dihedral rank (order 2n)")
    dih.add_argument("--p", type=int, default=None, help="prime, default smallest valid")
    dih.add_argument("--i0", type=int, required=True, help="acting representation index")
    dih.add_argument("--format", choices=("json", "csv"), default="json")
    dih.add_argument("--out", default=None, help="write output to this file as well")

    abl = analyze_sub.add_parser("abelian", help="abelian group action")
    abl.add_argument("--orders", required=True, help="comma-separated cyclic orders")
    abl.add_argument("--p", type=int, default=None, help="prime, default smallest valid")
    abl.add_argument(
        "--theta1",
        required=True,
        help="comma-separated exponents: generator i maps to the smallest "
        "primitive m_i-th root raised to this exponent",
    )
    abl.add_argument("--theta2", required=True, help="same encoding for the second character")
    abl.add_argument("--format", choices=("json", "csv"), default="json")
    abl.add_argument("--out", default=None)

    scan = sub.add_parser("scan", help="tabulate a range of ranks")
    scan_sub = scan.add_subparsers(dest="family", required=True)
    sdih = scan_sub.add_parser("dihedral")
    sdih.add_argument("--n-min", type=int, required=True)
    sdih.add_argument("--n-max", type=int, required=True)
    sdih.add_argument("--primes-per-n", type=int, default=1)
    sdih.add_argument("--format", choices=("json", "csv"), default="csv")
    sdih.add_argument("--out", default=None)

    verify = sub.add_parser("verify", help="run a verification family")
    verify.add_argument(
        "--check",
        choices=[*_VERIFY_FAMILIES, "all"],
        default="all",
        help="which family to run (see README for what each token covers)",
    )
    verify.add_argument("--n-max", type=int, default=None, help="override the grid ceiling")
    return parser


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated integer list, got {text!r}")


def _stdout_to_devnull() -> None:
    """Point the stdout descriptor at os.devnull, so that what is still
    buffered for a reader that has gone raises nothing at exit."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _emit(pieces, out_path: str | None) -> None:
    """Write the text that pieces() yields to stdout, each piece as it
    comes, and then, with out_path, to that file from a second call:
    the pieces are made again, never kept.  A reader that closes stdout
    early does not cost the file: the BrokenPipeError is raised again
    only after the file is written, and stdout is on os.devnull by then,
    so an error writing the file is the one reported."""
    write = sys.stdout.write
    broken = None
    try:
        for piece in pieces():
            write(piece)
    except BrokenPipeError as exc:
        broken = exc
        _stdout_to_devnull()
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.writelines(pieces())
    if broken is not None:
        raise broken


def _check_entry(report: VerificationReport) -> dict:
    return {
        "name": report.check_name,
        "params": list(report.parameters),
        "passed": report.passed,
        "witness": _jsonable(report.witness),
    }


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(_jsonable(v) for v in value)
    return repr(value)


# a report's one large value, the representatives of its fusion block,
# stands in the report as the orbit set itself and is written run by run;
# json.dumps writes the rest around a placeholder.  With indent set, json
# takes its pure-Python encoder, one call per value.
_PLACEHOLDER = "@representatives@"


def _report_pieces(report: dict):
    """json.dumps(report, indent=2) and a line break, byte for byte, in
    pieces, with the orbit set that stands in fusion.representatives
    written as the list of its representatives: the report up to that
    list, one piece per run, and the rest.  No pair is built per orbit: a
    run's pairs are one join of its ys, their x written into the
    separator.  A report whose representatives are null is one piece."""
    import json

    fusion = report["fusion"]
    orbit_set = fusion["representatives"]
    if orbit_set is None:
        yield json.dumps(report, indent=2) + "\n"
        return
    skeleton = {**report, "fusion": {**fusion, "representatives": _PLACEHOLDER}}
    head, tail = json.dumps(skeleton, indent=2).split(json.dumps(_PLACEHOLDER), 1)
    yield head + "["
    opening = "\n      "
    for x, ys, *_ in orbit_set.runs:
        pair = f"[\n        {x},\n        "
        yield "".join((opening, pair, f"\n      ],\n      {pair}".join(map(str, ys)), "\n      ]"))
        opening = ",\n      "
    yield ("\n    ]" if orbit_set.runs else "]") + tail + "\n"


def _fusion_block(k: int | None, orbit_set) -> dict:
    """The fusion block of a report; its representatives are the orbit
    set, for _report_pieces to write."""
    return {
        "k": k,
        "numbers": {str(size): cnt for size, cnt in orbit_set.size_census().items()},
        "orbit_count": orbit_set.orbit_count,
        "representatives": orbit_set,
    }


# analyze dihedral refuses a rank above this: its checks are O(n^2), and
# the slowest ranks near it (odd n) take about 2 s on a 2-core Intel Xeon
ANALYZE_RANK_LIMIT = 2500


def _analyze_dihedral(args) -> dict:
    """The report of analyze dihedral on the parsed arguments."""
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

    return {
        "version": __version__,
        "params": {"group": "dihedral", "n": n, "p": p, "omega": params.omega, "i0": i0},
        "fusion": _fusion_block(n // gcd(i0, n), closed),
        "reps": reps,
        "checks": [_check_entry(c) for c in checks],
    }


def _csv(header: str, rows) -> str:
    """The header line, then one comma-joined line per row, with booleans
    written as true/false."""
    lines = [header]
    for row in rows:
        lines.append(",".join(str(v).lower() if isinstance(v, bool) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _dihedral_csv(report: dict) -> str:
    par = report["params"]
    return _csv(
        "n,p,omega,i0,j,gcd,T,in_omega,d1,d2,udr",
        (
            (par["n"], par["p"], par["omega"], par["i0"], row["j"], row["gcd"], row["T"],
             row["in_omega"], row["d1"], row["d2"], _CSV_TAGS[row["udr"]])
            for row in report["reps"]
        ),
    )


def _analyze_abelian(args) -> dict:
    """The report of analyze abelian on the parsed arguments."""
    from .abelian import (
        ABELIAN_BRUTE_FORCE_LIMIT,
        AbelianParams,
        CharacterPair,
        abelian_dims,
        abelian_dims_projector,
        abelian_fixed_count,
        abelian_fixed_count_bruteforce,
        abelian_orbits,
        abelian_udr,
    )

    params = AbelianParams.standard(_parse_int_list(args.orders, "--orders"), args.p)
    e1 = _parse_int_list(args.theta1, "--theta1")
    e2 = _parse_int_list(args.theta2, "--theta2")
    pair = CharacterPair.from_exponents(params, e1, e2)
    dd = abelian_dims(pair)
    # the projector's d1 is a rank, found without counting trivial characters
    projected = abelian_dims_projector(pair)
    checks = [
        VerificationReport(
            "fixed_count_power_rule",
            (params.cyclic_orders, params.p),
            abelian_fixed_count(pair) == params.p ** projected.d1,
        ),
        VerificationReport(
            "dims_match_projector",
            (params.cyclic_orders, params.p),
            projected == dd,
        ),
    ]
    fusion_block = {"k": None, "numbers": None, "orbit_count": None, "representatives": None}
    # the fusion block and its oracle check appear only where the brute
    # force could still check them
    if params.order * params.p**2 <= ABELIAN_BRUTE_FORCE_LIMIT:
        fusion_block = _fusion_block(None, abelian_orbits(pair))
        checks.append(
            VerificationReport(
                "fixed_count_matches_bruteforce",
                (params.cyclic_orders, params.p),
                abelian_fixed_count_bruteforce(pair) == abelian_fixed_count(pair),
            )
        )
    return {
        "version": __version__,
        "params": {
            "group": "abelian",
            "orders": list(params.cyclic_orders),
            "p": params.p,
            "theta1": list(pair.theta1),
            "theta2": list(pair.theta2),
        },
        "fusion": fusion_block,
        "reps": [
            {
                "j": None,
                "gcd": None,
                "T": None,
                "in_omega": None,
                "d1": dd.d1,
                "d2": dd.d2,
                "udr": abelian_udr(pair).label,
            }
        ],
        "checks": [_check_entry(c) for c in checks],
    }


def _abelian_csv(report: dict) -> str:
    par = report["params"]
    row = report["reps"][0]
    orders, theta1, theta2 = ("x".join(map(str, par[k])) for k in ("orders", "theta1", "theta2"))
    return _csv(
        "orders,p,theta1,theta2,d1,d2,udr",
        [(orders, par["p"], theta1, theta2, row["d1"], row["d2"], _CSV_TAGS[row["udr"]])],
    )


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


def _scan_rows(n_min: int, n_max: int, primes_per_n: int) -> list[dict]:
    from .deformation import signature_table_determinability, udr_signature
    from .dihedral import DihedralParams, omega_set

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


def _thm42(n: int) -> list[VerificationReport]:
    from .deformation import check_kernel_sets_detect_fusion
    from .dihedral import DihedralParams, omega_set

    params = DihedralParams.standard(n)
    return [check_kernel_sets_detect_fusion(params, i0) for i0 in sorted(omega_set(params))]


def _thm43(n: int) -> list[VerificationReport]:
    from .deformation import check_maximality_matches_doubling_fibers
    from .dihedral import DihedralParams

    return [check_maximality_matches_doubling_fibers(DihedralParams.standard(n))]


def _thm11(n: int) -> list[VerificationReport]:
    from .deformation import check_determinability_rule

    return [] if n % 2 else [check_determinability_rule(n)]


def _lemma410(n: int) -> list[VerificationReport]:
    from .deformation import check_gcd_pair_identity

    return [] if n % 2 else [check_gcd_pair_identity(n, i0) for i0 in range(2, (n + 1) // 2, 2)]


def _cor34(n: int) -> list[VerificationReport]:
    from .deformation import check_center_constraint
    from .dihedral import DihedralParams

    params = DihedralParams.standard(n)
    return [check_center_constraint(params, i0) for i0 in params.irr2_indices()]


def _oracle_h1(n: int):
    from .cohomology import d1_oracle_cocycles, dims
    from .dihedral import DihedralParams

    for p in find_primes(n, 2):
        params = DihedralParams.standard(n, p)
        for i0 in params.irr2_indices():
            for j in params.irr2_indices():
                try:
                    oracle = d1_oracle_cocycles(params, i0, j)
                except LimitExceeded:
                    continue
                ok = oracle == dims(params, i0, j).d1
                yield VerificationReport("cocycle_oracle_d1", (n, p, i0, j), ok)


# verify's families, in the order it runs them: token -> (default n
# ceiling, largest n ceiling admitted, reports).  reports gives the
# family's reports of one rank n; a family that checks the brute-force
# orbit sweep of each (n, p, i0) names instead the deformation check that
# reads a sweep, and such families share their sweeps (_sweep_reports).
# Each largest ceiling is the last at which the family alone was
# estimated to run in under about 2 s on a 2-core Intel Xeon under
# CPython 3.11; a larger one is refused before any family runs.
_VERIFY_FAMILIES = {
    "thm42": (12, 119, _thm42),
    "thm43": (12, 100, _thm43),
    "thm11": (30, 267, _thm11),
    "lemma410": (40, 3537, _lemma410),
    "cor34": (12, 133, _cor34),
    "prop48": (12, 25, "check_orbit_closed_form"),
    "cor49": (12, 25, "check_orbit_census"),
    "oracle-h1": (12, 265, _oracle_h1),
}


def _verify_ceilings(check: str, n_max: int | None) -> dict[str, int]:
    """The n ceiling of each family that check runs (every family for
    all): n_max if given, else the family's default.  A ceiling above the
    family's largest admitted one raises LimitExceeded."""
    ceilings = {}
    for token in _VERIFY_FAMILIES if check == "all" else [check]:
        default, largest, _ = _VERIFY_FAMILIES[token]
        ceilings[token] = default if n_max is None else n_max
        if ceilings[token] > largest:
            raise LimitExceeded(
                f"verify {token} admits n-max up to {largest}, got {ceilings[token]}"
            )
    return ceilings


def _sweep_reports(checks: dict[str, str], n_max: int) -> dict[str, list[VerificationReport]]:
    """The reports up to n_max of the families checks (token -> the
    deformation check it runs), in (n, p, i0) order.

    The indices of all (n, p) at one prime p are grouped by the set of
    their theta_i0 table's matrices, as computed, not by a criterion the
    checks test.  Each group is swept once, at its first (n, i0), and the
    sweep is renamed to each other member's table; every instance gets its
    own checks.  One group's sweep is alive at a time.  With no checks,
    the sweeps still run and nothing is renamed."""
    from . import deformation, fusion
    from .dihedral import DihedralParams

    runs = [getattr(deformation, name) for name in checks.values()]
    by_prime: dict[int, list] = {}
    for n in range(3, n_max + 1):
        for p in find_primes(n, 2):
            by_prime.setdefault(p, []).append(DihedralParams.standard(n, p))
    by_instance: dict[tuple, list[VerificationReport]] = {}
    for ranks in by_prime.values():
        # only the tables of one prime are alive at a time
        groups: dict[frozenset, list] = {}
        for params in ranks:
            for i0 in params.irr2_indices():
                table = fusion._theta_table(params, i0)
                key = frozenset(mat for _, mat in table)
                groups.setdefault(key, []).append((params, i0, table))
        for group in groups.values():
            by_instance.update(_group_reports(runs, group))
    reports: dict[str, list[VerificationReport]] = {token: [] for token in checks}
    for key in sorted(by_instance):
        for token, report in zip(checks, by_instance[key]):
            reports[token].append(report)
    return reports


def _group_reports(runs, group) -> dict[tuple, list[VerificationReport]]:
    """(n, p, i0) -> the reports of runs on it, for each (params, i0,
    theta_i0 table) of group, from one sweep at the first member renamed
    to the others."""
    from . import fusion

    (params, first, table), *others = group
    brute = fusion.fusion_orbits_bruteforce(params, first)
    if not runs:
        return {}
    out = {(params.n, params.p, first): [check(params, first, brute) for check in runs]}
    for params, i0, other in others:
        renamed = fusion.renamed_sweep(brute, table, other)
        out[params.n, params.p, i0] = [check(params, i0, renamed) for check in runs]
    return out


def _cmd_verify(args) -> int:
    # every ceiling is checked before any family runs.  The sweep families
    # have one ceiling: the first of them to run makes the reports of all,
    # which wait here for each family's turn, while the other families
    # print their reports as they come
    ceilings = _verify_ceilings(args.check, args.n_max)
    families = {token: _VERIFY_FAMILIES[token][2] for token in ceilings}
    sweep_checks = {token: name for token, name in families.items() if isinstance(name, str)}
    pending: dict[str, list[VerificationReport]] = {}
    failed = 0
    total = 0
    for token, n_max in ceilings.items():
        if token in sweep_checks:
            if token not in pending:
                pending = _sweep_reports(sweep_checks, n_max)
            reports = pending.pop(token)
        else:
            reports = chain.from_iterable(map(families[token], range(3, n_max + 1)))
        family_total = total
        for report in reports:
            total += 1
            par = " ".join(str(v) for v in report.parameters)
            if report.passed:
                print(f"PASS {token} {par}")
            else:
                failed += 1
                print(f"FAIL {token} {par} witness={_jsonable(report.witness)}")
        if total == family_total:
            # a family that checked nothing must not pass
            total += 1
            failed += 1
            print(f"FAIL {token} no instances (n-max {n_max})")
    print(f"{total} checks, {failed} failed")
    return 1 if failed else 0


def _cmd_analyze(args) -> int:
    if args.family == "dihedral":
        report, to_csv = _analyze_dihedral(args), _dihedral_csv
    else:
        report, to_csv = _analyze_abelian(args), _abelian_csv
    if args.format == "json":
        _emit(lambda: _report_pieces(report), args.out)
    else:
        _emit(lambda: (to_csv(report),), args.out)
    return 0


def _cmd_scan(args) -> int:
    if args.n_min < 3 or args.n_max < args.n_min:
        raise ValueError("need 3 <= n-min <= n-max")
    if args.primes_per_n < 1:
        raise ValueError("need at least one prime per n")
    rows = _scan_rows(args.n_min, args.n_max, args.primes_per_n)
    if args.format == "json":
        import json

        text = json.dumps({"version": __version__, "rows": rows}, indent=2) + "\n"
    else:
        text = _csv("n,p,i0,k,in_omega,determinable,signature", (row.values() for row in rows))
    _emit(lambda: (text,), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    command = {"analyze": _cmd_analyze, "scan": _cmd_scan}.get(args.command, _cmd_verify)
    try:
        code = command(args)
        # a reader that closed stdout early is seen here, not at exit
        sys.stdout.flush()
        return code
    except (ValueError, LimitExceeded, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            _stdout_to_devnull()
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
