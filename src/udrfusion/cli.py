"""Command line front end: analyze one action, scan a range, or run the
verification families.  Output is deterministic; rerunning a command
reproduces it byte for byte.

This module holds what the parser and the dispatch need: the parser,
with verify's ceilings and their check, main, the three command
functions and verify's printer, and at load imports only the standard
library, the package's __version__ and records.  Each command imports
the modules of its body when it starts, once: cli_report (the writers
and the abelian analyze) for analyze and scan, cli_dihedral for analyze
dihedral and scan, cli_verify for verify.  So analyze abelian compiles
no dihedral code and never loads cohomology, deformation, dihedral or
fusion, verify and scan never load abelian, and verify compiles no
writer.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .records import LimitExceeded

# verify's families, in the order it runs them: token -> (default n
# ceiling, largest n ceiling admitted).  Each largest ceiling is the last
# at which the family alone was estimated to run in under about 2 s on a
# 2-core Intel Xeon under CPython 3.11; a larger one is refused before any
# family runs.  cli_verify holds each family's reports function.
VERIFY_CEILINGS = {
    "thm42": (12, 119),
    "thm43": (12, 100),
    "thm11": (30, 267),
    "lemma410": (40, 3537),
    "cor34": (12, 133),
    "prop48": (12, 25),
    "cor49": (12, 25),
    "oracle-h1": (12, 265),
}


def _verify_ceilings(check: str, n_max: int | None) -> dict[str, int]:
    """The n ceiling of each family that check runs (every family for
    all): n_max if given, else the family's default.  A ceiling above the
    family's largest admitted one raises LimitExceeded."""
    ceilings = {}
    for token in VERIFY_CEILINGS if check == "all" else [check]:
        default, largest = VERIFY_CEILINGS[token]
        ceilings[token] = default if n_max is None else n_max
        if ceilings[token] > largest:
            raise LimitExceeded(
                f"verify {token} admits n-max up to {largest}, got {ceilings[token]}"
            )
    return ceilings


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
        choices=[*VERIFY_CEILINGS, "all"],
        default="all",
        help="which family to run (see README for what each token covers)",
    )
    verify.add_argument("--n-max", type=int, default=None, help="override the grid ceiling")
    return parser


# main and verify's printer share these two with cli_report's writers
def stdout_to_devnull() -> None:
    """Point the stdout descriptor at os.devnull, so that what is still
    buffered for a reader that has gone raises nothing at exit."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(jsonable(v) for v in value)
    return repr(value)


def _cmd_verify(args) -> int:
    # every ceiling is checked before the first family runs
    ceilings = _verify_ceilings(args.check, args.n_max)
    from . import cli_verify

    failed = total = 0
    for token, ceiling, reports in cli_verify.families(ceilings):
        family_total = total
        for report in reports:
            total += 1
            par = " ".join(str(v) for v in report.parameters)
            if report.passed:
                print(f"PASS {token} {par}")
            else:
                failed += 1
                print(f"FAIL {token} {par} witness={jsonable(report.witness)}")
        if total == family_total:
            # a family that checked nothing must not pass
            total += 1
            failed += 1
            print(f"FAIL {token} no instances (n-max {ceiling})")
    print(f"{total} checks, {failed} failed")
    return 1 if failed else 0


def _cmd_analyze(args) -> int:
    from . import cli_report

    if args.family == "dihedral":
        from . import cli_dihedral

        report = cli_report.report(*cli_dihedral.analyze_dihedral(args))
    else:
        report = cli_report.report(*cli_report.analyze_abelian(args))
    if args.format == "json":
        cli_report.emit(lambda: cli_report.report_pieces(report), args.out)
    else:
        cli_report.emit(lambda: (cli_report.report_csv(report),), args.out)
    return 0


def _cmd_scan(args) -> int:
    from . import cli_dihedral, cli_report

    rows = cli_dihedral.scan_rows(args.n_min, args.n_max, args.primes_per_n)
    if args.format == "json":
        import json

        text = json.dumps({"version": __version__, "rows": rows}, indent=2) + "\n"
    else:
        text = cli_report.csv(
            "n,p,i0,k,in_omega,determinable,signature", (row.values() for row in rows)
        )
    cli_report.emit(lambda: (text,), args.out)
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
            stdout_to_devnull()
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    print("error: run the CLI as `python -m udrfusion`, not as a module of it", file=sys.stderr)
    sys.exit(2)
