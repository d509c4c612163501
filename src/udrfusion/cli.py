"""Command line front end: analyze one action, scan a range, or run the
verification families.  Output is deterministic; rerunning a command
reproduces it byte for byte.

This module holds the parser, the dispatch, the writers and the abelian
analyze, and at load imports only what they need.  The dihedral commands
keep their bodies in modules of their own, which each imports when it
starts, once: cli_dihedral for analyze dihedral and scan, cli_verify for
verify.  So analyze abelian compiles no dihedral code and never loads
cohomology, deformation, dihedral or fusion, and verify and scan never
load abelian.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .ffield import LimitExceeded
from .records import UdrClass, VerificationReport

# JSON reports carry the ring class label; CSV cells carry its comma-free tag
_CSV_TAGS = {cls.label: cls.value for cls in UdrClass}

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
    set, for _report_pieces to write.  Without an orbit set every field
    is null."""
    if orbit_set is None:
        return dict.fromkeys(("k", "numbers", "orbit_count", "representatives"))
    return {
        "k": k,
        "numbers": {str(size): cnt for size, cnt in orbit_set.size_census().items()},
        "orbit_count": orbit_set.orbit_count,
        "representatives": orbit_set,
    }


def _report(params: dict, k: int | None, orbit_set, reps: list, checks) -> dict:
    """The report of an analyze: its params, the fusion block of orbit_set
    (null without one), its rows and its checks."""
    return {
        "version": __version__,
        "params": params,
        "fusion": _fusion_block(k, orbit_set),
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


def _report_csv(report: dict) -> str:
    """The CSV of an analyze report: one line per row of reps, the
    params first (lists joined by x, the group left out), then the
    fields that are not null, with the ring class written as its tag."""
    params = {key: "x".join(map(str, v)) if isinstance(v, list) else v
              for key, v in report["params"].items() if key != "group"}
    fields = [key for key, v in report["reps"][0].items() if v is not None]
    return _csv(
        ",".join([*params, *fields]),
        ([*params.values(), *(_CSV_TAGS[row[key]] if key == "udr" else row[key] for key in fields)]
         for row in report["reps"]),
    )


def _analyze_abelian(args) -> tuple:
    """The params, k, orbit set, rows and checks of the report of analyze
    abelian on the parsed arguments, for _report."""
    from . import abelian

    params = abelian.AbelianParams.standard(_parse_int_list(args.orders, "--orders"), args.p)
    e1 = _parse_int_list(args.theta1, "--theta1")
    e2 = _parse_int_list(args.theta2, "--theta2")
    pair = abelian.CharacterPair.from_exponents(params, e1, e2)
    dd = abelian.abelian_dims(pair)
    # the projector's d1 is a rank, found without counting trivial characters
    projected = abelian.abelian_dims_projector(pair)
    at = (params.cyclic_orders, params.p)
    checks = [
        VerificationReport(
            "fixed_count_power_rule", at,
            abelian.abelian_fixed_count(pair) == params.p ** projected.d1,
        ),
        VerificationReport("dims_match_projector", at, projected == dd),
    ]
    # the fusion block and its oracle check appear only where the brute
    # force, which refuses the rest, could still check them
    try:
        matches = abelian.abelian_fixed_count_bruteforce(pair) == abelian.abelian_fixed_count(pair)
    except LimitExceeded:
        orbit_set = None
    else:
        orbit_set = abelian.abelian_orbits(pair)
        checks.append(VerificationReport("fixed_count_matches_bruteforce", at, matches))
    report_params = {
        "group": "abelian",
        "orders": list(params.cyclic_orders),
        "p": params.p,
        "theta1": list(pair.theta1),
        "theta2": list(pair.theta2),
    }
    row = {"j": None, "gcd": None, "T": None, "in_omega": None,
           "d1": dd.d1, "d2": dd.d2, "udr": abelian.abelian_udr(pair).label}
    return report_params, None, orbit_set, [row], checks


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
                print(f"FAIL {token} {par} witness={_jsonable(report.witness)}")
        if total == family_total:
            # a family that checked nothing must not pass
            total += 1
            failed += 1
            print(f"FAIL {token} no instances (n-max {ceiling})")
    print(f"{total} checks, {failed} failed")
    return 1 if failed else 0


def _cmd_analyze(args) -> int:
    if args.family == "dihedral":
        from . import cli_dihedral

        report = _report(*cli_dihedral.analyze_dihedral(args))
    else:
        report = _report(*_analyze_abelian(args))
    if args.format == "json":
        _emit(lambda: _report_pieces(report), args.out)
    else:
        _emit(lambda: (_report_csv(report),), args.out)
    return 0


def _cmd_scan(args) -> int:
    from . import cli_dihedral

    rows = cli_dihedral.scan_rows(args.n_min, args.n_max, args.primes_per_n)
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
