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
import json
import sys
from itertools import chain
from math import gcd

from . import __version__
from .ffield import LimitExceeded, find_primes
from .records import UdrClass, VerificationReport

_VERIFY_DEFAULT_NMAX = {
    "thm42": 12,
    "thm43": 12,
    "thm11": 30,
    "lemma410": 40,
    "cor34": 12,
    "prop48": 12,
    "cor49": 12,
    "oracle-h1": 12,
}
_VERIFY_ORDER = list(_VERIFY_DEFAULT_NMAX)

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
        choices=_VERIFY_ORDER + ["all"],
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


def _emit(text: str, out_path: str | None) -> None:
    sys.stdout.write(text)
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write(text)


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


# a report's one large value, the representatives list of its fusion
# block, is written from a row template at its nesting depth; json.dumps
# writes the rest around a placeholder.  With indent set, json takes its
# pure-Python encoder, one call per value.
_PLACEHOLDER = "@representatives@"
_REPRESENTATIVE_ROW = "[\n        %d,\n        %d\n      ]"


def _report_text(report: dict) -> str:
    """json.dumps(report, indent=2) and a line break, byte for byte."""
    fusion = report["fusion"]
    representatives = fusion["representatives"]
    if not representatives:
        return json.dumps(report, indent=2) + "\n"
    skeleton = {**report, "fusion": {**fusion, "representatives": _PLACEHOLDER}}
    head, tail = json.dumps(skeleton, indent=2).split(json.dumps(_PLACEHOLDER), 1)
    template = ",\n      ".join([_REPRESENTATIVE_ROW] * len(representatives))
    rows = template % tuple(chain.from_iterable(representatives))
    return "".join((head, "[\n      ", rows, "\n    ]", tail, "\n"))


def _fusion_block(k: int | None, orbit_set) -> dict:
    return {
        "k": k,
        "numbers": {str(size): cnt for size, cnt in orbit_set.size_census().items()},
        "orbit_count": orbit_set.orbit_count,
        "representatives": orbit_set.representatives,
    }


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
    from .fusion import fusion_orbits_bruteforce, fusion_orbits_closed_form

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


# verify families that check the brute-force orbit sweep of every (n, p, i0)
_ORBIT_FAMILIES = ("prop48", "cor49")

# verify refuses a run whose families need more work than this, counted
# in units of about one group element applied to one point by an orbit
# sweep (_family_work; about 22 ns on a 2-core Intel Xeon under CPython
# 3.11, so the limit is a few seconds).  The default ceilings need about
# 1.9 * 10^6, --n-max 20 about 4.8 * 10^7 and --n-max 25 about 9.7 * 10^7.
VERIFY_WORK_LIMIT = 10**8


def _family_work(token: str, n: int, primes: list[int], oracle_limit: int) -> int:
    """About how many work units family token spends on rank n, checked
    at primes where it takes them; the cocycle oracle runs on a group of
    at most oracle_limit elements.  Each family counts the steps that
    dominate it, weighted by their cost in units (measured with each
    family alone at n-max 60 to 2000)."""
    h = (n - 1) // 2  # two-dimensional irreducibles, and action indices
    if token in _ORBIT_FAMILIES:  # group elements applied to points
        return sum(h * p * p * 2 * n for p in primes)
    if token == "oracle-h1":  # cells: a cocycle system each inside the guard
        return sum(h * h * (6000 if 2 * n * p * p <= oracle_limit else 32) for p in primes)
    if token == "thm42":  # kernel sets of each action against each other
        return 16 * h**3
    if token == "thm43":  # pairs of indices, with their kernels
        return 32 * h**3
    if token == "cor34":  # the center scanned over 2n elements per action
        return 128 * 2 * n * h
    if n % 2:  # thm11 and lemma410 take even n only
        return 0
    if token == "thm11":  # signature-table entries at two primes
        return 128 * h * h
    if token == "lemma410":  # one arithmetic report per even index
        return 128 * (h // 2)
    raise ValueError(f"unknown check {token!r}")


def _check_verify_work(n_maxes: dict[str, int]) -> None:
    """Raise LimitExceeded at the first rank n whose running work, summed
    over the families n_maxes (token -> ceiling), passes
    VERIFY_WORK_LIMIT, so that a huge ceiling costs nothing.  prop48 and
    cor49 share their sweeps, which count once."""
    from .cohomology import H1_ORACLE_GROUP_ORDER_LIMIT

    tokens = [token for token in n_maxes if token != "cor49" or "prop48" not in n_maxes]
    # only the orbit families and the cocycle oracle take primes
    prime_tokens = {"oracle-h1", *_ORBIT_FAMILIES}
    top = max(n_maxes.values())
    work = 0
    for n in range(3, top + 1):
        active = [token for token in tokens if n <= n_maxes[token]]
        primes = find_primes(n, 2) if prime_tokens.intersection(active) else []
        work += sum(
            _family_work(token, n, primes, H1_ORACLE_GROUP_ORDER_LIMIT) for token in active
        )
        if work > VERIFY_WORK_LIMIT:
            raise LimitExceeded(
                f"verify up to n = {n} (of n-max {top}) needs about {work} units of work, "
                f"limit is {VERIFY_WORK_LIMIT}"
            )


def _orbit_instances(n_max: int) -> list[tuple[int, int]]:
    """The (n, p) whose sweeps the orbit families check up to n_max."""
    return [(n, p) for n in range(3, n_max + 1) for p in find_primes(n, 2)]


def _run_orbit_families(
    tokens: list[str], instances: list[tuple[int, int]]
) -> dict[str, list[VerificationReport]]:
    """Reports of the orbit families tokens on instances, from one sweep
    per (n, p, i0) that all of them check and none of them keeps."""
    from .deformation import check_orbit_census, check_orbit_closed_form
    from .dihedral import DihedralParams
    from .fusion import fusion_orbits_bruteforce

    checks = {"prop48": check_orbit_closed_form, "cor49": check_orbit_census}
    reports: dict[str, list[VerificationReport]] = {token: [] for token in tokens}
    for n, p in instances:
        params = DihedralParams.standard(n, p)
        for i0 in params.irr2_indices():
            brute = fusion_orbits_bruteforce(params, i0)
            for token in tokens:
                reports[token].append(checks[token](params, i0, brute))
    return reports


def _run_verify_family(token: str, n_max: int):
    """The reports of family token up to n_max, one at a time."""
    from .cohomology import d1_oracle_cocycles, dims
    from .deformation import (
        check_center_constraint,
        check_determinability_rule,
        check_gcd_pair_identity,
        check_kernel_sets_detect_fusion,
        check_maximality_matches_doubling_fibers,
    )
    from .dihedral import DihedralParams, omega_set

    if token == "thm42":
        for n in range(3, n_max + 1):
            params = DihedralParams.standard(n)
            for i0 in sorted(omega_set(params)):
                yield check_kernel_sets_detect_fusion(params, i0)
    elif token == "thm43":
        for n in range(3, n_max + 1):
            yield check_maximality_matches_doubling_fibers(DihedralParams.standard(n))
    elif token == "thm11":
        for n in range(4, n_max + 1, 2):
            yield check_determinability_rule(n)
    elif token == "lemma410":
        for n in range(4, n_max + 1, 2):
            for i0 in range(2, (n + 1) // 2, 2):
                yield check_gcd_pair_identity(n, i0)
    elif token == "cor34":
        for n in range(3, n_max + 1):
            params = DihedralParams.standard(n)
            for i0 in params.irr2_indices():
                yield check_center_constraint(params, i0)
    elif token == "oracle-h1":
        for n in range(3, n_max + 1):
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
    else:
        raise ValueError(f"unknown check {token!r}")


def _cmd_verify(args) -> int:
    tokens = _VERIFY_ORDER if args.check == "all" else [args.check]
    n_maxes = {
        token: args.n_max if args.n_max is not None else _VERIFY_DEFAULT_NMAX[token]
        for token in tokens
    }
    # the work of every family is bounded before any family runs.  The
    # orbit families have one ceiling and share their sweeps; their
    # reports wait here until each family's turn to print, while the other
    # families print their reports as they come
    _check_verify_work(n_maxes)
    orbit_tokens = [token for token in tokens if token in _ORBIT_FAMILIES]
    instances = _orbit_instances(n_maxes[orbit_tokens[0]]) if orbit_tokens else []
    pending: dict[str, list[VerificationReport]] = {}
    failed = 0
    total = 0
    for token in tokens:
        n_max = n_maxes[token]
        if token not in _ORBIT_FAMILIES:
            reports = _run_verify_family(token, n_max)
        else:
            if token not in pending:
                pending.update(_run_orbit_families(orbit_tokens, instances))
            reports = pending.pop(token)
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
    text = _report_text(report) if args.format == "json" else to_csv(report)
    _emit(text, args.out)
    return 0


def _cmd_scan(args) -> int:
    if args.n_min < 3 or args.n_max < args.n_min:
        raise ValueError("need 3 <= n-min <= n-max")
    if args.primes_per_n < 1:
        raise ValueError("need at least one prime per n")
    rows = _scan_rows(args.n_min, args.n_max, args.primes_per_n)
    if args.format == "json":
        text = json.dumps({"version": __version__, "rows": rows}, indent=2) + "\n"
    else:
        text = _csv("n,p,i0,k,in_omega,determinable,signature", (row.values() for row in rows))
    _emit(text, args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "scan":
            return _cmd_scan(args)
        return _cmd_verify(args)
    except (ValueError, LimitExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
