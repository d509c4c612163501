"""The writers of the calculator commands and the body of analyze
abelian.  cli imports this module when analyze or scan starts; the
parser and verify never load it.

abelian is loaded only inside analyze_abelian, so scan and analyze
dihedral load no abelian, and json only inside the JSON writer, so CSV
output loads no json.
"""

from __future__ import annotations

import sys

from . import __version__, cli
from .records import LimitExceeded, UdrClass, VerificationReport

# JSON reports carry the ring class label; CSV cells carry its comma-free tag
CSV_TAGS = {cls.label: cls.value for cls in UdrClass}


def parse_int_list(text: str, flag: str) -> list[int]:
    """The integers of text, comma-separated; an empty item is refused
    with the rest, so that "2,,3" is not read as "2,3"."""
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated integer list, got {text!r}")


def emit(pieces, out_path: str | None) -> None:
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
        cli.stdout_to_devnull()
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.writelines(pieces())
    if broken is not None:
        raise broken


def check_entry(report: VerificationReport) -> dict:
    return {
        "name": report.check_name,
        "params": list(report.parameters),
        "passed": report.passed,
        "witness": cli.jsonable(report.witness),
    }


# a report's one large value, the representatives of its fusion block,
# stands in the report as the orbit set itself and is written run by run;
# json.dumps writes the rest around a placeholder.  With indent set, json
# takes its pure-Python encoder, one call per value.
PLACEHOLDER = "@representatives@"


def report_pieces(report: dict):
    """json.dumps(report, indent=2) and a line break, byte for byte, in
    pieces, with the orbit set that stands in fusion.representatives
    written as the list of its representatives: the report up to that
    list, one piece per run, and the rest.  No pair is built per orbit: a
    run's pairs are one join of its ys, their x written into the
    separator, and each y is read from a table of the p coordinates'
    text.  A report whose representatives are null is one piece."""
    import json

    fusion = report["fusion"]
    orbit_set = fusion["representatives"]
    if orbit_set is None:
        yield json.dumps(report, indent=2) + "\n"
        return
    skeleton = {**report, "fusion": {**fusion, "representatives": PLACEHOLDER}}
    head, tail = json.dumps(skeleton, indent=2).split(json.dumps(PLACEHOLDER), 1)
    yield head + "["
    text = list(map(str, range(orbit_set.p))).__getitem__
    opening = "\n      "
    for x, ys, *_ in orbit_set.runs:
        pair = f"[\n        {x},\n        "
        yield "".join((opening, pair, f"\n      ],\n      {pair}".join(map(text, ys)), "\n      ]"))
        opening = ",\n      "
    yield ("\n    ]" if orbit_set.runs else "]") + tail + "\n"


def fusion_block(k: int | None, orbit_set) -> dict:
    """The fusion block of a report; its representatives are the orbit
    set, for report_pieces to write.  Without an orbit set every field
    is null."""
    if orbit_set is None:
        return dict.fromkeys(("k", "numbers", "orbit_count", "representatives"))
    return {
        "k": k,
        "numbers": {str(size): cnt for size, cnt in orbit_set.size_census().items()},
        "orbit_count": orbit_set.orbit_count,
        "representatives": orbit_set,
    }


def report(params: dict, k: int | None, orbit_set, reps: list, checks) -> dict:
    """The report of an analyze: its params, the fusion block of orbit_set
    (null without one), its rows and its checks."""
    return {
        "version": __version__,
        "params": params,
        "fusion": fusion_block(k, orbit_set),
        "reps": reps,
        "checks": [check_entry(c) for c in checks],
    }


def csv(header: str, rows) -> str:
    """The header line, then one comma-joined line per row, with booleans
    written as true/false."""
    lines = [header]
    for row in rows:
        lines.append(",".join(str(v).lower() if isinstance(v, bool) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def report_csv(report: dict) -> str:
    """The CSV of an analyze report: one line per row of reps, the
    params first (lists joined by x, the group left out), then the
    fields that are not null, with the ring class written as its tag."""
    params = {key: "x".join(map(str, v)) if isinstance(v, list) else v
              for key, v in report["params"].items() if key != "group"}
    fields = [key for key, v in report["reps"][0].items() if v is not None]
    return csv(
        ",".join([*params, *fields]),
        ([*params.values(), *(CSV_TAGS[row[key]] if key == "udr" else row[key] for key in fields)]
         for row in report["reps"]),
    )


def analyze_abelian(args) -> tuple:
    """The params, k, orbit set, rows and checks of the report of analyze
    abelian on the parsed arguments, for report."""
    from . import abelian

    params = abelian.AbelianParams.standard(parse_int_list(args.orders, "--orders"), args.p)
    e1 = parse_int_list(args.theta1, "--theta1")
    e2 = parse_int_list(args.theta2, "--theta2")
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
