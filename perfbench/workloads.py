"""Workloads of the udrfusion benchmark: which CLI invocations each one runs
for a given seed, and how each invocation's output is checked.

The seed only chooses instances; the program receives only the generated
argv.  Every instance a seed can choose has a reference in
references.json, recorded from the CLI at the commit that defined the
benchmark (see record_references.py).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from math import gcd
from pathlib import Path

WORKLOADS = ("verify-default", "scan-signatures", "analyze-p1k", "abelian-catalog")

REFERENCES_PATH = Path(__file__).with_name("references.json")

# verify at the default ceilings ran this many checks at the commit that
# defined the benchmark; a run that checks fewer is a failure.
VERIFY_MIN_CHECKS = 371

SCAN_ARGV = ("scan", "dihedral", "--n-min", "3", "--n-max", "30")

# analyze-p1k: a prime near 1000 for each rank.  Only faithful actions
# (gcd(i0, n) = 1, so every orbit but the origin has size n or 2n) are
# drawn: the other indices emit two to four times as many orbits, and the
# seed, not the code, would then move wall_s.
ANALYZE_RANKS = (8, 10, 12)
ANALYZE_PRIME_FLOOR = 950
ANALYZE_FIXED = (12, 1)

# abelian-catalog: Z/2 x Z/3 at the largest valid prime with
# order * p^2 under the 10^6 sweep guard (6 * 397^2 = 945,654).  Pairs are
# drawn from those where both characters are nontrivial and together
# faithful, so every call emits the same number of orbits.
ABELIAN_ORDERS = (2, 3)
ABELIAN_PRIME = 397
ABELIAN_PAIRS_PER_SEED = 8

_VERIFY_SUMMARY = re.compile(r"(\d+) checks, (\d+) failed")


def _is_prime(m: int) -> bool:
    return m >= 2 and all(m % f for f in range(2, int(m**0.5) + 1))


def analyze_prime(n: int) -> int:
    """Smallest odd prime p >= ANALYZE_PRIME_FLOOR with p = 1 (mod n)."""
    p = ANALYZE_PRIME_FLOOR
    while not (p % n == 1 and p % 2 == 1 and _is_prime(p)):
        p += 1
    return p


def _analyze_argv(n: int, i0: int) -> tuple[str, ...]:
    return ("analyze", "dihedral", "--n", str(n), "--p", str(analyze_prime(n)), "--i0", str(i0))


def _faithful_indices(n: int) -> list[int]:
    return [i for i in range(1, (n + 1) // 2) if gcd(i, n) == 1]


def _abelian_argv(e1: tuple[int, int], e2: tuple[int, int]) -> tuple[str, ...]:
    return (
        "analyze", "abelian",
        "--orders", ",".join(map(str, ABELIAN_ORDERS)),
        "--p", str(ABELIAN_PRIME),
        "--theta1", ",".join(map(str, e1)),
        "--theta2", ",".join(map(str, e2)),
    )


def _faithful_pairs() -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Exponent pairs of nontrivial characters whose joint kernel is trivial."""
    chars = [(a, b) for a in range(ABELIAN_ORDERS[0]) for b in range(ABELIAN_ORDERS[1])]
    nontrivial = [c for c in chars if c != (0, 0)]
    return [
        (c1, c2)
        for c1 in nontrivial
        for c2 in nontrivial
        if all(gcd(x, y, m) == 1 for x, y, m in zip(c1, c2, ABELIAN_ORDERS))
    ]


def instances(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The argv list, in run order, that one round of the workload runs."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify-default":
        return [("verify",)]
    if workload == "scan-signatures":
        return [SCAN_ARGV]
    if workload == "analyze-p1k":
        picks = [
            ANALYZE_FIXED if n == ANALYZE_FIXED[0] else (n, rng.choice(_faithful_indices(n)))
            for n in ANALYZE_RANKS
        ]
        rng.shuffle(picks)
        return [_analyze_argv(n, i0) for n, i0 in picks]
    if workload == "abelian-catalog":
        pairs = rng.sample(_faithful_pairs(), ABELIAN_PAIRS_PER_SEED)
        return [_abelian_argv(e1, e2) for e1, e2 in pairs]
    raise ValueError(f"unknown workload {workload!r}")


def candidates() -> list[tuple[str, ...]]:
    """Every argv a seed can choose that is checked against a reference."""
    return (
        [SCAN_ARGV]
        + [_analyze_argv(n, i0) for n in ANALYZE_RANKS for i0 in _faithful_indices(n)]
        + [_abelian_argv(e1, e2) for e1, e2 in _faithful_pairs()]
    )


def items_in(argv: tuple[str, ...], stdout: bytes) -> int:
    """Work items in a correct output: rows for scan, orbits for a
    dihedral analyze, one pair for an abelian analyze."""
    if argv[0] == "scan":
        return stdout.count(b"\n") - 1
    if argv[:2] == ("analyze", "dihedral"):
        return json.loads(stdout)["fusion"]["orbit_count"]
    return 1


def failed_checks(stdout: bytes) -> list[str]:
    """The checks an output reports as failed: FAIL lines, or JSON check
    entries with passed false.  A reference must have none."""
    if stdout.startswith(b"{"):
        return [c.get("name", "?") for c in json.loads(stdout).get("checks", [])
                if c.get("passed") is False]
    return [line for line in stdout.decode(errors="replace").splitlines()
            if line.startswith("FAIL")]


def load_references() -> dict:
    return json.loads(REFERENCES_PATH.read_text())


def check(argv, returncode: int, stdout: bytes, references: dict) -> tuple[int | None, str]:
    """Gate one invocation.  Returns (items, "") when the output is correct
    and (None, reason) when it is not."""
    if returncode != 0:
        return None, f"exit code {returncode}"
    if argv[0] == "verify":
        lines = stdout.decode(errors="replace").splitlines()
        summary = _VERIFY_SUMMARY.fullmatch(lines[-1]) if lines else None
        passed = sum(line.startswith("PASS ") for line in lines)
        if any(line.startswith("FAIL") for line in lines):
            return None, "a FAIL line"
        if summary is None:
            return None, "no summary line"
        total, failed = int(summary[1]), int(summary[2])
        if failed or total != passed or total < VERIFY_MIN_CHECKS:
            return None, f"summary {lines[-1]!r} with {passed} PASS lines"
        return passed, ""
    ref = references.get(" ".join(argv))
    if ref is None:
        return None, "no reference for this instance"
    if hashlib.sha256(stdout).hexdigest() != ref["sha256"]:
        return None, "stdout differs from the reference"
    return ref["items"], ""
