from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path
from time import perf_counter

import pytest

from udrfusion import __version__, abelian, cli, cohomology, deformation, fusion
from udrfusion.cli import main
from udrfusion.cohomology import CohomologyDims
from udrfusion.dihedral import DihedralParams
from udrfusion.ffield import LimitExceeded
from udrfusion.fusion import FusionOrbit
from udrfusion.records import VerificationReport

REFERENCES_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class _Writes(list):
    """A stdout that keeps each write apart."""

    def write(self, text):
        self.append(text)
        return len(text)

    def flush(self):
        pass


# an abelian report of 134 runs, 1,068,323 bytes of JSON
_MULTI_RUN_ARGV = ["analyze", "abelian", "--orders", "2,3", "--p", "397",
                   "--theta1", "1,1", "--theta2", "1,2"]


def test_analyze_dihedral_json(capsys):
    rc, out, err = _run(capsys, ["analyze", "dihedral", "--n", "5", "--i0", "2"])
    assert rc == 0 and err == ""
    report = json.loads(out)
    assert list(report) == ["version", "params", "fusion", "reps", "checks"]
    assert report["version"] == __version__
    assert report["params"] == {"group": "dihedral", "n": 5, "p": 11, "omega": 3, "i0": 2}
    assert report["fusion"]["k"] == 5
    assert report["fusion"]["numbers"] == {"1": 1, "5": 10, "10": 7}
    assert report["fusion"]["orbit_count"] == 18
    assert report["fusion"]["representatives"][0] == [0, 0]
    assert report["reps"] == [
        {"j": 1, "gcd": 1, "T": "theta2", "in_omega": True, "d1": 1, "d2": 2,
         "udr": "Zp[[t]]/(t^2,pt)"},
        {"j": 2, "gcd": 1, "T": "theta1", "in_omega": True, "d1": 0, "d2": 1,
         "udr": "Zp"},
    ]
    assert [c["name"] for c in report["checks"]] == [
        "orbit_closed_form_matches_bruteforce",
        "orbit_census_closed_form",
        "cohomology_dims_structure",
        "center_constraint",
        "kernel_sets_detect_fusion",
    ]
    assert all(c["passed"] for c in report["checks"])


def test_analyze_output_is_deterministic(capsys):
    argv = ["analyze", "dihedral", "--n", "6", "--i0", "2"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_dims_structure_aggregate_fails_with_any_index(capsys, monkeypatch):
    real_dims = cohomology.dims

    def wrong_d2(params, i0, j):
        dd = real_dims(params, i0, j)
        return CohomologyDims(dd.d1, dd.d2 + 1)

    monkeypatch.setattr(cohomology, "dims", wrong_d2)
    rc, out, _ = _run(capsys, ["analyze", "dihedral", "--n", "5", "--i0", "2"])
    assert rc == 0
    entries = [
        (c["params"], c["passed"])
        for c in json.loads(out)["checks"]
        if c["name"] == "cohomology_dims_structure"
    ]
    assert entries == [([5, 11, 2, 1], False), ([5, 11, 2, 2], False), ([5, 11, 2], False)]


def test_analyze_dihedral_csv(capsys):
    rc, out, _ = _run(capsys, ["analyze", "dihedral", "--n", "5", "--i0", "2", "--format", "csv"])
    assert rc == 0
    assert out == (
        "n,p,omega,i0,j,gcd,T,in_omega,d1,d2,udr\n"
        "5,11,3,2,1,1,theta2,true,1,2,ZpTtorsion\n"
        "5,11,3,2,2,1,theta1,true,0,1,Zp\n"
    )


def test_analyze_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = _run(
        capsys, ["analyze", "dihedral", "--n", "3", "--i0", "1", "--out", str(target)]
    )
    assert rc == 0
    assert target.read_text() == out


def test_analyze_dihedral_outside_omega(capsys):
    rc, out, _ = _run(capsys, ["analyze", "dihedral", "--n", "12", "--i0", "1"])
    assert rc == 0
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    assert "kernel_sets_detect_fusion" not in names
    assert all(row["udr"] == "Zp" for row in report["reps"])
    assert [row["in_omega"] for row in report["reps"]] == [False, True, False, True, False]


def test_analyze_abelian_json(capsys):
    rc, out, _ = _run(
        capsys,
        ["analyze", "abelian", "--orders", "3", "--p", "7", "--theta1", "1", "--theta2", "0"],
    )
    assert rc == 0
    report = json.loads(out)
    assert list(report) == ["version", "params", "fusion", "reps", "checks"]
    assert report["params"] == {
        "group": "abelian", "orders": [3], "p": 7, "theta1": [2], "theta2": [1],
    }
    assert report["fusion"]["numbers"] == {"1": 7, "3": 14}
    assert report["fusion"]["orbit_count"] == 21
    assert report["reps"] == [
        {"j": None, "gcd": None, "T": None, "in_omega": None, "d1": 1, "d2": 1,
         "udr": "Zp[Z/p]"},
    ]
    assert [c["name"] for c in report["checks"]] == [
        "fixed_count_power_rule",
        "dims_match_projector",
        "fixed_count_matches_bruteforce",
    ]
    assert all(c["passed"] for c in report["checks"])


def test_analyze_abelian_csv(capsys):
    rc, out, _ = _run(
        capsys,
        ["analyze", "abelian", "--orders", "2,3", "--p", "7", "--theta1", "1,1",
         "--theta2", "0,0", "--format", "csv"],
    )
    assert rc == 0
    assert out == "orders,p,theta1,theta2,d1,d2,udr\n2x3,7,6x2,1x1,1,1,ZpCp\n"


def test_scan_csv_frozen(capsys):
    rc, out, _ = _run(capsys, ["scan", "dihedral", "--n-min", "3", "--n-max", "6"])
    assert rc == 0
    assert out == (
        "n,p,i0,k,in_omega,determinable,signature\n"
        "3,7,1,3,true,true,T\n"
        "4,5,1,4,false,true,Z\n"
        "5,11,1,5,true,true,ZT\n"
        "5,11,2,5,true,true,TZ\n"
        "6,7,1,6,false,true,ZZ\n"
        "6,7,2,3,true,true,TT\n"
    )


def test_scan_json(capsys):
    rc, out, _ = _run(
        capsys, ["scan", "dihedral", "--n-min", "3", "--n-max", "4", "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(out)
    assert list(payload) == ["version", "rows"]
    assert payload["rows"][0] == {
        "n": 3, "p": 7, "i0": 1, "k": 3, "in_omega": True,
        "determinable": True, "signature": "T",
    }


def test_scan_sees_undeterminable_rank(capsys):
    rc, out, _ = _run(capsys, ["scan", "dihedral", "--n-min", "12", "--n-max", "12"])
    assert rc == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 5
    assert all(row.split(",")[5] == "false" for row in rows)


def test_scan_multiple_primes(capsys):
    rc, out, _ = _run(
        capsys, ["scan", "dihedral", "--n-min", "3", "--n-max", "3", "--primes-per-n", "2"]
    )
    assert rc == 0
    assert out.strip().split("\n")[1:] == ["3,7,1,3,true,true,T", "3,13,1,3,true,true,T"]


def test_verify_single_family(capsys):
    rc, out, _ = _run(capsys, ["verify", "--check", "thm42", "--n-max", "6"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "4 checks, 0 failed"
    assert all(line.startswith("PASS thm42 ") for line in lines[:-1])


def test_verify_gcd_family_full_range(capsys):
    rc, out, _ = _run(capsys, ["verify", "--check", "lemma410"])
    assert rc == 0
    assert out.strip().split("\n")[-1] == "90 checks, 0 failed"


def test_verify_oracle_family(capsys):
    rc, out, _ = _run(capsys, ["verify", "--check", "oracle-h1", "--n-max", "5"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "12 checks, 0 failed"


def test_verify_census_family(capsys):
    rc, out, _ = _run(capsys, ["verify", "--check", "cor49", "--n-max", "8"])
    assert rc == 0
    assert out.strip().split("\n")[-1].endswith(", 0 failed")


def test_verify_without_instances_fails(capsys):
    rc, out, _ = _run(capsys, ["verify", "--check", "lemma410", "--n-max", "5"])
    assert rc == 1
    assert out == "FAIL lemma410 no instances (n-max 5)\n1 checks, 1 failed\n"
    rc, out, _ = _run(capsys, ["verify", "--n-max", "2"])
    assert rc == 1
    lines = out.strip().split("\n")
    assert lines[:-1] == [
        f"FAIL {token} no instances (n-max 2)"
        for token in ("thm42", "thm43", "thm11", "lemma410", "cor34", "prop48", "cor49", "oracle-h1")
    ]
    assert lines[-1] == "8 checks, 8 failed"


def test_cli_abelian_prime_search_ceiling(capsys):
    rc, out, err = _run(
        capsys, ["analyze", "abelian", "--orders", "1000003", "--theta1", "0", "--theta2", "0"]
    )
    assert rc == 2 and out == ""
    assert err.startswith("error: no odd prime")


def test_cli_abelian_group_order_ceiling(capsys):
    # 2^22 elements: refused before any element is enumerated
    twos, ones = ",".join(["2"] * 22), ",".join(["1"] * 22)
    start = perf_counter()
    rc, out, err = _run(capsys, ["analyze", "abelian", "--orders", twos, "--p", "3",
                                 "--theta1", ones, "--theta2", ones])
    assert perf_counter() - start < 1.0
    assert rc == 2 and out == ""
    assert err == "error: group has 4194304 elements, limit is 10000\n"


def test_cli_closed_form_orbit_ceiling(capsys):
    # about 1.7e11 orbits: a p above the orbit limit is refused before
    # the params are built, as the census has at least p orbits
    start = perf_counter()
    rc, out, err = _run(
        capsys, ["analyze", "dihedral", "--n", "3", "--p", "1000003", "--i0", "1"]
    )
    assert perf_counter() - start < 1.0
    assert rc == 2 and out == ""
    assert err == "error: --p 1000003 gives at least p orbits, limit is 1000000\n"
    # below it, 1,502,501 orbits: refused from the census before any enumeration
    start = perf_counter()
    rc, out, err = _run(capsys, ["analyze", "dihedral", "--n", "3", "--p", "3001", "--i0", "1"])
    assert perf_counter() - start < 1.0
    assert rc == 2 and out == ""
    assert err == "error: action has 1502501 orbits, limit is 1000000\n"


def test_cli_huge_prime_is_refused_before_the_primality_test():
    # trial division of this p alone would take minutes
    proc = subprocess.run(
        [sys.executable, "-m", "udrfusion", "analyze", "dihedral",
         "--n", "3", "--p", str(2**61 - 1), "--i0", "1"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_analyze_abelian_at_a_61_bit_prime_finishes():
    # trial division of this p, or walking the divisors of p - 1, would
    # take minutes
    proc = subprocess.run(
        [sys.executable, "-m", "udrfusion", "analyze", "abelian", "--orders", "2",
         "--p", str(2**61 - 1), "--theta1", "1", "--theta2", "1"],
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["params"]["p"] == 2**61 - 1
    assert (report["reps"][0]["d1"], report["reps"][0]["d2"]) == (0, 1)
    assert all(check["passed"] for check in report["checks"])


def test_analyze_dihedral_refuses_a_rank_above_the_limit(capsys):
    # the checks are O(n^2): n = 100000 would run for tens of minutes
    proc = subprocess.run(
        [sys.executable, "-m", "udrfusion", "analyze", "dihedral", "--n", "100000", "--i0", "2"],
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: --n 100000 is above the rank limit {cli.ANALYZE_RANK_LIMIT}\n"
    rc, out, err = _run(
        capsys, ["analyze", "dihedral", "--n", str(cli.ANALYZE_RANK_LIMIT + 1), "--i0", "1"]
    )
    assert rc == 2 and out == "" and "rank limit" in err


def test_cli_error_exits():
    assert main(["analyze", "dihedral", "--n", "5", "--p", "6", "--i0", "1"]) == 2
    assert main(["analyze", "dihedral", "--n", "5", "--i0", "3"]) == 2
    assert main(["analyze", "dihedral", "--n", "2", "--i0", "1"]) == 2
    assert main(["analyze", "abelian", "--orders", "0", "--theta1", "1", "--theta2", "0"]) == 2
    assert main(["analyze", "abelian", "--orders", "3", "--p", "5",
                 "--theta1", "1", "--theta2", "0"]) == 2
    assert main(["analyze", "abelian", "--orders", "3", "--p", "7",
                 "--theta1", "x", "--theta2", "0"]) == 2
    assert main(["scan", "dihedral", "--n-min", "5", "--n-max", "3"]) == 2


def test_cli_error_messages(capsys):
    rc, out, err = _run(capsys, ["analyze", "dihedral", "--n", "5", "--p", "6", "--i0", "1"])
    assert rc == 2 and out == ""
    assert err.startswith("error: ")


def test_cli_unwritable_out_path(capsys, tmp_path):
    argv = ["analyze", "dihedral", "--n", "5", "--i0", "2"]
    _, report, _ = _run(capsys, argv)
    # stdout is written first and whole; the file fails after it
    rc, out, err = _run(capsys, [*argv, "--out", str(tmp_path / "missing" / "x.json")])
    assert rc == 2
    assert out == report
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_ends_with_one_error_line(unbuffered):
    # the reader takes 10 bytes of a 1 MB report and closes the pipe, as
    # `| head -c 10` does
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen([sys.executable, "-m", "udrfusion", *_MULTI_RUN_ARGV],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(10) == b'{\n  "versi'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert err == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_still_writes_the_whole_out_file(capsys, tmp_path, unbuffered):
    # the reader closes the pipe after 10 bytes; the --out file is still
    # written whole, and the run ends with the broken pipe's one error line
    _, report, _ = _run(capsys, _MULTI_RUN_ARGV)
    out_path = tmp_path / "report.json"
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen(
        [sys.executable, "-m", "udrfusion", *_MULTI_RUN_ARGV, "--out", str(out_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(10) == b'{\n  "versi'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert err == "error: [Errno 32] Broken pipe\n"
    assert out_path.read_text() == report


def test_closed_stdout_and_an_unwritable_out_path_end_with_the_file_error(
    tmp_path, capsys, monkeypatch
):
    # the pipe breaks at the first write and the file cannot be opened:
    # stdout is on os.devnull before the file is tried, so what is left
    # buffered cannot fail the flush at exit, and the one error line is
    # the file's
    class ClosedAtWrite(_Writes):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return target.fileno()

    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr(sys, "stdout", ClosedAtWrite())
        rc = main(["analyze", "dihedral", "--n", "5", "--i0", "2",
                   "--out", str(tmp_path / "missing" / "x.json")])
        assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] ") and err.count("\n") == 1 and err.endswith("\n")


def test_closed_stdout_seen_at_the_last_flush_ends_with_one_error_line(tmp_path, capsys, monkeypatch):
    # every write reached the pipe, and the reader closed it before the
    # rest was flushed: main flushes, so this is not left to the exit
    class ClosedAtFlush(_Writes):
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return target.fileno()

    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr(sys, "stdout", ClosedAtFlush())
        rc = main(["analyze", "dihedral", "--n", "5", "--i0", "2"])
        # what is left to flush at exit goes to devnull
        assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
    assert rc == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def test_cli_rejects_unknown_check(capsys):
    assert main(["verify", "--check", "thm99"]) == 2
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "udrfusion", "analyze", "dihedral", "--n", "3", "--i0", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["params"]["n"] == 3


def test_verify_sweeps_each_orbit_instance_once(capsys, monkeypatch):
    sweeps = Counter()
    real = fusion.fusion_orbits_bruteforce

    def counting(params, i0):
        sweeps[(params.n, params.p, i0)] += 1
        return real(params, i0)

    monkeypatch.setattr(fusion, "fusion_orbits_bruteforce", counting)
    rc, out, _ = _run(capsys, ["verify", "--n-max", "6"])
    assert rc == 0
    prop48 = [line.split()[2:] for line in out.splitlines() if line.startswith("PASS prop48 ")]
    cor49 = [line.split()[2:] for line in out.splitlines() if line.startswith("PASS cor49 ")]
    assert prop48 == cor49 and len(prop48) == 12
    # one sweep per distinct set of theta_i0 matrices at each prime, at one
    # of its instances: i0 = 1, 2 share theirs at n = 5, and (6, p, 2)
    # shares that of (3, p, 1) at p = 7 and 13
    instances = [tuple(map(int, par)) for par in prop48]
    assert set(sweeps) <= set(instances) and len(sweeps) == 8
    assert {_table_key(*instance) for instance in sweeps} == {
        _table_key(*instance) for instance in instances
    }
    assert set(sweeps.values()) == {1}


def _table_key(n, p, i0):
    """p and the set of matrices of theta_i0's table."""
    table = fusion._theta_table(DihedralParams.standard(n, p), i0)
    return p, frozenset(mat for _, mat in table)


def _handed_sweeps(monkeypatch, n_max):
    """(n, p, i0) -> the orbit set _sweep_reports hands to its checks up to
    n_max."""
    handed = {}

    def recording(params, i0, brute):
        handed[params.n, params.p, i0] = brute
        return VerificationReport("recorded", (params.n, params.p, i0), True)

    monkeypatch.setattr(deformation, "check_orbit_census", recording)
    cli._sweep_reports({"cor49": "check_orbit_census"}, n_max)
    return handed


def _unlike_a_fresh_sweep(handed):
    """The instances whose handed set differs from a fresh sweep of its own
    index in ==, runs, point sets or any orbit's stabilizer generators."""
    unlike = []
    for (n, p, i0), brute in handed.items():
        fresh = fusion.fusion_orbits_bruteforce(DihedralParams.standard(n, p), i0)
        if not (
            brute == fresh
            and brute.runs == fresh.runs
            and brute.point_sets == fresh.point_sets
            and [orb.stabilizer_gens for orb in brute.orbits]
            == [orb.stabilizer_gens for orb in fresh.orbits]
        ):
            unlike.append((n, p, i0))
    return unlike


def test_verify_hands_every_check_the_sweep_of_its_own_index(monkeypatch):
    handed = _handed_sweeps(monkeypatch, 12)
    # every (n, p, i0) of the default ceilings
    assert len(handed) == 60 and set(handed) == {
        (n, p, i0)
        for n in range(3, 13)
        for p in cli.find_primes(n, 2)
        for i0 in DihedralParams.standard(n, p).irr2_indices()
    }
    assert _unlike_a_fresh_sweep(handed) == []


def test_a_rename_that_keeps_the_swept_index_gens_is_caught(monkeypatch):
    monkeypatch.setattr(fusion, "renamed_sweep", lambda brute, table, other: brute)
    unlike = _unlike_a_fresh_sweep(_handed_sweeps(monkeypatch, 12))
    # i0 = 5 shares the table of i0 = 1 at n = 12
    assert (12, 13, 5) in unlike and (12, 13, 1) not in unlike


def test_prop48_fails_a_renamed_index_whose_closed_form_is_wrong(capsys, monkeypatch):
    real = deformation.fusion_orbits_closed_form

    def planted(params, i0):
        closed = real(params, i0)
        if (params.n, i0) != (11, 3):
            return closed
        # every point is its own image: no orbit of size > 1 matches
        return fusion.FusionOrbitSet(closed.runs, closed.p, lambda code: (code,))

    sweeps = Counter()
    real_sweep = fusion.fusion_orbits_bruteforce

    def counting(params, i0):
        sweeps[params.n, i0] += 1
        return real_sweep(params, i0)

    monkeypatch.setattr(deformation, "fusion_orbits_closed_form", planted)
    monkeypatch.setattr(fusion, "fusion_orbits_bruteforce", counting)
    rc, out, _ = _run(capsys, ["verify", "--check", "prop48"])
    assert rc == 1
    # n = 11 sweeps only i0 = 1: index 3 reads a renamed sweep
    assert sweeps[11, 1] == 2 and sweeps[11, 3] == 0
    failed = [line.split()[2:5] for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == [["11", "23", "3"], ["11", "67", "3"]]


def _readme_cache_table():
    """(module, cache, constant, bound, default verify uses) for each row
    of README's cache table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| cache | key | bound | default `verify` uses |\n", 1)[1]
    rows = []
    for line in table.splitlines()[1:]:
        if not line.startswith("| `"):
            break
        cache, _, bound, uses = (cell.strip() for cell in line.strip("|").split(" | "))
        module, name = cache.strip("`").split(".")
        constant, value = bound.split(" = ")
        rows.append((module, name, constant.strip("`"), int(value), int(uses)))
    return rows


@pytest.fixture(scope="module")
def default_verify():
    """One default verify from cleared caches: its exit code, its stdout,
    and the size of each cache of README's cache table after it."""
    caches = {}
    for module, name, *_ in _readme_cache_table():
        caches[module, name] = getattr(importlib.import_module(f"udrfusion.{module}"), name)
    for cache in caches.values():
        cache.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["verify"])
    return rc, out.getvalue(), {key: cache.cache_info().currsize for key, cache in caches.items()}


def test_readme_cache_table_matches_the_caches(default_verify):
    rows = _readme_cache_table()
    caches = set()
    for module_name in ("ffield", "dihedral", "fusion", "cohomology", "deformation", "abelian", "cli"):
        module = importlib.import_module(f"udrfusion.{module_name}")
        caches |= {(module_name, attr) for attr, value in vars(module).items()
                   if hasattr(value, "cache_info") and value.__module__ == module.__name__}
    assert {(module_name, name) for module_name, name, *_ in rows} == caches
    for module_name, name, constant, bound, uses in rows:
        module = importlib.import_module(f"udrfusion.{module_name}")
        assert getattr(module, constant) == bound, (name, constant)
        assert getattr(module, name).cache_parameters()["maxsize"] == bound, name
        assert default_verify[2][module_name, name] == uses, name


def test_default_verify_stdout_is_pinned(default_verify):
    rc, out, _ = default_verify
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "60ab9f837b745499457c6b42fd00743dc5b02940411474563689be8b3b070fdb"
    )


@pytest.mark.parametrize("ceiling", [[], ["--n-max", "6"]])
def test_verify_orbit_families_alone_equal_their_slice_of_the_full_run(capsys, ceiling, request):
    if ceiling:
        rc, full, _ = _run(capsys, ["verify", *ceiling])
    else:
        rc, full, _ = request.getfixturevalue("default_verify")
    assert rc == 0
    assert full.splitlines()[-1] == ("61" if ceiling else "371") + " checks, 0 failed"
    for token in ("prop48", "cor49"):
        rc, alone, _ = _run(capsys, ["verify", "--check", token, *ceiling])
        assert rc == 0
        lines = alone.splitlines()
        assert lines[:-1] == [line for line in full.splitlines() if line.split()[1] == token]
        assert lines[-1] == f"{len(lines) - 1} checks, 0 failed"


def test_scan_work_ceiling_admits_3_to_200(capsys, monkeypatch):
    # no primes, so the admitted range builds no table: only the
    # ceiling's verdict is under test here
    monkeypatch.setattr(cli, "find_primes", lambda n, count: [])
    rc, out, err = _run(capsys, ["scan", "dihedral", "--n-min", "3", "--n-max", "200"])
    assert rc == 0 and err == ""
    assert out == "n,p,i0,k,in_omega,determinable,signature\n"


def test_scan_work_ceiling_refuses_3_to_2000_before_any_work(capsys, monkeypatch):
    def no_work(n, count):
        raise AssertionError("scan started work past its ceiling")

    monkeypatch.setattr(cli, "find_primes", no_work)
    start = perf_counter()
    rc, out, err = _run(capsys, ["scan", "dihedral", "--n-min", "3", "--n-max", "2000"])
    assert perf_counter() - start < 1.0
    assert rc == 2 and out == ""
    assert err.startswith("error: scan of n = 3..2000 at 1 primes per n needs about 667166748 ")
    assert err.rstrip().endswith(f"limit is {cli.SCAN_WORK_LIMIT}")
    # the second prime per n doubles the work: 3..200 no longer fits
    assert main(["scan", "dihedral", "--n-min", "3", "--n-max", "200", "--primes-per-n", "2"]) == 2


def test_verify_sweep_ceiling_admits_n_max_20(monkeypatch):
    instances = set()

    def counting(params, i0):
        instances.add((params.n, params.p))

    monkeypatch.setattr(fusion, "fusion_orbits_bruteforce", counting)
    cli._sweep_reports({}, 20)
    assert len(instances) == 2 * 18
    for n_max in (20, 25):
        assert cli._verify_ceilings("all", n_max) == dict.fromkeys(cli._VERIFY_FAMILIES, n_max)
    with pytest.raises(LimitExceeded):
        cli._verify_ceilings("all", 26)


def _no_family_runs(monkeypatch):
    def no_work(*args):
        raise AssertionError("verify started a family past its ceiling")

    families = {
        token: (default, largest, reports if isinstance(reports, str) else no_work)
        for token, (default, largest, reports) in cli._VERIFY_FAMILIES.items()
    }
    monkeypatch.setattr(cli, "_VERIFY_FAMILIES", families)
    monkeypatch.setattr(fusion, "fusion_orbits_bruteforce", no_work)


def test_verify_sweep_ceiling_refuses_n_max_40_before_any_family_runs(capsys, monkeypatch):
    _no_family_runs(monkeypatch)
    start = perf_counter()
    # prop48 and cor49 admit the smallest largest ceiling, 25; thm42, the
    # first family, is the first past its own (119)
    for n_max, family, largest in (("40", "prop48", 25), (str(10**9), "thm42", 119)):
        rc, out, err = _run(capsys, ["verify", "--n-max", n_max])
        assert rc == 2 and out == ""
        assert err == f"error: verify {family} admits n-max up to {largest}, got {n_max}\n"
    assert perf_counter() - start < 1.0


# the first n-max each family alone is refused at
_FAMILY_WORK_CROSSING = {
    "thm42": 120, "thm43": 101, "thm11": 268, "lemma410": 3538, "cor34": 134,
    "prop48": 26, "cor49": 26, "oracle-h1": 266,
}


@pytest.mark.parametrize("token", list(_FAMILY_WORK_CROSSING))
def test_verify_work_ceiling_refuses_each_family_alone(capsys, monkeypatch, token):
    _no_family_runs(monkeypatch)
    start = perf_counter()
    rc, out, err = _run(capsys, ["verify", "--check", token, "--n-max", str(10**9)])
    assert perf_counter() - start < 1.0
    assert rc == 2 and out == ""
    crossing = _FAMILY_WORK_CROSSING[token]
    assert err.startswith(f"error: verify {token} admits n-max up to {crossing - 1}, got ")
    # both sides of the ceiling
    assert cli._verify_ceilings(token, crossing - 1) == {token: crossing - 1}
    with pytest.raises(LimitExceeded):
        cli._verify_ceilings(token, crossing)


def test_verify_work_ceiling_admits_the_default_ceilings():
    defaults = {"thm42": 12, "thm43": 12, "thm11": 30, "lemma410": 40, "cor34": 12,
                "prop48": 12, "cor49": 12, "oracle-h1": 12}
    assert cli._verify_ceilings("all", None) == defaults
    for token, default in defaults.items():
        assert cli._verify_ceilings(token, None) == {token: default}


def test_verify_sweep_families_share_one_default_ceiling():
    # _cmd_verify runs every sweep family to the ceiling of the first
    defaults = {default for default, _, reports in cli._VERIFY_FAMILIES.values()
                if isinstance(reports, str)}
    assert len(defaults) == 1


def test_readme_verify_table_matches_the_family_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| token | covers | default n ceiling | largest n ceiling |\n", 1)[1]
    rows = []
    for line in table.splitlines()[1:]:
        if not line.startswith("| `"):
            break
        token, _, default, largest = (cell.strip() for cell in line.strip("|").split(" | "))
        rows.append((token.strip("`"), int(default), int(largest)))
    assert rows == [(token, default, largest)
                    for token, (default, largest, _) in cli._VERIFY_FAMILIES.items()]


def test_fixed_count_power_rule_fails_when_trivial_count_is_wrong(capsys, monkeypatch):
    # the rule compares the fixed count with p to the projector's rank,
    # which never asks trivial_count
    real = abelian.CharacterPair.trivial_count
    monkeypatch.setattr(abelian.CharacterPair, "trivial_count", lambda self: real(self) + 1)
    rc, out, _ = _run(capsys, ["analyze", "abelian", "--orders", "2,3", "--p", "7",
                               "--theta1", "1,1", "--theta2", "1,2"])
    assert rc == 0
    passed = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
    assert passed["fixed_count_power_rule"] is False


def _expanded(report):
    """report with the orbit set that stands in its fusion block replaced
    by the list of its representatives, as json.dumps can write it."""
    fusion = report["fusion"]
    if fusion["representatives"] is None:
        return report
    representatives = fusion["representatives"].representatives
    return {**report, "fusion": {**fusion, "representatives": representatives}}


def _recorded_reports(monkeypatch):
    """A list that collects every report _report_pieces is given."""
    reports = []
    real = cli._report_pieces

    def recording(report):
        reports.append(report)
        return real(report)

    monkeypatch.setattr(cli, "_report_pieces", recording)
    return reports


def test_json_outputs_equal_json_dumps_and_the_recorded_references(capsys, monkeypatch):
    references = json.loads(REFERENCES_PATH.read_text())
    abelian = [key for key in references if key.startswith("analyze abelian ")]
    assert len(abelian) == 20
    reports = _recorded_reports(monkeypatch)
    # every abelian reference is checked against its sha256; json.dumps,
    # about 50 ms a report at p = 397, writes only the first two again
    for key in abelian[2:]:
        rc, out, err = _run(capsys, key.split())
        assert rc == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == references[key]["sha256"]
    reports.clear()
    argvs = [key.split() for key in abelian[:2]] + [
        ["analyze", "dihedral", "--n", "5", "--i0", "1"],
        # beyond the sweep guard: no fusion block, no representatives
        ["analyze", "abelian", "--orders", "2,3", "--p", "409", "--theta1", "1,1",
         "--theta2", "1,2"],
        ["scan", "dihedral", "--n-min", "3", "--n-max", "30", "--format", "json"],
    ]
    for argv in argvs:
        rc, out, err = _run(capsys, argv)
        assert rc == 0 and err == ""
        # scan writes with json.dumps alone; its text must survive a round trip
        value = _expanded(reports.pop()) if argv[0] == "analyze" else json.loads(out)
        assert reports == []
        assert out == json.dumps(value, indent=2) + "\n"
        key = " ".join(argv)
        if key in abelian:
            assert hashlib.sha256(out.encode()).hexdigest() == references[key]["sha256"]


# (orders, primes): the trivial group, where every point is its own
# orbit, cyclic groups and two products, each at two small primes
_WRITER_GROUPS = [((1,), (3, 5)), ((2,), (3, 5)), ((4,), (5, 13)), ((2, 3), (7, 13)),
                  ((3, 3), (7, 13))]


@pytest.mark.parametrize("orders, primes", _WRITER_GROUPS, ids=[str(g) for g, _ in _WRITER_GROUPS])
def test_run_wise_writer_equals_json_dumps_on_analyze_abelian(capsys, monkeypatch, orders, primes):
    reports = _recorded_reports(monkeypatch)
    exponents = [",".join(map(str, e)) for e in itertools.product(*map(range, orders))]
    for p in primes:
        for theta1, theta2 in itertools.product(exponents, repeat=2):
            argv = ["analyze", "abelian", "--orders", ",".join(map(str, orders)), "--p", str(p),
                    "--theta1", theta1, "--theta2", theta2]
            rc, out, err = _run(capsys, argv)
            assert rc == 0 and err == ""
            value = _expanded(reports.pop())
            assert out == json.dumps(value, indent=2) + "\n"
            assert value["fusion"]["orbit_count"] == len(value["fusion"]["representatives"])
            if orders == (1,):
                assert value["fusion"]["orbit_count"] == p * p


@pytest.mark.parametrize("n", range(3, 9))
def test_run_wise_writer_equals_json_dumps_on_analyze_dihedral(capsys, monkeypatch, n):
    reports = _recorded_reports(monkeypatch)
    for i0 in range(1, (n + 1) // 2):
        rc, out, err = _run(capsys, ["analyze", "dihedral", "--n", str(n), "--i0", str(i0)])
        assert rc == 0 and err == ""
        assert out == json.dumps(_expanded(reports.pop()), indent=2) + "\n"


def _report_text(report):
    return "".join(cli._report_pieces(report))


def test_run_wise_writer_on_null_and_empty_representatives():
    report = {"version": __version__, "params": {}, "reps": [], "checks": [],
              "fusion": {"k": None, "numbers": None, "orbit_count": None, "representatives": None}}
    assert _report_text(report) == json.dumps(report, indent=2) + "\n"
    assert len(list(cli._report_pieces(report))) == 1
    empty = {**report, "fusion": cli._fusion_block(None, fusion.FusionOrbitSet((), 3, list))}
    assert empty["fusion"]["orbit_count"] == 0
    assert _report_text(empty) == json.dumps(_expanded(empty), indent=2) + "\n"
    assert '"representatives": []' in _report_text(empty)


def test_analyze_json_reaches_stdout_run_by_run(monkeypatch):
    reports = _recorded_reports(monkeypatch)
    writes = _Writes()
    monkeypatch.setattr(sys, "stdout", writes)
    assert main(_MULTI_RUN_ARGV) == 0
    report = reports.pop()
    runs = report["fusion"]["representatives"].runs
    text = json.dumps(_expanded(report), indent=2) + "\n"
    assert "".join(writes) == text
    # the report up to its representatives list, then each run's pairs as
    # json.dumps writes them at their depth
    head = text.index('"representatives": [') + len('"representatives": [')
    longest_run = max(
        len(textwrap.indent(json.dumps([[x, y] for y in ys], indent=2)[2:-2], " " * 4))
        for x, ys, *_ in runs
    )
    assert len(runs) == 134 and 10 * (head + longest_run) < len(text)
    # the skeleton head, one write per run and the tail: no write holds
    # more than one run
    assert len(writes) == len(runs) + 2
    assert max(map(len, writes)) <= head + longest_run


def test_analyze_out_file_equals_stdout_of_a_multi_run_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, err = _run(capsys, [*_MULTI_RUN_ARGV, "--out", str(target)])
    assert rc == 0 and err == ""
    assert target.read_bytes() == out.encode() and len(out) > 10**6


def test_analyze_abelian_builds_no_orbit_objects(capsys, monkeypatch):
    built = Counter()
    real = FusionOrbit.__post_init__
    expand = fusion.FusionOrbitSet.rows.func

    def counting(self):
        built["orbits"] += 1
        real(self)

    def counting_rows(self):
        built["rows"] += 1
        return expand(self)

    monkeypatch.setattr(FusionOrbit, "__post_init__", counting)
    monkeypatch.setattr(fusion.FusionOrbitSet, "rows", property(counting_rows))
    rc, out, _ = _run(capsys, ["analyze", "abelian", "--orders", "2,3", "--p", "7",
                               "--theta1", "1,1", "--theta2", "1,2"])
    assert rc == 0 and json.loads(out)["fusion"]["orbit_count"] == 9
    assert built["orbits"] == 0
    # nor are rows expanded, for analyze abelian or for the JSON of analyze
    # dihedral, whose checks compare the rows of two sets as they go
    assert built["rows"] == 0
    rc, out, _ = _run(capsys, ["analyze", "dihedral", "--n", "5", "--i0", "1"])
    checks = json.loads(out)["checks"]
    assert rc == 0 and checks[0]["name"] == "orbit_closed_form_matches_bruteforce"
    assert built == {}
    # the patches do count: asking for the orbits builds them, and the
    # rows are expanded
    orbit_set = abelian.abelian_orbits(abelian.CharacterPair.from_exponents(
        abelian.AbelianParams.standard([2, 3], 7), [1, 1], [1, 2]))
    assert len(orbit_set.orbits) == 9
    assert built["orbits"] == 9
    assert len(orbit_set.rows) == 9 and built["rows"] == 1
