"""Benchmark of the udrfusion CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 times fresh `python -m udrfusion ...` processes, one at a time
(a closed loop with one client), and prints the end-to-end metrics.
--trace 1 runs one round of the same invocations in process, with and
without the tracer, and prints the per-layer metrics.  Either way every
output is checked, and the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  Records, and the spans
of a traced run, are written under .perfbench/.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# setup_s probes: a first batch before the timed loop, then one probe for
# every PROBE_EVERY_S seconds of invocation wall time, run right after the
# invocation that earned it, so that the probes sample the whole run.
SETUP_FIRST = 8
PROBE_EVERY_S = 3.0
SETUP_CODE = "import udrfusion.cli as cli; cli.build_parser()"
# Speed calibration.  A shared machine runs the same code at speeds up to
# 1.8x apart, in spells of seconds and drifts of minutes, and user+sys time
# slows with wall time.  So calibrate.py, which imports nothing of
# udrfusion, runs before and after every invocation and every few setup
# probes, and alongside an invocation every CALIB_EVERY_S seconds of its
# wall time.  Each sample is reported at the reference speed: raw seconds
# times CALIB_REF_S over the mean wall of the calibrations around it and
# alongside it.  CALIB_EVERY_S is longer than an abelian-catalog call even
# on the slow machine, so only long invocations get calibrations alongside.
CALIBRATE = Path(__file__).with_name("calibrate.py")
CALIB_REF_S = 0.125
CALIB_EVERY_S = 2.0
PROBES_PER_CALIB = 4
# A run must end within 180 s; no invocation may start or run past this.
HARD_LIMIT_S = 165.0

E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "setup_s": "s",
}
# Printed with the metrics but not declared in BENCHMARK.json (README.md
# says why); fail_frac is printed as well and carried as attempted/failed.
REPORT_ONLY_UNITS = {
    "wall_s.tail": "s",
    "wall_s.raw": "s",
    "cpu_s.raw": "s",
    "setup_s.raw": "s",
    "speed": "ratio",
}


class Invocation:
    """One finished CLI invocation: its argv, timings, usage and verdict."""

    def __init__(self, argv, wall: float, cpu: float, rss_mb: float, returncode: int,
                 stdout: bytes, stderr: bytes):
        self.argv = tuple(argv)
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr
        self.items: int | None = None
        self.reason = ""
        self.calibs: list[float] = []  # walls of the calibrations run alongside


class Spawner:
    """Runs children one at a time through spawner.py, a separate small
    process, so that this process's memory does not leak into their
    ru_maxrss.  Each child's stdout and stderr go to files under OUT_DIR."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self._out, self._err = OUT_DIR / "child.stdout", OUT_DIR / "child.stderr"
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(Path(__file__).with_name("spawner.py")),
             sys.executable, str(CALIBRATE)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)))

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        finally:
            if self._proc.returncode is None:
                self._proc.kill()
                self._proc.wait()
            self._proc.stdout.close()

    def run(self, argv, deadline: float, calib_every: float = 0.0) -> Invocation:
        """Run argv to completion, with a calibration alongside every
        calib_every seconds (none when 0); it is killed at the deadline."""
        fields = [str(deadline - time.perf_counter()), str(calib_every), str(self._out),
                  str(self._err), *argv]
        self._proc.stdin.write("\0".join(fields) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline().split()
        if len(reply) < 4:
            raise RuntimeError("the child launcher stopped")
        wall, cpu, maxrss_kb, code, *calibs = reply
        inv = Invocation(argv, float(wall), float(cpu), int(maxrss_kb) / 1024, int(code),
                         self._out.read_bytes(), self._err.read_bytes())
        inv.calibs = [float(c) for c in calibs]
        return inv


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile).  Under eleven samples no percentile has ten beyond
    it, and the maximum is reported as percentile 100."""
    s = sorted(values)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[len(s) - 11], 100.0 * (len(s) - 10) / len(s)


def speed_factors(events) -> list[float]:
    """For each (kind, Invocation) event in run order, CALIB_REF_S over the
    mean wall of the nearest calibration before it, the nearest after it
    (either one alone at the ends) and those run alongside it.  Calibration
    events get their own wall's factor."""
    before, after = [None] * len(events), [None] * len(events)
    last = None
    for i, (kind, inv) in enumerate(events):
        last = inv.wall if kind == "calib" else last
        before[i] = last
    last = None
    for i in range(len(events) - 1, -1, -1):
        kind, inv = events[i]
        last = inv.wall if kind == "calib" else last
        after[i] = last
    return [CALIB_REF_S / statistics.mean([w for w in (b, a) if w is not None] + inv.calibs)
            for b, a, (_, inv) in zip(before, after, events)]


def timed_run(spawner: Spawner, argvs, seconds: float, references: dict, deadline: float):
    """Whole rounds over the seed's instances, setup probes and calibrations
    included, while the next round is predicted to end within `seconds`;
    always at least one round."""
    events: list[tuple[str, Invocation]] = []

    def spawn(kind: str, argv) -> Invocation | None:
        if time.perf_counter() >= deadline:
            return None
        inv = spawner.run(argv, deadline, CALIB_EVERY_S if kind == "inv" else 0.0)
        if kind != "inv" and inv.returncode != 0:
            if time.perf_counter() >= deadline:
                return None
            raise RuntimeError(f"{kind} failed: {inv.stderr.decode(errors='replace')}")
        events.append((kind, inv))
        return inv

    def probe(count: int) -> None:
        for k in range(count):
            spawn("setup", [sys.executable, "-c", SETUP_CODE])
            if k % PROBES_PER_CALIB == PROBES_PER_CALIB - 1 or k == count - 1:
                spawn("calib", [sys.executable, str(CALIBRATE)])

    # The first starts write the byte-code caches, as an install does; they
    # are not samples.  The shared machine runs in fast and slow spells of
    # seconds, so the probes are spread over the run rather than bunched.
    spawner.run([sys.executable, "-c", SETUP_CODE], deadline)
    spawner.run([sys.executable, str(CALIBRATE)], deadline)
    spawn("calib", [sys.executable, str(CALIBRATE)])
    probe(SETUP_FIRST)
    owed = 0.0
    start = time.perf_counter()
    rounds: list[float] = []
    while not rounds or time.perf_counter() - start + max(rounds) <= seconds:
        round_start = time.perf_counter()
        for argv in argvs:
            inv = spawn("inv", [sys.executable, "-m", "udrfusion", *argv])
            if inv is None:
                break
            inv.argv = argv
            inv.items, inv.reason = workloads.check(argv, inv.returncode, inv.stdout, references)
            spawn("calib", [sys.executable, str(CALIBRATE)])
            owed += inv.wall / PROBE_EVERY_S
            probe(int(owed))
            owed -= int(owed)
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() >= deadline:
            break

    factors = speed_factors(events)
    invs = [(inv, f) for (kind, inv), f in zip(events, factors) if kind == "inv"]
    setup = [(inv.wall, f) for (kind, inv), f in zip(events, factors) if kind == "setup"]
    calibs = [w for kind, inv in events for w in ([inv.wall] if kind == "calib" else inv.calibs)]
    invocations = [inv for inv, _ in invs]
    walls = [inv.wall * f for inv, f in invs]
    tail_value, tail_pct = tail(walls)
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_s.tail": tail_value,
        "cpu_s": statistics.median(inv.cpu * f for inv, f in invs),
        "peak_rss_mb": max(inv.rss_mb for inv in invocations),
        "items_per_s": statistics.median((inv.items or 0) / (inv.wall * f) for inv, f in invs),
        "setup_s": statistics.median(w * f for w, f in setup),
        "wall_s.raw": statistics.median(inv.wall for inv in invocations),
        "cpu_s.raw": statistics.median(inv.cpu for inv in invocations),
        "setup_s.raw": statistics.median(w for w, _ in setup),
        "speed": CALIB_REF_S / statistics.median(calibs),
    }
    ref = "at the reference speed"
    notes = {
        "wall_s": f"median of {len(walls)} invocations, {ref}",
        "wall_s.tail": f"p{tail_pct:.0f} of {len(walls)} invocations, {ref}",
        "cpu_s": f"median child user+sys, os.wait4, {ref}",
        "peak_rss_mb": "max child ru_maxrss, os.wait4",
        "items_per_s": f"median of correct items / wall per invocation, {ref}",
        "setup_s": f"median of {len(setup)} fresh interpreters, spread over the run, {ref}",
        "wall_s.raw": "as measured",
        "cpu_s.raw": "as measured",
        "setup_s.raw": "as measured",
        "speed": f"{CALIB_REF_S} s / median of {len(calibs)} calibrations",
    }
    record = {
        "rounds_s": rounds,
        "events": [
            {"kind": kind, "argv": list(inv.argv) if kind == "inv" else None,
             "wall_s": inv.wall, "cpu_s": inv.cpu, "rss_mb": inv.rss_mb, "speed": f,
             "calibrations_alongside_s": inv.calibs,
             "returncode": inv.returncode, "items": inv.items, "failure": inv.reason}
            for (kind, inv), f in zip(events, factors)
        ],
    }
    return invocations, metrics, notes, record


def checks_in(stdout: bytes) -> int:
    """Check verdicts in one output: PASS/FAIL lines, or JSON check entries."""
    if stdout.startswith(b"{"):
        return len(json.loads(stdout).get("checks", []))
    return sum(line.startswith((b"PASS ", b"FAIL ")) for line in stdout.splitlines())


def traced_run(argvs, references: dict, spans_path: Path):
    """One round in process untraced, then the same round traced."""
    sys.path.insert(0, str(SRC))
    import tracer

    untraced = []
    for argv in argvs:
        _, out, wall, _ = tracer.invoke(argv)
        untraced.append((hashlib.sha256(out).hexdigest(), wall))
    trace = tracer.Tracer()
    cache_stats = {"cohomology.dims": [0, 0], "dihedral.irr2_rep": [0, 0]}
    invocations, per_invocation = [], []
    trace.install()
    try:
        for number, argv in enumerate(argvs):
            trace.invocation = number
            code, out, wall, caches = tracer.invoke(argv)
            inv = Invocation(argv, wall, 0.0, 0.0, code, out, b"")
            inv.items, inv.reason = workloads.check(argv, code, out, references)
            if inv.items is not None and hashlib.sha256(out).hexdigest() != untraced[number][0]:
                inv.items, inv.reason = None, "traced stdout differs from untraced stdout"
            invocations.append(inv)
            for name, (hits, misses) in caches.items():
                cache_stats[name][0] += hits
                cache_stats[name][1] += misses
            per_invocation.append({"argv": list(argv), "wall_s": wall, "cache_info": caches,
                                   "failure": inv.reason})
    finally:
        trace.uninstall()
    traced_wall = sum(inv.wall for inv in invocations)
    untraced_wall = sum(wall for _, wall in untraced)
    metrics = tracer.layer_metrics(
        trace,
        cache_stats,
        traced_wall=traced_wall,
        untraced_wall=untraced_wall,
        output_bytes=sum(len(inv.stdout) for inv in invocations),
        checks_run=sum(checks_in(inv.stdout) for inv in invocations if inv.returncode == 0),
    )
    with spans_path.open("w") as fh:
        for span in trace.spans:
            fh.write(json.dumps(span.record()) + "\n")
    units = {name: unit for name, unit, _ in tracer.PER_LAYER_METRICS}
    record = {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
              "spans": len(trace.spans), "invocations": per_invocation,
              "spans_file": spans_path.name}
    return invocations, metrics, units, {}, record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "udrfusion").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + HARD_LIMIT_S
    if not (SRC / "udrfusion" / "cli.py").is_file():
        print(f"error: no udrfusion sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_1m_start": os.getloadavg()[0],
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }
    references = workloads.load_references()
    argvs = workloads.instances(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        invocations, metrics, units, notes, record = traced_run(
            argvs, references, OUT_DIR / f"{stem}-spans.jsonl")
    else:
        with Spawner() as spawner:
            invocations, metrics, notes, record = timed_run(
                spawner, argvs, args.seconds, references, deadline)
        units = E2E_UNITS
    stamp["loadavg_1m_end"] = os.getloadavg()[0]

    failed = sum(inv.items is None for inv in invocations)
    attempted = len(invocations)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("stamp " + json.dumps(stamp))
    for argv in argvs:
        print("instance udrfusion " + " ".join(argv))
    for inv in invocations:
        if inv.items is None:
            stderr = inv.stderr.decode(errors="replace").strip().splitlines()
            print(f"FAILED udrfusion {' '.join(inv.argv)}: {inv.reason}"
                  + (f" ({stderr[-1]})" if stderr else ""))
    for name, value in metrics.items():
        unit = units.get(name) or REPORT_ONLY_UNITS[name]
        print(f"{name:36s} {value:>16.6f} {unit:6s} {notes.get(name, '')}")
    print(f"{'fail_frac':36s} {failed / attempted:>16.6f} {'ratio':6s} {failed} of {attempted} invocations")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"stamp": stamp, "metrics": metrics, "attempted": attempted, "failed": failed, **record},
        indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
