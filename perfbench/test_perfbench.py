"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

udrfusion = pytest.importorskip("udrfusion")


def _namespaces():
    package, modules = tracer._modules()
    return [package, *modules.values()]


def _bindings():
    """(module, attribute) -> object for every module-level binding of a
    function the tracer wraps, looked up before it is installed."""
    _, modules = tracer._modules()
    wanted = {
        id(getattr(modules[layer], path)): getattr(modules[layer], path)
        for targets in (tracer.SPAN_TARGETS, tracer.LIGHT_TARGETS, tracer.COUNT_TARGETS)
        for layer, paths in targets.items()
        for path in paths
        if "." not in path
    }
    return {
        (ns.__name__, attr): value
        for ns in _namespaces()
        for attr, value in vars(ns).items()
        if id(value) in wanted
    }


def test_wrappers_cover_every_binding_and_are_removed():
    before = _bindings()
    # dims and irr2_rep are imported by name into other modules.
    assert ("udrfusion.cli", "dims") in before
    assert ("udrfusion.deformation", "dims") in before
    assert ("udrfusion.cohomology", "irr2_rep") in before
    fp = udrfusion.ffield.FpMatrix
    methods = {name: fp.__dict__[name] for name in ("__init__", "__mul__", "identity")}
    dumps = json.dumps

    trace = tracer.Tracer()
    trace.install()
    try:
        for (module, attr), original in before.items():
            assert getattr(sys.modules[module], attr).__wrapped__ is original, (module, attr)
        assert all(fp.__dict__[name] is not raw for name, raw in methods.items())
        assert json.dumps.__wrapped__ is dumps
    finally:
        trace.uninstall()

    assert all(getattr(sys.modules[m], a) is original for (m, a), original in before.items())
    assert all(fp.__dict__[name] is raw for name, raw in methods.items())
    assert json.dumps is dumps


@pytest.mark.parametrize("argv", [
    ("analyze", "dihedral", "--n", "6", "--i0", "1"),
    ("verify", "--check", "oracle-h1", "--n-max", "4"),
    ("analyze", "abelian", "--orders", "2,3", "--p", "7", "--theta1", "1,1", "--theta2", "0,1"),
])
def test_self_times_are_nonnegative_and_within_wall(argv):
    code, plain, _, _ = tracer.invoke(argv)
    trace = tracer.Tracer()
    trace.install()
    try:
        traced_code, traced, wall, _ = tracer.invoke(argv)
    finally:
        trace.uninstall()
    assert code == traced_code == 0
    assert traced == plain
    totals = trace.group_totals()
    layer_self = [totals[layer]["self_s"] for layer in tracer.LAYERS]
    assert all(t >= 0 for t in layer_self)
    assert all(span.self_s >= -1e-9 for span in trace.spans)
    assert sum(layer_self) <= wall
    root = trace.spans[0]
    assert root.name == "cli.main" and root.parent is None
    assert sum(layer_self) == pytest.approx(root.duration, rel=1e-9)


def test_layer_metrics_match_the_declared_list():
    trace = tracer.Tracer()
    caches = {"cohomology.dims": (0, 0), "dihedral.irr2_rep": (0, 0)}
    metrics = tracer.layer_metrics(trace, caches, 1.0, 1.0, 0, 0)
    assert list(metrics) == [name for name, _, _ in tracer.PER_LAYER_METRICS]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_seed_to_instances_is_deterministic():
    script = "import workloads, json; print(json.dumps({w: workloads.instances(w, 7) for w in workloads.WORKLOADS}))"
    fresh = subprocess.run([sys.executable, "-c", script], cwd=Path(workloads.__file__).parent,
                           capture_output=True, text=True, check=True)
    here = {w: [list(a) for a in workloads.instances(w, 7)] for w in workloads.WORKLOADS}
    assert json.loads(fresh.stdout) == here
    refs = workloads.load_references()
    for seed in range(50):
        for w in workloads.WORKLOADS:
            argvs = workloads.instances(w, seed)
            assert argvs == workloads.instances(w, seed)
            if w != "verify-default":
                assert all(" ".join(a) in refs for a in argvs)
        assert ("analyze", "dihedral", "--n", "12", "--p", "997", "--i0", "1") in workloads.instances(
            "analyze-p1k", seed)
    assert len({tuple(workloads.instances("abelian-catalog", s)) for s in range(5)}) > 1


def test_verify_gate_rejects_vacuous_and_failing_runs():
    passes = "".join(f"PASS thm42 {k}\n" for k in range(371))
    assert workloads.check(("verify",), 0, (passes + "371 checks, 0 failed\n").encode(), {}) == (371, "")
    assert workloads.check(("verify",), 0, b"0 checks, 0 failed\n", {})[0] is None
    assert workloads.check(("verify",), 1, (passes + "371 checks, 0 failed\n").encode(), {})[0] is None
    failing = passes + "FAIL thm42 3 witness=None\n372 checks, 1 failed\n"
    assert workloads.check(("verify",), 0, failing.encode(), {})[0] is None


def test_failed_checks_finds_fail_lines_and_failed_json_entries():
    report = {"checks": [{"name": "a", "passed": True}, {"name": "b", "passed": False}]}
    assert workloads.failed_checks(json.dumps(report).encode()) == ["b"]
    assert workloads.failed_checks(b'{"checks": [{"name": "a", "passed": true}]}') == []
    assert workloads.failed_checks(b"PASS x\nFAIL y 3\n") == ["FAIL y 3"]
    assert workloads.failed_checks(b"n,p\n3,7\n") == []


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(40)]
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_speed_factors_use_the_calibrations_around_and_alongside_each_sample():
    events = [(kind, run.Invocation((), wall, wall, 0.0, 0, b"", b""))
              for kind, wall in [("setup", 1.0), ("calib", 0.25), ("inv", 2.0), ("calib", 0.125),
                                 ("inv", 1.0), ("inv", 9.0)]]
    events[-1][1].calibs = [0.5, 0.5]
    ref = run.CALIB_REF_S
    assert run.speed_factors(events) == pytest.approx(
        [ref / 0.25, ref / 0.25, ref / 0.1875, ref / 0.125, ref / 0.125, ref / 0.375])


def test_spawner_calibrates_alongside_without_stretching_the_child(tmp_path, monkeypatch):
    slow_calibration = tmp_path / "calibrate.py"
    slow_calibration.write_text("import time; time.sleep(1.5)")
    monkeypatch.setattr(run, "CALIBRATE", slow_calibration)
    with run.Spawner() as spawner:
        child = spawner.run([sys.executable, "-c", "import time; time.sleep(0.3)"],
                            time.perf_counter() + 60, calib_every=0.1)
        alone = spawner.run([sys.executable, "-c", "pass"], time.perf_counter() + 60)
    assert child.returncode == 0 and 0.3 <= child.wall < 1.2
    assert len(child.calibs) == 1 and child.calibs[0] >= 1.5
    assert alone.calibs == []


def test_spawner_accounts_each_child_alone_and_enforces_the_deadline():
    ballast = bytearray(200 * 2**20)  # this process's peak must not reach the child
    with run.Spawner() as spawner:
        small = spawner.run([sys.executable, "-I", "-S", "-c", "print('ok')"], time.perf_counter() + 60)
        hung = spawner.run([sys.executable, "-c", "import time; time.sleep(60)"], time.perf_counter() + 0.5)
    assert len(ballast) and small.returncode == 0 and small.stdout == b"ok\n"
    assert 0 < small.rss_mb < 100 and small.wall > 0
    assert hung.returncode == -9 and hung.wall < 30
