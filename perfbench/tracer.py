"""In-process tracer for the udrfusion layers.

The tracer wraps public functions and methods of each package module from
outside: src/ is not edited.  A wrapper is installed in every module
namespace that binds the wrapped name (cli and deformation import dims,
irr2_rep and others by name), and every patch is undone by uninstall().

Three kinds of wrapper:

* span: one Span per call, with name, start, end, parent span and
  invocation id.  A span's self time is its duration minus the time its
  child spans and the ffield calls made directly under it cover.
* light (the ffield layer): FpMatrix methods and the prime helpers run
  about two million times per verify, so they are recorded as counts plus
  accumulated time under the enclosing span, not as one span each.  Only
  the outermost ffield call of a nest is timed.
* count: calls are counted and not timed (FusionOrbit construction, about
  84,000 per analyze at p = 997); their time stays with the caller.

GroupElement is a value type built tens of thousands of times per run and
is not wrapped; its time is the caller's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import traceback
from collections import Counter
from time import perf_counter

LAYERS = ("ffield", "dihedral", "fusion", "cohomology", "deformation", "abelian", "cli")

SPAN_TARGETS = {
    "dihedral": (
        "irr2_indices", "group_elements", "center", "irr2_rep", "induced_rep",
        "irr2_reps", "t_map", "omega_set", "t_preimage", "kernel_invariant",
        "rep_kernel_scan", "center_acts_trivially",
        "DihedralParams.__post_init__", "DihedralParams.standard",
        "DihedralParams.irr2_indices", "Rep2.matrix", "Rep2.trace",
    ),
    "fusion": (
        "act", "fusion_orbits_bruteforce", "fusion_orbits_closed_form",
        "fusion_numbers", "same_fusion",
        "FusionOrbitSet.orbit_of", "FusionOrbitSet.partition", "FusionOrbitSet.size_census",
        "FusionNumbers.from_orbits", "FusionNumbers.dihedral_closed_form",
        "FusionNumbers.total_points",
    ),
    "cohomology": (
        "rep_module", "trivial_module", "sign_module", "module_for_label",
        "contragredient", "tensor", "det_module", "adjoint_module",
        "fixed_point_dim", "dims", "adjoint_decomposition_check",
        "cohomologically_maximal_set", "d1_oracle_cocycles",
        "GModule.__post_init__", "GModule.matrix", "GModule.trace",
    ),
    "deformation": (
        "udr_class", "udr_signature", "maximal_kernel_set", "nontrivial_udr_kernel_set",
        "check_kernel_sets_detect_fusion", "check_maximality_matches_doubling_fibers",
        "check_gcd_pair_identity", "check_center_constraint", "fusion_determinability",
        "determinability_rule", "check_determinability_rule", "UdrSignature.digest",
    ),
    "abelian": (
        "smallest_valid_abelian_prime", "abelian_fixed_count",
        "abelian_fixed_count_bruteforce", "abelian_dims", "abelian_dims_projector",
        "abelian_udr", "abelian_orbits_bruteforce", "find_underdetermined_pair",
        "AbelianParams.__post_init__", "AbelianParams.standard",
        "AbelianParams.generator_roots", "CharacterPair.__post_init__",
        "CharacterPair.from_exponents", "CharacterPair.value1", "CharacterPair.value2",
        "CharacterPair.trivial_count", "CharacterPair.are_inverse",
    ),
    "cli": ("build_parser", "main"),
}

LIGHT_TARGETS = {
    "ffield": (
        "is_prime", "is_odd_prime", "find_prime", "find_primes",
        "multiplicative_order", "primitive_root_of_unity",
        "FpMatrix.__init__", "FpMatrix.identity", "FpMatrix.zeros", "FpMatrix.diagonal",
        "FpMatrix.__eq__", "FpMatrix.__hash__", "FpMatrix.__add__", "FpMatrix.__sub__",
        "FpMatrix.__neg__", "FpMatrix.__mul__", "FpMatrix.__rmul__", "FpMatrix.__pow__",
        "FpMatrix.transpose", "FpMatrix.trace", "FpMatrix.apply", "FpMatrix.rank",
        "FpMatrix.nullity", "FpMatrix.inverse", "FpMatrix.det", "FpMatrix.kron",
    ),
}

COUNT_TARGETS = {"fusion": ("FusionOrbit.__post_init__",)}

# Metric group of each traced name the per-layer metrics single out.
GROUPS = {
    "ffield.FpMatrix.__init__": "ffield.matrix_new",
    "ffield.is_odd_prime": "ffield.is_odd_prime",
    "ffield.FpMatrix.__mul__": "ffield.mul",
    "ffield.FpMatrix.__pow__": "ffield.pow",
    "ffield.FpMatrix.rank": "ffield.rank",
    "ffield.FpMatrix.inverse": "ffield.inverse",
    "ffield.FpMatrix.kron": "ffield.kron",
    "ffield.FpMatrix.det": "ffield.det",
    "ffield.find_prime": "ffield.find_prime",
    "dihedral.DihedralParams.__post_init__": "dihedral.params",
    "fusion.fusion_orbits_bruteforce": "fusion.bruteforce",
    "fusion.fusion_orbits_closed_form": "fusion.closed_form",
    "fusion.FusionOrbitSet.partition": "fusion.partition",
    "fusion.FusionOrbit.__post_init__": "fusion.orbits_built",
    "cohomology.GModule.__post_init__": "cohomology.gmodule_check",
    "cohomology.fixed_point_dim": "cohomology.fixed_point_dim",
    "cohomology.d1_oracle_cocycles": "cohomology.oracle",
    "deformation.check_kernel_sets_detect_fusion": "deformation.check",
    "deformation.check_maximality_matches_doubling_fibers": "deformation.check",
    "deformation.check_gcd_pair_identity": "deformation.check",
    "deformation.check_center_constraint": "deformation.check",
    "deformation.check_determinability_rule": "deformation.check",
    "deformation.fusion_determinability": "deformation.determinability",
    "abelian.abelian_orbits_bruteforce": "abelian.orbits_bruteforce",
    "abelian.abelian_fixed_count_bruteforce": "abelian.fixed_bruteforce",
    "abelian.abelian_dims_projector": "abelian.projector",
    "cli.json.dumps": "cli.json",
}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER_METRICS = (
    [(f"ffield.{op}.count", "count", "lower") for op in (
        "matrix_new", "is_odd_prime", "mul", "pow", "rank", "inverse", "kron", "det", "find_prime")]
    + [
        ("ffield.self_s", "s", "lower"),
        ("dihedral.params.count", "count", "lower"),
        ("dihedral.irr2_rep.hits", "count", "higher"),
        ("dihedral.irr2_rep.misses", "count", "lower"),
        ("dihedral.self_s", "s", "lower"),
        ("fusion.bruteforce.count", "count", "lower"),
        ("fusion.bruteforce.self_s", "s", "lower"),
        ("fusion.closed_form.count", "count", "lower"),
        ("fusion.closed_form.self_s", "s", "lower"),
        ("fusion.orbits_built", "count", "lower"),
        ("fusion.partition.self_s", "s", "lower"),
        ("fusion.self_s", "s", "lower"),
        ("cohomology.gmodule_new.count", "count", "lower"),
        ("cohomology.gmodule_check.self_s", "s", "lower"),
        ("cohomology.gmodule_check.total_s", "s", "lower"),
        ("cohomology.fixed_point_dim.count", "count", "lower"),
        ("cohomology.fixed_point_dim.self_s", "s", "lower"),
        ("cohomology.fixed_point_dim.total_s", "s", "lower"),
        ("cohomology.dims.hits", "count", "higher"),
        ("cohomology.dims.misses", "count", "lower"),
        ("cohomology.dims.hit_ratio", "ratio", "higher"),
        ("cohomology.oracle.count", "count", "higher"),
        ("cohomology.oracle.skipped", "count", "lower"),
        ("cohomology.oracle.coverage", "ratio", "higher"),
        ("cohomology.oracle.self_s", "s", "lower"),
        ("cohomology.oracle.total_s", "s", "lower"),
        ("cohomology.self_s", "s", "lower"),
        ("deformation.check.count", "count", "higher"),
        ("deformation.check.self_s", "s", "lower"),
        ("deformation.determinability.count", "count", "lower"),
        ("deformation.determinability.self_s", "s", "lower"),
        ("deformation.self_s", "s", "lower"),
        ("abelian.orbits_bruteforce.count", "count", "lower"),
        ("abelian.orbits_bruteforce.self_s", "s", "lower"),
        ("abelian.fixed_bruteforce.self_s", "s", "lower"),
        ("abelian.projector.self_s", "s", "lower"),
        ("abelian.self_s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("cli.json_s", "s", "lower"),
        ("cli.output_bytes", "bytes", "lower"),
        ("cli.checks_run", "count", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)


class Span:
    __slots__ = ("id", "name", "parent", "invocation", "start", "end", "child_s", "light_s", "error")

    def __init__(self, span_id: int, name: str, parent: int | None, invocation: int) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.invocation = invocation
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.light_s = 0.0
        self.error = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - self.light_s

    def record(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent,
            "invocation": self.invocation, "start": self.start, "end": self.end,
            "self_s": self.self_s, "error": self.error,
        }


def _zero_totals() -> dict[str, float]:
    return {"count": 0, "skipped": 0, "self_s": 0.0, "total_s": 0.0}


def _modules():
    package = importlib.import_module("udrfusion")
    return package, {layer: importlib.import_module(f"udrfusion.{layer}") for layer in LAYERS}


class Tracer:
    """Spans and counts for one traced run; install() before the calls,
    uninstall() after."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.light_s = 0.0
        self.invocation = 0
        self._stack: list[Span] = []
        self._light_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(len(spans), name, parent.id if parent else None, self.invocation)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start

        return wrapper

    def _light(self, name: str, fn):
        counts, stack = self.counts, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if self._light_depth:
                return fn(*args, **kwargs)
            self._light_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._light_depth = 0
                self.light_s += elapsed
                if stack:
                    stack[-1].light_s += elapsed

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package, modules = _modules()
        namespaces = [package, *modules.values()]
        kinds = ((SPAN_TARGETS, self._span), (LIGHT_TARGETS, self._light), (COUNT_TARGETS, self._count))
        try:
            for targets, make in kinds:
                for layer, paths in targets.items():
                    for path in paths:
                        name = f"{layer}.{path}"
                        if "." in path:
                            cls_name, attr = path.split(".")
                            cls = getattr(modules[layer], cls_name)
                            raw = cls.__dict__[attr]
                            if isinstance(raw, classmethod):
                                self._patch(cls, attr, classmethod(make(name, raw.__func__)))
                            else:
                                self._patch(cls, attr, make(name, raw))
                            continue
                        original = getattr(modules[layer], path)
                        wrapper = make(name, original)
                        for ns in namespaces:
                            for attr, value in list(vars(ns).items()):
                                if value is original:
                                    self._patch(ns, attr, wrapper)
            self._patch(json, "dumps", self._span("cli.json.dumps", json.dumps))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- metrics ----------------------------------------------------------

    def group_totals(self) -> dict[str, dict[str, float]]:
        """count, skipped, self_s and total_s per metric group and per layer."""
        out: dict[str, dict[str, float]] = {}

        def add(key: str, field: str, value: float) -> None:
            out.setdefault(key, _zero_totals())[field] += value

        for layer in LAYERS:
            add(layer, "self_s", 0.0)
        for span in self.spans:
            layer = span.name.split(".", 1)[0]
            add(layer, "self_s", span.self_s)
            group = GROUPS.get(span.name)
            if group is None:
                continue
            if span.error is None:
                add(group, "count", 1)
            elif span.error == "LimitExceeded":
                add(group, "skipped", 1)
            add(group, "self_s", span.self_s)
            add(group, "total_s", span.duration)
        add("ffield", "self_s", self.light_s)
        for name, calls in self.counts.items():
            group = GROUPS.get(name)
            if group is not None:
                add(group, "count", calls)
        return out


def clear_caches() -> dict[str, object]:
    """Empty the package's lru caches; returns them by metric prefix."""
    _, modules = _modules()
    caches = {}
    for layer, attr in (("cohomology", "dims"), ("dihedral", "irr2_rep")):
        cache = getattr(modules[layer], attr)
        while not hasattr(cache, "cache_clear"):  # under a tracer wrapper
            cache = cache.__wrapped__
        cache.cache_clear()
        caches[f"{layer}.{attr}"] = cache
    return caches


def invoke(argv) -> tuple[int, bytes, float, dict]:
    """Run the CLI once in process with cold caches.  Returns the exit
    code, stdout, wall seconds and each cache's (hits, misses)."""
    _, modules = _modules()
    caches = clear_caches()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = perf_counter()
        try:
            code = modules["cli"].main(list(argv))
        except Exception:  # the real CLI exits with status 1 on an uncaught error
            traceback.print_exc()
            code = 1
        wall = perf_counter() - start
    info = {name: cache.cache_info() for name, cache in caches.items()}
    return code, buf.getvalue().encode(), wall, {k: (v.hits, v.misses) for k, v in info.items()}


def layer_metrics(tracer: Tracer, cache_stats: dict, traced_wall: float, untraced_wall: float,
                  output_bytes: int, checks_run: int) -> dict[str, float]:
    """Every metric of PER_LAYER_METRICS from one traced round.  A name
    <group>.<field> reads that field of the group's totals unless it is
    one of the derived metrics below."""
    totals = tracer.group_totals()
    empty = _zero_totals()
    dims_hits, dims_misses = cache_stats["cohomology.dims"]
    oracle = totals.get("cohomology.oracle", empty)
    oracle_calls = oracle["count"] + oracle["skipped"]
    derived = {
        "dihedral.irr2_rep.hits": cache_stats["dihedral.irr2_rep"][0],
        "dihedral.irr2_rep.misses": cache_stats["dihedral.irr2_rep"][1],
        "fusion.orbits_built": totals.get("fusion.orbits_built", empty)["count"],
        "cohomology.gmodule_new.count": totals.get("cohomology.gmodule_check", empty)["count"],
        "cohomology.dims.hits": dims_hits,
        "cohomology.dims.misses": dims_misses,
        "cohomology.dims.hit_ratio": dims_hits / (dims_hits + dims_misses) if dims_hits + dims_misses else 0.0,
        "cohomology.oracle.coverage": oracle["count"] / oracle_calls if oracle_calls else 0.0,
        "cli.json_s": totals.get("cli.json", empty)["total_s"],
        "cli.output_bytes": output_bytes,
        "cli.checks_run": checks_run,
        "trace.overhead_frac": traced_wall / untraced_wall - 1,
    }
    metrics = {}
    for name, _, _ in PER_LAYER_METRICS:
        if name in derived:
            metrics[name] = derived[name]
        else:
            group, field = name.rsplit(".", 1)
            metrics[name] = totals.get(group, empty)[field]
    return metrics
