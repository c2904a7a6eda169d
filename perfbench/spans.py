"""Layer spans recorded from outside the program.

The harness wraps the public functions of each torsionlab module and
rebinds the wrappers in every namespace that holds the original (a
module that did ``from .exact import smith_normal_form`` gets the wrapper
too).  Nothing under ``src/`` changes.  Spans stay in memory and are
written as JSONL only when the run ends, never to stdout.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter_ns

from stats import tail

# (module, attribute, span name).  "Class.method" wraps a method.
TARGETS = (
    ("torsionlab.simplicial", "read_complex_or_pair", "simplicial.parse"),
    ("torsionlab.simplicial", "boundary_matrix", "simplicial.boundary_matrix"),
    ("torsionlab.simplicial", "relative_boundary_matrix", "simplicial.boundary_matrix"),
    ("torsionlab.exact", "smith_normal_form", "exact.snf"),
    ("torsionlab.exact", "independent_columns", "exact.independent_columns"),
    ("torsionlab.exact", "rational_rank", "exact.rational_rank"),
    ("torsionlab.exact", "rank_mod_p", "exact.rank_mod_p"),
    ("torsionlab.homology", "homology", "homology.homology"),
    ("torsionlab.homology", "relative_homology", "homology.homology"),
    ("torsionlab.bounds", "soule_bound", "bounds.soule_bound"),
    ("torsionlab.bounds", "dv_torsion_check", "bounds.dv_check"),
    ("torsionlab.nerve", "nerve", "nerve.build"),
    ("torsionlab.nerve", "balls_intersect", "nerve.pair_test"),
    ("torsionlab.nerve", "common_point_exists", "nerve.tuple_test"),
    ("torsionlab.hyperbolic", "LorentzIsometry.power", "hyperbolic.power"),
    ("torsionlab.hyperbolic", "orbit_count_check", "hyperbolic.orbit_check"),
    ("torsionlab.hyperbolic", "obtuse_angle_check", "hyperbolic.obtuse_check"),
    ("torsionlab.constants", "quad", "constants.quad"),
    ("torsionlab.constants", "figure_eight_volume", "constants.figure_eight_volume"),
    ("torsionlab.dehn", "fill_homology", "dehn.fill"),
    ("torsionlab.dehn", "figure_eight_filling", "dehn.fill"),
)


def _matrix_cells(args) -> dict:
    mat = args[0]
    return {"cells": mat.rows * mat.cols}


# Span attributes computed from the call's arguments.
ATTRS = {"exact.snf": _matrix_cells}
# Spans that also record the call's return value.
RECORD_RESULT = {"nerve.tuple_test"}


class Tracer:
    """Nested spans with self times, kept in memory.

    A span is (id, parent, name, start_ns, end_ns, self_ns, error, attrs,
    result).  Self time is the span's duration minus the durations of its
    direct child spans; calls run on one thread, so children nest.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, child ns]
        self._next_id = 0
        self._installed: list[tuple] = []

    def span(self, name: str, fn, *args, attrs: dict | None = None, **kwargs):
        """Call fn inside a span named name and return its result."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0]
        self._stack.append(frame)
        error = None
        result = None
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            recorded = result if name in RECORD_RESULT else None
            self.spans.append((span_id, parent, name, start, end, end - start - frame[1],
                               error, attrs, recorded))

    def _wrapper(self, name: str, fn):
        attrs_of = ATTRS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            attrs = attrs_of(args) if attrs_of else None
            return tracer.span(name, fn, *args, attrs=attrs, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every target and rebind it wherever the original is bound.

        All target modules are imported first, so that every namespace
        holding a target exists before the search.  Targets missing from
        the program (renamed or deleted by a later change) are skipped;
        their metrics then read 0.
        """
        modules = {}
        for module_name, _, _ in TARGETS:
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                continue
        namespaces = [m for key, m in list(sys.modules.items())
                      if key == "torsionlab" or key.startswith("torsionlab.")]
        for module_name, attr, name in TARGETS:
            owner_name, _, method = attr.partition(".")
            owner = modules.get(module_name)
            if method:
                owner = getattr(owner, owner_name, None)
                attr = method
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrapper(name, original)
            if method:
                self._rebind(owner, attr, original, wrapper)
                continue
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._rebind(namespace, key, original, wrapper)

    def _rebind(self, namespace, key, original, wrapper) -> None:
        setattr(namespace, key, wrapper)
        self._installed.append((namespace, key, original))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._installed):
            setattr(namespace, key, original)
        self._installed.clear()

    def records(self, source: str = "") -> list[dict]:
        keys = ("id", "parent", "name", "start_ns", "end_ns", "self_ns", "error", "attrs", "result")
        out = []
        for span in self.spans:
            doc = dict(zip(keys, span))
            doc["source"] = source
            out.append(doc)
        return out


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in records:
            fh.write(json.dumps(doc) + "\n")


# Per-layer metrics of the traced run, in report order, with units.
LAYER_METRICS = (
    ("simplicial.parse_s", "s"),
    ("simplicial.boundary_matrix_s", "s"),
    ("simplicial.boundary_matrix_calls", "count"),
    ("exact.snf_s", "s"),
    ("exact.snf_calls", "count"),
    ("exact.snf_cells", "count"),
    ("exact.independent_columns_s", "s"),
    ("exact.rational_rank_s", "s"),
    ("exact.rank_mod_p_s", "s"),
    ("homology.homology_s", "s"),
    ("homology.calls", "count"),
    ("bounds.soule_bound_s", "s"),
    ("bounds.dv_check_s", "s"),
    ("nerve.build_s", "s"),
    ("nerve.pair_tests", "count"),
    ("nerve.tuple_tests", "count"),
    ("nerve.tuple_test_s", "s"),
    ("nerve.tuple_test_tail_ms", "ms"),
    ("nerve.tuple_accept_ratio", "ratio"),
    ("nerve.indeterminate", "count"),
    ("hyperbolic.power_calls", "count"),
    ("hyperbolic.power_s", "s"),
    ("hyperbolic.orbit_check_s", "s"),
    ("hyperbolic.obtuse_check_s", "s"),
    ("hyperbolic.geometry_errors", "count"),
    ("constants.quad_calls", "count"),
    ("constants.quad_s", "s"),
    ("constants.figure_eight_volume_s", "s"),
    ("dehn.fill_s", "s"),
    ("cli.import_s", "s"),
    ("cli.import_scipy_s", "s"),
    ("trace.op_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def span_metrics(records: list[dict]) -> dict[str, float]:
    """Self times, call counts and ratios per layer from span records.

    Records from several processes are told apart by their "source".
    """
    by_name: dict[str, list[dict]] = {}
    name_of: dict[tuple, str] = {}
    for rec in records:
        by_name.setdefault(rec["name"], []).append(rec)
        name_of[(rec["source"], rec["id"])] = rec["name"]

    def self_s(name: str) -> float:
        return sum(r["self_ns"] for r in by_name.get(name, ())) / 1e9

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    tuple_tests = by_name.get("nerve.tuple_test", [])
    accepted = sum(1 for r in tuple_tests if r["result"] is True)
    tuple_ms = [(r["end_ns"] - r["start_ns"]) / 1e6 for r in tuple_tests]
    geometry_errors = 0
    for rec in records:
        if rec["name"].startswith("hyperbolic.") and rec["error"] == "GeometryError":
            parent = name_of.get((rec["source"], rec["parent"]), "")
            if not parent.startswith("hyperbolic."):
                geometry_errors += 1

    return {
        "simplicial.parse_s": self_s("simplicial.parse"),
        "simplicial.boundary_matrix_s": self_s("simplicial.boundary_matrix"),
        "simplicial.boundary_matrix_calls": calls("simplicial.boundary_matrix"),
        "exact.snf_s": self_s("exact.snf"),
        "exact.snf_calls": calls("exact.snf"),
        "exact.snf_cells": sum(r["attrs"]["cells"] for r in by_name.get("exact.snf", ())),
        "exact.independent_columns_s": self_s("exact.independent_columns"),
        "exact.rational_rank_s": self_s("exact.rational_rank"),
        "exact.rank_mod_p_s": self_s("exact.rank_mod_p"),
        "homology.homology_s": self_s("homology.homology"),
        "homology.calls": calls("homology.homology"),
        "bounds.soule_bound_s": self_s("bounds.soule_bound"),
        "bounds.dv_check_s": self_s("bounds.dv_check"),
        "nerve.build_s": self_s("nerve.build"),
        "nerve.pair_tests": calls("nerve.pair_test"),
        "nerve.tuple_tests": len(tuple_tests),
        "nerve.tuple_test_s": self_s("nerve.tuple_test"),
        "nerve.tuple_test_tail_ms": tail(tuple_ms)[1] if tuple_ms else 0.0,
        "nerve.tuple_accept_ratio": accepted / len(tuple_tests) if tuple_tests else 0.0,
        "nerve.indeterminate": sum(1 for r in tuple_tests
                                   if r["error"] == "IndeterminateIntersectionError"),
        "hyperbolic.power_calls": calls("hyperbolic.power"),
        "hyperbolic.power_s": self_s("hyperbolic.power"),
        "hyperbolic.orbit_check_s": self_s("hyperbolic.orbit_check"),
        "hyperbolic.obtuse_check_s": self_s("hyperbolic.obtuse_check"),
        "hyperbolic.geometry_errors": geometry_errors,
        "constants.quad_calls": calls("constants.quad"),
        "constants.quad_s": self_s("constants.quad"),
        "constants.figure_eight_volume_s": self_s("constants.figure_eight_volume"),
        "dehn.fill_s": self_s("dehn.fill"),
        "trace.op_s": sum(r["end_ns"] - r["start_ns"] for r in by_name.get("op", ())) / 1e9,
    }
