"""Per-layer tracing by wrapping the program's functions from outside.

``Tracer.install()`` replaces the functions and methods listed in
``LAYERS`` with wrappers, in every ``axrel`` module namespace that holds
them, so calls made inside the program are seen too.  Each wrapped call
records a span (id, layer, start, end, parent id) and a call count; its
self time is its duration minus the duration of the wrapped calls made
inside it.  Counts and self times cover every call; the first
``SPAN_CAP`` spans are also kept whole in memory and written out by
``write_spans`` when the run ends.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 20_000

FIELD_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__abs__")
FIELD_COMPARE = ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__",
                 "compare", "sign", "is_zero")

# layer -> [(module, "name" or "Class.method"), ...]
LAYERS = {
    "field.arith": [("axrel.field", "ExactReal." + n) for n in FIELD_ARITH],
    "field.compare": [("axrel.field", "ExactReal." + n) for n in FIELD_COMPARE],
    "field.sqrt": [("axrel.field", "sqrt")],
    "field.literal": [("axrel.field", "ExactReal.literal"), ("axrel.field", "ExactReal.decimal_str"),
                      ("axrel.field", "parse_exact")],
    "linalg.mat_inverse": [("axrel.linalg", "mat_inverse")],
    "linalg.mat_mul": [("axrel.linalg", "mat_mul")],
    "linalg.solve_linear": [("axrel.linalg", "solve_linear")],
    "kinematics.inverse": [("axrel.kinematics", "AffineMap.inverse")],
    "kinematics.poincare_init": [("axrel.kinematics", "PoincareMap.__init__")],
    "kinematics.apply": [("axrel.kinematics", "AffineMap.apply"),
                         ("axrel.kinematics", "AffineMap.__call__")],
    "kinematics.compose": [("axrel.kinematics", "AffineMap.compose")],
    "kinematics.boost": [("axrel.kinematics", "boost")],
    "kinematics.effects": [("axrel.kinematics", "effects")],
    "kinematics.noftl": [("axrel.kinematics", "check_noftl")],
    "kinematics.mu": [("axrel.kinematics", "mu"), ("axrel.kinematics", "check_mu_invariance")],
    "model.reference_point": [("axrel.model", "Structure.reference_point")],
    "model.holds_w": [("axrel.model", "Structure.holds_W")],
    "model.load": [("axrel.model", "load_model"), ("axrel.model", "parse_model")],
    "semantics.evaluate": [("axrel.semantics", "evaluate")],
    "semantics.witness": [("axrel.semantics", n) for n in (
        "witness_photon", "witness_inertial", "witness_photon_refs", "witness_inertial_refs")],
    # The certified verifiers have one private entry point; it is wrapped
    # because no public function separates them from the sampled path.
    "semantics.certified": [("axrel.semantics", "_certified_axiom")],
    "semantics.ind": [("axrel.semantics", "check_ind_instance")],
    "semantics.definable_set": [("axrel.semantics", "definable_set")],
    "intervals.set_ops": [("axrel.intervals", "IntervalSet." + n) for n in (
        "union", "intersect", "complement", "supremum")],
    "intervals.poly": [("axrel.intervals", "Poly." + n) for n in (
        "__add__", "__sub__", "__mul__", "__neg__", "scale", "eval", "roots")]
    + [("axrel.intervals", n) for n in ("poly_less_zero", "poly_eq_zero", "term_to_poly")],
    "syntax.parse": [("axrel.syntax.parser", "parse"), ("axrel.syntax.parser", "parse_theory_file")],
    "syntax.expand": [("axrel.syntax.corpus", "expand_definitions")],
    "syntax.contract": [("axrel.syntax.corpus", "contract_definitions")],
    "syntax.corpus": [("axrel.syntax.corpus", n) for n in (
        "axiom_corpus", "named_axiom", "all_named_axioms", "ind_battery", "instantiate_ind")],
    "report.render": [("axrel.report", "machine_report"), ("axrel.report", "text_report")],
    "accel.proper_time": [("axrel.accel", "proper_time")],
    "accel.twin": [("axrel.accel", "twin_paradox"), ("axrel.accel", "galaxy_trip")],
    "accel.gtd": [("axrel.accel", "gtd_clock_ratio")],
    "genrel.geodesic": [("axrel.genrel", "geodesic")],
    "genrel.metric_at": [("axrel.genrel", "MetricChart.metric_at")],
    "genrel.chart_theory": [("axrel.genrel", "check_chart_theory")],
    "genrel.load_chart": [("axrel.genrel", "load_chart_file"), ("axrel.genrel", "parse_chart_file")],
    "exprs.compile": [("axrel.exprs", "compile_float")],
    "cli.command": [("axrel.cli", n) for n in (
        "main", "cmd_parse", "cmd_axioms", "cmd_check", "cmd_effects", "cmd_twin",
        "cmd_gtd", "cmd_geodesic", "cmd_report")],
}

# Per-layer metrics: name -> (unit, better).  Names end in _calls, _s
# (self time), _points / samples (counts) or _share / _ratio.
PER_LAYER = {}
for _name in ("field.arith", "field.compare", "field.sqrt", "linalg.mat_inverse",
              "linalg.mat_mul", "linalg.solve_linear", "kinematics.inverse",
              "kinematics.poincare_init", "kinematics.apply", "kinematics.compose",
              "model.reference_point", "model.holds_w", "semantics.evaluate",
              "semantics.witness", "semantics.ind", "intervals.set_ops",
              "accel.proper_time", "genrel.geodesic", "genrel.metric_at"):
    PER_LAYER[_name + "_calls"] = ("count", "lower")
    PER_LAYER[_name + "_s"] = ("s", "lower")
for _name in ("field.literal", "kinematics.effects", "kinematics.noftl", "kinematics.mu",
              "model.load", "semantics.certified", "semantics.definable_set",
              "intervals.poly", "syntax.parse", "syntax.expand", "syntax.contract",
              "syntax.corpus", "report.render", "accel.twin", "accel.gtd",
              "genrel.chart_theory", "genrel.load_chart", "exprs.compile", "cli.command"):
    PER_LAYER[_name + "_s"] = ("s", "lower")
PER_LAYER["kinematics.boost_calls"] = ("count", "lower")
PER_LAYER["field.rational_share"] = ("ratio", "higher")
PER_LAYER["semantics.samples"] = ("count", "lower")
PER_LAYER["semantics.solver_calls"] = ("count", "lower")
PER_LAYER["semantics.decided_ratio"] = ("ratio", "higher")
PER_LAYER["genrel.geodesic_points"] = ("count", "lower")
PER_LAYER["trace.overhead_s"] = ("s", "lower")


def _resolve(module, path):
    obj = importlib.import_module(module)
    owner = obj
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)  # rational_ops, verdicts, decided, samples, ...
        self.spans = []
        self.dropped = 0
        self._stack = []  # [span id, child time]
        self._next_id = 0
        self._undo = []
        self.active = True

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer, fn):
        calls, self_s, stack, spans = self.calls, self.self_s, self._stack, self.spans
        counts = self.counts
        rational_probe = layer in ("field.arith", "field.compare")
        exact = importlib.import_module("axrel.field").ExactReal
        after = _AFTER.get(layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if rational_probe and all(a.is_rational() for a in args if isinstance(a, exact)):
                counts["rational_ops"] += 1
            tracer._next_id += 1
            sid = tracer._next_id
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((sid, layer, t0, t1, parent))
                else:
                    tracer.dropped += 1
            if after is not None:
                after(counts, result)
            return result

        wrapper.__wrapped_by_tracer__ = fn
        return wrapper

    def install(self):
        modules = set()
        for targets in LAYERS.values():
            for module, _ in targets:
                modules.add(module)
        for module in sorted(modules):
            importlib.import_module(module)
        program = [m for name, m in sys.modules.items()
                   if m is not None and (name == "axrel" or name.startswith("axrel."))]
        for layer, targets in LAYERS.items():
            for module, path in targets:
                owner, attr = _resolve(module, path)
                original = owner.__dict__[attr]
                wrapper = self._wrap(layer, original)
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                if isinstance(owner, type):
                    continue
                # Rebind names other modules imported with `from ... import`.
                for mod in program:
                    for name, value in list(vars(mod).items()):
                        if value is original and mod is not owner:
                            self._undo.append((mod, name, original))
                            setattr(mod, name, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def snapshot(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "counts": dict(self.counts)}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for sid, layer, t0, t1, parent in self.spans:
                fh.write(json.dumps([sid, layer, round(t0, 9), round(t1, 9), parent]) + "\n")


def _after_evaluate(counts, verdict):
    counts["verdicts"] += 1
    counts["decided"] += verdict.outcome in ("Holds", "Fails")
    counts["samples"] += int(verdict.budget_report.get("samples", 0))
    counts["solver_calls"] += int(verdict.budget_report.get("solver_calls", 0))


def _after_geodesic(counts, result):
    counts["geodesic_points"] += len(result.points)


_AFTER = {"semantics.evaluate": _after_evaluate, "genrel.geodesic": _after_geodesic}


def diff(after, before):
    """Per-round totals from two snapshots."""
    out = {}
    for key in ("calls", "self_s", "counts"):
        a, b = after[key], before.get(key, {})
        out[key] = {k: v - b.get(k, 0) for k, v in a.items()}
    return out


def add(total, part):
    for key in ("calls", "self_s", "counts"):
        dst = total.setdefault(key, {})
        for k, v in part.get(key, {}).items():
            dst[k] = dst.get(k, 0) + v
    return total


def layer_metrics(agg):
    """The per-layer metric values of one round's aggregate (overhead apart)."""
    calls, self_s, counts = agg.get("calls", {}), agg.get("self_s", {}), agg.get("counts", {})
    out = {}
    for name in PER_LAYER:
        if name.endswith("_calls"):
            out[name] = calls.get(name[:-6], 0)
        elif name.endswith("_s") and name != "trace.overhead_s":
            out[name] = self_s.get(name[:-2], 0.0)
    field_ops = calls.get("field.arith", 0) + calls.get("field.compare", 0)
    out["field.rational_share"] = counts.get("rational_ops", 0) / field_ops if field_ops else 0.0
    out["semantics.samples"] = counts.get("samples", 0)
    out["semantics.solver_calls"] = counts.get("solver_calls", 0)
    verdicts = counts.get("verdicts", 0)
    out["semantics.decided_ratio"] = counts.get("decided", 0) / verdicts if verdicts else 0.0
    out["genrel.geodesic_points"] = counts.get("geodesic_points", 0)
    return out
