"""Benchmark command for axrel.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It generates the workload's inputs from
the seed, times the set-up, then runs whole rounds of the workload's fixed
batch of operations until S seconds have passed, checking every output.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (untraced); with ``--trace 1`` one untraced round is run
for reference, then the program is traced and the per-layer metrics and the
tracing overhead are reported.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

import calib  # noqa: E402
import gen  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

WORKLOADS = ("cli", "sampled-eval", "exact-sweeps", "genrel-float")
END_TO_END = {"setup_s": "s", "total_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
SETUP_REPEATS = 6


def log(msg):
    sys.stderr.write("perfbench: %s\n" % msg)


def import_seconds(modules):
    """Import time of `modules` in a fresh interpreter, host-speed normalized
    by a calibration taken in that interpreter right after the import."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, %r); import %s; "
            "dt = time.perf_counter() - t; sys.path.insert(0, %r); import calib; "
            "print(dt * calib.scale('memory', calib.sample('memory')))" % (SRC, ", ".join(modules), HERE))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError("import failed: %s" % proc.stderr.strip()[-400:])
    return float(proc.stdout.strip().splitlines()[-1])


class Run:
    """Attempted/failed bookkeeping and the outputs of every op."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.correct = True
        # Host-speed normalized times (calib.py), per op name.
        self.walls = {}       # wall time of each execution
        self.latencies = {}   # latency of each passing execution
        self.round_walls = []   # raw
        self.round_scales = []  # mean calibration scale of each round
        self.child_import_s = []
        self.child_rss_kb = []
        self.child_traces = []
        self.tracer = None
        self.faults_logged = set()

    def batch_seconds(self):
        """One round's wall time, each op counted at its median over the rounds."""
        return sum(statistics.median(v) for v in self.walls.values())

    def round(self):
        wall = 0.0
        scales = []
        cal_before = calib.sample("compute")
        for op in self.ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:
                self.failed += 1
                self.correct = False
                log("op %s raised:\n%s" % (op.name, traceback.format_exc()))
                continue
            dt = time.perf_counter() - t0
            wall += dt
            if op.in_child:
                # The child calibrated on the CPU it ran on; its calibration
                # time is not part of the op.
                scale = out["scale"]
                dt -= out["calib_cost_s"]
            else:
                cal_after = calib.sample("compute")
                scale = calib.scale("compute", cal_before, cal_after)
                cal_before = cal_after
            scales.append(scale)
            self.walls.setdefault(op.name, []).append(dt * scale)
            if op.in_child:
                self.child_import_s.append(out["import_s"] * scale)
                self.child_rss_kb.append(out["rss_kb"])
                if "trace" in out:
                    self.child_traces.append(out["trace"])
            if self.tracer:
                self.tracer.active = False  # checks are not part of the traced work
            try:
                op.check(out)
            except (CheckFailed, KeyError, ValueError, TypeError, AttributeError) as exc:
                self.failed += 1
                if op.known_fault:
                    if op.name not in self.faults_logged:
                        log("known fault in %s: %s (%s)" % (op.name, op.known_fault, exc))
                        self.faults_logged.add(op.name)
                else:
                    self.correct = False
                    log("check failed for %s: %s: %s" % (op.name, type(exc).__name__, exc))
                continue
            finally:
                if self.tracer:
                    self.tracer.active = True
            self.latencies.setdefault(op.name, []).append(
                scale * (out["command_s"] if op.in_child else dt))
        self.round_walls.append(wall)
        self.round_scales.append(statistics.mean(scales) if scales else 1.0)
        return wall * self.round_scales[-1]


def rounds_until(run, env, seconds, before=None, after=None):
    """Whole rounds, at least one, while the next one is expected to end
    within `seconds`: every run attempts whole rounds of the same ops."""
    start = time.perf_counter()
    done = 0
    while True:
        if before:
            before()
        run.round()
        env.round += 1
        done += 1
        if after:
            after()
        elapsed = time.perf_counter() - start
        if elapsed * (done + 1) / done > seconds:
            break


def build_inputs(workload, man, env):
    """The workload's ops, built 3 times; returns them and the median
    normalized build time."""
    builds = []
    for _ in range(3):
        cal_before = calib.sample("compute")
        t0 = time.perf_counter()
        ops = workloads.build(workload, man, env)
        dt = time.perf_counter() - t0
        builds.append(dt * calib.scale("compute", cal_before, calib.sample("compute")))
    return ops, statistics.median(builds)


def run_untraced(workload, man, env, seconds):
    # Fresh-interpreter imports are timed half before and half after the
    # rounds, so their median does not hang on one moment of host load.
    modules = workloads.IMPORTS.get(workload)
    imports = [import_seconds(modules) for _ in range(SETUP_REPEATS // 2)] if modules else []
    ops, build_s = build_inputs(workload, man, env)
    run = Run(ops)
    rounds_until(run, env, seconds)
    if workload == "cli":
        setup_s = statistics.median(run.child_import_s)
        rss_kb = max(run.child_rss_kb)
    else:
        imports += [import_seconds(modules) for _ in range(SETUP_REPEATS - len(imports))]
        setup_s = statistics.median(imports) + build_s
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": setup_s,
        "total_s": run.batch_seconds(),
        # Whole rounds, so every passing op weighs the same in the pool.
        "op_p50_ms": 1000.0 * statistics.median(x for v in run.latencies.values() for x in v),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    log("%d rounds, round walls %s" % (len(run.round_walls),
                                        ", ".join("%.3f" % w for w in run.round_walls)))
    return run, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def run_traced(workload, man, env, seconds, trace_dir):
    # A third of the time untraced, for the reference; the rest traced.
    reference = Run(workloads.build(workload, man, env))
    rounds_until(reference, env, seconds / 3)
    run = Run(reference.ops)
    per_round = []
    tracer = None
    if workload == "cli":
        env.trace_dir = trace_dir
    else:
        # Ops bind the program's functions when built: build them again
        # under the tracer so they call the wrappers.
        tracer = run.tracer = tracing.Tracer().install()
        run.ops = workloads.build(workload, man, env)
    snapshots = []

    def before():
        run.child_traces = []
        if tracer:
            snapshots.append(tracer.snapshot())

    def after():
        if tracer:
            agg = tracing.diff(tracer.snapshot(), snapshots[-1])
        else:
            agg = {}
            for part in run.child_traces:
                tracing.add(agg, part)
        scale = run.round_scales[-1]
        agg["self_s"] = {k: v * scale for k, v in agg.get("self_s", {}).items()}
        per_round.append(agg)

    try:
        rounds_until(run, env, seconds * 2 / 3, before, after)
    finally:
        if tracer:
            tracer.uninstall()
            tracer.write_spans(os.path.join(trace_dir, "spans.jsonl"))
    values = {}
    for agg in per_round:
        for k, v in tracing.layer_metrics(agg).items():
            values.setdefault(k, []).append(v)
    metrics = {k: statistics.median(v) if tracing.PER_LAYER[k][0] != "count"
               else statistics.median_low(v) for k, v in values.items()}
    metrics["trace.overhead_s"] = run.batch_seconds() - reference.batch_seconds()
    log("%d untraced and %d traced rounds, batch %.3f s untraced, %.3f s traced" % (
        len(reference.round_walls), len(run.round_walls), reference.batch_seconds(),
        run.batch_seconds()))
    run.attempted += reference.attempted
    run.failed += reference.failed
    run.correct = run.correct and reference.correct
    return run, {k: {"value": metrics[k], "unit": unit}
                 for k, (unit, _) in tracing.PER_LAYER.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "axrel", "__init__.py")):
        log("no program at %s: run from the root of an axrel checkout" % SRC)
        return 2
    sys.path.insert(0, SRC)
    import axrel
    if not os.path.abspath(axrel.__file__).startswith(SRC + os.sep):
        log("axrel was imported from %s, not from %s" % (axrel.__file__, SRC))
        return 2

    tag = "%s-seed%d" % (args.workload, args.seed)
    work = os.path.join(WORK, "%s-%d" % (tag, os.getpid()))
    trace_dir = os.path.join(WORK, "trace", tag)
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    env = workloads.Env(src=SRC)
    try:
        man = gen.generate(args.workload, args.seed, work)
        if args.trace:
            run, metrics = run_traced(args.workload, man, env, args.seconds, trace_dir)
        else:
            run, metrics = run_untraced(args.workload, man, env, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
