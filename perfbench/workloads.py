"""The four workloads: their operations, inputs and output checks.

``build(workload, manifest, env)`` returns the list of ``Op`` of one
round.  An op is one user-visible unit of work: one CLI command, one
``evaluate`` call, one prediction instance, one geodesic.  Each op runs the
program through ``axrel.cli`` (in a fresh interpreter) or its public
functions, and its check compares the output with what ``checks`` derives
from the generated inputs.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Optional

import checks
from checks import require
from gen import lit

HERE = os.path.dirname(os.path.abspath(__file__))

# Modules each in-process workload imports; setup_s times their import.
IMPORTS = {
    "sampled-eval": ("axrel.model", "axrel.semantics", "axrel.syntax"),
    "exact-sweeps": ("axrel.field", "axrel.kinematics", "axrel.model", "axrel.accel"),
    "genrel-float": ("axrel.genrel", "axrel.accel"),
}

# sampled-eval: every SpecRel axiom that quantifies over observers, sugared
# and expanded, at one fixed budget.  AxField's sentences are left out: they
# never reach the observer charts and would make up most ops of a round.
SAMPLED_AXIOMS = ("AxSelf", "AxPh", "AxEv", "AxSymd")
SAMPLED_BUDGET = dict(samples=4, seed=11)
# cli: the capped model's AccRel check samples; 4 keeps it near 1 s.
CAPPED_SAMPLES = "4"
README_GEODESIC = ["--x0", "2,0,0,0", "--u0", "1/5,0,0,11/20", "--span", "1"]


@dataclass
class Op:
    name: str
    run: Callable
    check: Callable
    known_fault: Optional[str] = None   # why this op fails today
    in_child: bool = False              # latency is the child's command time


@dataclass
class Env:
    src: str
    trace_dir: Optional[str] = None     # cli children write spans here when set
    round: int = 0


def build(workload, man, env):
    return BUILDERS[workload](man, env)


# ---------------------------------------------------------------------------
# cli


def _child(env, argv, tag):
    trace = "-"
    if env.trace_dir:
        trace = os.path.join(env.trace_dir, "r%d-%s.jsonl" % (env.round, tag))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), env.src, trace] + argv,
                          capture_output=True, text=True, timeout=150)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError("child interpreter failed: %s" % proc.stderr.strip()[-400:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _recheck(structure, axiom, evidence):
    from axrel.field import parse_exact
    from axrel.semantics import recheck_counterexample
    from axrel.syntax import named_axiom

    env = {k: (v if v in structure.bodies else parse_exact(v))
           for k, v in evidence.items() if isinstance(v, str)}
    require(recheck_counterexample(structure, named_axiom(axiom), env),
            "%s counterexample %s does not re-check" % (axiom, evidence))


def _text_counterexamples(text):
    out = {}
    for line in text.splitlines():
        if "counterexample: " in line:
            out[line.split()[0]] = json.loads(line.split("counterexample: ", 1)[1])
    return out


def _literal(text, label):
    m = re.search(r"^%s\s+(.*?) \(~ " % re.escape(label), text, re.M)
    require(m is not None, "no %r line in the output" % label)
    value = checks.parse_rational(m.group(1))
    require(value is not None, "%s %r is not rational" % (label, m.group(1)))
    return value


def _build_cli(man, env):
    from axrel.model import load_model

    f = man["files"]
    ops = []

    def add(name, argv, check, known_fault=None):
        def run(argv=argv, tag="%02d" % len(ops)):
            return _child(env, argv, tag)
        ops.append(Op(name, run, check, known_fault, in_child=True))

    def all_hold_text(what):
        def check(r):
            checks.check_all_hold(checks.text_outcomes(r["stdout"]), r["code"], what)
        return check

    def all_hold_json(what):
        def check(r):
            payload = checks.check_json_report(r["stdout"])
            checks.check_all_hold({k: v["outcome"] for k, v in payload["results"].items()},
                                  r["code"], what)
        return check

    def check_parse(r):
        from axrel.syntax import parse, print_formula
        require(r["code"] == 0, "parse exit %s" % r["code"])
        printed = r["stdout"].strip()
        checks.check_parse_roundtrip(man["formula"], printed, print_formula(parse(printed)))

    def check_list(r):
        require(r["code"] == 0, "axioms list exit %s" % r["code"])
        for name in ("SpecRel", "AccRelMinus", "AccRel", "GenRel(3)", "AxField", "AxSelf",
                     "AxPh", "AxEv", "AxSymd", "AxCmv"):
            require(name in r["stdout"], "axioms list lacks %s" % name)

    def check_show(r):
        require(r["code"] == 0 and r["stdout"].startswith("A ") and "Ph(" in r["stdout"],
                "axioms show AxPh printed %r" % r["stdout"][:80])

    identical = {}

    def check_first_json(r):
        all_hold_json("AccRel on mink_a")(r)
        identical["first"] = r["stdout"]

    def check_repeat_json(r):
        all_hold_json("AccRel on mink_a, repeated")(r)
        require(r["stdout"] == identical.get("first"), "repeated JSON report differs in bytes")

    galilean = load_model(f["galilean"])

    def check_galilean_text(r):
        outcomes = checks.text_outcomes(r["stdout"])
        require(outcomes.get("AxPh") == "Fails", "Galilean AxPh is %s" % outcomes.get("AxPh"))
        checks.check_exit_matches(outcomes, r["code"], "SpecRel on galilean")
        for axiom, ev in _text_counterexamples(r["stdout"]).items():
            _recheck(galilean, axiom, ev)

    def check_galilean_json(r):
        payload = checks.check_json_report(r["stdout"])
        outcomes = {k: v["outcome"] for k, v in payload["results"].items()}
        require(outcomes.get("AxPh") == "Fails", "Galilean AxPh is %s" % outcomes.get("AxPh"))
        checks.check_exit_matches(outcomes, r["code"], "AccRel on galilean")
        for axiom, v in payload["results"].items():
            if v["outcome"] == "Fails" and not axiom.startswith("IND."):
                _recheck(galilean, axiom, v["evidence"])

    capped = load_model(f["capped"])
    capped_charts = {name: checks.Chart(spec) for name, spec in man["capped_specs"].items()}

    def check_capped(r):
        outcomes = checks.text_outcomes(r["stdout"])
        require(outcomes.get("AxEv") == "Fails", "capped AxEv is %s" % outcomes.get("AxEv"))
        checks.check_exit_matches(outcomes, r["code"], "AccRel on capped")
        evidence = _text_counterexamples(r["stdout"])
        checks.check_event_outside_cap(evidence["AxEv"], capped_charts, man["caps"])
        for axiom, ev in evidence.items():
            _recheck(capped, axiom, ev)

    def check_twin(r):
        require(r["code"] == 0, "twin exit %s" % r["code"])
        checks.check_twin(_literal(r["stdout"], "home stays for"),
                          _literal(r["stdout"], "traveler ages"), *man["twin"])

    def check_gtd(r):
        require(r["code"] == 0, "gtd exit %s" % r["code"])
        checks.check_gtd(_literal(r["stdout"], "nose/rear clock rate ratio ="), *man["gtd"])

    def check_sweep(r):
        require(r["code"] == 0, "effects exit %s" % r["code"])
        rows = r["stdout"].strip().splitlines()
        require(rows[0] == "v,dilation,contraction,asynchrony" and len(rows) == man["sweep"] + 1,
                "effects sweep printed %d rows" % len(rows))
        for k, row in enumerate(rows[1:]):
            v, d, c, a = (float(x) for x in row.split(","))
            require(abs(v - k / man["sweep"]) <= 1e-12, "sweep row %d has v=%r" % (k, v))
            checks.check_effects_row(F(k, man["sweep"]), d, c, a)

    def check_geodesic(r):
        require(r["code"] == 0 and "conservation drift" in r["stdout"],
                "geodesic exit %s: %r" % (r["code"], r["stdout"][:80]))
        require("FLAGGED" not in r["stdout"], "geodesic drift flagged")
        with open(f["geodesic_csv"], encoding="utf-8") as fh:
            lambdas, points = checks.check_geodesic_csv(fh.read())
        checks.check_straight(lambdas, points, checks.rindler_to_minkowski, 1e-6,
                              "README Rindler geodesic")

    def usage_error(what):
        return lambda r: checks.check_usage_error(r["code"], r["stderr"], what)

    g, h = man["gtd"]
    add("parse", ["parse", man["formula"]], check_parse)
    add("axioms-list", ["axioms", "list"], check_list)
    add("axioms-show", ["axioms", "show", "AxPh"], check_show)
    add("check-specrel-mink", ["check", "SpecRel", f["mink_a"]], all_hold_text("SpecRel on mink_a"))
    json_argv = ["check", "AccRel", f["mink_a"], "--format", "json", "--seed", "9", "--samples", "12"]
    add("check-accrel-mink-json", json_argv, check_first_json)
    add("check-accrel-mink-json-again", json_argv, check_repeat_json)
    add("check-accrelminus-mink", ["check", "AccRelMinus", f["mink_b"]],
        all_hold_text("AccRelMinus on mink_b"))
    add("report-mink", ["report", f["mink_b"]], all_hold_json("report on mink_b"))
    add("check-specrel-galilean", ["check", "SpecRel", f["galilean"]], check_galilean_text)
    add("check-accrel-galilean-json", ["check", "AccRel", f["galilean"], "--format", "json"],
        check_galilean_json)
    add("check-accrel-capped", ["check", "AccRel", f["capped"], "--samples", CAPPED_SAMPLES],
        check_capped)
    add("check-genrel-chart", ["check", "GenRel(3)", f["rindler"]], all_hold_text("GenRel(3) chart"))
    add("twin", ["twin", f["trip"]], check_twin)
    add("gtd", ["gtd", "--g", lit(g), "--h", lit(h)], check_gtd)
    add("effects-sweep", ["effects", "--v", "0", "--sweep", str(man["sweep"])],
        check_sweep)
    add("geodesic", ["geodesic", f["rindler"]] + README_GEODESIC + ["--csv", f["geodesic_csv"]],
        check_geodesic)
    add("bad-truncated-observer", ["check", "SpecRel", f["truncated"]],
        usage_error("truncated observer line"),
        known_fault="a truncated `observer a velocity 3/5` ends in an IndexError traceback, exit 1")
    add("bad-velocity-1/0", ["check", "SpecRel", f["divzero"]], usage_error("velocity 1/0"),
        known_fault="`velocity 1/0 0 0` ends in a DivisionByZero traceback, exit 1")
    add("bad-geodesic-step-0", ["geodesic", f["rindler"]] + README_GEODESIC + ["--step", "0"],
        usage_error("geodesic --step 0"),
        known_fault="`geodesic --step 0` ends in a ZeroDivisionError traceback")
    add("bad-theory-GenRelX", ["check", "GenRelX", f["rindler"]], usage_error("theory GenRelX"),
        known_fault="`check GenRelX` is accepted and exits 0")
    return ops


# ---------------------------------------------------------------------------
# sampled-eval


def _build_sampled(man, env):
    from axrel.model import load_model
    from axrel.semantics import Budget, check_theory, evaluate, recheck_counterexample
    from axrel.syntax import axiom_corpus, expand_definitions, named_axiom

    budget = Budget(**SAMPLED_BUDGET)
    cap_charts = {name: checks.Chart(spec) for name, spec in man["capped_specs"].items()}
    theory = axiom_corpus("SpecRel")
    ops = []
    for sname, path in man["files"].items():
        s = load_model(path)
        reference = {}

        def certified(axiom, s=s, reference=reference):
            if not reference:
                reference.update(check_theory(s, theory, budget))
            return reference[axiom]

        outcomes = {}
        for axiom in SAMPLED_AXIOMS:
            sugared = named_axiom(axiom)
            for form, sentence in (("sugared", sugared), ("expanded", expand_definitions(sugared))):
                def run(s=s, sentence=sentence):
                    return evaluate(s, sentence, None, budget)

                first = {}

                def check(v, s=s, sname=sname, axiom=axiom, form=form, sentence=sentence,
                          outcomes=outcomes, certified=certified, first=first):
                    what = "%s %s (%s)" % (sname, axiom, form)
                    # Every round must reproduce the first round's verdict exactly,
                    # so the counterexample re-check below is needed only once.
                    if first:
                        require(v.to_json_dict() == first["verdict"], "%s changed between rounds" % what)
                        return
                    first["verdict"] = v.to_json_dict()
                    outcomes[(axiom, form)] = v.outcome
                    if form == "expanded":
                        require(outcomes.get((axiom, "sugared")) == v.outcome,
                                "%s: sugared %s, expanded %s" % (
                                    what, outcomes.get((axiom, "sugared")), v.outcome))
                    ref = certified(axiom)
                    # Where the reference is decided, giving up (Unknown) is a wrong
                    # answer.  A sampled Holds only says no sample refuted the
                    # sentence, so it may stand against a Fails outside the samples.
                    if ref.is_holds or ref.is_fails:
                        require(v.is_holds or v.is_fails, "%s: sampled Unknown, %s reference %s" % (
                            what, ref.method, ref.outcome))
                    if v.is_fails:
                        require(not (ref.is_holds and ref.method == "certified"),
                                "%s: sampled Fails where the certified answer is Holds" % what)
                        require(recheck_counterexample(s, sentence, v.evidence, budget),
                                "%s: counterexample does not re-check" % what)
                    if sname == "galilean" and axiom == "AxPh":
                        require(v.is_fails, "%s: %s, expected Fails" % (what, v.outcome))
                    if sname == "capped" and axiom == "AxEv":
                        require(ref.is_fails, "capped AxEv certified %s, expected Fails" % ref.outcome)
                        plain = {k: x if isinstance(x, str) else x.as_fraction()
                                 for k, x in ref.evidence.items()}
                        checks.check_event_outside_cap(plain, cap_charts, man["caps"])

                ops.append(Op("%s/%s/%s" % (sname, axiom, form), run, check))
    return ops


# ---------------------------------------------------------------------------
# exact-sweeps


def _build_exact(man, env):
    from axrel.accel import ShipConfig, galaxy_trip, gtd_clock_ratio, load_scenario, twin_paradox
    from axrel.field import ER
    from axrel.kinematics import (
        PoincareMap, boost, check_mu_invariance, check_noftl, coord4, effects, plane_rotation,
    )
    from axrel.model import load_model

    ops = []
    for k, p in enumerate(man["maps"]):
        def run(p=p):
            i, j, c, s = p["rotation"]
            m = plane_rotation(i, j, c, s).compose(boost(p["v1"])).compose(boost(p["v2"]))
            w = PoincareMap(m.linear, tuple(ER(t) for t in p["translation"]))
            out = []
            for x, y in p["pairs"]:
                x, y = coord4(*x), coord4(*y)
                out.append((x, y, w.apply(x), w.apply(y), check_mu_invariance(w, x, y)))
            return w, out

        def check(result, p=p):
            w, out = result
            if p["rational"]:
                lin = tuple(tuple(e.as_fraction() for e in row) for row in w.linear)
                i, j, c, s = p["rotation"]
                expected = checks.mat_mul(checks.rotation_matrix(i, j, c, s), checks.mat_mul(
                    checks.boost_matrix(p["v1"]), checks.boost_matrix(p["v2"])))
                require(lin == expected, "map linear part differs from R B(v1) B(v2)")
                checks.check_lorentz_exact(lin)
                checks.check_mu_pairs([(tuple(c.as_fraction() for c in x), tuple(c.as_fraction() for c in y),
                                        tuple(c.as_fraction() for c in wx),
                                        tuple(c.as_fraction() for c in wy), eq)
                                       for x, y, wx, wy, eq in out], exact=True)
            else:
                checks.check_lorentz_float([[float(e) for e in row] for row in w.linear])
                checks.check_mu_pairs([(tuple(c.as_fraction() for c in x), tuple(c.as_fraction() for c in y),
                                        tuple(float(c) for c in wx), tuple(float(c) for c in wy), eq)
                                       for x, y, wx, wy, eq in out], exact=False)

        ops.append(Op("mu-map%d-%s" % (k, "rational" if p["rational"] else "irrational"), run, check))

    for k, cfg in enumerate(man["noftl"]):
        s = load_model(cfg["file"])

        def run(s=s, cfg=cfg):
            return check_noftl(s, s.bodies["m"], s.bodies["k"], s.bodies["p"],
                               start=coord4(*cfg["start"]), target=tuple(ER(c) for c in cfg["target"]))

        def check(v, cfg=cfg):
            checks.check_noftl(v.outcome, v.evidence["y4"].as_fraction(), v.evidence["t"].as_fraction(),
                               cfg["expected_y4"], cfg["expected_t"])

        ops.append(Op("noftl%d" % k, run, check))

    for k, v in enumerate(man["effects"]):
        def check(rep, v=v):
            d = rep.time_dilation
            checks.check_effects_exact(v, (d * d).as_fraction(), rep.length_contraction == d,
                                       rep.clock_asynchrony.as_fraction())
            checks.check_effects_row(v, float(d), float(rep.length_contraction),
                                     float(rep.clock_asynchrony))

        ops.append(Op("effects-%s" % lit(v), lambda v=v: effects(v), check))

    for k, (path, expected) in enumerate(man["twins"]):
        sc = load_scenario(path)

        def check(result, expected=expected, k=k):
            home, trav = result
            checks.check_twin(home.as_fraction(), trav.as_fraction(), *expected, what="twin%d" % k)

        ops.append(Op("twin%d" % k, lambda sc=sc: twin_paradox(sc), check))

    def run_galaxy():
        return twin_paradox(galaxy_trip(200, 1)[1])

    def check_galaxy(result):
        home, trav = result
        checks.check_galaxy(trav.as_fraction(), (home * home).as_fraction(), float(home))

    ops.append(Op("galaxy-trip", run_galaxy, check_galaxy))

    def run_gtd():
        return [gtd_clock_ratio(ShipConfig(g, h)) for g, h in man["gtd"]]

    def check_gtd(ratios):
        for r, (g, h) in zip(ratios, man["gtd"]):
            checks.check_gtd(r.as_fraction(), g, h)

    ops.append(Op("gtd-sweep", run_gtd, check_gtd))
    return ops


# ---------------------------------------------------------------------------
# genrel-float


def _build_genrel(man, env):
    from axrel.accel import hyperbolic_worldline, proper_time
    from axrel.genrel import check_chart_theory, flat_chart, geodesic, load_chart_file, rindler_chart

    f = man["files"]
    charts = {"rindler": rindler_chart(), "flat": flat_chart(),
              "rindler_file": load_chart_file(f["rindler"]).chart,
              "flat_file": load_chart_file(f["flat"]).chart}
    ops = []
    for k, gd in enumerate(man["geodesics"]):
        x0 = [float(c) for c in gd["x0"]]
        u0 = [float(c) for c in gd["u0"]]

        def run(gd=gd, x0=x0, u0=u0):
            # One halving per geodesic: the same amount of work on every seed.
            return geodesic(charts[gd["chart"]], x0, u0, span=gd["span"], step=gd["step"],
                            max_halvings=1)

        def check(res, gd=gd, x0=x0, u0=u0, k=k):
            what = "geodesic %d in %s" % (k, gd["chart"])
            require(not res.truncated and not res.drift_flagged, "%s: truncated or flagged" % what)
            if gd["chart"].startswith("rindler"):
                checks.check_straight(res.lambdas, res.points, checks.rindler_to_minkowski, 1e-6, what)
            else:
                checks.check_flat_line(res.lambdas, res.points, x0, u0, 1e-9, what)

        ops.append(Op("geodesic%d-%s" % (k, gd["chart"]), run, check))

    for name in ("rindler", "flat"):
        def run(path=f[name]):
            return check_chart_theory(load_chart_file(path))

        def check(results, name=name):
            bad = {k: v.outcome for k, v in results.items() if not v.is_holds}
            require(not bad and len(results) > 6, "GenRel suite on %s chart: %s" % (name, bad))

        fault = None
        if name == "flat":
            fault = ("AxDiff_9 Fails on the translation between the two static observers: "
                     "the 4th central difference of a linear map exceeds the tolerance by rounding")
        ops.append(Op("chart-theory-%s" % name, run, check, known_fault=fault))

    for k, (g, t) in enumerate(man["proper_times"]):
        def run(g=g, t=t):
            return proper_time(hyperbolic_worldline(g), 0.0, float(t))

        def check(tau, g=g, t=t):
            checks.check_proper_time(float(tau.midpoint), float(tau.width), float(g), float(t))

        ops.append(Op("proper-time%d" % k, run, check))
    return ops


BUILDERS = {"cli": _build_cli, "sampled-eval": _build_sampled,
            "exact-sweeps": _build_exact, "genrel-float": _build_genrel}

