"""Shows that the output checks are not vacuous.

    python3 perfbench/selftest.py

Each case feeds a check the right answer, which it must accept, and one
perturbed answer (a wrong twin age, a bent geodesic, a flipped verdict,
...), which it must reject.  Also checks that ``BENCHMARK.json``, when it
sits in the checkout, names exactly the metrics the benchmark prints.
Needs no program import; exits 1 on the first check that accepts a wrong
answer or rejects a right one.
"""

import json
import math
import os
import sys
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402


def _minkowski_line(a, b, lambdas):
    return [tuple(a[k] + lam * b[k] for k in range(4)) for lam in lambdas]


def _to_rindler(p):
    x, y, z, t = p
    return (math.sqrt(x * x - t * t), y, z, math.atanh(t / x))


def cases():
    lambdas = [k / 20 for k in range(21)]
    straight = [_to_rindler(p) for p in _minkowski_line((2, 0, 0, 0), (0.2, 0.1, 0, 0.55), lambdas)]
    bent = list(straight)
    bent[10] = (bent[10][0] + 1e-4,) + bent[10][1:]
    x0, u0 = (1, 2, 0, 0), (0.1, 0, 0.2, 1)
    flat = _minkowski_line(x0, u0, lambdas)
    flat_bent = list(flat)
    flat_bent[5] = flat_bent[5][:3] + (flat_bent[5][3] + 1e-6,)
    capped = {"rest": checks.Chart({"velocity": (0, 0, 0)}),
              "capped": checks.Chart({"velocity": (F(3, 5), 0, 0)})}
    caps = {"capped": (4, None, F(10))}
    outside = {"o": "rest", "o'": "capped", "x1": "33/4", "x2": "0", "x3": "0", "x4": "55/4"}
    inside = dict(outside, x1="0", x4="1")
    lin = checks.boost_matrix((F(3, 5), 0, 0))
    bad_lin = tuple(tuple(e + (F(1, 10**6) if (i, j) == (0, 0) else 0) for j, e in enumerate(r))
                    for i, r in enumerate(lin))
    x, y = (F(1), F(2), F(0), F(3)), (F(-1), F(0), F(1, 2), F(5))
    wx, wy = checks.mat_vec(lin, x), checks.mat_vec(lin, y)
    report = {"schema": checks.REPORT_SCHEMA, "results": {"AxPh": {"outcome": "Holds"}},
              "summary": {"Holds": 1, "Fails": 0, "Unknown": 0}}
    text = "AxPh     Holds    certified\nAxEv     Holds    certified\n"
    galaxy_home = 2 * math.sqrt(40001)
    sqrt_16_25 = math.sqrt(1 - 0.36)

    # (name, accepted call, rejected call)
    return [
        ("twin ages", lambda: checks.check_twin(F(10), F(8), F(10), F(8)),
         lambda: checks.check_twin(F(10), F(81, 10), F(10), F(8))),
        ("galaxy traveler", lambda: checks.check_galaxy(F(2), F(160004), galaxy_home),
         lambda: checks.check_galaxy(F(3), F(160004), galaxy_home)),
        ("galaxy home", lambda: checks.check_galaxy(F(2), F(160004), galaxy_home),
         lambda: checks.check_galaxy(F(2), F(160005), galaxy_home)),
        ("gtd ratio", lambda: checks.check_gtd(F(3, 2), 1, F(1, 2)),
         lambda: checks.check_gtd(F(7, 5), 1, F(1, 2))),
        ("dilation exact", lambda: checks.check_effects_exact(F(3, 5), F(16, 25), True, F(3, 5)),
         lambda: checks.check_effects_exact(F(3, 5), F(17, 25), True, F(3, 5))),
        ("asynchrony exact", lambda: checks.check_effects_exact(F(3, 5), F(16, 25), True, F(3, 5)),
         lambda: checks.check_effects_exact(F(3, 5), F(16, 25), True, F(4, 5))),
        ("dilation float", lambda: checks.check_effects_row(F(3, 5), sqrt_16_25, sqrt_16_25, 0.6),
         lambda: checks.check_effects_row(F(3, 5), sqrt_16_25 + 1e-10, sqrt_16_25, 0.6)),
        ("noftl arrival", lambda: checks.check_noftl("Holds", F(5), F(3), F(5), F(3)),
         lambda: checks.check_noftl("Holds", F(5), F(4), F(5), F(3))),
        ("noftl verdict", lambda: checks.check_noftl("Holds", F(5), F(3), F(5), F(3)),
         lambda: checks.check_noftl("Fails", F(5), F(3), F(5), F(3))),
        ("Lorentz exact", lambda: checks.check_lorentz_exact(lin),
         lambda: checks.check_lorentz_exact(bad_lin)),
        ("Lorentz float", lambda: checks.check_lorentz_float([[float(e) for e in r] for r in lin]),
         lambda: checks.check_lorentz_float([[float(e) for e in r] for r in bad_lin])),
        ("mu invariance", lambda: checks.check_mu_pairs([(x, y, wx, wy, True)], exact=True),
         lambda: checks.check_mu_pairs([(x, y, wx, wy[:3] + (wy[3] + 1,), True)], exact=True)),
        ("mu claim", lambda: checks.check_mu_pairs([(x, y, wx, wy, True)], exact=False),
         lambda: checks.check_mu_pairs([(x, y, wx, wy, False)], exact=False)),
        ("Rindler geodesic", lambda: checks.check_straight(lambdas, straight, checks.rindler_to_minkowski),
         lambda: checks.check_straight(lambdas, bent, checks.rindler_to_minkowski)),
        ("flat geodesic", lambda: checks.check_flat_line(lambdas, flat, x0, u0),
         lambda: checks.check_flat_line(lambdas, flat_bent, x0, u0)),
        ("proper time", lambda: checks.check_proper_time(math.asinh(1.5), 1e-10, 1.0, 1.5),
         lambda: checks.check_proper_time(math.asinh(1.5) + 1e-9, 1e-10, 1.0, 1.5)),
        ("proper time width", lambda: checks.check_proper_time(math.asinh(1.5), 1e-10, 1.0, 1.5),
         lambda: checks.check_proper_time(math.asinh(1.5), 1.0, 1.0, 1.5)),
        ("all verdicts hold", lambda: checks.check_all_hold(checks.text_outcomes(text), 0, "t"),
         lambda: checks.check_all_hold(checks.text_outcomes(text.replace("Holds", "Fails", 1)), 0, "t")),
        ("exit code", lambda: checks.check_all_hold(checks.text_outcomes(text), 0, "t"),
         lambda: checks.check_all_hold(checks.text_outcomes(text), 1, "t")),
        ("report schema", lambda: checks.check_json_report(json.dumps(report)),
         lambda: checks.check_json_report(json.dumps(dict(report, schema="axrel.report/0")))),
        ("report summary", lambda: checks.check_json_report(json.dumps(report)),
         lambda: checks.check_json_report(json.dumps(dict(report, summary={
             "Holds": 0, "Fails": 1, "Unknown": 0})))),
        ("AxEv outside cap", lambda: checks.check_event_outside_cap(outside, capped, caps),
         lambda: checks.check_event_outside_cap(inside, capped, caps)),
        ("usage error", lambda: checks.check_usage_error(65, "axrel: bad line 2\n", "t"),
         lambda: checks.check_usage_error(1, "Traceback (most recent call last):\n  x\n", "t")),
        ("parse round trip",
         lambda: checks.check_parse_roundtrip("A o:B . Ph(o)", "A o:B . Ph(o)", "A o:B . Ph(o)"),
         lambda: checks.check_parse_roundtrip("A o:B . Ph(o)", "A o:B . IB(o)", "A o:B . IB(o)")),
        ("geodesic csv", lambda: checks.check_geodesic_csv("lambda,x1,x2,x3,x4,u1,u2,u3,u4\n" + "0," * 8 + "0\n"),
         lambda: checks.check_geodesic_csv("lambda,x1\n0,0\n")),
    ]


def check_benchmark_json():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return
    import run
    import tracer

    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    checks.require(e2e == run.END_TO_END, "BENCHMARK.json end_to_end differs from run.END_TO_END")
    checks.require(layer == tracer.PER_LAYER, "BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    checks.require([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
                   "BENCHMARK.json workloads differ from run.WORKLOADS")


def main():
    for name, good, bad in cases():
        try:
            good()
        except CheckFailed as exc:
            sys.exit("selftest: %s rejected the right answer: %s" % (name, exc))
        try:
            bad()
        except CheckFailed:
            continue
        sys.exit("selftest: %s accepted a perturbed answer" % name)
    check_benchmark_json()
    print("selftest: %d checks accept the right answer and reject a perturbed one" % len(cases()))


if __name__ == "__main__":
    main()
