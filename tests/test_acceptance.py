"""Acceptance criteria, one test per criterion.

Every tolerance is pinned here; exact means zero tolerance in the tower
field.  Each test prints one PASS line on success (visible with -s or in
the captured output section); a failure fails the test outright.
"""

import json
import math
import random
import time
from fractions import Fraction as Fr

import numpy as np
import pytest

from axrel.cli import main as cli_main
from axrel.field import ER, parse_exact, sqrt
from axrel.kinematics import (
    ETA, boost, check_mu_invariance, check_noftl, coord4, effects, mu,
    random_null_direction, random_poincare_map, random_subluminal_velocity,
    relative_velocity,
)
from axrel.linalg import mat_eq, mat_mul, transpose
from axrel.model import (
    Body, InertialLine, ObserverSpec, PhotonLine, PiecewiseInertial,
    galilean_structure, standard_minkowski, unsafe_inertial_line,
)
from axrel.semantics import Budget, check_ind_instance, check_theory, evaluate, recheck_counterexample
from axrel.syntax import (
    alpha_equal, all_named_axioms, axiom_corpus, ind_battery, named_axiom,
    parse, print_formula,
)
from axrel.accel import (
    AcceleratedScenario, ShipConfig, galaxy_trip, gtd_clock_ratio, proper_time,
    twin_paradox,
)
from axrel.genrel import (
    check_axph_minus, check_axsymt_minus, check_chart_theory, flat_chart,
    geodesic, normal_frame, parse_chart_file, rindler_chart,
    rindler_to_minkowski,
)

_T0 = time.time()
BUDGET = Budget(samples=16, seed=2024)


def _ok(n, message):
    print("ACCEPTANCE %d PASS: %s" % (n, message))


def _acceptance_model():
    return standard_minkowski([
        ObserverSpec("rest"),
        ObserverSpec("boosted", velocity=(Fr(3, 5), 0, 0)),
        ObserverSpec("updown", velocity=(0, Fr(4, 5), 0)),
        ObserverSpec("skew", velocity=(Fr(3, 5), 0, 0),
                     rotations=((1, 2, Fr(3, 5), Fr(4, 5)),),
                     translation=(1, 0, 0, 2)),
    ])


def test_acceptance_1_specrel_suite():
    start = time.time()
    s = _acceptance_model()
    results = check_theory(s, axiom_corpus("SpecRel"), BUDGET)
    assert set(results) == {"AxField", "AxSelf", "AxPh", "AxEv", "AxSymd"}
    for name, verdict in results.items():
        assert verdict.is_holds, name
        assert verdict.method == "certified", name
    elapsed = time.time() - start
    assert elapsed < 10.0
    g = galilean_structure([ObserverSpec("lab"),
                            ObserverSpec("train", velocity=(Fr(3, 5), 0, 0))])
    neg = check_theory(g, axiom_corpus("SpecRel"), BUDGET)
    assert neg["AxPh"].is_fails
    assert recheck_counterexample(g, named_axiom("AxPh"), neg["AxPh"].evidence)
    _ok(1, "SpecRel certified Holds on the standard model in %.2fs; "
           "Galilean AxPh fails with a re-checkable counterexample" % elapsed)


def test_acceptance_2_noftl_sweep():
    s = standard_minkowski([ObserverSpec("m")])
    m = s.bodies["m"]
    rng = random.Random(40001)
    checked = 0
    while checked < 1000:
        v = random_subluminal_velocity(rng)
        if all(c.is_zero() for c in v):
            continue
        start = coord4(Fr(rng.randint(-5, 5), rng.randint(1, 3)),
                       Fr(rng.randint(-5, 5), rng.randint(1, 3)),
                       Fr(rng.randint(-5, 5), rng.randint(1, 3)),
                       Fr(rng.randint(-5, 5), rng.randint(1, 3)))
        span = Fr(rng.randint(1, 12), rng.randint(1, 3))
        target = tuple(start[i] + v[i] * ER(span) for i in range(3))
        speed = sqrt(sum((c * c for c in v), ER(0)))
        direction = tuple(c / speed for c in v)
        k = Body("k", InertialLine(start, v))
        p = Body("p", PhotonLine(start, direction))
        s2 = s.with_extra_bodies([k, p])
        verdict = check_noftl(s2, m, s2.bodies["k"], s2.bodies["p"], start, target)
        assert verdict.is_holds, (checked, verdict.evidence)
        checked += 1
    bad = Body("k", unsafe_inertial_line((0, 0, 0, 0), (2, 0, 0)))
    p = Body("p", PhotonLine(coord4(0, 0, 0, 0), (ER(1), ER(0), ER(0))))
    s3 = s.with_extra_bodies([bad, p])
    verdict = check_noftl(s3, m, s3.bodies["k"], s3.bodies["p"],
                          coord4(0, 0, 0, 0), (ER(4), ER(0), ER(0)))
    assert verdict.is_fails
    _ok(2, "1000 seeded NoFTL configurations hold exactly; "
           "the quarantined superluminal model fails")


def test_acceptance_3_mu_invariance():
    rng = random.Random(1905)
    for i in range(100):
        w = random_poincare_map(rng)
        assert mat_eq(mat_mul(transpose(w.linear), mat_mul(ETA, w.linear)), ETA), i
        for j in range(10):
            x = coord4(*[Fr(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4)])
            y = coord4(*[Fr(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4)])
            assert check_mu_invariance(w, x, y), (i, j)
    _ok(3, "mu equality exact in all 1000 cases; L^T eta L = eta exact for all 100 maps")


def test_acceptance_4_paradigmatic_effects(capsys):
    code = cli_main(["effects", "--v", "3/5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "time dilation         = 4/5" in out
    assert "length contraction    = 4/5" in out
    assert "clock asynchrony      = 3/5" in out
    for k in range(10):
        v = Fr(k, 10)
        rep = effects(v)
        expected = sqrt(1 - ER(v) * ER(v))
        assert rep.time_dilation == expected
        assert rep.length_contraction == expected
    s = standard_minkowski([
        ObserverSpec("rest"), ObserverSpec("boosted", velocity=(Fr(3, 5), 0, 0))])
    va = relative_velocity(s, s.bodies["rest"], s.bodies["boosted"])
    vb = relative_velocity(s, s.bodies["boosted"], s.bodies["rest"])
    sa = sqrt(sum((c * c for c in va), ER(0)))
    sb = sqrt(sum((c * c for c in vb), ER(0)))
    assert effects(sa) == effects(sb)
    with capsys.disabled():
        _ok(4, "effects at 3/5 are exactly (4/5, 4/5, 3/5); sweep matches "
               "sqrt(1-v^2) exactly; reports are reciprocal")


def test_acceptance_5_twin_paradox():
    home = Body("home", InertialLine(coord4(0, 0, 0, 0), (ER(0),) * 3))
    traveler = Body("traveler", PiecewiseInertial(
        (coord4(0, 0, 0, 0), coord4(3, 0, 0, 5), coord4(0, 0, 0, 10))))
    sc = AcceleratedScenario("roundtrip", home, traveler,
                             coord4(0, 0, 0, 0), coord4(0, 0, 0, 10))
    tau_home, tau_traveler = twin_paradox(sc)
    assert tau_home == ER(10) and tau_traveler == ER(8)

    # maximal aging: 200 seeded piecewise competitors, strict and exact
    rng = random.Random(88)
    straight = proper_time(home.worldline, 0, 10)
    built = 0
    while built < 200:
        n_knots = rng.randint(1, 3)
        times = sorted(Fr(rng.randint(1, 99), 10) for _ in range(n_knots))
        if len(set(times)) != n_knots:
            continue
        knots = [coord4(0, 0, 0, 0)]
        ok = True
        for t in times:
            prev = knots[-1]
            dt = ER(t) - prev[3]
            room = min(float(dt), 10.0 - float(t))
            mag = Fr(rng.randint(1, 8), 10) * Fr(
                min(Fr(room).limit_denominator(10), 1))
            d = random_null_direction(rng)
            point = tuple(prev[i] + ER(mag) * d[i] * dt for i in range(3)) + (ER(t),)
            knots.append(point)
        # close the path; final segment must stay subluminal
        final_dt = ER(10) - knots[-1][3]
        dist2 = sum((knots[-1][i] ** 2 for i in range(3)), ER(0))
        if (dist2 - final_dt * final_dt).sign() >= 0:
            continue
        knots.append(coord4(0, 0, 0, 10))
        nontrivial = any(not knots[i][j].is_zero() for i in range(1, len(knots) - 1)
                         for j in range(3))
        if not nontrivial:
            continue
        try:
            competitor = PiecewiseInertial(tuple(knots))
        except ValueError:
            continue
        tau = proper_time(competitor, 0, 10)
        assert tau < straight, built
        built += 1

    v, galaxy = galaxy_trip(200, 1)
    assert v == ER(200) / sqrt(ER(40001))
    tau_home_g, tau_traveler_g = twin_paradox(galaxy)
    assert tau_traveler_g == ER(2)
    assert tau_home_g == 2 * sqrt(ER(40001))
    _ok(5, "round trip at 3/5: home 10, traveler exactly 8; inertial aging "
           "strictly maximal over 200 competitors; galaxy trip ages exactly 2")


def test_acceptance_6_gravitational_time_dilation():
    h = Fr(1, 2)
    assert gtd_clock_ratio(ShipConfig(1, h)) == 1 + ER(1) * ER(h)
    previous = None
    g = Fr(0)
    while g <= 8:
        ratio = gtd_clock_ratio(ShipConfig(g, h))
        assert ratio == 1 + ER(g) * ER(h)
        if previous is not None:
            assert ratio > previous
        previous = ratio
        g += Fr(1, 4)
    bound = ER(100)
    g_past = (bound - 1) / ER(h) + Fr(1, 7)
    assert gtd_clock_ratio(ShipConfig(g_past, h)) > bound
    _ok(6, "clock ratio is exactly 1 + g*h, strictly increasing on the sweep, "
           "and exceeds M=100 beyond (M-1)/h")


def test_acceptance_7_ind_battery():
    s = _acceptance_model()
    field_instances = 0
    for inst in ind_battery():
        verdict = check_ind_instance(s, inst, BUDGET)
        assert verdict.is_holds, inst.name
        if inst.expected_sup and inst.expected_sup != "p":
            assert verdict.evidence["sup"] == parse_exact(inst.expected_sup), inst.name
        if inst.field_language:
            field_instances += 1
            # structure-independence: the tower field alone decides it
            from axrel.model import Structure
            bare = Structure([], {}, photon_family=False, inertial_family=False)
            assert check_ind_instance(bare, inst, BUDGET).is_holds, inst.name
    assert field_instances >= 16
    _ok(7, "all 20 IND instances hold with exact suprema; field-language "
           "instances hold on the tower field alone")


FLAT_TEXT = """
chart flat
order 9
g 1 1 = 1
g 2 2 = 1
g 3 3 = 1
g 4 4 = 0 - 1
worldline origin 0 0 0
worldline off 1 0 0
meet origin origin 0 0 0 0
"""


def test_acceptance_8_genrel_local_checks():
    flat_cfg = parse_chart_file(FLAT_TEXT)
    flat_results = check_chart_theory(flat_cfg, n=3)
    for name in ("AxSelf-", "AxEv-", "AxPh-", "AxSymt-", "AxDiff_3"):
        assert flat_results[name].is_holds, name
    # agreement with the SpecRel-level counterparts
    s = _acceptance_model()
    specrel = check_theory(s, axiom_corpus("SpecRel"), BUDGET)
    assert specrel["AxPh"].is_holds == flat_results["AxPh-"].is_holds
    from axrel.model import SmoothNumeric
    still = SmoothNumeric(lambda t: (0.0, 0.0, 0.0), 9, -5, 5,
                          velocity=lambda t: (0.0, 0.0, 0.0))
    mover = SmoothNumeric(lambda t: (0.6 * t, 0.0, 0.0), 9, -5, 5,
                          velocity=lambda t: (0.6, 0.0, 0.0))
    symt = check_axsymt_minus(flat_chart(), still, mover, 0.0)
    sr_rate = float(effects(Fr(3, 5)).time_dilation)
    assert abs(symt.evidence["rate_1_sees_2"] - sr_rate) <= 1e-9

    rind = rindler_chart()
    for p in ((1.0, 0, 0, 0), (0.5, 1.0, -1.0, 2.0), (4.0, 0, 0, -3.0)):
        verdict = check_axph_minus(rind, p)
        assert verdict.is_holds, p
    res = geodesic(rind, (2.0, 0, 0, 0), (0.2, 0, 0, 0.55), span=1.0, step=0.005)
    assert res.conservation_drift <= 1e-6
    mink = np.array([rindler_to_minkowski(p) for p in res.points])
    lam = res.lambdas
    deviation = 0.0
    for c in range(4):
        a, b = mink[0, c], mink[-1, c]
        chord = a + (b - a) * (lam - lam[0]) / (lam[-1] - lam[0])
        deviation = max(deviation, float(np.max(np.abs(mink[:, c] - chord))))
    assert deviation <= 1e-6
    _ok(8, "flat chart: all localized axioms hold and agree with SpecRel; "
           "Rindler AxPh- within 1e-9; geodesic straightness and drift within 1e-6")


def test_acceptance_9_toolchain(tmp_path, capsys):
    # parse-print identity on the corpus
    for name, sentence in all_named_axioms():
        assert alpha_equal(parse(print_formula(sentence)), sentence), name
    # and on 1000 generated formulas
    from tests.test_syntax import _random_formula
    from axrel.syntax import Forall, Sort, is_sentence

    rng = random.Random(515)
    for i in range(1000):
        f = Forall("o0", Sort.BODY, _random_formula(rng, 4, {"o0": Sort.BODY}))
        assert is_sentence(f)
        assert alpha_equal(parse(print_formula(f)), f), i
    # deterministic byte-identical reports
    model = tmp_path / "mink.model"
    model.write_text("""
structure minkowski
families photons inertials
observer rest
observer boosted velocity 3/5 0 0
observer updown velocity 0 4/5 0
observer skew velocity 3/5 0 0 rotate 1 2 3/5 4/5 translate 1 0 0 2
""")
    args = ["report", str(model), "--theory", "AccRel", "--seed", "7", "--samples", "10"]
    assert cli_main(args) == 0
    first = capsys.readouterr().out
    assert cli_main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["schema"] == "axrel.report/1"
    elapsed = time.time() - _T0
    assert elapsed <= 300.0, "acceptance run took %.1fs" % elapsed
    with capsys.disabled():
        _ok(9, "parse-print identity on corpus and 1000 formulas; reports "
               "byte-identical; acceptance suite finished in %.1fs" % elapsed)
