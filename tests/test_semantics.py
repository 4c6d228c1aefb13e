import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction as Fr
from math import isqrt
from pathlib import Path

import pytest

from axrel import linalg
from axrel import semantics as semantics_module
from axrel.field import ER, ExactReal, sqrt
from axrel.kinematics import AffineMap, boost, coord4, translation
from axrel.linalg import identity
from axrel.model import (
    Body, ChartDomain, InertialLine, ObserverSpec, PhotonLine, PiecewiseInertial, SmoothNumeric,
    Structure, parse_model, standard_minkowski,
)
from axrel.certify import _certify_axsymd, _symd_violation
from axrel.semantics import (
    Budget, UnknownAxiom, Verdict, _Ctx, _event_contents_equal,
    check_axiom,
    check_ind_instance, check_theory, evaluate, recheck_counterexample,
    witness_inertial, witness_photon,
)
from axrel.syntax import (
    Sort, axiom_corpus, expand_definitions, ind_battery, named_axiom, parse,
)


BUDGET = Budget(samples=16, seed=11)


def test_axself_holds_certified(minkowski):
    v = check_axiom(minkowski, "AxSelf", BUDGET, theory="SpecRel")
    assert v.is_holds and v.method == "certified"


def test_specrel_all_certified_on_standard_model(minkowski):
    results = check_theory(minkowski, axiom_corpus("SpecRel"), BUDGET)
    assert set(results) == {"AxField", "AxSelf", "AxPh", "AxEv", "AxSymd"}
    for name, v in results.items():
        assert v.is_holds, name
        assert v.method == "certified", name


def test_galilean_axph_fails_with_recheckable_counterexample(galilean):
    v = check_axiom(galilean, "AxPh", BUDGET, theory="SpecRel")
    assert v.is_fails
    assert recheck_counterexample(galilean, named_axiom("AxPh"), v.evidence)


def test_half_speed_photon_fails(two_observer):
    f = parse("E p:B . Ph(p) & W(o,p,0,0,0,0) & W(o,p,1,0,0,1+1)", {"o": Sort.BODY})
    v = evaluate(two_observer, f, {"o": two_observer.bodies["rest"]}, BUDGET)
    assert v.is_fails and v.method == "certified"


def test_lightlike_photon_witnessed(two_observer):
    f = parse("E p:B . Ph(p) & W(o,p,0,0,0,0) & W(o,p,1,0,0,1)", {"o": Sort.BODY})
    v = evaluate(two_observer, f, {"o": two_observer.bodies["rest"]}, BUDGET)
    assert v.is_holds
    assert v.evidence["p"].is_photon


def test_deeply_alternating_formula_unknown(two_observer):
    f = parse("E x:Q . A y:Q . x*x*x = y*y*y*y + 1")
    v = evaluate(two_observer, f, None, Budget(samples=3, seed=1))
    assert v.outcome == "Unknown"
    assert v.budget_report["samples"] > 0


def test_witness_photon_endpoints(two_observer):
    rest = two_observer.bodies["rest"]
    p = witness_photon(two_observer, rest, coord4(0, 0, 0, 0), coord4(1, 0, 0, 1))
    assert p is not None and p.is_photon
    assert witness_photon(two_observer, rest,
                          coord4(0, 0, 0, 0), coord4(1, 0, 0, 2)) is None
    diag = witness_photon(two_observer, rest,
                          coord4(0, 0, 0, 0), coord4(Fr(3, 5), Fr(4, 5), 0, 1))
    assert diag is not None
    assert diag.worldline.direction == (ER(Fr(3, 5)), ER(Fr(4, 5)), ER(0))


def test_witness_inertial_requires_timelike(two_observer):
    rest = two_observer.bodies["rest"]
    assert witness_inertial(two_observer, rest,
                            coord4(0, 0, 0, 0), coord4(0, 0, 0, 2)) is not None
    assert witness_inertial(two_observer, rest,
                            coord4(0, 0, 0, 0), coord4(3, 0, 0, 2)) is None


def test_witness_inertial_respects_the_chart_domain():
    s = parse_model("structure capped\nfamilies photons inertials\nobserver rest\n"
                    "observer capped velocity 1/2 0 0 domain 4 -inf 10\n")
    capped = s.bodies["capped"]
    assert witness_inertial(s, capped, coord4(0, 0, 0, 0), coord4(0, 0, 0, 1)) is not None
    assert witness_inertial(s, capped, coord4(0, 0, 0, 20), coord4(0, 0, 0, 21)) is None

def test_sampled_evaluation_agrees_with_certified(minkowski, galilean):
    for structure in (minkowski, galilean):
        certified = check_theory(structure, axiom_corpus("SpecRel"), BUDGET)
        for name in ("AxSelf", "AxPh", "AxEv", "AxSymd"):
            sampled = evaluate(structure, named_axiom(name), None, BUDGET)
            assert sampled.outcome == certified[name].outcome, (structure.name, name)


def test_certified_sampled_cross_check_hundred_seeded_runs(minkowski, galilean):
    # 100 seeded runs: 25 seeds x 2 axioms x 2 structures
    runs = 0
    for structure in (minkowski, galilean):
        certified = check_theory(structure, axiom_corpus("SpecRel"), BUDGET)
        for name in ("AxSelf", "AxPh"):
            for seed in range(25):
                sampled = evaluate(structure, named_axiom(name), None,
                                   Budget(samples=10, seed=seed))
                assert sampled.outcome == certified[name].outcome, \
                    (structure.name, name, seed)
                runs += 1
    assert runs == 100


def test_determinism_same_seed_same_verdict(two_observer):
    a = evaluate(two_observer, named_axiom("AxEv"), None, Budget(samples=9, seed=42))
    b = evaluate(two_observer, named_axiom("AxEv"), None, Budget(samples=9, seed=42))
    assert a.outcome == b.outcome
    assert a.to_json_dict() == b.to_json_dict()


def test_sample_seeds_match_hashlib_blake2b(two_observer):
    # The sampler takes blake2b from _blake2, not hashlib; the seeds must not move.
    for seed in (0, 11, 2**40 + 3):
        ctx = _Ctx(two_observer, Budget(seed=seed))
        for path in ("", "l", "rab", "nlrlab", "AxEv/0.1", "\u00e9"):
            digest = hashlib.blake2b(path.encode(), digest_size=8).digest()
            expected = random.Random(int.from_bytes(digest, "big") ^ seed)
            assert ctx.rng(path).getstate() == expected.getstate(), (seed, path)


def test_sampler_falls_back_to_hashlib_without_builtin_blake2(tmp_path):
    # A build without CPython's own _blake2 module: semantics must take
    # hashlib's blake2b (here a stand-in module holding the same function).
    src = Path(semantics_module.__file__).resolve().parent.parent
    code = ("import sys, types, _blake2\n"
            "hashlib = types.ModuleType('hashlib'); hashlib.blake2b = _blake2.blake2b\n"
            "sys.modules.update(_blake2=None, hashlib=hashlib)\n"
            "sys.path.insert(0, %r)\n"
            "import axrel.semantics as s\n"
            "assert s.blake2b is hashlib.blake2b\n"
            "print(s.blake2b(b'AxEv/0.1', digest_size=8).hexdigest())" % str(src))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=tmp_path).stdout.split()
    assert out == [hashlib.blake2b(b"AxEv/0.1", digest_size=8).hexdigest()]


def test_budget_monotonicity(minkowski, galilean):
    # growing the budget never flips Holds <-> Fails on the test pair
    for structure in (minkowski, galilean):
        for name in ("AxSelf", "AxPh", "AxSymd"):
            small = evaluate(structure, named_axiom(name), None, Budget(samples=6, seed=5))
            large = evaluate(structure, named_axiom(name), None, Budget(samples=40, seed=5))
            if small.outcome != "Unknown":
                assert small.outcome == large.outcome, (structure.name, name)


def test_expansion_preserves_verdicts(minkowski, galilean):
    for structure in (minkowski, galilean):
        for name in ("AxSelf", "AxPh", "AxEv", "AxSymd"):
            original = evaluate(structure, named_axiom(name), None, BUDGET)
            expanded = evaluate(structure, expand_definitions(named_axiom(name)),
                                None, BUDGET)
            assert original.outcome == expanded.outcome, (structure.name, name)


def test_fails_evidence_rechecks_exactly(galilean):
    v = evaluate(galilean, named_axiom("AxPh"), None, BUDGET)
    assert v.is_fails
    assert recheck_counterexample(galilean, named_axiom("AxPh"), v.evidence, BUDGET)


def test_broken_axself_counterexample():
    # chart whose preimage of the time axis is not the observer's worldline
    line = InertialLine(coord4(1, 0, 0, 0), (ER(0), ER(0), ER(0)))
    body = Body("off", line)
    s = Structure([body], {"off": AffineMap(identity(4))})
    v = check_axiom(s, "AxSelf", BUDGET, theory="SpecRel")
    assert v.is_fails
    assert not v.evidence["x"].is_zero()


def test_broken_axev_restricted_domain():
    dom = ChartDomain(((None, None), (None, None), (None, None), (None, ER(10))))
    s = standard_minkowski([
        ObserverSpec("rest"),
        ObserverSpec("capped", domain=dom),
    ])
    v = check_axiom(s, "AxEv", BUDGET, theory="SpecRel")
    assert v.is_fails
    assert v.evidence["o"] == "rest"
    # the event is real for `rest` but invisible to `capped`: re-check
    x = tuple(v.evidence[k] for k in ("x1", "x2", "x3", "x4"))
    f = parse("E y1:Q y2:Q y3:Q y4:Q . A b:B . W(o,b,x1,x2,x3,x4) <-> W(o',b,y1,y2,y3,y4)",
              {"o": Sort.BODY, "o'": Sort.BODY,
               "x1": Sort.QUANTITY, "x2": Sort.QUANTITY,
               "x3": Sort.QUANTITY, "x4": Sort.QUANTITY})
    check = evaluate(s, f, {"o": s.bodies["rest"], "o'": s.bodies["capped"],
                            "x1": x[0], "x2": x[1], "x3": x[2], "x4": x[3]}, BUDGET)
    assert check.is_fails


@pytest.mark.parametrize("order", [("rest", "capped"), ("capped", "rest")])
def test_axev_verdict_does_not_depend_on_declaration_order(order):
    lines = {"rest": "observer rest",
             "capped": "observer capped velocity 3/5 0 0 domain 4 -inf 10"}
    s = parse_model("structure minkowski\n" + "\n".join(lines[o] for o in order) + "\n")
    v = check_axiom(s, "AxEv", BUDGET, theory="SpecRel")
    assert v.is_fails and v.method == "certified"
    assert (v.evidence["o"], v.evidence["o'"]) == ("rest", "capped")
    assert tuple(v.evidence[k] for k in ("x1", "x2", "x3", "x4")) == (
        ER(Fr(33, 4)), ER(0), ER(0), ER(Fr(55, 4)))
    assert recheck_counterexample(s, named_axiom("AxEv"), v.evidence)

def test_broken_axsymd_scaled_chart():
    scale = [[ER(2 if i == j == 0 else (1 if i == j else 0)) for j in range(4)]
             for i in range(4)]
    body = Body("ruler", InertialLine(coord4(0, 0, 0, 0), (ER(0), ER(0), ER(0))))
    rest = Body("rest", InertialLine(coord4(0, 0, 0, 0), (ER(0), ER(0), ER(0))))
    s = Structure([rest, body],
                  {"rest": AffineMap(identity(4)), "ruler": AffineMap(scale)})
    v = check_axiom(s, "AxSymd", BUDGET, theory="SpecRel")
    assert v.is_fails
    sampled = evaluate(s, named_axiom("AxSymd"), None, BUDGET)
    assert sampled.is_fails


def test_unknown_axiom_name(minkowski):
    with pytest.raises(UnknownAxiom):
        check_axiom(minkowski, "AxNothing", BUDGET)


def test_check_theory_accrel_includes_ind(minkowski):
    results = check_theory(minkowski, axiom_corpus("AccRel"), BUDGET)
    ind_names = [k for k in results if k.startswith("IND.")]
    assert len(ind_names) == 20
    for name in ind_names:
        assert results[name].is_holds, name
    assert results["AxCmv"].is_holds and results["AxCmv"].method == "certified"


def test_ind_instances_exact_suprema(minkowski):
    from axrel.field import parse_exact

    for inst in ind_battery():
        v = check_ind_instance(minkowski, inst, BUDGET)
        assert v.is_holds, inst.name
        if inst.expected_sup and inst.expected_sup != "p":
            assert v.evidence["sup"] == parse_exact(inst.expected_sup), inst.name


def test_ind_instance_empty_set_vacuous(minkowski):
    inst = next(i for i in ind_battery() if i.name == "empty_order")
    v = check_ind_instance(minkowski, inst, BUDGET)
    assert v.is_holds
    assert "vacuously" in v.evidence["case"]


@pytest.mark.parametrize("text, sup", [
    ("!(1 < t) & 0 < t", 1),                          # Not: a complement
    ("(1 < t -> 1+1 < t) & t < 1+1+1", 3),            # Implies
    ("!(t = 1) & t < 1+1 & 0 < t", 2),                # Not of a point
    ("(t < 1 <-> 0 < t) & t < 1+1", 1),               # Iff
])
def test_ind_connectives_decide_exactly(minkowski, text, sup):
    from axrel.syntax import IndInstance

    inst = IndInstance("connective", parse(text, {"t": Sort.QUANTITY}), "t")
    v = check_ind_instance(minkowski, inst, BUDGET)
    assert v.is_holds and v.method == "certified"
    assert v.evidence["sup"] == ER(sup)


def test_an_equality_conjunct_pins_the_witness_to_its_roots(minkowski):
    # t*t = 2 pins t to +-sqrt(2): the exists holds at -sqrt(2) and fails
    # exactly once both roots fail, after one sample per root.
    v = evaluate(minkowski, parse("E t:Q . t*t = 1+1 & t < 0"), None, BUDGET)
    assert v.is_holds and v.method == "certified" and v.evidence["t"] == -sqrt(2)
    v = evaluate(minkowski, parse("E t:Q . t*t = 1+1 & 1+1 < t"), None, BUDGET)
    assert v.is_fails and v.method == "certified" and v.budget_report["samples"] == 2


def test_ind_sampled_agreement_with_solver(two_observer):
    # the generic evaluator confirms the solver's verdict on a sampled
    # instance (its universal clauses pass at the computed supremum)
    from axrel.syntax import instantiate_ind

    phi = parse("t*t < 1+1", {"t": Sort.QUANTITY})
    v = evaluate(two_observer, instantiate_ind(phi, "t"), None,
                 Budget(samples=24, seed=3))
    assert v.outcome in ("Holds", "Unknown")
    if v.is_holds:
        assert v.method == "sampled"


def _irrational_speed(rng):
    # p/q whose Lorentz factor 1/sqrt(1 - (p/q)^2) is not rational.
    while True:
        v = Fr(rng.randint(1, 8), rng.randint(9, 12))
        r = 1 - v * v
        if isqrt(r.numerator) ** 2 != r.numerator or isqrt(r.denominator) ** 2 != r.denominator:
            return v


def _pythagorean_speed(rng):
    # A speed whose Lorentz factor is rational.
    return rng.choice((Fr(3, 5), Fr(5, 13), Fr(8, 17), Fr(7, 25)))


def _irrational_structure(seed, speed=_irrational_speed):
    """Rest plus two translated observers at speeds drawn by `speed`
    (non-Pythagorean by default), the second also rotated; odd seeds cap
    the first mover's time below 10."""
    rng = random.Random(seed)
    specs = [ObserverSpec("rest")]
    for k in range(2):
        velocity = [0, 0, 0]
        velocity[rng.randint(0, 2)] = speed(rng)
        a = Fr(rng.randint(1, 6), rng.randint(1, 6))
        rotations = ((1, 2, (1 - a * a) / (1 + a * a), 2 * a / (1 + a * a)),) if k else ()
        translation = tuple(Fr(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
        capped = seed % 2 == 1 and k == 0
        domain = ChartDomain(((None, None),) * 3 + ((None, ER(10)),)) if capped else ChartDomain()
        specs.append(ObserverSpec("m%d" % k, velocity=tuple(velocity), rotations=rotations,
                                  translation=translation, domain=domain))
    return standard_minkowski(specs)


@pytest.mark.parametrize("seed", range(8))
def test_sampled_and_certified_agree_on_irrational_structures(seed):
    # The irrational structure, then the Lorentz, Galilean and mixed
    # structures of _symd_structure; each axiom sugared and expanded.  A
    # capped sampled Holds against a certified AxEv Fails is not asserted:
    # the sampling corners never leave the cap (ROADMAP item 1).  Every
    # structure has families, so the expanded Ob guards are decided
    # exactly, as the sugared atoms are, and draw no sample.
    irrational = _irrational_structure(seed)
    assert not irrational.chart_of(irrational.bodies["m0"]).linear[3][3].is_rational()
    budget = Budget(samples=4, seed=seed)
    structures = {"irrational": irrational}
    for kind in ("lorentz", "galilean", "mixed"):
        structures[kind] = _symd_structure(kind, seed)[0]
    for kind, s in structures.items():
        certified = check_theory(s, axiom_corpus("SpecRel"), budget)
        if kind == "irrational":
            # The cap puts events outside one worldview, so AxEv has a counterexample.
            assert certified["AxEv"].is_fails == (seed % 2 == 1)
        for name in ("AxSelf", "AxPh", "AxEv", "AxSymd"):
            reference = certified[name]
            if reference.is_fails:
                assert recheck_counterexample(s, named_axiom(name), reference.evidence), (kind, name)
            forms = []
            for sentence in (named_axiom(name), expand_definitions(named_axiom(name))):
                sampled = evaluate(s, sentence, None, budget)
                assert not (reference.is_holds and reference.method == "certified"
                            and sampled.is_fails), (kind, name, sentence)
                if sampled.is_fails:
                    assert recheck_counterexample(s, sentence, sampled.evidence), (kind, name)
                forms.append((sampled.outcome, sampled.method, sampled.budget_report["samples"]))
            assert forms[0] == forms[1], (kind, name)


def _symd_structure(kind, seed):
    """2-4 observers, each boosted (Lorentz) or Galilean-shifted along a
    seeded axis, some rotated, all translated; a mixed structure has both
    kinds of chart.  One seeded chart, or none, then scales space by
    3/2, as a ruler in other units would: AxSymd fails exactly when the
    scales differ.  Returns the structure and the scales."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    galilean = [kind == "galilean" or (kind == "mixed" and rng.random() < 0.5)
                for _ in range(n)]
    if kind == "mixed" and len(set(galilean)) == 1:
        galilean[rng.randrange(n)] = not galilean[0]
    lines = ["structure %s%d" % (kind, seed), "families photons inertials"]
    for k in range(n):
        v = [Fr(0)] * 3
        v[rng.randint(0, 2)] = rng.choice((Fr(3, 5), Fr(5, 13), _irrational_speed(rng)))
        words = ["observer", "o%d" % k, "galilean" if galilean[k] else "velocity"]
        words += [str(c) for c in v]
        if rng.random() < 0.5:
            a = Fr(rng.randint(1, 6), rng.randint(1, 6))
            i = rng.randint(1, 2)
            words += ["rotate", str(i), str(rng.randint(i + 1, 3)),
                      str((1 - a * a) / (1 + a * a)), str(2 * a / (1 + a * a))]
        words += ["translate"] + [str(Fr(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(4)]
        lines.append(" ".join(words))
    s = parse_model("\n".join(lines) + "\n")
    scales = [Fr(1)] * n
    ruler = rng.randrange(n + 1)  # n: no ruler
    if ruler < n:
        scales[ruler] = Fr(3, 2)
    charts = {}
    for (oid, chart), a in zip(s.charts.items(), scales):
        scale = [[ER(a if i == j < 3 else (1 if i == j else 0)) for j in range(4)]
                 for i in range(4)]
        charts[oid] = AffineMap(scale).compose(chart)
    return Structure(list(s.bodies.values()), charts), scales


def _ordered_pairs_axsymd(s):
    """The AxSymd reduction over every ordered pair (o, o'), o' varying
    fastest: (outcome, evidence) of the first violation, else Holds."""
    observers = s.observers()
    for o in observers:
        for o2 in observers:
            w = s.chart_of(o2).compose(s.chart_of(o).inverse())
            rows = ((ER(0), ER(0), ER(0), ER(1)), tuple(w.linear[3][j] for j in range(4)))
            bad = _symd_violation(w.linear, linalg.null_space(rows))
            if bad is not None:
                zero4 = (ER(0),) * 4
                ev = {"o": o.id, "o'": o2.id}
                ev.update(zip(("x1", "x2", "x3", "x4"), bad))
                ev.update(zip(("y1", "y2", "y3", "y4"), zero4))
                ev.update(zip(("x1'", "x2'", "x3'", "x4'"), w.apply(bad)))
                ev.update(zip(("y1'", "y2'", "y3'", "y4'"), w.apply(zero4)))
                return "Fails", ev
    return "Holds", {}


@pytest.mark.parametrize("kind", ["lorentz", "galilean", "mixed"])
@pytest.mark.parametrize("seed", range(8))
def test_axsymd_unordered_pairs_match_the_ordered_reference(kind, seed):
    s, scales = _symd_structure(kind, seed)
    outcome, evidence = _ordered_pairs_axsymd(s)
    assert outcome == ("Fails" if len(set(scales)) > 1 else "Holds")
    got = _certify_axsymd(s)
    assert got.outcome == outcome
    assert list(got.evidence) == list(evidence)
    for key, value in evidence.items():
        assert got.evidence[key] == value, key
        if isinstance(value, ExactReal):
            assert got.evidence[key].literal() == value.literal(), key


# -- reference-chart invariance --------------------------------------------


def rechart(s, p):
    """s with its reference chart moved by the Poincare map p: every
    worldline w becomes p(w) and every chart c becomes c o p^-1.  W, and
    so every verdict, is unchanged: it is the same model.  A numeric
    worldline has no `image` and is kept as it is, so in the copy it is
    another body."""
    bodies = [Body(b.id, b.worldline if b.worldline.pieces() is None else b.worldline.image(p))
              for b in s.bodies.values()]
    charts = {oid: chart.compose(p.inverse()) for oid, chart in s.charts.items()}
    return Structure(bodies, charts, s.photon_family, s.inertial_family, s.chart_domains,
                     s.name, s.constants)


# An observer whose domain leaves out its own origin, beside named bodies
# and no families: its Ob guard is decided by the straight-piece search.
LATE_MODEL = """structure late
families none
observer rest
observer late velocity 1/2 0 0 translate 1 0 0 1/2 domain 4 1 10
body walker piecewise knots 0 0 0 0 , 1 0 0 4 , 1 1/2 0 8
body flash photon through 1 0 0 0 direction 0 1 0
"""


def _shown(value):
    # A body by its id, a family body by its kind: the worldline it
    # carries is in reference coordinates, which rechart moves.
    if isinstance(value, Body):
        return value.id.split("#")[0]
    if isinstance(value, dict):
        return {key: _shown(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_shown(v) for v in value]
    return value


def _reference_free_verdicts(s):
    budget = Budget(samples=8, seed=5)
    out = {}
    for name in ("AxSelf", "AxPh", "AxEv", "AxSymd"):
        for form, sentence in (("sugared", named_axiom(name)),
                               ("expanded", expand_definitions(named_axiom(name)))):
            v = evaluate(s, sentence, None, budget)
            out[name, form] = (v.outcome, v.method, v.budget_report, _shown(v.evidence))
    for name, v in check_theory(s, axiom_corpus("SpecRel"), budget).items():
        out[name, "theory"] = (v.outcome, v.method, v.budget_report, _shown(v.evidence))
    return out


RATIONAL_P = boost((Fr(3, 5), 0, 0)).compose(translation((1, Fr(1, 2), 0, 3)))


@pytest.mark.parametrize("p", [RATIONAL_P, boost((0, Fr(1, 3), 0))],
                         ids=["rational", "irrational"])
def test_verdicts_do_not_depend_on_the_reference_chart(p):
    structures = [parse_model(CAPPED_MODEL), parse_model(LATE_MODEL)]
    structures += [_irrational_structure(seed) for seed in range(4)]
    structures += [_symd_structure("mixed", seed)[0] for seed in range(4)]
    for s in structures:
        assert _reference_free_verdicts(rechart(s, p)) == _reference_free_verdicts(s), s.name


# -- the sampled path: worldview transformations and golden verdicts -------


CAPPED_MODEL = """structure capped
observer rest
observer capped velocity 1/2 0 0 domain 4 -inf 10
"""

NO_FAMILIES_MODEL = """structure bare
families none
observer rest
observer moving velocity 3/5 0 0 translate 1 0 0 1/2
body walker inertial through 0 0 0 0 velocity 1/2 0 0
body flash photon through 1 0 0 0 direction 0 1 0
"""


GOLDEN_STRUCTURES = ("pythagorean0", "pythagorean1", "irrational0", "irrational1",
                     "galilean0", "mixed0", "mixed1", "capped")


def _golden_structure(name):
    """Seeded Lorentz structures at Pythagorean and irrational speeds (odd
    seeds capped), Galilean and mixed structures, and the capped model."""
    if name == "capped":
        return parse_model(CAPPED_MODEL)
    kind, seed = name[:-1], int(name[-1])
    if kind == "pythagorean":
        return _irrational_structure(seed, _pythagorean_speed)
    if kind == "irrational":
        return _irrational_structure(seed)
    return _symd_structure(kind, seed)[0]


GOLDEN_BUDGETS = (Budget(samples=4, seed=11), Budget(samples=6, seed=5))
# Only past about 20 samples do the blocks run out of corners and draw
# seeded rationals; the two-observer capped model is cheap enough for that.
DEEP_BUDGET = Budget(samples=24, seed=5)


def _sampled_verdicts(name):
    """sha256 of repr(evaluate(...)) (outcome, method, evidence and budget
    report) for AxSelf/AxPh/AxEv/AxSymd, sugared and expanded, on one
    golden structure at the golden budgets, keyed 'AXIOM FORM SAMPLES/SEED'."""
    s = _golden_structure(name)
    budgets = GOLDEN_BUDGETS + ((DEEP_BUDGET,) if name == "capped" else ())
    verdicts = {}
    for axiom in ("AxSelf", "AxPh", "AxEv", "AxSymd"):
        sugared = named_axiom(axiom)
        for form, sentence in (("sugared", sugared), ("expanded", expand_definitions(sugared))):
            for budget in budgets:
                key = "%s %s %d/%d" % (axiom, form, budget.samples, budget.seed)
                verdict = repr(evaluate(s, sentence, None, budget))
                verdicts[key] = hashlib.sha256(verdict.encode()).hexdigest()
    return verdicts


@pytest.mark.parametrize("name", GOLDEN_STRUCTURES)
def test_sampled_verdicts_match_the_golden(name):
    golden = json.loads((Path(__file__).parent / "golden" / "sampled_verdicts.json").read_text())
    assert _sampled_verdicts(name) == golden[name]


def test_each_observer_pair_composes_its_transition_once(monkeypatch):
    s = standard_minkowski([
        ObserverSpec("rest"),
        ObserverSpec("boosted", velocity=(Fr(3, 5), 0, 0)),
        ObserverSpec("skew", velocity=(0, Fr(4, 5), 0),
                     rotations=((1, 2, Fr(3, 5), Fr(4, 5)),), translation=(1, 0, 0, 2)),
    ])
    compositions, real_compose = [0], AffineMap.compose

    def counting_compose(self, other):
        compositions[0] += 1
        return real_compose(self, other)

    monkeypatch.setattr(AffineMap, "compose", counting_compose)
    sentence, budget = expand_definitions(named_axiom("AxSymd")), Budget(samples=4, seed=11)
    first = evaluate(s, sentence, None, budget)
    assert first.is_holds
    assert compositions[0] <= 3 * 3  # one map per ordered observer pair
    compositions[0] = 0
    assert repr(evaluate(s, sentence, None, budget)) == repr(first)
    assert compositions[0] == 0


def _reference_event_contents_equal(s, o, x, o2, y):
    # The decision before worldview transformations were kept: compare
    # the reference points of both events.
    c1, c2 = s.chart_of(o), s.chart_of(o2)
    if c1 is None and c2 is None:
        return True
    if c1 is None or c2 is None:
        other, chart, pt = (o2, c2, y) if c1 is None else (o, c1, x)
        if not isinstance(chart, AffineMap):
            return None
        if s.photon_family or s.inertial_family:
            return not s.domain_of(other).contains(pt)
        return not s.event_at(other, pt).named
    if not (isinstance(c1, AffineMap) and isinstance(c2, AffineMap)):
        return None
    in1 = s.domain_of(o).contains(x)
    in2 = s.domain_of(o2).contains(y)
    if not in1 or not in2:
        if s.photon_family or s.inertial_family:
            return in1 == in2
        named1 = s.event_at(o, x).named if in1 else frozenset()
        named2 = s.event_at(o2, y).named if in2 else frozenset()
        return named1 == named2
    p1 = s.reference_point(o, x)
    p2 = s.reference_point(o2, y)
    if s.photon_family or s.inertial_family:
        return all((a - b).is_zero() for a, b in zip(p1, p2))
    return s.event_at(o, x).named == s.event_at(o2, y).named


@pytest.mark.parametrize("name", ["pythagorean0", "irrational0", "irrational1", "galilean0",
                                  "mixed0", "capped", "bare"])
def test_event_contents_equal_matches_the_reference_points(name):
    s = parse_model(NO_FAMILIES_MODEL) if name == "bare" else _golden_structure(name)
    rng = random.Random(name)
    bodies = list(s.bodies.values())
    points = [coord4(0, 0, 0, 0), coord4(0, 0, 0, 20), coord4(1, 0, 0, 0), coord4(Fr(1, 2), 0, 0, 1)]
    points += [coord4(*[Fr(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)])
               for _ in range(4)]
    seen = set()
    for o in bodies:
        for o2 in bodies:
            for x in points:
                ys = [x, coord4(*[Fr(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)])]
                if s.is_observer(o) and s.is_observer(o2):
                    image = s.event_correspondence(o, o2, x)
                    ys += [image, image[:3] + (image[3] + 1,)]
                for y in ys:
                    got = _event_contents_equal(s, o, x, o2, y)
                    assert got == _reference_event_contents_equal(s, o, x, o2, y), (o.id, x, o2.id, y)
                    seen.add(got)
    assert seen == {True, False}


def _reference_term_to_poly_env(term, env, var_polys):
    # The guided-sampling term walker that term_to_poly replaced, and
    # term_to_poly's own walk before fold_term, over the dense polynomials
    # that intervals.Poly was.
    from axrel.field import ExactReal
    from axrel.syntax.ast import Add, Mul, OneC, Sub, Var, ZeroC
    from test_poly_reference import _RefPoly

    if isinstance(term, Var):
        if term.name in var_polys:
            return var_polys[term.name]
        if term.name in env and isinstance(env[term.name], ExactReal):
            return _RefPoly([env[term.name]])
        return None
    if isinstance(term, ZeroC):
        return _RefPoly([0])
    if isinstance(term, OneC):
        return _RefPoly([1])
    left = _reference_term_to_poly_env(term.left, env, var_polys)
    right = _reference_term_to_poly_env(term.right, env, var_polys)
    if left is None or right is None:
        return None
    if isinstance(term, Add):
        return left + right
    if isinstance(term, Sub):
        return left - right
    if isinstance(term, Mul):
        return left * right
    return None


def _random_term(rng, depth, names):
    from axrel.syntax.ast import Add, Mul, OneC, Sub, Var, ZeroC

    if depth == 0 or rng.random() < 0.3:
        pick = rng.randrange(len(names) + 2)
        if pick == len(names):
            return ZeroC()
        if pick == len(names) + 1:
            return OneC()
        return Var(names[pick], Sort.QUANTITY)
    op = rng.choice((Add, Sub, Mul))
    return op(_random_term(rng, depth - 1, names), _random_term(rng, depth - 1, names))


@pytest.mark.parametrize("seed", range(4))
def test_term_to_poly_matches_the_guided_sampling_walker(seed, minkowski):
    from axrel.intervals import Poly, UnsupportedDefinableSet, term_to_poly
    from test_poly_reference import _RefPoly

    rng = random.Random(seed)
    coeffs = {"x": (ER(Fr(1, 3)), ER(2)), "y": (ER(-1), ER(Fr(1, 2)))}
    polys = {n: Poly({(): a, ("s",): b}) for n, (a, b) in coeffs.items()}
    ref_polys = {n: _RefPoly(cs) for n, cs in coeffs.items()}
    env = {"a": ER(Fr(5, 7)), "x": ER(9), "b": minkowski.bodies["rest"]}
    names = ("x", "y", "a", "b", "u")
    checked = 0
    for _ in range(60):
        term = _random_term(rng, 3, names)
        expected = _reference_term_to_poly_env(term, env, ref_polys)
        if expected is None:
            with pytest.raises(UnsupportedDefinableSet):
                term_to_poly(term, polys, env)
        else:
            got = [c.eval({}) for c in term_to_poly(term, polys, env).coeffs_in("s")]
            assert got == list(expected.coeffs)
            assert [c.literal() for c in got] == [c.literal() for c in expected.coeffs]
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize("name", ["b", "u"])
def test_term_to_poly_rejects_body_and_unbound_variables(name, minkowski):
    from axrel.intervals import Poly, UnsupportedDefinableSet, term_to_poly
    from axrel.syntax.ast import Add, Var

    env = {"b": minkowski.bodies["rest"]}
    term = Add(Var("x", Sort.QUANTITY), Var(name, Sort.QUANTITY))
    with pytest.raises(UnsupportedDefinableSet):
        term_to_poly(term, {"x": Poly.var("x")}, env)


def _reference_term_to_linform(term, env, binding):
    # The affine-form walker that fold_term replaced, over (coeffs, const) pairs.
    from axrel.syntax.ast import Add, Mul, OneC, Sub, Var, ZeroC

    def add(a, b, sign):
        out = dict(a[0])
        for k, v in b[0].items():
            out[k] = out.get(k, ER(0)) + (v if sign > 0 else -v)
        return out, a[1] + (b[1] if sign > 0 else -b[1])

    def scale(a, c):
        return {k: c * v for k, v in a[0].items()}, c * a[1]

    def constant(a):
        return all(v.is_zero() for v in a[0].values())

    if isinstance(term, Var):
        if term.name in binding:
            return binding[term.name]
        if term.name in env:
            v = env[term.name]
            return ({}, v) if isinstance(v, ExactReal) else None
        return None
    if isinstance(term, ZeroC):
        return {}, ER(0)
    if isinstance(term, OneC):
        return {}, ER(1)
    left = _reference_term_to_linform(term.left, env, binding)
    right = _reference_term_to_linform(term.right, env, binding)
    if left is None or right is None:
        return None
    if isinstance(term, Add):
        return add(left, right, 1)
    if isinstance(term, Sub):
        return add(left, right, -1)
    if constant(left):
        return scale(right, left[1])
    if constant(right):
        return scale(left, right[1])
    return None


@pytest.mark.parametrize("seed", range(4))
def test_term_to_linform_matches_the_reference_walker(seed, minkowski):
    # The pinning builder is term_to_poly with a degree check (_affine).
    from axrel.intervals import Poly, term_to_poly
    from axrel.semantics import _affine
    from axrel.syntax.ast import Var, subterms

    rng = random.Random(seed)
    ref_binding = {"x": ({"x": ER(1)}, ER(0)),
                   "y": ({"x": ER(Fr(2, 3)), "z": sqrt(2)}, ER(Fr(-1, 2)))}
    binding = {"x": Poly.var("x"),
               "y": Poly({("x",): ER(Fr(2, 3)), ("z",): sqrt(2), (): ER(Fr(-1, 2))})}
    env = {"a": ER(Fr(5, 7)) + sqrt(3), "x": ER(9), "b": minkowski.bodies["rest"]}
    affine = 0
    for _ in range(80):
        term = _random_term(rng, 3, ("x", "y", "a", "b", "u"))
        expected = _reference_term_to_linform(term, env, ref_binding)
        got = _affine(term, env, binding)
        if expected is None:
            names = {t.name for t in subterms(term) if isinstance(t, Var)}
            if names & {"b", "u"}:
                assert got is None, term
                continue
            # _LinForm gave up on every product of two non-constant forms;
            # the degree check keeps only one whose nonlinear terms cancel.
            full = term_to_poly(term, binding, env)
            cancels = all(c.is_zero() for m, c in full.terms.items() if len(m) > 1)
            assert (got is not None) == cancels, term
            continue
        assert got is not None, term
        affine += 1
        assert {m[0]: v.literal() for m, v in got.terms.items() if len(m) == 1} == \
            {k: v.literal() for k, v in expected[0].items()}
        assert got.terms.get((), ER(0)).literal() == expected[1].literal()
        assert all(c.is_zero() for m, c in got.terms.items() if len(m) > 1), term
    assert affine >= 10


def _reference_merge(verdicts):
    # genrel's former combiner.
    for v in verdicts:
        if v.is_fails:
            return v
    for v in verdicts:
        if v.outcome == "Unknown":
            return v
    if not verdicts:
        return Verdict.unknown()
    tol = max((v.tolerance or 0.0) for v in verdicts) or None
    return Verdict.holds(method="sampled", tolerance=tol)


def _reference_combine(verdicts):
    # semantics' former combiner, which only ever saw non-empty lists.
    for v in verdicts:
        if v.is_fails:
            return v
    for v in verdicts:
        if v.outcome == "Unknown":
            return v
    method = "certified" if all(v.method == "certified" for v in verdicts) else "sampled"
    budget = verdicts[0].budget_report if verdicts else {}
    return Verdict.holds(method=method, budget=budget)


def _chart_verdicts(rng):
    # Verdicts as the GenRel chart checks return them.
    tol = rng.choice((1e-9, 1e-6, 1e-3, None))
    return rng.choice((
        lambda: Verdict.holds(method="sampled", evidence={"k": rng.random()}, tolerance=tol),
        lambda: Verdict.fails(evidence={"k": rng.random()}, method="sampled", tolerance=tol),
        lambda: Verdict.unknown(evidence={"note": "declared order"}),
    ))()


def _sentence_verdicts(rng):
    # Verdicts as evaluate returns them for the sentences of one group.
    budget = {"samples": rng.randint(0, 9), "solver_calls": 0, "seed": 1}
    return rng.choice((
        lambda: Verdict.holds(method="certified", budget=budget),
        lambda: Verdict.holds(method="sampled", budget=budget),
        lambda: Verdict.fails(evidence={"x": ER(rng.randint(0, 3))}, budget=budget),
        lambda: Verdict.unknown(evidence={"note": "budget"}, budget=budget),
    ))()


@pytest.mark.parametrize("reference, make, smallest", [
    (_reference_merge, _chart_verdicts, 0),
    (_reference_combine, _sentence_verdicts, 1),
], ids=["genrel-merge", "semantics-combine"])
def test_combine_verdicts_matches_both_reference_combiners(reference, make, smallest):
    from axrel.semantics import combine_verdicts

    rng = random.Random(5)
    for _ in range(200):
        verdicts = [make(rng) for _ in range(rng.randint(smallest, 4))]
        got, want = combine_verdicts(verdicts), reference(verdicts)
        assert got.to_json_dict() == want.to_json_dict()
        if verdicts and not got.is_holds:
            assert got is want


def _reference_witness_refs(refs, photon):
    # witness_photon_refs and witness_inertial_refs before they shared a builder.
    from axrel.kinematics import mu

    if len(refs) == 1 or all((a - b).is_zero() for a, b in zip(refs[0], refs[-1])):
        if photon:
            return PhotonLine(refs[0], (ER(1), ER(0), ER(0)))
        return InertialLine(refs[0], (ER(0), ER(0), ER(0)))
    x, y = refs[0], refs[1]
    if photon and not mu(x, y).is_zero():
        return None
    if not photon and mu(x, y).sign() >= 0:
        return None
    dt = y[3] - x[3]
    if dt.is_zero():
        return None
    vector = tuple((y[i] - x[i]) / dt for i in range(3))
    return PhotonLine(x, vector) if photon else InertialLine(x, vector)


@pytest.mark.parametrize("pair", ["one", "equal", "lightlike", "timelike", "spacelike"])
def test_witness_refs_match_the_reference_builders(pair):
    from axrel.semantics import witness_inertial_refs, witness_photon_refs

    rng = random.Random(pair)
    for _ in range(12):
        x = tuple(ER(Fr(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(4))
        t = ER(rng.choice((1, -1, Fr(1, 2), 3)))
        step = {
            "one": None, "equal": (ER(0), ER(0), ER(0), ER(0)),
            "lightlike": (ER(Fr(3, 5)) * t, ER(Fr(4, 5)) * t, ER(0), t),
            "timelike": (ER(Fr(1, 3)) * t, ER(0), ER(Fr(-1, 2)) * t, t),
            "spacelike": (2 * t, ER(1), ER(0), t),
        }[pair]
        refs = [x] if step is None else [x, tuple(a + b for a, b in zip(x, step))]
        for photon, build in ((True, witness_photon_refs), (False, witness_inertial_refs)):
            expected, body = _reference_witness_refs(refs, photon), build(refs)
            assert (body is None) == (expected is None)
            if body is None:
                continue
            assert (body.is_photon, body.is_inertial) == (photon, not photon)
            assert body.id.startswith("photon#" if photon else "inertial#")
            line = body.worldline
            assert type(line) is type(expected)
            vector = line.direction if photon else line.velocity
            want = expected.direction if photon else expected.velocity
            assert [c.literal() for c in line.point + vector] == \
                [c.literal() for c in expected.point + want]


# -- plans and the exact strategy for the expanded Ob ------------------------


BOXES_MODEL = """structure boxes
families none
observer rest
observer far domain 1 10 11 domain 4 0 1
observer crossed domain 1 10 11 domain 4 19 23
observer edge domain 1 10 11 domain 4 22 23
observer edge_closed domain 1 10 11 domain 4 22 23 closed
observer segment domain 1 34 35 domain 4 0 30
observer beyond domain 1 59/2 61/2 domain 4 40 50
body walker inertial through 0 0 0 0 velocity 1/2 0 0
body flash photon through 1 0 0 0 direction 0 1 0
body hopper piecewise knots 30 0 0 0 , 30 0 0 2 , 40 0 0 22
"""

EXPANDED_OB = expand_definitions(parse("Ob(o)", {"o": Sort.BODY}))


def _expanded_ob(s, name):
    return evaluate(s, EXPANDED_OB, {"o": s.bodies[name]}, BUDGET)


@pytest.mark.parametrize("name, witness", [
    ("rest", ("rest", (0, 0, 0, 0))),            # o's origin, on its own worldline
    ("far", None),                               # every line misses the box
    ("crossed", ("walker", (Fr(21, 2), 0, 0, 21))),
    ("edge", None),                              # walker only touches the open box
    ("edge_closed", ("walker", (11, 0, 0, 22))),
    ("segment", ("hopper", (Fr(69, 2), 0, 0, 11))),  # the second leg of hopper
    ("beyond", None),                            # only hopper's first leg, extended
    ("walker", None),                            # not an observer
])
def test_expanded_ob_is_decided_exactly_without_families(name, witness):
    s = parse_model(BOXES_MODEL)
    v = _expanded_ob(s, name)
    assert (v.method, v.budget_report["samples"]) == ("certified", 0)
    if witness is None:
        assert v.is_fails and v.evidence == {}
        return
    assert v.is_holds
    x = tuple(v.evidence[q] for q in ("_q2", "_q3", "_q4", "_q5"))
    assert (v.evidence["_b1"].id, x) == (witness[0], tuple(ER(c) for c in witness[1]))
    assert s.holds_W(s.bodies[name], v.evidence["_b1"], x)


def test_ob_strategy_reads_permuted_coordinates_and_skips_other_blocks():
    s = parse_model(BOXES_MODEL)
    decls = {"o": Sort.BODY}
    crossed = {"o": s.bodies["crossed"]}
    permuted = parse("E b:B . E x:Q y:Q z:Q t:Q . W(o, b, t, z, y, x)", decls)
    v = evaluate(s, permuted, crossed, BUDGET)
    assert (v.outcome, v.budget_report["samples"]) == ("Holds", 0)
    assert [v.evidence[n] for n in ("x", "y", "z", "t", "b")] == \
        [ER(21), ER(0), ER(0), ER(Fr(21, 2)), s.bodies["walker"]]
    # A repeated coordinate is not the Ob pattern: the block is sampled.
    repeated = parse("E b:B . E x:Q y:Q z:Q t:Q . W(o, b, x, x, z, t)", decls)
    v = evaluate(s, repeated, {"o": s.bodies["rest"]}, BUDGET)
    assert v.is_holds and v.budget_report["samples"] > 0


def test_body_existential_fails_certified_only_when_every_candidate_does():
    # Without families the candidates are the named bodies.  The extra
    # conjunct takes the block off the Ob strategy, sampling finds no
    # witness for any candidate, and walker is one at (21/2, 0, 0, 21):
    # the answer is Unknown, not a certified Fails.
    s = parse_model(BOXES_MODEL)
    f = parse("E b:B . E x:Q y:Q z:Q t:Q . W(o, b, x, y, z, t) & 0 < t", {"o": Sort.BODY})
    crossed = s.bodies["crossed"]
    assert s.holds_W(crossed, s.bodies["walker"], tuple(ER(c) for c in (Fr(21, 2), 0, 0, 21)))
    v = evaluate(s, f, {"o": crossed}, BUDGET)
    assert (v.outcome, v.method) == ("Unknown", "sampled")
    assert v.budget_report["samples"] > 0


def test_expanded_ob_declines_on_a_numeric_worldline():
    from axrel.model import SmoothNumeric

    base = parse_model(BOXES_MODEL)
    wiggle = Body("wiggle", SmoothNumeric(lambda t: (10.5, 0.0, 0.0), 2, 0.0, 30.0))
    s = base.with_extra_bodies([wiggle])
    # No straight line meets far's box and wiggle's may: the strategy
    # declines and the block is sampled.
    assert semantics_module._sees_a_body(s, s.bodies["far"]) is None
    assert _expanded_ob(s, "far").budget_report["samples"] > 0
    # A straight line in the box decides it, the numeric body aside.
    assert _expanded_ob(s, "crossed").budget_report["samples"] == 0
    # With a family, every event of a nonempty box holds a body.
    families = Structure(list(s.bodies.values()), s.charts, photon_family=True,
                         inertial_family=False, chart_domains=s.chart_domains)
    v = _expanded_ob(families, "far")
    assert (v.outcome, v.method, v.budget_report["samples"]) == ("Holds", "certified", 0)


def test_expanded_ob_with_families_fails_only_on_an_empty_domain():
    s = parse_model("structure e\nobserver rest\nobserver empty domain 2 1 1\n"
                    "observer point domain 2 1 1 closed\nbody walker inertial through "
                    "0 0 0 0 velocity 1/2 0 0\n")
    assert _expanded_ob(s, "empty").is_fails
    for name in ("rest", "point"):
        assert _expanded_ob(s, name).is_holds
    assert _expanded_ob(s, "walker").is_fails
    for name in ("rest", "empty", "point", "walker"):
        assert _expanded_ob(s, name).budget_report["samples"] == 0


def _reference_meets_box(s, o, body):
    """Whether body's straight worldline meets dom(o), by interval sets over
    the reference time t: o sees the line at chart(r(t)), affine in t."""
    from axrel.intervals import IntervalSet, Poly, poly_eq_zero, poly_less_zero

    chart, dom, line = s.chart_of(o), s.domain_of(o), body.worldline
    vel = line.velocity if body.is_inertial else line.direction

    def at(t):
        return chart.apply(tuple(line.point[i] + (t - line.point[3]) * vel[i] for i in range(3))
                           + (ER(t),))

    a, b = at(ER(0)), at(ER(1))
    out = IntervalSet.all()
    for i, (lo, hi) in enumerate(dom.bounds):
        x = Poly({(): a[i], ("t",): b[i] - a[i]})
        for below, above in ((Poly.const(lo) if lo is not None else None, x),
                             (x, Poly.const(hi) if hi is not None else None)):
            if below is None or above is None:
                continue
            cond = poly_less_zero(below - above)
            if dom.closed:
                cond = cond.union(poly_eq_zero(below - above))
            out = out.intersect(cond)
    return not out.is_empty()


@pytest.mark.parametrize("seed", range(6))
def test_expanded_ob_matches_interval_sets_on_seeded_boxes(seed):
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(12):
        bounds = []
        for _axis in range(4):
            if rng.random() < 0.4:
                bounds.append((None, None))
                continue
            lo = ER(Fr(rng.randint(-6, 6), rng.randint(1, 2)))
            hi = lo + ER(rng.choice((0, Fr(1, 3), 1, 2)))
            bounds.append((lo, hi) if rng.random() < 0.7 else
                          rng.choice(((lo, None), (None, hi))))
        spec = ObserverSpec("o", velocity=(rng.choice((0, Fr(3, 5), Fr(-1, 2))), 0, 0),
                            translation=tuple(rng.randint(-2, 2) for _ in range(4)),
                            domain=ChartDomain(tuple(bounds), rng.random() < 0.5))
        point = coord4(*(Fr(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)))
        velocity = [ER(0)] * 3
        velocity[rng.randrange(3)] = ER(Fr(rng.randint(-3, 3), 4))
        direction = rng.choice(((1, 0, 0), (0, -1, 0), (Fr(3, 5), Fr(4, 5), 0)))
        bodies = [Body("b", InertialLine(point, tuple(velocity))),
                  Body("p", PhotonLine(point, tuple(ER(c) for c in direction)))]
        lorentz = standard_minkowski([spec], extra_bodies=bodies)
        s = Structure(list(lorentz.bodies.values()), lorentz.charts, photon_family=False,
                      inertial_family=False, chart_domains=lorentz.chart_domains)
        o = s.bodies["o"]
        expected = any(_reference_meets_box(s, o, b) for b in s.bodies.values())
        v = _expanded_ob(s, "o")
        assert (v.outcome, v.method) == ("Holds" if expected else "Fails", "certified")
        if v.is_holds:
            x = tuple(v.evidence[q] for q in ("_q2", "_q3", "_q4", "_q5"))
            assert s.holds_W(o, v.evidence["_b1"], x)
        outcomes.add(v.outcome)
    assert outcomes == {"Holds", "Fails"}


def test_each_node_is_planned_once_per_evaluation(monkeypatch, two_observer):
    from axrel.syntax.ast import And, Exists, Implies, Not, Or

    planned, built, decided = [], [], []
    real_plan, real_sees = semantics_module._plan, semantics_module._sees_a_body

    def counting_plan(node, s):
        planned.append((id(node), type(node)))
        return real_plan(node, s)

    def counting_sees(s, o):
        decided.append(o.id)
        return real_sees(s, o)

    for cls in (And, Not):
        def counting_init(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
            built.append(_cls)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting_init)
    monkeypatch.setattr(semantics_module, "_plan", counting_plan)
    monkeypatch.setattr(semantics_module, "_sees_a_body", counting_sees)
    sentences = [expand_definitions(named_axiom(n)) for n in ("AxPh", "AxSymd")]
    sentences.append(named_axiom("less_total"))
    for sentence in sentences:
        sentence = semantics_module.contract_definitions(sentence)
        counts = []
        for samples in (4, 12):
            planned.clear()
            built.clear()
            decided.clear()
            evaluate(two_observer, sentence, None, Budget(samples=samples, seed=3))
            assert len(set(planned)) == len(planned)  # no node planned twice
            kinds = [cls for _, cls in planned]
            # Each planned Ob existential decides each observer once.
            assert len(decided) <= kinds.count(Exists) * len(two_observer.observers())
            # Each Or builds And(Not, Not) and each Implies And(_, Not) once,
            # when planned; evaluating builds no formula node.
            assert built.count(And) == kinds.count(Or) + kinds.count(Implies)
            assert built.count(Not) == 2 * kinds.count(Or) + kinds.count(Implies)
            counts.append((len(planned), len(decided)))
        assert counts[0] == counts[1]


def test_budget_rejects_no_samples():
    capped = parse_model(CAPPED_MODEL)
    for bad in (0, -3):
        with pytest.raises(ValueError):
            Budget(samples=bad)
    # So no theory check can answer Holds on no sample at all.
    with pytest.raises(ValueError):
        check_theory(capped, axiom_corpus("AccRel"), Budget(samples=0))
    assert Budget(samples=1).samples == 1


# -- the one worldview relation ---------------------------------------------


W_ATOM = parse("W(o, b, x, y, z, t)", {"o": Sort.BODY, "b": Sort.BODY, "x": Sort.QUANTITY,
                                       "y": Sort.QUANTITY, "z": Sort.QUANTITY, "t": Sort.QUANTITY})
W_OUTCOME = {True: "Holds", False: "Fails", None: "Unknown"}


def _w_verdict(s, o, b, x):
    env = dict(zip(("x", "y", "z", "t"), x), o=o, b=b)
    return evaluate(s, W_ATOM, env, BUDGET)


def _still(x1):
    return SmoothNumeric(lambda t: (x1, 0.0, 0.0), 9, -100.0, 100.0)


def test_w_on_a_numeric_body_respects_the_chart_domain():
    s = parse_model(CAPPED_MODEL.replace(" velocity 1/2 0 0", ""))
    n = Body("n", _still(0.0))
    s = s.with_extra_bodies([n])
    capped = s.bodies["capped"]
    for t, outcome in ((20, "Fails"), (10, "Fails"), (9, "Holds")):
        x = coord4(0, 0, 0, t)
        v = _w_verdict(s, capped, n, x)
        assert (v.outcome, v.method) == (outcome, "certified"), t
        assert s.holds_W(capped, n, x) is (outcome == "Holds")


def test_w_on_a_numeric_chart_sees_an_exact_body_at_an_irrational_coordinate():
    # The Rindler observer's chart maps its (sqrt(2) - 1, 0, 0, 0) to the
    # float point (1.414..., 0, 0, 0): compared in floats with the post at
    # rest at X = sqrt(2), not rounded to a rational that misses it.
    from axrel.accel import hyperbolic_worldline, rindler_observer_chart

    zero = (ER(0),) * 3
    posts = [Body("post", InertialLine((sqrt(2), ER(0), ER(0), ER(0)), zero)),
             Body("near", InertialLine((sqrt(2) + ER(Fr(1, 10**9) * 3), ER(0),
                                                     ER(0), ER(0)), zero)),
             Body("far", InertialLine((sqrt(2) + ER(Fr(1, 10**6)), ER(0),
                                                    ER(0), ER(0)), zero))]
    s = Structure(posts + [Body("ship", hyperbolic_worldline(1))],
                  {"ship": rindler_observer_chart(1)})
    ship = s.bodies["ship"]
    x = (sqrt(2) - 1, ER(0), ER(0), ER(0))
    for name, truth in (("post", True), ("near", None), ("far", False)):
        assert s.holds_W(ship, s.bodies[name], x) is truth, name
        assert _w_verdict(s, ship, s.bodies[name], x).outcome == W_OUTCOME[truth], name
    assert s.event_at(ship, x).named == {"post"}


def _w_structure(seed):
    """Rest, an open-capped and a closed-capped mover and a Rindler
    observer (a numeric chart) capped in time; exact straight and
    piecewise bodies, and numeric bodies on, near and off the spatial
    origin."""
    from axrel.accel import hyperbolic_worldline, rindler_observer_chart

    rng = random.Random(seed)
    speed = lambda: Fr(rng.randint(-4, 4), rng.randint(5, 9))  # noqa: E731
    hi = [ER(Fr(rng.randint(1, 8), rng.randint(1, 2))) for _ in range(3)]
    open_box = ChartDomain(((-hi[0], hi[0]), (None, None), (None, None), (None, hi[1])))
    closed_box = ChartDomain(((None, None),) * 3 + ((-hi[2], hi[2]),), closed=True)
    base = standard_minkowski([
        ObserverSpec("rest"),
        ObserverSpec("open", velocity=(speed(), 0, 0), translation=(1, 0, 0, Fr(1, 2)),
                     domain=open_box),
        ObserverSpec("closed", velocity=(0, speed(), 0), domain=closed_box),
    ])
    bodies = list(base.bodies.values()) + [
        Body("walker", InertialLine(coord4(0, 0, 0, 0), (speed(), ER(0), ER(0)))),
        Body("flash", PhotonLine(coord4(1, 0, 0, 0), (ER(0), ER(1), ER(0)))),
        Body("kink", PiecewiseInertial((coord4(0, 0, 0, -2), coord4(1, 0, 0, 0),
                                                      coord4(0, 0, 0, 2)))),
        Body("buoy", InertialLine(coord4(1, 0, 0, 0), (ER(0),) * 3)),
        Body("still", _still(0.0)),
        Body("near", _still(5e-9)),
        Body("far", _still(0.5)),
        Body("ship", hyperbolic_worldline(1)),
    ]
    ship_box = ChartDomain(((None, None),) * 3 + ((None, ER(1)),))
    return Structure(bodies, {**base.charts, "ship": rindler_observer_chart(1)},
                     chart_domains={**base.chart_domains, "ship": ship_box})


def _w_points(s, o, rng):
    """o-points inside, on and outside o's domain box, and o's images of
    events on each exact body.  The Rindler observer sees the reference
    origin at (-1, 0, 0, 0)."""
    out = [coord4(0, 0, 0, 0), coord4(-1, 0, 0, 0)]
    for axis, (lo, hi) in enumerate(s.domain_of(o).bounds):
        for bound in (lo, hi):
            if bound is not None:
                for step in (-1, 0, 1):
                    out.append(tuple(bound + step if i == axis else ER(0) for i in range(4)))
    rest = s.bodies["rest"]
    for b in s.bodies.values():
        if isinstance(b.worldline, (InertialLine, PhotonLine)):
            event = b.worldline.point_at(ER(Fr(rng.randint(-3, 3), 2)))
            try:
                image = s.event_correspondence(rest, o, event)
            except ValueError:
                continue  # outside the Rindler wedge
            out.append(tuple(ER(Fr(c)) if isinstance(c, float) else c for c in image))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_w_paths_agree_on_seeded_structures(seed):
    # evaluate of a bound W atom, Structure.holds_W and membership in
    # event_at's named bodies give one verdict, inside, on and outside the
    # domain boxes, for exact and numeric worldlines and charts.
    s = _w_structure(seed)
    rng = random.Random(seed)
    seen = set()
    for o in s.observers():
        for x in _w_points(s, o, rng):
            named = s.event_at(o, x).named
            for b in s.bodies.values():
                truth = s.holds_W(o, b, x)
                v = _w_verdict(s, o, b, x)
                assert v.outcome == W_OUTCOME[truth], (o.id, b.id, x)
                assert (b.id in named) == (truth is True), (o.id, b.id, x)
                seen.add((truth, s.chart_of(o).is_exact))
    assert seen == {(True, True), (False, True), (None, True),
                    (True, False), (False, False), (None, False)}


@pytest.mark.parametrize("seed", range(4))
def test_w_on_a_numeric_chart_does_not_depend_on_the_reference_chart(seed):
    # rechart composes the Rindler chart with p^-1 in floats
    # (DifferentiableChart.compose), the affine charts exactly.  Only the
    # exact bodies are compared: a SmoothNumeric has no `image`, so rechart
    # leaves the numeric ones (still, near, far and the ship's own
    # hyperbola) in the old reference chart.
    s = _w_structure(seed)
    r = rechart(s, RATIONAL_P)
    exact = {b.id for b in s.bodies.values() if b.worldline.pieces() is not None}
    rng = random.Random(seed)
    for o in s.observers():
        for x in _w_points(s, o, rng):
            assert r.event_at(o, x).named & exact == s.event_at(o, x).named & exact, (o.id, x)
            for b in exact:
                assert r.holds_W(o, r.bodies[b], x) is s.holds_W(o, s.bodies[b], x), (o.id, b, x)
