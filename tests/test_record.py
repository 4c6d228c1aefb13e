"""The value-record contract (`axrel.record`) that the syntax nodes,
model records, budgets and verdicts keep: equality by class and fields,
`pos` outside ==/hash/repr, immutability, unhashable mutable records,
explicit constructors that still check their arguments."""

import re
from fractions import Fraction as Fr

import numpy as np
import pytest

from axrel import accel, exprs, intervals, kinematics, model
from axrel.field import ER
from axrel.genrel import ChartSuiteConfig, FloatBox, GeodesicResult, MetricChart, flat_chart
from axrel.record import MutableRecord, Record
from axrel.semantics import Budget, Verdict
from axrel.syntax import ast
from axrel.syntax.ast import (
    Add, And, EqB, EqQ, Exists, Forall, IBAtom, Less, Mul, Or, Sort, SortError, Sub, Var,
    WAtom, ZeroC,
)

X = Var("x", Sort.QUANTITY)
Y = Var("y", Sort.QUANTITY)
O = Var("o", Sort.BODY)


def _records():
    out, stack = [], [Record]
    while stack:
        cls = stack.pop()
        out.extend(cls.__subclasses__())
        stack.extend(cls.__subclasses__())
    return out


def test_pos_takes_no_part_in_eq_hash_or_repr():
    at3, at9 = Add(X, Y, pos=3), Add(Var("x", Sort.QUANTITY, pos=7), Y, pos=9)
    assert at3 == at9 and hash(at3) == hash(at9)
    assert repr(at3) == repr(at9) == (
        "Add(left=Var(name='x', var_sort=<Sort.QUANTITY: 'Q'>), "
        "right=Var(name='y', var_sort=<Sort.QUANTITY: 'Q'>))")
    assert at3.pos == 3 and at9.left.pos == 7 and ZeroC().pos == -1
    assert repr(ZeroC(pos=4)) == "ZeroC()" and ZeroC(pos=4) == ZeroC()


def test_equal_fields_of_different_classes_are_unequal():
    assert Add(X, Y) != Mul(X, Y) and Add(X, Y) != Sub(X, Y)
    assert Add(X, Y).__eq__(Mul(X, Y)) is NotImplemented
    body = EqQ(X, Y)
    assert Forall("x", Sort.QUANTITY, body) != Exists("x", Sort.QUANTITY, body)
    assert And(body, body) != Or(body, body)
    assert EqQ(X, Y) != Less(X, Y)
    assert Add(X, Y) != ("left", X, "right", Y)


def test_equal_records_hash_alike_and_dedupe():
    f = Forall("x", Sort.QUANTITY, Less(X, Add(X, Y)))
    g = Forall("x", Sort.QUANTITY, Less(X, Add(X, Y)))
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    assert hash(Budget(4, seed=1)) == hash(Budget(samples=4, seed=1))


@pytest.mark.parametrize("record, name", [
    (X, "name"), (Add(X, Y), "left"), (Budget(), "seed"),
    (model.InertialLine(kinematics.coord4(0, 0, 0, 0), (ER(0),) * 3), "velocity"),
    (model.ChartDomain(), "axes"), (accel.ShipConfig(1, 1), "g"),
    (intervals.Interval(None, None), "lo"), (exprs.Num(Fr(1)), "value"), (FloatBox(), "lo"),
    (ast.AxiomGroup("AxPh", ()), "name"),
])
def test_frozen_records_reject_assignment_and_deletion(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        setattr(record, "extra", None)
    with pytest.raises(AttributeError):
        delattr(record, name)


def test_mutable_records_are_unhashable_and_compare_by_fields():
    chart = flat_chart()
    pts = np.zeros((1, 4))
    mutable = [
        (Verdict("Holds"), Verdict("Holds"), "outcome"),
        (MetricChart(chart.g, name="a"), MetricChart(chart.g, name="a"), "name"),
        (GeodesicResult(pts, pts, pts, 0.0, 1e-9, 0.1, False),
         GeodesicResult(pts, pts, pts, 0.0, 1e-9, 0.1, False), "truncated"),
        (ChartSuiteConfig(chart, {}, []), ChartSuiteConfig(chart, {}, []), "meets"),
    ]
    for a, b, name in mutable:
        assert isinstance(a, MutableRecord)
        with pytest.raises(TypeError):
            hash(a)
        if not isinstance(a, GeodesicResult):  # array fields have no truth value
            assert a == b
        setattr(a, name, 7)
        assert getattr(a, name) == 7
        if not isinstance(a, GeodesicResult):
            assert a != b


def test_verdict_defaults_are_fresh_per_instance():
    a, b = Verdict("Holds"), Verdict("Holds")
    assert a.evidence == {} and a.budget_report == {} and a.tolerance is None
    assert a.evidence is not b.evidence and a.budget_report is not b.budget_report
    a.evidence["x"] = 1
    assert b.evidence == {}
    assert repr(b) == ("Verdict(outcome='Holds', method='certified', evidence={}, "
                       "budget_report={}, tolerance=None)")


@pytest.mark.parametrize("build", [
    lambda: Var("x"), lambda: Add(X), lambda: Add(X, Y, X), lambda: ZeroC(1),
    lambda: Forall("x", Sort.QUANTITY), lambda: Budget(1, 2, 3), lambda: Verdict(),
    lambda: model.Body("a"), lambda: FloatBox((0,) * 4, (1,) * 4, (), 1),
    lambda: exprs.BinOp("+", exprs.Num(Fr(1))), lambda: Var("x", Sort.BODY, 3),
])
def test_wrong_argument_count_raises_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_sort_errors_raise_at_construction():
    cases = [
        (lambda: Add(O, Y), "+ requires quantity-sorted arguments"),
        (lambda: Mul(X, Var("k", Sort.BODY, pos=5)), "* requires quantity-sorted arguments"),
        (lambda: Less(O, X), "< requires quantity-sorted arguments"),
        (lambda: EqQ(X, O), "= requires quantity-sorted arguments"),
        (lambda: EqB(X, O), "= requires a body-sorted argument"),
        (lambda: IBAtom(X), "IB requires a body-sorted argument"),
        (lambda: WAtom(O, O, X, Y, X, O), "W requires quantity-sorted arguments"),
        (lambda: WAtom(X, O, X, Y, X, Y), "W requires a body-sorted argument"),
    ]
    for build, message in cases:
        with pytest.raises(SortError, match="^%s$" % re.escape(message)):
            build()
    with pytest.raises(SortError) as err:
        Mul(X, Var("k", Sort.BODY, pos=5))
    assert err.value.pos == 5 and err.value.found is Sort.BODY


def test_constructor_checks_and_normalisations():
    with pytest.raises(kinematics.SuperluminalVelocity):
        model.InertialLine(kinematics.coord4(0, 0, 0, 0), (ER(1), ER(0), ER(0)))
    fast = model.unsafe_inertial_line((0, 0, 0, 0), (2, 0, 0))
    assert fast.velocity == (ER(2), ER(0), ER(0))
    cfg = accel.ShipConfig(Fr(1, 2), 3)
    assert cfg.g == ER(Fr(1, 2)) and type(cfg.h) is type(ER(3))
    with pytest.raises(accel.InvalidConfig):
        accel.ShipConfig(-1, 1)
    quarantined = model.Body("k", fast)  # IB, as its worldline's kind says
    assert (quarantined.is_inertial, quarantined.is_photon) == (True, False)


def test_galilean_structure_keeps_every_spec_field():
    spec = model.ObserverSpec("m", velocity=(Fr(1, 2), 0, 0), translation=(1, 0, 0, 0),
                              domain=model.ChartDomain((model.Interval(None, ER(3)),)
                                                       + (model.Interval(None, None),) * 3))
    s = model.galilean_structure([spec])
    assert s.chart_domains["m"] == spec.domain
    assert s.constants == tuple(ER(c) for c in spec.velocity + spec.translation)
    assert s.charts["m"].apply(kinematics.coord4(0, 0, 0, 2)) == kinematics.coord4(0, 0, 0, 2)


def test_every_record_has_slots_unless_it_caches():
    with_dict = sorted(cls.__name__ for cls in _records() if "__slots__" not in vars(cls))
    assert with_dict == ["AxiomGroup"]
    group = ast.AxiomGroup("AxPh", (("AxPh", "A o:B . IOb(o) -> IOb(o)"),))
    assert group.sentences is group.sentences


def test_reprs_keep_the_field_by_field_format():
    assert repr(Budget()) == "Budget(samples=48, seed=0)"
    assert repr(FloatBox()) == ("FloatBox(lo=(-inf, -inf, -inf, -inf), "
                                "hi=(inf, inf, inf, inf), closed_faces=())")
    assert repr(exprs.BinOp("+", exprs.Ref("a"), exprs.Num(Fr(1, 2)))) == (
        "BinOp(op='+', left=Ref(name='a'), right=Num(value=Fraction(1, 2)))")
