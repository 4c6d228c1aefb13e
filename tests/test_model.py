from fractions import Fraction as Fr

import pytest

from axrel.field import ER, sqrt
from axrel.kinematics import AffineMap, SuperluminalVelocity, coord4, mu, worldview_transform
from axrel.model import (
    Body, ChartDomain, InertialLine, NotAnObserver, ObserverSpec, PhotonLine,
    PiecewiseInertial, SmoothNumeric, StraightLine, Structure, cloud, galilean_structure,
    parse_model, serialize_model, standard_minkowski, unsafe_inertial_line,
)


def test_rest_observer_identity_chart(minkowski):
    rest = minkowski.bodies["rest"]
    for t in (0, 7, Fr(-3, 2)):
        assert minkowski.holds_W(rest, rest, coord4(0, 0, 0, t))
    assert not minkowski.holds_W(rest, rest, coord4(1, 0, 0, 7))


def test_superluminal_observer_rejected():
    with pytest.raises(SuperluminalVelocity):
        standard_minkowski([ObserverSpec("fast", velocity=(1, 0, 0))])


def test_boosted_chart_is_the_boost(two_observer):
    # second chart is the 3/5 boost: gamma = 5/4, cross-checked through
    # mu preservation and the image of (3/5,0,0,1)
    rest, boosted = two_observer.bodies["rest"], two_observer.bodies["boosted"]
    image = two_observer.event_correspondence(rest, boosted, coord4(Fr(3, 5), 0, 0, 1))
    assert tuple(c.literal() for c in image) == ("0", "0", "0", "4/5")
    w = worldview_transform(two_observer, rest, boosted)
    assert w.is_lorentz()


def test_a_body_is_ib_or_ph_as_its_worldline_kind_says():
    origin, still = coord4(0, 0, 0, 0), (ER(0),) * 3
    kinds = [
        (InertialLine(origin, still), (True, False)),
        (PhotonLine(origin, (ER(1), ER(0), ER(0))), (False, True)),
        (StraightLine(origin, (ER(2), ER(0), ER(0))), (False, False)),
        (PiecewiseInertial((origin, coord4(0, 0, 0, 1))), (False, False)),
        (SmoothNumeric(lambda t: (0.0, 0.0, 0.0), 2, 0.0, 1.0), (False, False)),
    ]
    for line, kind in kinds:
        body = Body("b", line)
        assert (body.is_inertial, body.is_photon) == kind
    # The repr keeps both flags, so hashed reprs of models keep their bytes.
    assert repr(Body("b", kinds[0][0])).startswith("Body(id='b', is_inertial=True, is_photon=False, ")


def test_photon_membership(minkowski):
    rest = minkowski.bodies["rest"]
    flash = Body("flash", PhotonLine(coord4(0, 0, 0, 0), (ER(1), ER(0), ER(0))))
    s = minkowski.with_extra_bodies([flash])
    assert s.holds_W(rest, s.bodies["flash"], coord4(2, 0, 0, 2))
    assert not s.holds_W(rest, s.bodies["flash"], coord4(2, 0, 0, 3))


def test_event_at_crossing(two_observer):
    a = Body("a", InertialLine(coord4(0, 0, 0, 0), (ER(Fr(1, 2)), ER(0), ER(0))))
    b = Body("b", InertialLine(coord4(2, 0, 0, 0), (ER(Fr(-1, 2)), ER(0), ER(0))))
    s = two_observer.with_extra_bodies([a, b])
    rest = s.bodies["rest"]
    # crossing point solved by hand: t = 2, x = 1
    content = s.event_at(rest, coord4(1, 0, 0, 2))
    assert {"a", "b"} <= content.named
    assert content.family_descriptors  # intensional families are on


def test_event_at_empty(minkowski):
    rest = minkowski.bodies["rest"]
    content = minkowski.event_at(rest, coord4(50, 60, 70, 0))
    assert content.named == frozenset()


def test_event_at_maps_each_event_once_and_agrees_with_holds_w(monkeypatch):
    capped = ChartDomain(((None, None), (None, None), (None, None), (None, ER(10))))
    s = standard_minkowski([
        ObserverSpec("rest"),
        ObserverSpec("capped", velocity=(Fr(3, 5), 0, 0), translation=(1, 0, 0, 2), domain=capped),
    ])
    a = Body("a", InertialLine(coord4(0, 0, 0, 0), (ER(Fr(1, 2)), ER(0), ER(0))))
    b = Body("b", InertialLine(coord4(2, 0, 0, 0), (ER(Fr(-1, 2)), ER(0), ER(0))))
    s = s.with_extra_bodies([a, b])
    applies, real_apply = [0], AffineMap.apply

    def counting_apply(self, x):
        applies[0] += 1
        return real_apply(self, x)

    events = [(1, 0, 0, 2), (Fr(1, 2), 0, 0, 1), (0, 0, 0, 0), (3, 1, 0, 12), (50, 60, 70, 0)]
    for o in (s.bodies["rest"], s.bodies["capped"]):
        for raw in events:
            x = s.event_correspondence(s.bodies["rest"], o, raw)
            expected = {c.id for c in s.bodies.values() if s.holds_W(o, c, x)}
            monkeypatch.setattr(AffineMap, "apply", counting_apply)
            applies[0] = 0
            assert s.event_at(o, x).named == expected
            assert applies[0] == (1 if s.domain_of(o).contains(x) else 0)
            monkeypatch.undo()
    assert s.event_at(s.bodies["rest"], (1, 0, 0, 2)).named >= {"a", "b"}
    assert s.event_at(s.bodies["capped"], coord4(0, 0, 0, 11)).named == frozenset()


def _rindler_structure():
    """A rest observer and a Rindler observer (a numeric chart, g = 1)
    riding the hyperbola X^2 - T^2 = 1, beside an exact body at rest at
    X = 1, which the ship passes at its time 0."""
    from axrel.accel import hyperbolic_worldline, rindler_observer_chart

    s = standard_minkowski([ObserverSpec("rest")])
    ship = Body("ship", hyperbolic_worldline(1))
    buoy = Body("buoy", InertialLine(coord4(1, 0, 0, 0), (ER(0),) * 3))
    return Structure(list(s.bodies.values()) + [ship, buoy],
                     {**s.charts, "ship": rindler_observer_chart(1)})


def test_a_numeric_chart_keeps_its_inverse():
    s = _rindler_structure()
    ship, chart = s.bodies["ship"], s.charts["ship"]
    assert chart.inverse() is chart.inverse() and chart.inverse().inverse() is chart
    # reference_point maps through the kept inverse: the backward map's own floats.
    for x in (coord4(0, 0, 0, 0), coord4(Fr(1, 3), 0, 0, Fr(1, 2)), (0.25, 0.0, 0.0, -0.75)):
        assert s.reference_point(ship, x) == tuple(chart.backward(tuple(float(c) for c in x)))


def test_holds_w_and_event_at_on_a_numeric_chart_with_an_exact_body():
    s = _rindler_structure()
    ship, buoy = s.bodies["ship"], s.bodies["buoy"]
    origin = coord4(0, 0, 0, 0)
    assert s.holds_W(ship, buoy, origin) is True
    assert s.holds_W(ship, ship, coord4(0, 0, 0, Fr(1, 2))) is True
    assert s.holds_W(ship, buoy, coord4(0, 0, 0, Fr(1, 2))) is False
    assert s.event_at(ship, origin).named == {"ship", "buoy"}
    assert s.event_at(ship, coord4(0, 0, 0, Fr(1, 2))).named == {"ship"}


def test_w_takes_the_float_coordinates_of_a_numeric_correspondence():
    # event_correspondence answers in floats on a numeric path; W and
    # event_at read each float exactly.
    s = _rindler_structure()
    rest, ship, buoy = s.bodies["rest"], s.bodies["ship"], s.bodies["buoy"]
    y = s.event_correspondence(rest, ship, coord4(1, 0, 0, 0))
    assert y == (0.0, 0.0, 0.0, 0.0)
    assert s.holds_W(ship, buoy, y) is True
    back = s.event_correspondence(ship, rest, coord4(0, 0, 0, 0))
    assert back == (1.0, 0.0, 0.0, 0.0)
    assert s.holds_W(rest, buoy, back) is True
    assert s.holds_W(rest, buoy, (1.5, 0.0, 0.0, 0.0)) is False
    assert s.event_at(rest, back).named == {"ship", "buoy"}


def test_event_correspondence_between_affine_and_numeric_charts():
    s = _rindler_structure()
    rest, ship = s.bodies["rest"], s.bodies["ship"]
    for x in (coord4(1, 0, 0, 0), coord4(2, Fr(1, 3), -1, Fr(1, 2)), coord4(Fr(3, 2), 0, 2, -1)):
        y = s.event_correspondence(rest, ship, x)
        back = s.event_correspondence(ship, rest, y)
        assert all(abs(float(a) - b) <= 1e-9 for a, b in zip(x, back)), (x, back)
    # The ship's own origin is the buoy's event (1, 0, 0, 0).
    assert s.event_correspondence(rest, ship, coord4(1, 0, 0, 0)) == (0.0, 0.0, 0.0, 0.0)
    assert s.event_correspondence(ship, rest, coord4(0, 0, 0, 0)) == (1.0, 0.0, 0.0, 0.0)


def test_event_at_requires_observer(minkowski):
    stray = Body("stray", InertialLine(coord4(0, 0, 0, 0), (ER(0),) * 3))
    s = minkowski.with_extra_bodies([stray])
    with pytest.raises(NotAnObserver):
        s.event_at(s.bodies["stray"], coord4(0, 0, 0, 0))


def test_event_correspondence_identity(minkowski):
    rest = minkowski.bodies["rest"]
    x = coord4(Fr(1, 3), 2, -1, Fr(7, 2))
    assert minkowski.event_correspondence(rest, rest, x) == x


def test_event_correspondence_translation_only():
    s = standard_minkowski([
        ObserverSpec("rest"),
        ObserverSpec("shifted", translation=(1, 2, 3, 4)),
    ])
    x = coord4(0, 0, 0, 0)
    image = s.event_correspondence(s.bodies["rest"], s.bodies["shifted"], x)
    assert tuple(float(c) for c in image) == (1.0, 2.0, 3.0, 4.0)


def test_correspondence_preserves_mu(minkowski):
    rest, skew = minkowski.bodies["rest"], minkowski.bodies["skew"]
    x = coord4(1, 2, 3, Fr(1, 2))
    y = coord4(-1, 0, 2, 5)
    xi = minkowski.event_correspondence(rest, skew, x)
    yi = minkowski.event_correspondence(rest, skew, y)
    assert mu(x, y) == mu(xi, yi)


def test_own_worldline_through_spatial_origin(minkowski):
    for oid in minkowski.charts:
        o = minkowski.bodies[oid]
        assert minkowski.holds_W(o, o, coord4(0, 0, 0, 0))
        assert minkowski.holds_W(o, o, coord4(0, 0, 0, 9))


def test_piecewise_continuity_and_speed():
    with pytest.raises(SuperluminalVelocity):
        PiecewiseInertial((coord4(0, 0, 0, 0), coord4(2, 0, 0, 1)))
    with pytest.raises(ValueError):
        PiecewiseInertial((coord4(0, 0, 0, 1), coord4(0, 0, 0, 0)))


def test_unsafe_inertial_line_is_quarantined():
    line = unsafe_inertial_line((0, 0, 0, 0), (2, 0, 0))
    assert line.contains(coord4(2, 0, 0, 1))
    with pytest.raises(SuperluminalVelocity):
        InertialLine(coord4(0, 0, 0, 0), (ER(2), ER(0), ER(0)))


def test_cloud_builds_parallel_lines():
    base = InertialLine(coord4(0, 0, 0, 0), (ER(Fr(1, 3)), ER(0), ER(0)))
    lines = cloud(base, [(0, 0, 0), (1, 0, 0), (0, 2, 0)])
    assert len(lines) == 3
    assert all(l.velocity == base.velocity for l in lines)
    assert lines[1].contains(coord4(1, 0, 0, 0))


def test_chart_domain_membership():
    dom = ChartDomain(((None, None), (None, None), (None, None), (None, ER(10))))
    assert dom.contains(coord4(0, 0, 0, 9))
    assert not dom.contains(coord4(0, 0, 0, 10))  # open by default
    closed = ChartDomain(dom.bounds, closed=True)
    assert closed.contains(coord4(0, 0, 0, 10))


def test_model_file_round_trip(minkowski):
    flash = Body("flash", PhotonLine(coord4(0, 0, 0, 0), (ER(Fr(3, 5)), ER(Fr(4, 5)), ER(0))))
    drift = Body("drift", PiecewiseInertial(
        (coord4(0, 0, 0, 0), coord4(3, 0, 0, 5), coord4(0, 0, 0, 10))))
    s = minkowski.with_extra_bodies([flash, drift])
    text = serialize_model(s)
    s2 = parse_model(text)
    assert serialize_model(s2) == text
    rest = s2.bodies["rest"]
    assert s2.holds_W(rest, s2.bodies["flash"], coord4(Fr(3, 5), Fr(4, 5), 0, 1))
    # the rotated+translated observer survives the round trip exactly
    x = coord4(1, 1, 0, 2)
    assert s.event_correspondence(rest, s.bodies["skew"], x) == \
        s2.event_correspondence(rest, s2.bodies["skew"], x)


def test_rotated_galilean_observer_round_trips():
    # One rotation prints back as given; two come back as an equal product.
    one = "observer a galilean 1/2 0 0 rotate 1 2 3/5 4/5 translate 1 0 0 2"
    s = parse_model("structure g\n%s\nobserver b galilean 0 1/3 0 rotate 1 2 3/5 4/5 "
                    "rotate 2 3 5/13 12/13\n" % one)
    text = serialize_model(s)
    assert one in text.splitlines()
    s2 = parse_model(text)
    assert serialize_model(s2) == text
    for oid in ("a", "b"):
        assert s2.charts[oid] == s.charts[oid]


def test_galilean_structure_charts_not_lorentz(galilean):
    train = galilean.bodies["train"]
    assert not galilean.chart_of(train).is_lorentz()
    assert galilean.holds_W(train, train, coord4(0, 0, 0, 3))


def test_galilean_structure_keeps_translations_as_constants():
    specs = [ObserverSpec("lab"),
             ObserverSpec("train", velocity=(Fr(3, 5), 0, 0), translation=(1, 0, 0, 2))]
    built = galilean_structure(specs)
    parsed = parse_model("structure g\nobserver lab galilean 0 0 0\n"
                         "observer train galilean 3/5 0 0 translate 1 0 0 2\n")
    assert built.constants == parsed.constants
    assert ER(2) in built.constants
    x = coord4(1, 1, 0, 2)
    assert built.event_correspondence(built.bodies["lab"], built.bodies["train"], x) == \
        parsed.event_correspondence(parsed.bodies["lab"], parsed.bodies["train"], x)
