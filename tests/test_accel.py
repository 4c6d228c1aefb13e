import math
import random
from fractions import Fraction as Fr

import pytest

from axrel.field import ApproxReal, ER, sqrt
from axrel.kinematics import boost, coord4, random_poincare_map
from axrel.model import (
    Body, InertialLine, PhotonLine, PiecewiseInertial, SmoothNumeric, Structure,
)
from axrel.accel import (
    AcceleratedScenario, InvalidConfig, NoReunion, NotDifferentiable,
    ShipConfig, SuperluminalSegment, check_axcmv, comoving_inertial,
    galaxy_trip, gtd_clock_ratio, hyperbolic_worldline, parse_scenario,
    proper_time, rechart_scenario, rindler_observer_chart, serialize_scenario,
    tangent_deviation_ladder, twin_paradox, worldline_csv,
)


def _roundtrip_scenario():
    home = Body("home", InertialLine(coord4(0, 0, 0, 0), (ER(0),) * 3))
    traveler = Body("traveler", PiecewiseInertial(
        (coord4(0, 0, 0, 0), coord4(3, 0, 0, 5), coord4(0, 0, 0, 10))))
    return AcceleratedScenario("roundtrip-0.6", home, traveler,
                               coord4(0, 0, 0, 0), coord4(0, 0, 0, 10))


def test_proper_time_resting_line():
    line = InertialLine(coord4(0, 0, 0, 0), (ER(0), ER(0), ER(0)))
    assert proper_time(line, 0, 10) == ER(10)


def test_proper_time_out_and_back():
    w = PiecewiseInertial((coord4(0, 0, 0, 0), coord4(3, 0, 0, 5), coord4(0, 0, 0, 10)))
    assert proper_time(w, 0, 10) == ER(8)  # 10 * sqrt(1 - 9/25)


def test_proper_time_photon_rejected():
    with pytest.raises(SuperluminalSegment):
        proper_time(PhotonLine(coord4(0, 0, 0, 0), (ER(1), ER(0), ER(0))), 0, 1)


def test_proper_time_additive():
    w = PiecewiseInertial((coord4(0, 0, 0, 0), coord4(3, 0, 0, 5), coord4(0, 0, 0, 10)))
    mid = ER(Fr(7, 2))
    assert proper_time(w, 0, mid) + proper_time(w, mid, 10) == proper_time(w, 0, 10)


def test_proper_time_numeric_hyperbola():
    # integral of 1/sqrt(1+t^2) from 0 to 1 is asinh(1)
    w = hyperbolic_worldline(1)
    tau = proper_time(w, 0.0, 1.0)
    assert isinstance(tau, ApproxReal)
    truth = Fr(math.asinh(1.0)).limit_denominator(10 ** 12)
    assert tau.contains(truth)
    assert float(tau.width) < 1e-8


def _velocityless_curve():
    # x(t) = 0.5 t + 0.1 sin t on [-3, 3], with no analytic velocity.
    return SmoothNumeric(lambda t: (0.5 * t + 0.1 * math.sin(t), 0.0, 0.0), 9, -3.0, 3.0)


def _simpson(f, a, b, n):
    h = (b - a) / n
    odd = sum(f(a + (2 * k - 1) * h) for k in range(1, n // 2 + 1))
    even = sum(f(a + 2 * k * h) for k in range(1, n // 2))
    return h / 3 * (f(a) + 4 * odd + 2 * even + f(b))


def test_proper_time_numeric_without_velocity_contains_the_integral():
    tau = proper_time(_velocityless_curve(), -3.0, 3.0)
    speed = lambda t: 0.5 + 0.1 * math.cos(t)
    truth = _simpson(lambda t: math.sqrt(1.0 - speed(t) ** 2), -3.0, 3.0, 200000)
    assert tau.contains(Fr(truth))
    assert float(tau.width) < 1e-9


def test_comoving_hyperbola_symmetry_point():
    w = hyperbolic_worldline(1)
    velocity, event = comoving_inertial(w, 0.0)
    assert velocity == (0.0, 0.0, 0.0)
    assert event[0] == 1.0


def test_comoving_inertial_line_self_tangent():
    line = InertialLine(coord4(0, 0, 0, 0), (ER(Fr(1, 3)), ER(0), ER(0)))
    velocity, event = comoving_inertial(line, Fr(5, 2))
    assert velocity == line.velocity
    assert event == line.point_at(ER(Fr(5, 2)))


def test_comoving_hyperbola_at_three_quarters():
    # d/dt sqrt(1+t^2) = t/sqrt(1+t^2) = (3/4)/(5/4) = 3/5
    w = hyperbolic_worldline(1)
    velocity, _ = comoving_inertial(w, 0.75)
    assert abs(velocity[0] - 0.6) < 1e-9


def test_comoving_breakpoint_not_differentiable():
    w = PiecewiseInertial((coord4(0, 0, 0, 0), coord4(3, 0, 0, 5), coord4(0, 0, 0, 10)))
    with pytest.raises(NotDifferentiable):
        comoving_inertial(w, 5)


def test_tangent_deviation_first_order():
    w = hyperbolic_worldline(1)
    deltas = [1.0 / 2 ** k for k in range(3, 13)]
    devs = tangent_deviation_ladder(w, 0.5, deltas)
    # log-log slope of the residual: ~2 for the analytic hyperbola
    slopes = [math.log(devs[i] / devs[i + 1], 2) for i in range(len(devs) - 1)
              if devs[i + 1] > 0]
    assert sum(slopes) / len(slopes) >= 0.9


def test_check_axcmv_inertial_exact(two_observer):
    v = check_axcmv(two_observer, two_observer.bodies["boosted"], Fr(1, 2))
    assert v.is_holds and v.method == "certified"


def test_check_axcmv_rindler_ladder():
    ship = Body("ship", hyperbolic_worldline(1))
    s = Structure([ship], {"ship": rindler_observer_chart(1)})
    for t in (0.0, 0.5, -0.5):
        v = check_axcmv(s, ship, t)
        assert v.is_holds, t
        assert v.method == "sampled"
        assert v.tolerance is not None


def test_check_axcmv_kink_not_differentiable():
    from axrel.model import DifferentiableChart

    def fwd(p):
        return (p[0] - abs(p[3]), p[1], p[2], p[3])

    def inv(q):
        return (q[0] + abs(q[3]), q[1], q[2], q[3])

    ship = Body("ship", SmoothNumeric(lambda t: (abs(t), 0.0, 0.0), 1, -2.0, 2.0))
    s = Structure([ship], {"ship": DifferentiableChart(fwd, inv, order=1)})
    with pytest.raises(NotDifferentiable):
        check_axcmv(s, ship, 0.0)


def test_twin_paradox_roundtrip():
    tau_home, tau_traveler = twin_paradox(_roundtrip_scenario())
    assert tau_home == ER(10)
    assert tau_traveler == ER(8)


def test_twin_paradox_inertial_traveler_degenerate():
    home = Body("home", InertialLine(coord4(0, 0, 0, 0), (ER(0),) * 3))
    clone = Body("clone", InertialLine(coord4(0, 0, 0, 0), (ER(0),) * 3))
    sc = AcceleratedScenario("stayathome", home, clone,
                             coord4(0, 0, 0, 0), coord4(0, 0, 0, 10))
    tau_home, tau_traveler = twin_paradox(sc)
    assert tau_home == tau_traveler == ER(10)


def test_twin_paradox_no_reunion():
    home = Body("home", InertialLine(coord4(0, 0, 0, 0), (ER(0),) * 3))
    wanderer = Body("wanderer", PiecewiseInertial(
        (coord4(0, 0, 0, 0), coord4(3, 0, 0, 5), coord4(1, 0, 0, 10))))
    sc = AcceleratedScenario("lost", home, wanderer,
                             coord4(0, 0, 0, 0), coord4(0, 0, 0, 10))
    with pytest.raises(NoReunion):
        twin_paradox(sc)


def test_rechart_scenario_maps_a_photon_traveler_exactly():
    home = Body("home", InertialLine(coord4(0, 0, 0, 0), (ER(0),) * 3))
    photon = PhotonLine(coord4(0, 0, 0, 0), (ER(Fr(3, 5)), ER(Fr(4, 5)), ER(0)))
    sc = AcceleratedScenario("flash", home, Body("flash", photon),
                             coord4(0, 0, 0, 0), coord4(0, 0, 0, 10))
    rng = random.Random(29)
    for _ in range(5):
        w = random_poincare_map(rng)
        line = rechart_scenario(sc, w).traveler.worldline
        assert isinstance(line, PhotonLine)
        assert sum((c * c for c in line.direction), ER(0)) == ER(1)
        for t in (-3, 0, Fr(7, 2)):
            assert line.contains(w.apply(photon.point_at(ER(t))))


def test_rechart_scenario_refuses_a_numeric_traveler():
    home = Body("home", InertialLine(coord4(0, 0, 0, 0), (ER(0),) * 3))
    sc = AcceleratedScenario("numeric", home, Body("ship", _velocityless_curve()),
                             coord4(0, 0, 0, 0), coord4(0, 0, 0, 3))
    with pytest.raises(InvalidConfig, match="numeric worldline"):
        rechart_scenario(sc, random_poincare_map(random.Random(31)))


def test_rechart_scenario_maps_the_extra_bodies():
    text = serialize_scenario(_roundtrip_scenario()).replace(
        "home home", "body rock inertial through 1 0 0 0 velocity 0 0 0\nhome home")
    sc = parse_scenario(text)
    w = random_poincare_map(random.Random(3))
    moved = rechart_scenario(sc, w)
    rock = sc.extra_bodies[0].worldline
    assert [b.id for b in moved.extra_bodies] == ["rock"]
    assert moved.extra_bodies[0].worldline == rock.image(w)
    for t in (-2, 0, Fr(7, 3)):
        assert moved.extra_bodies[0].worldline.contains(w.apply(rock.point_at(ER(t))))
    lines = serialize_scenario(moved).splitlines()
    assert lines[1].startswith("body home inertial through 5/4 1/3 19/7 -2/3 ")
    assert not lines[3].startswith("body rock inertial through 1 0 0 0 ")


def test_twin_paradox_rechart_invariant():
    sc = _roundtrip_scenario()
    expected = twin_paradox(sc)
    rng = random.Random(17)
    for _ in range(5):
        sc2 = rechart_scenario(sc, random_poincare_map(rng))
        assert twin_paradox(sc2) == expected


def test_galaxy_trip_numbers():
    v, sc = galaxy_trip(200, 1)
    assert v == ER(200) / sqrt(ER(40001))
    tau_home, tau_traveler = twin_paradox(sc)
    assert tau_traveler == ER(2)
    assert tau_home == 2 * sqrt(ER(40001))
    # home ~ 400.005
    assert abs(float(tau_home) - 400.005) < 1e-4


def test_maximal_aging_of_the_inertial_line():
    # reverse triangle inequality: every piecewise competitor between the
    # same events ages strictly less than the straight line
    rng = random.Random(23)
    depart, reunite = coord4(0, 0, 0, 0), coord4(0, 0, 0, 10)
    straight = InertialLine(depart, (ER(0), ER(0), ER(0)))
    tau_line = proper_time(straight, 0, 10)
    for _ in range(40):
        t_mid = Fr(rng.randint(1, 9))
        r = Fr(rng.randint(1, 4), 2)
        x_mid = (r * min(t_mid, 10 - t_mid)) * Fr(rng.randint(1, 2), 2)
        if x_mid >= min(t_mid, 10 - t_mid) or x_mid == 0:
            continue
        competitor = PiecewiseInertial((depart, coord4(x_mid, 0, 0, t_mid), reunite))
        assert proper_time(competitor, 0, 10) < tau_line


def test_gtd_zero_acceleration():
    assert gtd_clock_ratio(ShipConfig(0, Fr(1, 2))) == ER(1)


def test_gtd_rindler_example():
    assert gtd_clock_ratio(ShipConfig(1, Fr(1, 2))) == ER(Fr(3, 2))


def test_gtd_equals_one_plus_gh():
    for g, h in ((Fr(1, 4), Fr(1, 2)), (2, 3), (Fr(7, 3), Fr(2, 9))):
        assert gtd_clock_ratio(ShipConfig(g, h)) == 1 + ER(g) * ER(h)


def test_gtd_monotone_and_unbounded():
    h = Fr(1, 2)
    previous = ER(0)
    for k in range(0, 9):
        g = Fr(k, 4) * 2  # 0, 1/2, ..., 4 doubled to 8
        ratio = gtd_clock_ratio(ShipConfig(g, h))
        assert ratio >= ER(1)
        if k:
            assert ratio > previous
        previous = ratio
    bound = ER(100)
    g_needed = (bound - 1) / ER(h) + 1
    assert gtd_clock_ratio(ShipConfig(g_needed, h)) > bound


def test_gtd_invalid_configs():
    with pytest.raises(InvalidConfig):
        ShipConfig(-1, 1)
    with pytest.raises(InvalidConfig):
        ShipConfig(1, 0)


def test_scenario_file_round_trip():
    sc = _roundtrip_scenario()
    text = serialize_scenario(sc)
    sc2 = parse_scenario(text)
    assert serialize_scenario(sc2) == text
    assert twin_paradox(sc2) == twin_paradox(sc)


def test_worldline_csv_columns():
    sc = _roundtrip_scenario()
    csv = worldline_csv(sc.traveler.worldline, 0, 10, steps=10)
    lines = csv.strip().splitlines()
    assert lines[0] == "t,x1,x2,x3,v1,v2,v3,tau"
    assert len(lines) == 12
    assert lines[-1].split(",")[-1].startswith("8.0000")


def test_worldline_csv_tau_starts_at_t0_for_every_kind():
    sc = _roundtrip_scenario()
    for w in (sc.traveler.worldline, sc.home.worldline):
        rows = worldline_csv(w, 5, 10, steps=5).strip().splitlines()[1:]
        assert rows[0].split(",")[0] == "5.00000000000"
        assert rows[0].split(",")[-1] == "0.00000000000"
    # The traveler's second leg lasts 5 at speed 3/5: 4 of proper time.
    last = worldline_csv(sc.traveler.worldline, 5, 10, steps=5).strip().splitlines()[-1]
    assert last.split(",")[-1] == "4.00000000000"


def test_worldline_csv_knot_row_takes_the_outgoing_segment():
    sc = _roundtrip_scenario()
    rows = worldline_csv(sc.traveler.worldline, 0, 10, steps=10).strip().splitlines()[1:]
    # t = 0 and t = 5 start segments at +3/5 and -3/5; t = 10 ends the last.
    assert [r.split(",")[4] for r in (rows[0], rows[5], rows[10])] == \
        ["0.600000000000", "-0.600000000000", "-0.600000000000"]


def test_worldline_csv_integrates_a_numeric_worldline_in_one_pass(monkeypatch):
    import axrel.accel as accel_module

    calls = []
    real = accel_module.velocity_at
    monkeypatch.setattr(accel_module, "velocity_at", lambda w, t: calls.append(t) or real(w, t))
    counts = []
    for steps in (50, 100, 200):
        calls.clear()
        worldline_csv(_velocityless_curve(), -3.0, 3.0, steps=steps)
        counts.append(len(calls))
        # A row's velocity plus one short integral; from t0 each row took ~240.
        assert len(calls) <= 8 * (steps + 1), steps
    assert counts[1] <= 2.2 * counts[0] and counts[2] <= 2.2 * counts[1]


def test_worldline_csv_numeric_tau_matches_the_integral_from_t0():
    w = _velocityless_curve()
    rows = worldline_csv(w, -3.0, 3.0, steps=24).strip().splitlines()[1:]
    assert rows[0].split(",")[-1] == "0"
    for row in rows[1:]:
        t, tau = float(row.split(",")[0]), float(row.split(",")[-1])
        reference = proper_time(w, -3.0, t)
        assert abs(tau - float(reference)) <= float(reference.width), t


def test_worldline_csv_starts_at_a_numeric_domain_edge():
    w = _velocityless_curve()
    rows = worldline_csv(w, -3.0, 3.0, steps=12).strip().splitlines()[1:]
    assert len(rows) == 13
    first = [float(x) for x in rows[0].split(",")]
    assert abs(first[4] - (0.5 + 0.1 * math.cos(-3.0))) <= 1e-7
    last = [float(x) for x in rows[-1].split(",")]
    assert abs(last[4] - (0.5 + 0.1 * math.cos(3.0))) <= 1e-7
    # Every row, edges included, prints the co-moving observer's velocity.
    for row in rows:
        t = float(row.split(",")[0])
        v = comoving_inertial(w, t)[0]
        assert row.split(",")[4:7] == ["%.12g" % c for c in v]
