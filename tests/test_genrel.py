import hashlib
import math
from fractions import Fraction as Fr

import numpy as np
import pytest

from axrel.field import ER
from axrel.kinematics import effects
from axrel.model import SmoothNumeric
from axrel.genrel import (
    _christoffels, _symmetric, ChartSuiteConfig, DegenerateMetric, FloatBox, LeftDomain, MetricChart,
    NoMeeting, NotTimelike, check_axdiff, check_axev_minus, check_axph_minus,
    check_axself_minus, check_axsymt_minus, check_chart_theory, flat_chart,
    geodesic, geodesic_csv, normal_frame, parse_chart_file, rindler_chart,
    rindler_to_minkowski, static_observer_chart,
)

ETA = np.diag([1.0, 1.0, 1.0, -1.0])


def _frame_error(chart, p):
    m = normal_frame(chart, p)
    g = chart.metric_at(p)
    return float(np.max(np.abs(m.T @ g @ m - ETA)))


def test_normal_frame_flat_identity_up_to_signs():
    assert _frame_error(flat_chart(), (0, 0, 0, 0)) == 0.0


def test_normal_frame_diagonal_rescale():
    # diag(1,1,1,-x^2) at x=2: time axis scaled by 1/2 (diagonal oracle)
    chart = MetricChart(lambda p: np.diag([1.0, 1.0, 1.0, -p[0] * p[0]]),
                        FloatBox((0.01, -10, -10, -10), (10, 10, 10, 10)), order=9)
    m = normal_frame(chart, (2, 0, 0, 0))
    assert abs(m[3, 3] - 0.5) < 1e-12
    assert _frame_error(chart, (2, 0, 0, 0)) < 1e-12


def test_normal_frame_degenerate():
    with pytest.raises(DegenerateMetric):
        normal_frame(MetricChart(lambda p: np.diag([1.0, 1.0, 0.0, -1.0]),
                                 FloatBox(), 3), (0, 0, 0, 0))


def test_normal_frame_wrong_signature():
    with pytest.raises(DegenerateMetric):
        normal_frame(MetricChart(lambda p: np.diag([1.0, 1.0, -1.0, -1.0]),
                                 FloatBox(), 3), (0, 0, 0, 0))


def test_normal_frame_error_bound_on_test_charts():
    charts = [flat_chart(), rindler_chart(),
              MetricChart(lambda p: np.array(
                  [[1.0, 0.1, 0, 0], [0.1, 1.2, 0, 0],
                   [0, 0, 0.9, 0.05], [0, 0, 0.05, -1.3]]), FloatBox(), 3)]
    for chart in charts:
        for p in chart.domain.sample_points():
            assert _frame_error(chart, p) <= 1e-9


def test_axph_minus_flat_exact():
    v = check_axph_minus(flat_chart(), (0, 0, 0, 0))
    assert v.is_holds
    assert v.evidence["max_speed_error"] <= 1e-12


def test_axph_minus_rindler_null_speed():
    # at x=1 the chart-coordinate null condition is |dx/dt| = x = 1
    v = check_axph_minus(rindler_chart(), (1.0, 0, 0, 0))
    assert v.is_holds
    v = check_axph_minus(rindler_chart(), (3.0, 1.0, 0, 2.0))
    assert v.is_holds


def test_axph_minus_degenerate_signature():
    with pytest.raises(DegenerateMetric):
        check_axph_minus(MetricChart(lambda p: np.diag([1.0, 1.0, -1.0, -1.0]),
                                     FloatBox(), 3), (0, 0, 0, 0))


def test_axsymt_minus_identical_tangents():
    still = SmoothNumeric(lambda t: (0.0, 0.0, 0.0), 9, -5, 5,
                          velocity=lambda t: (0.0, 0.0, 0.0))
    v = check_axsymt_minus(flat_chart(), still, still, 0.0)
    assert v.is_holds
    assert abs(v.evidence["rate_1_sees_2"] - 1.0) < 1e-12


def test_axsymt_minus_flat_three_fifths():
    # reduces to SR time dilation symmetry: both rates are 4/5
    still = SmoothNumeric(lambda t: (0.0, 0.0, 0.0), 9, -5, 5,
                          velocity=lambda t: (0.0, 0.0, 0.0))
    mover = SmoothNumeric(lambda t: (0.6 * t, 0.0, 0.0), 9, -5, 5,
                          velocity=lambda t: (0.6, 0.0, 0.0))
    v = check_axsymt_minus(flat_chart(), still, mover, 0.0)
    assert v.is_holds
    sr = float(effects(Fr(3, 5)).time_dilation)
    assert abs(v.evidence["rate_1_sees_2"] - sr) < 1e-9
    assert abs(v.evidence["rate_2_sees_1"] - sr) < 1e-9


def test_axsymt_minus_asymmetric_test_double():
    still = SmoothNumeric(lambda t: (0.0, 0.0, 0.0), 9, -5, 5,
                          velocity=lambda t: (0.0, 0.0, 0.0))
    mover = SmoothNumeric(lambda t: (0.5 * t, 0.0, 0.0), 9, -5, 5,
                          velocity=lambda t: (0.5, 0.0, 0.0))
    fake = lambda g, ui, uj: float(ui[3])
    v = check_axsymt_minus(flat_chart(), still, mover, 0.0, rate_fn=fake)
    assert v.is_fails


def test_axsymt_minus_requires_meeting():
    a = SmoothNumeric(lambda t: (0.0, 0.0, 0.0), 9, -5, 5, velocity=lambda t: (0.0,) * 3)
    b = SmoothNumeric(lambda t: (1.0, 0.0, 0.0), 9, -5, 5, velocity=lambda t: (0.0,) * 3)
    with pytest.raises(NoMeeting):
        check_axsymt_minus(flat_chart(), a, b, 0.0)


def test_axsymt_minus_requires_timelike():
    a = SmoothNumeric(lambda t: (0.0, 0.0, 0.0), 9, -5, 5, velocity=lambda t: (0.0,) * 3)
    fast = SmoothNumeric(lambda t: (1.5 * t, 0.0, 0.0), 9, -5, 5,
                         velocity=lambda t: (1.5, 0.0, 0.0))
    with pytest.raises(NotTimelike):
        check_axsymt_minus(flat_chart(), a, fast, 0.0)


def test_axself_minus_standard_chart():
    line = SmoothNumeric(lambda t: (0.0, 0.0, 0.0), 9, -2, 2,
                         velocity=lambda t: (0.0,) * 3)
    v = check_axself_minus(static_observer_chart((0, 0, 0)), line,
                           [-1.0, 0.0, 1.0])
    assert v.is_holds


def test_axself_minus_displaced_observer_fails():
    line = SmoothNumeric(lambda t: (1.0, 0.0, 0.0), 9, -2, 2,
                         velocity=lambda t: (0.0,) * 3)
    v = check_axself_minus(static_observer_chart((0, 0, 0)), line, [0.0])
    assert v.is_fails


def test_axev_minus_open_domains_hold():
    box = FloatBox((-1, -1, -1, -1), (1, 1, 1, 1))
    line = SmoothNumeric(lambda t: (0.0, 0.0, 0.0), 9, -0.9, 0.9,
                         velocity=lambda t: (0.0,) * 3)
    v = check_axev_minus({"a": box}, {"a": line})
    assert v.is_holds


def test_axev_minus_closed_face_fails():
    box = FloatBox((-1, -1, -1, -1), (1, 1, 1, 1), closed_faces=((3, "hi"),))
    line = SmoothNumeric(lambda t: (0.0, 0.0, 0.0), 9, -0.9, 0.9,
                         velocity=lambda t: (0.0,) * 3)
    v = check_axev_minus({"a": box}, {"a": line})
    assert v.is_fails


def test_axev_minus_thin_open_box_holds():
    # An open box is open however thin: no 0.001-ball fits around a sample
    # point of this 1/1000-wide axis, yet no face of it is closed.
    line = SmoothNumeric(lambda t: (0.0005, 0.0, 0.0), 9, -0.9, 0.9,
                         velocity=lambda t: (0.0,) * 3)
    box = FloatBox((0, -1, -1, -1), (0.001, 1, 1, 1))
    v = check_axev_minus({"a": box}, {"a": line})
    assert v.is_holds and v.tolerance == 1e-9
    closed = FloatBox(box.lo, box.hi, closed_faces=((0, "lo"),))
    v = check_axev_minus({"a": closed}, {"a": line})
    assert v.is_fails and v.evidence["point"][0] == 0
    # The same box from a chart file, through the whole suite.
    thin = "chart thin\ndomain 1 0 1/1000\n" + "".join(
        "g %d %d = %s\n" % (i, i, "0 - 1" if i == 4 else "1") for i in range(1, 5)) + \
        "worldline a 1/2000 0 0\n"
    results = check_chart_theory(parse_chart_file(thin), n=3)
    assert all(v.is_holds for k, v in results.items() if k != "AxSymt-"), results


def test_axdiff_analytic_order_three():
    v = check_axdiff(lambda p: (p[0] + p[3] ** 3, p[1], p[2], p[3]),
                     3, [(0.3, 0, 0, 0.2)], declared_order=9)
    assert v.is_holds


def test_axdiff_kink_fails_at_first_order():
    v = check_axdiff(lambda p: (abs(p[0]), p[1], p[2], p[3]),
                     1, [(0.0, 0, 0, 0.0)], declared_order=9)
    assert v.is_fails


def test_axdiff_holds_where_the_transform_vanishes():
    # f(p) = 0 at the probe point: the rounding floor is scaled by |f| on
    # the finest stencil, so float rounding does not read as divergence.
    v = check_axdiff(lambda p: (p[0], p[1] ** 2, p[2], p[3]), 6, [(0, 0, 0, 0)],
                     declared_order=9)
    assert v.is_holds


FLAT_BOXED = """chart flatboxed
order 9
domain 1 -2 4
domain 2 -2 4
domain 3 -2 4
domain 4 -2 4
g 1 1 = 1
g 2 2 = 1
g 3 3 = 1
g 4 4 = -1
worldline a 0 0 0
worldline b 0 0 0
"""


def test_axdiff_flat_chart_probed_at_the_origin_holds(tmp_path, capsys):
    from axrel.cli import main

    chart = tmp_path / "boxed.chart"
    chart.write_text(FLAT_BOXED)
    code = main(["check", "GenRel(9)", str(chart)])
    out = capsys.readouterr().out
    assert "AxDiff_9          Holds" in out
    assert code == 2  # AxSymt- is Unknown: no meetings declared


def test_axdiff_exceeding_declared_order_unknown():
    v = check_axdiff(lambda p: p, 5, [(0, 0, 0, 0)], declared_order=3)
    assert v.outcome == "Unknown"


def test_geodesic_flat_straight_line():
    res = geodesic(flat_chart(), (0, 0, 0, 0), (0.3, 0, 0, 1), span=1.0)
    assert res.conservation_drift <= 1e-12
    assert not res.truncated
    dev = np.max(np.abs(res.points[:, 0] - 0.3 * res.points[:, 3]))
    assert dev <= 1e-12


def test_geodesic_rejects_spacelike_start():
    with pytest.raises(NotTimelike):
        geodesic(flat_chart(), (0, 0, 0, 0), (1, 0, 0, 0.5), span=1.0)


def test_geodesic_rejects_outside_domain():
    with pytest.raises(LeftDomain):
        geodesic(rindler_chart(), (0.05, 0, 0, 0), (0, 0, 0, 1), span=1.0)


def test_geodesic_rindler_maps_to_straight_line():
    res = geodesic(rindler_chart(), (2.0, 0, 0, 0), (0.2, 0, 0, 0.55),
                   span=1.0, step=0.005)
    assert res.conservation_drift <= 1e-6
    mink = np.array([rindler_to_minkowski(p) for p in res.points])
    lam = res.lambdas
    dev = 0.0
    for c in range(4):
        a, b = mink[0, c], mink[-1, c]
        chord = a + (b - a) * (lam - lam[0]) / (lam[-1] - lam[0])
        dev = max(dev, float(np.max(np.abs(mink[:, c] - chord))))
    assert dev <= 1e-6


def test_geodesic_truncates_at_domain_boundary():
    res = geodesic(rindler_chart(), (1.0, 0, 0, 0), (0, 0, 0, 1.0),
                   span=1.5, step=0.005)
    assert res.truncated


def test_geodesic_csv_header():
    res = geodesic(flat_chart(), (0, 0, 0, 0), (0, 0, 0, 1), span=0.2, step=0.05)
    lines = geodesic_csv(res).splitlines()
    assert lines[0] == "lambda,x1,x2,x3,x4,u1,u2,u3,u4"


def test_geodesic_drift_flag():
    good = geodesic(flat_chart(), (0, 0, 0, 0), (0, 0, 0, 1), span=0.2, step=0.05)
    assert not good.drift_flagged
    tight = geodesic(rindler_chart(), (2.0, 0, 0, 0), (0.2, 0, 0, 0.55),
                     span=1.0, step=0.005, drift_tolerance=1e-30)
    assert tight.drift_flagged  # no integrator meets 1e-30; the flag must say so


FLAT_CHART_TEXT = """
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

RINDLER_CHART_TEXT = """
chart rindler
order 9
domain 1 1/10 10
g 1 1 = 1
g 2 2 = 1
g 3 3 = 1
g 4 4 = 0 - x1^2
worldline rear 1 0 0
worldline nose 3/2 0 0
meet rear rear 1 0 0 0
"""


def test_chart_file_flat_suite():
    config = parse_chart_file(FLAT_CHART_TEXT)
    results = check_chart_theory(config, n=3)
    for name in ("AxField", "AxSelf-", "AxPh-", "AxEv-", "AxSymt-", "AxDiff_3"):
        assert results[name].is_holds, name
    assert all(v.is_holds for k, v in results.items() if k.startswith("IND."))


def test_chart_file_suites_hold_at_declared_order():
    # At the declared order 9 every verdict holds; AxDiff_9 is decided by
    # the translation between the static observers, with no float stencils.
    for text in (FLAT_CHART_TEXT, RINDLER_CHART_TEXT):
        results = check_chart_theory(parse_chart_file(text))
        assert "AxDiff_9" in results
        assert all(v.is_holds for v in results.values()), \
            {k: v.outcome for k, v in results.items() if not v.is_holds}


def test_chart_file_rindler_suite():
    config = parse_chart_file(RINDLER_CHART_TEXT)
    results = check_chart_theory(config, n=3)
    for name in ("AxSelf-", "AxPh-", "AxEv-", "AxSymt-", "AxDiff_3"):
        assert results[name].is_holds, name


@pytest.mark.parametrize("text", [FLAT_CHART_TEXT, RINDLER_CHART_TEXT], ids=["flat", "rindler"])
@pytest.mark.parametrize("n", [3, 9, 100])
def test_chart_file_axdiff_is_a_certified_translation(text, n):
    # Past the charts' declared order 99 too: a translation is smooth of
    # every order.
    v = check_chart_theory(parse_chart_file(text), n=n)["AxDiff_%d" % n]
    assert (v.outcome, v.method, v.tolerance) == ("Holds", "certified", None)
    assert v.evidence == {"transform": "translation", "pairs": 2}


def test_chart_file_suite_makes_no_axdiff_probe(monkeypatch):
    import axrel.genrel as genrel

    def refuse(*args, **kwargs):
        raise AssertionError("check_axdiff called")

    monkeypatch.setattr(genrel, "check_axdiff", refuse)
    results = check_chart_theory(parse_chart_file(FLAT_CHART_TEXT))
    assert {"AxField", "AxSelf-", "AxPh-", "AxEv-", "AxSymt-", "AxDiff_9"} <= set(results)
    assert sum(k.startswith("IND.") for k in results) == 18
    assert all(v.is_holds for v in results.values())


@pytest.mark.parametrize("text", [FLAT_CHART_TEXT, FLAT_CHART_TEXT.replace("worldline off 1 0 0\n", "")],
                         ids=["two-observers", "one-observer"])
def test_chart_suite_rejects_order_below_one(text):
    with pytest.raises(ValueError):
        check_chart_theory(parse_chart_file(text), n=0)


def test_coordinate_covariance_smoke():
    # a fixed smooth re-parameterization of the flat chart leaves the
    # verdicts unchanged: x1 -> x1 + x1^3/10 stretches space smoothly
    def g(p):
        # pull back the flat metric through phi(x) = x + x^3/10:
        # g_11 = (phi'(x1))^2
        d = 1.0 + 0.3 * p[0] * p[0]
        return np.diag([d * d, 1.0, 1.0, -1.0])

    chart = MetricChart(g, FloatBox((-2, -2, -2, -2), (2, 2, 2, 2)), order=9)
    for p in chart.domain.sample_points():
        assert check_axph_minus(chart, p).is_holds
    res = geodesic(chart, (0, 0, 0, 0), (0.1, 0, 0, 1), span=0.5, step=0.005)
    assert res.conservation_drift <= 1e-6


# ---------------------------------------------------------------------------
# Stacked metrics and vectorized Christoffel symbols.


def _reference_christoffels(chart, x, h):
    # The scalar triple loop that _christoffels replaces, kept as its oracle.
    G = chart.metric_at(x)
    G_inv = np.linalg.inv(G)
    dg = np.empty((4, 4, 4))
    for c in range(4):
        e = np.zeros(4)
        e[c] = h
        dg[c] = (chart.metric_at(np.asarray(x) + e) -
                 chart.metric_at(np.asarray(x) - e)) / (2 * h)
    gamma = np.empty((4, 4, 4))
    for a in range(4):
        for b in range(4):
            for c in range(4):
                gamma[a, b, c] = 0.5 * sum(
                    G_inv[a, d] * (dg[b][d, c] + dg[c][d, b] - dg[d][b, c])
                    for d in range(4))
    return gamma


# Every metric entry is nonzero and varies, so each Christoffel sum has four
# nonzero terms and a reordered sum would round differently.
DENSE_CHART_TEXT = """
chart dense
order 3
g 1 1 = 1 + x2^2/10
g 1 2 = x1*x3/20 + x4/30
g 1 3 = x2/15 + 1/40
g 1 4 = x1*x3/20 - x2/35
g 2 2 = 1 + x3^2/7
g 2 3 = x4/10 + x1*x2/25
g 2 4 = x3/12 + x4^2/50
g 3 3 = 1 + x1/10
g 3 4 = x1*x4/30 + 1/45
g 4 4 = 0 - 1 - x1^2/5
"""


@pytest.mark.parametrize("make", [rindler_chart, lambda: parse_chart_file(DENSE_CHART_TEXT).chart],
                         ids=["rindler", "dense-file"])
def test_christoffels_bit_identical_to_triple_loop(make):
    chart = make()
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = np.array([rng.uniform(0.5, 3.0), rng.uniform(-1, 1), rng.uniform(-1, 1),
                      rng.uniform(-1, 1)])
        for h in (1e-4, 1e-3):
            got, want = _christoffels(chart, x, h), _reference_christoffels(chart, x, h)
            assert np.array_equal(got, want), (x, h, np.max(np.abs(got - want)))


def _symmetric_cases():
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(40):
        a = rng.normal(size=(4, 4))
        cases.append(a + a.T)
        a = a + a.T
        a[0, 1] = 0.0
        a[1, 0] = 0.0
        for eps in (1e-13, 1e-11, 1e-6, 1e-3):
            b = a.copy()
            i, j = rng.choice(4, size=2, replace=False)
            b[i, j] = eps
            cases.append(b)
            c = a.copy()
            c[2, 3] *= 1 + eps
            cases.append(c)
    base = np.diag([1.0, 1.0, 1.0, -1.0])
    for value in (np.nan, np.inf, -np.inf):
        for where, mirror in (((0, 0), None), ((0, 1), value), ((0, 1), 0.0),
                              ((0, 1), -value), ((2, 3), 1.0)):
            m = base.copy()
            m[where] = value
            if mirror is not None:
                m[where[::-1]] = mirror
            cases.append(m)
    return cases


def test_symmetric_matches_allclose():
    cases = _symmetric_cases()
    outcomes = set()
    for m in cases:
        want = bool(np.allclose(m, m.T, atol=1e-12))
        assert _symmetric(m) is want, m
        assert _symmetric(m[None]) is want
        outcomes.add(want)
    assert outcomes == {True, False}
    rng = np.random.default_rng(3)
    for _ in range(20):
        stack = np.array([cases[k] for k in rng.choice(len(cases), size=5)])
        want = all(np.allclose(m, m.T, atol=1e-12) for m in stack)
        assert _symmetric(stack) is want


def test_symmetric_tolerance_edges():
    m = np.diag([1.0, 1.0, 1.0, -1.0])
    m[0, 1] = 1e-13
    assert _symmetric(m)
    m[0, 1] = 1e-11
    assert not _symmetric(m)
    m[0, 1] = m[1, 0] = np.inf
    assert _symmetric(m)
    m[1, 0] = -np.inf
    assert not _symmetric(m)
    m[0, 1] = m[1, 0] = np.nan
    assert not _symmetric(m)


ETA_LIST = [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, -1.0]]


@pytest.mark.parametrize("g", [
    lambda p: np.array([[1.0, 0.5, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, -1.0]]),
    lambda p: np.eye(3),
    lambda p: 1.0,
    lambda p: [[1.0, 0.0], [0.0]],
    lambda p: ETA if p[0] <= 0 else np.eye(3),
], ids=["asymmetric", "3x3", "scalar", "ragged", "shape-varies"])
def test_bad_metric_raises_degenerate(g):
    chart = MetricChart(g, FloatBox(), order=3)
    with pytest.raises(DegenerateMetric):
        chart.metric_at((1.0, 0, 0, 0))
    with pytest.raises(DegenerateMetric):
        chart.metrics_at([(0.0, 0, 0, 0), (1.0, 0, 0, 0)])
    with pytest.raises(DegenerateMetric):
        geodesic(chart, (0.0, 0, 0, 0), (0, 0, 0, 1), span=0.1, step=0.05)


def test_metrics_at_stacks_metric_at():
    chart = parse_chart_file(DENSE_CHART_TEXT).chart
    points = [(0.5, 0.2, 0.3, 0.0), (1.0, -0.5, 0.25, 2.0), (0, 0, 0, 0)]
    stack = chart.metrics_at(points)
    assert stack.shape == (3, 4, 4)
    for p, m in zip(points, stack):
        assert np.array_equal(m, chart.metric_at(p))


def test_christoffels_evaluates_the_metric_nine_times():
    calls = []
    inner = rindler_chart()

    def g(p):
        calls.append(p)
        return inner.g(p)

    chart = MetricChart(g, inner.domain, order=9)
    _christoffels(chart, np.array([2.0, 0.1, -0.2, 0.3]), 1e-4)
    assert len(calls) == 9


def test_flat_geodesic_golden_bytes():
    # SHA-256 of this CSV as the scalar Christoffel loop printed it.
    res = geodesic(flat_chart(), (0.5, -1.0, 2.0, 0.0), (0.3, -0.2, 0.1, 1.0), span=1.0)
    digest = hashlib.sha256(geodesic_csv(res).encode()).hexdigest()
    assert digest == "bbe2046099931e5f3b6e3c6e8ccef5d5ff9f36d4f6ab4829f461aea9f9392997"


# An off-diagonal entry, a cube and a square root, in a chart file.
WARPED_CHART_TEXT = """
chart warped
order 3
domain 1 1/2 4
g 1 1 = 1 + x2^2/10
g 1 4 = x1^3/200
g 2 2 = sqrt(1 + x1/5)
g 3 3 = 1
g 4 4 = 0 - x1^2
"""

# Start points and tangents of the pinned geodesics, per chart.
PINNED_STARTS = {
    "rindler": ((2.25, 0.0, 0.0, 0.0), (0.0625, -0.125, 0.0, 0.625)),
    "flat": ((0.5, -0.25, 0.75, 0.125), (0.25, -0.125, 0.1875, 1.0)),
    "warped": ((2.0, 0.1, 0.0, 0.0), (0.1, 0.05, 0.0, 0.6)),
}

# SHA-256 of geodesic_csv from the per-point metric path, with one halving.
GEODESIC_PINS = {
    ("rindler", 0.025): "d9a38d3c08e3ff63e86c6a4bbf7537a82ec23947bfa67f57c907edf9194b63cd",
    ("rindler", 0.03): "4c6e3ccbd633edcb74a81b688233fb6cf8e408ef0d9371be3458f9eba70bb8f5",
    ("flat", 0.025): "b4c02261215f24e072eebf585f69081a91e0e69006a53f94c18d230373cf6218",
    ("flat", 0.03): "a517c1064ef0c79f77a80d9f35bf2e74bc1dd855647b37e22db4e2ed3e7d7590",
    ("rindler-file", 0.025): "d9a38d3c08e3ff63e86c6a4bbf7537a82ec23947bfa67f57c907edf9194b63cd",
    ("rindler-file", 0.03): "4c6e3ccbd633edcb74a81b688233fb6cf8e408ef0d9371be3458f9eba70bb8f5",
    ("flat-file", 0.025): "b4c02261215f24e072eebf585f69081a91e0e69006a53f94c18d230373cf6218",
    ("flat-file", 0.03): "a517c1064ef0c79f77a80d9f35bf2e74bc1dd855647b37e22db4e2ed3e7d7590",
    ("warped-file", 0.025): "8117788e202878a3ebddf3d01c7ab919f84536c56579d9d9432b2769276227a4",
    ("warped-file", 0.03): "18cc0f806a2dfe3a7a1a957fa889178bee74cbfed978006f83b2e71ba97fd7a8",
}


def _pinned_chart(name):
    return {"rindler": rindler_chart, "flat": flat_chart,
            "rindler-file": lambda: parse_chart_file(RINDLER_CHART_TEXT).chart,
            "flat-file": lambda: parse_chart_file(FLAT_CHART_TEXT).chart,
            "warped-file": lambda: parse_chart_file(WARPED_CHART_TEXT).chart}[name]()


@pytest.mark.parametrize("name, step", sorted(GEODESIC_PINS))
def test_geodesic_csv_pins(name, step):
    # The benchmark's steps and spans: 0.025 over 0.5 and 0.03 over 0.75.
    x0, u0 = PINNED_STARTS[name.split("-")[0]]
    span = {0.025: 0.5, 0.03: 0.75}[step]
    res = geodesic(_pinned_chart(name), x0, u0, span=span, step=step, max_halvings=1)
    assert not res.truncated
    digest = hashlib.sha256(geodesic_csv(res).encode()).hexdigest()
    assert digest == GEODESIC_PINS[(name, step)]


# ---------------------------------------------------------------------------
# The stacked evaluator of the charts built in genrel.

# + - * /, a division by zero where x1 = x2, ^0, ^1, ^3, sqrt, a constant
# entry and off-diagonal entries.
REFERENCE_CHART_TEXT = """
chart reference
g 1 1 = 1 + x2^2/10 - x3^0
g 1 2 = (x1 - x2) * x3 / 7
g 1 3 = x4^1 / (x1 - x2)
g 2 2 = 2.5
g 2 4 = x1^3 - sqrt(x2*x2 + 1)
g 3 3 = sqrt(x1) * x4^3
g 4 4 = 0 - x1^2
"""


def _per_point(chart, points):
    return np.asarray([chart.g(tuple(p)) for p in points])


def _stack_charts():
    return [flat_chart(), rindler_chart(), parse_chart_file(REFERENCE_CHART_TEXT).chart]


@pytest.mark.parametrize("seed", range(5))
def test_stacked_metric_matches_the_per_point_loop(seed):
    rng = np.random.default_rng(seed)
    points = np.column_stack([rng.uniform(0.1, 40.0, 50), rng.normal(size=50) * 30,
                              rng.uniform(-3, 3, 50), rng.normal(size=50) * 1e3])
    for chart in _stack_charts():
        got = chart.g.stack_at(points)
        assert got.tobytes() == _per_point(chart, points).tobytes(), chart.name
        assert chart.metrics_at(points).tobytes() == \
            np.array([chart.metric_at(p) for p in points]).tobytes()


def test_stacked_metric_divides_by_zero_as_the_per_point_loop():
    chart = parse_chart_file(REFERENCE_CHART_TEXT).chart
    points = np.array([[2.0, 2.0, 0.5, 1.5], [3.0, 3.0, 0.5, -2.0], [1.0, 0.5, 0.0, 1.0]])
    with np.errstate(all="ignore"):
        want = _per_point(chart, points)
        assert np.isposinf(want[0, 0, 2]) and np.isneginf(want[1, 0, 2])
        assert chart.g.stack(points).tobytes() == want.tobytes()
    # A floating-point exception sends the stack through the per-point loop,
    # its warnings included.
    assert chart.g.stack_at(points) is None
    with pytest.warns(RuntimeWarning):
        got = chart.metrics_at(points)
    assert got.tobytes() == (0.5 * (want + np.swapaxes(want, 1, 2))).tobytes()
    nan = np.array([[2.0, 2.0, 0.5, 0.0]])
    with np.errstate(all="ignore"):
        assert np.isnan(_per_point(chart, nan)[0, 0, 2])
        assert chart.g.stack(nan).tobytes() == _per_point(chart, nan).tobytes()


def test_stacked_metric_sqrt_of_a_negative_raises_value_error():
    chart = parse_chart_file(REFERENCE_CHART_TEXT).chart
    points = np.array([[1.0, 0.5, 0.0, 1.0], [-1.0, 0.5, 0.0, 1.0]])
    with pytest.raises(ValueError, match="math domain error"):
        chart.metric_at(points[1])
    with pytest.raises(ValueError, match="math domain error"):
        chart.metrics_at(points)


def test_chart_file_geodesic_evaluates_stacks_only():
    # One stacked evaluation per Christoffel stencil and one for the drift
    # check; the one per-point call is the initial tangent's g(u, u).
    chart = parse_chart_file(DENSE_CHART_TEXT).chart
    point, stack = chart.g.point, chart.g.stack
    calls = []
    chart.g.point = lambda p: calls.append("point") or point(p)
    chart.g.stack = lambda points: calls.append(len(points)) or stack(points)
    for x in ([1.0, 0.2, -0.3, 0.5], [2.0, -0.1, 0.4, 1.5]):
        calls.clear()
        _christoffels(chart, np.array(x), 1e-4)
        assert calls == [9]
    calls.clear()
    res = geodesic(chart, (1.0, 0.0, 0.0, 0.0), (0.1, 0.0, 0.0, 1.0), span=0.1, step=0.05,
                   max_halvings=0)
    assert calls[0] == "point" and calls[1:-1] == [9] * 8 and calls[-1] == len(res.points)
