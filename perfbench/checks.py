"""Output checks computed apart from the program.

Every expected value here is derived with ``fractions`` and ``math`` from
the generated inputs; nothing is copied from the program's output.  A
check raises ``CheckFailed`` with a one-line reason.  The program's own
functions are used only where a check needs the program to answer a
question about its own output (``recheck_counterexample``) or to read an
exact value (``ExactReal.as_fraction``, ``float``).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction as F

ETA = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))
REPORT_SCHEMA = "axrel.report/1"


class CheckFailed(AssertionError):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Exact rational geometry (coordinates (x1, x2, x3, x4), x4 time, c = 1).


def frac_sqrt(q):
    """Exact square root of a rational square; None when irrational."""
    q = F(q)
    if q < 0:
        return None
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if n * n != q.numerator or d * d != q.denominator:
        return None
    return F(n, d)


def mat_mul(a, b):
    return tuple(tuple(sum(F(a[i][k]) * b[k][j] for k in range(4)) for j in range(4))
                 for i in range(4))


def mat_vec(a, v):
    return tuple(sum(F(a[i][k]) * v[k] for k in range(4)) for i in range(4))


def transpose(a):
    return tuple(tuple(a[j][i] for j in range(4)) for i in range(4))


def identity():
    return tuple(tuple(F(int(i == j)) for j in range(4)) for i in range(4))


def boost_matrix(v):
    """Lorentz boost taking velocity v to rest; v must have a rational gamma."""
    v = tuple(F(c) for c in v)
    v2 = sum(c * c for c in v)
    if v2 == 0:
        return identity()
    root = frac_sqrt(1 - v2)
    require(root is not None, "boost velocity %s has an irrational gamma" % (v,))
    g = 1 / root
    rows = [[F(int(i == j)) + (g - 1) * v[i] * v[j] / v2 for j in range(3)] + [-g * v[i]]
            for i in range(3)]
    rows.append([-g * v[0], -g * v[1], -g * v[2], g])
    return tuple(tuple(r) for r in rows)


def rotation_matrix(i, j, c, s):
    m = [list(r) for r in identity()]
    a, b = i - 1, j - 1
    m[a][a], m[a][b], m[b][a], m[b][b] = F(c), -F(s), F(s), F(c)
    return tuple(tuple(r) for r in m)


def lorentz_inverse(lin):
    """L^-1 = eta L^T eta, valid because L^T eta L = eta."""
    return mat_mul(ETA, mat_mul(transpose(lin), ETA))


class Chart:
    """An observer chart x -> L x + t, built from an observer spec dict
    (velocity, rotations, translation) the way the model files define it:
    translate after rotate after boost."""

    def __init__(self, spec):
        lin = boost_matrix(spec["velocity"])
        for (i, j, c, s) in spec.get("rotations", ()):
            lin = mat_mul(rotation_matrix(i, j, c, s), lin)
        self.linear = lin
        self.translation = tuple(F(c) for c in spec.get("translation", (0, 0, 0, 0)))

    def apply(self, x):
        return tuple(a + b for a, b in zip(mat_vec(self.linear, x), self.translation))

    def inverse_apply(self, y):
        d = tuple(F(a) - b for a, b in zip(y, self.translation))
        return mat_vec(lorentz_inverse(self.linear), d)


def mu(x, y):
    d = [F(x[i]) - F(y[i]) for i in range(4)]
    return d[0] ** 2 + d[1] ** 2 + d[2] ** 2 - d[3] ** 2


def mu_float(x, y):
    d = [float(x[i]) - float(y[i]) for i in range(4)]
    return d[0] ** 2 + d[1] ** 2 + d[2] ** 2 - d[3] ** 2


def parse_rational(text):
    """A rational field literal such as ``-3/5``; None for any other literal."""
    try:
        return F(text.strip())
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# Verdict checks (reports as the CLI prints them, or Verdict objects).


def check_json_report(text, expect_summary=None):
    payload = json.loads(text)
    require(payload.get("schema") == REPORT_SCHEMA,
            "report schema %r is not %s" % (payload.get("schema"), REPORT_SCHEMA))
    counts = {"Holds": 0, "Fails": 0, "Unknown": 0}
    for v in payload["results"].values():
        counts[v["outcome"]] += 1
    require(payload["summary"] == counts, "report summary disagrees with its results")
    if expect_summary is not None:
        require(counts == expect_summary, "summary %s, expected %s" % (counts, expect_summary))
    return payload


def text_outcomes(text):
    """name -> outcome from a text report table."""
    out = {}
    for line in text.splitlines():
        words = line.split()
        if len(words) >= 3 and words[1] in ("Holds", "Fails", "Unknown"):
            out[words[0]] = words[1]
    return out


def expected_exit(outcomes):
    values = list(outcomes)
    if "Fails" in values:
        return 1
    if "Unknown" in values:
        return 2
    return 0


def check_all_hold(outcomes, code, what):
    require(outcomes, "%s: no verdicts in the output" % what)
    bad = sorted(n for n, o in outcomes.items() if o != "Holds")
    require(not bad, "%s: expected every verdict Holds, got %s" % (
        what, {n: outcomes[n] for n in bad}))
    require(code == 0, "%s: exit %s, expected 0" % (what, code))


def check_exit_matches(outcomes, code, what):
    require(code == expected_exit(outcomes.values()),
            "%s: exit %s does not match verdicts %s" % (what, code, outcomes))


def check_event_outside_cap(evidence, charts, caps):
    """AxEv counterexample: the event o sees at x must be one o' does not
    chart, i.e. its o'-coordinates fall outside o''s declared cap.

    charts: observer name -> Chart; caps: name -> (axis, lo, hi) open box."""
    o, o2 = evidence["o"], evidence["o'"]
    x = tuple(F(evidence["x%d" % k]) for k in range(1, 5))
    require(_inside(caps.get(o), x), "AxEv event is outside o's own domain")
    y = charts[o2].apply(charts[o].inverse_apply(x))
    require(not _inside(caps.get(o2), y),
            "AxEv event %s maps to %s, inside the cap of %s" % (x, y, o2))


def _inside(cap, x):
    if cap is None:
        return True
    axis, lo, hi = cap
    c = x[axis - 1]
    return (lo is None or c > lo) and (hi is None or c < hi)


# ---------------------------------------------------------------------------
# Predictions.


def check_effects_row(v, dilation, contraction, asynchrony, tol=1e-11):
    """Floats from a sweep row (or from exact values) against sqrt(1 - v^2)."""
    truth = math.sqrt(1 - float(v) ** 2)
    require(abs(dilation - truth) <= tol, "dilation %r at v=%s, expected %r" % (dilation, v, truth))
    require(abs(contraction - truth) <= tol, "contraction %r at v=%s" % (contraction, v))
    require(abs(asynchrony - float(v)) <= tol, "asynchrony %r at v=%s" % (asynchrony, v))


def check_effects_exact(v, dilation_sq, contraction_eq, asynchrony):
    """dilation^2 = 1 - v^2 exactly; contraction equals dilation; the
    asynchrony of a unit ship is v."""
    v = F(v)
    require(dilation_sq == 1 - v * v, "dilation^2 = %s at v=%s, expected %s" % (
        dilation_sq, v, 1 - v * v))
    require(contraction_eq, "contraction differs from dilation at v=%s" % v)
    require(asynchrony == v, "asynchrony %s at v=%s" % (asynchrony, v))


def twin_expected(legs):
    """(home, traveler) proper times for a home twin at rest and a
    traveler whose legs are (duration, speed) with rational gammas."""
    home = sum(F(d) for d, _ in legs)
    trav = F(0)
    for d, s in legs:
        root = frac_sqrt(1 - F(s) ** 2)
        require(root is not None, "leg speed %s has an irrational gamma" % s)
        trav += F(d) * root
    return home, trav


def check_twin(home, traveler, expected_home, expected_traveler, what="twin"):
    require(home == expected_home, "%s: home %s, expected %s" % (what, home, expected_home))
    require(traveler == expected_traveler, "%s: traveler %s, expected %s" % (
        what, traveler, expected_traveler))
    require(traveler < home, "%s: the traveler must age less" % what)


def check_galaxy(traveler, home_sq, home_float, distance=200, years=1):
    require(traveler == 2 * years, "galaxy trip: traveler %s, expected %s" % (traveler, 2 * years))
    expected_sq = 4 * (distance ** 2 + years ** 2)
    require(home_sq == expected_sq, "galaxy trip: home^2 %s, expected %s" % (home_sq, expected_sq))
    require(abs(home_float - 2 * math.sqrt(distance ** 2 + years ** 2)) <= 1e-9,
            "galaxy trip: home %r" % home_float)


def check_gtd(ratio, g, h):
    expected = 1 + F(g) * F(h)
    require(ratio == expected, "gtd %s for g=%s h=%s, expected %s" % (ratio, g, h, expected))


def check_noftl(outcome, y4, t, expected_y4, expected_t):
    require(outcome == "Holds", "NoFTL verdict %s, expected Holds" % outcome)
    require(y4 == expected_y4, "body arrives at %s, expected %s" % (y4, expected_y4))
    require(t == expected_t, "photon arrives at %s, expected %s" % (t, expected_t))


def check_lorentz_exact(lin):
    require(mat_mul(transpose(lin), mat_mul(ETA, lin)) == tuple(
        tuple(F(c) for c in r) for r in ETA), "L^T eta L != eta")


def check_lorentz_float(lin, tol=1e-12):
    for i in range(4):
        for j in range(4):
            s = sum(lin[k][i] * ETA[k][k] * lin[k][j] for k in range(4))
            require(abs(s - ETA[i][j]) <= tol, "L^T eta L differs from eta at (%d,%d): %r" % (i, j, s))


def check_mu_pairs(pairs, exact):
    """pairs: (x, y, wx, wy, program_says_equal).  Exact pairs compare
    Fractions; the others compare floats to a relative 1e-9."""
    for x, y, wx, wy, claimed in pairs:
        require(claimed is True, "the program reports mu(x, y) != mu(wx, wy)")
        if exact:
            require(mu(x, y) == mu(wx, wy), "mu changed under the map at %s, %s" % (x, y))
        else:
            a, b = float(mu(x, y)), mu_float(wx, wy)
            require(abs(a - b) <= 1e-9 * max(1.0, abs(a)), "mu %r vs %r under the map" % (a, b))


def rindler_to_minkowski(p):
    x1, x2, x3, x4 = (float(c) for c in p)
    return (x1 * math.cosh(x4), x2, x3, x1 * math.sinh(x4))


def check_straight(lambdas, points, to_flat=None, tol=1e-6, what="geodesic"):
    """The points, mapped to Minkowski coordinates, lie on X0 + lambda*B."""
    require(len(points) >= 3, "%s: only %d points" % (what, len(points)))
    mapped = [to_flat(p) if to_flat else tuple(float(c) for c in p) for p in points]
    span = float(lambdas[-1]) - float(lambdas[0])
    b = [(mapped[-1][k] - mapped[0][k]) / span for k in range(4)]
    worst = 0.0
    for lam, m in zip(lambdas, mapped):
        dl = float(lam) - float(lambdas[0])
        worst = max(worst, max(abs(m[k] - (mapped[0][k] + dl * b[k])) for k in range(4)))
    require(worst <= tol, "%s bends by %.3g (tolerance %g)" % (what, worst, tol))


def check_flat_line(lambdas, points, x0, u0, tol=1e-9, what="flat geodesic"):
    worst = 0.0
    for lam, p in zip(lambdas, points):
        worst = max(worst, max(abs(float(p[k]) - (float(x0[k]) + float(lam) * float(u0[k])))
                               for k in range(4)))
    require(worst <= tol, "%s leaves x0 + lambda*u0 by %.3g" % (what, worst))


# The program integrates to a tolerance of 1e-10 and reports widths below
# 1e-9; a wider interval means it stopped refining early.
PROPER_TIME_MAX_WIDTH = 1e-8


def check_proper_time(midpoint, width, g, t):
    truth = math.asinh(g * t) / g
    require(width <= PROPER_TIME_MAX_WIDTH, "proper time width %.3g exceeds %g" % (
        width, PROPER_TIME_MAX_WIDTH))
    require(abs(midpoint - truth) <= width,
            "proper time %r is %.3g from asinh(g t)/g = %r, width %.3g" % (
                midpoint, abs(midpoint - truth), truth, width))


def check_geodesic_csv(text, what="geodesic csv"):
    rows = text.strip().splitlines()
    require(rows and rows[0] == "lambda,x1,x2,x3,x4,u1,u2,u3,u4", "%s: bad header" % what)
    lambdas, points = [], []
    for row in rows[1:]:
        vals = [float(c) for c in row.split(",")]
        require(len(vals) == 9, "%s: row with %d fields" % (what, len(vals)))
        lambdas.append(vals[0])
        points.append(vals[1:5])
    return lambdas, points


def check_parse_roundtrip(source, printed, reparsed):
    squash = lambda s: "".join(s.split())
    require(squash(printed) == squash(source), "parse printed %r for %r" % (printed, source))
    require(printed == reparsed, "printing is not a fixed point: %r vs %r" % (printed, reparsed))


def check_usage_error(code, stderr, what):
    """Malformed input must exit 64 or 65 with a one-line message."""
    require(code in (64, 65), "%s: exit %s, expected 64 or 65" % (what, code))
    lines = stderr.strip().splitlines()
    require(len(lines) == 1 and "Traceback" not in stderr,
            "%s: expected a one-line message, got %d lines" % (what, len(lines)))
