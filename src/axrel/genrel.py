"""Chart-level checking of the localized axioms and metric geodesics.

A MetricChart is a single coordinate chart: an open box domain, a
callable metric with signature (+,+,+,-) (space-plus, matching the
squared-interval convention used everywhere in this package), and a
declared smoothness order.  There is no atlas machinery: completeness
with respect to Lorentzian manifolds is a statement about the theory,
and the chart layer is its desk-scale witness.

The localized axioms (AxSelf-, AxPh-, AxEv-, AxSymt-) are float checks
that carry their tolerance; the flat-chart cases cross-validate against
the exact special-relativistic results.  A chart file's AxDiff_n is
decided exactly: its observers are static, so every transform between
two of them is a translation, smooth of every order.  Christoffel
symbols come from central finite differences with a fixed step of 1e-4;
the integrator is fixed-step RK4 with halving-based error control, fully
deterministic.  `check_axdiff`, the float AxDiff_n probe for a library
caller's general transform, and observer tangents use the finite
differences of `axrel.numeric`, shared with the accelerated-observer
layer.  Stencil steps, tolerances and sample counts are the module
constants below, not parameters; a geodesic's RK4 step and span are.

Metrics are evaluated in stacks: `MetricChart.metrics_at(points)` checks
shape and symmetry once for the whole (n, 4, 4) stack.  Each Christoffel
evaluation is one stack of nine (the point and its eight stencil
neighbours), and a geodesic's drift check is one stack over all of its
points.  The charts built here (`flat_chart`, `rindler_chart` and every
chart `parse_chart_file` reads) evaluate an (n, 4) float array of points
in one vectorised call, bit for bit equal to calling g at each point:
numpy's + - * / and sqrt round as the scalar operations do, but its array
power does not always round as scalar ``**`` does, so a chart file's
``^k`` runs element by element with scalar ``**``.  A stack whose
evaluation meets a floating-point exception (a zero divisor, an overflow,
sqrt of a negative) is evaluated point by point instead, which gives the
per-point values, warnings or error.  Single points (`metric_at`) and a
library caller's `MetricChart(g)` call g once per point.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

# The exact layers load before numpy.  Compiling `ind` and the parser,
# interval and model layers it imports (a run without bytecode caches)
# allocates memory that is freed again; before numpy loads, numpy reuses
# that memory, after it the two peaks add up.
from .certify import _certified_axiom
from .exprs import compile_float, parse_expression
from .field import ER
from .model import (
    DifferentiableChart, SmoothNumeric, Structure, _integer, declaration_lines, read_domain,
)
from .numeric import (
    central_difference, one_sided_jump, require_positive_finite, velocity_at,
)
from .ind import check_ind_battery
from .record import MutableRecord, Record, set_field
from .syntax.corpus import ind_battery
from .verdict import Verdict, combine_verdicts

import numpy as np

__all__ = [
    "MetricChart", "GeodesicResult", "DegenerateMetric", "NotTimelike",
    "NoMeeting", "LeftDomain", "normal_frame", "check_axph_minus",
    "check_axsymt_minus", "check_axself_minus", "check_axev_minus",
    "check_axdiff", "geodesic", "flat_chart", "rindler_chart",
    "parse_chart_file", "load_chart_file", "ChartSuiteConfig",
    "check_chart_theory", "static_observer_chart", "FloatBox",
    "rindler_to_minkowski", "geodesic_csv",
]

# The float checks' fixed numerics.  AxSelf-, AxPh-, AxSymt- and AxEv-
# use and report _PROBE_TOL.
_PROBE_TOL = 1e-9
_PIVOT_TOL = 1e-12                # normal_frame: smallest usable |g(b, b)|
_N_DIRECTIONS = 16                # check_axph_minus: spatial directions
_SAMPLES_PER_AXIS = 3             # FloatBox.sample_points, check_axev_minus
_AXDIFF_STEP = 1e-2               # check_axdiff: coarsest stencil step
_AXDIFF_TOL = 1e-6                # check_axdiff: divergence tolerance
_DIFF_STEP = 1e-4                 # geodesic: Christoffel stencil step
_HALVING_TOL = 1e-8               # geodesic: end-point change that ends halving


class DegenerateMetric(ValueError):
    pass


class NotTimelike(ValueError):
    pass


class NoMeeting(ValueError):
    pass


class LeftDomain(ValueError):
    pass


class FloatBox(Record):
    """Axis-aligned float box; +-inf for unbounded axes.  closed_faces
    marks faces whose boundary points are (wrongly, for AxEv-) included."""

    __slots__ = _fields = ("lo", "hi", "closed_faces")

    def __init__(self, lo: tuple = (-math.inf,) * 4, hi: tuple = (math.inf,) * 4,
                 closed_faces: tuple = ()):
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "closed_faces", closed_faces)  # e.g. ((axis, "hi"), ...)

    def contains(self, p) -> bool:
        for i in range(4):
            if p[i] < self.lo[i] or p[i] > self.hi[i]:
                return False
        return True

    def sample_points(self):
        axes = []
        for i in range(4):
            lo = self.lo[i] if math.isfinite(self.lo[i]) else -2.0
            hi = self.hi[i] if math.isfinite(self.hi[i]) else 2.0
            pad = (hi - lo) / (_SAMPLES_PER_AXIS + 1)
            axes.append([lo + pad * (k + 1) for k in range(_SAMPLES_PER_AXIS)])
        for i1 in axes[0]:
            for i2 in axes[1][:1]:
                for i3 in axes[2][:1]:
                    for i4 in axes[3]:
                        yield (i1, i2, i3, i4)


def _symmetric(m: np.ndarray) -> bool:
    """np.allclose(m, m^T, atol=1e-12) for a stack of square matrices.

    An exactly symmetric stack answers at once; a finite one takes
    allclose's comparison without its per-call set-up; NaN and +-inf
    entries fall back to allclose itself."""
    mt = np.swapaxes(m, -1, -2)
    if (m == mt).all():
        return True
    if np.isfinite(m).all():
        return bool((np.abs(m - mt) <= 1e-12 + 1e-5 * np.abs(mt)).all())
    return bool(np.allclose(m, mt, atol=1e-12))


class _StackedMetric:
    """The metric g(p) of a chart built in this module, with `stack`: the
    same metric over every row of an (n, 4) float array in one call, bit
    for bit np.asarray([g(tuple(p)) for p in points]).

    stack_at runs `stack` with numpy's divide, overflow and invalid errors
    raised, and answers None on those or on any arithmetic or domain
    error, so that the caller evaluates the points one by one instead."""

    __slots__ = ("point", "stack")

    def __init__(self, point: Callable, stack: Callable):
        self.point = point
        self.stack = stack

    def __call__(self, p):
        return self.point(p)

    def stack_at(self, points: np.ndarray) -> Optional[np.ndarray]:
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                return self.stack(points)
        except (ArithmeticError, ValueError):
            return None


class MetricChart(MutableRecord):
    """g: Coord4 floats -> 4x4 numpy array, symmetric, signature (+,+,+,-).

    metrics_at evaluates g at a sequence of points and checks shape and
    symmetry once for the whole stack; metric_at is its one-point case.
    For the charts built in this module (flat_chart, rindler_chart and
    parse_chart_file), an ndarray of points is evaluated in one vectorised
    call with the same bytes; a chart-file ``^k`` runs element by element
    with scalar ``**``, because numpy's array power can round differently.
    Single points, and the g of a library caller's MetricChart(g), are
    evaluated one point at a time."""

    __slots__ = _fields = ("g", "domain", "order", "name")

    def __init__(self, g: Callable, domain: FloatBox = FloatBox(), order: int = 3,
                 name: str = "chart"):
        self.g = g
        self.domain = domain
        self.order = order
        self.name = name

    def metrics_at(self, points) -> np.ndarray:
        g, m = self.g, None
        if type(g) is _StackedMetric and type(points) is np.ndarray and \
                points.dtype == float and points.shape[1:] == (4,) and len(points):
            m = g.stack_at(points)
        if m is None:
            values = [g(tuple(p)) for p in points]
            try:
                m = np.asarray(values, dtype=float)
            except ValueError:  # ragged: g's shape varies by point
                raise DegenerateMetric("metric must be a 4x4 matrix at every point") from None
        if m.shape[1:] != (4, 4) or not _symmetric(m):
            raise DegenerateMetric("metric must be a symmetric 4x4 matrix")
        return 0.5 * (m + np.swapaxes(m, 1, 2))

    def metric_at(self, p) -> np.ndarray:
        return self.metrics_at([p])[0]


def flat_chart() -> MetricChart:
    eta = np.diag([1.0, 1.0, 1.0, -1.0])
    g = _StackedMetric(lambda p: eta, lambda points: eta[None].repeat(len(points), 0))
    return MetricChart(g, FloatBox(), order=9, name="flat")


def rindler_chart(lo: float = 0.1, hi: float = 10.0) -> MetricChart:
    """ds^2 = dx1^2 + dx2^2 + dx3^2 - x1^2 dx4^2 on x1 in (lo, hi)."""

    def g(p):
        return np.diag([1.0, 1.0, 1.0, -p[0] * p[0]])

    def stack(points):
        m = np.zeros((len(points), 4, 4))
        m[:, 0, 0] = m[:, 1, 1] = m[:, 2, 2] = 1.0
        x = points[:, 0]
        m[:, 3, 3] = -x * x
        return m

    box = FloatBox(lo=(lo, -math.inf, -math.inf, -math.inf),
                   hi=(hi, math.inf, math.inf, math.inf))
    return MetricChart(_StackedMetric(g, stack), box, order=9, name="rindler")


def rindler_to_minkowski(p) -> tuple:
    """Closed-form chart map (x, y, z, t) -> (x cosh t, y, z, x sinh t)."""
    x, y, z, t = p
    return (x * math.cosh(t), y, z, x * math.sinh(t))


# ---------------------------------------------------------------------------
# Normal frames.


def normal_frame(chart: MetricChart, p) -> np.ndarray:
    """M with M^T g(p) M = eta, via form-orthogonalization with a fixed
    pivot rule (largest remaining |g(b,b)|, ties to the lowest index);
    deterministic.  Raises DegenerateMetric when the signature is not
    (+,+,+,-)."""
    if not chart.domain.contains(p):
        raise LeftDomain("point outside the chart domain")
    G = chart.metric_at(p)

    def form(u, v):
        return float(u @ G @ v)

    basis = [np.eye(4)[i].copy() for i in range(4)]
    columns, signs = [], []
    for _ in range(4):
        mags = [abs(form(b, b)) for b in basis]
        best = max(range(len(basis)), key=lambda i: (mags[i], -i))
        if mags[best] <= _PIVOT_TOL:
            raise DegenerateMetric("vanishing pivot: metric is degenerate at %r" % (tuple(p),))
        b = basis.pop(best)
        q = form(b, b)
        u = b / math.sqrt(abs(q))
        s = 1.0 if q > 0 else -1.0
        basis = [v - (form(v, u) / s) * u for v in basis]
        columns.append(u)
        signs.append(s)
    if sorted(signs) != [-1.0, 1.0, 1.0, 1.0]:
        raise DegenerateMetric("signature %s is not (+,+,+,-)" % (signs,))
    order = [i for i, s in enumerate(signs) if s > 0] + [signs.index(-1.0)]
    return np.column_stack([columns[i] for i in order])


# ---------------------------------------------------------------------------
# Localized axioms.


def _spatial_directions(n: int):
    # Deterministic unit directions: axes plus a golden-angle spiral.
    dirs = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
            (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0)]
    golden = math.pi * (3.0 - math.sqrt(5.0))
    for k in range(max(0, n - len(dirs))):
        z = 1.0 - 2.0 * (k + 0.5) / max(1, n - len(dirs))
        r = math.sqrt(max(0.0, 1.0 - z * z))
        th = golden * k
        dirs.append((r * math.cos(th), r * math.sin(th), z))
    return dirs[:n]


def check_axph_minus(chart: MetricChart, p) -> Verdict:
    """Null directions of g(p) have unit coordinate speed in the normal
    frame, and every sampled spatial direction extends to a null vector."""
    m_inv = np.linalg.inv(normal_frame(chart, p))
    G = chart.metric_at(p)
    worst = 0.0
    for d in _spatial_directions(_N_DIRECTIONS):
        # g(u,u) = 0 with u = (d, tau): quadratic in tau.
        a = G[3, 3]
        b = sum(G[i, 3] * d[i] for i in range(3))
        c = sum(G[i, j] * d[i] * d[j] for i in range(3) for j in range(3))
        disc = b * b - a * c
        if disc <= 0 or abs(a) < 1e-15:
            return Verdict.fails(
                evidence={"direction": d, "reason": "no real null extension"},
                method="sampled", tolerance=_PROBE_TOL)
        for tau in ((-b + math.sqrt(disc)) / a, (-b - math.sqrt(disc)) / a):
            if tau == 0.0:
                return Verdict.fails(
                    evidence={"direction": d, "reason": "degenerate null direction"},
                    method="sampled", tolerance=_PROBE_TOL)
            u = np.array([d[0], d[1], d[2], tau])
            hat = m_inv @ u
            space = math.sqrt(hat[0] ** 2 + hat[1] ** 2 + hat[2] ** 2)
            speed_err = abs(space - abs(hat[3])) / max(abs(hat[3]), 1e-300)
            worst = max(worst, speed_err)
            if speed_err > _PROBE_TOL:
                return Verdict.fails(
                    evidence={"direction": d, "speed_error": speed_err},
                    method="sampled", tolerance=_PROBE_TOL)
    return Verdict.holds(method="sampled",
                         evidence={"max_speed_error": worst,
                                   "directions": _N_DIRECTIONS},
                         tolerance=_PROBE_TOL)


def _tangent_of(worldline, t: float):
    if not isinstance(worldline, SmoothNumeric):
        raise TypeError("expected a SmoothNumeric worldline in chart coordinates")
    v = velocity_at(worldline, t)
    return np.array([v[0], v[1], v[2], 1.0])


def check_axsymt_minus(chart: MetricChart, obs1: SmoothNumeric, obs2: SmoothNumeric,
                       t_meet: float, rate_fn: Optional[Callable] = None) -> Verdict:
    """Meeting observers see each other's clock rates symmetrically.

    The rate at which observer i sees j's clock tick at the meeting is
    computed from the metric's orthogonal projection of j's unit tangent
    onto i's local time axis; `rate_fn(g, u_i, u_j)` may be injected to
    exercise the Fails path with a deliberately asymmetric oracle.
    """
    p1, p2 = obs1.point_at(t_meet), obs2.point_at(t_meet)
    if max(abs(a - b) for a, b in zip(p1[:3], p2[:3])) > 1e-9:
        raise NoMeeting("worldlines do not meet at t=%g" % t_meet)
    G = chart.metric_at(p1)
    tangents = []
    for obs in (obs1, obs2):
        u = _tangent_of(obs, t_meet)
        q = float(u @ G @ u)
        if q >= 0:
            raise NotTimelike("tangent is not timelike (g(u,u)=%g)" % q)
        tangents.append(u / math.sqrt(-q))
    n1, n2 = tangents
    if rate_fn is None:
        def rate_fn(g, ui, uj):
            return 1.0 / float(-(ui @ g @ uj))
    r12 = rate_fn(G, n1, n2)
    r21 = rate_fn(G, n2, n1)
    diff = abs(r12 - r21)
    if diff > _PROBE_TOL:
        return Verdict.fails(evidence={"rate_1_sees_2": r12, "rate_2_sees_1": r21},
                             method="sampled", tolerance=_PROBE_TOL)
    return Verdict.holds(method="sampled",
                         evidence={"rate_1_sees_2": r12, "rate_2_sees_1": r21},
                         tolerance=_PROBE_TOL)


def static_observer_chart(position) -> DifferentiableChart:
    """Observer chart for a worldline at fixed spatial chart coordinates:
    translate space so the observer rides its own time axis."""
    a = tuple(float(c) for c in position[:3])

    def forward(p):
        return (p[0] - a[0], p[1] - a[1], p[2] - a[2], p[3])

    def inverse(q):
        return (q[0] + a[0], q[1] + a[1], q[2] + a[2], q[3])

    return DifferentiableChart(forward, inverse, order=99)


def check_axself_minus(observer_chart: DifferentiableChart, worldline: SmoothNumeric,
                       sample_times: Sequence[float]) -> Verdict:
    """Every sampled self-coordinatized point has zero space part."""
    worst = 0.0
    for t in sample_times:
        p = worldline.point_at(t)
        q = observer_chart.apply(p)
        off = max(abs(q[i]) for i in range(3))
        worst = max(worst, off)
        if off > _PROBE_TOL:
            return Verdict.fails(evidence={"t": t, "offset": off},
                                 method="sampled", tolerance=_PROBE_TOL)
    return Verdict.holds(method="sampled", evidence={"max_offset": worst},
                         tolerance=_PROBE_TOL)


def check_axev_minus(domains: dict, worldlines: dict) -> Verdict:
    """Openness of chart domains plus mutual-observation closure.

    domains: observer name -> FloatBox; worldlines: name -> SmoothNumeric
    (chart coordinates).  A box, however thin, is open unless it has a
    closed face: the first sample point moved onto that face fails.  Closure
    requires every sampled point of o's worldline inside o''s domain to lie
    in o's own domain as well.
    """
    for name, box in domains.items():
        for axis, side in box.closed_faces:
            p = list(next(box.sample_points()))
            p[axis] = box.hi[axis] if side == "hi" else box.lo[axis]
            if box.contains(p):
                return Verdict.fails(
                    evidence={"observer": name, "point": tuple(p),
                              "reason": "no surrounding coordinate ball in the domain"},
                    method="sampled", tolerance=_PROBE_TOL)
    names = sorted(worldlines)
    for o in names:
        for o2 in names:
            if o == o2:
                continue
            w = worldlines[o]
            for k in range(_SAMPLES_PER_AXIS):
                t = w.t_min + (w.t_max - w.t_min) * (k + 1) / (_SAMPLES_PER_AXIS + 1)
                p = w.point_at(t)
                if domains[o2].contains(p) and not domains[o].contains(p):
                    return Verdict.fails(
                        evidence={"observer": o, "seen_by": o2, "point": tuple(p)},
                        method="sampled", tolerance=_PROBE_TOL)
    return Verdict.holds(method="sampled", tolerance=_PROBE_TOL)


def check_axdiff(transform: Callable, n: int, probe_points: Sequence,
                 declared_order: int) -> Verdict:
    """Smoke test of n-times differentiability of a worldview transformation.

    The declared order is trusted metadata; the probe checks that k-th
    one-sided difference quotients agree (k = 1) and that iterated central
    difference quotients stabilize under halving (k <= n), up to the
    float rounding of the finest stencil, which grows as 2^k eps / h^k
    times the largest |f| on the finest stencils of orders up to n.
    Returns Unknown when the declared order is below n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    h0, tol = _AXDIFF_STEP, _AXDIFF_TOL
    if declared_order < n:
        return Verdict.unknown(evidence={"note": "declared order %d < n=%d"
                                         % (declared_order, n)})
    directions = [np.eye(4)[i] for i in range(4)]
    f = lambda x: np.asarray(transform(tuple(x)), dtype=float)
    for p in probe_points:
        p = np.asarray(p, dtype=float)
        for d in directions:
            # first order: one-sided quotients must agree
            jump = one_sided_jump(f, p, h0, d)
            if jump > math.sqrt(tol) + 10 * h0:
                return Verdict.fails(
                    evidence={"point": tuple(p), "direction": tuple(d), "jump": jump},
                    method="sampled", tolerance=tol)
            # Largest |f| on the finest (step h0/4) stencils of orders 1..n:
            # their points are p + (m/2)(h0/4)d for |m| <= n, p at m = 0.
            finest = [p + (m / 2.0) * (h0 / 4) * d for m in range(-n, n + 1)]
            f_max = max(np.max(np.abs(f(x))) for x in finest)
            for k in range(1, n + 1):
                est_h = central_difference(f, p, k, h0, d)
                est_h2 = central_difference(f, p, k, h0 / 2, d)
                est_h4 = central_difference(f, p, k, h0 / 4, d)
                e1 = np.max(np.abs(est_h - est_h2))
                e2 = np.max(np.abs(est_h2 - est_h4))
                # Float rounding floor of the finest stencil: its k-th
                # difference coefficients sum to 2^k in absolute value.
                rounding = 2 ** k * np.finfo(float).eps * f_max / (h0 / 4) ** k
                if e2 > 0.75 * e1 + tol * max(1.0, np.max(np.abs(est_h4))) + rounding:
                    return Verdict.fails(
                        evidence={"point": tuple(p), "order": k,
                                  "divergence": float(e2)},
                        method="sampled", tolerance=tol)
    return Verdict.holds(method="sampled", tolerance=tol)


# ---------------------------------------------------------------------------
# Geodesics.


class GeodesicResult(MutableRecord):
    """Sampled geodesic with conservation diagnostics.

    drift_flagged is true when the g(u,u) drift exceeds the configured
    tolerance; consumers must not treat such a curve as trustworthy.
    """

    __slots__ = _fields = ("lambdas", "points", "tangents", "conservation_drift",
                           "drift_tolerance", "step", "truncated", "worldline")

    def __init__(self, lambdas: np.ndarray, points: np.ndarray, tangents: np.ndarray,
                 conservation_drift: float, drift_tolerance: float,
                 step: float, truncated: bool, worldline: Optional[SmoothNumeric] = None):
        self.lambdas = lambdas
        self.points = points  # shape (n, 4)
        self.tangents = tangents  # shape (n, 4)
        self.conservation_drift = conservation_drift
        self.drift_tolerance = drift_tolerance
        self.step = step
        self.truncated = truncated
        self.worldline = worldline

    drift_flagged = property(lambda self: self.conservation_drift > self.drift_tolerance)


def _stencil(h: float) -> np.ndarray:
    """Offsets of the Christoffel stencil: 0, then +h e_c, then -h e_c for
    c = 0..3.  Row 0 and the -h rows hold -0.0 off their axis, so x + them
    keeps a -0.0 coordinate, as x and x - h e_c do."""
    steps = h * np.eye(4)
    return np.concatenate([np.full((1, 4), -0.0), steps, -steps])


def _christoffels(chart: MetricChart, x, h: float,
                  offsets: Optional[np.ndarray] = None) -> np.ndarray:
    """Gamma[a, b, c] at x from central differences of step h; `offsets`
    is _stencil(h), which a caller may build once for many points."""
    # One stack: x, then x + h e_c and x - h e_c for c = 0..3.
    ms = chart.metrics_at(np.asarray(x) + (_stencil(h) if offsets is None else offsets))
    G = ms[0]
    dG = (ms[1:5] - ms[5:9]) / (2 * h)
    G_inv = np.linalg.inv(G)
    # t[d, b, c] = dG[b][d, c] + dG[c][d, b] - dG[d][b, c] and
    # p[a, d, b, c] = G_inv[a, d] t[d, b, c].  The sum over d runs in index
    # order from 0, so every entry rounds as a scalar sum would.
    t = np.transpose(dG, (1, 0, 2)) + np.transpose(dG, (1, 2, 0)) - dG
    p = G_inv[:, :, None, None] * t
    return 0.5 * ((((0 + p[:, 0]) + p[:, 1]) + p[:, 2]) + p[:, 3])


def geodesic(chart: MetricChart, x0, u0, span: float, step: float = 0.01,
             max_halvings: int = 6, drift_tolerance: float = 1e-6) -> GeodesicResult:
    """Integrate the geodesic equation from (x0, u0) for the given affine
    span.  u0 must be timelike; the curve truncates (flagged) if it
    leaves the chart domain.  Fixed-step RK4 with halving-based error
    control; deterministic."""
    require_positive_finite("geodesic step", step)
    require_positive_finite("geodesic span", span)
    x0 = np.asarray([float(c) for c in x0], dtype=float)
    u0 = np.asarray([float(c) for c in u0], dtype=float)
    if not chart.domain.contains(x0):
        raise LeftDomain("initial point outside the chart domain")
    q_init = float(u0 @ chart.metric_at(x0) @ u0)
    if q_init >= 0:
        raise NotTimelike("initial tangent has g(u,u) = %g >= 0" % q_init)
    offsets = _stencil(_DIFF_STEP)

    def integrate(h: float):
        n = max(2, int(round(span / h)))
        xs = [x0.copy()]
        us = [u0.copy()]
        lam = [0.0]
        truncated = False

        def rhs(state):
            x, u = state[:4], state[4:]
            gamma = _christoffels(chart, x, _DIFF_STEP, offsets)
            du = -np.einsum("abc,b,c->a", gamma, u, u)
            return np.concatenate([u, du])

        state = np.concatenate([x0, u0])
        for i in range(n):
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * h * k1)
            k3 = rhs(state + 0.5 * h * k2)
            k4 = rhs(state + h * k3)
            state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not chart.domain.contains(state[:4]):
                truncated = True
                break
            xs.append(state[:4].copy())
            us.append(state[4:].copy())
            lam.append((i + 1) * h)
        return np.array(lam), np.array(xs), np.array(us), truncated

    h = step
    lam, xs, us, truncated = integrate(h)
    for _ in range(max_halvings):
        lam2, xs2, us2, trunc2 = integrate(h / 2)
        if truncated or trunc2:
            break
        if np.max(np.abs(xs2[-1] - xs[-1])) <= _HALVING_TOL:
            lam, xs, us, truncated = lam2, xs2, us2, trunc2
            h = h / 2
            break
        lam, xs, us, truncated = lam2, xs2, us2, trunc2
        h = h / 2
    ms = chart.metrics_at(xs)
    drift = max(abs(float(us[i] @ ms[i] @ us[i]) - q_init) for i in range(len(xs)))
    worldline = None
    t_col = xs[:, 3]
    if np.all(np.diff(t_col) > 0):
        def pos(t: float):
            return (float(np.interp(t, t_col, xs[:, 0])),
                    float(np.interp(t, t_col, xs[:, 1])),
                    float(np.interp(t, t_col, xs[:, 2])))

        worldline = SmoothNumeric(pos, order=chart.order,
                                  t_min=float(t_col[0]), t_max=float(t_col[-1]))
    return GeodesicResult(lam, xs, us, drift, drift_tolerance, h, truncated, worldline)


def geodesic_csv(result: GeodesicResult) -> str:
    rows = ["lambda,x1,x2,x3,x4,u1,u2,u3,u4"]
    for lam, x, u in zip(result.lambdas, result.points, result.tangents):
        rows.append(",".join("%.12g" % v for v in
                             [lam, x[0], x[1], x[2], x[3], u[0], u[1], u[2], u[3]]))
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# Chart files and the chart-level theory suite.


class ChartSuiteConfig(MutableRecord):
    __slots__ = _fields = ("chart", "observers", "meets")

    def __init__(self, chart: MetricChart, observers: dict, meets: list):
        self.chart = chart  # its order is the file's `order` line
        self.observers = observers  # name -> static position (3 floats)
        self.meets = meets  # (name_a, name_b, point4)


# The chart line kinds, for `declaration_lines`.
_CHART_FORMAT = ("chart line", {
    "chart": ("NAME", 0, False), "order": ("N", 0, False), "domain": ("AXIS LO HI", 1, False),
    "g": (None, 2, False), "worldline": ("NAME X1 X2 X3", None, True),
    "meet": ("NAME NAME X1 X2 X3 X4", None, False),
})


_COORDS = ("x1", "x2", "x3", "x4")


def _sqrt(a):
    """A chart entry's sqrt: math.sqrt of a number, np.sqrt of an array."""
    return np.sqrt(a) if type(a) is np.ndarray else math.sqrt(a)


def _power(a, k: int):
    """A chart entry's a^k: scalar ``**``, element by element on an array,
    where numpy's array power can round differently from the scalar one."""
    if type(a) is np.ndarray:
        return np.array([v ** k for v in a.tolist()])
    return a ** k


def parse_chart_file(text: str) -> ChartSuiteConfig:
    """Chart file grammar (one declaration per line)::

        chart NAME
        order N
        domain AXIS LO HI          # as in a model file, without `closed`
        g I J = EXPR               # symmetric; unset entries are 0
        worldline NAME X1 X2 X3    # static observer position (literals)
        meet NAME NAME X1 X2 X3 X4

    A malformed or repeated line raises a ValueError that names its line.
    """
    name, order, lo, hi = "chart", 3, [-math.inf] * 4, [math.inf] * 4
    entries: dict = {}  # (i, j) with i <= j -> compiled entry
    observers, meets = {}, []
    for head, args, numbered in declaration_lines(text, _CHART_FORMAT):
        with numbered:
            if head == "chart":
                name = args[0]
            elif head == "order":
                order = _integer(args[0])
            elif head == "domain":
                axis, iv = read_domain(args)
                lo[axis] = -math.inf if iv.lo is None else float(iv.lo)
                hi[axis] = math.inf if iv.hi is None else float(iv.hi)
                if not lo[axis] < hi[axis]:  # an open box whose float ends meet
                    raise ValueError("domain is empty")
            elif head == "g":
                if len(args) < 4 or args[2] != "=":
                    raise ValueError("metric entry must read 'g I J = EXPR'")
                key = tuple(sorted((_chart_index(args[0]), _chart_index(args[1]))))
                expr = parse_expression(" ".join(args[3:]), _COORDS)
                entries[key] = compile_float(expr, _COORDS, sqrt=_sqrt, power=_power)
            elif head == "worldline":
                observers[args[0]] = tuple(float(ER(w)) for w in args[1:])
            else:  # meet
                meets.append((args[0], args[1], tuple(float(ER(w)) for w in args[2:])))

    def g(p):
        m = np.zeros((4, 4))
        for (i, j), fn in entries.items():
            m[i, j] = m[j, i] = fn(p[0], p[1], p[2], p[3])
        return m

    def stack(points):
        m = np.zeros((len(points), 4, 4))
        x1, x2, x3, x4 = points.T
        for (i, j), fn in entries.items():
            m[:, i, j] = m[:, j, i] = fn(x1, x2, x3, x4)
        return m

    box = FloatBox(tuple(lo), tuple(hi))
    chart = MetricChart(_StackedMetric(g, stack), box, order=order, name=name)
    return ChartSuiteConfig(chart, observers, meets)


def _chart_index(word: str) -> int:
    """A 1-based metric index, returned 0-based."""
    if word not in ("1", "2", "3", "4"):
        raise ValueError("index %r must be 1 to 4" % word)
    return int(word) - 1


def load_chart_file(path) -> ChartSuiteConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_chart_file(fh.read())


def _static_worldline(chart: MetricChart, position) -> SmoothNumeric:
    box = chart.domain
    t_lo = box.lo[3] if math.isfinite(box.lo[3]) else -2.0
    t_hi = box.hi[3] if math.isfinite(box.hi[3]) else 2.0
    pos = tuple(position)
    return SmoothNumeric(lambda t: pos, order=chart.order,
                         t_min=t_lo, t_max=t_hi,
                         velocity=lambda t: (0.0, 0.0, 0.0))


def check_chart_theory(config: ChartSuiteConfig, n: Optional[int] = None) -> dict:
    """The GenRel(n) suite on a single chart: localized axioms checked
    numerically; AxField, AxDiff_n and the field-language IND battery
    exactly."""
    n = n if n is not None else config.chart.order
    if n < 1:
        raise ValueError("n must be >= 1")
    chart = config.chart
    # AxField and the field-language IND instances never read a body.
    field = Structure([], {}, photon_family=False, inertial_family=False, name="field")
    out: dict = {"AxField": _certified_axiom(field, "AxField")}
    obs_charts = {nm: static_observer_chart(pos) for nm, pos in config.observers.items()}
    obs_lines = {nm: _static_worldline(chart, pos) for nm, pos in config.observers.items()}
    # AxSelf-
    verdicts = []
    for nm in sorted(obs_charts):
        line = obs_lines[nm]
        times = [line.t_min + (line.t_max - line.t_min) * k / 6 for k in range(1, 6)]
        verdicts.append(check_axself_minus(obs_charts[nm], line, times))
    out["AxSelf-"] = combine_verdicts(verdicts)
    # AxPh-
    out["AxPh-"] = combine_verdicts([check_axph_minus(chart, p)
                                     for p in chart.domain.sample_points()])
    # AxEv-
    domains = {nm: chart.domain for nm in obs_charts} or {"chart": chart.domain}
    out["AxEv-"] = check_axev_minus(domains, obs_lines)
    # AxSymt-
    verdicts = []
    for a, b, point in config.meets:
        w1 = obs_lines.get(a) or _static_worldline(chart, point[:3])
        w2 = obs_lines.get(b) or _static_worldline(chart, point[:3])
        verdicts.append(check_axsymt_minus(chart, w1, w2, point[3]))
    out["AxSymt-"] = combine_verdicts(verdicts) if verdicts else Verdict.unknown(
        evidence={"note": "no meetings declared"})
    # AxDiff_n over worldview transformations between the observers.  Every
    # observer chart here is static_observer_chart(pos), so the transform
    # fb.compose(fa.inverse()) from a's coordinates to b's is p + (a - b)
    # in space and the identity in time: a translation.  An affine map is
    # smooth of every order, so AxDiff_n holds for every n, exactly.
    pairs = len(obs_charts) * (len(obs_charts) - 1)
    if pairs:
        out["AxDiff_%d" % n] = Verdict.holds(
            evidence={"transform": "translation", "pairs": pairs})
    else:
        out["AxDiff_%d" % n] = Verdict.holds(
            method="sampled", evidence={"note": "no observer pairs"})
    out.update(check_ind_battery(field, [inst for inst in ind_battery() if inst.field_language]))
    return out

