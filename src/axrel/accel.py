"""Accelerated observers: proper time, co-moving observers, the Twin
Paradox, and gravitational time dilation on the uniformly accelerated ship.

Proper time is exact (tower field) for piecewise-inertial worldlines and
interval-valued quadrature for numeric ones.  The uniformly accelerated
ship uses the exact Rindler parameterization: the worldline of the clock
at Rindler coordinate x is the hyperbola X(T) = sqrt(x^2 + T^2), its
proper acceleration is 1/x, and clock rates at fixed ship position are
proportional to x.  With the rear of the ship pinned at x = 1/g the
nose sits at 1/g + h and the horizon condition is vacuous for every
h > 0, so the nose/rear rate ratio is (1/g + h)/(1/g), computed (not
pasted) as 1 + g*h.

Checks here are the model-side (semantic) verifications of the twin
paradox and gravitational time dilation; there is no proof-theoretic
derivation anywhere in this package.  Finite differences and the float
boost come from `axrel.numeric`, shared with the chart layer; every
velocity of a numeric worldline, in its proper time, its CSV rows and its
co-moving observer, is `numeric.velocity_at`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .field import ApproxReal, ER, ExactReal, sqrt
from .kinematics import Coord4, PoincareMap, coord4
from .model import (
    Body, DifferentiableChart, InertialLine, PiecewiseInertial,
    SmoothNumeric, Structure, _parse_body, declaration_lines,
)
from .numeric import (
    NotDifferentiable, apply4, float_boost, one_sided_jump, richardson_derivative, velocity_at,
)
from .record import Record, set_field
from .verdict import Verdict

__all__ = [
    "proper_time", "comoving_inertial", "check_axcmv", "twin_paradox",
    "rechart_scenario", "galaxy_trip", "gtd_clock_ratio", "ShipConfig",
    "AcceleratedScenario", "parse_scenario", "serialize_scenario",
    "load_scenario", "hyperbolic_worldline", "rindler_observer_chart",
    "worldline_csv", "tangent_deviation_ladder", "DEFAULT_LADDER",
    "SuperluminalSegment", "NotDifferentiable", "NoReunion", "InvalidConfig",
]


class SuperluminalSegment(ValueError):
    pass


class NoReunion(ValueError):
    pass


class InvalidConfig(ValueError):
    pass


# ---------------------------------------------------------------------------
# Proper time.


def proper_time(w, t0, t1):
    """Proper time along w between coordinate times t0 and t1.

    Exact (ExactReal) for inertial and piecewise-inertial worldlines;
    ApproxReal with reported width for numeric worldlines.
    """
    if w.is_photon:
        raise SuperluminalSegment("photon worldlines accumulate no proper time")
    pieces = w.pieces()
    if pieces is None:
        return _numeric_proper_time(w, float(t0), float(t1))
    return _exact_proper_time(pieces, ER(t0), ER(t1))


def _exact_proper_time(pieces: list, t0: ExactReal, t1: ExactReal) -> ExactReal:
    """The sum over straight pieces of (time on it) * sqrt(1 - v^2): on a
    whole line t1 - t0, negative when t1 < t0; else t_min <= t0 <= t1 <= t_max."""
    start, v, end = pieces[0]
    if end is None:
        return (t1 - t0) * sqrt(1 - sum((c * c for c in v), ER(0)))
    if (t0 - start[3]).sign() < 0 or (t1 - pieces[-1][2]).sign() > 0 or (t1 - t0).sign() < 0:
        raise ValueError("interval outside worldline domain")
    total = ER(0)
    for a, v, end in pieces:
        lo = a[3] if (t0 - a[3]).sign() <= 0 else t0
        hi = end if (t1 - end).sign() >= 0 else t1
        if (hi - lo).sign() <= 0:
            continue
        total = total + (hi - lo) * sqrt(1 - sum((c ** 2 for c in v), ER(0)))
    return total


# Error target of the adaptive Simpson rule behind numeric proper times.
_SIMPSON_TOL = 1e-10


def _numeric_proper_time(w: SmoothNumeric, t0: float, t1: float) -> ApproxReal:
    """The adaptive Simpson value, with half-width four times Simpson's
    error estimate (at least 1e-15 of the value): not an error bound."""
    def integrand(t: float) -> float:
        v = velocity_at(w, t)
        speed2 = sum(c * c for c in v)
        if speed2 >= 1.0:
            raise SuperluminalSegment("speed >= 1 at t=%g" % t)
        return math.sqrt(1.0 - speed2)

    value, err = _adaptive_simpson(integrand, t0, t1, _SIMPSON_TOL)
    return ApproxReal.from_float(value, max(err * 4, 1e-15 * max(1.0, abs(value))))


def _adaptive_simpson(f: Callable, a: float, b: float, tol: float):
    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, tol, depth):
        xm = 0.5 * (x0 + x2)
        lm, rm = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        flm, frm = f(lm), f(rm)
        left = simpson(x0, xm, f0, flm, f1)
        right = simpson(xm, x2, f1, frm, f2)
        delta = left + right - whole
        if depth <= 0 or abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0, abs(delta) / 15.0
        lv, le = recurse(x0, xm, f0, flm, f1, left, tol / 2.0, depth - 1)
        rv, re = recurse(xm, x2, f1, frm, f2, right, tol / 2.0, depth - 1)
        return lv + rv, le + re

    f0, f1, f2 = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, f0, f1, f2)
    return recurse(a, b, f0, f1, f2, whole, tol, 28)


# ---------------------------------------------------------------------------
# Co-moving inertial observers.


def comoving_inertial(w, t):
    """(velocity 3-vector, event Coord4) of the inertial observer tangent
    to w at coordinate time t; exact for exact worldlines, floats for
    numeric ones (numeric.velocity_at, also at a domain edge).  Raises
    NotDifferentiable at piecewise breakpoints.
    """
    if w.is_photon:
        raise TypeError("a photon has no co-moving inertial observer")
    pieces = w.pieces()
    if pieces is None:
        tf = float(t)
        return velocity_at(w, tf), w.point_at(tf)
    t = ER(t)
    ending, starting = w.piece_at(t)
    if ending != starting:
        raise NotDifferentiable("breakpoint at t=%s" % t)
    return pieces[ending][1], w.point_at(t)


def tangent_deviation_ladder(w, t, deltas: Sequence[float]):
    """|w(t+delta) - tangent(t+delta)| for each delta; the o(delta) data
    behind the co-moving checks."""
    velocity, event = comoving_inertial(w, t)
    vf = tuple(float(c) for c in velocity)
    ef = tuple(float(c) for c in event)
    out = []
    for d in deltas:
        p = w.point_at(float(t) + d)
        tangent = tuple(ef[i] + vf[i] * d for i in range(3))
        out.append(max(abs(float(p[i]) - tangent[i]) for i in range(3)))
    return out


# check_axcmv's deltas and the C of its bound residual(delta) <= C * delta^1.5.
DEFAULT_LADDER = tuple(1.0 / 2 ** k for k in range(3, 13))
_RESIDUAL_COEFFICIENT = 1.0


def check_axcmv(s: Structure, o: Body, t) -> Verdict:
    """First-order agreement of o's chart with its tangent inertial chart
    at o's time t: residual(delta) <= delta^1.5 on DEFAULT_LADDER.

    Inertial (affine) charts hold exactly; numeric charts are sampled on
    the ladder.  Raises NotDifferentiable at a worldline kink.
    """
    chart = s.chart_of(o)
    if chart is None:
        raise ValueError("%s is not an observer" % o.id)
    if chart.is_exact:
        return Verdict.holds(evidence={"note": "inertial observer is its own co-moving observer"})
    tf = float(t)
    back = chart.inverse()
    ref_line = lambda u: back.apply((0.0, 0.0, 0.0, u))
    kink = one_sided_jump(ref_line, tf, DEFAULT_LADDER[-1] / 4.0, 1.0)
    if kink > 1e-3:
        raise NotDifferentiable("worldline kink at t=%g (jump %.3g)" % (tf, kink))
    e_ref = ref_line(tf)
    # Velocity in the reference chart: d(space)/d(ref time), both derived
    # along the observer's worldline parameterized by its own chart time.
    dref = richardson_derivative(ref_line, tf, tf - 1.0, tf + 1.0)
    v = tuple(c / dref[3] for c in dref[:3])
    speed2 = sum(c * c for c in v)
    if speed2 >= 1.0:
        raise SuperluminalSegment("observer at or above light speed")
    tangent = float_boost(v)
    directions = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                  (0.6, 0.0, 0.0, 0.8), (0.0, 0.6, 0.8, 0.0)]
    base = chart.apply(e_ref)
    worst = []
    for delta in DEFAULT_LADDER:
        residual = 0.0
        for d in directions:
            x = tuple(e_ref[i] + delta * d[i] for i in range(4))
            chart_img = chart.apply(x)
            rel = tuple(x[i] - e_ref[i] for i in range(4))
            tang_img = apply4(tangent, rel)
            expected = tuple(base[i] + tang_img[i] for i in range(4))
            residual = max(residual, max(abs(a - b) for a, b in zip(chart_img, expected)))
        worst.append(residual)
        if residual > _RESIDUAL_COEFFICIENT * delta ** 1.5:
            return Verdict.fails(
                evidence={"delta": delta, "residual": residual},
                method="sampled", tolerance=_RESIDUAL_COEFFICIENT)
    return Verdict.holds(method="sampled",
                         evidence={"residuals": tuple(worst), "ladder": DEFAULT_LADDER},
                         tolerance=_RESIDUAL_COEFFICIENT)


# ---------------------------------------------------------------------------
# Twin paradox.


class AcceleratedScenario(Record):
    """A home observer, a traveler, and their two meeting events
    (reference-chart coordinates)."""

    __slots__ = _fields = ("name", "home", "traveler", "departure", "reunion", "extra_bodies")

    def __init__(self, name: str, home: Body, traveler: Body, departure: Coord4,
                 reunion: Coord4, extra_bodies: tuple = ()):
        if not home.is_inertial:
            raise InvalidConfig("home twin must be inertial")
        set_field(self, "name", name)
        set_field(self, "home", home)
        set_field(self, "traveler", traveler)
        set_field(self, "departure", departure)
        set_field(self, "reunion", reunion)
        set_field(self, "extra_bodies", extra_bodies)


def twin_paradox(sc: AcceleratedScenario):
    """(tau_home, tau_traveler) between the meeting events; exact for
    piecewise-inertial travelers."""
    for event in (sc.departure, sc.reunion):
        label = "(%s)" % ", ".join(str(c) for c in event)
        if not sc.home.worldline.contains(event):
            raise NoReunion("home twin misses the meeting event %s" % label)
        if not sc.traveler.worldline.contains(event):
            raise NoReunion("traveler misses the meeting event %s" % label)
    t0, t1 = sc.departure[3], sc.reunion[3]
    tau_home = proper_time(sc.home.worldline, t0, t1)
    tau_traveler = proper_time(sc.traveler.worldline, t0, t1)
    return tau_home, tau_traveler


def rechart_scenario(sc: AcceleratedScenario, w: PoincareMap) -> AcceleratedScenario:
    """The same scenario expressed in different inertial coordinates; the
    twin_paradox outputs must be identical (exact worldlines only).

    Every body, the extra ones too, rides its worldline's image under w:
    a Poincare map keeps speeds below 1 below 1 and a photon's speed
    exactly 1."""

    def moved(b: Body) -> Body:
        if b.worldline.pieces() is None:
            raise InvalidConfig("cannot re-chart a numeric worldline exactly")
        return Body(b.id, b.worldline.image(w))

    return AcceleratedScenario(sc.name, moved(sc.home), moved(sc.traveler),
                               w.apply(sc.departure), w.apply(sc.reunion),
                               tuple(moved(b) for b in sc.extra_bodies))


def galaxy_trip(distance, subjective_years_each_way=1):
    """The long-trip numbers: travel `distance` light-years out and back,
    ageing `subjective_years_each_way` per leg.

    Solves L*sqrt(1-v^2)/v = T for v (so each leg takes T years of proper
    time), returning (v, scenario) with exact values; traveler ages 2*T.
    """
    L, T = ER(distance), ER(subjective_years_each_way)
    # v = L / sqrt(L^2 + T^2): then gamma = sqrt(L^2+T^2)/T, leg time L/v.
    v = L / sqrt(L * L + T * T)
    leg = L / v
    knots = (coord4(0, 0, 0, 0),
             (L, ER(0), ER(0), leg),
             (ER(0), ER(0), ER(0), 2 * leg))
    traveler = Body("traveler", PiecewiseInertial(knots))
    home = Body("home", InertialLine(coord4(0, 0, 0, 0), (ER(0), ER(0), ER(0))))
    sc = AcceleratedScenario("galaxy-%s" % distance, home, traveler,
                             coord4(0, 0, 0, 0), (ER(0), ER(0), ER(0), 2 * leg))
    return v, sc


# ---------------------------------------------------------------------------
# Gravitational time dilation on the Rindler ship.


class ShipConfig(Record):
    """Uniformly accelerated ship: rear proper acceleration g (1/s, c=1)
    and proper length h (light-seconds).  The rear rides the hyperbola at
    Rindler coordinate 1/g; any h > 0 keeps the nose inside the wedge, so
    no additional horizon bound applies in this parameterization.
    """

    __slots__ = _fields = ("g", "h")

    def __init__(self, g: ExactReal, h: ExactReal):
        g, h = ER(g), ER(h)
        if g.sign() < 0:
            raise InvalidConfig("proper acceleration must be nonnegative")
        if h.sign() <= 0:
            raise InvalidConfig("proper length must be positive")
        set_field(self, "g", g)
        set_field(self, "h", h)


def gtd_clock_ratio(cfg: ShipConfig) -> ExactReal:
    """Nose-clock rate divided by rear-clock rate; exact.

    Computed from the Rindler geometry (rates are proportional to the
    Rindler spatial coordinate), not pasted: equals 1 + g*h, and equals 1
    exactly when g = 0.
    """
    if cfg.g.is_zero():
        return ER(1)
    rear = 1 / cfg.g
    nose = rear + cfg.h
    return nose / rear


def hyperbolic_worldline(g, span: float = 4.0) -> SmoothNumeric:
    """The uniformly accelerated worldline X(t) = sqrt(1/g^2 + t^2) along
    x1, as a numeric worldline with analytic velocity."""
    gf = float(ER(g))
    if gf <= 0:
        raise InvalidConfig("need positive proper acceleration")
    x0 = 1.0 / gf

    def pos(t: float):
        return (math.sqrt(x0 * x0 + t * t), 0.0, 0.0)

    def vel(t: float):
        return (t / math.sqrt(x0 * x0 + t * t), 0.0, 0.0)

    return SmoothNumeric(pos, order=9, t_min=-span, t_max=span, velocity=vel)


def rindler_observer_chart(g) -> DifferentiableChart:
    """Chart adapted to the uniformly accelerated observer with proper
    acceleration g: reference (X, T) <-> Rindler (x - 1/g on the ship, t).

    forward: (X,y,z,T) -> (sqrt(X^2-T^2) - 1/g, y, z, artanh(T/X)/g)
    The observer rides the time axis of its own chart (AxSelf-).
    """
    gf = float(ER(g))
    if gf <= 0:
        raise InvalidConfig("need positive proper acceleration")
    x0 = 1.0 / gf

    def forward(p):
        X, y, z, T = p
        r2 = X * X - T * T
        if r2 <= 0 or X <= 0:
            raise ValueError("event outside the Rindler wedge")
        return (math.sqrt(r2) - x0, y, z, math.atanh(T / X) / gf)

    def inverse(q):
        x, y, z, t = q
        r = x + x0
        return (r * math.cosh(gf * t), y, z, r * math.sinh(gf * t))

    return DifferentiableChart(forward, inverse, order=9)


# ---------------------------------------------------------------------------
# Scenario files and CSV export.


# Number of words that follow each fixed-arity scenario keyword.
_SCENARIO_ARITY = {"scenario": 1, "home": 1, "traveler": 1, "meet": 4}


def parse_scenario(text: str) -> AcceleratedScenario:
    """Scenario file: `scenario NAME`, `body ...` lines (model syntax),
    `home NAME`, `traveler NAME`, and two `meet X1 X2 X3 X4` lines."""
    name = "scenario"
    bodies = {}
    home_id: Optional[str] = None
    trav_id: Optional[str] = None
    meets = []
    for head, args, numbered in declaration_lines(text):
        with numbered:
            arity = _SCENARIO_ARITY.get(head)
            if arity is not None and len(args) != arity:
                raise ValueError("%s needs %d values" % (head, arity))
            if head == "scenario":
                name = args[0]
            elif head == "body":
                b = _parse_body(args)
                bodies[b.id] = b
            elif head == "home":
                home_id = args[0]
            elif head == "traveler":
                trav_id = args[0]
            elif head == "meet":
                meets.append(coord4(*[ER(w) for w in args]))
            else:
                raise ValueError("unknown scenario line %r" % head)
    if home_id is None or trav_id is None or len(meets) != 2:
        raise ValueError("scenario needs home, traveler and two meet lines")
    for role, bid in (("home", home_id), ("traveler", trav_id)):
        if bid not in bodies:
            raise ValueError("scenario %s %r is not a declared body" % (role, bid))
    extra = tuple(b for bid, b in bodies.items() if bid not in (home_id, trav_id))
    return AcceleratedScenario(name, bodies[home_id], bodies[trav_id],
                               meets[0], meets[1], extra)


def serialize_scenario(sc: AcceleratedScenario) -> str:
    from .model import _serialize_body

    lines = ["scenario %s" % sc.name]
    for b in (sc.home, sc.traveler) + tuple(sc.extra_bodies):
        lines.append(_serialize_body(b))
    lines.append("home %s" % sc.home.id)
    lines.append("traveler %s" % sc.traveler.id)
    for event in (sc.departure, sc.reunion):
        lines.append("meet %s" % " ".join(c.literal().replace(" ", "") for c in event))
    return "\n".join(lines) + "\n"


def load_scenario(path) -> AcceleratedScenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def worldline_csv(w, t0, t1, steps: int = 100) -> str:
    """CSV rows (t, x1, x2, x3, v1, v2, v3, tau) along the worldline.

    tau counts from the first row, at t0, for every kind of worldline; on
    a numeric worldline each row adds the integral since the row before.
    At a knot of a piecewise-inertial worldline the row shows the velocity
    of the segment that starts there."""
    rows = ["t,x1,x2,x3,v1,v2,v3,tau"]
    t0f, t1f = float(t0), float(t1)
    pieces = w.pieces()
    tau = ApproxReal.from_float(0.0, 0.0)
    for i in range(steps + 1):
        tf = t0f + (t1f - t0f) * i / steps
        if pieces is not None:
            t = ER(Fraction(tf).limit_denominator(10 ** 9))
            origin = t if i == 0 else origin
            p = w.point_at(t)
            v = pieces[w.piece_at(t)[1]][1]
            row = [t, p[0], p[1], p[2], v[0], v[1], v[2], proper_time(w, origin, t)]
            rows.append(",".join(x.decimal_str() for x in row))
        else:
            p = w.point_at(tf)
            v = velocity_at(w, tf)
            if i:
                tau = tau + _numeric_proper_time(w, previous, tf)
            previous = tf
            vals = [tf, p[0], p[1], p[2], v[0], v[1], v[2], float(tau)]
            rows.append(",".join("%.12g" % x for x in vals))
    return "\n".join(rows) + "\n"
