"""Exact special-relativistic kinematics.

Conventions, fixed once for the whole package:

* coordinates are (x1, x2, x3, x4) with x4 the time coordinate and c = 1
  (space in light-seconds, time in seconds);
* the metric sign convention is eta = diag(+1, +1, +1, -1), matching the
  squared interval mu = (spatial distance)^2 - (time difference)^2.
  The literature is split on this; everything here uses space-plus.

Worldview transformations between inertial observers are Poincare maps:
a linear part L with L^T eta L = eta exactly, plus a translation.
Velocity addition and Lorentz factors are always derived from boost
composition, never hard-coded per scenario.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .field import ER, ExactReal, as_rationals, sqrt
from . import linalg
from .linalg import Mat, mat_mul, mat_vec, mat_inverse, vec_add, vec_sub
from .record import Record, set_field

if TYPE_CHECKING:
    from .model import Body, Structure

__all__ = [
    "ETA", "Coord4", "mu", "boost", "plane_rotation", "effects", "EffectReport",
    "AffineMap", "PoincareMap", "worldview_transform", "relative_velocity",
    "check_noftl", "check_mu_invariance", "velocity_addition",
    "SuperluminalVelocity", "NotInertialObserver", "ConfigurationUnrealizable",
    "random_poincare_map", "random_subluminal_velocity", "random_null_direction",
]


class SuperluminalVelocity(ValueError):
    """|v| >= 1 where a sub-light velocity is required."""


class NotInertialObserver(ValueError):
    pass


class ConfigurationUnrealizable(ValueError):
    """The requested NoFTL configuration cannot occur for these bodies."""


ETA: Mat = linalg.matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])

Coord4 = tuple  # (x1, x2, x3, x4) of ExactReal


def coord4(x1, x2, x3, x4) -> Coord4:
    return (ER(x1), ER(x2), ER(x3), ER(x4))


def mu(x: Coord4, y: Coord4) -> ExactReal:
    """Squared relativistic distance: spatial part squared minus time part squared."""
    d = [x[i] - y[i] for i in range(4)]
    return d[0] * d[0] + d[1] * d[1] + d[2] * d[2] - d[3] * d[3]


def speed_squared(v: Sequence) -> ExactReal:
    v = [ER(c) for c in v]
    return v[0] * v[0] + v[1] * v[1] + v[2] * v[2]


class AffineMap:
    """x -> L x + c over the exact field; general coordinate chart map.

    Maps are immutable after construction, so each computes its inverse
    once, on the first :meth:`inverse` call, and keeps it; the kept
    inverse points back, so ``m.inverse().inverse()`` is m.

    For the same reason each map builds an integer form on its first
    :meth:`apply` and keeps it: a common denominator D with the integer
    rows of D*L and the integer column D*c, or an empty marker when an
    entry of L or c is irrational.  A map that is never applied never
    builds it.  When the form exists and every coordinate of the point is
    rational (ExactReal, int or Fraction), ``apply`` brings the point to
    one denominator E, takes one integer dot product per row and returns
    ``Fraction(row . (E*x) + E*(D*c_i), D*E)`` for each coordinate; any
    other map or point takes ``vec_add(mat_vec(L, x), c)``.  Both paths
    give the same rational value, and a rational prints as its reduced
    fraction, so no printed value depends on the path taken.  Two threads
    may both build the form; they store equal ones.
    """

    is_exact = True

    def __init__(self, linear: Mat, translation: Coord4 = None):
        self.linear = linalg.matrix(linear)
        self.translation = tuple(ER(t) for t in (translation or (0, 0, 0, 0)))
        self._inverse = None
        self._integer_form = None

    def apply(self, x: Coord4) -> Coord4:
        form = self._integer_form
        if form is None:
            form = self._integer_form = _integer_form(self.linear, self.translation)
        if form:
            den, rows, column = form
            point = as_rationals(x)
            if point is not None and len(point) == len(rows[0]):
                e = lcm(*(q.denominator for q in point))
                nums = [q.numerator * (e // q.denominator) for q in point]
                return tuple(ExactReal.from_rational(sum(map(mul, row, nums)) + c * e, den * e)
                             for row, c in zip(rows, column))
        return vec_add(mat_vec(self.linear, x), self.translation)

    __call__ = apply

    def compose(self, other: "AffineMap") -> "AffineMap":
        # self after other: x -> self(other(x))
        if not other.is_exact:  # (other^-1 after self^-1)^-1, numeric
            return other.inverse().compose(self.inverse()).inverse()
        lin = mat_mul(self.linear, other.linear)
        tr = vec_add(mat_vec(self.linear, other.translation), self.translation)
        make = (PoincareMap._lorentz if isinstance(self, PoincareMap) and isinstance(other, PoincareMap)
                else AffineMap)
        return make(lin, tr)

    def inverse(self) -> "AffineMap":
        # Two threads may both compute it; they store equal maps.
        if self._inverse is None:
            inv = mat_inverse(self.linear)
            tr = tuple(-t for t in mat_vec(inv, self.translation))
            make = PoincareMap._lorentz if isinstance(self, PoincareMap) else AffineMap
            inverse = make(inv, tr)
            inverse._inverse = self
            self._inverse = inverse
        return self._inverse

    def is_lorentz(self) -> bool:
        """Whether L^T eta L = eta holds exactly.

        Checks the Gram form sum_k eta_k L_ki L_kj = eta_ij on the ten
        entries i <= j (the product is symmetric; the time row enters with
        eta_4 = -1) by an exact zero test of each difference, and stops at
        the first entry that differs.
        """
        m = self.linear
        for i in range(4):
            for j in range(i, 4):
                gram = m[0][i] * m[0][j] + m[1][i] * m[1][j] + m[2][i] * m[2][j] - m[3][i] * m[3][j]
                if not (gram - ETA[i][j]).is_zero():
                    return False
        return True

    def __eq__(self, other):
        if not isinstance(other, AffineMap):
            return NotImplemented
        return linalg.mat_eq(self.linear, other.linear) and all(
            a == b for a, b in zip(self.translation, other.translation)
        )

    __hash__ = None

    def __repr__(self):
        return "%s(linear=%s, translation=%s)" % (
            type(self).__name__,
            [[str(e) for e in row] for row in self.linear],
            [str(t) for t in self.translation],
        )


def _integer_form(linear: Mat, translation: Coord4) -> tuple:
    """(D, rows of D*L, column D*c) over the ints, with D the least common
    denominator of every entry; () when an entry is irrational."""
    entries = as_rationals(chain(*linear, translation))
    if entries is None:
        return ()
    den = lcm(*(q.denominator for q in entries))
    ints = [q.numerator * (den // q.denominator) for q in entries]
    n = len(linear[0])
    rows = tuple(tuple(ints[i * n:(i + 1) * n]) for i in range(len(linear)))
    return den, rows, tuple(ints[len(linear) * n:])


class PoincareMap(AffineMap):
    """An AffineMap whose linear part satisfies L^T eta L = eta exactly.

    The property is established once, where a matrix enters the program:

    * rows from outside, ``PoincareMap(rows)``, pass the exact Gram check
      of :meth:`is_lorentz` or raise ValueError;
    * :func:`boost`, :func:`plane_rotation` (after its exact test of
      cos^2 + sin^2 = 1) and :func:`translation` build Lorentz matrices by
      construction;
    * the composition of two Poincare maps and the inverse of one are
      Poincare maps, because Lorentz matrices form a group.

    The last two build their maps through :meth:`_lorentz`, which skips the
    check; ``is_lorentz()`` still holds on every map it returns.
    """

    def __init__(self, linear: Mat, translation: Coord4 = None):
        super().__init__(linear, translation)
        if not self.is_lorentz():
            raise ValueError("linear part is not a Lorentz matrix")

    @classmethod
    def _lorentz(cls, linear: Mat, translation: Coord4 = None) -> "PoincareMap":
        # For a linear part that is Lorentz by construction or by closure.
        m = cls.__new__(cls)
        AffineMap.__init__(m, linear, translation)
        return m


def boost(v: Sequence) -> PoincareMap:
    """The pure Lorentz boost mapping worldlines of velocity v to rest.

    v is a 3-vector of exact values with |v| < 1.
    """
    v = tuple(ER(c) for c in v)
    v2 = speed_squared(v)
    if v2.compare(1) >= 0:
        raise SuperluminalVelocity("boost velocity |v|^2 = %s >= 1" % v2)
    if v2.is_zero():
        return PoincareMap._lorentz(linalg.identity(4))
    g = 1 / sqrt(1 - v2)
    rows = []
    for i in range(3):
        row = [(ER(1) if i == j else ER(0)) + (g - 1) * v[i] * v[j] / v2 for j in range(3)]
        row.append(-g * v[i])
        rows.append(row)
    rows.append([-g * v[0], -g * v[1], -g * v[2], g])
    return PoincareMap._lorentz(tuple(tuple(r) for r in rows))


def plane_rotation(i: int, j: int, cos, sin) -> PoincareMap:
    """Spatial rotation in the (xi, xj) plane; cos^2 + sin^2 must equal 1 exactly."""
    if not (1 <= i < j <= 3):
        raise ValueError("rotation plane indices must satisfy 1 <= i < j <= 3")
    c, s = ER(cos), ER(sin)
    if not (c * c + s * s == 1):
        raise ValueError("cos^2 + sin^2 != 1 exactly")
    m = [[ER(1 if a == b else 0) for b in range(4)] for a in range(4)]
    a, b = i - 1, j - 1
    m[a][a], m[a][b] = c, -s
    m[b][a], m[b][b] = s, c
    return PoincareMap._lorentz(tuple(tuple(r) for r in m))


def translation(c: Coord4) -> PoincareMap:
    return PoincareMap._lorentz(linalg.identity(4), tuple(ER(x) for x in c))


def velocity_addition(u, v) -> ExactReal:
    """Collinear relativistic velocity addition (u + v)/(1 + u v)."""
    u, v = ER(u), ER(v)
    return (u + v) / (1 + u * v)


class EffectReport(Record):
    """The three paradigmatic quantities for relative speed v and a given ship length."""

    __slots__ = _fields = ("v", "time_dilation", "length_contraction", "clock_asynchrony")

    def __init__(self, v: ExactReal, time_dilation: ExactReal,
                 length_contraction: ExactReal, clock_asynchrony: ExactReal):
        set_field(self, "v", v)
        set_field(self, "time_dilation", time_dilation)
        set_field(self, "length_contraction", length_contraction)
        set_field(self, "clock_asynchrony", clock_asynchrony)


def effects(v, ship_length=1) -> EffectReport:
    """Time dilation, length contraction and clock asynchrony at speed v.

    All three emerge from the boost matrix, not from pasted formulas:
    dilation is the time coordinate of the image of a unit proper-time
    tick, contraction the spatial extent of the ship's simultaneous
    image, asynchrony the clock offset between nose and rear.
    """
    v, ship_length = ER(v), ER(ship_length)
    if v.sign() < 0 or v.compare(1) >= 0:
        raise SuperluminalVelocity("effects requires 0 <= v < 1")
    fwd = boost((v, 0, 0))  # rest frame -> ship frame
    b = fwd.inverse()  # ship frame -> rest frame
    # One tick of the moving clock: ship-frame (0,0,0,1) in rest coordinates.
    tick = b.apply(coord4(0, 0, 0, 1))
    dilation = 1 / tick[3]
    # Rest-frame snapshot at t=0 of the ship occupying [0, L] in its own frame:
    # rear at ship-x 0, nose at ship-x L; solve for ship-time making rest-time 0.
    nose_event = _simultaneous_image(b, ship_x=ship_length)
    rear_event = _simultaneous_image(b, ship_x=ER(0))
    contraction = (nose_event[0] - rear_event[0]) / ship_length
    # Clock reading at each end is the ship-frame time of the snapshot event.
    asynchrony = fwd.apply(rear_event)[3] - fwd.apply(nose_event)[3]
    return EffectReport(v=v, time_dilation=dilation,
                        length_contraction=contraction, clock_asynchrony=asynchrony)


def _simultaneous_image(ship_to_rest: AffineMap, ship_x: ExactReal) -> Coord4:
    # Event on the worldline of the ship point at ship-x with rest-frame time 0.
    p0 = ship_to_rest.apply(coord4(ship_x, 0, 0, 0))
    p1 = ship_to_rest.apply(coord4(ship_x, 0, 0, 1))
    direction = vec_sub(p1, p0)
    s = -p0[3] / direction[3]
    return vec_add(p0, tuple(s * d for d in direction))


def worldview_transform(s: "Structure", o: "Body", o2: "Body") -> AffineMap:
    """The map w with W(o,b,x) iff W(o2,b,w(x)); composition of chart maps."""
    for obs in (o, o2):
        if not isinstance(s.chart_of(obs), AffineMap):
            raise NotInertialObserver("%s is not an inertial observer" % obs.id)
        if not getattr(obs, "is_inertial", False):
            raise NotInertialObserver("%s is not inertial" % obs.id)
    return s.transition(o, o2)


def relative_velocity(s: "Structure", o: "Body", o2: "Body") -> tuple:
    """Velocity of o2 in o's coordinates: its time axis's image under the
    worldview transformation (unchecked: a Galilean pair may exceed 1)."""
    from .model import StraightLine

    w = worldview_transform(s, o2, o)  # o2 coords -> o coords
    return StraightLine(coord4(0, 0, 0, 0), (ER(0),) * 3).image(w).vector


def check_mu_invariance(w: AffineMap, x: Coord4, y: Coord4) -> bool:
    """mu(x, y) == mu(w(x), w(y)), decided exactly."""
    return mu(x, y) == mu(w.apply(x), w.apply(y))


# ---------------------------------------------------------------------------
# NoFTL: an inertial observer is slower than any photon between two locations.


def check_noftl(s: "Structure", m: "Body", k: "Body", p: "Body",
                start, target):
    """Check the no-faster-than-light claim in m's worldview.

    start is the shared departure event (Coord4 in m's chart) that both k
    and p pass; target is the spatial location (3-vector) both reach.
    Returns a verdict.Verdict: Holds iff k's arrival time is strictly
    later than the photon's, decided exactly.
    """
    # Imported here: verdict imports model, which imports this module.
    from .verdict import Verdict

    if not getattr(p, "is_photon", False):
        raise ConfigurationUnrealizable("%s is not a photon" % p.id)
    start = tuple(ER(c) for c in start)
    target = tuple(ER(c) for c in target)
    t_k = _arrival_time(s, m, k, start, target)
    t_p = _arrival_time(s, m, p, start, target)
    evidence = {
        "m": m.id, "k": k.id, "p": p.id,
        "x": start, "y_space": target,
        "y4": t_k, "t": t_p,
    }
    if t_k > t_p:
        return Verdict.holds(method="certified", evidence=evidence)
    return Verdict.fails(evidence=evidence)


def _arrival_time(s: "Structure", m: "Body", body: "Body", start: Coord4, target) -> ExactReal:
    from .model import InertialLine, PhotonLine

    chart = s.chart_of(m)
    if chart is None or not isinstance(chart, AffineMap):
        raise NotInertialObserver("%s is not an inertial observer" % m.id)
    wl = body.worldline
    if not isinstance(wl, (InertialLine, PhotonLine)):
        raise ConfigurationUnrealizable("%s does not move on a straight line" % body.id)
    # Straight line through m-chart points: image of the reference-chart line.
    p0 = chart.apply(wl.point_at(ER(0)))
    p1 = chart.apply(wl.point_at(ER(1)))
    direction = vec_sub(p1, p0)
    if _line_param(p0, direction, start) is None:
        raise ConfigurationUnrealizable("%s does not pass the departure event" % body.id)
    # The line's spatial part must reach target; its time there is the answer.
    param = _line_param(p0, direction, target)
    if param is None:
        raise ConfigurationUnrealizable("%s never reaches the target location" % body.id)
    return p0[3] + param * direction[3]


def _line_param(p0: Coord4, direction: Coord4, point) -> ExactReal | None:
    """The s with p0 + s*direction equal to point in point's components
    (all four, or the spatial three), or None if there is none.  s is 0
    when those components of direction all vanish and p0 matches."""
    n = len(point)
    param = ER(0)
    for i in range(n):
        if not direction[i].is_zero():
            param = (point[i] - p0[i]) / direction[i]
            break
    if all((p0[j] + param * direction[j]) == point[j] for j in range(n)):
        return param
    return None


# ---------------------------------------------------------------------------
# Seeded exact generators for sweeps.


def _rational(rng: random.Random, max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(-3 * den, 3 * den)
    return Fraction(num, den)


def random_null_direction(rng: random.Random) -> tuple:
    """A random exact unit 3-vector via stereographic projection."""
    a, b = _rational(rng), _rational(rng)
    n = 1 + a * a + b * b
    return (ER(Fraction(2 * a, 1) / n), ER(Fraction(2 * b, 1) / n), ER((1 - a * a - b * b) / n))


def random_subluminal_velocity(rng: random.Random) -> tuple:
    d = random_null_direction(rng)
    mag = Fraction(rng.randint(1, 9), 10)
    return tuple(ER(mag) * c for c in d)


def mu_invariance_csv(maps: int = 100, pairs: int = 10, seed: int = 0) -> str:
    """Seeded invariance sweep as CSV rows (map, pair, mu, mu_image, equal);
    the equalities are exact, the mu columns are decimal renderings."""
    rng = random.Random(seed)
    rows = ["map,pair,mu,mu_image,equal"]
    for i in range(maps):
        w = random_poincare_map(rng)
        for j in range(pairs):
            x = coord4(*[_rational(rng) for _ in range(4)])
            y = coord4(*[_rational(rng) for _ in range(4)])
            before = mu(x, y)
            after = mu(w.apply(x), w.apply(y))
            rows.append("%d,%d,%s,%s,%s" % (
                i, j, before.decimal_str(), after.decimal_str(),
                str(before == after).lower()))
    return "\n".join(rows) + "\n"


def random_poincare_map(rng: random.Random) -> PoincareMap:
    """A seeded random Poincare map: rotations and boosts composed, plus translation."""
    m = boost(random_subluminal_velocity(rng))
    for _ in range(rng.randint(0, 2)):
        a = _rational(rng)
        c = (1 - a * a) / (1 + a * a)
        s = 2 * a / (1 + a * a)
        i = rng.randint(1, 2)
        j = rng.randint(i + 1, 3)
        m = plane_rotation(i, j, c, s).compose(m)
    if rng.random() < 0.7:
        m = m.compose(boost(random_subluminal_velocity(rng)))
    tr = tuple(ER(_rational(rng)) for _ in range(4))
    return PoincareMap._lorentz(m.linear, tr)
