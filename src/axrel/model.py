"""Concrete structures: bodies, worldlines, observer charts.

A Structure stores every worldline in one distinguished reference chart;
per-observer chart maps (Poincare or general affine maps for inertial
observers, differentiable numeric charts for accelerated ones) translate
reference coordinates into the observer's own.  The worldview relation
W(o, b, x) is derived, never stored pointwise: it holds iff the
preimage of x under o's chart lies on b's worldline.  ``Structure.holds_W``
is the one W: ``Structure.reference_point`` is the one map from an
observer's coordinates to the reference chart (None outside the chart's
domain), and ``event_at`` and the evaluator in `semantics` answer W
through these two, three-valued where a numeric worldline is too close
to call.

Each worldline kind carries its own geometry, so no other layer asks
which kind it holds: ``point_at`` and ``contains``; ``image(m)``, an
exact worldline mapped through a chart map (a straight line through the
images of its events at times 0 and 1, a piecewise one by its knots);
``pieces()``, its straight pieces (None on a numeric worldline); and
``piece_at(t)``, the segment lookup in both knot conventions.  Each
chart kind, exact (`kinematics.AffineMap`) or numeric
(`DifferentiableChart`), answers ``apply``, ``inverse()``, ``compose``
and ``is_exact``, so no other layer asks which kind it holds either.

Existential body quantifiers over "all photons" / "all inertial bodies"
are answered by intensional family flags rather than by materializing
infinitely many bodies; the witness solvers live in `semantics`.

Model description files round-trip losslessly; see ``parse_model`` /
``serialize_model``.  Field literals in files must not contain spaces
(write ``sqrt(1-9/25)``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence

from .field import ER, ExactReal, ExactRealSyntaxError, sqrt
from .kinematics import (
    AffineMap, Coord4, SuperluminalVelocity, boost, coord4, plane_rotation,
    speed_squared, translation,
)
from .record import Record, set_field

__all__ = [
    "InertialLine", "PhotonLine", "PiecewiseInertial", "SmoothNumeric",
    "Body", "Structure", "DifferentiableChart", "ChartDomain", "Interval",
    "standard_minkowski", "galilean_structure", "NotAnObserver",
    "EventContent", "parse_model", "serialize_model", "load_model",
    "cloud", "unsafe_inertial_line",
]


class NotAnObserver(ValueError):
    pass


# ---------------------------------------------------------------------------
# Worldlines (in the reference chart).


class StraightLine(Record):
    """The events point + (vector, 1) * (t - point[3]) for every time t.
    The base of the two straight kinds, which check `vector` and name it
    `velocity` or `direction`; a plain StraightLine checks nothing."""

    __slots__ = _fields = ("point", "vector")
    is_inertial = is_photon = False  # the IB and Ph of a body on this line

    def __init__(self, point: Coord4, vector: tuple):
        set_field(self, "point", point)
        set_field(self, "vector", vector)  # 3-vector of ExactReal

    @classmethod
    def through(cls, x: Coord4, y: Coord4) -> "StraightLine":
        """The line of this kind through the events x and y, x4 != y4."""
        dt = y[3] - x[3]
        return cls(x, tuple((y[i] - x[i]) / dt for i in range(3)))

    def image(self, m) -> "StraightLine":
        """The line of this kind through the images under the map m of
        this line's events at times 0 and 1."""
        return self.through(m.apply(self.point_at(ER(0))), m.apply(self.point_at(ER(1))))

    def point_at(self, t: ExactReal) -> Coord4:
        dt = ER(t) - self.point[3]
        return tuple(self.point[i] + self.vector[i] * dt for i in range(3)) + (ER(t),)

    def contains(self, x: Coord4) -> bool:
        dt = x[3] - self.point[3]
        return all(x[i] == self.point[i] + self.vector[i] * dt for i in range(3))

    def pieces(self) -> list:
        """The one piece, unbounded: [(point, vector, None)]."""
        return [(self.point, self.vector, None)]

    def piece_at(self, t) -> tuple:
        """(0, 0): the one piece holds every time."""
        return 0, 0


class InertialLine(StraightLine):
    """Straight sub-light worldline through `point` with 3-velocity `velocity`."""

    __slots__ = ()
    _fields = ("point", "velocity")
    is_inertial = True

    def __init__(self, point: Coord4, velocity: tuple):
        if speed_squared(velocity).compare(1) >= 0:
            raise SuperluminalVelocity("inertial line requires |v| < 1")
        super().__init__(point, velocity)

    velocity = property(lambda self: self.vector)


def unsafe_inertial_line(point, velocity) -> InertialLine:
    """Test-only: an 'inertial' line without the sub-light check.

    Exists solely so the Fails paths of NoFTL-style checks can be
    exercised; never used by production constructors.
    """
    line = object.__new__(InertialLine)
    StraightLine.__init__(line, tuple(ER(c) for c in point), tuple(ER(c) for c in velocity))
    return line


class PhotonLine(StraightLine):
    """Unit-speed line through `point` along the exact unit vector `direction`."""

    __slots__ = ()
    _fields = ("point", "direction")
    is_photon = True

    def __init__(self, point: Coord4, direction: tuple):
        if not (speed_squared(direction) == 1):
            raise ValueError("photon direction must be an exact unit vector")
        super().__init__(point, direction)

    direction = property(lambda self: self.vector)


class PiecewiseInertial(Record):
    """Continuous chain of inertial segments given by (x1,x2,x3,x4) knots.

    Knot times must increase strictly; each segment must be sub-light.
    The domain is the knot time span.
    """

    __slots__ = _fields = ("knots",)
    is_inertial = is_photon = False

    def __init__(self, knots: tuple):
        if len(knots) < 2:
            raise ValueError("need at least two knots")
        for a, b in zip(knots, knots[1:]):
            dt = b[3] - a[3]
            if dt.sign() <= 0:
                raise ValueError("knot times must increase strictly")
            seg2 = sum(((b[i] - a[i]) ** 2 for i in range(3)), ER(0))
            if (seg2 - dt * dt).sign() >= 0:
                raise SuperluminalVelocity("piecewise segment at or above light speed")
        set_field(self, "knots", knots)  # of Coord4, strictly increasing in x4

    def image(self, m) -> "PiecewiseInertial":
        """The chain through the images of the knots under the map m."""
        return PiecewiseInertial(tuple(m.apply(k) for k in self.knots))

    def pieces(self) -> list:
        """The segments as straight pieces (start, velocity, end): the
        events start + (velocity, 1) * (t - start[3]) for start[3] <= t
        <= end, in knot order.  A whole line's one piece has end None."""
        out = []
        for a, b in zip(self.knots, self.knots[1:]):
            dt = b[3] - a[3]
            out.append((a, tuple((b[i] - a[i]) / dt for i in range(3)), b[3]))
        return out

    def piece_at(self, t: ExactReal) -> tuple:
        """(ending, starting): the indices in `pieces` of the segments
        that end and that start at time t; they differ only at an inner
        knot, elsewhere both name the segment that holds t."""
        if (t - self.knots[0][3]).sign() < 0 or (t - self.knots[-1][3]).sign() > 0:
            raise ValueError("time outside worldline domain")
        for i, b in enumerate(self.knots[1:]):
            c = (t - b[3]).sign()
            if c <= 0:
                return i, i + 1 if c == 0 and i + 2 < len(self.knots) else i
        raise AssertionError

    def point_at(self, t: ExactReal) -> Coord4:
        t = ER(t)
        k = self.piece_at(t)[0]
        a, b = self.knots[k], self.knots[k + 1]
        dt = b[3] - a[3]
        lam = (t - a[3]) / dt
        return tuple(a[i] + lam * (b[i] - a[i]) for i in range(3)) + (t,)

    def contains(self, x: Coord4) -> bool:
        try:
            p = self.point_at(x[3])
        except ValueError:  # outside the knot time span
            return False
        return all(p[i] == x[i] for i in range(3))


#: Default tolerance of a numeric worldline's membership tests.
NUMERIC_TOLERANCE = 1e-9


class SmoothNumeric(Record):
    """Numeric worldline: float position callable of time, declared order n.

    Membership tests are interval tests at the declared tolerance; exact
    queries are answered three-valued by the evaluation layer.
    """

    __slots__ = _fields = ("position", "order", "t_min", "t_max", "velocity", "tolerance")
    is_inertial = is_photon = False

    def __init__(self, position: Callable, order: int, t_min: float, t_max: float,
                 velocity: Optional[Callable] = None, tolerance: float = NUMERIC_TOLERANCE):
        set_field(self, "position", position)  # t -> (x1, x2, x3) floats
        set_field(self, "order", order)
        set_field(self, "t_min", t_min)
        set_field(self, "t_max", t_max)
        set_field(self, "velocity", velocity)  # optional analytic derivative
        set_field(self, "tolerance", tolerance)

    def point_at(self, t):
        tf = float(t)
        if not (self.t_min <= tf <= self.t_max):
            raise ValueError("time outside worldline domain")
        return tuple(self.position(tf)) + (tf,)

    def contains(self, x) -> bool:
        p = self.position(float(x[3]))
        return all(abs(float(x[i]) - p[i]) <= self.tolerance for i in range(3))

    def pieces(self) -> None:
        """None: a numeric worldline has no exact straight pieces."""
        return None


def cloud(line: InertialLine, offsets: Sequence) -> list:
    """Parallel copies of an inertial line, for extended-body scenarios."""
    out = []
    for off in offsets:
        point = tuple(line.point[i] + ER(off[i]) for i in range(3)) + (line.point[3],)
        out.append(InertialLine(point, line.velocity))
    return out


# ---------------------------------------------------------------------------
# Bodies and charts.


class Body(Record):
    """A named body; its worldline's kind says whether it is IB (an
    `InertialLine`) or Ph (a `PhotonLine`)."""

    __slots__ = _fields = ("id", "is_inertial", "is_photon", "worldline")

    def __init__(self, id: str, worldline: object):
        set_field(self, "id", id)
        set_field(self, "is_inertial", worldline.is_inertial)
        set_field(self, "is_photon", worldline.is_photon)
        set_field(self, "worldline", worldline)


class Interval(Record):
    """lo/hi None mean unbounded; *_open marks an excluded finite endpoint.
    One axis of a `ChartDomain`, and a piece of an `intervals.IntervalSet`."""

    __slots__ = _fields = ("lo", "hi", "lo_open", "hi_open")

    def __init__(self, lo: Optional[ExactReal], hi: Optional[ExactReal],
                 lo_open: bool = True, hi_open: bool = True):
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "lo_open", lo_open)
        set_field(self, "hi_open", hi_open)

    def is_empty(self) -> bool:
        if self.lo is None or self.hi is None:
            return False
        c = (self.hi - self.lo).sign()
        return c < 0 or (c == 0 and (self.lo_open or self.hi_open))

    def contains(self, x: ExactReal) -> bool:
        if self.lo is not None:
            c = (x - self.lo).sign()
            if c < 0 or (c == 0 and self.lo_open):
                return False
        if self.hi is not None:
            c = (x - self.hi).sign()
            if c > 0 or (c == 0 and self.hi_open):
                return False
        return True


class ChartDomain(Record):
    """Axis-aligned box: one `Interval` per axis, each open or closed at its
    own finite ends.  It lists its bounded axes once; `contains` tests them."""

    __slots__ = ("axes", "_bounded")
    _fields = ("axes",)

    def __init__(self, axes: tuple = (Interval(None, None),) * 4):
        set_field(self, "axes", axes)
        set_field(self, "_bounded", tuple((i, iv) for i, iv in enumerate(axes)
                                          if iv.lo is not None or iv.hi is not None))

    def is_full(self) -> bool:
        return not self._bounded

    def is_empty(self) -> bool:
        """Whether no event lies in the box: some axis holds no value."""
        return any(iv.is_empty() for iv in self.axes)

    def contains(self, x: Coord4) -> bool:
        for i, iv in self._bounded:
            if not iv.contains(x[i]):
                return False
        return True


_FULL_DOMAIN = ChartDomain()


class DifferentiableChart(Record):
    """Invertible numeric chart for an accelerated observer: `forward`
    maps reference coordinates to the observer's in floats, `backward`
    (the constructor's `inverse`) the other way, and `order` is the
    declared differentiability.  It answers what an exact chart answers:
    ``apply``, ``inverse()`` and ``compose(m)``, this chart after the map
    m, in which an exact m reads each float exactly and rounds once.  Its
    domain, like an affine chart's, is the structure's ``domain_of``.  It
    keeps its inverse, as an affine chart does: ``c.inverse().inverse()`` is c."""

    __slots__ = ("forward", "backward", "order", "_inverse")
    _fields = ("forward", "backward", "order")
    is_exact = False

    def __init__(self, forward: Callable, inverse: Callable, order: int):
        set_field(self, "forward", forward)
        set_field(self, "backward", inverse)
        set_field(self, "order", order)
        set_field(self, "_inverse", None)

    def apply(self, x) -> tuple:
        return tuple(self.forward(tuple(float(c) for c in x)))

    def inverse(self) -> "DifferentiableChart":
        if self._inverse is None:  # two threads may both build it: equal charts
            inverse = DifferentiableChart(self.backward, self.forward, self.order)
            set_field(inverse, "_inverse", self)
            set_field(self, "_inverse", inverse)
        return self._inverse

    def compose(self, m) -> "DifferentiableChart":
        # self after m: x -> self(m(x)).
        def floats(chart):
            return lambda p: tuple(float(v) for v in chart.apply(tuple(ER(Fraction(c)) for c in p)))

        into, back = floats(m), floats(m.inverse())
        return DifferentiableChart(lambda p: self.forward(into(p)),
                                   lambda q: back(self.backward(q)), self.order)


class Structure:
    """A model of the language: bodies, family flags, observer charts.

    Bodies, charts, domains, family flags and constants are fixed after
    construction; nothing may rebind or mutate them.  So the structure
    keeps each worldview transformation that :meth:`transition` builds,
    at most (observers)^2 maps.
    """

    def __init__(self, bodies: Sequence[Body], charts: dict,
                 photon_family: bool = True, inertial_family: bool = True,
                 chart_domains: Optional[dict] = None, name: str = "structure",
                 constants: Sequence = ()):
        self.name = name
        self.bodies = {b.id: b for b in bodies}
        if len(self.bodies) != len(bodies):
            raise ValueError("duplicate body ids")
        self.charts = dict(charts)  # body id -> AffineMap | DifferentiableChart
        self.chart_domains = dict(chart_domains or {})  # body id -> ChartDomain
        self.photon_family = photon_family
        self.inertial_family = inertial_family
        # Scenario constants feed the sampling corner set in `semantics`.
        self.constants = tuple(constants)
        for oid in self.charts:
            if oid not in self.bodies:
                raise ValueError("chart for unknown body %r" % oid)
        self._worldviews = {}  # (o id, o2 id) -> chart(o2) o chart(o)^-1

    # -- observers ---------------------------------------------------------

    def observers(self) -> list:
        return [self.bodies[oid] for oid in self.charts]

    def is_observer(self, body: Body) -> bool:
        return body.id in self.charts

    def chart_of(self, body: Body):
        return self.charts.get(body.id)

    def domain_of(self, body: Body) -> ChartDomain:
        return self.chart_domains.get(body.id, _FULL_DOMAIN)

    def all_charts_affine(self) -> bool:
        return all(c.is_exact for c in self.charts.values())

    def all_domains_full(self) -> bool:
        return all(self.domain_of(self.bodies[oid]).is_full() for oid in self.charts)

    def transition(self, o: Body, o2: Body) -> Optional[AffineMap]:
        """The worldview transformation chart(o2) o chart(o)^-1, from o's
        coordinates to o2's; None unless both charts are exact."""
        w = self._worldview(o, o2)
        return w if w is not None and w.is_exact else None

    def _worldview(self, o: Body, o2: Body):
        """chart(o2) o chart(o)^-1, numeric if either chart is; None for a
        non-observer.  Kept once built; two threads may both build it."""
        key = (o.id, o2.id)
        w = self._worldviews.get(key)
        if w is None:
            c1, c2 = self.chart_of(o), self.chart_of(o2)
            if c1 is None or c2 is None:
                return None
            w = self._worldviews[key] = c2.compose(c1.inverse())
        return w

    # -- the worldview relation ---------------------------------------------

    def reference_point(self, o: Body, x: Coord4) -> Optional[Coord4]:
        """o's coordinates x in the reference chart, or None when x is
        outside o's chart domain or o's numeric chart cannot map it."""
        chart = self.chart_of(o)
        if chart is None:
            raise NotAnObserver(o.id)
        try:
            x = tuple(ER(c) for c in x)
        except TypeError:  # float coordinates, as a numeric chart gives: read exactly
            x = tuple(ER(Fraction(c) if isinstance(c, float) else c) for c in x)
        if not self.domain_of(o).contains(x):
            return None
        try:
            return chart.inverse().apply(x)
        except (ValueError, ArithmeticError):  # outside a numeric chart's range
            return None

    def holds_W(self, o: Body, b: Body, x: Coord4) -> Optional[bool]:
        """W(o, b, x): o coordinatizes b at x.  Exact for exact worldlines;
        None when a numeric worldline is too close to x to call."""
        if not self.is_observer(o):
            return False  # non-observers coordinatize nothing
        ref = self.reference_point(o, x)
        return ref is not None and _on_worldline(b.worldline, ref)

    def event_at(self, o: Body, x: Coord4) -> "EventContent":
        """Named bodies present at o's coordinates x, plus family descriptors."""
        if not self.is_observer(o):
            raise NotAnObserver(o.id)
        # holds_W for every body, with x mapped to the reference chart once.
        ref = self.reference_point(o, x)
        named = frozenset() if ref is None else frozenset(
            b.id for b in self.bodies.values() if _on_worldline(b.worldline, ref))
        descriptors = []
        if self.photon_family:
            descriptors.append("photons through this event in every null direction")
        if self.inertial_family:
            descriptors.append("inertial bodies through this event at every sub-light velocity")
        return EventContent(named, tuple(descriptors))

    def event_correspondence(self, o: Body, o2: Body, x: Coord4) -> Coord4:
        """The o2-coordinates of the event at o's x (composition of charts):
        exact for two affine charts, floats when either chart is numeric."""
        for obs in (o, o2):
            if not self.is_observer(obs):
                raise NotAnObserver(obs.id)
        return self._worldview(o, o2).apply(x)

    def with_extra_bodies(self, extra: Sequence[Body]) -> "Structure":
        bodies = list(self.bodies.values()) + list(extra)
        return Structure(bodies, self.charts, self.photon_family,
                         self.inertial_family, self.chart_domains, self.name,
                         self.constants)


class EventContent(Record):
    __slots__ = _fields = ("named", "family_descriptors")

    def __init__(self, named: frozenset, family_descriptors: tuple = ()):
        set_field(self, "named", named)
        set_field(self, "family_descriptors", family_descriptors)


def _on_worldline(w, ref) -> Optional[bool]:
    """Whether the reference event ref lies on worldline w.  A numeric
    worldline, or a float ref from a numeric chart, is tested in floats
    against w's point at ref's time, at the numeric tolerance (w's own,
    or SmoothNumeric's default for an exact w): True within it, False
    from ten times it (or outside w's time range), None in between."""
    if isinstance(w, SmoothNumeric):
        tf = float(ref[3])
        if not (w.t_min <= tf <= w.t_max):
            return False
        return _near(ref, w.position(tf), w.tolerance)
    if not isinstance(ref[0], ExactReal):
        try:
            p = w.point_at(ER(Fraction(ref[3])))
        except ValueError:  # outside a piecewise line's time range
            return False
        return _near(ref, p, NUMERIC_TOLERANCE)
    return w.contains(ref)


def _near(ref, p, tol: float) -> Optional[bool]:
    dist = max(abs(float(ref[i]) - float(p[i])) for i in range(3))
    if dist <= tol:
        return True
    return False if dist >= 10 * tol else None


# ---------------------------------------------------------------------------
# Standard structures.


class ObserverSpec(Record):
    """Parameters for one inertial observer chart: chart = translate o
    rotate o boost(velocity); the observer's worldline is the preimage of
    the time axis."""

    __slots__ = _fields = ("name", "velocity", "rotations", "translation", "domain", "galilean")

    def __init__(self, name: str, velocity: tuple = (0, 0, 0), rotations: tuple = (),
                 translation: tuple = (0, 0, 0, 0), domain: ChartDomain = ChartDomain(),
                 galilean: bool = False):
        set_field(self, "name", name)
        set_field(self, "velocity", velocity)
        set_field(self, "rotations", rotations)  # ((i, j, cos, sin), ...)
        set_field(self, "translation", translation)
        set_field(self, "domain", domain)
        set_field(self, "galilean", galilean)


def _observer_chart(spec: ObserverSpec) -> AffineMap:
    if spec.galilean:
        v = tuple(ER(c) for c in spec.velocity)
        rows = [[ER(1 if i == j else 0) for j in range(4)] for i in range(4)]
        for i in range(3):
            rows[i][3] = -v[i]
        chart: AffineMap = AffineMap(tuple(tuple(r) for r in rows))
    else:
        chart = boost(spec.velocity)
    for (i, j, c, s) in spec.rotations:
        chart = plane_rotation(i, j, c, s).compose(chart)
    if any(not ER(c).is_zero() for c in spec.translation):
        chart = translation(spec.translation).compose(chart)
    return chart


def _observer_body(name: str, chart: AffineMap) -> Body:
    # The preimage of the chart's time axis.
    axis = InertialLine(coord4(0, 0, 0, 0), (ER(0),) * 3)
    return Body(name, axis.image(chart.inverse()))


def _structure(observers: Sequence[ObserverSpec], extra_bodies: Sequence[Body],
               photon_family: bool, inertial_family: bool, name: str) -> Structure:
    """Observer charts and bodies, then the extra bodies; the observers'
    velocities and translations are the sampling constants."""
    charts, bodies, domains, consts = {}, [], {}, []
    for spec in observers:
        chart = _observer_chart(spec)
        charts[spec.name] = chart
        bodies.append(_observer_body(spec.name, chart))
        if not spec.domain.is_full():
            domains[spec.name] = spec.domain
        consts.extend(spec.velocity)
        consts.extend(spec.translation)
    return Structure(bodies + list(extra_bodies), charts, photon_family, inertial_family,
                     domains, name, tuple(ER(c) for c in consts))


def standard_minkowski(observers: Sequence[ObserverSpec],
                       extra_bodies: Sequence[Body] = (),
                       name: str = "minkowski") -> Structure:
    """The Minkowski model over the tower field with the given observers.

    Both intensional families are on; every chart is a Poincare map, so
    all SpecRel axioms hold (certified by the reductions of `certify`).
    """
    if any(spec.galilean for spec in observers):
        raise ValueError("standard_minkowski takes Lorentz observers only")
    return _structure(observers, extra_bodies, True, True, name)


def galilean_structure(observers: Sequence[ObserverSpec],
                       extra_bodies: Sequence[Body] = (),
                       name: str = "galilean") -> Structure:
    """Newtonian-chart model: observer charts are Galilean maps.

    The negative control for AxPh: Galilean maps do not preserve the
    lightlike equation.
    """
    specs = [ObserverSpec(spec.name, spec.velocity, spec.rotations, spec.translation,
                          spec.domain, galilean=True) for spec in observers]
    return _structure(specs, extra_bodies, True, True, name)


# ---------------------------------------------------------------------------
# Model description files.


def parse_model(text: str) -> Structure:
    """Parse a model description file.  One declaration per line:

    structure NAME
    families [photons] [inertials] | families none
    observer NAME [velocity V1 V2 V3] [galilean V1 V2 V3]
        [rotate I J COS SIN] [translate C1 C2 C3 C4]
        [domain AXIS LO HI [closed]]          # LO/HI may be `-inf` / `inf`
        # one velocity or galilean, one translate, one domain per axis;
        # rotate may repeat; see read_domain
    body NAME photon through X1 X2 X3 X4 direction D1 D2 D3
    body NAME inertial through X1 X2 X3 X4 velocity V1 V2 V3
    body NAME piecewise knots X1 X2 X3 X4 , Y1 Y2 Y3 Y4 [, ...]

    Only observer and body lines repeat, with distinct names.  Field
    literals must not contain spaces.
    """
    name = "structure"
    families = ("photons", "inertials")  # without a families line
    observers, bodies = [], []
    for head, args, numbered in declaration_lines(text, _MODEL_FORMAT):
        with numbered:
            if head == "structure":
                name = args[0]
            elif head == "families":
                families = () if args == ["none"] else args
                for w in families:
                    if w not in ("photons", "inertials"):
                        raise ValueError("unknown family %r" % w)
            elif head == "observer":
                observers.append(_parse_observer(args))
            else:  # body
                bodies.append(_parse_body(args))
    return _structure(observers, bodies, "photons" in families, "inertials" in families, name)


# A file format: what an unknown line is called, and each line kind's
# (values, once, declares): the words after the kind (None: its parser
# counts them), how many leading values, in any order, no later line may
# repeat (None: any), and whether its first value declares a body name.
_MODEL_FORMAT = ("declaration", {
    "structure": ("NAME", 0, False), "families": (None, 0, False),
    "observer": (None, None, True), "body": (None, None, True),
})


def declaration_lines(text: str, file_format):
    """(head, args, numbered) for each line of a model, scenario or chart
    file that is not blank once its `#` comment is cut: the first word, the
    other words, and a context to read the line in.  In that context each
    line is checked against file_format (see _MODEL_FORMAT) first: a known
    kind, its count of values, no repeat, no name declared twice.  A
    ValueError or ArithmeticError raised inside ``with numbered:`` becomes
    a ValueError reading `line N: MESSAGE in 'LINE'`."""
    unknown, kinds = file_format
    seen = set()  # the keys of once-only lines (tuples) and declared names
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *args = line.split()
        numbered = _Numbered(lineno, line)
        with numbered:
            if head not in kinds:
                raise ValueError("unknown %s %r" % (unknown, head))
            values, once, declares = kinds[head]
            if values is not None and len(args) != len(values.split()):
                raise ValueError("%s needs one name" % head if values == "NAME" else
                                 "%s needs %d values" % (head, len(values.split())))
            if once is not None:
                key = (head,) + tuple(sorted(args[:once]))
                if key in seen:
                    raise ValueError("%s given twice" % " ".join([head] + args[:once]))
                seen.add(key)
            if declares and args:
                if args[0] in seen:
                    raise ValueError("duplicate body id %r" % args[0])
                seen.add(args[0])
        yield head, args, numbered


class _Numbered:
    """The context of one numbered line, which may be entered again."""

    def __init__(self, lineno: int, line: str):
        self.lineno, self.line = lineno, line

    __enter__ = lambda self: self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, (ValueError, ArithmeticError)):
            raise ValueError("line %d: %s in %r" % (self.lineno, exc, self.line)) from None


# Number of values that follow each observer field keyword.
_OBSERVER_ARITY = {"velocity": 3, "galilean": 3, "rotate": 4, "translate": 4, "domain": 3}


def _parse_observer(words) -> ObserverSpec:
    if not words:
        raise ValueError("observer needs a name")
    name = words[0]
    i = 1
    velocity = (ER(0), ER(0), ER(0))
    rotations: list = []
    trans = (ER(0), ER(0), ER(0), ER(0))
    axes = list(_FULL_DOMAIN.axes)
    galilean = False
    given: set = set()  # single-valued parts already read; `rotate` may repeat

    def once(part):
        if part in given:
            raise ValueError("observer %s given twice" % part)
        given.add(part)

    while i < len(words):
        key = words[i]
        arity = _OBSERVER_ARITY.get(key)
        if arity is None:
            raise ValueError("unknown observer field %r" % key)
        args = words[i + 1:i + 1 + arity]
        if len(args) < arity:
            raise ValueError("observer field %r needs %d values" % (key, arity))
        i += 1 + arity
        if key in ("velocity", "galilean"):
            once("velocity")
            galilean = key == "galilean"
            velocity = tuple(ER(w) for w in args)
            if speed_squared(velocity).compare(1) >= 0:
                raise ValueError("observer speed must be below 1")
        elif key == "rotate":
            a, b = _integer(args[0]), _integer(args[1])
            c, sn = ER(args[2]), ER(args[3])
            if not 1 <= a < b <= 3:
                raise ValueError("rotation plane must satisfy 1 <= I < J <= 3")
            if c * c + sn * sn != 1:
                raise ValueError("rotation needs COS^2 + SIN^2 = 1 exactly")
            rotations.append((a, b, c, sn))
        elif key == "translate":
            once("translation")
            trans = tuple(ER(w) for w in args)
        else:  # domain
            closed = i < len(words) and words[i] == "closed"
            i += closed
            axis, interval = read_domain(args, closed)
            once("domain axis %d" % (axis + 1))
            axes[axis] = interval
    return ObserverSpec(name, velocity, tuple(rotations), trans, ChartDomain(tuple(axes)),
                        galilean)


def _integer(word) -> int:
    try:
        return int(word)
    except ValueError:
        raise ValueError("%r is not an integer" % word) from None


def read_domain(args, closed: bool = False) -> tuple:
    """(axis, Interval) of the clause `domain AXIS LO HI [closed]` of a
    model or chart file, with args its three values and the axis 0-based.
    LO and HI are field literals, or -inf and inf for no bound; `closed`
    keeps the finite ends of this axis only.  An axis out of range, a bad
    bound or an axis that holds no value is a ValueError."""
    axis = _integer(args[0]) - 1
    if not 0 <= axis < 4:
        raise ValueError("domain axis must be 1 to 4")
    ends = []
    for word, which, unbounded in ((args[1], "lower", "-inf"), (args[2], "upper", "inf")):
        try:
            ends.append(None if word == unbounded else ER(word))
        except ExactRealSyntaxError:
            raise ValueError("domain %s bound must be a field literal or %s, got %r"
                             % (which, unbounded, word)) from None
    lo, hi = ends
    iv = Interval(lo, hi, lo is None or not closed, hi is None or not closed)
    if iv.is_empty():
        raise ValueError("domain is empty")
    return axis, iv


# The vector keyword of each straight body kind.
_BODY_VECTOR = {"photon": "direction", "inertial": "velocity"}


def _parse_body(words) -> Body:
    if len(words) < 2:
        raise ValueError("body needs a name and a kind")
    name, kind = words[0], words[1]
    key = _BODY_VECTOR.get(kind)
    if key is not None:
        if len(words) != 11 or words[2] != "through" or words[7] != key:
            raise ValueError("%s body must read 'through X1 X2 X3 X4 %s V1 V2 V3'" % (kind, key))
        point = coord4(*[ER(w) for w in words[3:7]])
        vector = tuple(ER(w) for w in words[8:11])
        if kind == "photon":
            return Body(name, PhotonLine(point, vector))
        return Body(name, InertialLine(point, vector))
    if kind == "piecewise":
        if len(words) < 3 or words[2] != "knots":
            raise ValueError("piecewise body must read 'knots X1 X2 X3 X4 , ...'")
        knots, current = [], []
        for w in words[3:] + [None]:  # None ends the last knot, if one is open
            if w not in (",", None):
                current.append(ER(w))
            elif current or w == ",":
                if len(current) != 4:
                    raise ValueError("knot %d needs 4 coordinates" % (len(knots) + 1))
                knots.append(coord4(*current))
                current = []
        return Body(name, PiecewiseInertial(tuple(knots)))
    raise ValueError("unknown body kind %r" % kind)


def serialize_model(s: Structure) -> str:
    """Canonical text form; parse_model(serialize_model(s)) reproduces s
    for structures made of declarable parts, and a ValueError refuses an
    observer whose chart or domain no observer line declares."""
    lines = ["structure %s" % s.name]
    fams = []
    if s.photon_family:
        fams.append("photons")
    if s.inertial_family:
        fams.append("inertials")
    lines.append("families %s" % (" ".join(fams) if fams else "none"))
    for oid, chart in s.charts.items():
        if not isinstance(chart, AffineMap):
            raise ValueError("cannot serialize numeric chart %r" % oid)
        lines.append(_recover_observer_spec(s, oid, chart))
    lines.extend(_serialize_body(b) for b in s.bodies.values() if b.id not in s.charts)
    return "\n".join(lines) + "\n"


def _recover_observer_spec(s: Structure, oid: str, chart: AffineMap) -> str:
    # Observers serialize as velocity (from the worldline) + the residual
    # linear map after the boost or Galilean shear of that velocity (a pure
    # rotation) + translation.
    body = s.bodies[oid]
    v = body.worldline.velocity
    is_gal = not chart.is_lorentz()
    parts = ["observer %s %s %s" % (oid, "galilean" if is_gal else "velocity", _literals(v))]
    base = _observer_chart(ObserverSpec(oid, v, galilean=is_gal))
    residual = chart.compose(base.inverse())
    for (i, j, c, sn) in _extract_plane_rotations(residual.linear):
        parts.append("rotate %d %d %s" % (i, j, _literals((c, sn))))
    tr = residual.translation
    if any(not c.is_zero() for c in tr):
        parts.append("translate %s" % _literals(tr))
    dom = s.domain_of(body)
    for axis, iv in dom._bounded:
        closed = not (iv.hi_open if iv.lo is None else iv.lo_open)
        parts.append("domain %d %s %s%s" % (
            axis + 1, "-inf" if iv.lo is None else _literals([iv.lo]),
            "inf" if iv.hi is None else _literals([iv.hi]), " closed" if closed else ""))
    line = " ".join(parts)
    # The residual may be no rotation, or an axis closed at one finite end
    # only: then the line builds another observer.
    spec = _parse_observer(line.split()[1:])
    if _observer_chart(spec) != chart or spec.domain != dom:
        raise ValueError("cannot serialize chart %r: its observer line builds another" % oid)
    return line


def _extract_plane_rotations(lin) -> list:
    # Decompose a spatial rotation matrix into at most three plane rotations
    # (Givens); exact because pivots are exact.
    out = []
    work = [list(row[:3]) for row in lin[:3]]
    for col in range(2):
        for row in range(col + 1, 3):
            a, b = work[col][col], work[row][col]
            if b.is_zero():
                continue
            r = sqrt(a * a + b * b)
            c, sn = a / r, b / r
            out.append((col + 1, row + 1, c, sn))
            g = [[ER(1 if i == j else 0) for j in range(3)] for i in range(3)]
            g[col][col], g[col][row] = c, sn
            g[row][col], g[row][row] = -sn, c
            work = [[sum((g[i][k] * work[k][j] for k in range(3)), ER(0))
                     for j in range(3)] for i in range(3)]
    # `out` undoes the rotation; the original is the reversed composition.
    return out[::-1]


def _serialize_body(b: Body) -> str:
    w = b.worldline
    if isinstance(w, (PhotonLine, InertialLine)):
        kind = "photon" if isinstance(w, PhotonLine) else "inertial"
        return "body %s %s through %s %s %s" % (
            b.id, kind, _literals(w.point), _BODY_VECTOR[kind], _literals(w.vector))
    if isinstance(w, PiecewiseInertial):
        return "body %s piecewise knots %s" % (b.id, " , ".join(_literals(k) for k in w.knots))
    raise ValueError("cannot serialize worldline of %r" % b.id)


def _literals(values) -> str:
    """The field literals of values, each without spaces, between spaces."""
    return " ".join(c.literal().replace(" ", "") for c in values)


def load_model(path) -> Structure:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())
