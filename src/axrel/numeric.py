"""Float numerics shared by the accelerated-observer and chart layers:
finite differences and the float Lorentz boost.

`velocity_at` is the one derivative of a numeric worldline, defined on
its closed time interval [t_min, t_max] (one-sided at either end).

Every stencil step is a power-of-two multiple of the base step, so
stencil points and quotients round the same way wherever they are used.
The module works on plain floats, component by component, and never
imports numpy: only the chart layer (`axrel.genrel`) needs it, and the
exact commands should not pay for loading it.
"""

from __future__ import annotations

import math

__all__ = [
    "NotDifferentiable", "central_difference", "richardson_derivative",
    "velocity_at", "one_sided_jump", "float_boost", "apply4",
    "require_positive_finite",
]


class NotDifferentiable(ValueError):
    pass


def central_difference(f, x, k: int, h: float, d):
    """k-th central difference quotient of f at x along d with step h;
    f returns numpy arrays (or floats), and so does this."""
    acc = None
    for j in range(k + 1):
        val = math.comb(k, j) * (-1.0) ** (k - j) * f(x + (j - k / 2.0) * h * d)
        acc = val if acc is None else acc + val
    return acc / h ** k


def richardson_derivative(f, t: float, t_min: float, t_max: float) -> tuple:
    """f'(t) of a curve f on [t_min, t_max] as a tuple of floats.

    Inside: central differences at steps 2h and 4h, Richardson-extrapolated,
    with the stencil kept inside the interval.  At t_min or t_max: the
    inward one-sided quotients D(h) and D(2h) combined as 2 D(h) - D(2h),
    also second order.  Raises NotDifferentiable outside the interval."""
    h = min(1e-4, (t_max - t_min) / 16.0)
    if not (t_min <= t - 2 * h and t + 2 * h <= t_max):
        if h > 0 and t in (t_min, t_max):
            # D(s) = (f(t + s) - f(t)) / s with s = +-h pointing inward.
            s = h if t == t_min else -h
            f0 = [float(a) for a in f(t)]
            d1, d2 = ([(float(b) - a) / q for a, b in zip(f0, f(t + q))] for q in (s, 2 * s))
            return tuple(2 * a - b for a, b in zip(d1, d2))
        h = min(t - t_min, t_max - t) / 2.0
        if h <= 0:
            raise NotDifferentiable("cannot differentiate outside the domain")

    def quotient(step):
        lo, hi = f(t - step / 2), f(t + step / 2)
        return [(float(b) - float(a)) / step for a, b in zip(lo, hi)]

    coarse, fine = quotient(4 * h), quotient(2 * h)
    return tuple((4 * d2 - d4) / 3.0 for d2, d4 in zip(fine, coarse))


def velocity_at(w, t: float) -> tuple:
    """Velocity of the numeric worldline w (a SmoothNumeric) at t: its
    analytic velocity if it has one, else richardson_derivative, which
    answers on all of [t_min, t_max]."""
    if w.velocity is not None:
        return tuple(w.velocity(t))
    return richardson_derivative(w.position, t, w.t_min, w.t_max)


def one_sided_jump(f, x, h: float, d) -> float:
    """max |right - left| of f's one-sided difference quotients at x along
    d with step h: near 0 where f is differentiable, large at a kink."""
    gx = [float(c) for c in f(x)]
    hi = [float(c) for c in f(x + h * d)]
    lo = [float(c) for c in f(x - h * d)]
    jumps = [abs((b - c) / h - (c - a) / h) for a, c, b in zip(lo, gx, hi)]
    # A NaN component makes the jump NaN, whatever its position.
    return math.nan if any(math.isnan(j) for j in jumps) else max(jumps)


def require_positive_finite(what: str, value: float) -> None:
    """ValueError naming `what` unless value is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError("%s must be a positive finite number, got %g" % (what, value))


def float_boost(v):
    v2 = sum(c * c for c in v)
    if v2 == 0.0:
        return [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    g = 1.0 / math.sqrt(1.0 - v2)
    m = [[0.0] * 4 for _ in range(4)]
    for i in range(3):
        for j in range(3):
            m[i][j] = (1.0 if i == j else 0.0) + (g - 1.0) * v[i] * v[j] / v2
        m[i][3] = -g * v[i]
        m[3][i] = -g * v[i]
    m[3][3] = g
    return m


def apply4(m, x):
    return tuple(sum(m[i][j] * x[j] for j in range(4)) for i in range(4))
