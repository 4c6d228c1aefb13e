"""The shared finite differences against the helpers they replaced.

Each reference below is a verbatim copy of the float arithmetic that
`accel` and `genrel` carried before `axrel.numeric` existed; results must
be equal bit for bit, so any regrouping of the arithmetic fails here.
`_reference_one_sided` is the end-of-interval formula of
`richardson_derivative`'s docstring, written out the same way.
"""

import math
import random

import numpy as np
import pytest

from axrel.numeric import (
    NotDifferentiable, central_difference, one_sided_jump, richardson_derivative,
)


def _reference_central_diff(f, p, d, k, h):
    coeffs = [math.comb(k, j) * (-1.0) ** (k - j) for j in range(k + 1)]
    acc = None
    for j, c in enumerate(coeffs):
        x = p + (j - k / 2.0) * h * d
        val = c * f(x)
        acc = val if acc is None else acc + val
    return acc / h ** k


def _reference_central(position, t, h):
    p0, p1 = position(t - h), position(t + h)
    return tuple((b - a) / (2 * h) for a, b in zip(p0, p1))


def _reference_richardson(position, t_min, t_max, t):
    h = min(1e-4, (t_max - t_min) / 16.0)
    if not (t_min <= t - 2 * h and t + 2 * h <= t_max):
        h = min(t - t_min, t_max - t) / 2.0
        if h <= 0:
            raise NotDifferentiable("cannot differentiate at the domain edge")
    coarse = _reference_central(position, t, 2 * h)
    fine = _reference_central(position, t, h)
    return tuple((4 * f - c) / 3.0 for f, c in zip(fine, coarse))


def _reference_kink_tuples(ref_line, tf, h):
    left = tuple((b - a) / h for a, b in zip(ref_line(tf - h), ref_line(tf)))
    right = tuple((b - a) / h for a, b in zip(ref_line(tf), ref_line(tf + h)))
    return max(abs(l - r) for l, r in zip(left, right))


def _reference_kink_arrays(f, p, h0, d):
    right = (f(p + h0 * d) - f(p)) / h0
    left = (f(p) - f(p - h0 * d)) / h0
    return float(np.max(np.abs(right - left)))


def _smooth_map(rng):
    a = [rng.uniform(-2, 2) for _ in range(8)]
    return lambda x: np.asarray((
        math.sin(a[0] * x[0]) + a[1] * x[3] ** 3,
        math.exp(0.3 * x[1]) * a[2] + x[0] * x[2],
        a[3] * x[2] ** 2 - math.cos(a[4] * x[3]),
        a[5] * x[0] + a[6] * x[1] * x[3] + a[7],
    ), dtype=float)


def _smooth_curve(rng):
    a = [rng.uniform(-1, 1) for _ in range(6)]
    return lambda t: (a[0] * t + 0.1 * math.sin(a[1] * t), a[2] * t * t / 7,
                      math.cos(a[3] * t) * a[4] + a[5])


def _floats(values):
    return tuple(float(v) for v in values)


@pytest.mark.parametrize("seed", range(6))
def test_central_difference_matches_reference(seed):
    rng = random.Random(seed)
    f = _smooth_map(rng)
    p = np.array([rng.uniform(-1, 1) for _ in range(4)])
    for axis in range(4):
        d = np.eye(4)[axis]
        for k in range(1, 10):
            for h in (1e-2, 5e-3, 2.5e-3):
                got = central_difference(f, p, k, h, d)
                assert _floats(got) == _floats(_reference_central_diff(f, p, d, k, h))


@pytest.mark.parametrize("seed", range(6))
def test_richardson_derivative_matches_reference(seed):
    rng = random.Random(100 + seed)
    position = _smooth_curve(rng)
    t_min, t_max = -rng.uniform(0.5, 3), rng.uniform(0.5, 3)
    times = [rng.uniform(t_min, t_max) for _ in range(5)]
    # Near either edge the step shrinks to keep the stencil inside.
    times += [t_min + 1e-5, t_max - 3e-5, t_min + 2e-4, t_max - 1e-9]
    for t in times:
        got = richardson_derivative(position, t, t_min, t_max)
        assert all(type(v) is float for v in got)
        assert got == _reference_richardson(position, t_min, t_max, t)


@pytest.mark.parametrize("t", [-1.0 - 1e-12, -1.5, 2.0 + 1e-12, 3.0])
def test_richardson_derivative_raises_outside_the_interval(t):
    with pytest.raises(NotDifferentiable):
        richardson_derivative(lambda u: (u, 0.0, 0.0), t, -1.0, 2.0)


def _reference_one_sided(position, t, s):
    # 2 D(s) - D(2s) with D(s) = (f(t + s) - f(t)) / s: second order.
    p0, p1, p2 = position(t), position(t + s), position(t + 2 * s)
    return tuple(2 * ((b - a) / s) - (c - a) / (2 * s) for a, b, c in zip(p0, p1, p2))


@pytest.mark.parametrize("seed", range(6))
def test_richardson_derivative_at_the_edges_is_the_one_sided_pair(seed):
    rng = random.Random(300 + seed)
    position = _smooth_curve(rng)
    t_min, t_max = -rng.uniform(0.5, 3), rng.uniform(0.5, 3)
    h = min(1e-4, (t_max - t_min) / 16.0)
    for t, s in ((t_min, h), (t_max, -h)):
        got = richardson_derivative(position, t, t_min, t_max)
        assert all(type(v) is float for v in got)
        assert got == _reference_one_sided(position, t, s)


@pytest.mark.parametrize("t_min, t_max", [(-3.0, 3.0), (-1.0, 2.0), (0.0, 0.5)])
def test_richardson_derivative_at_the_edges_is_accurate(t_min, t_max):
    position = lambda u: (0.5 * u + 0.1 * math.sin(u), u * u / 7, math.cos(2 * u))
    velocity = lambda u: (0.5 + 0.1 * math.cos(u), 2 * u / 7, -2 * math.sin(2 * u))
    for t in (t_min, t_max):
        got = richardson_derivative(position, t, t_min, t_max)
        assert max(abs(a - b) for a, b in zip(got, velocity(t))) <= 1e-7


@pytest.mark.parametrize("seed", range(6))
def test_one_sided_jump_matches_both_references(seed):
    rng = random.Random(200 + seed)
    f = _smooth_map(rng)
    curve = _smooth_curve(rng)
    ref_line = lambda u: tuple(curve(u)) + (1.1 * u,)
    for _ in range(4):
        tf = rng.uniform(-1, 1)
        for h in (2 ** -14, 2 ** -8):
            assert one_sided_jump(ref_line, tf, h, 1.0) == _reference_kink_tuples(ref_line, tf, h)
        p = np.array([rng.uniform(-1, 1) for _ in range(4)])
        for axis in range(4):
            d = np.eye(4)[axis]
            assert one_sided_jump(f, p, 1e-2, d) == _reference_kink_arrays(f, p, 1e-2, d)


def test_one_sided_jump_sees_a_kink():
    assert one_sided_jump(lambda u: (abs(u), 0.0), 0.0, 1e-3, 1.0) == 2.0


@pytest.mark.parametrize("axis", range(4))
def test_one_sided_jump_propagates_nan_like_np_max(axis):
    # A metric or transform that is undefined at a stencil point gives a
    # NaN component; np.max turns it into a NaN jump wherever it sits.
    def f(x):
        out = np.asarray(x, dtype=float) * 2.0
        if x[axis] > 0.5:
            out[axis] = math.nan
        return out

    p, d = np.full(4, 0.5), np.eye(4)[axis]
    assert math.isnan(_reference_kink_arrays(f, p, 1e-2, d))
    assert math.isnan(one_sided_jump(f, p, 1e-2, d))
