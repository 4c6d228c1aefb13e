"""The coefficient-tree routines against reference copies of their earlier
versions.

``_tree_add``, ``_tree_scale`` and ``_tree_mul`` now return at once on an
exactly zero leaf, and ``_tree_mul``, ``_tree_inv``, ``_tree_sqrt`` and
``_tree_interval`` scale by a rational radicand instead of promoting it to
a tree.  ``ExactReal.__add__`` and ``__mul__`` return at once when the
rational operand of a mixed sum or product is exactly zero.  The ``_ref_*``
functions below are the versions that did every leaf operation and
promoted every radicand; each rewritten routine must give the same tree
(the same ``Fraction`` leaves), and each value the same tower and the
same ``literal()``, on rational radicands at levels 1-3, nested radicands,
zero and sparse operands and operands promoted from a lower level.
"""

import random
import sys
from fractions import Fraction as Fr

import pytest

from axrel import field
from axrel.field import (
    ER, ExactReal, _frac_sqrt_bounds, _frac_sqrt_exact, _iv_add, _iv_mul, _tree_add_const,
    _tree_const, _tree_is_zero, _tree_neg, _tree_promote, sqrt,
)
from axrel.kinematics import boost, check_mu_invariance, coord4, plane_rotation


# ---------------------------------------------------------------------------
# Reference routines: every leaf operation done, every radicand promoted.


def _ref_tree_add(x, y, level):
    if level == 0:
        return x + y
    k = level - 1
    return (_ref_tree_add(x[0], y[0], k), _ref_tree_add(x[1], y[1], k))


def _ref_tree_scale(t, q, level):
    if level == 0:
        return t * q
    k = level - 1
    return (_ref_tree_scale(t[0], q, k), _ref_tree_scale(t[1], q, k))


def _ref_rad(tower, k):
    r = tower[k]
    return _tree_promote(r._rep, len(r._tower), k)


def _ref_tree_sub(x, y, level):
    return _ref_tree_add(x, _tree_neg(y, level), level)


def _ref_tree_mul(x, y, tower, level):
    if level == 0:
        return x * y
    k = level - 1
    a, b = x
    c, d = y
    rad = _ref_rad(tower, k)
    ac = _ref_tree_mul(a, c, tower, k)
    bd = _ref_tree_mul(b, d, tower, k)
    low = _ref_tree_add(ac, _ref_tree_mul(bd, rad, tower, k), k)
    high = _ref_tree_add(_ref_tree_mul(a, d, tower, k), _ref_tree_mul(b, c, tower, k), k)
    return (low, high)


def _ref_tree_inv(x, tower, level):
    if level == 0:
        return 1 / x
    k = level - 1
    a, b = x
    rad = _ref_rad(tower, k)
    den = _ref_tree_sub(_ref_tree_mul(a, a, tower, k),
                        _ref_tree_mul(_ref_tree_mul(b, b, tower, k), rad, tower, k), k)
    inv_den = _ref_tree_inv(den, tower, k)
    return (_ref_tree_mul(a, inv_den, tower, k), _tree_neg(_ref_tree_mul(b, inv_den, tower, k), k))


def _ref_tree_interval(t, tower, level, bits):
    if level == 0:
        return (t, t)
    k = level - 1
    a, b = t
    ia = _ref_tree_interval(a, tower, k, bits)
    ib = _ref_tree_interval(b, tower, k, bits)
    id_ = _ref_tree_interval(_ref_rad(tower, k), tower, k, bits)
    lo = max(id_[0], Fr(0))
    isq = (_frac_sqrt_bounds(lo, bits)[0], _frac_sqrt_bounds(id_[1], bits)[1])
    return _iv_add(ia, _iv_mul(ib, isq))


def _ref_tree_sign(t, tower, level):
    if _tree_is_zero(t, level):
        return 0
    bits = 32
    while True:
        lo, hi = _ref_tree_interval(t, tower, level, bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


def _ref_tree_sqrt(t, tower, level):
    if level == 0:
        return _frac_sqrt_exact(t)
    k = level - 1
    a, b = t
    rad = _ref_rad(tower, k)
    if _tree_is_zero(b, k):
        s = _ref_tree_sqrt(a, tower, k)
        if s is not None:
            return (s, _tree_const(Fr(0), k))
        if not _tree_is_zero(a, k):
            s = _ref_tree_sqrt(_ref_tree_mul(a, _ref_tree_inv(rad, tower, k), tower, k), tower, k)
            if s is not None:
                cand = (_tree_const(Fr(0), k), s)
                return cand if _ref_tree_sign(cand, tower, level) >= 0 else _tree_neg(cand, level)
        return None
    n2 = _ref_tree_sub(_ref_tree_mul(a, a, tower, k),
                       _ref_tree_mul(_ref_tree_mul(b, b, tower, k), rad, tower, k), k)
    n = _ref_tree_sqrt(n2, tower, k)
    if n is None:
        return None
    half = _tree_const(Fr(1, 2), k)
    for cand2 in (_ref_tree_mul(_ref_tree_add(a, n, k), half, tower, k),
                  _ref_tree_mul(_ref_tree_sub(a, n, k), half, tower, k)):
        x = _ref_tree_sqrt(cand2, tower, k)
        if x is None or _tree_is_zero(x, k):
            continue
        two_x_inv = _ref_tree_inv(_ref_tree_add(x, x, k), tower, k)
        y = _ref_tree_mul(b, two_x_inv, tower, k)
        root = (x, y)
        if _tree_is_zero(_ref_tree_sub(_ref_tree_mul(root, root, tower, level), t, level), level):
            return root if _ref_tree_sign(root, tower, level) >= 0 else _tree_neg(root, level)
    return None


def _ref_add(x: ExactReal, y: ExactReal) -> ExactReal:
    # ExactReal.__add__ with the rational operand added to the constant leaf.
    if not y._tower:
        if not x._tower:
            return ExactReal((), x._rep + y._rep, _normalize=False)
        return ExactReal(x._tower, _tree_add_const(x._rep, y._rep, x.level))
    if not x._tower:
        return ExactReal(y._tower, _tree_add_const(y._rep, x._rep, y.level))
    tower, a, b = x._unified(y)
    return ExactReal(tower, _ref_tree_add(a, b, len(tower)))


def _ref_mul(x: ExactReal, y: ExactReal) -> ExactReal:
    # ExactReal.__mul__ with the rational operand scaling every leaf.
    if not y._tower:
        if not x._tower:
            return ExactReal((), x._rep * y._rep, _normalize=False)
        return ExactReal(x._tower, _ref_tree_scale(x._rep, y._rep, x.level))
    if not x._tower:
        return ExactReal(y._tower, _ref_tree_scale(y._rep, x._rep, y.level))
    tower, a, b = x._unified(y)
    return ExactReal(tower, _ref_tree_mul(a, b, tower, len(tower)))


# ---------------------------------------------------------------------------
# Towers and seeded trees.


def _towers():
    """Named towers: rational radicands at levels 1-3, nested radicands."""
    s2, s3, s5 = sqrt(2), sqrt(3), sqrt(5)
    s23 = s2 + s3
    s235 = s23 + s5
    nested = sqrt(1 + s2)            # tower (2, 1 + sqrt(2))
    nested3 = nested + sqrt(7)       # tower (2, 1 + sqrt(2), 7)
    lorentz = sqrt(1 - ER(Fr(1, 4)) * (1 - s2 / 3))  # a radicand with sqrt(2) in it
    return {
        "Q(sqrt2)": s2._tower,
        "Q(sqrt2,sqrt3)": s23._tower,
        "Q(sqrt2,sqrt3,sqrt5)": s235._tower,
        "Q(sqrt2,sqrt(1+sqrt2))": nested._tower,
        "Q(sqrt2,sqrt(1+sqrt2),sqrt7)": nested3._tower,
        "Q(sqrt2,sqrt(..sqrt2..))": lorentz._tower,
    }


def _rand_tree(rng, level, density):
    if level == 0:
        if rng.random() >= density:
            return Fr(0)
        return Fr(rng.randint(-9, 9), rng.randint(1, 7))
    return (_rand_tree(rng, level - 1, density), _rand_tree(rng, level - 1, density))


def _operand(rng, level):
    """A seeded tree at `level`: dense, sparse, zero, a rational constant, or
    promoted from a lower level."""
    kind = rng.choice(("dense", "sparse", "sparse", "zero", "const", "promoted"))
    if kind == "dense":
        return _rand_tree(rng, level, 1.0)
    if kind == "sparse":
        return _rand_tree(rng, level, 0.3)
    if kind == "zero":
        return _tree_const(Fr(0), level)
    if kind == "const":
        return _tree_const(Fr(rng.randint(-9, 9), rng.randint(1, 7)), level)
    low = rng.randrange(level)
    return _tree_promote(_rand_tree(rng, low, 0.7), low, level)


def _leaves(t, level):
    if level == 0:
        return [t]
    return _leaves(t[0], level - 1) + _leaves(t[1], level - 1)


def _assert_same_tree(new, ref, level):
    assert new == ref
    assert all(type(q) is Fr for q in _leaves(new, level))


def _assert_same_value(new: ExactReal, ref: ExactReal):
    assert [r.literal() for r in new.tower] == [r.literal() for r in ref.tower]
    assert new.level == ref.level
    _assert_same_tree(new._rep, ref._rep, new.level)
    assert new.literal() == ref.literal()


TOWERS = _towers()


@pytest.mark.parametrize("name", sorted(TOWERS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tree_routines_match_the_reference(name, seed):
    tower = TOWERS[name]
    level = len(tower)
    rng = random.Random("%s/%d" % (name, seed))
    for _ in range(25):
        x, y = _operand(rng, level), _operand(rng, level)
        q = Fr(rng.randint(-5, 5), rng.randint(1, 4))
        _assert_same_tree(field._tree_add(x, y, level), _ref_tree_add(x, y, level), level)
        _assert_same_tree(field._tree_scale(x, q, level), _ref_tree_scale(x, q, level), level)
        _assert_same_tree(field._tree_mul(x, y, tower, level), _ref_tree_mul(x, y, tower, level), level)
        for bits in (32, 64):
            assert field._tree_interval(x, tower, level, bits) == _ref_tree_interval(x, tower, level, bits)
        if not _tree_is_zero(x, level):
            _assert_same_tree(field._tree_inv(x, tower, level), _ref_tree_inv(x, tower, level), level)
            assert field._tree_sign(x, tower, level) == _ref_tree_sign(x, tower, level)
            square = _ref_tree_mul(x, x, tower, level)
            for t in (x, square):
                new, ref = field._tree_sqrt(t, tower, level), _ref_tree_sqrt(t, tower, level)
                assert (new is None) == (ref is None)
                if ref is not None:
                    _assert_same_tree(new, ref, level)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_values_match_the_reference(seed, monkeypatch):
    # Values from different towers, so sums and products unify and lift;
    # the reference run patches every rewritten routine back in.
    rng = random.Random(seed)
    towers = list(TOWERS.values())
    values = [ER(0), ER(Fr(3, 5)), ER(-2)]
    for _ in range(14):
        tower = rng.choice(towers)
        values.append(ExactReal(tower, _operand(rng, len(tower))))
    pairs = [(rng.choice(values), rng.choice(values)) for _ in range(30)]

    def run():
        monkeypatch.setattr(field, "_ROOT_MEMO", {})
        out = []
        for x, y in pairs:
            out += [x + y, y + x, x * y, y * x, x - y, x * x + y]
            if not y.is_zero():
                out.append(x / y)
            if x.sign() >= 0:
                out.append(sqrt(x))
            out.append(sqrt(x * x + y * y))
            out.append(ER(x.interval(48)[0]))
        return out

    new = run()
    for name, ref in (("_tree_add", _ref_tree_add), ("_tree_scale", _ref_tree_scale),
                      ("_tree_mul", _ref_tree_mul), ("_tree_inv", _ref_tree_inv),
                      ("_tree_sqrt", _ref_tree_sqrt), ("_tree_interval", _ref_tree_interval),
                      ("_tree_sign", _ref_tree_sign)):
        monkeypatch.setattr(field, name, ref)
    monkeypatch.setattr(ExactReal, "__add__", _ref_add)
    monkeypatch.setattr(ExactReal, "__radd__", _ref_add)
    monkeypatch.setattr(ExactReal, "__mul__", _ref_mul)
    monkeypatch.setattr(ExactReal, "__rmul__", _ref_mul)
    ref = run()
    assert len(new) == len(ref)
    for a, b in zip(new, ref):
        _assert_same_value(a, b)


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_mixed_sum_and_product_with_rational_zero(name):
    tower = TOWERS[name]
    x = ExactReal(tower, _rand_tree(random.Random(name), len(tower), 0.6))
    zero = ER(0)
    for new, ref in ((x + zero, _ref_add(x, zero)), (zero + x, _ref_add(zero, x)),
                     (x * zero, _ref_mul(x, zero)), (zero * x, _ref_mul(zero, x)),
                     (x - zero, _ref_add(x, zero)), (x + 0, _ref_add(x, zero)),
                     (0 * x, _ref_mul(zero, x))):
        _assert_same_value(new, ref)
    assert (x + zero)._tower is x._tower
    assert (x * zero).is_rational() and (x * zero).is_zero()


def test_irrational_mu_invariance_does_no_zero_leaf_work(monkeypatch):
    # Counts the leaf operations of _tree_mul, _tree_scale and _tree_add,
    # which run through the rational kernel's _q_mul and _q_add, and those
    # with an exactly zero operand.  When those routines did every leaf
    # operation and promoted every radicand, this instance did 646 such
    # multiplications and 506 such additions.
    m = plane_rotation(1, 2, Fr(3, 5), Fr(4, 5)).compose(boost((Fr(1, 2), 0, 0))) \
        .compose(boost((0, Fr(1, 3), 0)))
    assert m.linear[3][3].level == 2
    x = coord4(Fr(1, 2), -3, Fr(5, 4), 2)
    y = coord4(-1, Fr(2, 3), 0, Fr(-7, 6))
    m.apply(x)  # builds the map's integer-form marker outside the count
    leaf_ops = {"mul": 0, "add": 0}
    zero_ops = {"mul": 0, "add": 0}
    leaf_routines = {"mul": ("_tree_mul", "_tree_scale"), "add": ("_tree_add",)}

    def counting(kind, real):
        def op(a, b):
            if sys._getframe(1).f_code.co_name in leaf_routines[kind]:
                leaf_ops[kind] += 1
                if not a or not b:
                    zero_ops[kind] += 1
            return real(a, b)
        return op

    monkeypatch.setattr(field, "_q_mul", counting("mul", field._q_mul))
    monkeypatch.setattr(field, "_q_add", counting("add", field._q_add))
    assert check_mu_invariance(m, x, y)
    assert leaf_ops["mul"] > 0 and leaf_ops["add"] > 0  # the count saw the leaves
    assert zero_ops == {"mul": 0, "add": 0}
