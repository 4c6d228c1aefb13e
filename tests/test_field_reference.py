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

``ExactReal._unified`` now lifts through tower-pair plans; ``_ref_lift``
and ``_ref_unified`` are the recursive lift and the same/prefix checks
they replaced, and every pair of towers must unify to the same tower (in
the same order), the same trees and the same literals.
"""

import random
import sys
from fractions import Fraction as Fr

import pytest
from hypothesis import Phase, given, settings, strategies as st

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


def _ref_truediv(x, y):
    # The tree path of ExactReal.__truediv__: both operands over one tower,
    # then a product with the inverse tree.
    tower, a, b = x._unified(y)
    level = len(tower)
    return ExactReal(tower, field._tree_mul(a, field._tree_inv(b, tower, level), tower, level))


@pytest.mark.parametrize("name", sorted(TOWERS))
@pytest.mark.parametrize("seed", [0, 1])
def test_division_with_a_rational_operand_matches_the_tree_path(name, seed):
    tower = TOWERS[name]
    rng = random.Random("div/%s/%d" % (name, seed))
    for _ in range(12):
        x = ExactReal(tower, _operand(rng, len(tower)))
        q = ER(Fr(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7)))
        _assert_same_value(x / q, _ref_truediv(x, q))
        if not x.is_zero():
            for r in (q, ER(0)):
                _assert_same_value(r / x, _ref_truediv(r, x))


def test_division_by_a_rational_inverts_no_tree(monkeypatch):
    # x / q scales x's leaves by 1/q; q / x inverts x once.
    calls = []
    inv = field._tree_inv
    monkeypatch.setattr(field, "_tree_inv", lambda *args: calls.append(args) or inv(*args))
    for tower in TOWERS.values():
        x = ExactReal(tower, _rand_tree(random.Random(len(tower)), len(tower), 1.0))
        assert x.level == len(tower)
        x / ER(Fr(-3, 7))
        assert calls == []
        ER(Fr(-3, 7)) / x
        assert len(calls) > 0
        calls.clear()


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


# ---------------------------------------------------------------------------
# Tower unification against the recursive lift that tower-pair plans replaced.


def _ref_lift(value, tower):
    if value.is_rational():
        return tower, _tree_const(value._rep, len(tower))
    sub = ExactReal(value._tower[:-1], value._rep[0], _normalize=False)
    rad = value._tower[-1]
    coeff = ExactReal(value._tower[:-1], value._rep[1], _normalize=False)
    tower, rad_rep = _ref_lift(rad, tower)
    tower, root_rep = ExactReal._sqrt_rep(rad_rep, tower)
    tower, sub_rep = _ref_lift(sub, tower)
    tower, coeff_rep = _ref_lift(coeff, tower)
    level = len(tower)
    root_rep = _tree_promote(root_rep, ExactReal._rep_level(root_rep), level)
    sub_rep = _tree_promote(sub_rep, ExactReal._rep_level(sub_rep), level)
    coeff_rep = _tree_promote(coeff_rep, ExactReal._rep_level(coeff_rep), level)
    return tower, field._tree_add(sub_rep, field._tree_mul(coeff_rep, root_rep, tower, level), level)


def _ref_prefix(short, tower):
    return len(short) <= len(tower) and all(ExactReal._radicands_eq(a, b) for a, b in zip(short, tower))


def _ref_unified(x, y):
    if x._tower is y._tower or (len(x._tower) == len(y._tower) and _ref_prefix(x._tower, y._tower)):
        return x._tower, x._rep, y._rep
    if _ref_prefix(y._tower, x._tower):
        return x._tower, x._rep, _tree_promote(y._rep, y.level, x.level)
    if _ref_prefix(x._tower, y._tower):
        return y._tower, _tree_promote(x._rep, x.level, y.level), y._rep
    tower, yrep = _ref_lift(y, x._tower)
    return tower, _tree_promote(x._rep, x.level, len(tower)), yrep


def _lift_towers():
    """Towers at levels 1-3: radicands 2, 3, 6 and 8, where a new radicand
    is a product of earlier ones times a square; 3/4 and 21/25 in both
    orders; and the nested radicands 1 + sqrt(2) and 7 + 5*sqrt(2) =
    (1 + sqrt(2))^3, whose roots lift into each other's towers as sums."""
    r = {q: sqrt(ER(q)) for q in (2, 3, 6, 8, Fr(3, 4), Fr(21, 25))}
    nested, cubed = sqrt(1 + r[2]), sqrt(7 + 5 * r[2])
    values = {
        "2": r[2], "3": r[3], "6": r[6], "8": r[8], "3/4": r[Fr(3, 4)],
        "2,3": r[2] + r[3], "3,2": r[3] + r[2], "6,2": r[6] + r[2], "8,3": r[8] + r[3],
        "6,3": r[6] + r[3], "3/4,21/25": r[Fr(3, 4)] + r[Fr(21, 25)],
        "21/25,3/4": r[Fr(21, 25)] + r[Fr(3, 4)], "2,3,21/25": r[2] + r[3] + r[Fr(21, 25)],
        "21/25,3/4,2": r[Fr(21, 25)] + r[Fr(3, 4)] + r[2],
        "2,1+sqrt2": nested, "2,7+5sqrt2": cubed, "2,1+sqrt2,3": nested + r[3],
    }
    for name, value in values.items():
        assert value.level == name.count(",") + 1, name
    return {name: value.tower for name, value in values.items()}


LIFT_TOWERS = _lift_towers()
_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)


def _tree_of(leaves):
    # Leaf i is the coefficient of the product of the roots at the set bits of i.
    while len(leaves) > 1:
        leaves = [(leaves[i], leaves[i + 1]) for i in range(0, len(leaves), 2)]
    return leaves[0]


@settings(derandomize=True, max_examples=10, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(st.data())
def test_plan_lifts_match_the_recursive_lift(data):
    # One value per tower, each with a nonzero top leaf so that it keeps its
    # whole tower, then every ordered pair: lifts, prefixes and equal towers.
    values = []
    for tower in LIFT_TOWERS.values():
        leaves = data.draw(st.lists(_fractions, min_size=(1 << len(tower)) - 1,
                                    max_size=(1 << len(tower)) - 1))
        values.append(ExactReal(tower, _tree_of(leaves + [data.draw(_fractions.filter(bool))])))
    for x in values:
        for y in values:
            tower, xrep, yrep = x._unified(y)
            ref_tower, ref_x, ref_y = _ref_unified(x, y)
            assert [r.literal() for r in tower] == [r.literal() for r in ref_tower]
            assert all(map(ExactReal._radicands_eq, tower, ref_tower))
            level = len(tower)
            _assert_same_tree(xrep, ref_x, level)
            _assert_same_tree(yrep, ref_y, level)
            _assert_same_value(x + y, ExactReal(ref_tower, field._tree_add(ref_x, ref_y, level)))
            _assert_same_value(x * y, ExactReal(ref_tower, field._tree_mul(ref_x, ref_y, ref_tower, level)))


def test_a_nested_root_lifts_as_a_linear_combination():
    # sqrt(7 + 5*sqrt(2)) = (1 + sqrt(2))*sqrt(1 + sqrt(2)): two leaves.
    target, source = LIFT_TOWERS["2,1+sqrt2"], LIFT_TOWERS["2,7+5sqrt2"]
    for s, t in ((source, target), (target, source)):
        tower, images = ExactReal._plan(s, t)
        assert len(tower) == 2 and max(map(len, images)) == 2
    x = ExactReal(source, ((Fr(1), Fr(-2)), (Fr(3, 2), Fr(1, 3))))
    y = ExactReal(target, ((Fr(0), Fr(1)), (Fr(-1), Fr(5))))
    for p, q in ((x, y), (y, x)):
        tower, prep, qrep = _ref_unified(p, q)
        _assert_same_value(p + q, ExactReal(tower, field._tree_add(prep, qrep, len(tower))))
