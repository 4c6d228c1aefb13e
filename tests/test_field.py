import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from axrel import field
from axrel.field import (
    ApproxReal, DivisionByZero, ER, ExactReal, NegativeRadicand, parse_exact,
    sqrt,
)

rationals = st.fractions(
    min_value=Fr(-20), max_value=Fr(20), max_denominator=12)

# Small tower values: rationals plus square roots of small positives,
# combined once, keeps towers shallow enough for fast exact arithmetic.
radicands = st.sampled_from([2, 3, 5, 6, 7, Fr(1, 2), Fr(7, 5), 10])


@st.composite
def tower_values(draw):
    base = draw(rationals)
    if draw(st.booleans()):
        rad = draw(radicands)
        coeff = draw(rationals)
        return ER(base) + ER(coeff) * sqrt(ER(rad))
    return ER(base)


def test_rational_addition():
    assert ER(Fr(1, 2)) + ER(Fr(1, 3)) == ER(Fr(5, 6))


def test_sqrt_defining_identity():
    r2 = sqrt(ER(2))
    assert r2 * r2 == ER(2)


def test_rational_product():
    assert ER(Fr(3, 5)) * ER(Fr(4, 5)) == ER(Fr(12, 25))


def test_sqrt_perfect_square_stays_rational():
    r = sqrt(ER(Fr(16, 25)))
    assert r.is_rational()
    assert r.as_fraction() == Fr(4, 5)


def test_sqrt_zero():
    assert sqrt(ER(0)) == ER(0)


def test_sqrt_two_extends_tower():
    r2 = sqrt(ER(2))
    assert r2.level == 1
    assert r2 * r2 == ER(2)  # oracle: exact squaring


def test_compare_sqrt2_against_3_halves():
    # oracle: 2 < 9/4 by exact squaring
    assert (Fr(3, 2) * Fr(3, 2)) > 2
    assert sqrt(ER(2)).compare(ER(Fr(3, 2))) == -1


def test_compare_equal_after_arithmetic():
    assert (sqrt(ER(2)) * sqrt(ER(2))).compare(ER(2)) == 0


def test_compare_rationals():
    assert ER(Fr(4, 5)).compare(ER(1)) == -1


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        ER(1) / (sqrt(ER(2)) - sqrt(ER(2)))


def test_negative_radicand():
    with pytest.raises(NegativeRadicand):
        sqrt(ER(-1))


def test_nested_radicals_denest():
    # sqrt(3 + 2*sqrt(2)) = 1 + sqrt(2)
    assert sqrt(ER(3) + 2 * sqrt(ER(2))) == 1 + sqrt(ER(2))


def test_fourth_root_tower():
    q = sqrt(sqrt(ER(2)))
    assert q.level == 2
    assert q * q * q * q == ER(2)


def test_cross_tower_product():
    assert sqrt(ER(5)) * sqrt(ER(2)) == sqrt(ER(10))


def test_lorentz_factor_exact():
    v = ER(Fr(3, 5))
    assert 1 / sqrt(1 - v * v) == ER(Fr(5, 4))


@given(tower_values(), tower_values(), tower_values())
@settings(max_examples=60, deadline=None)
def test_ordered_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if a < b:
        assert a + c < b + c
    if ER(0) < a and ER(0) < b:
        assert ER(0) < a * b


@given(tower_values(), tower_values())
@settings(max_examples=60, deadline=None)
def test_exact_inverses(a, b):
    assert (a + b) - b == a
    if not b.is_zero():
        assert (a * b) / b == a


@given(tower_values())
@settings(max_examples=40, deadline=None)
def test_sqrt_of_square(a):
    assert sqrt(a * a) == abs(a)


@given(tower_values(), tower_values(), tower_values())
@settings(max_examples=40, deadline=None)
def test_order_transitive_antisymmetric(a, b, c):
    if a < b and b < c:
        assert a < c
    assert not (a < b and b < a)


@given(tower_values())
@settings(max_examples=30, deadline=None)
def test_approx_contains_exact(a):
    box = ApproxReal.from_exact(a)
    assert box.contains(a)
    assert box.width <= Fr(1, 2 ** 100)


@given(tower_values())
@settings(max_examples=30, deadline=None)
def test_literal_round_trip(a):
    assert parse_exact(a.literal()) == a


def test_literal_grammar_examples():
    assert parse_exact("3/5") == ER(Fr(3, 5))
    assert parse_exact("sqrt(1 - 9/25)") == ER(Fr(4, 5))
    assert parse_exact("1/2*sqrt(2) + 1") == 1 + sqrt(ER(2)) / 2


def test_decimal_rendering():
    assert ER(Fr(3, 5)).decimal_str() == "0.600000000000"
    # 2*sqrt(40001) = 400.00499996875...
    assert (2 * sqrt(ER(40001))).decimal_str() == "400.004999969"


def test_interval_refinement_sign():
    # sign of a tiny but nonzero difference resolves exactly
    tiny = sqrt(ER(2)) * sqrt(ER(8)) - ER(4)
    assert tiny.sign() == 0
    near = sqrt(ER(Fr(99999999, 100000000)))
    assert (near - 1).sign() == -1


def test_rational_fast_path_matches_fraction_arithmetic():
    rng = random.Random(17)
    for _ in range(300):
        a = Fr(rng.randint(-50, 50), rng.randint(1, 12))
        b = Fr(rng.randint(-50, 50), rng.randint(1, 12))
        x, y = ER(a), ER(b)
        for got, want in ((x + y, a + b), (x - y, a - b), (x * y, a * b),
                          (a + y, a + b), (a - y, a - b), (a * y, a * b)):
            assert got.is_rational() and got.as_fraction() == want
        assert x.compare(y) == (a > b) - (a < b)
        assert x.sign() == (a > 0) - (a < 0)
        assert (x < y, x <= y, x == y, x != y, x >= y, x > y) == \
            (a < b, a <= b, a == b, a != b, a >= b, a > b)
        if b:
            assert (x / y).as_fraction() == a / b
            assert (a / y).as_fraction() == a / b
        else:
            with pytest.raises(DivisionByZero):
                x / y


# Literals of mixed rational/tower operations, as the tree path printed
# them before rational operands got their own path.
MIXED_LITERALS = [
    (lambda r2, r3: ER(Fr(3, 5)) + r2, "3/5 + sqrt(2)"),
    (lambda r2, r3: r2 - Fr(1, 3), "-1/3 + sqrt(2)"),
    (lambda r2, r3: Fr(1, 3) - r2, "1/3 - sqrt(2)"),
    (lambda r2, r3: 2 * r3, "2*sqrt(3)"),
    (lambda r2, r3: ER(1) / r2, "1/2*sqrt(2)"),
    (lambda r2, r3: r2 / 4, "1/4*sqrt(2)"),
    (lambda r2, r3: r2 * r2 - 1, "1"),
    (lambda r2, r3: (1 + r2) / Fr(3, 4), "4/3 + 4/3*sqrt(2)"),
    (lambda r2, r3: r2 * r3 + Fr(1, 2), "1/2 + sqrt(2)*sqrt(3)"),
    (lambda r2, r3: sqrt(r2) * 2 - 1, "-1 + 2*sqrt(sqrt(2))"),
    (lambda r2, r3: (r2 + r3) * (r2 - r3), "-1"),
    (lambda r2, r3: 1 / sqrt(1 - ER(Fr(9, 25))), "5/4"),
    (lambda r2, r3: Fr(7, 2) / (r3 - 1), "7/4 + 7/4*sqrt(3)"),
]


@pytest.mark.parametrize("make, literal", MIXED_LITERALS)
def test_mixed_rational_tower_literals_unchanged(make, literal):
    value = make(sqrt(ER(2)), sqrt(ER(3)))
    assert value.literal() == literal
    assert value.is_rational() == ("sqrt" not in literal)


def _tree_path(op, x, y):
    # The general path: unify the towers, then combine whole trees.
    if op == "-":
        op, y = "+", -y
    tower, a, b = x._unified(y)
    level = len(tower)
    if op == "+":
        return ExactReal(tower, field._tree_add(a, b, level))
    return ExactReal(tower, field._tree_mul(a, b, tower, level))


def _seeded_tower_value(rng, level):
    q = lambda: Fr(rng.randint(-20, 20), rng.randint(1, 9))
    if level == 2 and rng.random() < 0.5:
        # a nested radicand: tower (2, 1 + sqrt(2))
        value = ER(q()) + ER(q() or 1) * sqrt(1 + sqrt(ER(2))) + ER(q()) * sqrt(ER(2))
    else:
        value = ER(q()) + ER(q() or 1) * sqrt(ER(rng.choice([2, 3, Fr(5, 7)])))
        if level == 2:
            value = value + ER(q() or 1) * sqrt(ER(11)) * value
    assert value.level == level
    return value


def test_mixed_fast_path_matches_tree_path():
    rng = random.Random(23)
    ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}
    for trial in range(120):
        t = _seeded_tower_value(rng, 1 + trial % 2)
        q = ER(Fr(rng.randint(-9, 9), rng.randint(1, 5)) if trial % 10 else 0)
        for op, x, y in [(op, t, q) for op in ops] + [(op, q, t) for op in ops]:
            got, want = ops[op](x, y), _tree_path(op, x, y)
            assert len(got._tower) == len(want._tower)
            assert all(a is b for a, b in zip(got._tower, want._tower)), (op, x, y)
            assert got._rep == want._rep, (op, x, y)
            assert got.literal() == want.literal()


def test_zero_scale_normalizes_to_rational_zero():
    t = 1 + sqrt(ER(2)) * sqrt(ER(3))
    for value in (t * 0, 0 * t, ER(0) * t, t * ER(0), t - t, (t - 1) * 0 - 0):
        assert value.is_rational() and value.tower == () and value._rep == 0
        assert value.literal() == "0"


def test_two_boost_map_plans_each_tower_pair_once(monkeypatch):
    # Counts plans, not time.  The map's entries lie over (3/4, 8/9) and
    # (8/9, 3/4); its first apply, at a point with no zero coordinate, meets
    # every pair of their towers.  Later points and the mu checks only find
    # those plans; the recursive lift they replaced ran again for each
    # unification (about 2100 calls a round of the exact-sweeps benchmark).
    from axrel.kinematics import PoincareMap, boost, check_mu_invariance, coord4, plane_rotation

    monkeypatch.setattr(field, "_PLAN_MEMO", {})
    m = plane_rotation(1, 2, Fr(3, 5), Fr(4, 5)).compose(boost((Fr(1, 2), 0, 0))) \
        .compose(boost((0, Fr(1, 3), 0)))
    w = PoincareMap(m.linear, (ER(1), ER(Fr(-2, 3)), ER(0), ER(Fr(5, 2))))
    towers = {tuple(r.literal() for r in e.tower) for row in w.linear for e in row}
    assert {("3/4", "8/9"), ("8/9", "3/4")} <= towers
    first = coord4(Fr(1, 2), -3, Fr(5, 4), 2)
    w.apply(first)
    planned = len(field._PLAN_MEMO)
    assert planned > 0
    rng = random.Random(17)
    for _ in range(8):
        x = coord4(*[Fr(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4)])
        w.apply(x)
        assert check_mu_invariance(w, first, x)
    assert len(field._PLAN_MEMO) == planned


def test_tower_pair_plan_memo_is_capped(monkeypatch):
    monkeypatch.setattr(field, "_PLAN_MEMO", {})
    monkeypatch.setattr(field, "_PLAN_MEMO_CAP", 3)
    base = sqrt(ER(2))
    for n in range(3, 10):
        assert (base + sqrt(ER(n))) * sqrt(ER(n)) == sqrt(ER(2 * n)) + n
        assert 1 <= len(field._PLAN_MEMO) <= 3


# The rational kernel against Fraction's own operators.  Numerators reach
# 0 and both signs, denominators both signs, and both go past 2**64.
kernel_ints = st.one_of(
    st.integers(-50, 50),
    st.integers(-2 ** 80, 2 ** 80),
    st.sampled_from([2 ** 64, -2 ** 64, 2 ** 64 + 1, 3 ** 41, -(2 ** 127 - 1)]),
)
kernel_fractions = st.builds(Fr, kernel_ints, kernel_ints.filter(bool))


def _same_fraction(got, want):
    assert type(got) is Fr
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert type(got.numerator) is int and type(got.denominator) is int
    assert hash(got) == hash(want)
    assert str(got) == str(want)
    assert got == want


@given(kernel_fractions, kernel_fractions)
@settings(max_examples=300, deadline=None)
def test_rational_kernel_matches_fraction_operators(a, b):
    _same_fraction(field._q(a.numerator, a.denominator), a)
    _same_fraction(field._q_add(a, b), a + b)
    _same_fraction(field._q_sub(a, b), a - b)
    _same_fraction(field._q_mul(a, b), a * b)
    if b:
        _same_fraction(field._q_div(a, b), a / b)
    # The level-0 leaves of the tree routines and the rational fast paths.
    _same_fraction(field._tree_neg(a, 0), -a)
    if a:
        _same_fraction(field._tree_inv(a, (), 0), 1 / a)
    _same_fraction(field._tree_add(a, b, 0), a + b)
    _same_fraction(field._tree_add_const(a, b, 0), a + b)
    _same_fraction(field._tree_scale(a, b, 0), a * b)
    _same_fraction(field._tree_mul(a, b, (), 0), a * b)
    assert field._tree_is_zero(a, 0) == (a == 0)
    x, y = ER(a), ER(b)
    for got, want in ((x + y, a + b), (x - y, a - b), (x * y, a * b)):
        _same_fraction(got.as_fraction(), want)
    if b:
        _same_fraction((x / y).as_fraction(), a / b)
    assert x.is_zero() == (a == 0)
    assert x.sign() == (a > 0) - (a < 0)
    assert x.compare(y) == (a > b) - (a < b)


@given(kernel_ints, kernel_ints.filter(bool))
@settings(max_examples=200, deadline=None)
def test_from_rational_pair_matches_fraction(n, d):
    _same_fraction(ExactReal.from_rational(n, d).as_fraction(), Fr(n, d))
    _same_fraction(ER(n).as_fraction(), Fr(n))


def test_rational_constructors_keep_their_values():
    half = Fr(6, 4)
    for value, pair in ((ER(True), (1, 1)), (ER(3), (3, 1)), (ER(half), (3, 2)),
                        (ExactReal.from_rational(3, 6), (1, 2)),
                        (ExactReal.from_rational(3, -6), (-1, 2)),
                        (ExactReal.from_rational(0, -5), (0, 1)),
                        (ExactReal.from_rational("3/5"), (3, 5))):
        rep = value.as_fraction()
        assert type(rep) is Fr and (rep.numerator, rep.denominator) == pair
        assert type(rep.numerator) is int
    assert ER(half).as_fraction() is half  # a Fraction is immutable: kept as it is
    with pytest.raises(ZeroDivisionError):
        ExactReal.from_rational(1, 0)
