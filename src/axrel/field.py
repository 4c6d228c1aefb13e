"""Exact arithmetic for the quantity sort.

Values are elements of a square-root tower over the rationals: a chain
Q = F_0 < F_1 < ... < F_k where F_{i+1} = F_i(sqrt(d_i)) for a positive
radicand d_i in F_i that is not a square there.  Every quantity the
workbench needs (Lorentz factors sqrt(1-v^2), proper times of piecewise
worldlines, suprema of quadratic interval sets) lives in such a tower,
and all of +, -, *, /, sqrt and comparison are exact.

Representation.  An :class:`ExactReal` carries its tower (a tuple of
radicands, each itself an ExactReal over the tower below) and a nested
coefficient tree: at level 0 a ``Fraction``, at level k a pair ``(a, b)``
of level-(k-1) trees denoting ``a + b*sqrt(d_{k-1})``.  Because each
radicand is not a square below it, the representation is canonical and a
value is zero iff every coefficient is zero; that is what makes equality
and division decidable without numerics.

Comparison refines rational interval enclosures (32, 64, 128, ... bits,
with the exact zero test resolving the straddling case) until the sign
of the difference is determined; for nonzero values this terminates.

Rational values (empty tower) take a fast path: when both operands of
+, -, *, / or a comparison are rational, the operation works on the
``Fraction`` reps directly and builds the same value the tree path would.
When exactly one operand of +, -, * or / is rational, the rational is
not promoted to a tree: a product scales every leaf of the other
operand's tree, a sum or difference changes its constant leaf only, x / q
scales x by 1/q and q / x scales x's inverse by q.  The result
keeps the tower operand's tower object and has the same leaves, and the
same normalization (a zero scale gives rational 0), as the tree path.
A rational operand that is exactly 0 returns at once: the tower operand
for +, rational 0 for * and for 0 / x.

Exact zeros and rational radicands cost no arithmetic in the tree
routines.  A leaf product with a zero factor is 0 and a leaf sum with a
zero term is the other term, with no ``Fraction`` operation.  A rational
radicand d_k scales the leaves of the tree it multiplies (or divides, in
a square root) and encloses as (d_k, d_k); only a radicand with a tower
of its own is promoted to a level-k tree.  Every shortcut yields the same
``Fraction`` at every leaf as the full operation (x + 0 = x and x * 0 = 0
exactly, and multiplying by the promoted tree of q scales each leaf by
q), so trees, towers, literals and every printed byte are unchanged.

Tower-pair plans.  When neither of two towers is a prefix of the other,
``_unified`` lifts the second value into the first tower by the pair's
plan, built once: ``_PLAN_MEMO`` maps the ids of the target's and the
source's radicands to the plan and keeps both towers, so the ids stay
valid.  A plan is the unified tower and the image in it of each basis
monomial of the source tower, as (leaf position, rational) pairs; a value
is lifted by scaling its leaves into those positions, a leaf permutation
when every image is one monomial, as for rational radicands.  Building a
plan takes each source root once, in the order of the recursive lift it
replaced.  Bytes are unchanged: that unified tower depends only on the
radicands, not on leaf values, lifting is Q-linear, and trees over a
fixed tower are canonical.  The memo is emptied when full
(``_PLAN_MEMO_CAP``).  Two threads may both miss and store equal
entries; either one serves later lookups.

Leaf arithmetic runs on integer pairs.  A ``Fraction`` is always in lowest
terms with a positive denominator, so a leaf is its ``(numerator,
denominator)`` pair and nothing else.  ``_q_add``, ``_q_sub``, ``_q_mul``
and ``_q_div`` compute that pair with the integer algorithms of
``Fraction``'s own ``_add``, ``_sub``, ``_mul`` and ``_div``, and ``_q``
stores it in a new ``Fraction``'s ``_numerator``/``_denominator`` slots
without running ``Fraction.__new__``; ``_q`` is only ever given a pair
already in lowest terms with a positive denominator.  Zero tests, signs
and rational comparisons read the slots directly (two rationals compare
by integer cross-multiplication).  The pair a helper returns is the pair
the ``Fraction`` operator returns, so every leaf, tree, tower, literal,
verdict and digest is unchanged.  The slots are the same in every Python
this package supports (3.10 and later), so there is no fallback path;
``tests/test_field.py`` pins each helper against ``Fraction``'s operators.

Values are immutable and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Union

__all__ = [
    "ExactReal",
    "ApproxReal",
    "DivisionByZero",
    "NegativeRadicand",
    "ExactRealSyntaxError",
    "ER",
    "sqrt",
    "parse_exact",
    "as_rationals",
]


class DivisionByZero(ZeroDivisionError):
    """Division of an ExactReal by an exact zero."""


class NegativeRadicand(ValueError):
    """sqrt() of a value that is exactly negative."""


class ExactRealSyntaxError(ValueError):
    """Malformed field literal."""


Rational = Union[int, Fraction]

# A coefficient tree: Fraction at level 0, (low, high) pairs above.
_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Rational kernel (module docstring): Fraction results from integer pairs.

def _q(n: int, d: int) -> Fraction:
    # n/d must already be in lowest terms with d > 0.
    q = object.__new__(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def _q_add(a: Fraction, b: Fraction) -> Fraction:
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g = gcd(da, db)
    if g == 1:
        return _q(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _q(t, s * db)
    return _q(t // g2, s * (db // g2))


def _q_sub(a: Fraction, b: Fraction) -> Fraction:
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g = gcd(da, db)
    if g == 1:
        return _q(na * db - da * nb, da * db)
    s = da // g
    t = na * (db // g) - nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _q(t, s * db)
    return _q(t // g2, s * (db // g2))


def _q_mul(a: Fraction, b: Fraction) -> Fraction:
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _q(na * nb, db * da)


def _q_div(a: Fraction, b: Fraction) -> Fraction:
    # b != 0
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g1 = gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = gcd(db, da)
    if g2 > 1:
        da //= g2
        db //= g2
    n, d = na * db, nb * da
    if d < 0:
        return _q(-n, -d)
    return _q(n, d)


def _tree_const(q: Fraction, level: int):
    t = q
    z = _ZERO
    for _ in range(level):
        t = (t, z)
        z = (z, z)
    return t


def _tree_is_zero(t, level: int) -> bool:
    if level == 0:
        return not t._numerator
    return _tree_is_zero(t[0], level - 1) and _tree_is_zero(t[1], level - 1)


def _tree_add(x, y, level: int):
    if level == 0:
        if not x._numerator:
            return y
        return _q_add(x, y) if y._numerator else x
    k = level - 1
    return (_tree_add(x[0], y[0], k), _tree_add(x[1], y[1], k))


def _tree_add_const(t, q: Fraction, level: int):
    # t + q for a rational q: only the constant leaf changes.
    if level == 0:
        return _q_add(t, q)
    return (_tree_add_const(t[0], q, level - 1), t[1])


def _tree_scale(t, q: Fraction, level: int):
    if level == 0:
        return _q_mul(t, q) if t._numerator else _ZERO
    k = level - 1
    return (_tree_scale(t[0], q, k), _tree_scale(t[1], q, k))


def _rad(tower, k: int):
    # Radicands are stored normalized (their own tower may be shorter than
    # the prefix they sit over), so promote the rep tree to level k.
    r = tower[k]
    return _tree_promote(r._rep, len(r._tower), k)


def _tree_mul_rad(t, tower, k: int):
    # t * d_k at level k; a rational radicand scales the leaves.
    r = tower[k]
    if not r._tower:
        return _tree_scale(t, r._rep, k)
    return _tree_mul(t, _rad(tower, k), tower, k)


def _tree_neg(x, level: int):
    if level == 0:
        return _q(-x._numerator, x._denominator) if x._numerator else x
    k = level - 1
    return (_tree_neg(x[0], k), _tree_neg(x[1], k))


def _tree_sub(x, y, level: int):
    return _tree_add(x, _tree_neg(y, level), level)


def _tree_mul(x, y, tower, level: int):
    if level == 0:
        return _q_mul(x, y) if x._numerator and y._numerator else _ZERO
    k = level - 1
    a, b = x
    c, d = y
    ac = _tree_mul(a, c, tower, k)
    bd = _tree_mul(b, d, tower, k)
    low = _tree_add(ac, _tree_mul_rad(bd, tower, k), k)
    high = _tree_add(_tree_mul(a, d, tower, k), _tree_mul(b, c, tower, k), k)
    return (low, high)


def _tree_inv(x, tower, level: int):
    # Caller guarantees x != 0.  At level k, 1/(a+b*sqrt(d)) =
    # (a-b*sqrt(d))/(a^2-b^2 d); the denominator is nonzero because
    # sqrt(d) is not in the field below (canonical tower).
    if level == 0:
        n, d = x._denominator, x._numerator
        return _q(n, d) if d > 0 else _q(-n, -d)
    k = level - 1
    a, b = x
    den = _tree_sub(_tree_mul(a, a, tower, k), _tree_mul_rad(_tree_mul(b, b, tower, k), tower, k), k)
    inv_den = _tree_inv(den, tower, k)
    return (_tree_mul(a, inv_den, tower, k), _tree_neg(_tree_mul(b, inv_den, tower, k), k))


def _tree_promote(t, from_level: int, to_level: int):
    for lvl in range(from_level, to_level):
        t = (t, _tree_const(_ZERO, lvl))
    return t


def _tree_leaves(t, level: int) -> list:
    # Leaf i is the coefficient of the product of sqrt(d_j) over the set bits j of i.
    if level == 0:
        return [t]
    return _tree_leaves(t[0], level - 1) + _tree_leaves(t[1], level - 1)


def _tree_from_leaves(leaves, level: int):
    for _ in range(level):
        it = iter(leaves)
        leaves = list(zip(it, it))
    return leaves[0]


# ---------------------------------------------------------------------------
# Rational interval helpers for sign determination.

def _frac_sqrt_bounds(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    # q >= 0; enclosure of sqrt(q) with width <= 2^-bits (plus rounding slack).
    if not q._numerator:
        return (_ZERO, _ZERO)
    p, d = q.numerator, q.denominator
    scale = 1 << bits
    n = p * d * scale * scale
    r = isqrt(n)
    lo = Fraction(r, d * scale)
    hi = Fraction(r + 1, d * scale)
    return (lo, hi)


def _iv_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _iv_mul(a, b):
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(ps), max(ps))


def _tree_interval(t, tower, level: int, bits: int):
    if level == 0:
        return (t, t)
    k = level - 1
    a, b = t
    ia = _tree_interval(a, tower, k, bits)
    ib = _tree_interval(b, tower, k, bits)
    r = tower[k]
    id_ = _tree_interval(r._rep, r._tower, len(r._tower), bits) if r._tower else (r._rep, r._rep)
    lo = max(id_[0], _ZERO)
    isq = (_frac_sqrt_bounds(lo, bits)[0], _frac_sqrt_bounds(id_[1], bits)[1])
    return _iv_add(ia, _iv_mul(ib, isq))


def _tree_sign(t, tower, level: int) -> int:
    while level and _tree_is_zero(t[1], level - 1):
        t, level = t[0], level - 1  # the same value over the field below
    if not level:
        n = t._numerator
        return (n > 0) - (n < 0)
    bits = 32
    while True:
        lo, hi = _tree_interval(t, tower, level, bits)
        if lo._numerator > 0:
            return 1
        if hi._numerator < 0:
            return -1
        # Still straddling: t is not zero (its top coefficient is not), so
        # keep refining; termination is guaranteed for nonzero values.
        bits *= 2


def _frac_sqrt_exact(q: Fraction):
    n, d = q._numerator, q._denominator
    if n < 0:
        return None
    sp, sq = isqrt(n), isqrt(d)
    if sp * sp == n and sq * sq == d:
        return _q(sp, sq)  # n/d in lowest terms, so sp/sq is too
    return None


def _tree_sqrt(t, tower, level: int):
    """Square root of t within the level's field, or None if not a square.

    Returns the nonnegative root.
    """
    if level == 0:
        return _frac_sqrt_exact(t)
    k = level - 1
    a, b = t
    if _tree_is_zero(b, k):
        s = _tree_sqrt(a, tower, k)
        if s is not None:
            return (s, _tree_const(_ZERO, k))
        # a might be t^2 * d, i.e. sqrt(a) = t*sqrt(d).
        if not _tree_is_zero(a, k):
            r = tower[k]
            a_over_d = (_tree_mul(a, _tree_inv(_rad(tower, k), tower, k), tower, k) if r._tower
                        else _tree_scale(a, 1 / r._rep, k))
            s = _tree_sqrt(a_over_d, tower, k)
            if s is not None:
                cand = (_tree_const(_ZERO, k), s)  # sqrt(d_k) > 0: cand has the sign of s
                return cand if _tree_sign(s, tower, k) >= 0 else _tree_neg(cand, level)
        return None
    # sqrt(a + b*sqrt(d)) = x + y*sqrt(d) requires n = sqrt(a^2 - b^2 d)
    # in the field below, with x^2 in {(a+n)/2, (a-n)/2} and y = b/(2x).
    n2 = _tree_sub(_tree_mul(a, a, tower, k), _tree_mul_rad(_tree_mul(b, b, tower, k), tower, k), k)
    n = _tree_sqrt(n2, tower, k)
    if n is None:
        return None
    half = _tree_const(Fraction(1, 2), k)
    for cand2 in (_tree_mul(_tree_add(a, n, k), half, tower, k),
                  _tree_mul(_tree_sub(a, n, k), half, tower, k)):
        x = _tree_sqrt(cand2, tower, k)
        if x is None or _tree_is_zero(x, k):
            continue
        two_x_inv = _tree_inv(_tree_add(x, x, k), tower, k)
        y = _tree_mul(b, two_x_inv, tower, k)
        root = (x, y)
        if _tree_is_zero(_tree_sub(_tree_mul(root, root, tower, level), t, level), level):
            return root if _tree_sign(root, tower, level) >= 0 else _tree_neg(root, level)
    return None


def _tree_structural_eq(x, y, level: int) -> bool:
    if level == 0:
        return x == y
    k = level - 1
    return _tree_structural_eq(x[0], y[0], k) and _tree_structural_eq(x[1], y[1], k)


# Tower-pair plans: (target ids, source ids) -> (target, source, (tower', images)).
_PLAN_MEMO: dict = {}
_PLAN_MEMO_CAP = 256


class ExactReal:
    """An element of a square-root tower over Q, with exact arithmetic.

    Construct via :meth:`from_rational`, :func:`parse_exact`, the ``ER``
    convenience converter, arithmetic on existing values, or
    :func:`sqrt`.
    """

    __slots__ = ("_tower", "_rep")

    def __init__(self, tower, rep, _normalize: bool = True):
        if _normalize:
            level = len(tower)
            while level > 0 and _tree_is_zero(rep[1], level - 1):
                rep = rep[0]
                level -= 1
            tower = tower[:level]
        self._tower = tower
        self._rep = rep

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(value: Rational, den: int | None = None) -> "ExactReal":
        if den is None:
            if type(value) is int:
                value = _q(value, 1)
            elif type(value) is not Fraction:
                value = Fraction(value)
        elif type(value) is int and type(den) is int and den:
            g = gcd(value, den) if den > 0 else -gcd(value, den)
            value = _q(value // g, den // g)
        else:
            value = Fraction(value, den)
        return ExactReal((), value, _normalize=False)

    # -- structure ---------------------------------------------------------

    @property
    def tower(self) -> tuple:
        """The radicands adjoined below this value (innermost first)."""
        return self._tower

    @property
    def level(self) -> int:
        return len(self._tower)

    def is_rational(self) -> bool:
        return not self._tower

    def as_fraction(self) -> Fraction:
        if self._tower:
            raise ValueError("value is irrational: %s" % self)
        return self._rep

    # -- tower unification ---------------------------------------------------

    @staticmethod
    def _radicands_eq(a: "ExactReal", b: "ExactReal") -> bool:
        # Radicands are normalized, so equal values have equal trees.
        if len(a._tower) != len(b._tower):
            return False
        return _tree_structural_eq(a._rep, b._rep, len(a._tower))

    @staticmethod
    def _prefix(short: tuple, tower: tuple) -> bool:
        return len(short) <= len(tower) and all(map(ExactReal._radicands_eq, short, tower))

    @staticmethod
    def _plan(source: tuple, target: tuple) -> tuple:
        """(tower', images) that lift values over source into target."""
        key = (tuple(map(id, target)), tuple(map(id, source)))
        hit = _PLAN_MEMO.get(key)
        if hit is not None:
            return hit[2]
        tower, roots = target, {}

        def over(rep, k):
            # A tree over source[:k] as a tree over tower, by the roots so far.
            level = len(tower)
            if k == 0:
                return _tree_const(rep, level)
            root = _tree_promote(roots[k - 1], ExactReal._rep_level(roots[k - 1]), level)
            return _tree_add(over(rep[0], k - 1), _tree_mul(over(rep[1], k - 1), root, tower, level), level)

        def adjoin(j):
            # The roots of source[:j], last first, each after the roots its
            # radicand is written in: the order of the recursive lift.
            nonlocal tower
            for i in range(j - 1, -1, -1):
                if i not in roots:
                    rad = source[i]
                    adjoin(len(rad._tower))
                    tower, roots[i] = ExactReal._sqrt_rep(over(rad._rep, len(rad._tower)), tower)

        adjoin(len(source))
        level = len(tower)
        images = [_tree_const(_ONE, level)]
        for i in range(len(source)):
            root = _tree_promote(roots[i], ExactReal._rep_level(roots[i]), level)
            images += [_tree_mul(x, root, tower, level) for x in images]
        plan = tower, tuple(tuple((pos, _ONE if c == 1 else c) for pos, c in enumerate(_tree_leaves(x, level))
                                  if c._numerator) for x in images)
        if len(_PLAN_MEMO) >= _PLAN_MEMO_CAP:
            _PLAN_MEMO.clear()
        _PLAN_MEMO[key] = (target, source, plan)
        return plan

    @staticmethod
    def _rep_level(rep) -> int:
        level = 0
        while not isinstance(rep, Fraction):
            rep = rep[0]
            level += 1
        return level

    @staticmethod
    def _sqrt_rep(rep, tower) -> tuple:
        """sqrt of a rep over tower, adjoining a new radicand if needed."""
        level = len(tower)
        rep = _tree_promote(rep, ExactReal._rep_level(rep), level)
        sign = _tree_sign(rep, tower, level)
        if sign < 0:
            raise NegativeRadicand("sqrt of negative value %s" % ExactReal(tower, rep))
        if sign == 0:
            return tower, _tree_const(_ZERO, level)
        root = _tree_sqrt(rep, tower, level)
        if root is not None:
            return tower, root
        radicand = ExactReal(tower, rep)
        new_tower = tower + (radicand,)
        return new_tower, (_tree_const(_ZERO, level), _tree_const(_ONE, level))

    def _unified(self, other: "ExactReal") -> tuple:
        """(tower, self's rep, other's rep) over one tower: the longer one
        when a tower is a prefix of the other, else by the pair's plan."""
        if self._tower is other._tower:
            return self._tower, self._rep, other._rep
        if ExactReal._prefix(other._tower, self._tower):
            return self._tower, self._rep, _tree_promote(other._rep, other.level, self.level)
        if ExactReal._prefix(self._tower, other._tower):
            return other._tower, _tree_promote(self._rep, self.level, other.level), other._rep
        tower, images = ExactReal._plan(other._tower, self._tower)
        level = len(tower)
        out = [_ZERO] * (1 << level)
        for leaf, image in zip(_tree_leaves(other._rep, other.level), images):
            if leaf._numerator:
                for pos, c in image:
                    t = leaf if c is _ONE else _q_mul(leaf, c)
                    out[pos] = _q_add(out[pos], t) if out[pos]._numerator else t
        return tower, _tree_promote(self._rep, self.level, level), _tree_from_leaves(out, level)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "ExactReal":
        t = type(value)
        if t is ExactReal:
            return value
        if t is int:
            return ExactReal((), _q(value, 1), _normalize=False)
        if t is Fraction:
            return ExactReal((), value, _normalize=False)
        if isinstance(value, ExactReal):
            return value
        if isinstance(value, (int, Fraction)):
            return ExactReal.from_rational(value)
        return NotImplemented

    def __add__(self, other):
        other = ExactReal._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._tower:
            if not self._tower:
                return ExactReal((), _q_add(self._rep, other._rep), _normalize=False)
            if not other._rep._numerator:
                return self
            return ExactReal(self._tower, _tree_add_const(self._rep, other._rep, self.level))
        if not self._tower:
            if not self._rep._numerator:
                return other
            return ExactReal(other._tower, _tree_add_const(other._rep, self._rep, other.level))
        tower, a, b = self._unified(other)
        return ExactReal(tower, _tree_add(a, b, len(tower)))

    __radd__ = __add__

    def __neg__(self):
        return ExactReal(self._tower, _tree_neg(self._rep, self.level), _normalize=False)

    def __sub__(self, other):
        other = ExactReal._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not (self._tower or other._tower):
            return ExactReal((), _q_sub(self._rep, other._rep), _normalize=False)
        return self + (-other)

    def __rsub__(self, other):
        other = ExactReal._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = ExactReal._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._tower:
            if not self._tower:
                return ExactReal((), _q_mul(self._rep, other._rep), _normalize=False)
            if not other._rep._numerator:
                return other
            return ExactReal(self._tower, _tree_scale(self._rep, other._rep, self.level))
        if not self._tower:
            if not self._rep._numerator:
                return self
            return ExactReal(other._tower, _tree_scale(other._rep, self._rep, other.level))
        tower, a, b = self._unified(other)
        return ExactReal(tower, _tree_mul(a, b, tower, len(tower)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ExactReal._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by exact zero")
        if not other._tower:
            if not self._tower:
                return ExactReal((), _q_div(self._rep, other._rep), _normalize=False)
            return ExactReal(self._tower, _tree_scale(self._rep, _q_div(_ONE, other._rep), self.level))
        if not self._tower:
            if not self._rep._numerator:
                return self
            inv = _tree_inv(other._rep, other._tower, other.level)
            return ExactReal(other._tower, _tree_scale(inv, self._rep, other.level))
        tower, a, b = self._unified(other)
        return ExactReal(tower, _tree_mul(a, _tree_inv(b, tower, len(tower)), tower, len(tower)))

    def __rtruediv__(self, other):
        other = ExactReal._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return ExactReal.from_rational(1) / self ** (-exponent)
        result = ExactReal.from_rational(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- predicates and order ------------------------------------------------

    def is_zero(self) -> bool:
        if not self._tower:
            return not self._rep._numerator
        return _tree_is_zero(self._rep, self.level)

    def sign(self) -> int:
        if not self._tower:
            n = self._rep._numerator
            return (n > 0) - (n < 0)
        return _tree_sign(self._rep, self._tower, self.level)

    def compare(self, other) -> int:
        """-1, 0 or 1 as self <, ==, > other; exact."""
        other = ExactReal._coerce(other)
        if other is not NotImplemented and not (self._tower or other._tower):
            a, b = self._rep, other._rep
            lhs, rhs = a._numerator * b._denominator, b._numerator * a._denominator
            return (lhs > rhs) - (lhs < rhs)
        return (self - other).sign()

    def __eq__(self, other):
        other = ExactReal._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.compare(other) == 0

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    __hash__ = None  # value-equal numbers may have different trees; do not hash

    def __bool__(self):
        return not self.is_zero()

    # -- numeric views ---------------------------------------------------------

    def interval(self, bits: int = 64) -> tuple[Fraction, Fraction]:
        """A rational enclosure [lo, hi] with width roughly 2^-bits."""
        return _tree_interval(self._rep, self._tower, self.level, bits)

    def approx(self, bits: int = 128) -> "ApproxReal":
        lo, hi = self.interval(bits)
        return ApproxReal(lo, hi)

    def __float__(self):
        lo, hi = self.interval(64)
        return float((lo + hi) / 2)

    def decimal_str(self, digits: int = 12) -> str:
        """Deterministic decimal rendering with the given significant digits."""
        bits = 16
        while True:
            lo, hi = self.interval(bits)
            mid = (lo + hi) / 2
            if mid != 0 and (hi - lo) < abs(mid) / Fraction(10) ** (digits + 2):
                break
            if mid == 0 and hi - lo < Fraction(1, 10 ** (digits + 2)):
                break
            bits *= 2
            if bits > 4096:
                break
        return _format_sig(mid, digits)

    # -- rendering ---------------------------------------------------------------

    def literal(self) -> str:
        """Canonical re-parseable literal, e.g. ``4/5`` or ``1/2*sqrt(2)``."""
        return _render(self._rep, self._tower, self.level, top=True)

    def __str__(self):
        return self.literal()

    def __repr__(self):
        return "ExactReal(%s)" % self.literal()


def _format_sig(q: Fraction, digits: int) -> str:
    if q == 0:
        return "0." + "0" * (digits - 1)
    sign = "-" if q < 0 else ""
    q = abs(q)
    exp = 0
    while q >= 10:
        q /= 10
        exp += 1
    while q < 1:
        q *= 10
        exp -= 1
    scaled = q * Fraction(10) ** (digits - 1)
    n = scaled.numerator // scaled.denominator
    if (scaled - n) * 2 >= 1:
        n += 1
    s = str(n)
    if len(s) > digits:  # rounding carried over, e.g. 9.99... -> 10.0
        s = s[:digits]
        exp += 1
    if -4 < exp < digits:
        if exp >= 0:
            intpart = s[: exp + 1]
            fracpart = s[exp + 1 :]
            return sign + intpart + ("." + fracpart if fracpart else "")
        return sign + "0." + "0" * (-exp - 1) + s
    return "%s%s.%se%+d" % (sign, s[0], s[1:], exp)


def _render(rep, tower, level: int, top: bool = False) -> str:
    if level == 0:
        return str(rep)
    k = level - 1
    a, b = rep
    rad = _render(tower[k]._rep, tower[k]._tower, len(tower[k]._tower), top=True)
    parts = []
    if not _tree_is_zero(a, k):
        parts.append(_render(a, tower, k, top=top))
    if not _tree_is_zero(b, k):
        root = "sqrt(%s)" % rad
        if _tree_structural_eq(b, _tree_const(_ONE, k), k):
            coeff = root
        elif _tree_structural_eq(b, _tree_const(-_ONE, k), k):
            coeff = "-" + root
        else:
            rendered = _render(b, tower, k)
            if "+" in rendered or ("-" in rendered[1:]):
                rendered = "(%s)" % rendered
            coeff = "%s*%s" % (rendered, root)
        parts.append(coeff)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def sqrt(value) -> ExactReal:
    """Exact nonnegative square root; extends the tower only when needed."""
    value = ExactReal._coerce(value)
    if value is NotImplemented:
        raise TypeError("sqrt expects an ExactReal or rational")
    tower, rep = ExactReal._sqrt_rep(value._rep, value._tower)
    return ExactReal(tower, rep)


def as_rationals(values) -> list | None:
    """The values (ExactReal, int or Fraction) as ints and Fractions when
    every one is rational, else None."""
    out = []
    for v in values:
        if isinstance(v, ExactReal):
            if v._tower:
                return None
            v = v._rep
        elif not isinstance(v, (int, Fraction)):
            return None
        out.append(v)
    return out


def ER(value) -> ExactReal:
    """Convenience converter: int, Fraction, 'p/q' strings and literals."""
    coerced = ExactReal._coerce(value)
    if coerced is not NotImplemented:
        return coerced
    if isinstance(value, str):
        return parse_exact(value)
    raise TypeError("cannot convert %r to ExactReal" % (value,))


# ---------------------------------------------------------------------------
# Interval values for the numeric fallback paths.


class ApproxReal:
    """A rational interval [lo, hi] around a value, reported with its width.

    From ``ExactReal.approx`` it contains the true value.  From quadrature
    (`accel`'s numeric proper time) its half-width is an error estimate,
    not a bound: the interval is likely, not guaranteed, to contain it.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Rational, hi: Rational):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("empty interval")
        self.lo = lo
        self.hi = hi

    @staticmethod
    def from_exact(value: ExactReal, bits: int = 128) -> "ApproxReal":
        return value.approx(bits)

    @staticmethod
    def from_float(value: float, error: float) -> "ApproxReal":
        e = abs(Fraction(error))
        v = Fraction(value)
        return ApproxReal(v - e, v + e)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value) -> bool:
        if isinstance(value, ExactReal):
            return value.compare(ExactReal.from_rational(self.lo)) >= 0 and \
                value.compare(ExactReal.from_rational(self.hi)) <= 0
        v = Fraction(value)
        return self.lo <= v <= self.hi

    def __add__(self, other):
        if isinstance(other, ApproxReal):
            return ApproxReal(self.lo + other.lo, self.hi + other.hi)
        v = Fraction(other)
        return ApproxReal(self.lo + v, self.hi + v)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, ApproxReal):
            ps = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
            return ApproxReal(min(ps), max(ps))
        v = Fraction(other)
        ps = (self.lo * v, self.hi * v)
        return ApproxReal(min(ps), max(ps))

    __rmul__ = __mul__

    def __float__(self):
        return float(self.midpoint)

    def __repr__(self):
        return "ApproxReal(%s, width=%s)" % (float(self), float(self.width))


# ---------------------------------------------------------------------------
# Field literals: `p/q`, `sqrt(E)`, sums, differences, products, quotients.


def parse_exact(text: str) -> ExactReal:
    """Parse a field literal such as ``3/5`` or ``sqrt(1 - 9/25)``."""
    from .exprs import parse_expression, evaluate_exact

    expr = parse_expression(text, variables=())
    return evaluate_exact(expr, {})
