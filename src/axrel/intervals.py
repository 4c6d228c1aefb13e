"""Exact polynomials, interval sets and the values of quantity terms.

``Poly`` is the checker's one polynomial type, built from quantity terms
by ``term_to_poly`` alone: affine ones pin quantity blocks, and ones in a
single variable give guide roots and IND sets.  ``IntervalSet`` is a
finite union of intervals with tower-field endpoints; ``poly_less_zero``
and ``poly_eq_zero`` solve the sign conditions of a one-variable
polynomial of degree <= 2 exactly as such sets (quadratic roots live in
the tower), and a higher degree raises UnsupportedDefinableSet.
``eval_term`` is the value of a term under an assignment.  The IND
schema checker that reduces formulas to these sets is `ind`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .field import ER, ExactReal, sqrt
from .model import Interval
from .syntax.ast import Add, Mul, OneC, Sub, Var, fold_term

__all__ = [
    "Poly", "IntervalSet", "Interval", "UnsupportedDefinableSet", "UnboundVariable",
    "term_to_poly", "eval_term", "poly_less_zero", "poly_eq_zero",
]

_ZERO, _ONE = ER(0), ER(1)


class UnsupportedDefinableSet(ValueError):
    """The formula falls outside the exactly solvable fragment."""


class UnboundVariable(NameError):
    pass


class Poly:
    """Sparse polynomial over the tower field: ``terms`` maps monomials,
    sorted tuples of variable names with one entry per power (``()`` is
    the constant, ``('x', 'x', 'y')`` is x^2 y), to coefficients.

    Tower literals depend on the order of field operations (ROADMAP item
    3), so terms keep insertion order and zero entries, a sum adds the
    right operand's terms into the left's, a coefficient product has the
    left factor's coefficient on the left, and ``eval`` and ``substitute``
    take the constant first.  No operation changes its operands.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(): ER(c)})

    @staticmethod
    def var(name: str) -> "Poly":
        # The zero constant makes every univariate polynomial list its
        # powers in increasing order, so products add in that order.
        return Poly({(): _ZERO, (name,): _ONE})

    @property
    def degree(self) -> int:
        """The total degree of the nonzero terms (0 for a constant)."""
        d = 0
        for m, c in self.terms.items():
            if len(m) > d and not c.is_zero():
                d = len(m)
        return d

    def degree_in(self, v: str) -> int:
        d = 0
        for m, c in self.terms.items():
            if m.count(v) > d and not c.is_zero():
                d = m.count(v)
        return d

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.terms.values())

    def coeffs_in(self, v: str) -> list:
        """[p_0, ..., p_d], d = degree_in(v): self = sum of p_k * v^k, each
        p_k a polynomial in the other variables."""
        out = [{} for _ in range(self.degree_in(v) + 1)]
        for m, c in self.terms.items():
            k = m.count(v)
            if k < len(out):
                out[k][tuple(x for x in m if x != v)] = c
        return [Poly(t) for t in out]

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.terms, other.terms
        if len(a) == 1 and () in a:
            return other.scale(a[()])
        if len(b) == 1 and () in b:
            c = b[()]
            return Poly({m: x * c for m, x in a.items()})
        out: dict = {}
        for m, x in a.items():
            for n, y in b.items():
                k = tuple(sorted(m + n)) if m and n else m or n
                xy = x * y
                out[k] = out[k] + xy if k in out else xy
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = ER(c)
        return Poly({m: c * x for m, x in self.terms.items()})

    def eval(self, values: dict) -> ExactReal:
        """The value with each variable at values[name]: the constant
        first, then each nonzero term in order."""
        terms = self.terms
        acc = terms.get((), _ZERO)
        for m, c in terms.items():
            if m and not c.is_zero():
                for v in m:
                    c = c * values[v]
                acc = acc + c
        return acc

    def substitute(self, polys: dict) -> "Poly":
        """Each variable named in polys replaced by that polynomial, the
        others kept: the constant first, then each term in order."""
        out = Poly({(): self.terms.get((), _ZERO)})
        for m, c in self.terms.items():
            if m:
                term = Poly({tuple(v for v in m if v not in polys): c})
                for v in m:
                    if v in polys:
                        term = term * polys[v]
                out = out + term
        return out

    def _coeffs(self) -> list:
        # [c_0, ..., c_degree] of a polynomial in one variable.
        out = [_ZERO] * (self.degree + 1)
        for m, c in self.terms.items():
            if len(m) < len(out):
                out[len(m)] = c
        return out

    def roots(self) -> list:
        """Exact real roots of a polynomial in one variable of degree <= 2,
        in increasing order; raises above that."""
        cs = self._coeffs()
        if len(cs) == 1:
            return []  # nonzero constant; the zero poly is handled by callers
        if len(cs) == 2:
            b, a = cs
            return [-b / a]
        if len(cs) == 3:
            c, b, a = cs
            disc = b * b - 4 * a * c
            sign = disc.sign()
            if sign < 0:
                return []
            if sign == 0:
                return [-b / (2 * a)]
            r = sqrt(disc)
            r1 = (-b - r) / (2 * a)
            r2 = (-b + r) / (2 * a)
            return [r1, r2] if (r2 - r1).sign() > 0 else [r2, r1]
        raise UnsupportedDefinableSet("degree %d polynomial" % (len(cs) - 1))


def term_to_poly(term, polys: dict, env: dict) -> Poly:
    """Quantity term -> polynomial: variables named in `polys` are those
    polynomials, variables with an ExactReal value in env are constants;
    any other variable raises UnsupportedDefinableSet."""

    def leaf(t) -> Poly:
        if isinstance(t, Var):
            if t.name in polys:
                return polys[t.name]
            value = env.get(t.name)
            if isinstance(value, ExactReal):
                return Poly({(): value})
            raise UnsupportedDefinableSet("variable %s has no quantity value" % t.name)
        return Poly.const(1 if isinstance(t, OneC) else 0)

    return fold_term(term, leaf)


def eval_term(term, env: dict):
    """The value of a term under env; UnboundVariable names a missing variable."""
    return _value_of(term)(env)


def _value_of(term):
    """eval_term(term, env) as a function of env, compiled once: +, - and *
    combine the values of the two operands, the left one computed first,
    as in fold_term."""
    cls = type(term)
    if cls is Add or cls is Sub or cls is Mul:
        left, right = _value_of(term.left), _value_of(term.right)
        if cls is Add:
            return lambda env: left(env) + right(env)
        if cls is Sub:
            return lambda env: left(env) - right(env)
        return lambda env: left(env) * right(env)
    if cls is Var:
        name = term.name

        def var(env):
            try:
                return env[name]
            except KeyError:
                raise UnboundVariable(name) from None

        return var
    value = ER(1) if cls is OneC else ER(0)
    return lambda env: value


# ---------------------------------------------------------------------------
# Interval sets.


class IntervalSet:
    """Finite union of disjoint, sorted intervals."""

    def __init__(self, intervals: Sequence[Interval] = ()):
        self.intervals = IntervalSet._normalize(intervals)

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(())

    @staticmethod
    def all() -> "IntervalSet":
        return IntervalSet((Interval(None, None),))

    @staticmethod
    def point(x) -> "IntervalSet":
        x = ER(x)
        return IntervalSet((Interval(x, x, False, False),))

    @staticmethod
    def _normalize(intervals):
        items = [iv for iv in intervals if not iv.is_empty()]
        # Exact sort: insertion by comparisons (lists are tiny).
        ordered: list = []
        for iv in items:
            pos = 0
            while pos < len(ordered):
                lo = ordered[pos].lo
                if lo is not None and (iv.lo is None or (iv.lo - lo).sign() < 0):
                    break
                pos += 1
            ordered.insert(pos, iv)
        merged: list = []
        for iv in ordered:
            if not merged:
                merged.append(iv)
                continue
            last = merged[-1]
            if IntervalSet._touches(last, iv):
                merged[-1] = IntervalSet._merge(last, iv)
            else:
                merged.append(iv)
        return tuple(merged)

    @staticmethod
    def _touches(a: Interval, b: Interval) -> bool:
        # b.lo is >= a.lo by ordering; they touch unless a ends strictly
        # before b starts (with an actual gap, minding open endpoints).
        if a.hi is None or b.lo is None:
            return True
        c = (b.lo - a.hi).sign()
        return c < 0 or (c == 0 and not (a.hi_open and b.lo_open))

    @staticmethod
    def _merge(a: Interval, b: Interval) -> Interval:
        if a.lo is None or b.lo is None:
            lo, lo_open = None, True
        elif (a.lo - b.lo).sign() < 0:
            lo, lo_open = a.lo, a.lo_open
        elif (a.lo - b.lo).sign() > 0:
            lo, lo_open = b.lo, b.lo_open
        else:
            lo, lo_open = a.lo, a.lo_open and b.lo_open
        if a.hi is None or b.hi is None:
            hi, hi_open = None, True
        elif (a.hi - b.hi).sign() > 0:
            hi, hi_open = a.hi, a.hi_open
        elif (a.hi - b.hi).sign() < 0:
            hi, hi_open = b.hi, b.hi_open
        else:
            hi, hi_open = a.hi, a.hi_open and b.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x) -> bool:
        x = ER(x)
        return any(iv.contains(x) for iv in self.intervals)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.intervals + other.intervals)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        for a in self.intervals:
            for b in other.intervals:
                iv = IntervalSet._intersect_two(a, b)
                if iv is not None:
                    out.append(iv)
        return IntervalSet(out)

    @staticmethod
    def _intersect_two(a: Interval, b: Interval) -> Optional[Interval]:
        if a.lo is None:
            lo, lo_open = b.lo, b.lo_open
        elif b.lo is None:
            lo, lo_open = a.lo, a.lo_open
        else:
            c = (a.lo - b.lo).sign()
            if c > 0:
                lo, lo_open = a.lo, a.lo_open
            elif c < 0:
                lo, lo_open = b.lo, b.lo_open
            else:
                lo, lo_open = a.lo, a.lo_open or b.lo_open
        if a.hi is None:
            hi, hi_open = b.hi, b.hi_open
        elif b.hi is None:
            hi, hi_open = a.hi, a.hi_open
        else:
            c = (a.hi - b.hi).sign()
            if c < 0:
                hi, hi_open = a.hi, a.hi_open
            elif c > 0:
                hi, hi_open = b.hi, b.hi_open
            else:
                hi, hi_open = a.hi, a.hi_open or b.hi_open
        iv = Interval(lo, hi, lo_open, hi_open)
        return None if iv.is_empty() else iv

    def complement(self) -> "IntervalSet":
        out = []
        cursor: Optional[ExactReal] = None
        cursor_open = True  # complement includes the cursor endpoint?
        first = True
        for iv in self.intervals:
            if first and iv.lo is None:
                cursor, cursor_open, first = iv.hi, iv.hi_open, False
                continue
            lo = cursor
            out.append(Interval(lo, iv.lo,
                                lo_open=(not cursor_open) if lo is not None else True,
                                hi_open=not iv.lo_open))
            cursor, cursor_open = iv.hi, iv.hi_open
            first = False
            if cursor is None:
                return IntervalSet(out)
        out.append(Interval(cursor, None,
                            lo_open=(not cursor_open) if cursor is not None else True,
                            hi_open=True))
        return IntervalSet(out)

    def bounded_above(self) -> bool:
        return all(iv.hi is not None for iv in self.intervals)

    def supremum(self) -> Optional[ExactReal]:
        """Least upper bound; None if empty or unbounded above."""
        if self.is_empty() or not self.bounded_above():
            return None
        best = self.intervals[0].hi
        for iv in self.intervals[1:]:
            if (iv.hi - best).sign() > 0:
                best = iv.hi
        return best


def poly_less_zero(p: Poly) -> IntervalSet:
    """{t : p(t) < 0} for p in one variable t, as an exact interval set
    (degree <= 2)."""
    cs = p._coeffs()
    if len(cs) == 1:
        return IntervalSet.all() if cs[0].sign() < 0 else IntervalSet.empty()
    if len(cs) == 2:
        r = p.roots()[0]
        if cs[1].sign() > 0:
            return IntervalSet((Interval(None, r),))
        return IntervalSet((Interval(r, None),))
    if len(cs) == 3:
        a = cs[2]
        rs = p.roots()
        if not rs:
            return IntervalSet.all() if a.sign() < 0 else IntervalSet.empty()
        if len(rs) == 1:
            r = rs[0]
            if a.sign() < 0:
                return IntervalSet((Interval(None, r), Interval(r, None)))
            return IntervalSet.empty()
        r1, r2 = rs
        if a.sign() > 0:
            return IntervalSet((Interval(r1, r2),))
        return IntervalSet((Interval(None, r1), Interval(r2, None)))
    raise UnsupportedDefinableSet("degree %d sign condition" % (len(cs) - 1))


def poly_eq_zero(p: Poly) -> IntervalSet:
    """{t : p(t) = 0} for p in one variable t, as an exact interval set
    (degree <= 2)."""
    if p.is_zero():
        return IntervalSet.all()
    if p.degree == 0:
        return IntervalSet.empty()
    out = IntervalSet.empty()
    for r in p.roots():
        out = out.union(IntervalSet.point(r))
    return out
