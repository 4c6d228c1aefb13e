"""Exact one-variable definable sets: polynomials, interval sets, suprema.

The IND schema checker reduces a formula with one distinguished quantity
variable to a finite union of intervals with tower-field endpoints, by
recursing over the boolean structure and solving the sign conditions of
polynomials of degree <= 2 exactly (quadratic roots live in the tower).
W-atoms over affine charts and straight worldlines contribute linear
equations; the photon-existence pattern contributes the lightlike
quadratic.  Anything outside this fragment raises UnsupportedDefinableSet
and the caller falls back to sampling (honest Unknown).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .field import ER, ExactReal, sqrt
from .record import Record, set_field

__all__ = [
    "Poly", "IntervalSet", "Interval", "UnsupportedDefinableSet",
    "term_to_poly", "poly_less_zero", "poly_eq_zero",
]


class UnsupportedDefinableSet(ValueError):
    """The formula falls outside the exactly solvable fragment."""


class Poly:
    """Dense univariate polynomial over the tower field."""

    def __init__(self, coeffs: Sequence):
        cs = [ER(c) for c in coeffs] or [ER(0)]
        while len(cs) > 1 and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0].is_zero()

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([
            (self.coeffs[i] if i < len(self.coeffs) else ER(0))
            + (other.coeffs[i] if i < len(other.coeffs) else ER(0))
            for i in range(n)
        ])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out = [ER(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = ER(c)
        return Poly([c * a for a in self.coeffs])

    def eval(self, x) -> ExactReal:
        x = ER(x)
        acc = ER(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def roots(self) -> list:
        """Exact real roots for degree <= 2; raises above that."""
        if self.degree == 0:
            return []  # nonzero constant; the zero poly is handled by callers
        if self.degree == 1:
            b, a = self.coeffs[0], self.coeffs[1]
            return [-b / a]
        if self.degree == 2:
            c, b, a = self.coeffs[0], self.coeffs[1], self.coeffs[2]
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
        raise UnsupportedDefinableSet("degree %d polynomial" % self.degree)


def term_to_poly(term, polys: dict, env: dict) -> Poly:
    """Quantity term -> polynomial: variables named in `polys` are those
    polynomials, other variables constants from env."""
    from .syntax.ast import OneC, Var, fold_term

    def leaf(t) -> Poly:
        if isinstance(t, Var):
            if t.name in polys:
                return polys[t.name]
            if t.name not in env:
                raise UnsupportedDefinableSet("unbound variable %s" % t.name)
            return Poly([env[t.name]])
        return Poly([1 if isinstance(t, OneC) else 0])

    return fold_term(term, leaf)


# ---------------------------------------------------------------------------
# Interval sets.


class Interval(Record):
    """lo/hi None mean unbounded; *_open marks an excluded finite endpoint."""

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
        if c < 0:
            return True
        if c == 0:
            return self.lo_open or self.hi_open
        return False

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
                other = ordered[pos]
                if iv.lo is None and other.lo is not None:
                    break
                if iv.lo is not None and other.lo is not None and (iv.lo - other.lo).sign() < 0:
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
        if a.hi is None:
            return True
        if b.lo is None:
            return True
        c = (b.lo - a.hi).sign()
        if c < 0:
            return True
        if c > 0:
            return False
        return not (a.hi_open and b.lo_open)

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
    """{t : p(t) < 0} as an exact interval set (degree <= 2)."""
    if p.is_zero():
        return IntervalSet.empty()
    if p.degree == 0:
        return IntervalSet.all() if p.coeffs[0].sign() < 0 else IntervalSet.empty()
    if p.degree == 1:
        r = p.roots()[0]
        if p.coeffs[1].sign() > 0:
            return IntervalSet((Interval(None, r),))
        return IntervalSet((Interval(r, None),))
    if p.degree == 2:
        a = p.coeffs[2]
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
    raise UnsupportedDefinableSet("degree %d sign condition" % p.degree)


def poly_eq_zero(p: Poly) -> IntervalSet:
    """{t : p(t) = 0} as an exact interval set (degree <= 2)."""
    if p.is_zero():
        return IntervalSet.all()
    if p.degree == 0:
        return IntervalSet.empty()
    out = IntervalSet.empty()
    for r in p.roots():
        out = out.union(IntervalSet.point(r))
    return out
