"""AST for the two-sorted first-order language {B, IB, Ph, Q, +, *, <, W}.

Body terms are variables only; quantity terms are variables, the
definitional constants 0 and 1, sums, products, and the subtraction
sugar.  Formulas carry the defined atoms Ob and IOb as nodes so the
axioms read the way they are written; ``expand_definitions`` eliminates
every piece of sugar down to the primitive signature.

Nodes are frozen dataclasses; the optional ``pos`` field records the
source offset for parser diagnostics and never takes part in equality.

``fold_term`` is the one walker that computes the value of a quantity
term: evaluation to field values, affine forms and polynomials each
supply only the value of a leaf (a variable, 0 or 1).
"""

from __future__ import annotations

import enum
import functools
import operator
import sys
from dataclasses import dataclass, field
from typing import Iterator

# Expanded corpus formulas (AxDiff_n after definitional expansion) nest
# thousands of levels deep; the recursive traversals here need headroom.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))

__all__ = [
    "Sort", "Term", "Var", "ZeroC", "OneC", "Add", "Mul", "Sub",
    "Formula", "IBAtom", "PhAtom", "ObAtom", "IObAtom", "WAtom",
    "EqQ", "EqB", "Less", "Not", "And", "Or", "Implies", "Iff",
    "Forall", "Exists", "Theory", "AxiomGroup", "SortError",
    "free_vars", "subterms", "subformulas", "alpha_equal", "is_sentence",
    "exists_many", "substitute_term", "fold_term", "mentions",
]


class Sort(enum.Enum):
    BODY = "B"
    QUANTITY = "Q"

    def __str__(self):
        return self.value


class SortError(TypeError):
    def __init__(self, message: str, pos: int = -1, expected=None, found=None):
        super().__init__(message)
        self.pos = pos
        self.expected = expected
        self.found = found


@dataclass(frozen=True)
class Term:
    pos: int = field(default=-1, compare=False, repr=False, kw_only=True)

    @property
    def sort(self) -> Sort:
        raise NotImplementedError


@dataclass(frozen=True)
class Var(Term):
    name: str
    var_sort: Sort

    @property
    def sort(self) -> Sort:
        return self.var_sort


@dataclass(frozen=True)
class ZeroC(Term):
    """Definitional constant 0 (the additive neutral element)."""

    @property
    def sort(self) -> Sort:
        return Sort.QUANTITY


@dataclass(frozen=True)
class OneC(Term):
    """Definitional constant 1 (the multiplicative neutral element)."""

    @property
    def sort(self) -> Sort:
        return Sort.QUANTITY


def _require_quantity(t: Term, what: str):
    if t.sort is not Sort.QUANTITY:
        raise SortError("%s requires quantity-sorted arguments" % what,
                        pos=t.pos, expected=Sort.QUANTITY, found=t.sort)


@dataclass(frozen=True)
class Add(Term):
    left: Term
    right: Term

    def __post_init__(self):
        _require_quantity(self.left, "+")
        _require_quantity(self.right, "+")

    @property
    def sort(self) -> Sort:
        return Sort.QUANTITY


@dataclass(frozen=True)
class Mul(Term):
    left: Term
    right: Term

    def __post_init__(self):
        _require_quantity(self.left, "*")
        _require_quantity(self.right, "*")

    @property
    def sort(self) -> Sort:
        return Sort.QUANTITY


@dataclass(frozen=True)
class Sub(Term):
    """Subtraction sugar; expand_definitions removes it."""

    left: Term
    right: Term

    def __post_init__(self):
        _require_quantity(self.left, "-")
        _require_quantity(self.right, "-")

    @property
    def sort(self) -> Sort:
        return Sort.QUANTITY


@dataclass(frozen=True)
class Formula:
    pos: int = field(default=-1, compare=False, repr=False, kw_only=True)


def _require_body(t: Term, what: str):
    if t.sort is not Sort.BODY:
        raise SortError("%s requires a body-sorted argument" % what,
                        pos=t.pos, expected=Sort.BODY, found=t.sort)


@dataclass(frozen=True)
class IBAtom(Formula):
    body: Term

    def __post_init__(self):
        _require_body(self.body, "IB")


@dataclass(frozen=True)
class PhAtom(Formula):
    body: Term

    def __post_init__(self):
        _require_body(self.body, "Ph")


@dataclass(frozen=True)
class ObAtom(Formula):
    """Defined: Ob(o) iff o coordinatizes some body somewhere."""

    body: Term

    def __post_init__(self):
        _require_body(self.body, "Ob")


@dataclass(frozen=True)
class IObAtom(Formula):
    """Defined: IOb(o) iff IB(o) and Ob(o)."""

    body: Term

    def __post_init__(self):
        _require_body(self.body, "IOb")


@dataclass(frozen=True)
class WAtom(Formula):
    observer: Term
    body: Term
    x1: Term
    x2: Term
    x3: Term
    x4: Term

    def __post_init__(self):
        _require_body(self.observer, "W")
        _require_body(self.body, "W")
        for t in (self.x1, self.x2, self.x3, self.x4):
            _require_quantity(t, "W")

    @property
    def coords(self) -> tuple:
        return (self.x1, self.x2, self.x3, self.x4)


@dataclass(frozen=True)
class EqQ(Formula):
    left: Term
    right: Term

    def __post_init__(self):
        _require_quantity(self.left, "=")
        _require_quantity(self.right, "=")


@dataclass(frozen=True)
class EqB(Formula):
    left: Term
    right: Term

    def __post_init__(self):
        _require_body(self.left, "=")
        _require_body(self.right, "=")


@dataclass(frozen=True)
class Less(Formula):
    left: Term
    right: Term

    def __post_init__(self):
        _require_quantity(self.left, "<")
        _require_quantity(self.right, "<")


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    var_sort: Sort
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    var_sort: Sort
    body: Formula


# ---------------------------------------------------------------------------
# Theories.


@dataclass(frozen=True)
class AxiomGroup:
    """A named axiom: one sentence, or a finite list (AxField).

    The sentences are held as formula text and parsed on first access to
    ``sentences``, so naming, counting and certified checks parse nothing.
    """

    name: str
    texts: tuple  # of (sub_name, sentence text)
    reconstruction: bool = False  # FOL shape reconstructed, not displayed in sources

    @functools.cached_property
    def sentences(self) -> tuple:
        """(sub_name, Formula) pairs, parsed once per group."""
        from .parser import parse

        return tuple((sub, parse(text)) for sub, text in self.texts)


@dataclass(frozen=True)
class Theory:
    name: str
    groups: tuple  # of AxiomGroup
    has_ind_schema: bool = False

    def group(self, name: str) -> AxiomGroup:
        for g in self.groups:
            if g.name == name:
                return g
        raise KeyError(name)

    def axiom_names(self) -> list:
        return [g.name for g in self.groups]


# ---------------------------------------------------------------------------
# Traversals and utilities.


def subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, (Add, Mul, Sub)):
        yield from subterms(t.left)
        yield from subterms(t.right)


_TERM_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def fold_term(term: Term, leaf):
    """The value of a quantity term: ``leaf`` gives the value of each
    variable and constant, and +, - and * combine the values of the two
    operands, the left one computed first."""
    op = _TERM_OPS.get(type(term))
    if op is None:
        return leaf(term)
    return op(fold_term(term.left, leaf), fold_term(term.right, leaf))


def mentions(t: Term, var: str) -> bool:
    """True when the variable named var occurs in t."""
    return any(isinstance(x, Var) and x.name == var for x in subterms(t))


def _formula_terms(f: Formula) -> Iterator[Term]:
    if isinstance(f, (IBAtom, PhAtom, ObAtom, IObAtom)):
        yield f.body
    elif isinstance(f, WAtom):
        yield f.observer
        yield f.body
        yield from f.coords
    elif isinstance(f, (EqQ, EqB, Less)):
        yield f.left
        yield f.right


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.arg)
    elif isinstance(f, (And, Or, Implies, Iff)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, (Forall, Exists)):
        yield from subformulas(f.body)


def free_vars(f: Formula) -> dict:
    """Free variables with their sorts; raises SortError on inconsistent use."""
    out: dict = {}

    def visit(node: Formula, bound: dict):
        if isinstance(node, (Forall, Exists)):
            visit(node.body, {**bound, node.var: node.var_sort})
            return
        if isinstance(node, Not):
            visit(node.arg, bound)
            return
        if isinstance(node, (And, Or, Implies, Iff)):
            visit(node.left, bound)
            visit(node.right, bound)
            return
        for t in _formula_terms(node):
            for sub in subterms(t):
                if isinstance(sub, Var):
                    expected = bound.get(sub.name)
                    if expected is not None:
                        if expected is not sub.sort:
                            raise SortError("variable %s bound as %s, used as %s"
                                            % (sub.name, expected, sub.sort),
                                            pos=sub.pos, expected=expected, found=sub.sort)
                    else:
                        prior = out.get(sub.name)
                        if prior is not None and prior is not sub.sort:
                            raise SortError("variable %s used at two sorts" % sub.name,
                                            pos=sub.pos, expected=prior, found=sub.sort)
                        out[sub.name] = sub.sort

    visit(f, {})
    return out


def is_sentence(f: Formula) -> bool:
    return not free_vars(f)


def exists_many(names, sort: Sort, body: Formula) -> Formula:
    out = body
    for name in reversed(list(names)):
        out = Exists(name, sort, out)
    return out


def substitute_term(f: Formula, name: str, replacement: Term) -> Formula:
    """Capture-avoiding substitution of a term for a free variable."""
    repl_frees = {v.name for t in [replacement] for v in subterms(t) if isinstance(v, Var)}

    def sub_term(t: Term) -> Term:
        if isinstance(t, Var):
            return replacement if t.name == name else t
        if isinstance(t, (Add, Mul, Sub)):
            return type(t)(sub_term(t.left), sub_term(t.right))
        return t

    def fresh(base: str, avoid: set) -> str:
        ticks = len(base) - len(base.rstrip("'"))
        stem = base.rstrip("'")
        candidate = base
        n = 1
        while candidate in avoid:
            n += 1
            candidate = "%s_%d%s" % (stem, n, "'" * ticks)
        return candidate

    def visit(node: Formula) -> Formula:
        if isinstance(node, (Forall, Exists)):
            if node.var == name:
                return node
            if node.var in repl_frees:
                new_name = fresh(node.var, repl_frees | set(free_vars(node.body)) | {name})
                renamed = substitute_term(node.body, node.var, Var(new_name, node.var_sort))
                return type(node)(new_name, node.var_sort, visit(renamed))
            return type(node)(node.var, node.var_sort, visit(node.body))
        if isinstance(node, Not):
            return Not(visit(node.arg))
        if isinstance(node, (And, Or, Implies, Iff)):
            return type(node)(visit(node.left), visit(node.right))
        if isinstance(node, (IBAtom, PhAtom, ObAtom, IObAtom)):
            return type(node)(sub_term(node.body))
        if isinstance(node, WAtom):
            return WAtom(sub_term(node.observer), sub_term(node.body),
                         *(sub_term(c) for c in node.coords))
        if isinstance(node, (EqQ, EqB, Less)):
            return type(node)(sub_term(node.left), sub_term(node.right))
        return node

    return visit(f)


def alpha_equal(f: Formula, g: Formula) -> bool:
    """Structural equality up to bound-variable renaming (pos ignored)."""

    def walk(a, b, env_a: dict, env_b: dict, depth: int) -> bool:
        if type(a) is not type(b):
            return False
        if isinstance(a, (Forall, Exists)):
            if a.var_sort is not b.var_sort:
                return False
            return walk(a.body, b.body,
                        {**env_a, a.var: depth}, {**env_b, b.var: depth}, depth + 1)
        if isinstance(a, Not):
            return walk(a.arg, b.arg, env_a, env_b, depth)
        if isinstance(a, (And, Or, Implies, Iff)):
            return (walk(a.left, b.left, env_a, env_b, depth)
                    and walk(a.right, b.right, env_a, env_b, depth))
        if isinstance(a, (IBAtom, PhAtom, ObAtom, IObAtom)):
            return term_eq(a.body, b.body, env_a, env_b)
        if isinstance(a, WAtom):
            return all(term_eq(x, y, env_a, env_b)
                       for x, y in zip((a.observer, a.body) + a.coords,
                                       (b.observer, b.body) + b.coords))
        if isinstance(a, (EqQ, EqB, Less)):
            return (term_eq(a.left, b.left, env_a, env_b)
                    and term_eq(a.right, b.right, env_a, env_b))
        return a == b

    def term_eq(s, t, env_a, env_b) -> bool:
        if type(s) is not type(t):
            return False
        if isinstance(s, Var):
            if s.sort is not t.sort:
                return False
            da, db = env_a.get(s.name), env_b.get(t.name)
            if da is None and db is None:
                return s.name == t.name
            return da == db
        if isinstance(s, (Add, Mul, Sub)):
            return (term_eq(s.left, t.left, env_a, env_b)
                    and term_eq(s.right, t.right, env_a, env_b))
        return True  # ZeroC/OneC

    return walk(f, g, {}, {}, 0)
