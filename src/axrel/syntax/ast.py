"""AST for the two-sorted first-order language {B, IB, Ph, Q, +, *, <, W}.

Body terms are variables only; quantity terms are variables, the
definitional constants 0 and 1, sums, products, and the subtraction
sugar.  Formulas carry the defined atoms Ob and IOb as nodes so the
axioms read the way they are written; ``expand_definitions`` eliminates
every piece of sugar down to the primitive signature.

Nodes are frozen records (:mod:`axrel.record`); the optional ``pos``
attribute records the source offset for parser diagnostics and never
takes part in equality, hashing or repr.

``fold_term`` is the one walker that computes the value of a quantity
term: evaluation to field values, affine forms and polynomials each
supply only the value of a leaf (a variable, 0 or 1).
"""

from __future__ import annotations

import enum
import functools
import operator
import sys
from typing import Iterator

from ..record import Record, set_field

# Expanded corpus formulas (AxDiff_n after definitional expansion) nest
# thousands of levels deep; the recursive traversals here need headroom.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))

__all__ = [
    "Sort", "Term", "Var", "ZeroC", "OneC", "Add", "Mul", "Sub",
    "Formula", "IBAtom", "PhAtom", "ObAtom", "IObAtom", "WAtom",
    "EqQ", "EqB", "Less", "Not", "And", "Or", "Implies", "Iff",
    "Forall", "Exists", "Theory", "AxiomGroup", "SortError",
    "free_vars", "subterms", "subformulas", "alpha_equal", "is_sentence",
    "exists_many", "substitute_term", "Substitution",
    "fold_term", "mentions", "rebuild", "map_terms", "fresh_name", "rename_bound",
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


class Term(Record):
    __slots__ = ("pos",)

    @property
    def sort(self) -> Sort:
        raise NotImplementedError


class Var(Term):
    __slots__ = _fields = ("name", "var_sort")

    def __init__(self, name: str, var_sort: Sort, *, pos: int = -1):
        set_field(self, "name", name)
        set_field(self, "var_sort", var_sort)
        set_field(self, "pos", pos)

    @property
    def sort(self) -> Sort:
        return self.var_sort


class _Constant(Term):
    __slots__ = ()

    def __init__(self, *, pos: int = -1):
        set_field(self, "pos", pos)

    @property
    def sort(self) -> Sort:
        return Sort.QUANTITY


class ZeroC(_Constant):
    """Definitional constant 0 (the additive neutral element)."""

    __slots__ = ()


class OneC(_Constant):
    """Definitional constant 1 (the multiplicative neutral element)."""

    __slots__ = ()


def _require_quantity(t: Term, what: str):
    if t.sort is not Sort.QUANTITY:
        raise SortError("%s requires quantity-sorted arguments" % what,
                        pos=t.pos, expected=Sort.QUANTITY, found=t.sort)


class _Operation(Term):
    """A quantity operation, written _symbol, on two quantity terms."""

    __slots__ = _fields = ("left", "right")
    _symbol = ""

    def __init__(self, left: Term, right: Term, *, pos: int = -1):
        _require_quantity(left, self._symbol)
        _require_quantity(right, self._symbol)
        set_field(self, "left", left)
        set_field(self, "right", right)
        set_field(self, "pos", pos)

    @property
    def sort(self) -> Sort:
        return Sort.QUANTITY


class Add(_Operation):
    __slots__ = ()
    _symbol = "+"


class Mul(_Operation):
    __slots__ = ()
    _symbol = "*"


class Sub(_Operation):
    """Subtraction sugar; expand_definitions removes it."""

    __slots__ = ()
    _symbol = "-"


class Formula(Record):
    __slots__ = ("pos",)


def _require_body(t: Term, what: str):
    if t.sort is not Sort.BODY:
        raise SortError("%s requires a body-sorted argument" % what,
                        pos=t.pos, expected=Sort.BODY, found=t.sort)


class _BodyAtom(Formula):
    """A unary predicate, named _symbol, of one body term."""

    __slots__ = _fields = ("body",)
    _symbol = ""

    def __init__(self, body: Term, *, pos: int = -1):
        _require_body(body, self._symbol)
        set_field(self, "body", body)
        set_field(self, "pos", pos)


class IBAtom(_BodyAtom):
    __slots__ = ()
    _symbol = "IB"


class PhAtom(_BodyAtom):
    __slots__ = ()
    _symbol = "Ph"


class ObAtom(_BodyAtom):
    """Defined: Ob(o) iff o coordinatizes some body somewhere."""

    __slots__ = ()
    _symbol = "Ob"


class IObAtom(_BodyAtom):
    """Defined: IOb(o) iff IB(o) and Ob(o)."""

    __slots__ = ()
    _symbol = "IOb"


class WAtom(Formula):
    __slots__ = _fields = ("observer", "body", "x1", "x2", "x3", "x4")

    def __init__(self, observer: Term, body: Term, x1: Term, x2: Term, x3: Term, x4: Term,
                 *, pos: int = -1):
        _require_body(observer, "W")
        _require_body(body, "W")
        for t in (x1, x2, x3, x4):
            _require_quantity(t, "W")
        set_field(self, "observer", observer)
        set_field(self, "body", body)
        set_field(self, "x1", x1)
        set_field(self, "x2", x2)
        set_field(self, "x3", x3)
        set_field(self, "x4", x4)
        set_field(self, "pos", pos)

    @property
    def coords(self) -> tuple:
        return (self.x1, self.x2, self.x3, self.x4)


class _Relation(Formula):
    """A relation, written _symbol, between two terms that _require accepts."""

    __slots__ = _fields = ("left", "right")
    _symbol = ""
    _require = staticmethod(_require_quantity)

    def __init__(self, left: Term, right: Term, *, pos: int = -1):
        self._require(left, self._symbol)
        self._require(right, self._symbol)
        set_field(self, "left", left)
        set_field(self, "right", right)
        set_field(self, "pos", pos)


class EqQ(_Relation):
    __slots__ = ()
    _symbol = "="


class EqB(_Relation):
    __slots__ = ()
    _symbol = "="
    _require = staticmethod(_require_body)


class Less(_Relation):
    __slots__ = ()
    _symbol = "<"


class Not(Formula):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: Formula, *, pos: int = -1):
        set_field(self, "arg", arg)
        set_field(self, "pos", pos)


class _Connective(Formula):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula, *, pos: int = -1):
        set_field(self, "left", left)
        set_field(self, "right", right)
        set_field(self, "pos", pos)


class And(_Connective):
    __slots__ = ()


class Or(_Connective):
    __slots__ = ()


class Implies(_Connective):
    __slots__ = ()


class Iff(_Connective):
    __slots__ = ()


class _Quantifier(Formula):
    __slots__ = _fields = ("var", "var_sort", "body")

    def __init__(self, var: str, var_sort: Sort, body: Formula, *, pos: int = -1):
        set_field(self, "var", var)
        set_field(self, "var_sort", var_sort)
        set_field(self, "body", body)
        set_field(self, "pos", pos)


class Forall(_Quantifier):
    __slots__ = ()


class Exists(_Quantifier):
    __slots__ = ()


# ---------------------------------------------------------------------------
# Theories.


class AxiomGroup(Record):
    """A named axiom: one sentence, or a finite list (AxField).

    The sentences are held as formula text and parsed on first access to
    ``sentences``, so naming, counting and certified checks parse nothing.
    ``reconstruction`` marks a FOL shape reconstructed, not displayed in
    the sources.
    """

    # No __slots__: the cached ``sentences`` lives in the instance __dict__.
    _fields = ("name", "texts", "reconstruction")

    def __init__(self, name: str, texts: tuple, reconstruction: bool = False):
        set_field(self, "name", name)
        set_field(self, "texts", texts)  # of (sub_name, sentence text)
        set_field(self, "reconstruction", reconstruction)

    @functools.cached_property
    def sentences(self) -> tuple:
        """(sub_name, Formula) pairs, parsed once per group."""
        from .parser import parse

        return tuple((sub, parse(text)) for sub, text in self.texts)


class Theory(Record):
    __slots__ = _fields = ("name", "groups", "has_ind_schema")

    def __init__(self, name: str, groups: tuple, has_ind_schema: bool = False):
        set_field(self, "name", name)
        set_field(self, "groups", groups)  # of AxiomGroup
        set_field(self, "has_ind_schema", has_ind_schema)

    def group(self, name: str) -> AxiomGroup:
        for g in self.groups:
            if g.name == name:
                return g
        raise KeyError(name)

    def axiom_names(self) -> list:
        return [g.name for g in self.groups]


# ---------------------------------------------------------------------------
# Traversals and utilities.  Each transformation below spells out only its
# own cases and hands the rest to three shared walks: ``rebuild`` (one
# formula node from its transformed children), ``map_terms`` (a top-down
# rebuild of a term or of an atom's terms) and ``fresh_name``.

_TERM_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}
_BINARY = (And, Or, Implies, Iff)
_BODY_ATOMS = (IBAtom, PhAtom, ObAtom, IObAtom)
_RELATIONS = (EqQ, EqB, Less)


def subterms(t: Term) -> Iterator[Term]:
    """t and every operand below it, pre-order, left before right."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if type(t) in _TERM_OPS:
            stack.append(t.right)
            stack.append(t.left)


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


def _formula_terms(f: Formula) -> tuple:
    """The terms of an atom, left to right; () for any other formula."""
    cls = type(f)
    if cls in _BODY_ATOMS:
        return (f.body,)
    if cls is WAtom:
        return (f.observer, f.body) + f.coords
    if cls in _RELATIONS:
        return (f.left, f.right)
    return ()


def _children(f: Formula) -> tuple:
    """The immediate subformulas of f, left to right."""
    cls = type(f)
    if cls is Not:
        return (f.arg,)
    if cls in _BINARY:
        return (f.left, f.right)
    if cls is Forall or cls is Exists:
        return (f.body,)
    return ()


def subformulas(f: Formula) -> Iterator[Formula]:
    """f and every subformula below it, pre-order, left before right."""
    stack = [f]
    while stack:
        f = stack.pop()
        yield f
        stack.extend(reversed(_children(f)))


def _flatten_and(f: Formula) -> list:
    if isinstance(f, And):
        return _flatten_and(f.left) + _flatten_and(f.right)
    return [f]


def _about(g: Formula, var: str, kinds) -> bool:
    """True for an atom of one of the given kinds whose body is the variable var."""
    return isinstance(g, kinds) and isinstance(g.body, Var) and g.body.name == var


def _split_conjuncts(conjuncts: list, var: str):
    """(kinds, watoms, rest): the types of the Ph/IB atoms about var, the W
    atoms about var, and every other conjunct."""
    kinds, watoms, rest = set(), [], []
    for g in conjuncts:
        if _about(g, var, (PhAtom, IBAtom)):
            kinds.add(type(g))
        elif _about(g, var, WAtom):
            watoms.append(g)
        else:
            rest.append(g)
    return kinds, watoms, rest


def rebuild(f: Formula, visit, atom=None) -> Formula:
    """f with each immediate subformula g replaced by visit(g), left to
    right; f itself when nothing changed.  An atom is returned as it is, or
    as atom(f) when atom is given."""
    cls = type(f)
    if cls is Not:
        arg = visit(f.arg)
        return f if arg is f.arg else Not(arg)
    if cls in _BINARY:
        left, right = visit(f.left), visit(f.right)
        return f if left is f.left and right is f.right else cls(left, right)
    if cls is Forall or cls is Exists:
        body = visit(f.body)
        return f if body is f.body else cls(f.var, f.var_sort, body)
    return f if atom is None else atom(f)


def map_terms(node, fn):
    """Top-down rebuild of a term, or of each term of an atom, left to
    right.  fn(t) returns a replacement for the term t, which ends the
    descent there, or None to keep t over its rebuilt operands.  A node
    none of whose terms changed is returned as it is."""
    if isinstance(node, Term):
        new = fn(node)
        if new is not None:
            return new
        cls = type(node)
        if cls not in _TERM_OPS:
            return node
        left, right = map_terms(node.left, fn), map_terms(node.right, fn)
        return node if left is node.left and right is node.right else cls(left, right)
    terms = _formula_terms(node)
    new_terms = [map_terms(t, fn) for t in terms]
    if all(new is old for new, old in zip(new_terms, terms)):
        return node
    return type(node)(*new_terms)  # every atom takes its terms in this order


def fresh_name(base: str, used: set) -> str:
    """The first of base, base_2, base_3, ... not in used, which it joins.
    A numeral goes before the trailing primes (u' gives u_2'), so the name
    reads back as one identifier."""
    stem = base.rstrip("'")
    name, n = base, 1
    while name in used:
        n += 1
        name = "%s_%d%s" % (stem, n, base[len(stem):])
    used.add(name)
    return name


def free_vars(f: Formula) -> dict:
    """Free variables with their sorts, in order of first occurrence;
    raises SortError on inconsistent use."""
    out: dict = {}
    stack = [(f, {})]
    while stack:
        node, bound = stack.pop()
        children = _children(node)
        if children:
            if type(node) is Forall or type(node) is Exists:
                bound = {**bound, node.var: node.var_sort}
            stack.extend([(child, bound) for child in reversed(children)])
            continue
        for t in _formula_terms(node):
            for sub in subterms(t):
                if type(sub) is not Var:
                    continue
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
    return out


def is_sentence(f: Formula) -> bool:
    return not free_vars(f)


def exists_many(names, sort: Sort, body: Formula) -> Formula:
    out = body
    for name in reversed(list(names)):
        out = Exists(name, sort, out)
    return out


class Substitution:
    """Capture-avoiding substitutions of terms for free variables, applied
    one after another: ``Substitution().then(x, s).then(y, t)`` acts as
    substituting s for x and then t for y in the result.

    A substitution that reaches a binder of its own variable stops there.
    One that reaches a binder whose variable its term mentions renames the
    binder first, to the first fresh name (see :func:`fresh_name`) not free
    in the term or in the body as it is at that point and not the
    substituted variable, whether or not the variable occurs in the body.
    :meth:`binder` takes a binder through every step in order, so the names
    are those that substituting step by step would choose.  Terms have no
    binders, so the steps act on a term as one map from variable names to
    terms, composed as they are added.
    """

    __slots__ = ("steps", "terms", "frees")

    def __init__(self, steps: tuple = (), terms: dict = None, frees: dict = None):
        self.steps = steps  # ((name, term, names free in term), ...)
        self.terms = {} if terms is None else terms  # name -> term, all steps composed
        self.frees = {} if frees is None else frees  # name -> names free in its term

    def then(self, name: str, term: Term) -> "Substitution":
        """This substitution followed by term for name."""
        names = frozenset(v.name for v in subterms(term) if type(v) is Var)

        def swap(t: Term):
            return term if type(t) is Var and t.name == name else None

        terms, frees = dict(self.terms), dict(self.frees)
        for k, k_frees in self.frees.items():
            if name in k_frees:
                terms[k] = map_terms(terms[k], swap)
                frees[k] = (k_frees - {name}) | names
        if name not in terms:
            terms[name], frees[name] = term, names
        return Substitution(self.steps + ((name, term, names),), terms, frees)

    def atom(self, f: Formula) -> Formula:
        return map_terms(f, lambda u: self.terms.get(u.name) if type(u) is Var else None)

    def binder(self, var: str, sort: Sort, body: Formula) -> tuple:
        """The binder's name after every step, and the steps that go on
        into its body (a rename of the binder included)."""
        steps, name, frees_in_body, changed = [], var, None, False
        for step in self.steps:
            target, term, frees = step
            if name == target:
                changed = True
                continue
            if name in frees:
                if frees_in_body is None:
                    frees_in_body = set(free_vars(body))
                    for s in steps:
                        _substituted_frees(frees_in_body, s)
                new = fresh_name(name, {target, *frees, *frees_in_body})
                rename = (name, Var(new, sort), frozenset((new,)))
                steps.append(rename)
                _substituted_frees(frees_in_body, rename)
                name, changed = new, True
            steps.append(step)
            if frees_in_body is not None:
                _substituted_frees(frees_in_body, step)
        if not changed:
            return var, self
        inner = Substitution()
        for target, term, _ in steps:
            inner = inner.then(target, term)
        return name, inner


def _substituted_frees(frees: set, step: tuple):
    """Update the free names of a formula, in place, for one step."""
    target, _, term_frees = step
    if target in frees:
        frees.discard(target)
        frees |= term_frees


def substitute_term(f: Formula, name: str, replacement: Term) -> Formula:
    """Capture-avoiding substitution of a term for a free variable."""

    def visit(node: Formula, subst: Substitution) -> Formula:
        cls = type(node)
        if cls is Forall or cls is Exists:
            var, inner = subst.binder(node.var, node.var_sort, node.body)
            body = visit(node.body, inner) if inner.steps else node.body
            return node if var == node.var and body is node.body else cls(var, node.var_sort, body)
        return rebuild(node, lambda g: visit(g, subst), subst.atom)

    return visit(f, Substitution().then(name, replacement))


def rename_bound(f: Formula, choose) -> Formula:
    """f with each binder's variable renamed to choose(var, depth), where
    depth counts the binders above it, and its bound occurrences renamed
    to match.  Binders are renamed in pre-order."""

    def scope(ren: dict, depth: int):
        def rename(t: Term):
            if type(t) is Var and t.name in ren:
                return Var(ren[t.name], t.var_sort)
            return None

        def atom(node: Formula) -> Formula:
            return map_terms(node, rename)

        def visit(node: Formula) -> Formula:
            cls = type(node)
            if cls is Forall or cls is Exists:
                new = choose(node.var, depth)
                inner = scope({**ren, node.var: new}, depth + 1)
                return cls(new, node.var_sort, inner(node.body))
            return rebuild(node, visit, atom)

        return visit

    return scope({}, 0)(f)


def alpha_equal(f: Formula, g: Formula) -> bool:
    """Structural equality up to bound-variable renaming (pos ignored): the
    formulas are compared with each bound variable renamed to its binder
    depth, a name no parsed variable can have."""

    def by_depth(h: Formula) -> Formula:
        return rename_bound(h, lambda var, depth: "#%d" % depth)

    return by_depth(f) == by_depth(g)
