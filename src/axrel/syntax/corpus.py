"""The axiom corpus: SpecRel, AccRel(-), GenRel(n), definitional
expansion, and the IND schema.

The axioms are written once below, as ``axiom NAME:`` blocks in the
formula grammar of the README (the one ``parse_theory_file`` reads), and
each group is parsed the first time its ``sentences`` are read.  A name
``GROUP.SUB`` puts sentence SUB into group GROUP (AxField is the finite
ordered-field axiom list); every other block is a group of one sentence.
AxSelf/AxPh/AxEv/AxSymd follow their displayed first-order shapes.
AxCmv, AxPh-, AxEv-, AxSymt- and AxDiff_n have no displayed shape in the
sources (they are delegated to citations); the encodings here are
epsilon-delta reconstructions and are marked ``reconstruction=True`` on
their groups.  AxDiff_n is generated as text for each order n.

AxSymd is stored twice: the default corrected form compares the primed
spatial distance component-by-component; ``AxSymd#literal`` (block
``AxSymd_literal``, since ``#`` starts a comment) transcribes the garbled
displayed right-hand side and exists only as a flagged curiosity (it is
never part of SpecRel).

Sibling binders keep their names (two ``A b:B`` in one conjunction):
``tests/golden/corpus_ast.json`` pins the AST each text parses to.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import Optional

from .ast import (
    Add, And, AxiomGroup, EqQ, Exists, Forall, Formula, IBAtom, IObAtom,
    Implies, Less, Mul, ObAtom, OneC, Or, Sort, Sub, Term, Theory, Var, WAtom,
    Substitution, ZeroC, exists_many, free_vars, fresh_name, map_terms, mentions,
    rebuild, subformulas,
)
from .parser import theory_blocks
from ..record import Record, set_field

__all__ = [
    "axiom_corpus", "named_axiom", "all_named_axioms", "UnknownTheory",
    "expand_definitions", "contract_definitions", "instantiate_ind", "NotQuantityVariable",
    "IndInstance", "ind_battery",
]


class UnknownTheory(KeyError):
    pass


class NotQuantityVariable(ValueError):
    pass


_CORPUS = """
axiom AxField.add_assoc:         A x:Q y:Q z:Q . (x + y) + z = x + (y + z)
axiom AxField.add_comm:          A x:Q y:Q . x + y = y + x
axiom AxField.add_identity:      A x:Q . x + 0 = x
axiom AxField.add_inverse:       A x:Q . E y:Q . x + y = 0
axiom AxField.mul_assoc:         A x:Q y:Q z:Q . (x * y) * z = x * (y * z)
axiom AxField.mul_comm:          A x:Q y:Q . x * y = y * x
axiom AxField.mul_identity:      A x:Q . x * 1 = x
axiom AxField.mul_inverse:       A x:Q . !x = 0 -> (E y:Q . x * y = 1)
axiom AxField.distributive:      A x:Q y:Q z:Q . x * (y + z) = x * y + x * z
axiom AxField.zero_one_distinct: !0 = 1
axiom AxField.less_irreflexive:  A x:Q . !x < x
axiom AxField.less_transitive:   A x:Q y:Q z:Q . x < y & y < z -> x < z
axiom AxField.less_total:        A x:Q y:Q . x < y | x = y | y < x
axiom AxField.add_monotone:      A x:Q y:Q z:Q . x < y -> x + z < y + z
axiom AxField.mul_positive:      A x:Q y:Q . 0 < x & 0 < y -> 0 < x * y

axiom AxSelf:
  A o:B x:Q y:Q z:Q t:Q . IOb(o) -> (W(o, o, x, y, z, t) <-> x = 0 & y = 0 & z = 0)

axiom AxPh:
  A o:B x1:Q x2:Q x3:Q x4:Q x1':Q x2':Q x3':Q x4':Q . IOb(o) ->
    ((E p:B . Ph(p) & W(o, p, x1, x2, x3, x4) & W(o, p, x1', x2', x3', x4'))
     <-> (x1 - x1')^2 + (x2 - x2')^2 + (x3 - x3')^2 = (x4 - x4')^2)

axiom AxEv:
  A o:B o':B x1:Q x2:Q x3:Q x4:Q . IOb(o) & IOb(o') ->
    (E x1':Q x2':Q x3':Q x4':Q . A b:B . W(o, b, x1, x2, x3, x4) <-> W(o', b, x1', x2', x3', x4'))

axiom AxSymd:
  A o:B o':B x1:Q x2:Q x3:Q x4:Q x1':Q x2':Q x3':Q x4':Q
             y1:Q y2:Q y3:Q y4:Q y1':Q y2':Q y3':Q y4':Q .
    IOb(o) & IOb(o') & x4 = y4 & x4' = y4'
    & (A b:B . W(o, b, x1, x2, x3, x4) <-> W(o', b, x1', x2', x3', x4'))
    & (A b:B . W(o, b, y1, y2, y3, y4) <-> W(o', b, y1', y2', y3', y4'))
    -> (x1 - y1)^2 + (x2 - y2)^2 + (x3 - y3)^2 = (x1' - y1')^2 + (x2' - y2')^2 + (x3' - y3')^2

# The displayed right-hand side, transcribed under the component naming
# used elsewhere in the axioms (z'_i read as the third components).
# Demonstrably not the intended formula.
axiom AxSymd_literal:
  A o:B o':B x1:Q x2:Q x3:Q x4:Q x1':Q x2':Q x3':Q x4':Q
             y1:Q y2:Q y3:Q y4:Q y1':Q y2':Q y3':Q y4':Q .
    IOb(o) & IOb(o') & x4 = y4 & x4' = y4'
    & (A b:B . W(o, b, x1, x2, x3, x4) <-> W(o', b, x1', x2', x3', x4'))
    & (A b:B . W(o, b, y1, y2, y3, y4) <-> W(o', b, y1', y2', y3', y4'))
    -> (x1 - y1)^2 + (x2 - y2)^2 + (x3 - y3)^2 = (x1' - x2')^2 + (y1' - y2')^2 + (x3' - y3')^2

# AccRel.  At each moment of its life, an observer k sees the nearby world
# for a short while like some inertial observer m: the worldview
# correspondence k -> m is the identity to first order at the moment.
axiom AxCmv:
  A k:B . Ob(k) -> (A t:Q . W(k, k, 0, 0, 0, t) -> (E m:B . IOb(m) & (A e:Q . 0 < e ->
    (E d:Q . 0 < d & (A x1:Q x2:Q x3:Q x4:Q y1:Q y2:Q y3:Q y4:Q .
      (A b:B . W(k, b, x1, x2, x3, x4) <-> W(m, b, y1, y2, y3, y4))
      & (x1 - 0)^2 + (x2 - 0)^2 + (x3 - 0)^2 + (x4 - t)^2 < d^2
      -> (y1 - x1)^2 + (y2 - x2)^2 + (y3 - x3)^2 + (y4 - x4)^2
           < e^2 * ((x1 - 0)^2 + (x2 - 0)^2 + (x3 - 0)^2 + (x4 - t)^2)
         | (y1 - x1)^2 + (y2 - x2)^2 + (y3 - x3)^2 + (y4 - x4)^2
           = e^2 * ((x1 - 0)^2 + (x2 - 0)^2 + (x3 - 0)^2 + (x4 - t)^2))))))

# GenRel: the localized axioms.  All but AxSelf- are reconstructions.
axiom AxSelf-:
  A o:B x:Q y:Q z:Q t:Q . W(o, o, x, y, z, t) -> x = 0 & y = 0 & z = 0

# (1) an observer's photons move at unit speed at the observer, to first
# order; (2) any observer can send out photons in any direction (d1, d2, d3).
axiom AxPh-:
  (A o:B p:B t:Q . Ob(o) & Ph(p) & W(o, o, 0, 0, 0, t) & W(o, p, 0, 0, 0, t) ->
    (A e:Q . 0 < e -> (E d:Q . 0 < d & (A y1:Q y2:Q y3:Q y4:Q .
      W(o, p, y1, y2, y3, y4) & 0 < (y4 - t)^2 & (y4 - t)^2 < d^2
      -> ((y1 - 0)^2 + (y2 - 0)^2 + (y3 - 0)^2 - (y4 - t)^2 < e * (y4 - t)^2
          | (y1 - 0)^2 + (y2 - 0)^2 + (y3 - 0)^2 - (y4 - t)^2 = e * (y4 - t)^2)
       & ((y4 - t)^2 - ((y1 - 0)^2 + (y2 - 0)^2 + (y3 - 0)^2) < e * (y4 - t)^2
          | (y4 - t)^2 - ((y1 - 0)^2 + (y2 - 0)^2 + (y3 - 0)^2) = e * (y4 - t)^2)))))
  & (A o:B t:Q d1:Q d2:Q d3:Q . Ob(o) & W(o, o, 0, 0, 0, t) & d1^2 + d2^2 + d3^2 = 1 ->
    (E p:B . Ph(p) & W(o, p, 0, 0, 0, t) & (A e:Q . 0 < e -> (E d:Q . 0 < d &
      (A y1:Q y2:Q y3:Q y4:Q . W(o, p, y1, y2, y3, y4) & 0 < (y4 - t)^2 & (y4 - t)^2 < d^2
        -> (y1 - d1 * (y4 - t))^2 + (y2 - d2 * (y4 - t))^2 + (y3 - d3 * (y4 - t))^2 < e^2 * (y4 - t)^2
           | (y1 - d1 * (y4 - t))^2 + (y2 - d2 * (y4 - t))^2 + (y3 - d3 * (y4 - t))^2 = e^2 * (y4 - t)^2)))))

# (1) an observer coordinatizes the events in which it was observed;
# (2) domains of worldview transformations are open.
axiom AxEv-:
  (A o:B o':B x1:Q x2:Q x3:Q x4:Q . Ob(o) & Ob(o') & W(o', o, x1, x2, x3, x4) ->
    (E y1:Q y2:Q y3:Q y4:Q . A b:B . W(o', b, x1, x2, x3, x4) <-> W(o, b, y1, y2, y3, y4)))
  & (A o:B o':B x1:Q x2:Q x3:Q x4:Q y1:Q y2:Q y3:Q y4:Q .
    Ob(o) & Ob(o') & (A b:B . W(o, b, x1, x2, x3, x4) <-> W(o', b, y1, y2, y3, y4)) ->
    (E d:Q . 0 < d & (A x1':Q x2':Q x3':Q x4':Q .
      (x1' - x1)^2 + (x2' - x2)^2 + (x3' - x3)^2 + (x4' - x4)^2 < d^2 ->
      (E y1':Q y2':Q y3':Q y4':Q . A b:B . W(o, b, x1', x2', x3', x4') <-> W(o', b, y1', y2', y3', y4')))))

# Meeting observers see each other's clocks behave the same way at the
# meeting: first-order rates agree, stated cross-multiplied to avoid
# division: s*(x4 - t) ~ s'*(y4 - t').
axiom AxSymt-:
  A o:B o':B t:Q t':Q . Ob(o) & Ob(o') & (A b:B . W(o, b, 0, 0, 0, t) <-> W(o', b, 0, 0, 0, t')) ->
    (A e:Q . 0 < e -> (E d:Q . 0 < d & (A s:Q s':Q x1:Q x2:Q x3:Q x4:Q y1:Q y2:Q y3:Q y4:Q .
      0 < s^2 & s^2 < d^2 & 0 < s'^2 & s'^2 < d^2
      & (A b:B . W(o, b, 0, 0, 0, t + s) <-> W(o', b, y1, y2, y3, y4))
      & (A b:B . W(o', b, 0, 0, 0, t' + s') <-> W(o, b, x1, x2, x3, x4))
      -> (s * (x4 - t) - s' * (y4 - t') < e * (s^2 + s'^2)
          | s * (x4 - t) - s' * (y4 - t') = e * (s^2 + s'^2))
       & (s' * (y4 - t') - s * (x4 - t) < e * (s^2 + s'^2)
          | s' * (y4 - t') - s * (x4 - t) = e * (s^2 + s'^2)))))
"""

# AxDiff_n: iterated difference quotients of the worldview transformation
# converge along every line through every domain point, up to order n
# (per-direction coefficients a_k).  Filled in by _ax_diff.
_AX_DIFF = """
A o:B o':B x1:Q x2:Q x3:Q x4:Q .
  Ob(o) & Ob(o') & (E w1:Q w2:Q w3:Q w4:Q . A b:B . W(o, b, x1, x2, x3, x4) <-> W(o', b, w1, w2, w3, w4))
  -> (A h1:Q h2:Q h3:Q h4:Q . E {coeffs} . A e:Q . 0 < e -> (E d:Q . 0 < d & (A l:Q {images} .
       0 < l^2 & l^2 < d^2 & {steps} -> {bounds})))
"""

_PUBLIC_NAMES = {"AxSymd_literal": "AxSymd#literal"}
_RECONSTRUCTIONS = {"AxCmv", "AxPh-", "AxEv-", "AxSymt-"}


def _read_groups(text: str) -> dict:
    texts: dict = {}
    for _, name, body in theory_blocks(text):
        group, _, sub = _PUBLIC_NAMES.get(name, name).partition(".")
        texts.setdefault(group, []).append((sub or group, body))
    return {name: AxiomGroup(name, tuple(items), name in _RECONSTRUCTIONS)
            for name, items in texts.items()}


# Built once per process, so each group parses its sentences at most once.
_GROUPS = _read_groups(_CORPUS)
_SPECREL = ("AxField", "AxSelf", "AxPh", "AxEv", "AxSymd")
_GENREL = ("AxField", "AxSelf-", "AxPh-", "AxEv-", "AxSymt-")


@functools.cache
def _ax_diff(n: int) -> AxiomGroup:
    def num(k: int) -> str:
        # Up to 6 a sum of ones; past that Horner form in base 1 + 1, so the
        # text grows like log k.
        if k <= 6:
            return "1" if k == 1 else "(%s)" % " + ".join(["1"] * k)
        return "((1 + 1) * %s%s)" % (num(k // 2), " + 1" if k % 2 else "")

    def lam_pow(k: int) -> str:
        return "l" if k == 1 else "(%s)" % " * ".join(["l"] * k)

    def names(prefix: str, rows) -> str:
        return " ".join("%s%d%d:Q" % (prefix, j, c) for j in rows for c in range(1, 5))

    points = ["x1, x2, x3, x4"] + [
        ", ".join("x%d + %s * (l * h%d)" % (c, num(j), c) for c in range(1, 5))
        for j in range(1, n + 1)]
    steps = " & ".join("(A b:B . W(o, b, %s) <-> W(o', b, y%d1, y%d2, y%d3, y%d4))"
                       % (p, j, j, j, j) for j, p in enumerate(points))
    bounds = []
    for k in range(1, n + 1):
        # Component-wise forward k-th difference, sum over j of
        # (-1)^(k-j) * C(k, j) * y_j written from j = k down, minus k! * a_k * l^k.
        residuals = []
        for c in range(1, 5):
            diff = "y%d%d" % (k, c)
            for j in range(k - 1, -1, -1):
                coeff = math.comb(k, j)
                part = "y%d%d" % (j, c) if coeff == 1 else "%s * y%d%d" % (num(coeff), j, c)
                diff += " %s %s" % ("+" if (k - j) % 2 == 0 else "-", part)
            residuals.append("(%s - %s * (a%d%d * %s))^2"
                             % (diff, num(math.factorial(k)), k, c, lam_pow(k)))
        residual, scale = " + ".join(residuals), "e^2 * %s^2" % lam_pow(k)
        bounds.append("(%s < %s | %s = %s)" % (residual, scale, residual, scale))
    text = _AX_DIFF.format(coeffs=names("a", range(1, n + 1)), images=names("y", range(n + 1)),
                           steps=steps, bounds=" & ".join(bounds))
    name = "AxDiff_%d" % n
    return AxiomGroup(name, ((name, " ".join(text.split())),), reconstruction=True)


# ---------------------------------------------------------------------------
# Theories.


def axiom_corpus(name: str) -> Theory:
    """Theory by name: SpecRel, AccRelMinus, AccRel, or GenRel(n)."""
    if name == "SpecRel":
        return Theory("SpecRel", tuple(_GROUPS[g] for g in _SPECREL))
    if name in ("AccRelMinus", "AccRel-", "AccRel"):
        groups = tuple(_GROUPS[g] for g in _SPECREL + ("AxCmv",))
        if name == "AccRel":
            return Theory("AccRel", groups, has_ind_schema=True)
        return Theory("AccRelMinus", groups)
    m = re.fullmatch(r"GenRel\((\d+)\)", name)
    if m and int(m.group(1)) >= 1:
        groups = tuple(_GROUPS[g] for g in _GENREL) + (_ax_diff(int(m.group(1))),)
        return Theory(name, groups, has_ind_schema=True)
    raise UnknownTheory(name)


def named_axiom(name: str) -> Formula:
    """A single axiom sentence by name (e.g. ``AxPh``, ``AxSymd#literal``,
    ``AxDiff_3``)."""
    m = re.fullmatch(r"AxDiff_([1-9][0-9]*)", name)
    if m:
        return _ax_diff(int(m.group(1))).sentences[0][1]
    for group in _GROUPS.values():
        for i, (sub, _) in enumerate(group.texts):
            if sub == name:
                return group.sentences[i][1]
    raise UnknownTheory(name)


def all_named_axioms() -> list:
    """Every (name, sentence) in the corpus, for round-trip sweeps."""
    out = []
    seen = set()
    for theory in ("SpecRel", "AccRel", "GenRel(1)", "GenRel(2)", "GenRel(3)"):
        for group in axiom_corpus(theory).groups:
            for sub, sentence in group.sentences:
                key = (group.name, sub)
                if key not in seen:
                    seen.add(key)
                    out.append(("%s.%s" % key if len(group.texts) > 1 else sub, sentence))
    out += _GROUPS["AxSymd#literal"].sentences
    return out


# ---------------------------------------------------------------------------
# Definitional expansion down to the primitive signature.


def expand_definitions(f: Formula) -> Formula:
    """Replace Ob/IOb and the 0/1/- sugar by their defining formulas.

    The result contains only primitive symbols; expansion is idempotent
    and deterministic (fresh variables are numbered in traversal order).
    """
    counter = itertools.count(1)

    def fresh(prefix: str) -> str:
        return "_%s%d" % (prefix, next(counter))

    def expand_atom_terms(node: Formula) -> Formula:
        # Each 0, 1 and subtraction becomes a fresh variable v pinned by a
        # guard, innermost first and left to right.
        pinned = []

        def pin(t: Term):
            if isinstance(t, Sub):  # v is the unique u with right + u = left
                left, right = map_terms(t.left, pin), map_terms(t.right, pin)
                v = Var(fresh("q"), Sort.QUANTITY)
                pinned.append((v, EqQ(Add(right, v), left)))
                return v
            if isinstance(t, (ZeroC, OneC)):  # v is the neutral element of + or *
                v, w = Var(fresh("q"), Sort.QUANTITY), Var(fresh("w"), Sort.QUANTITY)
                op = Add if isinstance(t, ZeroC) else Mul
                pinned.append((v, Forall(w.name, Sort.QUANTITY, EqQ(op(v, w), w))))
                return v
            return None

        out = map_terms(node, pin)
        for v, guard in reversed(pinned):
            out = Exists(v.name, Sort.QUANTITY, And(guard, out))
        return out

    def visit(node: Formula) -> Formula:
        if isinstance(node, ObAtom):
            b, names = fresh("b"), [fresh("q") for _ in range(4)]
            w = WAtom(node.body, Var(b, Sort.BODY),
                      *(Var(nm, Sort.QUANTITY) for nm in names))
            return Exists(b, Sort.BODY, exists_many(names, Sort.QUANTITY, w))
        if isinstance(node, IObAtom):
            return And(IBAtom(node.body), visit(ObAtom(node.body)))
        return rebuild(node, visit, expand_atom_terms)

    return visit(f)


def contract_definitions(f: Formula) -> Formula:
    """Partial inverse of expand_definitions: inline existentials that pin
    their variable definitionally.

    In any ordered field,  E v . (A w . v+w = w) & phi(v)  is equivalent
    to  phi(0),  likewise for the multiplicative unit and for
    E v . (t + v = s) & phi(v)  versus  phi(s - t).  The evaluator
    applies this before quantifier processing so expanded formulas are
    decided exactly like their sugared originals.
    """

    def pin_of(var: str, guard: Formula) -> Optional[Term]:
        if isinstance(guard, Forall) and guard.var_sort is Sort.QUANTITY:
            b = guard.body
            w = guard.var
            if isinstance(b, EqQ) and isinstance(b.right, Var) and b.right.name == w:
                l = b.left
                if isinstance(l, (Add, Mul)):
                    pair = {t.name for t in (l.left, l.right) if isinstance(t, Var)}
                    if pair == {var, w} and isinstance(l.left, Var) and isinstance(l.right, Var):
                        return ZeroC() if isinstance(l, Add) else OneC()
        if isinstance(guard, EqQ) and isinstance(guard.left, Add):
            t, v = guard.left.left, guard.left.right
            if isinstance(v, Var) and v.name == var and not mentions(t, var) \
                    and not mentions(guard.right, var):
                return Sub(guard.right, t)
        return None

    def visit(node: Formula, subst: Substitution) -> Formula:
        # node under subst, contracted: the pins found above node are the
        # last steps of subst, each pin's term already under the pins
        # above it.  A guard pin_of can match (an equation, or a universal
        # over one) holds no existential, so visiting it only substitutes.
        cls = type(node)
        if cls is not Forall and cls is not Exists:
            return rebuild(node, lambda g: visit(g, subst), subst.atom)
        var, inner = subst.binder(node.var, node.var_sort, node.body)
        body = node.body
        if cls is Exists and node.var_sort is Sort.QUANTITY and isinstance(body, And) and (
                isinstance(body.left, EqQ)
                or isinstance(body.left, Forall) and isinstance(body.left.body, EqQ)):
            pin = pin_of(var, visit(body.left, inner))
            if pin is not None:
                return visit(body.right, inner.then(var, pin))
        new_body = visit(body, inner)
        return node if var == node.var and new_body is body else cls(var, node.var_sort, new_body)

    return visit(f, Substitution())


# ---------------------------------------------------------------------------
# The IND schema.


def instantiate_ind(phi: Formula, var: str = "t") -> Formula:
    """The IND instance for phi with distinguished quantity variable var:
    if the set phi defines is nonempty and bounded above, it has a least
    upper bound.  Parameters (other free variables) are universally
    quantified in front.

    Instances whose formula stays inside the ordered-field sublanguage
    are exactly the first-order continuity axioms for the quantity sort;
    instances mentioning W or body predicates reach beyond them.
    """
    frees = free_vars(phi)
    if var not in frees:
        raise NotQuantityVariable("%r is not free in the formula" % var)
    if frees[var] is not Sort.QUANTITY:
        raise NotQuantityVariable("%r is not quantity-sorted" % var)
    params = sorted(n for n in frees if n != var)
    used = set(frees)
    ub_name = fresh_name("u", used)
    sup_name = fresh_name("s", used)
    other_ub = fresh_name("u'", used)

    def le(a: str, b: str) -> Formula:
        a, b = Var(a, Sort.QUANTITY), Var(b, Sort.QUANTITY)
        return Or(Less(a, b), EqQ(a, b))

    def upper_bound(u: str) -> Formula:
        return Forall(var, Sort.QUANTITY, Implies(phi, le(var, u)))

    nonempty = Exists(var, Sort.QUANTITY, phi)
    bounded = Exists(ub_name, Sort.QUANTITY, upper_bound(ub_name))
    least = Forall(other_ub, Sort.QUANTITY,
                   Implies(upper_bound(other_ub), le(sup_name, other_ub)))
    has_sup = Exists(sup_name, Sort.QUANTITY, And(upper_bound(sup_name), least))
    instance = Implies(And(nonempty, bounded), has_sup)
    for p in reversed(params):
        instance = Forall(p, frees[p], instance)
    return instance


# ---------------------------------------------------------------------------
# The configured IND battery (interval-definable sets, exact suprema).


class IndInstance(Record):
    __slots__ = _fields = ("name", "formula", "var", "expected_sup", "param_values")

    def __init__(self, name: str, formula: Formula, var: str,
                 expected_sup: Optional[str] = None, param_values: tuple = ()):
        set_field(self, "name", name)
        set_field(self, "formula", formula)  # free in `var` (+ possibly parameters)
        set_field(self, "var", var)
        set_field(self, "expected_sup", expected_sup)  # literal, None for empty sets
        set_field(self, "param_values", param_values)  # ((name, literal-or-body), ...) fixed bindings

    @property
    def field_language(self) -> bool:
        """No W atom and no body-sorted variable, free or bound, occurs."""
        return Sort.BODY not in free_vars(self.formula).values() and not any(
            type(g) is WAtom or isinstance(g, (Forall, Exists)) and g.var_sort is Sort.BODY
            for g in subformulas(self.formula))


def ind_battery() -> list:
    """Twenty IND instances over interval-definable bounded sets: a fresh
    list of shared, immutable records, parsed once."""
    return list(_ind_instances())


@functools.cache
def _ind_instances() -> tuple:
    from .parser import parse

    decls = {"t": Sort.QUANTITY, "p": Sort.QUANTITY, "o": Sort.BODY, "k": Sort.BODY}
    items = [
        ("sqrt2", "t*t < 1+1", "sqrt(2)", ()),
        ("unit", "t < 1", "1", ()),
        ("parabola", "t*t < t+t", "2", ()),
        ("golden", "t*t + t < 1", "-1/2 + 1/2*sqrt(5)", ()),
        ("empty_order", "t < 0 & 0 < t", None, ()),
        ("empty_square", "t*t < 0", None, ()),
        ("half", "t+t = 1", "1/2", ()),
        ("neg_sqrt2", "t*t = 1+1 & t < 0", "-sqrt(2)", ()),
        ("union", "t < 1 | t < 1+1", "2", ()),
        ("shifted", "(t+1)*(t+1) < 1+1+1+1", "1", ()),
        ("hump", "0 < t*(1-t)", "1", ()),
        ("circle", "t*t + t*t < 1", "1/2*sqrt(2)", ()),
        ("open_unit", "0 < t & t*t < t", "1", ()),
        ("two_pieces", "t < 0-1 | (0 < t & t+t+t < 1)", "1/3", ()),
        ("sqrt3", "t*t < 1+1+1", "sqrt(3)", ()),
        ("offset_sqrt2", "(t-1)*(t-1) < 1+1", "1 + sqrt(2)", ()),
        ("photon_reach", "E p:B . Ph(p) & W(o,p,0,0,0,0) & W(o,p,t,0,0,1)", "1",
         (("o", "@observer"),)),
        ("body_position", "W(o,k,t,0,0,1)", None, (("o", "@observer"), ("k", "@body"))),
        ("param_cut", "t < p", "p", (("p", "3/4"),)),
        ("param_square", "t*t < p*p", "3/4", (("p", "3/4"),)),
    ]
    out = []
    for name, text, sup, params in items:
        out.append(IndInstance(name, parse(text, decls), "t", sup, params))
    return tuple(out)
