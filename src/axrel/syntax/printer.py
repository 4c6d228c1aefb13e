"""Printer for the concrete syntax; parse(print(f)) is the identity.

Shadowed bound variables are renamed apart before printing, so output is
always unambiguous; squared products print as ``t^2``.
"""

from __future__ import annotations

from .ast import (
    Add, And, EqB, EqQ, Exists, Forall, Formula, IBAtom, IObAtom, Iff, Implies,
    Less, Mul, Not, ObAtom, OneC, Or, PhAtom, Sub, Term, Var, WAtom,
    ZeroC, free_vars, fresh_name, rename_bound,
)

__all__ = ["print_formula"]

# Precedence levels, loosest first.
_P_IFF, _P_IMPL, _P_OR, _P_AND, _P_UNARY = range(5)


def print_formula(f: Formula) -> str:
    f = _rename_apart(f)
    return _fmt(f, _P_IFF)


def _fmt(f: Formula, ctx: int) -> str:
    if isinstance(f, Iff):
        s = "%s <-> %s" % (_fmt(f.left, _P_IMPL), _fmt(f.right, _P_IMPL))
        return _wrap(s, ctx > _P_IFF)
    if isinstance(f, Implies):
        s = "%s -> %s" % (_fmt(f.left, _P_OR), _fmt(f.right, _P_IMPL))
        return _wrap(s, ctx > _P_IMPL)
    if isinstance(f, Or):
        s = "%s | %s" % (_fmt(f.left, _P_OR), _fmt(f.right, _P_AND))
        return _wrap(s, ctx > _P_OR)
    if isinstance(f, And):
        s = "%s & %s" % (_fmt(f.left, _P_AND), _fmt(f.right, _P_UNARY))
        return _wrap(s, ctx > _P_AND)
    if isinstance(f, Not):
        return "!%s" % _fmt(f.arg, _P_UNARY + 1)
    if isinstance(f, (Forall, Exists)):
        kind = "A" if isinstance(f, Forall) else "E"
        bindings = []
        node: Formula = f
        while isinstance(node, type(f)):
            bindings.append("%s:%s" % (node.var, node.var_sort))
            node = node.body
        s = "%s %s . %s" % (kind, " ".join(bindings), _fmt(node, _P_IFF))
        return _wrap(s, ctx > _P_IFF)
    if isinstance(f, (IBAtom, PhAtom, ObAtom, IObAtom)):
        name = {IBAtom: "IB", PhAtom: "Ph", ObAtom: "Ob", IObAtom: "IOb"}[type(f)]
        return "%s(%s)" % (name, _term(f.body, 0))
    if isinstance(f, WAtom):
        return "W(%s)" % ", ".join(_term(t, 0) for t in (f.observer, f.body) + f.coords)
    if isinstance(f, EqQ) or isinstance(f, EqB):
        return "%s = %s" % (_term(f.left, 0), _term(f.right, 0))
    if isinstance(f, Less):
        return "%s < %s" % (_term(f.left, 0), _term(f.right, 0))
    raise TypeError("unknown formula node %r" % f)


def _wrap(s: str, need: bool) -> str:
    return "(%s)" % s if need else s


# Term precedence: sum 0, product 1, atom 2.


def _term(t: Term, ctx: int) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, ZeroC):
        return "0"
    if isinstance(t, OneC):
        return "1"
    if isinstance(t, (Add, Sub)):
        op = "+" if isinstance(t, Add) else "-"
        s = "%s %s %s" % (_term(t.left, 0), op, _term(t.right, 1))
        return _wrap(s, ctx > 0)
    if isinstance(t, Mul):
        if t.left == t.right:
            return "%s^2" % _term(t.left, 2)
        s = "%s * %s" % (_term(t.left, 1), _term(t.right, 2))
        return _wrap(s, ctx > 1)
    raise TypeError("unknown term node %r" % t)


def _rename_apart(f: Formula) -> Formula:
    """Rename bound variables so no binder shadows an outer binding or a free variable."""
    used = set(free_vars(f))
    return rename_bound(f, lambda var, depth: fresh_name(var, used))
