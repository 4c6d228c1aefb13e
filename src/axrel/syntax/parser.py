"""Parser for the ASCII concrete syntax of the two-sorted language.

Syntax conventions (the printer emits exactly this form):

* quantifiers ``A`` / ``E`` with sorted bindings and a dot:
  ``A o:B x:Q . phi`` — a quantifier binds as long as it can;
* connectives ``!``, ``&``, ``|``, ``->``, ``<->``; ``&`` binds more
  tightly than ``|``, which binds more tightly than ``->`` (right
  associative), then ``<->``;
* atoms ``IB(t)``, ``Ph(t)``, ``Ob(t)``, ``IOb(t)``,
  ``W(o,b,q1,q2,q3,q4)``, ``s = t``, ``s < t``;
* quantity terms: variables, ``0``, ``1``, ``+``, ``-``, ``*``, and
  ``^ n`` as repeated-product sugar;
* identifiers may end in primes (``o'``).

Free variables must be declared via the ``declarations`` argument;
sentences (the usual case) need none.
"""

from __future__ import annotations

import re
from typing import Mapping, Optional

from .ast import (
    Add, And, EqB, EqQ, Exists, Forall, Formula, IBAtom, IObAtom, Iff, Implies,
    Less, Mul, Not, ObAtom, OneC, Or, PhAtom, Sort, SortError, Sub, Term, Var,
    WAtom, ZeroC, free_vars,
)

__all__ = ["parse", "parse_theory_file", "theory_blocks", "FormulaSyntaxError"]

RESERVED = {"A", "E", "IB", "Ph", "Ob", "IOb", "W", "B", "Q"}


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, pos: int = -1):
        super().__init__("%s (at offset %d)" % (message, pos))
        self.pos = pos


_TOKEN = re.compile(
    r"\s*(<->|->|[A-Za-z_][A-Za-z0-9_]*'*|\d+|[()!&|=<.,:^*+\-])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise FormulaSyntaxError("unexpected character %r" % text[pos], pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append((None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, declarations: Optional[Mapping[str, Sort]]):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.scope: list = [dict(declarations or {})]

    # -- token plumbing --

    def peek(self) -> Optional[str]:
        return self.tokens[self.i][0]

    def pos(self) -> int:
        return self.tokens[self.i][1]

    def take(self, expected: Optional[str] = None) -> str:
        tok, pos = self.tokens[self.i]
        if tok is None or (expected is not None and tok != expected):
            raise FormulaSyntaxError("expected %s, found %r" % (expected or "a token", tok), pos)
        self.i += 1
        return tok

    def lookup(self, name: str) -> Optional[Sort]:
        for frame in reversed(self.scope):
            if name in frame:
                return frame[name]
        return None

    # -- formulas --

    def formula(self) -> Formula:
        return self.iff()

    def iff(self) -> Formula:
        node = self.implies()
        while self.peek() == "<->":
            pos = self.pos()
            self.take()
            node = Iff(node, self.implies(), pos=pos)
        return node

    def implies(self) -> Formula:
        node = self.disjunction()
        if self.peek() == "->":
            pos = self.pos()
            self.take()
            return Implies(node, self.implies(), pos=pos)
        return node

    def disjunction(self) -> Formula:
        node = self.conjunction()
        while self.peek() == "|":
            pos = self.pos()
            self.take()
            node = Or(node, self.conjunction(), pos=pos)
        return node

    def conjunction(self) -> Formula:
        node = self.unary()
        while self.peek() == "&":
            pos = self.pos()
            self.take()
            node = And(node, self.unary(), pos=pos)
        return node

    def unary(self) -> Formula:
        tok = self.peek()
        pos = self.pos()
        if tok == "!":
            self.take()
            return Not(self.unary(), pos=pos)
        if tok in ("A", "E"):
            return self.quantifier()
        return self.atom()

    def quantifier(self) -> Formula:
        pos = self.pos()
        kind = self.take()
        bindings = []
        while True:
            tok = self.peek()
            if tok == ".":
                break
            name_pos = self.pos()
            name = self.take()
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*'*", name) or name in RESERVED:
                raise FormulaSyntaxError("bad bound variable %r" % name, name_pos)
            self.take(":")
            sort_tok = self.take()
            if sort_tok == "B":
                sort = Sort.BODY
            elif sort_tok == "Q":
                sort = Sort.QUANTITY
            else:
                raise FormulaSyntaxError("expected sort B or Q, found %r" % sort_tok, name_pos)
            bindings.append((name, sort))
        if not bindings:
            raise FormulaSyntaxError("quantifier with no bindings", pos)
        self.take(".")
        self.scope.append(dict(bindings))
        body = self.formula()
        self.scope.pop()
        node = body
        ctor = Forall if kind == "A" else Exists
        for name, sort in reversed(bindings):
            node = ctor(name, sort, node, pos=pos)
        return node

    def atom(self) -> Formula:
        tok = self.peek()
        pos = self.pos()
        if tok in ("IB", "Ph", "Ob", "IOb"):
            self.take()
            self.take("(")
            term = self.term()
            self.take(")")
            ctor = {"IB": IBAtom, "Ph": PhAtom, "Ob": ObAtom, "IOb": IObAtom}[tok]
            self._check_sort(term, Sort.BODY, pos)
            return ctor(term, pos=pos)
        if tok == "W":
            self.take()
            self.take("(")
            args = [self.term()]
            for _ in range(5):
                self.take(",")
                args.append(self.term())
            self.take(")")
            self._check_sort(args[0], Sort.BODY, pos)
            self._check_sort(args[1], Sort.BODY, pos)
            for q in args[2:]:
                self._check_sort(q, Sort.QUANTITY, pos)
            return WAtom(*args, pos=pos)
        if tok == "(":
            # Either a parenthesized formula or a parenthesized term of a
            # relation; try the relation reading first and backtrack.
            saved = self.i
            try:
                return self.relation()
            except FormulaSyntaxError:
                self.i = saved
            self.take("(")
            node = self.formula()
            self.take(")")
            return node
        return self.relation()

    def relation(self) -> Formula:
        pos = self.pos()
        left = self.term()
        op = self.peek()
        if op == "=":
            self.take()
            right = self.term()
            if left.sort is Sort.BODY or right.sort is Sort.BODY:
                self._check_sort(left, Sort.BODY, pos)
                self._check_sort(right, Sort.BODY, pos)
                return EqB(left, right, pos=pos)
            return EqQ(left, right, pos=pos)
        if op == "<":
            self.take()
            right = self.term()
            self._check_sort(left, Sort.QUANTITY, pos)
            self._check_sort(right, Sort.QUANTITY, pos)
            return Less(left, right, pos=pos)
        raise FormulaSyntaxError("expected = or < after term", self.pos())

    def _check_sort(self, term: Term, expected: Sort, pos: int):
        if term.sort is not expected:
            raise SortError("expected %s-sorted term" % expected,
                            pos=pos, expected=expected, found=term.sort)

    # -- terms --

    def term(self) -> Term:
        node = self.product()
        while self.peek() in ("+", "-"):
            pos = self.pos()
            op = self.take()
            right = self.product()
            node = (Add if op == "+" else Sub)(node, right, pos=pos)
        return node

    def product(self) -> Term:
        node = self.term_atom()
        while self.peek() == "*":
            pos = self.pos()
            self.take()
            node = Mul(node, self.term_atom(), pos=pos)
        return node

    def term_atom(self) -> Term:
        tok = self.peek()
        pos = self.pos()
        if tok == "(":
            self.take()
            node = self.term()
            self.take(")")
        elif tok == "0":
            self.take()
            node = ZeroC(pos=pos)
        elif tok == "1":
            self.take()
            node = OneC(pos=pos)
        elif tok is not None and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*'*", tok) and tok not in RESERVED:
            self.take()
            sort = self.lookup(tok)
            if sort is None:
                raise FormulaSyntaxError("undeclared variable %r" % tok, pos)
            node = Var(tok, sort, pos=pos)
        else:
            raise FormulaSyntaxError("expected a term, found %r" % tok, pos)
        while self.peek() == "^":
            ppos = self.pos()
            self.take()
            exp_tok = self.take()
            if not exp_tok.isdigit() or int(exp_tok) < 1:
                raise FormulaSyntaxError("power must be a positive integer", ppos)
            base = node
            for _ in range(int(exp_tok) - 1):
                node = Mul(node, base, pos=ppos)
        return node


def parse(text: str, declarations: Optional[Mapping[str, Sort]] = None) -> Formula:
    """Parse a formula; free variables must appear in ``declarations``."""
    parser = _Parser(text, declarations)
    node = parser.formula()
    if parser.peek() is not None:
        raise FormulaSyntaxError("trailing input %r" % parser.peek(), parser.pos())
    free_vars(node)  # re-validates sort consistency
    return node


def theory_blocks(text: str):
    """The blocks of a formula file, unparsed: ``axiom NAME:`` /
    ``theorem NAME:`` headers each followed by one sentence (possibly
    spanning lines, joined by spaces); ``#`` starts a comment.

    Yields (kind, name, sentence text) in file order.
    """
    current: Optional[tuple] = None
    buff: list = []

    def block() -> tuple:
        body = " ".join(buff).strip()
        if not body:
            raise FormulaSyntaxError("empty %s block %r" % current, 0)
        return current + (body,)

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = re.match(r"\s*(axiom|theorem)\s+([A-Za-z0-9_.'-]+)\s*:\s*(.*)$", line)
        if m:
            if current is not None:
                yield block()
            current, buff = (m.group(1), m.group(2)), [m.group(3)]
        else:
            if current is None:
                raise FormulaSyntaxError("content outside axiom/theorem block: %r" % line, 0)
            buff.append(line)
    if current is not None:
        yield block()


def parse_theory_file(text: str) -> list:
    """Parse a formula file (see ``theory_blocks``).

    Returns a list of (kind, name, Formula).
    """
    return [(kind, name, parse(body)) for kind, name, body in theory_blocks(text)]
