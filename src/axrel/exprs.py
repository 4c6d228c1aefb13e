"""Small arithmetic expression grammar shared by field literals and chart files.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := signed (('*' | '/') signed)*
    signed := '-' signed | '+' signed | power
    power  := atom ('^' INT)?
    atom   := INT | INT '.' INT | 'sqrt' '(' expr ')' | VAR | '(' expr ')'

Field literals use the grammar with no variables; metric charts evaluate
it over coordinates ``x1..x4``, worldline expressions over ``x4``.
Decimal literals are exact (``0.25`` is 1/4).
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Mapping, Sequence

from .field import ExactReal, ExactRealSyntaxError, ER, sqrt as exact_sqrt
from .record import Record, set_field

__all__ = [
    "Expr", "Num", "Ref", "BinOp", "Sqrt",
    "parse_expression", "evaluate_exact", "compile_float",
]


class Expr(Record):
    __slots__ = ()


class Num(Expr):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Fraction):
        set_field(self, "value", value)


class Ref(Expr):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)


class BinOp(Expr):
    __slots__ = _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        set_field(self, "op", op)  # one of + - * / ^
        set_field(self, "left", left)
        set_field(self, "right", right)


class Sqrt(Expr):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: Expr):
        set_field(self, "arg", arg)


_TOKEN = re.compile(r"\s*(\d+\.\d+|\d+|[A-Za-z_][A-Za-z0-9_]*|\*|\+|-|/|\^|\(|\))")


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExactRealSyntaxError("bad character at %d in %r" % (pos, text))
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str], variables: Sequence[str]):
        self.tokens = tokens
        self.pos = 0
        self.variables = set(variables)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ExactRealSyntaxError("expected %r, found %r" % (expected, tok))
        self.pos += 1
        return tok

    def expr(self) -> Expr:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.signed()
        while self.peek() in ("*", "/"):
            op = self.take()
            node = BinOp(op, node, self.signed())
        return node

    def signed(self) -> Expr:
        if self.peek() == "-":
            self.take()
            return BinOp("-", Num(Fraction(0)), self.signed())
        if self.peek() == "+":
            self.take()
            return self.signed()
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        if self.peek() == "^":
            self.take()
            exp = self.take()
            if not exp.isdigit():
                raise ExactRealSyntaxError("exponent must be a nonnegative integer")
            node = BinOp("^", node, Num(Fraction(int(exp))))
        return node

    def atom(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise ExactRealSyntaxError("unexpected end of expression")
        if tok == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if tok == "sqrt":
            self.take()
            self.take("(")
            node = self.expr()
            self.take(")")
            return Sqrt(node)
        if re.fullmatch(r"\d+\.\d+", tok):
            self.take()
            whole, frac = tok.split(".")
            return Num(Fraction(int(whole + frac), 10 ** len(frac)))
        if tok.isdigit():
            self.take()
            return Num(Fraction(int(tok)))
        if tok in self.variables:
            self.take()
            return Ref(tok)
        raise ExactRealSyntaxError("unknown name %r" % tok)


def parse_expression(text: str, variables: Sequence[str] = ()) -> Expr:
    parser = _Parser(_tokenize(text), variables)
    node = parser.expr()
    if parser.peek() is not None:
        raise ExactRealSyntaxError("trailing input at token %r" % parser.peek())
    return node


def evaluate_exact(expr: Expr, env: Mapping[str, ExactReal]) -> ExactReal:
    if isinstance(expr, Num):
        return ER(expr.value)
    if isinstance(expr, Ref):
        return env[expr.name]
    if isinstance(expr, Sqrt):
        return exact_sqrt(evaluate_exact(expr.arg, env))
    left = evaluate_exact(expr.left, env)
    right = evaluate_exact(expr.right, env)
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    if expr.op == "/":
        return left / right
    if expr.op == "^":
        return left ** int(right.as_fraction())
    raise AssertionError(expr.op)


def compile_float(expr: Expr, variables: Sequence[str], sqrt=math.sqrt, power=operator.pow):
    """Compile to a fast float-valued callable of the named variables.

    sqrt(a) calls `sqrt` and a^k calls power(a, k), so a caller can run
    the one compiled source over other number types."""

    def render(node: Expr) -> str:
        if isinstance(node, Num):
            return "(%r)" % float(node.value)
        if isinstance(node, Ref):
            return node.name
        if isinstance(node, Sqrt):
            return "_sqrt(%s)" % render(node.arg)
        if node.op == "^":
            return "_pow(%s, %d)" % (render(node.left), int(node.right.value))
        return "(%s %s %s)" % (render(node.left), node.op, render(node.right))

    source = "lambda %s: %s" % (", ".join(variables), render(expr))
    return eval(source, {"_sqrt": sqrt, "_pow": power})  # AST is fully controlled above
