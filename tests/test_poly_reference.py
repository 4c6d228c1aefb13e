"""The sparse polynomial ``intervals.Poly`` against reference copies of the
two types it replaced.

``_RefPoly`` is the dense one-variable polynomial that ``intervals.Poly``
was (IND sets, guide roots), with its ``term_to_poly``; ``_RefLinForm`` is
the affine form over the block parameters that pinned quantity blocks,
with its walker, whose ``*`` raised ``_NotLinear`` on a product of two
non-constant forms, and ``_ref_rewrite`` is the hand rewrite of earlier
pins that ``Poly.substitute`` replaced.  Tower literals depend on the
order of the field operations, so each operation of the new type must
give the same values with the same ``literal()`` and the same tower order
as the reference, on values over towers at levels 0-2 that include both
orders of two radicands.
"""

from fractions import Fraction as Fr

import pytest
from hypothesis import Phase, given, settings, strategies as st

from axrel.field import ER, ExactReal, sqrt
from axrel.intervals import Poly, UnsupportedDefinableSet, term_to_poly
from axrel.syntax.ast import Add, Mul, OneC, Sort, Sub, Var, ZeroC, fold_term


# ---------------------------------------------------------------------------
# Reference copies.


class _RefPoly:
    """Dense univariate polynomial over the tower field."""

    def __init__(self, coeffs):
        cs = [ER(c) for c in coeffs] or [ER(0)]
        while len(cs) > 1 and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return _RefPoly([
            (self.coeffs[i] if i < len(self.coeffs) else ER(0))
            + (other.coeffs[i] if i < len(other.coeffs) else ER(0))
            for i in range(n)
        ])

    def __neg__(self):
        return _RefPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = [ER(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return _RefPoly(out)

    def scale(self, c):
        c = ER(c)
        return _RefPoly([c * a for a in self.coeffs])

    def eval(self, x):
        x = ER(x)
        acc = ER(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def roots(self):
        if self.degree == 0:
            return []
        if self.degree == 1:
            b, a = self.coeffs[0], self.coeffs[1]
            return [-b / a]
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


def _ref_term_to_poly(term, polys, env):
    def leaf(t):
        if isinstance(t, Var):
            if t.name in polys:
                return polys[t.name]
            if t.name not in env:
                raise UnsupportedDefinableSet("unbound variable %s" % t.name)
            return _RefPoly([env[t.name]])
        return _RefPoly([1 if isinstance(t, OneC) else 0])

    return fold_term(term, leaf)


class _NotLinear(Exception):
    pass


class _RefLinForm:
    """Affine form: sum of coeff*param + const over the exact field."""

    def __init__(self, coeffs=None, const=None):
        self.coeffs = dict(coeffs or {})
        self.const = const if const is not None else ER(0)

    @staticmethod
    def var(name):
        return _RefLinForm({name: ER(1)})

    @staticmethod
    def constant(v):
        return _RefLinForm({}, ER(v))

    def is_constant(self):
        return all(c.is_zero() for c in self.coeffs.values())

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, ER(0)) + v
        return _RefLinForm(out, self.const + other.const)

    def __sub__(self, other):
        return self + _RefLinForm({k: -v for k, v in other.coeffs.items()}, -other.const)

    def __mul__(self, other):
        if self.is_constant():
            return other.scale(self.const)
        if other.is_constant():
            return self.scale(other.const)
        raise _NotLinear()

    def scale(self, c):
        c = ER(c)
        return _RefLinForm({k: c * v for k, v in self.coeffs.items()}, c * self.const)

    def value(self, values):
        acc = self.const
        for k, v in self.coeffs.items():
            if not v.is_zero():
                acc = acc + v * values[k]
        return acc


def _ref_term_to_linform(term, env, binding):
    def leaf(t):
        if isinstance(t, Var):
            if t.name in binding:
                return binding[t.name]
            if isinstance(env.get(t.name), ExactReal):
                return _RefLinForm.constant(env[t.name])
            raise _NotLinear()
        return _RefLinForm.constant(1 if isinstance(t, OneC) else 0)

    try:
        return fold_term(term, leaf)
    except _NotLinear:
        return None


def _ref_rewrite(form, pinned):
    # The rewrite of a form that still reads freshly pinned names.
    out = _RefLinForm({}, form.const)
    for k, v in form.coeffs.items():
        if k in pinned:
            out = out + pinned[k].scale(v)
        else:
            out.coeffs[k] = out.coeffs.get(k, ER(0)) + v
    return out


# ---------------------------------------------------------------------------
# Values over towers at levels 0-2, both orders of sqrt(2) and sqrt(3).

TOWERS = ((), sqrt(2).tower, sqrt(3).tower, (sqrt(2) + sqrt(3)).tower, (sqrt(3) + sqrt(2)).tower)
assert [len(t) for t in TOWERS] == [0, 1, 1, 2, 2]
PARAMS = ("p", "q", "r")
_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)
_settings = settings(derandomize=True, max_examples=60, deadline=None,
                     phases=(Phase.explicit, Phase.generate))


def _tree_of(leaves):
    while len(leaves) > 1:
        leaves = [(leaves[i], leaves[i + 1]) for i in range(0, len(leaves), 2)]
    return leaves[0]


def _value(data):
    tower = data.draw(st.sampled_from(TOWERS))
    size = 1 << len(tower)
    return ExactReal(tower, _tree_of(data.draw(st.lists(_fractions, min_size=size, max_size=size))))


def _key(x: ExactReal):
    return x.literal(), [r.literal() for r in x.tower]


def _assert_same(new, ref):
    assert new == ref
    assert _key(new) == _key(ref)


def _dense(p: Poly, v="t"):
    return [c.eval({}) for c in p.coeffs_in(v)]


def _assert_same_dense(new: Poly, ref: _RefPoly):
    got = _dense(new)
    assert len(got) == len(ref.coeffs)
    for a, b in zip(got, ref.coeffs):
        _assert_same(a, b)


def _univariate(data):
    coeffs = [_value(data) for _ in range(data.draw(st.integers(1, 3)))]
    new = Poly({(): coeffs[0]})
    for k, c in enumerate(coeffs[1:], 1):
        new.terms[("t",) * k] = c
    return new, _RefPoly(coeffs)


def _affine(data):
    names = data.draw(st.permutations(PARAMS))[:data.draw(st.integers(0, 3))]
    coeffs = {n: _value(data) for n in names}
    const = _value(data)
    new = Poly({(n,): c for n, c in coeffs.items()})
    new.terms[()] = const
    return new, _RefLinForm(coeffs, const)


def _assert_same_form(new: Poly, ref: _RefLinForm):
    assert new.degree <= 1
    assert [m[0] for m in new.terms if m] == list(ref.coeffs)
    for n, c in ref.coeffs.items():
        _assert_same(new.terms[(n,)], c)
    _assert_same(new.terms.get((), ER(0)), ref.const)


def _assert_equal_form(new: Poly, ref: _RefLinForm):
    assert new.degree <= 1
    for n in PARAMS:
        assert new.terms.get((n,), ER(0)) == ref.coeffs.get(n, ER(0))
    assert new.terms.get((), ER(0)) == ref.const


# ---------------------------------------------------------------------------
# Tests.


@_settings
@given(st.data())
def test_univariate_arithmetic_matches_the_dense_reference(data):
    (p, rp), (q, rq) = _univariate(data), _univariate(data)
    c = _value(data)
    _assert_same_dense(p + q, rp + rq)
    _assert_same_dense(p - q, rp - rq)
    _assert_same_dense(-p, -rp)
    _assert_same_dense(p.scale(c), rp.scale(c))
    _assert_same_dense(p * q, rp * rq)
    # eval adds the terms, constant first, where the dense type used
    # Horner's rule (nothing printed its values): equal values only.
    x = _value(data)
    assert p.eval({"t": x}) == rp.eval(x)
    if 1 <= rp.degree <= 2:
        got, want = p.roots(), rp.roots()
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _assert_same(a, b)


@_settings
@given(st.data())
def test_affine_arithmetic_matches_the_linform_reference(data):
    (f, rf), (g, rg) = _affine(data), _affine(data)
    c = _value(data)
    _assert_same_form(f + g, rf + rg)
    _assert_same_form(f - g, rf - rg)
    _assert_same_form(f.scale(c), rf.scale(c))
    k, rk = Poly.const(c), _RefLinForm.constant(c)
    _assert_same_form(k * f, rk * rf)
    # _RefLinForm put a constant factor on the left; Poly keeps the left
    # factor on the left, as the dense type did.  No pinning term of the
    # tests or of the benchmark inputs multiplies, so only values here.
    _assert_equal_form(f * k, rf * rk)
    if rf.is_constant() or rg.is_constant():
        _assert_equal_form(f * g, rf * rg)
    else:
        assert (f * g).degree == 2
        with pytest.raises(_NotLinear):
            rf * rg
    values = {n: _value(data) for n in PARAMS}
    _assert_same(f.eval(values), rf.value(values))


@_settings
@given(st.data())
def test_substitute_matches_the_rewrite_of_earlier_pins(data):
    (f, rf) = _affine(data)
    pinned = data.draw(st.permutations(PARAMS))[:data.draw(st.integers(1, 2))]
    images = {n: _affine(data) for n in pinned}
    new = f.substitute({n: p for n, (p, _) in images.items()})
    _assert_same_form(new, _ref_rewrite(rf, {n: r for n, (_, r) in images.items()}))


def _terms(names, affine=()):
    """Quantity terms over names; with affine, products only of a term
    over the other names (a constant) and a term over all of them."""
    def leaves(pool):
        return st.one_of(st.sampled_from([ZeroC(), OneC()]),
                         st.sampled_from(pool).map(lambda n: Var(n, Sort.QUANTITY)))

    constants = st.recursive(leaves([n for n in names if n not in affine]), lambda sub: st.tuples(
        st.sampled_from((Add, Sub, Mul)), sub, sub).map(lambda t: t[0](t[1], t[2])), max_leaves=4)

    def extend(sub):
        right = st.tuples(st.sampled_from((Add, Sub, Mul)), sub, sub)
        if affine:
            right = st.one_of(st.tuples(st.sampled_from((Add, Sub)), sub, sub),
                              st.tuples(st.just(Mul), constants, sub))
        return right.map(lambda t: t[0](t[1], t[2]))

    return st.recursive(leaves(names), extend, max_leaves=8)


NAMES = ("p", "q", "a", "b", "body", "unbound")


def _env(data):
    return {"a": _value(data), "b": _value(data), "body": object()}


@_settings
@given(st.data())
def test_term_to_poly_matches_the_affine_walker(data):
    env, forms = _env(data), {n: _affine(data) for n in ("p", "q")}
    binding, ref_binding = ({n: f[i] for n, f in forms.items()} for i in (0, 1))
    # Affine terms, a constant factor on the left of each product: the same
    # coefficients, literals and order.
    term = data.draw(_terms(NAMES, affine=("p", "q")))
    expected = _ref_term_to_linform(term, env, ref_binding)
    try:
        got = term_to_poly(term, binding, env)
    except UnsupportedDefinableSet:
        assert expected is None
    else:
        _assert_same_form(got, expected)
    # Any term: where the affine walker answers, the same affine values.
    term = data.draw(_terms(NAMES))
    expected = _ref_term_to_linform(term, env, ref_binding)
    if expected is not None:
        _assert_equal_form(term_to_poly(term, binding, env), expected)


@_settings
@given(st.data())
def test_term_to_poly_matches_the_dense_walker(data):
    env, polys = _env(data), {n: _univariate(data) for n in ("p", "q")}
    term = data.draw(_terms(NAMES))
    # The dense walker read env's ExactReal values only.
    numbers = {k: v for k, v in env.items() if isinstance(v, ExactReal)}
    try:
        want = _ref_term_to_poly(term, {n: r for n, (_, r) in polys.items()}, numbers)
    except UnsupportedDefinableSet:
        with pytest.raises(UnsupportedDefinableSet):
            term_to_poly(term, {n: p for n, (p, _) in polys.items()}, env)
        return
    _assert_same_dense(term_to_poly(term, {n: p for n, (p, _) in polys.items()}, env), want)


def test_coeffs_in_and_degree_in_split_a_polynomial_by_one_variable():
    x, y = Poly.var("x"), Poly.var("y")
    p = x * x * y.scale(3) + x.scale(Fr(1, 2)) - y + Poly.const(sqrt(2))
    assert p.degree == 3 and p.degree_in("x") == 2 and p.degree_in("y") == 1
    c0, c1, c2 = p.coeffs_in("x")
    assert c0.eval({"y": ER(5)}) == sqrt(2) - 5
    assert c1.eval({"y": ER(5)}) == Fr(1, 2)
    assert c2.eval({"y": ER(5)}) == 15
    assert (p - p).degree == 0 and (p - p).is_zero()
    assert p.eval({"x": ER(2), "y": ER(1)}) == 12 + 1 - 1 + sqrt(2)
