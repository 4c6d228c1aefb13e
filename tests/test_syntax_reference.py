"""The syntax layer against reference copies of its earlier hand-written walks.

``substitute_term``, ``alpha_equal``, ``free_vars``, the printer's
renaming pass, ``expand_definitions``, ``contract_definitions`` and
``subterms`` now hand their traversal to shared walks in
``axrel.syntax.ast``.  The ``_ref_*`` functions below are the versions that
dispatched on every connective by hand; each rewritten function must give
the same repr and the same printed text (the same fresh names, in the same
order) on the corpus, the IND battery, generated formulas with shadowed
binders and capture, and a deep term chain.
"""

from typing import Iterator, Optional

from hypothesis import given, settings, strategies as st

from axrel.syntax import (
    Add, And, EqB, EqQ, Exists, Forall, Formula, IBAtom, IObAtom, Iff,
    Implies, Less, Mul, Not, ObAtom, OneC, Or, PhAtom, Sort, SortError, Sub,
    Term, Var, WAtom, ZeroC, all_named_axioms, alpha_equal,
    contract_definitions, expand_definitions, free_vars, ind_battery,
    instantiate_ind, parse, print_formula,
)
from axrel.syntax.ast import exists_many, substitute_term, subterms
from axrel.syntax.printer import _fmt, _P_IFF, _rename_apart


# ---------------------------------------------------------------------------
# Reference walks, each dispatching on every node class by hand.


def _ref_subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, (Add, Mul, Sub)):
        yield from _ref_subterms(t.left)
        yield from _ref_subterms(t.right)


def _ref_mentions(t: Term, var: str) -> bool:
    return any(isinstance(x, Var) and x.name == var for x in _ref_subterms(t))


def _ref_formula_terms(f: Formula) -> Iterator[Term]:
    if isinstance(f, (IBAtom, PhAtom, ObAtom, IObAtom)):
        yield f.body
    elif isinstance(f, WAtom):
        yield f.observer
        yield f.body
        yield from f.coords
    elif isinstance(f, (EqQ, EqB, Less)):
        yield f.left
        yield f.right


def _ref_free_vars(f: Formula) -> dict:
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
        for t in _ref_formula_terms(node):
            for sub in _ref_subterms(t):
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


def _ref_substitute_term(f: Formula, name: str, replacement: Term) -> Formula:
    repl_frees = {v.name for t in [replacement] for v in _ref_subterms(t) if isinstance(v, Var)}

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
                new_name = fresh(node.var, repl_frees | set(_ref_free_vars(node.body)) | {name})
                renamed = _ref_substitute_term(node.body, node.var, Var(new_name, node.var_sort))
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


def _ref_alpha_equal(f: Formula, g: Formula) -> bool:
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


def _ref_rename_apart(f: Formula) -> Formula:
    used = set(_ref_free_vars(f))

    def fresh(base: str) -> str:
        ticks = len(base) - len(base.rstrip("'"))
        stem = base.rstrip("'")
        candidate = base
        n = 1
        while candidate in used:
            n += 1
            candidate = "%s_%d%s" % (stem, n, "'" * ticks)
        used.add(candidate)
        return candidate

    def visit(node: Formula, ren: dict) -> Formula:
        if isinstance(node, (Forall, Exists)):
            new_name = fresh(node.var)
            body = visit(node.body, {**ren, node.var: new_name})
            return type(node)(new_name, node.var_sort, body)
        if isinstance(node, Not):
            return Not(visit(node.arg, ren))
        if isinstance(node, (And, Or, Implies, Iff)):
            return type(node)(visit(node.left, ren), visit(node.right, ren))
        if isinstance(node, (IBAtom, PhAtom, ObAtom, IObAtom)):
            return type(node)(rt(node.body, ren))
        if isinstance(node, WAtom):
            return WAtom(rt(node.observer, ren), rt(node.body, ren),
                         *(rt(c, ren) for c in node.coords))
        if isinstance(node, (EqQ, EqB, Less)):
            return type(node)(rt(node.left, ren), rt(node.right, ren))
        return node

    def rt(t: Term, ren: dict) -> Term:
        if isinstance(t, Var):
            return Var(ren.get(t.name, t.name), t.var_sort)
        if isinstance(t, (Add, Mul, Sub)):
            return type(t)(rt(t.left, ren), rt(t.right, ren))
        return t

    return visit(f, {})


def _ref_expand_definitions(f: Formula) -> Formula:
    counter = [0]

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return "_%s%d" % (prefix, counter[0])

    def expand_atom_terms(node: Formula) -> Formula:
        target = _ref_first_sugar_term(node)
        if target is None:
            return node
        name = fresh("q")
        v = Var(name, Sort.QUANTITY)
        replaced = _ref_replace_term_once(node, target, v)
        if isinstance(target, ZeroC):
            w = fresh("w")
            guard = Forall(w, Sort.QUANTITY,
                           EqQ(Add(v, Var(w, Sort.QUANTITY)), Var(w, Sort.QUANTITY)))
        elif isinstance(target, OneC):
            w = fresh("w")
            guard = Forall(w, Sort.QUANTITY,
                           EqQ(Mul(v, Var(w, Sort.QUANTITY)), Var(w, Sort.QUANTITY)))
        else:
            guard = EqQ(Add(target.right, v), target.left)
        return Exists(name, Sort.QUANTITY, And(guard, expand_atom_terms(replaced)))

    def visit(node: Formula) -> Formula:
        if isinstance(node, ObAtom):
            b, names = fresh("b"), [fresh("q") for _ in range(4)]
            w = WAtom(node.body, Var(b, Sort.BODY),
                      *(Var(nm, Sort.QUANTITY) for nm in names))
            return Exists(b, Sort.BODY, exists_many(names, Sort.QUANTITY, w))
        if isinstance(node, IObAtom):
            return And(IBAtom(node.body), visit(ObAtom(node.body)))
        if isinstance(node, Not):
            return Not(visit(node.arg))
        if isinstance(node, (And, Or, Implies, Iff)):
            return type(node)(visit(node.left), visit(node.right))
        if isinstance(node, (Forall, Exists)):
            return type(node)(node.var, node.var_sort, visit(node.body))
        return expand_atom_terms(node)

    return visit(f)


def _ref_contract_definitions(f: Formula) -> Formula:
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
            if isinstance(v, Var) and v.name == var and not _ref_mentions(t, var) \
                    and not _ref_mentions(guard.right, var):
                return Sub(guard.right, t)
        return None

    def visit(node: Formula) -> Formula:
        if isinstance(node, Exists) and node.var_sort is Sort.QUANTITY \
                and isinstance(node.body, And):
            guard, rest = node.body.left, node.body.right
            pin = pin_of(node.var, guard)
            if pin is not None:
                return visit(_ref_substitute_term(rest, node.var, pin))
        if isinstance(node, Not):
            return Not(visit(node.arg))
        if isinstance(node, (And, Or, Implies, Iff)):
            return type(node)(visit(node.left), visit(node.right))
        if isinstance(node, (Forall, Exists)):
            return type(node)(node.var, node.var_sort, visit(node.body))
        return node

    return visit(f)


def _ref_first_sugar_term(atom: Formula) -> Optional[Term]:
    def scan(t: Term) -> Optional[Term]:
        if isinstance(t, (Add, Mul, Sub)):
            hit = scan(t.left) or scan(t.right)
            if hit is not None:
                return hit
            return t if isinstance(t, Sub) else None
        if isinstance(t, (ZeroC, OneC)):
            return t
        return None

    for term in _ref_formula_terms(atom):
        hit = scan(term)
        if hit is not None:
            return hit
    return None


def _ref_replace_term_once(atom: Formula, target: Term, replacement: Term) -> Formula:
    done = [False]

    def rt(t: Term) -> Term:
        if done[0]:
            return t
        if t is target:
            done[0] = True
            return replacement
        if isinstance(t, (Add, Mul, Sub)):
            left = rt(t.left)
            right = rt(t.right)
            return type(t)(left, right)
        return t

    if isinstance(atom, (EqQ, Less)):
        return type(atom)(rt(atom.left), rt(atom.right))
    if isinstance(atom, WAtom):
        return WAtom(atom.observer, atom.body, *(rt(c) for c in atom.coords))
    return atom


# ---------------------------------------------------------------------------
# Comparisons.


def _same(got: Formula, want: Formula):
    assert repr(got) == repr(want)
    assert print_formula(got) == print_formula(want)


def _bound_names(f: Formula) -> list:
    out, node = [], [f]
    while node:
        g = node.pop()
        if isinstance(g, (Forall, Exists)):
            out.append((g.var, g.var_sort))
        for attr in ("arg", "left", "right", "body"):
            child = getattr(g, attr, None)
            if isinstance(child, Formula):
                node.append(child)
    return out


def _check_all_walks(f: Formula, expand: bool = True):
    """Every rewritten walk against its reference on f; with expand, also
    the expansion of f and its contraction."""
    assert list(free_vars(f).items()) == list(_ref_free_vars(f).items())
    renamed = _rename_apart(f)
    assert repr(renamed) == repr(_ref_rename_apart(f))
    assert _fmt(renamed, _P_IFF) == _fmt(_ref_rename_apart(f), _P_IFF)
    back = parse(print_formula(f), free_vars(f))
    for g in (f, back):
        assert alpha_equal(f, g) == _ref_alpha_equal(f, g)
    if expand:
        _same(contract_definitions(f), _ref_contract_definitions(f))
        expanded = expand_definitions(f)
        _same(expanded, _ref_expand_definitions(f))
        _same(contract_definitions(expanded), _ref_contract_definitions(expanded))
        assert alpha_equal(f, expanded) == _ref_alpha_equal(f, expanded)
    # Substitute for each free variable and each bound name opened up, with
    # replacements that mention the binders' names, so capture is renamed.
    names = dict(_bound_names(f))
    names.update(free_vars(f))
    quantity = [n for n, s in names.items() if s is Sort.QUANTITY]
    bodies = [n for n, s in names.items() if s is Sort.BODY]
    for name, sort in list(names.items())[:4]:
        pool = quantity if sort is Sort.QUANTITY else bodies
        repls = [Var(pool[-1], sort), Var(pool[0], sort)]
        if sort is Sort.QUANTITY:
            repls[1] = Add(repls[1], OneC())
        for repl in repls:
            _same(substitute_term(f, name, repl), _ref_substitute_term(f, name, repl))
    for sub in _formula_subterm_roots(f):
        assert [id(t) for t in subterms(sub)] == [id(t) for t in _ref_subterms(sub)]


def _formula_subterm_roots(f: Formula) -> list:
    out, node = [], [f]
    while node:
        g = node.pop()
        out.extend(_ref_formula_terms(g))
        for attr in ("arg", "left", "right", "body"):
            child = getattr(g, attr, None)
            if isinstance(child, Formula):
                node.append(child)
    return out


def test_corpus_sentences_expansions_and_contractions_match_the_reference():
    # The sentence's check covers expanding it and contracting the expansion.
    for name, sentence in all_named_axioms():
        _check_all_walks(sentence)
        expanded = _ref_expand_definitions(sentence)
        _check_all_walks(expanded, expand=False)
        _check_all_walks(_ref_contract_definitions(expanded), expand=False)


def test_ind_battery_instances_match_the_reference():
    for item in ind_battery():
        _check_all_walks(item.formula)
        _check_all_walks(instantiate_ind(item.formula, item.var))


# Generated formulas draw binders and variables from a small pool of names,
# primed and numbered ones included, so binders shadow each other and the
# free variables, and substitutions capture.
_Q_NAMES = ("x", "y", "x'", "x_2")
_B_NAMES = ("o", "o'")
_qvar = st.sampled_from(_Q_NAMES).map(lambda n: Var(n, Sort.QUANTITY))
_bvar = st.sampled_from(_B_NAMES).map(lambda n: Var(n, Sort.BODY))
_qterm = st.recursive(
    st.one_of(_qvar, st.just(ZeroC()), st.just(OneC())),
    lambda sub: st.builds(lambda op, a, b: op(a, b), st.sampled_from([Add, Mul, Sub]), sub, sub),
    max_leaves=5)
_atom = st.one_of(
    st.builds(EqQ, _qterm, _qterm), st.builds(Less, _qterm, _qterm),
    st.builds(EqB, _bvar, _bvar),
    st.builds(lambda cls, b: cls(b), st.sampled_from([IBAtom, PhAtom, ObAtom, IObAtom]), _bvar),
    st.builds(WAtom, _bvar, _bvar, _qterm, _qterm, _qterm, _qterm))


def _extend(sub):
    binder = st.one_of(st.tuples(st.sampled_from(_Q_NAMES), st.just(Sort.QUANTITY)),
                       st.tuples(st.sampled_from(_B_NAMES), st.just(Sort.BODY)))
    return st.one_of(
        st.builds(Not, sub),
        st.builds(lambda op, a, b: op(a, b), st.sampled_from([And, Or, Implies, Iff]), sub, sub),
        st.builds(lambda q, vs, body: q(vs[0], vs[1], body),
                  st.sampled_from([Forall, Exists]), binder, sub))


_formula = st.recursive(_atom, _extend, max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(_formula)
def test_generated_formulas_with_shadowing_and_capture_match_the_reference(f):
    _check_all_walks(f)


@settings(max_examples=100, deadline=None)
@given(_formula, _formula)
def test_alpha_equal_matches_the_reference_on_generated_pairs(f, g):
    assert alpha_equal(f, g) == _ref_alpha_equal(f, g)
    assert alpha_equal(f, _ref_rename_apart(f)) == _ref_alpha_equal(f, _ref_rename_apart(f))


def test_subterms_order_on_a_left_deep_chain():
    x = Var("x", Sort.QUANTITY)
    chain: Term = x
    for i in range(400):
        chain = (Add, Mul, Sub)[i % 3](chain, OneC() if i % 2 else x)
        if i == 60:
            _check_all_walks(Forall("x", Sort.QUANTITY, Less(chain, ZeroC())))
    assert [id(t) for t in subterms(chain)] == [id(t) for t in _ref_subterms(chain)]
