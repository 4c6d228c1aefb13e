import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from axrel.syntax import (
    Add, And, EqQ, Exists, Forall, IBAtom, IObAtom, Iff, Implies, Less, Mul,
    Not, ObAtom, OneC, Or, PhAtom, Sort, SortError, Sub, Var, WAtom, ZeroC,
    alpha_equal, all_named_axioms, axiom_corpus, expand_definitions, free_vars,
    ind_battery, instantiate_ind, is_sentence, named_axiom, parse,
    parse_theory_file, print_formula, FormulaSyntaxError, UnknownTheory,
)
from axrel.syntax.corpus import NotQuantityVariable
from axrel.syntax.parser import theory_blocks
from axrel.syntax.ast import subformulas


def test_parse_quantified_axiom_shape():
    f = parse("A o:B . IOb(o) -> W(o,o,0,0,0,0)")
    assert isinstance(f, Forall)
    assert f.var_sort is Sort.BODY
    assert is_sentence(f)


def test_parse_sort_error():
    with pytest.raises(SortError):
        parse("W(x,b,0,0,0,0)", {"x": Sort.QUANTITY, "b": Sort.BODY})


def test_parse_undeclared_variable():
    with pytest.raises(FormulaSyntaxError):
        parse("W(o,b,0,0,0,0)", {"o": Sort.BODY})


def test_positions_reported():
    try:
        parse("A o:B . IOb(o) & & W(o,o,0,0,0,0)")
    except FormulaSyntaxError as exc:
        assert exc.pos > 0
    else:
        raise AssertionError("expected a syntax error")


def test_corpus_round_trip():
    for name, sentence in all_named_axioms():
        assert is_sentence(sentence), name
        assert alpha_equal(parse(print_formula(sentence)), sentence), name


def test_shadowed_binders_print_renamed_apart():
    inner = Forall("x", Sort.QUANTITY, EqQ(Var("x", Sort.QUANTITY), ZeroC()))
    outer = Forall("x", Sort.QUANTITY,
                   And(Less(ZeroC(), Var("x", Sort.QUANTITY)), inner))
    text = print_formula(outer)
    assert text.count("A x:Q") == 1  # the inner binder got a fresh name
    assert alpha_equal(parse(text), outer)


def test_print_injective_on_corpus():
    texts = {}
    for name, sentence in all_named_axioms():
        text = print_formula(sentence)
        if text in texts:
            assert alpha_equal(sentence, texts[text])
        texts[text] = sentence


def _random_formula(rng, depth, scope):
    # scope: dict name -> Sort of available bound variables
    qvars = [n for n, s in scope.items() if s is Sort.QUANTITY]
    bvars = [n for n, s in scope.items() if s is Sort.BODY]

    def term(d=2):
        if d == 0 or not qvars or rng.random() < 0.3:
            if qvars and rng.random() < 0.6:
                return Var(rng.choice(qvars), Sort.QUANTITY)
            return ZeroC() if rng.random() < 0.5 else OneC()
        ctor = rng.choice([Add, Mul, Sub])
        return ctor(term(d - 1), term(d - 1))

    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(4 if bvars else 2)
        if kind == 0:
            return EqQ(term(), term())
        if kind == 1:
            return Less(term(), term())
        if kind == 2:
            atom = rng.choice([IBAtom, PhAtom, ObAtom, IObAtom])
            return atom(Var(rng.choice(bvars), Sort.BODY))
        o, b = rng.choice(bvars), rng.choice(bvars)
        return WAtom(Var(o, Sort.BODY), Var(b, Sort.BODY),
                     term(), term(), term(), term())
    roll = rng.random()
    if roll < 0.18:
        return Not(_random_formula(rng, depth - 1, scope))
    if roll < 0.62:
        ctor = rng.choice([And, Or, Implies, Iff])
        return ctor(_random_formula(rng, depth - 1, scope),
                    _random_formula(rng, depth - 1, scope))
    sort = Sort.QUANTITY if rng.random() < 0.6 else Sort.BODY
    name = "%s%d" % ("q" if sort is Sort.QUANTITY else "c", len(scope))
    ctor = Forall if rng.random() < 0.5 else Exists
    inner = _random_formula(rng, depth - 1, {**scope, name: sort})
    return ctor(name, sort, inner)


def test_round_trip_thousand_random_formulas():
    rng = random.Random(2024)
    for i in range(1000):
        f = Forall("o0", Sort.BODY, _random_formula(rng, 4, {"o0": Sort.BODY}))
        assert is_sentence(f), i
        back = parse(print_formula(f))
        assert alpha_equal(back, f), (i, print_formula(f))


def test_specrel_has_exactly_the_five_named_groups():
    th = axiom_corpus("SpecRel")
    assert th.axiom_names() == ["AxField", "AxSelf", "AxPh", "AxEv", "AxSymd"]
    assert not th.has_ind_schema


def test_accrelminus_is_specrel_plus_axcmv():
    th = axiom_corpus("AccRelMinus")
    assert th.axiom_names() == ["AxField", "AxSelf", "AxPh", "AxEv", "AxSymd", "AxCmv"]
    assert not th.has_ind_schema
    assert th.group("AxCmv").reconstruction


def test_accrel_carries_ind_schema():
    th = axiom_corpus("AccRel")
    assert th.has_ind_schema


def test_genrel_groups_and_ind():
    th = axiom_corpus("GenRel(2)")
    assert th.axiom_names() == [
        "AxField", "AxSelf-", "AxPh-", "AxEv-", "AxSymt-", "AxDiff_2"]
    assert th.has_ind_schema


def test_unknown_theory():
    with pytest.raises(UnknownTheory):
        axiom_corpus("Newton")


def test_axfield_is_a_finite_list():
    group = axiom_corpus("SpecRel").group("AxField")
    assert len(group.sentences) == 15
    for _, sentence in group.sentences:
        assert is_sentence(sentence)


def test_axsymd_literal_variant_differs():
    corrected = named_axiom("AxSymd")
    literal = named_axiom("AxSymd#literal")
    assert not alpha_equal(corrected, literal)


def test_expand_iob():
    f = parse("A o:B . IOb(o) -> IOb(o)")
    e = expand_definitions(f)
    names = {type(sub).__name__ for sub in subformulas(e)}
    assert "IObAtom" not in names and "ObAtom" not in names
    assert "IBAtom" in names and "WAtom" in names


def test_expand_no_sugar_is_identity():
    f = parse("A x:Q y:Q . x + y = y + x")
    # 0/1-free, Ob-free formula with only primitive symbols stays put
    assert alpha_equal(expand_definitions(f), f)


def test_expansion_idempotent_on_corpus():
    for name, sentence in all_named_axioms():
        once = expand_definitions(sentence)
        assert alpha_equal(expand_definitions(once), once), name
        assert is_sentence(once)


def test_expansion_removes_all_sugar():
    for name, sentence in all_named_axioms():
        expanded = expand_definitions(sentence)
        for sub in subformulas(expanded):
            assert not isinstance(sub, (ObAtom, IObAtom)), name
            from axrel.syntax.ast import _formula_terms, subterms
            for t in _formula_terms(sub):
                for leaf in subterms(t):
                    assert not isinstance(leaf, (ZeroC, OneC, Sub)), name


def test_instantiate_ind_shape():
    phi = parse("t*t < 1+1", {"t": Sort.QUANTITY})
    inst = instantiate_ind(phi, "t")
    assert is_sentence(inst)
    assert alpha_equal(parse(print_formula(inst)), inst)


def test_instantiate_ind_rejects_body_variable():
    phi = parse("Ph(p)", {"p": Sort.BODY})
    with pytest.raises(NotQuantityVariable):
        instantiate_ind(phi, "p")
    with pytest.raises(NotQuantityVariable):
        instantiate_ind(parse("0 < 1"), "t")


def test_instantiate_ind_closes_parameters():
    phi = parse("t < p", {"t": Sort.QUANTITY, "p": Sort.QUANTITY})
    inst = instantiate_ind(phi, "t")
    assert is_sentence(inst)
    assert isinstance(inst, Forall) and inst.var == "p"


def test_ind_battery_is_twenty():
    battery = ind_battery()
    assert len(battery) == 20
    assert sum(1 for item in battery if item.field_language) == 18


def test_ind_battery_is_parsed_once():
    # Each call returns a fresh list of the same immutable records, so a
    # caller that edits its list leaves the next caller's battery whole.
    first = ind_battery()
    first.clear()
    second, third = ind_battery(), ind_battery()
    assert len(second) == 20 and second is not third
    assert all(a is b for a, b in zip(second, third))


def test_theory_file_parsing():
    text = """
# sample formula file
axiom self_like:
  A o:B . IOb(o) -> W(o,o,0,0,0,0)
theorem trivial: A x:Q . x = x
"""
    entries = parse_theory_file(text)
    assert [(k, n) for k, n, _ in entries] == [
        ("axiom", "self_like"), ("theorem", "trivial")]
    assert all(is_sentence(f) for _, _, f in entries)


def _corpus_snapshot():
    sentences = {name: hashlib.sha256(repr(s).encode()).hexdigest()
                 for name, s in all_named_axioms()}
    theories = {}
    for name in ("SpecRel", "AccRelMinus", "AccRel", "GenRel(1)", "GenRel(2)", "GenRel(3)"):
        th = axiom_corpus(name)
        theories[name] = {
            "name": th.name, "has_ind_schema": th.has_ind_schema,
            "groups": [{"name": g.name, "subs": [sub for sub, _ in g.sentences],
                        "reconstruction": g.reconstruction} for g in th.groups]}
    return {"sentences": sentences, "theories": theories}


def test_corpus_asts_match_the_golden():
    # sha256 of repr(sentence) (repr leaves out source positions) for all
    # 28 corpus sentences, and each theory's group layout.
    golden = Path(__file__).parent / "golden" / "corpus_ast.json"
    assert json.dumps(_corpus_snapshot(), indent=1) + "\n" == golden.read_text()


_LAZY_PROBE = """
import contextlib, io, sys
sys.path.insert(0, {src!r})
from fractions import Fraction
from axrel.cli import main
from axrel.model import ObserverSpec, standard_minkowski
from axrel.semantics import Budget, check_theory
from axrel.syntax import axiom_corpus, corpus

def parsed():
    groups = list(corpus._GROUPS.values()) + [corpus._ax_diff(n) for n in (1, 2, 3)]
    return sorted(g.name for g in groups if "sentences" in g.__dict__)

with contextlib.redirect_stdout(io.StringIO()):
    assert main(["axioms", "list"]) == 0
print(parsed())
s = standard_minkowski([ObserverSpec("rest"), ObserverSpec("boosted", velocity=(Fraction(3, 5), 0, 0))])
check_theory(s, axiom_corpus("AccRel"), Budget(samples=4, seed=1))
print(parsed())
"""


def test_certified_checks_and_axioms_list_parse_no_corpus_group():
    # A fresh interpreter, since groups parse once per process.
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", _LAZY_PROBE.format(src=str(src))],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]", "[]"]


def test_groups_parse_once_and_named_axiom_reuses_them():
    group = axiom_corpus("SpecRel").group("AxPh")
    assert group is axiom_corpus("AccRel").group("AxPh")
    assert named_axiom("AxPh") is group.sentences[0][1]
    assert axiom_corpus("GenRel(2)").group("AxDiff_2") is axiom_corpus("GenRel(2)").group("AxDiff_2")


def test_theory_blocks_return_unparsed_texts():
    text = "axiom a: A x:Q .\n  x = x  # comment\ntheorem b: & not a formula\n"
    assert list(theory_blocks(text)) == [("axiom", "a", "A x:Q .   x = x"),
                                         ("theorem", "b", "& not a formula")]
    with pytest.raises(FormulaSyntaxError):
        parse_theory_file(text)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_axdiff_bounds_are_forward_differences(k):
    # With y_jc = (j+1)^k the forward k-th difference is k!, and with
    # a_kc * l^k = 1 every residual of the k-th bound vanishes.  Past 6 the
    # numerals (binomials, k!) are written in Horner form.
    from axrel.field import ER
    from axrel.semantics import eval_term
    from axrel.syntax.ast import mentions

    for n in (3, 6) if k <= 3 else (6,):
        (_, sentence), = axiom_corpus("GenRel(%d)" % n).group("AxDiff_%d" % n).sentences
        residual = next(g.left for g in subformulas(sentence)
                        if isinstance(g, Less) and mentions(g.left, "a%d1" % k))
        env = {"y%d%d" % (j, c): ER((j + 1) ** k) for j in range(n + 1) for c in range(1, 5)}
        env.update({"a%d%d" % (k, c): ER(1) for c in range(1, 5)}, l=ER(1))
        assert eval_term(residual, env) == ER(0), n


def test_axdiff_7_prints_and_parses_back():
    sentence = named_axiom("AxDiff_7")
    assert alpha_equal(parse(print_formula(sentence)), sentence)


def test_ind_fresh_names_keep_primes_trailing():
    decls = {"t": Sort.QUANTITY, "u": Sort.QUANTITY, "u'": Sort.QUANTITY}
    inst = instantiate_ind(parse("t < u & t < u'", decls), "t")
    assert "u_2'" in print_formula(inst)
    assert alpha_equal(parse(print_formula(inst)), inst)
