"""Tarskian evaluation of formulas in structures.

Outcomes are three-valued (Holds / Fails / Unknown) with evidence:

* Fails always carries a counterexample assignment that re-checks by
  direct evaluation, exactly;
* Holds of an existential carries the witness;
* Unknown is an honest first-class answer carrying a budget report.

Quantifier strategy.  Body-sort quantifiers enumerate named bodies,
guard-aware (an IOb-guarded universal ranges over observers only, which
is exhaustive because only charted bodies observe anything); existential
patterns over the intensional families (photon through two points,
inertial body through two timelike points) are solved exactly.  The
event-correspondence pattern  A b . W(o,b,x) <-> W(o',b,y)  is decided
exactly on affine structures.  So is the expansion of Ob(o),
E b . E q1..q4 . W(o, b, q1, ..., q4): with a family on it holds iff o is
an observer whose chart domain is not empty, since a family body passes
through every event; without families, iff some named inertial, photon or
piecewise-inertial line meets o's domain box, a linear feasibility problem
in the line's parameter.  It declines, and the block is sampled, on a
non-affine chart and, without families, on a numeric worldline.  So an
expanded sentence draws exactly the samples of its sugared form.

W atoms are answered by ``Structure.holds_W``, the one worldview relation
(see `model`): Unknown where a numeric worldline passes too close to
call.  The pattern solvers map events only through
``Structure.reference_point`` and read contents only through
``Structure.event_at``, so every path sees the same chart domains.

Quantity-sort quantifiers are sampled per *block* of like quantifiers.
Their terms become ``intervals.Poly`` polynomials over the block through
``term_to_poly``: linear equality conjuncts and correspondence conjuncts
in hypothesis position whose polynomials are affine pin variables exactly
(Gaussian elimination over the field), the remaining degrees of freedom
take corner values {0, +-1, +-1/2}, scenario constants, and seeded
rationals, and the roots of the guide equations' polynomials along the
last free direction.  Where a pattern solver applies the decision is
exact; otherwise a passed universal is labelled "sampled".  Enlarging the
budget only extends the sample prefix, so a Fails can never revert to
Holds.

Each evaluation plans every formula node it visits once, keyed by node
identity on the evaluation's context: the quantifier block and its
matrix, correspondence matches, guards and body candidates, the pinning
conjuncts, the guide equations and their left - right terms, compiled
term evaluators and the And/Not rewrite of Or and Implies.  A later visit
does only the work that depends on the assignment, with the same
arithmetic in the same order and the same seed paths.

``check_axiom`` and ``check_theory`` take a certified verdict from
`certify` where a reduction applies and evaluate the sentences otherwise;
IND instances go to `ind`.  Both stay here, beside the ``evaluate`` they
fall back to, as `certify` and `ind` never import this module on load.

``Budget``, ``Verdict``, ``combine_verdicts`` and the outcome constants
live in `verdict`, which layers that only report verdicts import instead
of this module.  They, and the names that moved to `ind`, `certify` and
`intervals`, are re-exported here: ``from axrel.semantics import
Verdict`` keeps working.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from functools import cached_property
from typing import Optional

# hashlib.blake2b is this function; importing hashlib would also load
# OpenSSL.  A build without CPython's own blake2 has only hashlib's.
try:
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

from .field import ER
from . import linalg
from .kinematics import AffineMap, mu
from .model import Body, InertialLine, NotAnObserver, PhotonLine, Structure
from .syntax.ast import (
    And, EqB, EqQ, Exists, Forall, Formula, IBAtom, IObAtom, Iff, Implies,
    Less, Not, ObAtom, Or, PhAtom, Sort, Sub, Term, Theory, Var,
    WAtom, _about, _flatten_and, _formula_terms, _split_conjuncts, mentions, subformulas,
)
from .syntax.corpus import UnknownTheory, axiom_corpus, contract_definitions, ind_battery
from .intervals import (
    Interval, IntervalSet, Poly, UnboundVariable, UnsupportedDefinableSet, _value_of,
    eval_term, term_to_poly,
)
from .certify import _certified_axiom
from .ind import _domain_set, _map_forms, check_ind_battery, check_ind_instance, definable_set
from .verdict import FAILS, HOLDS, SOLVER_ITERATIONS, UNKNOWN, Budget, Verdict, combine_verdicts

__all__ = [
    "Budget", "Verdict", "Assignment", "evaluate", "check_axiom",
    "check_theory", "check_ind_instance", "witness_photon",
    "witness_inertial", "UnknownAxiom", "UnboundVariable",
    "recheck_counterexample", "definable_set", "eval_term",
]


class UnknownAxiom(KeyError):
    pass


Assignment = dict  # variable name -> Body | ExactReal


class _BudgetExhausted(Exception):
    pass


class _Ctx:
    def __init__(self, structure: Structure, budget: Budget):
        self.s = structure
        self.budget = budget
        self.samples_used = 0
        self.solver_calls = 0
        # id(formula node) -> the node's plan (see _plan); nodes stay alive
        # for the whole evaluation, so their ids are not reused.
        self.plans = {}

    @cached_property
    def corners(self) -> list:
        """Sampling corners: {0, +-1, +-1/2}, then each structure constant
        not already among them."""
        corners = [ER(0), ER(1), ER(-1), ER(Fraction(1, 2)), ER(Fraction(-1, 2))]
        for c in self.s.constants:
            if all((c - x).sign() != 0 for x in corners):
                corners.append(c)
        return corners

    def bump_solver(self):
        self.solver_calls += 1
        if self.solver_calls > SOLVER_ITERATIONS:
            raise _BudgetExhausted()

    def rng(self, path: str) -> random.Random:
        # Stable across processes: never trust hash() of strings.
        digest = blake2b(path.encode(), digest_size=8).digest()
        return random.Random(int.from_bytes(digest, "big") ^ self.budget.seed)

    def report(self) -> dict:
        return {"samples": self.samples_used, "solver_calls": self.solver_calls,
                "seed": self.budget.seed}


# ---------------------------------------------------------------------------
# Core evaluator.  Internal results are (state, sampled, evidence).  _plan
# looks at one node, not its subformulas, once per evaluation; the function
# it returns does the work that depends on the assignment.


def evaluate(s: Structure, f: Formula, assignment: Optional[Assignment] = None,
             budget: Optional[Budget] = None) -> Verdict:
    """Evaluate a formula in a structure under an assignment."""
    ctx = _Ctx(s, budget or Budget())
    f = contract_definitions(f)
    try:
        state, sampled, evidence = _eval(f, dict(assignment or {}), ctx, "r")
    except _BudgetExhausted:
        return Verdict.unknown(evidence={"note": "solver budget exhausted"},
                               budget=ctx.report())
    method = "sampled" if sampled else "certified"
    if state == HOLDS:
        return Verdict.holds(method=method, evidence=evidence, budget=ctx.report())
    if state == FAILS:
        return Verdict.fails(evidence=evidence, method=method, budget=ctx.report())
    return Verdict.unknown(evidence=evidence, budget=ctx.report())


def _eval(f: Formula, env: Assignment, ctx: _Ctx, path: str):
    run = ctx.plans.get(id(f))
    if run is None:
        run = ctx.plans[id(f)] = _plan(f, ctx.s)
    return run(env, ctx, path)


def _plan(f: Formula, s: Structure):
    """The plan of one node in s: run(env, ctx, path) -> (state, sampled,
    evidence).  Plans take ctx as an argument and keep no reference to it,
    so a context and its plans need no cycle collection to be freed."""
    planner = _PLANNERS.get(type(f))
    if planner is None:
        raise TypeError(f)
    return planner(f, s)


def _neg(state: str) -> str:
    return {HOLDS: FAILS, FAILS: HOLDS, UNKNOWN: UNKNOWN}[state]


def _plan_body_atom(f, s: Structure):
    body_of = _value_of(f.body)
    truth_of = {
        IBAtom: lambda b: b.is_inertial,
        PhAtom: lambda b: b.is_photon,
        ObAtom: s.is_observer,
        IObAtom: lambda b: b.is_inertial and s.is_observer(b),
    }[type(f)]

    def run(env, ctx, path):
        return (HOLDS if truth_of(body_of(env)) else FAILS), False, {}

    return run


def _plan_w(f: WAtom, s: Structure):
    obs_of, body_of = _value_of(f.observer), _value_of(f.body)
    c1, c2, c3, c4 = (_value_of(c) for c in f.coords)

    def run(env, ctx, path):
        truth = s.holds_W(obs_of(env), body_of(env), (c1(env), c2(env), c3(env), c4(env)))
        if truth is None:
            return UNKNOWN, True, {}
        return (HOLDS if truth else FAILS), False, {}

    return run


def _plan_relation(f, s: Structure):
    left, right, cls = _value_of(f.left), _value_of(f.right), type(f)

    def run(env, ctx, path):
        if cls is EqQ:
            truth = left(env) == right(env)
        elif cls is Less:
            truth = left(env) < right(env)
        else:
            truth = left(env).id == right(env).id
        return (HOLDS if truth else FAILS), False, {}

    return run


def _plan_not(f: Not, s: Structure):
    arg = f.arg

    def run(env, ctx, path):
        state, sampled, ev = _eval(arg, env, ctx, path + "n")
        return _neg(state), sampled, ev

    return run


def _plan_and(f: And, s: Structure):
    left, right = f.left, f.right

    def run(env, ctx, path):
        state1, sampled1, ev1 = _eval(left, env, ctx, path + "a")
        if state1 == FAILS:
            return FAILS, sampled1, ev1
        state2, sampled2, ev2 = _eval(right, env, ctx, path + "b")
        if state2 == FAILS:
            return FAILS, sampled2, ev2
        if UNKNOWN in (state1, state2):
            return UNKNOWN, sampled1 or sampled2, {}
        return HOLDS, sampled1 or sampled2, {**ev1, **ev2}

    return run


def _plan_negated_and(f, s: Structure):
    """Or and Implies as the negation of a conjunction, built once here."""
    if isinstance(f, Or):
        rewrite = And(Not(f.left), Not(f.right))
    else:
        rewrite = And(f.left, Not(f.right))
    conjunction = _plan_and(rewrite, s)

    def run(env, ctx, path):
        state, sampled, ev = conjunction(env, ctx, path)
        return _neg(state), sampled, ev

    return run


def _plan_iff(f: Iff, s: Structure):
    left, right = f.left, f.right

    def run(env, ctx, path):
        s1, p1, e1 = _eval(left, env, ctx, path + "l")
        s2, p2, e2 = _eval(right, env, ctx, path + "r")
        if UNKNOWN in (s1, s2):
            return UNKNOWN, p1 or p2, {}
        agree = (s1 == s2)
        return (HOLDS if agree else FAILS), p1 or p2, {**e1, **e2}

    return run


# ---------------------------------------------------------------------------
# Quantifier machinery.


def _collect_block(f, kind, sort):
    names = []
    node = f
    while isinstance(node, kind) and node.var_sort is sort:
        names.append(node.var)
        node = node.body
    return names, node


def _match_corr(f: Formula):
    """Recognize  A b . W(o, b, xs) <-> W(o2, b, ys); returns
    (o_term, o2_term, xs, ys) or None."""
    if not (isinstance(f, Forall) and f.var_sort is Sort.BODY):
        return None
    body = f.body
    if not isinstance(body, Iff):
        return None
    l, r = body.left, body.right
    if not (_about(l, f.var, WAtom) and _about(r, f.var, WAtom)):
        return None
    if any(mentions(t, f.var) for t in (l.observer, r.observer) + l.coords + r.coords):
        return None
    return (l.observer, r.observer, l.coords, r.coords)


def _event_contents_equal(s: Structure, o: Body, x, o2: Body, y) -> Optional[bool]:
    """Exact decision of  A b . W(o,b,x) <-> W(o2,b,y)  on exact charts."""
    c1, c2 = s.chart_of(o), s.chart_of(o2)
    if c1 is None and c2 is None:
        return True  # both sides empty for non-observers
    if c1 is None or c2 is None:
        other, chart, pt = (o2, c2, y) if c1 is None else (o, c1, x)
        if not chart.is_exact:
            return None
        # one side is always empty: equal iff the other side is empty too
        if s.photon_family or s.inertial_family:
            return not s.domain_of(other).contains(pt)
        return not s.event_at(other, pt).named
    w = s.transition(o, o2)
    if w is None:
        return None
    if s.photon_family or s.inertial_family:
        in1 = s.domain_of(o).contains(x)
        in2 = s.domain_of(o2).contains(y)
        if not in1 or not in2:
            # A domain-invalid point carries the empty event; every
            # domain-valid one holds family bodies, so valid never matches
            # invalid.
            return in1 == in2
        # Family contents are injective in the event, and charts are
        # bijections: the events are equal iff w(x) = y.
        return all((a - b).is_zero() for a, b in zip(w.apply(x), y))
    return s.event_at(o, x).named == s.event_at(o2, y).named


def _plan_quantifier(f, s: Structure):
    kind = type(f)
    names, matrix = _collect_block(f, kind, f.var_sort)
    if f.var_sort is Sort.BODY:
        planner = _plan_body_forall if kind is Forall else _plan_body_exists
    else:
        planner = _plan_quantity_forall if kind is Forall else _plan_quantity_exists
    block = planner(names, matrix, s)
    corr = _match_corr(f)
    if corr is None:
        return block
    o_of, o2_of = _value_of(corr[0]), _value_of(corr[1])
    xs_of, ys_of = [_value_of(c) for c in corr[2]], [_value_of(c) for c in corr[3]]

    def run(env, ctx, path):
        try:
            o = o_of(env)
            o2 = o2_of(env)
            xs = tuple(c(env) for c in xs_of)
            ys = tuple(c(env) for c in ys_of)
        except UnboundVariable:
            return block(env, ctx, path)
        ctx.bump_solver()
        result = _event_contents_equal(s, o, xs, o2, ys)
        if result is not None:
            return (HOLDS if result else FAILS), False, {}
        return block(env, ctx, path)

    return run


# -- body sort ---------------------------------------------------------------


def _is_observer_guard(g: Formula, var: str) -> bool:
    """True for guards that force var to be an observer: Ob/IOb atoms and
    their expansion  E b . E q... . W(var, b, q...) ."""
    if _about(g, var, (IObAtom, ObAtom)):
        return True
    node = g
    while isinstance(node, Exists):
        node = node.body
    return (isinstance(node, WAtom) and isinstance(node.observer, Var)
            and node.observer.name == var)


def _body_candidates(s: Structure, names, guards: list):
    """(candidate lists, exhaustive): for each name of a body block, the
    named bodies compatible with the guards on it; exhaustive=False when an
    intensional family could supply more."""
    lists, exhaustive = [], True
    for var in names:
        if any(_is_observer_guard(g, var) for g in guards):
            lists.append(s.observers())
        elif any(_about(g, var, PhAtom) for g in guards):
            lists.append([b for b in s.bodies.values() if b.is_photon])
            exhaustive = exhaustive and not s.photon_family
        elif any(_about(g, var, IBAtom) for g in guards):
            lists.append([b for b in s.bodies.values() if b.is_inertial])
            exhaustive = exhaustive and not s.inertial_family
        else:
            lists.append(list(s.bodies.values()))
            exhaustive = exhaustive and not (s.photon_family or s.inertial_family)
    return lists, exhaustive


def _body_block_guards(matrix) -> list:
    """Hypothesis conjuncts visible from a body-sort universal block,
    looking through inner quantifier prefixes and implication chains.

    Sound for narrowing a universal: a candidate violating a guard makes
    the corresponding implication vacuously true at every inner level.
    """
    node = matrix
    guards: list = []
    while True:
        if isinstance(node, (Forall, Exists)):
            node = node.body
            continue
        if isinstance(node, Implies):
            guards.extend(_flatten_and(node.left))
            node = node.right
            continue
        return guards


def _plan_body_forall(names, matrix, s: Structure):
    candidate_lists, exhaustive = _body_candidates(s, names, _body_block_guards(matrix))

    def run(env, ctx, path):
        sampled_any = False
        for i, combo in enumerate(itertools.product(*candidate_lists)):
            env2 = {**env, **dict(zip(names, combo))}
            state, sampled, ev = _eval(matrix, env2, ctx, "%s.f%d" % (path, i))
            sampled_any = sampled_any or sampled
            if state == FAILS:
                return FAILS, sampled, {**ev, **{n: b for n, b in zip(names, combo)}}
            if state == UNKNOWN:
                return UNKNOWN, True, {}
        if not exhaustive:
            return UNKNOWN, True, {}
        return HOLDS, sampled_any, {}

    return run


def _plan_body_exists(names, matrix, s: Structure):
    conjuncts = _flatten_and(matrix)
    candidate_lists, exhaustive = _body_candidates(s, names, conjuncts)
    sees = _plan_sees_a_body(names, matrix, s)
    family = _plan_family_witness(names[0], conjuncts, s) if len(names) == 1 else None

    def run(env, ctx, path):
        if sees is not None:
            decided = sees(env)
            if decided is not None:
                return decided
        # Fails is certified only when every candidate's matrix Fails certified.
        undecided = sampled_any = False
        for i, combo in enumerate(itertools.product(*candidate_lists)):
            env2 = {**env, **dict(zip(names, combo))}
            state, sampled, ev = _eval(matrix, env2, ctx, "%s.e%d" % (path, i))
            if state == HOLDS:
                return HOLDS, sampled, {**ev, **{n: b for n, b in zip(names, combo)}}
            undecided = undecided or state == UNKNOWN
            sampled_any = sampled_any or sampled
        solved = family(env, ctx) if family is not None else None
        if solved is not None:
            found, witness, extra = solved
            if found:
                env2 = {**env, names[0]: witness}
                state, sampled, ev = _eval(matrix, env2, ctx, path + ".w")
                if state == HOLDS:
                    return HOLDS, sampled, {**ev, names[0]: witness}
                if state == FAILS and not sampled:
                    return FAILS, False, {}
                return UNKNOWN, True, {}
            return (UNKNOWN, True, {}) if undecided else (FAILS, sampled_any, extra)
        if undecided or not exhaustive:
            return UNKNOWN, True, {}
        return FAILS, sampled_any, {}

    return run


def _plan_sees_a_body(names, matrix, s: Structure):
    """The exact strategy for  E b . E q1 q2 q3 q4 . W(o, b, q1, ..., q4),
    the expansion of Ob(o): the q's are the four quantity variables of the
    inner block, in any order, and neither b nor a q is o.  Returns None
    for any other block, else sees(env) -> None (undecided: sample) or an
    internal result."""
    if len(names) != 1 or not isinstance(matrix, Exists):
        return None
    qs, w = _collect_block(matrix, Exists, Sort.QUANTITY)
    if not (_about(w, names[0], WAtom) and isinstance(w.observer, Var)):
        return None
    coords = [c.name if isinstance(c, Var) else None for c in w.coords]
    o_name = w.observer.name
    if len(set(qs)) != 4 or set(coords) != set(qs) or o_name in qs or o_name == names[0]:
        return None
    axis_of = [coords.index(q) for q in qs]
    decided = {}  # observer id -> _sees_a_body's answer, within this evaluation

    def sees(env):
        o = env.get(o_name)
        if o is None:
            return None  # unbound: the candidate loop reports it
        if o.id not in decided:
            decided[o.id] = _sees_a_body(s, o)
        found = decided[o.id]
        if found is None:
            return None
        holds, witness = found
        if not holds:
            return FAILS, False, {}
        if witness is None:
            return HOLDS, False, {}
        body, x = witness
        evidence = {q: x[i] for q, i in zip(qs, axis_of)}
        evidence[names[0]] = body
        return HOLDS, False, evidence

    return sees


def _sees_a_body(s: Structure, o: Body):
    """Exact decision of  E b x . W(o, b, x).  None when it cannot decide
    (a non-affine chart; or, without families, a numeric worldline and no
    straight one in the box); else (holds, witness), witness None or
    (body, x).  The witness is the first named body, in declaration order,
    through o's origin when dom(o) holds the origin (the sampler's first
    probe); else the first whose straight or piecewise-straight worldline
    meets dom(o), at the o-event _line_in_box picks.  With a family on,
    every event of dom(o) holds a family body, so the existential holds
    iff dom(o) is not empty."""
    chart = s.chart_of(o)
    if chart is None:
        return False, None  # a non-observer coordinatizes nothing
    if not chart.is_exact:
        return None
    bodies = [(b, b.worldline.pieces()) for b in s.bodies.values()]
    origin = (ER(0),) * 4
    ref = s.reference_point(o, origin)
    if ref is not None:
        for b, pieces in bodies:
            if pieces is not None and b.worldline.contains(ref):
                return True, (b, origin)
    for b, pieces in bodies:
        for piece in pieces or ():  # a numeric worldline has no pieces
            x = _line_in_box(s, o, chart, *piece)
            if x is not None:
                return True, (b, x)
    if s.photon_family or s.inertial_family:
        dom = s.domain_of(o)
        closed = dom.closed
        return not any(Interval(lo, hi, not closed, not closed).is_empty()
                       for lo, hi in dom.bounds), None
    return None if any(pieces is None for _, pieces in bodies) else (False, None)


def _line_in_box(s: Structure, o: Body, chart: AffineMap, point, velocity, end):
    """An o-event of a worldline's piece inside dom(o), or None when they
    do not meet.  o sees the piece at a + t*d, a = chart(point), d = L
    (velocity, 1), t <= end - point[3]: the allowed t are an interval.  The
    event is at t = 0 when allowed, else at the middle of the interval, or
    one past its only finite end."""
    a = chart.apply(point)
    if s.domain_of(o).is_full():
        return a
    d = linalg.mat_vec(chart.linear, tuple(velocity) + (ER(1),))
    allowed = _domain_set(s, o, [Poly({(): a[i], ("t",): d[i]}) for i in range(4)])
    if end is not None:
        allowed = allowed.intersect(IntervalSet((Interval(ER(0), end - point[3], False, False),)))
    if allowed.is_empty():
        return None
    iv = allowed.intervals[0]  # the box and the piece are convex
    if iv.contains(ER(0)):
        return a
    if iv.lo is not None and iv.hi is not None:
        t = (iv.lo + iv.hi) / 2
    else:
        t = iv.lo + 1 if iv.lo is not None else iv.hi - 1
    return tuple(a[i] + t * d[i] for i in range(4))


def _plan_family_witness(var: str, conjuncts: list, s: Structure):
    """Plan the exact solution of  E var . Ph/IB(var) & W(o,var,c1) [& W(o,var,c2)].

    None when the pattern does not apply; else solve(env) -> None (does not
    apply under env) or (found, body, info).
    """
    kinds, watoms, others = _split_conjuncts(conjuncts, var)
    is_ph, is_ib = PhAtom in kinds, IBAtom in kinds
    if (is_ph and not s.photon_family) or (is_ib and not s.inertial_family):
        return None
    if not (is_ph or is_ib):
        # Unconstrained exists: any family body will do.
        if not (s.photon_family or s.inertial_family):
            return None
        is_ph = s.photon_family
    if not watoms or len(watoms) > 2:
        return None
    # all other conjuncts must not mention the variable
    if any(mentions(t, var) for g in others for sub in subformulas(g)
           for t in _formula_terms(sub)):
        return None
    obs_of = _value_of(watoms[0].observer)
    points_of = [[_value_of(c) for c in w.coords] for w in watoms]
    obs2_of = _value_of(watoms[1].observer) if len(watoms) == 2 else None

    def solve(env, ctx):
        try:
            obs = obs_of(env)
            points = [tuple(c(env) for c in point) for point in points_of]
        except UnboundVariable:
            return None
        chart = s.chart_of(obs)
        if chart is None:
            return False, None, {"reason": "observer has no chart"}
        if not chart.is_exact:
            return None
        if obs2_of is not None and obs2_of(env).id != obs.id:
            return None
        ctx.bump_solver()
        refs = _observed_refs(s, obs, True, *points)
        if refs is None:
            return False, None, {"reason": "event outside the observer's chart domain"}
        body = witness_photon_refs(refs) if is_ph else witness_inertial_refs(refs)
        if body is None:
            return False, None, {"reason": "no family body through the given events"}
        return True, body, {}

    return solve


_synth_counter = itertools.count(1)


def _family_body(refs, photon: bool) -> Optional[Body]:
    """The family photon (or inertial body) through one or two reference
    events; None unless two distinct events are lightlike (strictly
    timelike) apart.  Both then differ in time, so dt is never 0."""
    kind, line = ("photon", PhotonLine) if photon else ("inertial", InertialLine)
    x, y = refs[0], refs[-1]
    if len(refs) == 1 or all((a - b).is_zero() for a, b in zip(x, y)):
        worldline = line(x, (ER(1), ER(0), ER(0)) if photon else (ER(0), ER(0), ER(0)))
    else:
        interval = mu(x, y)
        if not (interval.is_zero() if photon else interval.sign() < 0):
            return None
        worldline = line.through(x, y)
    return Body("%s#%d" % (kind, next(_synth_counter)), worldline)


def witness_photon_refs(refs) -> Optional[Body]:
    return _family_body(refs, photon=True)


def witness_inertial_refs(refs) -> Optional[Body]:
    return _family_body(refs, photon=False)


def witness_photon(s: Structure, o: Body, x, x2) -> Optional[Body]:
    """The family photon through o-events x and x2, if lightlike; else None."""
    refs = _observed_refs(s, o, s.photon_family, x, x2)
    return witness_photon_refs(refs) if refs else None


def witness_inertial(s: Structure, o: Body, x, x2) -> Optional[Body]:
    """The family inertial body through two strictly timelike o-events."""
    refs = _observed_refs(s, o, s.inertial_family, x, x2)
    return witness_inertial_refs(refs) if refs else None


def _observed_refs(s: Structure, o: Body, family: bool, *events) -> Optional[list]:
    """Reference points of o-events, or None without the family or when o's
    chart domain leaves one of them out."""
    if not s.is_observer(o):
        raise NotAnObserver(o.id)
    if not family:
        return None
    refs = [s.reference_point(o, x) for x in events]
    return None if any(ref is None for ref in refs) else refs


# -- quantity sort: linear pinning and sampling --------------------------------


def _affine(term: Term, env, binding: dict) -> Optional[Poly]:
    """The term as a polynomial over the block parameters, or None when it
    is not affine in them or reads a variable with no quantity value."""
    try:
        p = term_to_poly(term, binding, env)
    except UnsupportedDefinableSet:
        return None
    return p if p.degree <= 1 else None


def _plan_pins(names, conjuncts) -> list:
    """The hypothesis conjuncts that can pin block variables, in order, as
    (o, o2, xs, ys, targets): a correspondence, with o and o2 compiled as
    values, its coordinate terms xs and ys, and the block variable each y
    is (or None); or a linear equation (None, None, None, (left, right),
    None).  Other conjuncts only filter samples."""
    pins = []
    for g in conjuncts:
        corr = _match_corr(g)
        if corr is not None:
            o_t, o2_t, xs_t, ys_t = corr
            targets = [t.name if isinstance(t, Var) and t.name in names else None
                       for t in ys_t]
            pins.append((_value_of(o_t), _value_of(o2_t), xs_t, ys_t, targets))
        elif isinstance(g, EqQ):
            pins.append((None, None, None, (g.left, g.right), None))
    return pins


def _pin_with_constraints(names, pins, env, ctx: _Ctx):
    """Pin block variables from corr conjuncts and linear equalities.

    Returns (binding, params, equations) where binding maps each block
    var to an affine polynomial over params, and equations is a list of
    affine polynomials required to vanish.  Inconsistent equations are
    left to the caller's solve.
    """
    binding = {n: Poly.var(n) for n in names}
    params = list(names)
    equations: list = []
    pending = list(pins)
    progress = True
    while progress:
        progress = False
        remaining = []
        for pin in pending:
            o_of, o2_of, xs_t, ys_t, targets = pin
            if o_of is None:
                l, r = (_affine(t, env, binding) for t in ys_t)
                if l is not None and r is not None:
                    equations.append(l - r)
                    progress = True
                else:
                    remaining.append(pin)
                continue
            try:
                o = o_of(env)
                o2 = o2_of(env)
            except UnboundVariable:
                remaining.append(pin)
                continue
            w = ctx.s.transition(o, o2)
            if w is None:
                continue  # cannot pin; conjunct still checked per sample
            xs_forms = [_affine(t, env, binding) for t in xs_t]
            if any(fm is None for fm in xs_forms):
                remaining.append(pin)
                continue
            ys_forms = _map_forms(w, xs_forms)
            if all(targets):
                unpinned = [n for n in targets if n in params]
                if len(unpinned) == 4 and len(set(targets)) == 4:
                    pinned = dict(zip(targets, ys_forms))
                    params[:] = [p for p in params if p not in pinned]
                    # Earlier pins and equations still read the new pins'
                    # names as parameters: substitute the new pins into them.
                    for n in binding:
                        if n in pinned:
                            binding[n] = pinned[n]
                        elif n not in params:
                            binding[n] = binding[n].substitute(pinned)
                    equations[:] = [eq.substitute(pinned) for eq in equations]
                    ctx.bump_solver()
                    progress = True
                    continue
            # already pinned (or not plain vars): contribute equations
            ys_actual = [_affine(t, env, binding) for t in ys_t]
            if all(fm is not None for fm in ys_actual):
                for have, want in zip(ys_actual, ys_forms):
                    equations.append(have - want)
                progress = True
                continue
            remaining.append(pin)
        pending = remaining
    return binding, params, equations


def _solve_equations(params, equations):
    """Gaussian solve; returns (particular, basis) as dicts over params,
    or None if exactly inconsistent."""
    if not equations:
        basis = [{q: ER(1 if q == p else 0) for q in params} for p in params]
        return {p: ER(0) for p in params}, basis
    a = tuple(tuple(eq.terms.get((p,), ER(0)) for p in params) for eq in equations)
    b = tuple(-eq.terms.get((), ER(0)) for eq in equations)
    res = linalg.solve_linear(a, b)
    if res is None:
        return None
    sol, null = res
    particular = {p: sol[i] for i, p in enumerate(params)}
    basis = [{p: vec[i] for i, p in enumerate(params)} for vec in null]
    return particular, basis


def _sample_tuples(ctx: _Ctx, path: str, dims: int, limit: int):
    """Deterministic tuple stream: corners, then seeded rationals."""
    if dims == 0:
        yield ()
        return
    zero = tuple(ER(0) for _ in range(dims))
    yield zero
    yielded = 1
    for i in range(dims):
        for val in ctx.corners[1:]:
            if yielded >= limit:
                return
            tup = list(zero)
            tup[i] = val
            yield tuple(tup)
            yielded += 1
    rng = ctx.rng(path)
    while yielded < limit:
        yield tuple(ER(Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
                    for _ in range(dims))
        yielded += 1


def _collect_equations(matrix, limit: int = 4) -> list:
    """EqQ subformulas of the matrix, used to steer samples onto the
    algebraic surfaces where one side of an equivalence can flip."""
    equations = (sub for sub in subformulas(matrix) if isinstance(sub, EqQ))
    return list(itertools.islice(equations, limit))


def _plan_quantity_forall(names, matrix, s: Structure):
    pins = _plan_pins(names, _flatten_and(matrix.left) if isinstance(matrix, Implies) else [])
    guide_eqs = _collect_equations(matrix)
    guide_diffs = [Sub(eq.left, eq.right) for eq in guide_eqs]
    # Only the block variables that the guide equations read need guide
    # polynomials.
    guided = [n for n in names
              if any(mentions(eq.left, n) or mentions(eq.right, n) for eq in guide_eqs)]
    return functools.partial(_eval_quantity_forall, names, matrix, pins, guide_diffs, guided)


def _eval_quantity_forall(names, matrix, pins, guide_diffs, guided, env, ctx: _Ctx, path: str):
    binding, params, equations = _pin_with_constraints(names, pins, env, ctx)
    solved = _solve_equations(params, equations)
    if solved is None:
        # The linear part of the hypothesis is exactly unsatisfiable.
        return HOLDS, False, {}
    particular, basis = solved
    guides = guide_diffs if basis else []
    saw_unknown = False
    sample_no = 0

    def param_values(tup):
        """The parameters at basis coefficients tup, and their partial sums
        before the last basis direction."""
        values = partial = {p: particular[p] for p in params}
        for coeff, direction in zip(tup, basis):
            partial = values
            if coeff.is_zero():
                continue
            # v + 0*d and v + c*0 are v, over v's own tower (a zero product
            # is rational 0, and adding a rational keeps the tower), so an
            # exactly zero term is skipped, not added.
            values = {p: values[p] if direction[p].is_zero() else values[p] + coeff * direction[p]
                      for p in params}
        return values, partial

    def run_sample(values, tag):
        nonlocal saw_unknown
        ctx.samples_used += 1
        env2 = dict(env)
        for n in names:
            env2[n] = binding[n].eval(values)
        state, sampled, ev = _eval(matrix, env2, ctx, "%s.q%s" % (path, tag))
        if state == UNKNOWN:
            saw_unknown = True
            return None
        if state == FAILS:
            return FAILS, sampled, {**ev, **{n: env2[n] for n in names}}
        return None

    slopes = {}

    def guide_polys(partial):
        # The guided variables as polynomials in the last basis coefficient
        # (the variable "step"), the others frozen at the sample's partial
        # sums: stays on the solution manifold of the pinned linear
        # equations.  Only the constant term depends on the sample; the
        # slopes are built once per block.  A zero slope leaves a bare
        # constant, whose products take Poly's fast paths.
        if not slopes:
            last = basis[-1]
            for n in guided:
                # The step coefficient: the sum of c * last[p] over the
                # degree-1 terms c*p of the affine binding, in term order.
                terms = [c * last[m[0]] for m, c in binding[n].terms.items() if len(m) == 1]
                slope = sum(terms[1:], terms[0]) if terms else ER(0)
                slopes[n] = {} if slope.is_zero() else {("step",): slope}
        return {n: Poly({(): binding[n].eval(partial), **slopes[n]}) for n in guided}

    for i, tup in enumerate(_sample_tuples(ctx, path, len(basis), ctx.budget.samples)):
        if sample_no >= ctx.budget.samples:
            break
        sample_no += 1
        values, partial = param_values(tup)
        hit = run_sample(values, str(i))
        if hit is not None:
            return hit
        if guides and sample_no < ctx.budget.samples:
            var_polys = guide_polys(partial)
            for eq_i, diff in enumerate(guides):
                if sample_no >= ctx.budget.samples:
                    break
                try:
                    lhs = term_to_poly(diff, var_polys, env)
                except UnsupportedDefinableSet:
                    continue
                if not 1 <= lhs.degree <= 2:
                    continue
                for r_i, root in enumerate(lhs.roots()):
                    if sample_no >= ctx.budget.samples:
                        break
                    sample_no += 1
                    guided_values = {p: partial[p] + root * basis[-1][p] for p in params}
                    hit = run_sample(guided_values, "%dg%d.%d" % (i, eq_i, r_i))
                    if hit is not None:
                        return hit
    return (UNKNOWN if saw_unknown else HOLDS), True, {}


def _plan_quantity_exists(names, matrix, s: Structure):
    conjuncts = _flatten_and(matrix)
    # Correspondence conjuncts whose target is exactly the block.
    correspondences = []
    for g in conjuncts:
        corr = _match_corr(g)
        if corr is None:
            continue
        o_t, o2_t, xs_t, ys_t = corr
        targets = [t.name if isinstance(t, Var) else None for t in ys_t]
        if set(filter(None, targets)) != set(names) or len(names) != 4:
            continue
        correspondences.append((_value_of(o_t), _value_of(o2_t),
                                [_value_of(c) for c in xs_t], targets))
    # Single-variable polynomial conjuncts: (is an equation, left - right).
    polynomial = []
    if len(names) == 1:
        polynomial = [(isinstance(g, EqQ), Sub(g.left, g.right))
                      for g in conjuncts if isinstance(g, (EqQ, Less))]
    return functools.partial(_eval_quantity_exists, names, matrix, correspondences, polynomial)


def _eval_quantity_exists(names, matrix, correspondences, polynomial, env, ctx: _Ctx, path: str):
    s = ctx.s
    # 1. Correspondence witness: the block is exactly the target of a corr.
    for o_of, o2_of, xs_of, targets in correspondences:
        try:
            o = o_of(env)
            o2 = o2_of(env)
            xs = tuple(c(env) for c in xs_of)
        except UnboundVariable:
            continue
        w = s.transition(o, o2)
        if w is None:
            continue
        ctx.bump_solver()
        ys = w.apply(xs)
        env2 = {**env, **dict(zip(targets, ys))}
        state, sampled, ev = _eval(matrix, env2, ctx, path + ".cw")
        if state == HOLDS:
            return HOLDS, sampled, {**ev, **dict(zip(targets, ys))}
        # The computed correspondence point is the only candidate that can
        # match family contents; if contents are injective, its failure
        # refutes the existential exactly.
        if (s.photon_family or s.inertial_family) and state == FAILS and not sampled:
            return FAILS, False, {}
    # 2. Root candidates from single-variable polynomial conjuncts.  An
    # equality conjunct of degree 1 or 2 pins every witness to its roots:
    # if the body fails exactly at each root, the existential fails exactly.
    candidates: list = []
    if polynomial:
        var = names[0]
        pinning_roots = None
        var_poly = {var: Poly.var(var)}
        for is_eq, diff in polynomial:
            try:
                p = term_to_poly(diff, var_poly, env)
            except UnsupportedDefinableSet:
                continue
            if 1 <= p.degree <= 2:
                roots = p.roots()
                candidates.extend(roots)
                if is_eq and pinning_roots is None:
                    pinning_roots = roots
            elif is_eq and p.degree == 0 and not p.is_zero():
                return FAILS, False, {}  # unsatisfiable equality conjunct
        if pinning_roots is not None:
            all_exact_fails = True
            for i, root in enumerate(pinning_roots):
                ctx.samples_used += 1
                env2 = {**env, var: root}
                state, sampled, ev = _eval(matrix, env2, ctx, "%s.p%d" % (path, i))
                if state == HOLDS:
                    return HOLDS, sampled, {**ev, var: root}
                if not (state == FAILS and not sampled):
                    all_exact_fails = False
            if all_exact_fails:
                return FAILS, False, {}
    # 3. Corner + seeded tuples.
    tried = 0
    for i, tup in enumerate(_candidate_stream(candidates, names, ctx, path)):
        if tried >= ctx.budget.samples:
            break
        tried += 1
        ctx.samples_used += 1
        env2 = {**env, **dict(zip(names, tup))}
        state, sampled, ev = _eval(matrix, env2, ctx, "%s.x%d" % (path, i))
        if state == HOLDS:
            return HOLDS, sampled, {**ev, **dict(zip(names, tup))}
    return UNKNOWN, True, {}


def _candidate_stream(roots, names, ctx: _Ctx, path: str):
    if len(names) == 1:
        for r in roots:
            yield (r,)
    yield from _sample_tuples(ctx, path + ".cand", len(names), ctx.budget.samples)


_PLANNERS = {
    IBAtom: _plan_body_atom, PhAtom: _plan_body_atom, ObAtom: _plan_body_atom,
    IObAtom: _plan_body_atom, WAtom: _plan_w, EqQ: _plan_relation, Less: _plan_relation,
    EqB: _plan_relation, Not: _plan_not, And: _plan_and, Or: _plan_negated_and,
    Implies: _plan_negated_and, Iff: _plan_iff, Forall: _plan_quantifier,
    Exists: _plan_quantifier,
}


# ---------------------------------------------------------------------------
# Axiom checking.


def check_axiom(s: Structure, axiom_name: str, budget: Optional[Budget] = None,
                theory: str = "AccRel") -> Verdict:
    """Check one named axiom; certified reductions on affine structures,
    sampled evaluation elsewhere."""
    budget = budget or Budget()
    try:
        th = axiom_corpus(theory)
        group = th.group(axiom_name)
    except (UnknownTheory, KeyError):
        raise UnknownAxiom(axiom_name)
    return _check_group(s, group, budget)


def _check_group(s: Structure, group, budget: Budget) -> Verdict:
    """A certified verdict where a reduction applies, else the sentences' combined."""
    certified = _certified_axiom(s, group.name)
    if certified is not None:
        return certified
    return combine_verdicts([evaluate(s, sentence, None, budget)
                             for _, sentence in group.sentences])


def recheck_counterexample(s: Structure, sentence: Formula, evidence: dict,
                           budget: Optional[Budget] = None) -> bool:
    """Re-evaluate the quantifier matrix under a counterexample assignment;
    True when the matrix indeed fails (the evidence is sound)."""
    env: Assignment = {}
    node = sentence
    while isinstance(node, Forall):
        if node.var not in evidence:
            break
        val = evidence[node.var]
        env[node.var] = s.bodies[val] if isinstance(val, str) else val
        node = node.body
    v = evaluate(s, node, env, budget or Budget())
    return v.is_fails


def check_theory(s: Structure, theory: Theory, budget: Optional[Budget] = None) -> dict:
    """Check every axiom group of the theory; IND (when the theory carries
    the schema) runs the configured battery.  Returns name -> Verdict."""
    budget = budget or Budget()
    out = {}
    for group in theory.groups:
        out[group.name] = _check_group(s, group, budget)
    if theory.has_ind_schema:
        out.update(check_ind_battery(s, ind_battery(), budget))
    return out
