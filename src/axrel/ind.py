"""IND instances via the exact interval solver.

``definable_set`` reduces a formula with one distinguished quantity
variable to an ``intervals.IntervalSet``, by recursing over the boolean
structure: sign conditions of polynomials of degree <= 2 are solved
exactly, W-atoms over affine charts and straight worldlines contribute
linear equations, and the photon-existence pattern contributes the
lightlike quadratic.  ``check_ind_instance`` verifies the least-upper-bound
property on that set; outside the fragment it falls back to the sampled
evaluator in `semantics`, which is imported only there, as it is for the
body-sort atoms, so loading this module does not load the evaluator.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .field import parse_exact
from .kinematics import AffineMap, mu
from .model import Body, Structure
from .syntax.ast import (
    And, EqQ, Exists, Formula, IBAtom, IObAtom, Iff, Implies, Less, Not, ObAtom, Or, PhAtom,
    Sort, Sub, WAtom, _flatten_and, _split_conjuncts,
)
from .syntax.corpus import IndInstance, instantiate_ind
from .intervals import (
    IntervalSet, Poly, UnsupportedDefinableSet, eval_term, poly_eq_zero, poly_less_zero,
    term_to_poly,
)
from .verdict import HOLDS, Budget, Verdict


def definable_set(s: Structure, phi: Formula, var: str, env: dict) -> IntervalSet:
    """The subset of the quantity sort defined by phi(var), exactly."""
    if isinstance(phi, (Less, EqQ)):
        p = term_to_poly(Sub(phi.left, phi.right), {var: Poly.var(var)}, env)
        return poly_less_zero(p) if isinstance(phi, Less) else poly_eq_zero(p)
    if isinstance(phi, Not):
        return definable_set(s, phi.arg, var, env).complement()
    if isinstance(phi, And):
        return definable_set(s, phi.left, var, env).intersect(
            definable_set(s, phi.right, var, env))
    if isinstance(phi, Or):
        return definable_set(s, phi.left, var, env).union(
            definable_set(s, phi.right, var, env))
    if isinstance(phi, Implies):
        return definable_set(s, phi.left, var, env).complement().union(
            definable_set(s, phi.right, var, env))
    if isinstance(phi, Iff):
        a = definable_set(s, phi.left, var, env)
        b = definable_set(s, phi.right, var, env)
        return a.intersect(b).union(a.complement().intersect(b.complement()))
    if isinstance(phi, WAtom):
        return _watom_set(s, phi, var, env)
    if isinstance(phi, (IBAtom, PhAtom, ObAtom, IObAtom)):
        from .semantics import _Ctx, _eval

        state, _, _ = _eval(phi, env, _Ctx(s, Budget()), "ds")
        return IntervalSet.all() if state == HOLDS else IntervalSet.empty()
    if isinstance(phi, Exists) and phi.var_sort is Sort.BODY:
        return _exists_body_set(s, phi, var, env)
    raise UnsupportedDefinableSet("formula outside the solvable fragment: %r" % type(phi).__name__)


def _map_forms(w: AffineMap, forms) -> list:
    """w applied to four polynomials: component i is the constant c_i plus
    the sum over j of forms[j] scaled by L_ij."""
    out = []
    for i in range(4):
        acc = Poly.const(w.translation[i])
        for j in range(4):
            acc = acc + forms[j].scale(w.linear[i][j])
        out.append(acc)
    return out


def _coord_polys(s: Structure, obs: Body, coords, var, env):
    polys = [term_to_poly(c, {var: Poly.var(var)}, env) for c in coords]
    if any(p.degree_in(var) > 1 for p in polys):
        raise UnsupportedDefinableSet("nonlinear coordinate in W")
    chart = s.chart_of(obs)
    if not chart.is_exact:
        raise UnsupportedDefinableSet("non-affine chart")
    return polys, _map_forms(chart.inverse(), polys)


def _domain_set(s: Structure, obs: Body, coord_polys) -> IntervalSet:
    """Where the coordinate polynomials lie in obs's domain box."""
    out = IntervalSet.all()
    for x, iv in zip(coord_polys, s.domain_of(obs).axes):
        gaps = [] if iv.lo is None else [(Poly.const(iv.lo) - x, iv.lo_open)]
        if iv.hi is not None:
            gaps.append((x - Poly.const(iv.hi), iv.hi_open))
        for gap, is_open in gaps:
            cond = poly_less_zero(gap)
            out = out.intersect(cond if is_open else cond.union(poly_eq_zero(gap)))
    return out


def _watom_set(s: Structure, phi: WAtom, var, env) -> IntervalSet:
    obs = eval_term(phi.observer, env)
    body = eval_term(phi.body, env)
    if not s.is_observer(obs):
        return IntervalSet.empty()
    polys, ref = _coord_polys(s, obs, phi.coords, var, env)
    out = _domain_set(s, obs, polys)
    pieces = body.worldline.pieces()
    if pieces is None or pieces[0][2] is not None:
        raise UnsupportedDefinableSet("W over a non-straight worldline")
    point, vel, _ = pieces[0]  # a whole line: x - point = (x4 - point[3]) * vel
    for i in range(3):
        lhs = ref[i] - Poly.const(point[i]) - (ref[3] - Poly.const(point[3])).scale(vel[i])
        out = out.intersect(poly_eq_zero(lhs))
    return out


def _exists_body_set(s: Structure, phi: Exists, var, env) -> IntervalSet:
    bvar = phi.var
    kinds, watoms, rest = _split_conjuncts(_flatten_and(phi.body), bvar)
    if rest or PhAtom not in kinds or len(watoms) not in (1, 2):
        raise UnsupportedDefinableSet("existential outside the photon pattern")
    obs = eval_term(watoms[0].observer, env)
    if not s.is_observer(obs):
        return IntervalSet.empty()
    out = IntervalSet.empty()
    for b in s.bodies.values():
        if b.is_photon:
            named = IntervalSet.all()
            for wat in watoms:
                named = named.intersect(_watom_set(s, wat, var, {**env, bvar: b}))
            out = out.union(named)
    if s.photon_family:
        sets = [_coord_polys(s, obs, wat.coords, var, env) for wat in watoms]
        domain = IntervalSet.all()
        for polys, _ in sets:
            domain = domain.intersect(_domain_set(s, obs, polys))
        if len(watoms) == 2:
            domain = domain.intersect(poly_eq_zero(mu(sets[0][1], sets[1][1])))
        out = out.union(domain)
    return out


def check_ind_instance(s: Structure, inst: IndInstance,
                       budget: Optional[Budget] = None) -> Verdict:
    """Decide one IND instance: compute the defined set exactly and verify
    the least-upper-bound property; falls back to sampled evaluation when
    the set is outside the solvable fragment."""
    budget = budget or Budget()
    first = next(iter(s.observers()), None)
    env: dict = {}
    for name, spec in inst.param_values:
        if spec in ("@observer", "@body"):
            # @body: the first non-photon body other than the first observer, else it.
            pick = first if spec == "@observer" else next(
                (b for b in s.bodies.values() if not b.is_photon and b is not first), first)
            if pick is None:
                return Verdict.unknown(evidence={
                    "note": "no body to bind to parameter %s (%s)" % (name, spec)})
            env[name] = pick
        else:
            env[name] = parse_exact(spec)
    try:
        the_set = definable_set(s, inst.formula, inst.var, env)
    except UnsupportedDefinableSet as exc:
        from .semantics import evaluate

        sentence = instantiate_ind(inst.formula, inst.var)
        v = evaluate(s, sentence, env, budget)
        v.evidence.setdefault("note", "outside exact fragment: %s" % exc)
        return v
    if the_set.is_empty():
        return Verdict.holds(evidence={"case": "empty set; instance vacuously true"})
    if not the_set.bounded_above():
        return Verdict.holds(evidence={"case": "unbounded above; instance vacuously true"})
    sup = the_set.supremum()
    # sup is the max of finitely many exact interval tops: an upper bound
    # by construction, and least because every smaller value is exceeded
    # inside the topmost interval.
    return Verdict.holds(evidence={"sup": sup})


def check_ind_battery(s: Structure, battery: Iterable[IndInstance],
                      budget: Optional[Budget] = None) -> dict:
    """{"IND.<name>": verdict} for each instance, in battery order."""
    return {"IND.%s" % inst.name: check_ind_instance(s, inst, budget) for inst in battery}
