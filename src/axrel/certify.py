"""Certified reductions of the SpecRel axioms on affine structures.

On a structure whose observer charts are all affine, an axiom reduces to
an exact matrix identity or an exact subspace computation, and a
violation comes back as a concrete counterexample assignment.
``_certified_axiom`` looks the axiom up in one table of reductions; each
answers a verdict, or None where its reduction does not apply and the
axiom is left to the sampled evaluator in `semantics`.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Optional

from .field import ER
from . import linalg
from .kinematics import AffineMap, ETA
from .model import Body, Structure
from .verdict import Verdict


def _certified_axiom(s: Structure, name: str) -> Optional[Verdict]:
    if not s.all_charts_affine():
        return None
    reduction = _REDUCTIONS.get(name)
    return reduction(s) if reduction is not None else None


def _certify_axfield(s: Structure) -> Verdict:
    return Verdict.holds(evidence={"note": "tower-field arithmetic is an ordered field by construction"})


def _certify_axself(s: Structure) -> Verdict:
    for o in s.observers():
        chart = s.chart_of(o)
        inv = chart.inverse()
        p0 = inv.apply((ER(0), ER(0), ER(0), ER(0)))
        p1 = inv.apply((ER(0), ER(0), ER(0), ER(1)))
        on_line = o.worldline.contains(p0) and o.worldline.contains(p1)
        img0 = chart.apply(o.worldline.point_at(ER(0)))
        img1 = chart.apply(o.worldline.point_at(ER(1)))
        off_axis = any(not img0[i].is_zero() for i in range(3)) or \
            any(not img1[i].is_zero() for i in range(3))
        if not on_line or off_axis:
            bad = img0 if any(not img0[i].is_zero() for i in range(3)) else img1
            return Verdict.fails(evidence={
                "o": o.id, "x": bad[0], "y": bad[1], "z": bad[2], "t": bad[3]})
        if not s.domain_of(o).is_full():
            return Verdict.unknown(evidence={"note": "restricted chart domain; not certified"})
    return Verdict.holds()


@functools.cache
def _fixed_null_vectors() -> tuple:
    dirs = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
            (Fraction(3, 5), Fraction(4, 5), 0), (Fraction(4, 5), 0, Fraction(3, 5)),
            (0, Fraction(5, 13), Fraction(12, 13))]
    return tuple([tuple(ER(c) for c in d) + (ER(1),) for d in dirs] +
                 [tuple(ER(c) for c in d) + (ER(-1),) for d in dirs])


# The coordinate names of the points in the SpecRel axioms' evidence.
_X = ("x1", "x2", "x3", "x4")
_X_PRIME = ("x1'", "x2'", "x3'", "x4'")
_Y = ("y1", "y2", "y3", "y4")
_Y_PRIME = ("y1'", "y2'", "y3'", "y4'")


def _evidence(head: dict, *points) -> dict:
    """head, then each (names, coordinates) point's coordinates by name."""
    out = dict(head)
    for names, values in points:
        out.update(zip(names, values))
    return out


def _certify_axph(s: Structure) -> Optional[Verdict]:
    if not s.photon_family:
        return None
    if not s.all_domains_full():
        return None
    for o in s.observers():
        chart = s.chart_of(o)
        inv_lin = chart.inverse().linear
        a = linalg.mat_mul(linalg.transpose(inv_lin), linalg.mat_mul(ETA, inv_lin))
        lam = a[0][0]
        eta_scaled = tuple(tuple(lam * ETA[i][j] for j in range(4)) for i in range(4))
        if not lam.is_zero() and linalg.mat_eq(a, eta_scaled):
            continue
        # The null cone is not preserved: exhibit a lightlike pair in o's
        # chart joined by no photon (or vice versa), exactly.  One of the
        # fixed null vectors z = (d, +-1) always has z^T a z != 0.  Were it
        # 0 on all of them, then for each fixed d both signs give
        # d^T A d + a44 = 0 and b.d = 0, with A the spatial block of the
        # symmetric a and b its mixed column: e1, e2, e3 give b = 0 and
        # A_ii = -a44, and the three Pythagorean directions then give
        # A_12 = A_13 = A_23 = 0.  So a = a11 * eta, and a11 != 0 since a
        # is invertible: the identity just tested would hold.
        z = next(z for z in _fixed_null_vectors()
                 if not sum((z[i] * sum((a[i][j] * z[j] for j in range(4)), ER(0))
                             for i in range(4)), ER(0)).is_zero())
        return Verdict.fails(evidence=_evidence({"o": o.id}, (_X, (ER(0),) * 4), (_X_PRIME, z)))
    return Verdict.holds()


def _certify_axev(s: Structure) -> Verdict:
    """Fails at the first restricted pair with an escape point; Unknown if
    some restricted pair has none and no pair fails; else Holds."""
    observers = s.observers()
    undecided = False
    for o in observers:
        for o2 in observers:
            if s.domain_of(o2).is_full() and s.domain_of(o).is_full():
                continue
            probe = _domain_escape_point(s, o, o2, s.transition(o, o2))
            if probe is not None:
                return Verdict.fails(evidence=_evidence({"o": o.id, "o'": o2.id}, (_X, probe)))
            undecided = True
    if undecided:
        return Verdict.unknown(evidence={"note": "restricted domains; no certified decision"})
    return Verdict.holds()


def _domain_escape_point(s: Structure, o: Body, o2: Body, w: AffineMap):
    """A point in o's chart (and domain) whose event o2 cannot coordinatize."""
    dom_o, dom_o2 = s.domain_of(o), s.domain_of(o2)
    w_inv = w.inverse()
    for axis, iv in enumerate(dom_o2.axes):
        for bound, outward in ((iv.hi, 1), (iv.lo, -1)):
            if bound is None:
                continue
            for step in (ER(1), ER(Fraction(1, 2)), ER(2)):
                probe = [ER(0)] * 4
                probe[axis] = bound + step * outward
                x = w_inv.apply(tuple(probe))
                if dom_o.contains(x) and not dom_o2.contains(tuple(probe)):
                    return x
    return None


def _certify_axsymd(s: Structure) -> Optional[Verdict]:
    """Each unordered pair once, o before o'.  The pair (o, o) has w = id,
    whose form is 0.  For u in w's subspace {u4 = 0, (Lu)4 = 0}, Lu lies in
    the subspace of w^-1, where its form is minus w's form at u.  So
    (o', o) violates exactly when (o, o') does: the first violation of the
    ordered-pairs loop is a pair with o before o', found here first and
    with the same evidence."""
    if not s.all_domains_full():
        return None
    observers = s.observers()
    for i, o in enumerate(observers):
        for o2 in observers[i + 1:]:
            w = s.transition(o, o2)
            lin = w.linear
            rows = (
                (ER(0), ER(0), ER(0), ER(1)),            # u4 = 0
                tuple(lin[3][j] for j in range(4)),      # (L u)4 = 0
            )
            basis = linalg.null_space(rows)
            bad = _symd_violation(lin, basis)
            if bad is not None:
                zero4 = (ER(0),) * 4
                return Verdict.fails(evidence=_evidence(
                    {"o": o.id, "o'": o2.id}, (_X, bad), (_Y, zero4),
                    (_X_PRIME, w.apply(bad)), (_Y_PRIME, w.apply(zero4))))
    return Verdict.holds()


def _symd_violation(lin, basis):
    def form(u, v):
        lu = linalg.mat_vec(lin, u)
        lv = linalg.mat_vec(lin, v)
        spatial = sum((lu[i] * lv[i] for i in range(3)), ER(0))
        original = sum((u[i] * v[i] for i in range(3)), ER(0))
        return spatial - original

    for i, u in enumerate(basis):
        if not form(u, u).is_zero():
            return u
        for v in basis[i + 1:]:
            if not form(u, v).is_zero():
                return linalg.vec_add(u, v)
    return None


def _certify_axcmv(s: Structure) -> Optional[Verdict]:
    if all(b.is_inertial for b in s.observers()) and \
            (s.photon_family or s.inertial_family) and s.all_domains_full():
        return Verdict.holds(evidence={"note": "all observers inertial; each is its own co-moving observer"})
    return None


# axiom name -> its reduction on an all-affine structure
_REDUCTIONS = {"AxField": _certify_axfield, "AxSelf": _certify_axself, "AxSelf-": _certify_axself,
               "AxPh": _certify_axph, "AxEv": _certify_axev, "AxSymd": _certify_axsymd,
               "AxCmv": _certify_axcmv}
