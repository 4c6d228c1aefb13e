import random
from fractions import Fraction as Fr

import pytest

from axrel import kinematics, linalg
from axrel.field import ER, ExactReal, sqrt
from axrel.kinematics import (
    ETA, AffineMap, ConfigurationUnrealizable, EffectReport, PoincareMap,
    SuperluminalVelocity, boost, check_mu_invariance, check_noftl, coord4,
    effects, mu, plane_rotation, random_poincare_map, relative_velocity,
    velocity_addition, worldview_transform,
)
from axrel.linalg import mat_eq, mat_mul, transpose
from axrel.model import (
    Body, InertialLine, ObserverSpec, PhotonLine, load_model, standard_minkowski,
    unsafe_inertial_line,
)
from axrel.semantics import Budget, evaluate
from axrel.syntax import expand_definitions, named_axiom


def test_mu_lightlike():
    assert mu(coord4(0, 0, 0, 0), coord4(1, 0, 0, 1)) == ER(0)


def test_mu_pure_time():
    assert mu(coord4(0, 0, 0, 0), coord4(0, 0, 0, 1)) == ER(-1)


def test_mu_hand_evaluated():
    # 9 + 16 + 0 - 25, straight from the definition
    assert mu(coord4(1, 2, 3, 0), coord4(4, 6, 3, 5)) == ER(0)


def test_boost_zero_is_identity():
    b = boost((0, 0, 0))
    x = coord4(Fr(1, 3), -2, 5, Fr(7, 2))
    assert b.apply(x) == x


def test_boost_standard_example():
    # gamma = 5/4; t' = gamma (t - v x), x' = gamma (x - v t)
    b = boost((Fr(3, 5), 0, 0))
    assert b.apply(coord4(Fr(3, 5), 0, 0, 1)) == coord4(0, 0, 0, Fr(4, 5))


def test_boost_superluminal_rejected():
    with pytest.raises(SuperluminalVelocity):
        boost((1, 0, 0))


def test_lorentz_condition_checked_at_construction():
    with pytest.raises(ValueError):
        PoincareMap(((ER(2), ER(0), ER(0), ER(0)),
                     (ER(0), ER(1), ER(0), ER(0)),
                     (ER(0), ER(0), ER(1), ER(0)),
                     (ER(0), ER(0), ER(0), ER(1))))


def test_eta_identity_for_constructed_maps():
    rng = random.Random(99)
    for _ in range(25):
        m = random_poincare_map(rng)
        assert mat_eq(mat_mul(transpose(m.linear), mat_mul(ETA, m.linear)), ETA)


def test_effects_three_fifths():
    rep = effects(Fr(3, 5))
    assert rep.time_dilation == ER(Fr(4, 5))
    assert rep.length_contraction == ER(Fr(4, 5))
    assert rep.clock_asynchrony == ER(Fr(3, 5))


def test_effects_rest():
    rep = effects(0)
    assert (rep.time_dilation, rep.length_contraction, rep.clock_asynchrony) == \
        (ER(1), ER(1), ER(0))


def test_effects_asynchrony_scales_with_length():
    assert effects(Fr(3, 5), 2).clock_asynchrony == ER(Fr(6, 5))


def test_effects_matches_sqrt_formula():
    for k in range(10):
        v = Fr(k, 10)
        rep = effects(v)
        assert rep.time_dilation == sqrt(1 - ER(v) * ER(v))
        assert rep.length_contraction == rep.time_dilation
        assert rep.clock_asynchrony == ER(v)


def test_effects_reciprocity(two_observer):
    rest, boosted = two_observer.bodies["rest"], two_observer.bodies["boosted"]
    v_ab = relative_velocity(two_observer, rest, boosted)
    v_ba = relative_velocity(two_observer, boosted, rest)
    speed_ab = sum((c * c for c in v_ab), ER(0))
    speed_ba = sum((c * c for c in v_ba), ER(0))
    assert speed_ab == speed_ba
    rep_ab = effects(sqrt(speed_ab))
    rep_ba = effects(sqrt(speed_ba))
    assert rep_ab == rep_ba


def test_velocity_addition_through_boost_composition():
    for u, v in ((Fr(1, 3), Fr(1, 2)), (Fr(3, 5), Fr(3, 5)), (Fr(-1, 4), Fr(2, 3))):
        comp = boost((u, 0, 0)).compose(boost((v, 0, 0)))
        expected = boost((velocity_addition(u, v), 0, 0))
        assert mat_eq(comp.linear, expected.linear)


def test_worldview_transform_inverse_pair(minkowski):
    rest, skew = minkowski.bodies["rest"], minkowski.bodies["skew"]
    w = worldview_transform(minkowski, rest, skew)
    wi = worldview_transform(minkowski, skew, rest)
    x = coord4(Fr(5, 7), -2, 3, Fr(11, 4))
    assert wi.apply(w.apply(x)) == x


def test_worldview_transform_matches_boost(two_observer):
    rest, boosted = two_observer.bodies["rest"], two_observer.bodies["boosted"]
    w = worldview_transform(two_observer, rest, boosted)
    b = boost((Fr(3, 5), 0, 0))
    assert mat_eq(w.linear, b.linear)


def test_mu_invariance_identity():
    ident = PoincareMap(((ER(1), ER(0), ER(0), ER(0)),
                         (ER(0), ER(1), ER(0), ER(0)),
                         (ER(0), ER(0), ER(1), ER(0)),
                         (ER(0), ER(0), ER(0), ER(1))))
    assert check_mu_invariance(ident, coord4(1, 2, 3, 4), coord4(0, 0, 0, 0))


def test_mu_invariance_boost_example():
    b = boost((Fr(3, 5), 0, 0))
    x, y = coord4(0, 0, 0, 0), coord4(1, 1, 0, 1)
    assert mu(x, y) == ER(1)
    assert check_mu_invariance(b, x, y)


def test_mu_invariance_csv_export():
    from axrel.kinematics import mu_invariance_csv

    csv = mu_invariance_csv(maps=5, pairs=3, seed=12)
    lines = csv.strip().splitlines()
    assert lines[0] == "map,pair,mu,mu_image,equal"
    assert len(lines) == 16
    assert all(line.endswith(",true") for line in lines[1:])
    assert csv == mu_invariance_csv(maps=5, pairs=3, seed=12)  # deterministic


def test_mu_invariance_seeded_sweep():
    rng = random.Random(7)
    for _ in range(100):
        m = random_poincare_map(rng)
        x = coord4(*[Fr(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(4)])
        y = coord4(*[Fr(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(4)])
        assert check_mu_invariance(m, x, y)


def _noftl_setup():
    s = standard_minkowski([ObserverSpec("m")])
    k = Body("k", InertialLine(coord4(0, 0, 0, 0), (ER(Fr(3, 5)), ER(0), ER(0))))
    p = Body("p", PhotonLine(coord4(0, 0, 0, 0), (ER(1), ER(0), ER(0))))
    return s.with_extra_bodies([k, p])


def test_noftl_example_three_fifths():
    s = _noftl_setup()
    v = check_noftl(s, s.bodies["m"], s.bodies["k"], s.bodies["p"],
                    start=coord4(0, 0, 0, 0), target=(ER(3), ER(0), ER(0)))
    assert v.is_holds
    assert v.evidence["y4"] == ER(5)  # 3 / (3/5)
    assert v.evidence["t"] == ER(3)


def test_noftl_unrealizable_for_resting_observer():
    s = standard_minkowski([ObserverSpec("m")])
    k = Body("k", InertialLine(coord4(0, 0, 0, 0), (ER(0), ER(0), ER(0))))
    p = Body("p", PhotonLine(coord4(0, 0, 0, 0), (ER(1), ER(0), ER(0))))
    s = s.with_extra_bodies([k, p])
    with pytest.raises(ConfigurationUnrealizable):
        check_noftl(s, s.bodies["m"], s.bodies["k"], s.bodies["p"],
                    start=coord4(0, 0, 0, 0), target=(ER(3), ER(0), ER(0)))


def test_noftl_fails_on_quarantined_superluminal_line():
    s = standard_minkowski([ObserverSpec("m")])
    k = Body("k", unsafe_inertial_line((0, 0, 0, 0), (2, 0, 0)))
    p = Body("p", PhotonLine(coord4(0, 0, 0, 0), (ER(1), ER(0), ER(0))))
    s = s.with_extra_bodies([k, p])
    v = check_noftl(s, s.bodies["m"], s.bodies["k"], s.bodies["p"],
                    start=coord4(0, 0, 0, 0), target=(ER(4), ER(0), ER(0)))
    assert v.is_fails
    assert v.evidence["y4"] < v.evidence["t"]


def test_inverse_is_computed_once():
    m = boost((Fr(3, 5), 0, 0))
    assert m.inverse() is m.inverse()
    # The kept inverse points back: inverting it gives the map itself, not
    # a recomputed copy whose entries may print as other literals (the
    # copy of plane_rotation(1, 3, 1/2, sqrt(3)/2) o boost(1/2, 0, 0) reads
    # -sqrt(3/4) where the map reads -1/2*sqrt(3)).
    assert m.inverse().inverse() is m


def _galilean_map(rng):
    rows = [[ER(1 if i == j else 0) for j in range(4)] for i in range(4)]
    for i in range(3):
        rows[i][3] = ER(Fr(rng.randint(-9, 9), rng.randint(1, 7)))
    tr = tuple(Fr(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(4))
    return AffineMap(tuple(tuple(r) for r in rows), tr)


def test_inverse_composes_to_identity_exactly():
    rng = random.Random(31)
    ident = AffineMap(linalg.identity(4))
    maps = [random_poincare_map(rng) for _ in range(8)] + [_galilean_map(rng) for _ in range(8)]
    for m in maps:
        assert m.inverse().compose(m) == ident
        assert m.compose(m.inverse()) == ident
        assert type(m.inverse()) is type(m)


def test_sampled_evaluation_inverts_each_map_once(monkeypatch):
    # Counts calls, not time: reference_point inverts observer charts once
    # per sample, so without the kept inverse this is thousands of
    # eliminations for three charts.  AxPh solves its photon existential
    # through reference points at every sample; AxSymd decides its
    # correspondences on the kept transitions and its expanded Ob guards
    # without sampling, so it inverts too little to show the point.
    inversions, inverse_calls, inverted = [0], [0], {}
    real_mat_inverse, real_inverse = kinematics.mat_inverse, AffineMap.inverse

    def counting_mat_inverse(a):
        inversions[0] += 1
        return real_mat_inverse(a)

    def recording_inverse(self):
        inverse_calls[0] += 1
        inverted[id(self)] = self
        return real_inverse(self)

    monkeypatch.setattr(kinematics, "mat_inverse", counting_mat_inverse)
    monkeypatch.setattr(AffineMap, "inverse", recording_inverse)
    s = standard_minkowski([
        ObserverSpec("rest"),
        ObserverSpec("boosted", velocity=(Fr(3, 5), 0, 0)),
        ObserverSpec("skew", velocity=(0, Fr(4, 5), 0),
                     rotations=((1, 2, Fr(3, 5), Fr(4, 5)),), translation=(1, 0, 0, 2)),
    ])
    v = evaluate(s, expand_definitions(named_axiom("AxPh")), None, Budget(samples=12, seed=3))
    assert v.is_holds
    assert inverse_calls[0] > 10 * len(inverted)
    assert inversions[0] <= len(inverted)


def _old_is_lorentz(m):
    # Reference: the full product L^T (eta L), compared entry by entry.
    return mat_eq(mat_mul(transpose(m.linear), mat_mul(ETA, m.linear)), ETA)


def _perturbed(linear, i, j, delta):
    rows = [list(r) for r in linear]
    rows[i][j] = rows[i][j] + delta
    return tuple(tuple(r) for r in rows)


def test_gram_lorentz_check_matches_full_product():
    rng = random.Random(41)
    pythagorean = [plane_rotation(1, 2, Fr(3, 5), Fr(4, 5)).compose(boost((Fr(3, 5), 0, 0)))
                   .compose(boost((0, Fr(5, 13), 0))), boost((Fr(8, 17), 0, 0))]
    level_two = [plane_rotation(1, 3, Fr(5, 13), Fr(12, 13)).compose(boost((Fr(1, 2), 0, 0)))
                 .compose(boost((0, Fr(1, 3), 0)))]
    maps = pythagorean + level_two + [random_poincare_map(rng) for _ in range(6)]
    assert all(e.is_rational() for row in pythagorean[0].linear for e in row)
    assert max(e.level for row in level_two[0].linear for e in row) == 2
    for m in maps + [_galilean_map(rng) for _ in range(4)]:
        assert m.is_lorentz() == _old_is_lorentz(m) == isinstance(m, PoincareMap)
    for k, m in enumerate(maps):
        i, j = rng.randrange(4), rng.randrange(4)
        for delta in (ER(Fr(1, 7 + k)), sqrt(ER(2)) / (97 + k)):
            bent = AffineMap(_perturbed(m.linear, i, j, delta))
            assert not _old_is_lorentz(bent)
            assert not bent.is_lorentz()
            with pytest.raises(ValueError, match="not a Lorentz matrix"):
                PoincareMap(bent.linear)


def _pythagorean_velocity(rng):
    # Speed 2a/(1+a^2) along a rational unit direction: gamma = (1+a^2)/(1-a^2).
    a = Fr(rng.randint(1, 8), 9)
    speed = 2 * a / (1 + a * a)
    return tuple(ER(speed) * c for c in kinematics.random_null_direction(rng))


def _rational_coord(rng):
    return Fr(rng.randint(-9, 9), rng.randint(1, 9))


def _pythagorean_rotation(rng):
    a = _rational_coord(rng)
    i = rng.randint(1, 2)
    return plane_rotation(i, rng.randint(i + 1, 3), (1 - a * a) / (1 + a * a), 2 * a / (1 + a * a))


@pytest.mark.parametrize("seed", range(3))
def test_maps_lorentz_by_construction_or_closure_pass_both_checks(seed):
    # Boosts, rotations and translations skip the check by construction, and
    # compositions and inverses of Poincare maps by group closure; the exact
    # check and the full product still hold on every one of them.
    rng = random.Random(seed)
    half = sqrt(ER(Fr(1, 2)))
    pythagorean = [boost(_pythagorean_velocity(rng)), _pythagorean_rotation(rng),
                   kinematics.translation([_rational_coord(rng) for _ in range(4)])]
    irrational = [boost(kinematics.random_subluminal_velocity(rng)),
                  boost((sqrt(ER(Fr(1, 3))), 0, 0)), plane_rotation(1, 3, half, -half),
                  kinematics.translation((sqrt(ER(2)), 0, _rational_coord(rng), 1))]
    level_two = [boost((Fr(1, 2), 0, 0)).compose(boost((0, Fr(1, 3), 0))),
                 plane_rotation(2, 3, half, half).compose(boost((0, 0, sqrt(ER(Fr(1, 5))))))]
    maps = pythagorean + irrational + level_two
    for _ in range(8):
        a, b = rng.choice(maps), rng.choice(maps)
        maps += [a.compose(b), a.inverse(), a.compose(b).inverse()]
    maps.append(random_poincare_map(rng))
    assert all(e.is_rational() for m in pythagorean for row in m.linear for e in row)
    assert any(not e.is_rational() for row in irrational[0].linear for e in row)
    assert all(max(e.level for row in m.linear for e in row) == 2 for m in level_two)
    for m in maps:
        assert isinstance(m, PoincareMap)
        assert m.is_lorentz() and _old_is_lorentz(m)


def test_model_load_and_transitions_check_lorentz_zero_times(monkeypatch, tmp_path):
    # Counts calls: when boosts, rotations, translations, compositions and
    # inverses each checked the Lorentz property, this took 25 checks (13
    # building the charts, 3 inverting them, 9 composing the transitions).
    checks = [0]
    real_is_lorentz = AffineMap.is_lorentz

    def counting(self):
        checks[0] += 1
        return real_is_lorentz(self)

    monkeypatch.setattr(AffineMap, "is_lorentz", counting)
    path = tmp_path / "three.model"
    path.write_text("structure three\n"
                    "observer rest\n"
                    "observer boosted velocity 3/5 0 0 rotate 1 2 3/5 4/5 translate 1 0 0 2\n"
                    "observer skew velocity 0 1/2 0 rotate 1 3 5/13 12/13 rotate 2 3 0 1 "
                    "translate 0 1/2 0 -1\n")
    s = load_model(path)
    observers = s.observers()
    for o in observers:
        for o2 in observers:
            w = s.transition(o, o2)
            assert isinstance(w, PoincareMap)
    assert checks[0] == 0
    PoincareMap(w.linear, w.translation)  # rows from outside are checked once
    assert checks[0] == 1


def test_irrational_mu_invariance_adjoins_each_root_once(monkeypatch):
    # Counts calls, not time.  Computing each radicand's square root again
    # on every tower unification took 135 calls for this map and these four
    # pairs before the Gram-form Lorentz check and the mixed rational/tower
    # path, and still takes 125 with them; tower-pair plans leave 11.
    calls = [0]
    uncached = ExactReal._sqrt_rep

    def counting(rep, tower):
        calls[0] += 1
        return uncached(rep, tower)

    monkeypatch.setattr(ExactReal, "_sqrt_rep", staticmethod(counting))
    m = plane_rotation(1, 2, Fr(3, 5), Fr(4, 5)).compose(boost((Fr(1, 2), 0, 0))) \
        .compose(boost((0, Fr(1, 3), 0)))
    assert m.linear[3][3].level == 2
    rng = random.Random(4)

    def event():
        return coord4(*[Fr(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4)])

    assert all(check_mu_invariance(m, event(), event()) for _ in range(4))
    assert calls[0] < 30


# Reference copies of the two Gauss-Jordan loops and the two line solves
# that linalg._eliminate and kinematics._line_param replaced.

def _reference_mat_inverse(a):
    n = len(a)
    work = [list(row) + [ER(1 if i == j else 0) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
        if pivot is None:
            raise ValueError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        inv = ER(1) / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and not work[r][col].is_zero():
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def _reference_solve_linear(a, b):
    rows, cols = len(a), len(a[0]) if a else 0
    work = [list(row) + [bi] for row, bi in zip(a, b)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if not work[i][c].is_zero()), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = ER(1) / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(rows):
            if i != r and not work[i][c].is_zero():
                factor = work[i][c]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if not work[i][cols].is_zero():
            return None
    solution = [ER(0)] * cols
    for i, c in enumerate(pivots):
        solution[c] = work[i][cols]
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        vec = [ER(0)] * cols
        vec[f] = ER(1)
        for i, c in enumerate(pivots):
            vec[c] = -work[i][f]
        basis.append(tuple(vec))
    return tuple(solution), basis


def _reference_line_contains(p0, direction, event):
    rhs = tuple(e - p for e, p in zip(event, p0))
    param = None
    for i in range(4):
        if not direction[i].is_zero():
            param = rhs[i] / direction[i]
            break
    if param is None:
        return all(c.is_zero() for c in rhs)
    return all((p0[i] + param * direction[i]) == event[i] for i in range(4))


def _reference_line_reaches(p0, direction, target):
    rhs = [target[i] - p0[i] for i in range(3)]
    param = None
    for i in range(3):
        if not direction[i].is_zero():
            param = rhs[i] / direction[i]
            break
    if param is None:
        if not all(r.is_zero() for r in rhs):
            return None
        param = ER(0)
    if not all((p0[i] + param * direction[i]) == target[i] for i in range(3)):
        return None
    return p0[3] + param * direction[3]


def _literals(value):
    if isinstance(value, ExactReal):
        return value.literal()
    if isinstance(value, (tuple, list)):
        return [_literals(v) for v in value]
    return value


def _entry(rng):
    # Rationals, zeros (for singular and rank-deficient cases) and a tower element.
    pick = rng.random()
    q = Fr(rng.randint(-4, 4), rng.randint(1, 3))
    return ER(0) if pick < 0.25 else ER(q) * sqrt(2) if pick < 0.4 else ER(q)


@pytest.mark.parametrize("seed", range(3))
def test_elimination_matches_the_two_reference_loops(seed):
    rng = random.Random(seed)
    singular = 0
    for n in (1, 2, 3, 4):
        for _ in range(6):
            a = tuple(tuple(_entry(rng) for _ in range(n)) for _ in range(n))
            try:
                expected = _literals(_reference_mat_inverse(a))
            except ValueError:
                singular += 1
                with pytest.raises(ValueError, match="singular matrix"):
                    linalg.mat_inverse(a)
                continue
            assert _literals(linalg.mat_inverse(a)) == expected
    with pytest.raises(ValueError, match="singular matrix"):
        linalg.mat_inverse(((ER(1), ER(2)), (ER(2), ER(4))))
    for rows in (1, 2, 3):
        for cols in (1, 2, 3, 4):
            a = tuple(tuple(_entry(rng) for _ in range(cols)) for _ in range(rows))
            b = tuple(_entry(rng) for _ in range(rows))
            assert _literals(linalg.solve_linear(a, b)) == _literals(_reference_solve_linear(a, b))
    assert singular > 0


@pytest.mark.parametrize("seed", range(3))
def test_line_param_matches_the_two_reference_solves(seed):
    rng = random.Random(seed)
    small = lambda: ER(Fr(rng.randint(-3, 3), rng.randint(1, 2)))
    for _ in range(40):
        p0 = tuple(small() for _ in range(4))
        kind = rng.choice(("any", "static", "frozen"))
        spatial = (ER(0),) * 3 if kind != "any" else tuple(small() for _ in range(3))
        direction = spatial + ((ER(0),) if kind == "frozen" else (ER(rng.randint(1, 2)),))
        s = small()
        on_line = tuple(p + s * d for p, d in zip(p0, direction))
        for event in (on_line, tuple(small() for _ in range(4)), p0):
            assert (kinematics._line_param(p0, direction, event) is not None) == \
                _reference_line_contains(p0, direction, event)
            param = kinematics._line_param(p0, direction, event[:3])
            reached = None if param is None else p0[3] + param * direction[3]
            assert _literals(reached) == _literals(_reference_line_reaches(p0, direction, event[:3]))


def _map_entry(rng, kind):
    q = Fr(rng.randint(-9, 9), rng.randint(1, 12))
    if kind == "rational" or (kind == "mixed" and rng.random() < 0.8):
        return q
    return ER(q) * sqrt(2)


def _point(rng, kind):
    q = lambda: Fr(rng.randint(-7, 7), rng.randint(1, 9))
    coords = []
    for _ in range(4):
        pick = kind if kind != "mixed" else rng.choice(("rational", "irrational", "int", "fraction"))
        coords.append(ER(q()) if pick == "rational" else ER(q()) * sqrt(7) if pick == "irrational"
                      else rng.randint(-4, 4) if pick == "int" else q())
    return tuple(coords)


@pytest.mark.parametrize("seed", range(3))
def test_apply_matches_mat_vec_on_rational_irrational_and_mixed_maps(seed):
    # The integer path against the path every map took before it, on maps
    # whose entries are all rational, partly or wholly irrational, and on
    # their compositions and inverses, at rational, irrational, mixed and
    # plain int or Fraction points.
    rng = random.Random(seed)
    rotation = plane_rotation(1, 2, Fr(3, 5), Fr(4, 5))
    maps = [boost((Fr(3, 5), 0, 0)), rotation.compose(boost((0, Fr(5, 13), 0))),
            boost((sqrt(ER(Fr(1, 3))), 0, 0)),  # speed 1/sqrt(3): gamma = sqrt(3/2)
            boost((Fr(1, 2), Fr(1, 3), 0))]     # gamma = sqrt(36/23)
    for kind in ("rational", "irrational", "mixed"):
        rows = tuple(tuple(_map_entry(rng, kind) for _ in range(4)) for _ in range(4))
        maps.append(AffineMap(rows, tuple(_map_entry(rng, kind) for _ in range(4))))
    maps += [maps[0].compose(maps[1]), maps[1].compose(maps[2]), maps[4].compose(maps[0]),
             maps[1].inverse(), maps[2].inverse(), maps[3].compose(maps[0]).inverse()]
    rational_maps = 0
    for m in maps:
        rational_maps += all(e.is_rational() for e in sum(m.linear, m.translation))
        for kind in ("rational", "irrational", "mixed", "int", "fraction"):
            for _ in range(4):
                x = _point(rng, kind)
                got = m.apply(x)
                want = linalg.vec_add(linalg.mat_vec(m.linear, x), m.translation)
                assert all(type(g) is ExactReal for g in got)
                assert [g.literal() for g in got] == [w.literal() for w in want]
                assert [g.is_rational() for g in got] == [w.is_rational() for w in want]
                assert got == want
                assert m(x) == got
    assert rational_maps == 6


def test_integer_form_is_built_on_first_apply_and_kept():
    m = boost((Fr(3, 5), 0, 0)).compose(kinematics.translation((1, Fr(1, 2), 0, 0)))
    assert m._integer_form is None  # composing builds none
    m.apply(coord4(1, 2, 3, 4))
    form = m._integer_form
    assert form[0] == 4  # entries 5/4, 3/4, 1/2 and integers
    m.apply(coord4(5, 6, 7, 8))
    assert m._integer_form is form
    irrational = boost((sqrt(ER(Fr(1, 3))), 0, 0))
    irrational.apply(coord4(1, 2, 3, 4))
    assert irrational._integer_form == ()


def test_sampled_specrel_on_a_rational_model_applies_without_mat_vec(monkeypatch):
    # Counts calls: on rational charts every sampled point is rational, so
    # no apply falls back to the ExactReal matrix product.
    applies, fallbacks, inside = [0], [0], [0]
    real_apply, real_mat_vec = AffineMap.apply, kinematics.mat_vec

    def flagged_apply(self, x):
        applies[0] += 1
        inside[0] += 1
        try:
            return real_apply(self, x)
        finally:
            inside[0] -= 1

    def counting_mat_vec(a, v):
        fallbacks[0] += bool(inside[0])
        return real_mat_vec(a, v)

    monkeypatch.setattr(AffineMap, "apply", flagged_apply)
    monkeypatch.setattr(kinematics, "mat_vec", counting_mat_vec)
    s = standard_minkowski([
        ObserverSpec("rest"),
        ObserverSpec("boosted", velocity=(Fr(3, 5), 0, 0)),
        ObserverSpec("skew", velocity=(0, Fr(4, 5), 0),
                     rotations=((1, 2, Fr(3, 5), Fr(4, 5)),), translation=(1, 0, 0, 2)),
    ])
    for name in ("AxSelf", "AxPh", "AxEv", "AxSymd"):
        for sentence in (named_axiom(name), expand_definitions(named_axiom(name))):
            assert evaluate(s, sentence, None, Budget(samples=4, seed=11)).is_holds
    assert applies[0] > 100
    assert fallbacks[0] == 0
