"""Seeded input generator.

``generate(workload, seed, outdir)`` writes the model, scenario and chart
files a workload feeds to the program and returns a manifest: the file
paths, the remaining operation parameters, and what the checks need to
derive the expected answers on their own.  The same seed gives the same
files and parameters.  Only the numbers are seeded; the shape of each
workload (how many observers, maps, legs, geodesics) is fixed, so every
seed asks for the same amount of work.

Standalone: ``python3 perfbench/gen.py --workload cli --seed 3 --out DIR``
writes the files and prints the manifest as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from fractions import Fraction as F

import checks

# Speeds with rational Lorentz factors: sqrt(1 - s^2) is rational.
RATIONAL_SPEEDS = (F(3, 5), F(4, 5), F(5, 13), F(12, 13), F(8, 17), F(15, 17))
# Speeds whose Lorentz factors need a square root.
IRRATIONAL_SPEEDS = (F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(2, 5))
# Exact unit directions.
DIRECTIONS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (F(3, 5), F(4, 5), 0),
              (F(4, 5), 0, F(3, 5)), (0, F(3, 5), F(4, 5)), (F(-3, 5), F(4, 5), 0))
# Unit directions with two nonzero components: every map has the same density.
PLANE_DIRECTIONS = tuple(d for d in DIRECTIONS if sum(1 for c in d if c) == 2)
# Plane rotations (i, j, cos, sin) from Pythagorean triples.
ROTATIONS = ((1, 2, F(3, 5), F(4, 5)), (1, 3, F(4, 5), F(-3, 5)),
             (2, 3, F(5, 13), F(12, 13)), (1, 2, F(12, 13), F(-5, 13)),
             (2, 3, F(-3, 5), F(4, 5)))
CAP = (4, None, F(10))  # axis 4 (time) below 10: `domain 4 -inf 10`

README_FORMULA = "A o:B . IOb(o) -> W(o,o,0,0,0,0)"
RINDLER_CHART = """chart rindler
order 9
domain 1 1/10 10
g 1 1 = 1
g 2 2 = 1
g 3 3 = 1
g 4 4 = 0 - x1^2
worldline rear 1 0 0
meet rear rear 1 0 0 0
"""
FLAT_CHART = """chart flat
order 9
g 1 1 = 1
g 2 2 = 1
g 3 3 = 1
g 4 4 = 0 - 1
worldline a 0 0 0
worldline b 1 0 0
meet a a 0 0 0 0
"""
README_TRIP = """scenario roundtrip-0.6
body home inertial through 0 0 0 0 velocity 0 0 0
body traveler piecewise knots 0 0 0 0 , 3 0 0 5 , 0 0 0 10
home home
traveler traveler
meet 0 0 0 0
meet 0 0 0 10
"""
README_TRIP_LEGS = ((5, F(3, 5)), (5, F(3, 5)))
# Inputs of the four malformed-input operations; they do not depend on the seed.
TRUNCATED_MODEL = "structure broken\nobserver a velocity 3/5\n"
DIVZERO_MODEL = "structure broken\nobserver a velocity 1/0 0 0\n"


def lit(q) -> str:
    q = F(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def _small(rng, lo=-6, hi=6, dens=(1, 2, 3, 4)):
    return F(rng.randint(lo, hi), rng.choice(dens))


def observer_spec(rng, name, speed=None, rotate=False, translate=False):
    """An observer at rest, or moving at `speed` along a seeded plane
    direction with seeded sign; optionally rotated and translated."""
    if speed is None:
        velocity = (F(0),) * 3
    else:
        sign = rng.choice((1, -1))
        velocity = tuple(sign * speed * F(c) for c in rng.choice(PLANE_DIRECTIONS))
    return {
        "name": name,
        "velocity": velocity,
        "rotations": (_rotation(rng),) if rotate else (),
        "translation": tuple(_small(rng) for _ in range(4)) if translate else (F(0),) * 4,
    }


def _rotation(rng):
    i, j, c, s = rng.choice(ROTATIONS)
    return (i, j, c, rng.choice((1, -1)) * s)


def observer_line(spec, galilean=False, cap=None) -> str:
    words = ["observer", spec["name"], "galilean" if galilean else "velocity"]
    words += [lit(c) for c in spec["velocity"]]
    for (i, j, c, s) in spec["rotations"]:
        words += ["rotate", str(i), str(j), lit(c), lit(s)]
    if any(spec["translation"]):
        words += ["translate"] + [lit(c) for c in spec["translation"]]
    if cap is not None:
        axis, lo, hi = cap
        words += ["domain", str(axis), "-inf" if lo is None else lit(lo),
                  "inf" if hi is None else lit(hi)]
    return " ".join(words)


def model_text(name, lines, bodies=()) -> str:
    return "\n".join(["structure %s" % name, "families photons inertials"]
                     + list(lines) + list(bodies)) + "\n"


def lorentz_model(rng, name, count):
    """`count` Lorentz observers: one at rest, then one boosted, one also
    rotated, one also translated.  Observer k always moves at the k-th
    rational speed, so every seed gives a model of the same cost."""
    specs = [observer_spec(rng, "rest")]
    for k in range(1, count):
        specs.append(observer_spec(rng, "o%d" % k, RATIONAL_SPEEDS[k - 1],
                                   rotate=k >= 2, translate=k >= 3))
    return specs, model_text(name, [observer_line(s) for s in specs])


def galilean_model(rng, name):
    specs = [observer_spec(rng, "lab"), observer_spec(rng, "train", RATIONAL_SPEEDS[0])]
    return specs, model_text(name, [observer_line(s, galilean=True) for s in specs])


def capped_model(rng, name):
    """A resting observer and one moving at 3/5 along a seeded axis and
    sign, its chart capped to times below 10."""
    axis = rng.randrange(3)
    velocity = tuple(F(rng.choice((3, -3)), 5) if i == axis else F(0) for i in range(3))
    specs = [observer_spec(rng, "rest"),
             {"name": "capped", "velocity": velocity, "rotations": (),
              "translation": (F(0),) * 4}]
    lines = [observer_line(specs[0]), observer_line(specs[1], cap=CAP)]
    return specs, model_text(name, lines), {"capped": CAP}


def twin_legs(rng):
    """Out and back at one rational-gamma speed, then a rest leg."""
    out = rng.randint(1, 5)
    speed = rng.choice(RATIONAL_SPEEDS)
    direction = rng.choice(DIRECTIONS)
    rest = rng.randint(1, 4)
    turn = tuple(speed * out * F(c) for c in direction) + (F(out),)
    knots = [(F(0),) * 4, turn, (F(0), F(0), F(0), F(2 * out)),
             (F(0), F(0), F(0), F(2 * out + rest))]
    legs = ((out, speed), (out, speed), (rest, F(0)))
    return knots, legs


def scenario_text(name, knots) -> str:
    end = knots[-1][3]
    return "\n".join([
        "scenario %s" % name,
        "body home inertial through 0 0 0 0 velocity 0 0 0",
        "body traveler piecewise knots " + " , ".join(" ".join(lit(c) for c in k) for k in knots),
        "home home", "traveler traveler", "meet 0 0 0 0", "meet 0 0 0 %s" % lit(end),
    ]) + "\n"


def noftl_config(rng, index):
    """Observer m (rational chart); in m's coordinates an inertial body k
    and a photon p leave `start` along one direction; both reach `target`.
    Bodies are written in reference coordinates through m's inverse chart."""
    m = observer_spec(rng, "m", rng.choice(RATIONAL_SPEEDS), rotate=True, translate=True)
    chart = checks.Chart(m)
    start = tuple(_small(rng) for _ in range(4))
    n = tuple(F(c) for c in rng.choice(DIRECTIONS))
    speed = F(rng.randint(1, 9), 10)
    dist = F(rng.randint(1, 12), rng.choice((1, 2, 3)))

    def ref_line(vel):
        p0 = chart.inverse_apply(start)
        p1 = chart.inverse_apply(tuple(start[i] + vel[i] for i in range(3)) + (start[3] + 1,))
        dt = p1[3] - p0[3]
        return p0, tuple((p1[i] - p0[i]) / dt for i in range(3))

    kp, kv = ref_line(tuple(speed * c for c in n))
    pp, pd = ref_line(n)
    bodies = [
        "body k inertial through %s velocity %s" % (" ".join(lit(c) for c in kp),
                                                    " ".join(lit(c) for c in kv)),
        "body p photon through %s direction %s" % (" ".join(lit(c) for c in pp),
                                                   " ".join(lit(c) for c in pd)),
    ]
    return {
        "text": model_text("noftl%d" % index, [observer_line(m)], bodies),
        "start": start,
        "target": tuple(start[i] + dist * n[i] for i in range(3)),
        "expected_y4": start[3] + dist / speed,
        "expected_t": start[3] + dist,
    }


def map_recipes(speeds):
    """Fixed (speed, direction, speed, direction, rotation) recipes, one
    per map of a round.  The cost of a map depends mostly on its speeds and
    planes, so these are fixed; the seed picks signs, translation and events."""
    pairs = [(speeds[k], speeds[(k + 1) % len(speeds)]) for k in range(len(speeds))]
    return [(s1, PLANE_DIRECTIONS[k % len(PLANE_DIRECTIONS)],
             s2, PLANE_DIRECTIONS[(k + 1) % len(PLANE_DIRECTIONS)],
             ROTATIONS[k % len(ROTATIONS)]) for k, (s1, s2) in enumerate(pairs)]


def poincare_params(rng, recipe, rational):
    """One map: rotate after boost(v1) after boost(v2), plus a translation,
    with four pairs of events to compare mu on."""
    s1, d1, s2, d2, (i, j, c, sin) = recipe
    sign = lambda: rng.choice((1, -1))
    return {
        "rational": rational,
        "v1": tuple(sign() * s1 * F(x) for x in d1),
        "v2": tuple(sign() * s2 * F(x) for x in d2),
        "rotation": (i, j, c, sign() * sin),
        "translation": tuple(_small(rng) for _ in range(4)),
        "pairs": [(tuple(_small(rng, -12, 12, (1, 2, 3, 5)) for _ in range(4)),
                   tuple(_small(rng, -12, 12, (1, 2, 3, 5)) for _ in range(4)))
                  for _ in range(4)],
    }


def _irrational_speed(rng):
    """p/q with q in 11..16 and an irrational dilation sqrt(q^2 - p^2)/q."""
    while True:
        q = rng.randint(11, 16)
        p = rng.randint(1, q - 1)
        if checks.frac_sqrt(1 - F(p, q) ** 2) is None:
            return F(p, q)


def _write(outdir, name, text):
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def generate(workload, seed, outdir):
    rng = random.Random("%s:%d" % (workload, seed))
    os.makedirs(outdir, exist_ok=True)
    return GENERATORS[workload](rng, outdir)


def _gen_cli(rng, outdir):
    man = {}
    _, text_a = lorentz_model(rng, "mink_a", 3)
    _, text_b = lorentz_model(rng, "mink_b", 4)
    _, text_g = galilean_model(rng, "galilean")
    specs_c, text_c, caps = capped_model(rng, "capped")
    knots, legs = twin_legs(rng)
    man["files"] = {
        "mink_a": _write(outdir, "mink_a.model", text_a),
        "mink_b": _write(outdir, "mink_b.model", text_b),
        "galilean": _write(outdir, "galilean.model", text_g),
        "capped": _write(outdir, "capped.model", text_c),
        "trip": _write(outdir, "trip.scn", scenario_text("trip", knots)),
        "rindler": _write(outdir, "rindler.chart", RINDLER_CHART),
        "truncated": _write(outdir, "truncated.model", TRUNCATED_MODEL),
        "divzero": _write(outdir, "divzero.model", DIVZERO_MODEL),
        "geodesic_csv": os.path.join(outdir, "geodesic.csv"),
    }
    man["capped_specs"] = {s["name"]: s for s in specs_c}
    man["caps"] = caps
    man["twin"] = checks.twin_expected(legs)
    man["gtd"] = (F(rng.randint(1, 12), rng.choice((2, 3, 4))),
                  F(rng.randint(1, 8), rng.choice((2, 5, 7))))
    man["sweep"] = 10
    man["formula"] = README_FORMULA
    return man


def _gen_sampled(rng, outdir):
    files = {}
    for name, count in (("mink2", 2), ("mink3", 3)):
        files[name] = _write(outdir, name + ".model", lorentz_model(rng, name, count)[1])
    files["galilean"] = _write(outdir, "galilean.model", galilean_model(rng, "galilean")[1])
    specs_c, text_c, caps = capped_model(rng, "capped")
    files["capped"] = _write(outdir, "capped.model", text_c)
    return {"files": files, "caps": caps, "capped_specs": {s["name"]: s for s in specs_c}}


def _gen_exact(rng, outdir):
    man = {"maps": [poincare_params(rng, recipe, rational)
                    for rational in (True, False)
                    for recipe in map_recipes(RATIONAL_SPEEDS if rational else IRRATIONAL_SPEEDS)]}
    man["noftl"] = []
    for k in range(8):
        cfg = noftl_config(rng, k)
        cfg["file"] = _write(outdir, "noftl%d.model" % k, cfg.pop("text"))
        man["noftl"].append(cfg)
    man["effects"] = [_irrational_speed(rng) for _ in range(12)]
    twins = [(_write(outdir, "readme_trip.scn", README_TRIP), checks.twin_expected(README_TRIP_LEGS))]
    for k in range(5):
        knots, legs = twin_legs(rng)
        twins.append((_write(outdir, "trip%d.scn" % k, scenario_text("trip%d" % k, knots)),
                      checks.twin_expected(legs)))
    man["twins"] = twins
    man["gtd"] = [(F(rng.randint(1, 12), rng.choice((2, 3, 4))),
                   F(rng.randint(1, 8), rng.choice((2, 5, 7)))) for _ in range(8)]
    return man


def _gen_genrel(rng, outdir):
    man = {"files": {"rindler": _write(outdir, "rindler.chart", RINDLER_CHART),
                     "flat": _write(outdir, "flat.chart", FLAT_CHART)}}
    geos = []
    # (chart, step, span): each chart at two steps and spans.
    for chart in ("rindler", "rindler_file", "flat", "flat_file"):
        for step, span in ((0.025, 0.5), (0.03, 0.75)):
            if chart.startswith("rindler"):
                # x4-rate and span keep the curve well inside the Rindler wedge.
                x0 = (F(rng.randint(8, 10), 4), F(0), F(0), F(0))
                u0 = (F(rng.randint(-4, 4), 16), F(rng.randint(-4, 4), 16), F(0),
                      F(rng.randint(8, 12), 16))
            else:
                x0 = tuple(_small(rng) for _ in range(4))
                u0 = (F(rng.randint(-4, 4), 16), F(rng.randint(-4, 4), 16),
                      F(rng.randint(-4, 4), 16), F(1))
            geos.append({"chart": chart, "x0": x0, "u0": u0, "step": step, "span": span})
    man["geodesics"] = geos
    man["proper_times"] = [(F(rng.randint(1, 8), 4), F(rng.randint(1, 12), 4)) for _ in range(4)]
    return man


GENERATORS = {"cli": _gen_cli, "sampled-eval": _gen_sampled,
              "exact-sweeps": _gen_exact, "genrel-float": _gen_genrel}


def _jsonable(x):
    if isinstance(x, F):
        return lit(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    print(json.dumps(_jsonable(generate(a.workload, a.seed, a.out)), indent=1, sort_keys=True))
