"""Compare the CLI's bytes between two source trees.

    python tools/byte_identity.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the `axrel` package (the
`src` directory of two checkouts).  Each command of a fixed set runs in a
fresh interpreter, once per tree, in a fresh working directory that holds
the input files below.  The set: the README's command examples; `check`
and `report`, text and JSON, on the inputs behind `tests/golden/` and on
every model, chart and scenario below, among them a capped model, a
model with no observer, a thin chart domain and observers that see no
body.  For each command the script compares stdout,
stderr, the exit code and every file the command leaves in its working
directory.  It prints each command that differs, with what differs, and
exits 1 if any does, else 0.

The inputs are copies of the README's examples and of the test suite's
model, chart and scenario texts; the output does not depend on the
checkout they came from.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

INPUTS = {
    # README: the model and chart file examples, and the files its
    # command examples name.
    "mink.model": """structure minkowski
families photons inertials        # intensional families; or: families none
observer rest
observer boosted velocity 3/5 0 0
observer skew velocity 3/5 0 0 rotate 1 2 3/5 4/5 translate 1 0 0 2
observer capped velocity 0 0 0 domain 4 -inf 10
observer train galilean 3/5 0 0   # Newtonian chart (negative control)
body flash photon through 0 0 0 0 direction 3/5 4/5 0
body rock inertial through 1 0 0 0 velocity 1/2 0 0
body drift piecewise knots 0 0 0 0 , 3 0 0 5 , 0 0 0 10
""",
    "examples-mink.model": """structure minkowski
families photons inertials
observer rest
observer boosted velocity 3/5 0 0
observer updown velocity 0 4/5 0
observer skew velocity 3/5 0 0 rotate 1 2 3/5 4/5 translate 1 0 0 2
""",
    "examples-galilean.model": """structure galilean
families photons inertials
observer lab galilean 0 0 0
observer train galilean 3/5 0 0
""",
    "rindler.chart": """chart rindler
order 9
domain 1 1/10 10
g 1 1 = 1
g 2 2 = 1
g 3 3 = 1
g 4 4 = 0 - x1^2
worldline rear 1 0 0              # static observer at fixed position
meet rear rear 1 0 0 0
""",
    "roundtrip.scn": """scenario roundtrip-0.6
body home inertial through 0 0 0 0 velocity 0 0 0
body traveler piecewise knots 0 0 0 0 , 3 0 0 5 , 0 0 0 10
home home
traveler traveler
meet 0 0 0 0
meet 0 0 0 10
""",
    # tests/golden: the flat chart and the capped model with an irrational
    # Lorentz factor.
    "flat.chart": """chart flat
order 9
g 1 1 = 1
g 2 2 = 1
g 3 3 = 1
g 4 4 = 0 - 1
worldline a 0 0 0
worldline b 1 0 0
meet a a 0 0 0 0
""",
    "capped.model": """structure capped
families photons inertials
observer rest
observer capped velocity 1/2 0 0 domain 4 -inf 10
""",
    # Three observers with irrational Lorentz factors; named bodies without
    # families; an observer whose domain leaves out its origin; and a model
    # with no observer at all.
    "irrational.model": """structure irrational
observer rest
observer a velocity 1/2 0 0
observer b velocity 0 1/3 1/3 translate 1 2 0 3
""",
    "bare.model": """structure bare
families none
observer rest
observer moving velocity 3/5 0 0 translate 1 0 0 1/2
body walker inertial through 0 0 0 0 velocity 1/2 0 0
body flash photon through 1 0 0 0 direction 0 1 0
""",
    "late.model": """structure late
families none
observer rest
observer late velocity 1/2 0 0 translate 1 0 0 1/2 domain 4 1 10
body walker piecewise knots 0 0 0 0 , 1 0 0 4 , 1 1/2 0 8
body flash photon through 1 0 0 0 direction 0 1 0
""",
    "empty.model": "structure minkowski\n",
    # An open chart domain 1/1000 wide on x1 (AxEv- must hold on it), and
    # the test suite's reference chart: + - * /, a division by zero where
    # x1 = x2, ^0, ^1, ^3, sqrt and off-diagonal entries.
    "thin.chart": """chart thin
domain 1 0 1/1000
g 1 1 = 1
g 2 2 = 1
g 3 3 = 1
g 4 4 = 0 - 1
worldline a 1/2000 0 0
""",
    "reference.chart": """chart reference
g 1 1 = 1 + x2^2/10 - x3^0
g 1 2 = (x1 - x2) * x3 / 7
g 1 3 = x4^1 / (x1 - x2)
g 2 2 = 2.5
g 2 4 = x1^3 - sqrt(x2*x2 + 1)
g 3 3 = sqrt(x1) * x4^3
g 4 4 = 0 - x1^2
""",
    # An observer whose domain meets no body, and one whose domain is
    # empty: the Ob atom and its expansion disagree on both.
    "unseen.model": """structure t
families none
observer rest domain 1 5 6
""",
    "empty-domain.model": """structure t
families none
observer rest domain 1 6 5
""",
}

README = [
    ["parse", "A o:B . IOb(o) -> W(o,o,0,0,0,0)"],
    ["axioms", "list", "SpecRel"],
    ["axioms", "show", "AxPh"],
    ["axioms", "show", "AxDiff_2"],
    ["check", "SpecRel", "examples-mink.model"],
    ["check", "SpecRel", "examples-galilean.model"],
    ["check", "GenRel(3)", "rindler.chart"],
    ["effects", "--v", "3/5"],
    ["effects", "--v", "0", "--sweep", "10"],
    ["effects", "--v", "3/5", "--svg", "ship.svg"],
    ["twin", "roundtrip.scn"],
    ["gtd", "--g", "1", "--h", "1/2"],
    ["geodesic", "rindler.chart", "--x0", "2,0,0,0", "--u0", "1/5,0,0,11/20", "--span", "1",
     "--csv", "out.csv"],
    ["report", "mink.model", "--theory", "AccRel"],
]

GOLDEN = [
    ["check", "SpecRel", "examples-mink.model", "--samples", "8", "--seed", "7",
     "--format", "json"],
    ["check", "AccRel", "capped.model", "--format", "json", "--samples", "4"],
    ["effects", "--v", "0", "--sweep", "17"],
    ["gtd", "--g", "sqrt(2)", "--h", "1/3"],
    ["check", "SpecRel", "examples-mink.model", "--output", "report.txt"],
]


def commands() -> list:
    out = README + GOLDEN
    for name in sorted(INPUTS):
        if name.endswith(".model"):
            for theory in ("SpecRel", "AccRel"):
                for fmt in ([], ["--format", "json"]):
                    out.append(["check", theory, name, "--samples", "12"] + fmt)
                out.append(["report", name, "--theory", theory, "--samples", "12"])
        elif name.endswith(".chart"):
            for n in ("3", "9"):
                for fmt in ([], ["--format", "json"]):
                    out.append(["check", "GenRel(%s)" % n, name] + fmt)
        else:
            out.append(["twin", name])
            out.append(["twin", name, "--csv", "twin.csv"])
    return out


def run(src: Path, argv: list) -> dict:
    """stdout, stderr, exit code and the files left behind, of one
    command in a fresh interpreter and working directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("AXREL_")}
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory() as work:
        for name, text in INPUTS.items():
            (Path(work) / name).write_text(text, encoding="utf-8")
        done = subprocess.run([sys.executable, "-m", "axrel.cli"] + argv, cwd=work, env=env,
                              capture_output=True, timeout=600)
        files = {p.name: p.read_bytes() for p in sorted(Path(work).iterdir())}
    return {"stdout": done.stdout, "stderr": done.stderr, "exit code": done.returncode,
            "files": files}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/byte_identity.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 64
    old, new = (Path(a).resolve() for a in args)
    for src in (old, new):
        if not (src / "axrel" / "cli.py").is_file():
            print("no axrel package under %s" % src, file=sys.stderr)
            return 64
    cmds = commands()
    differ = 0
    for argv in cmds:
        a, b = run(old, argv), run(new, argv)
        parts = [key for key in a if a[key] != b[key]]
        if "files" in parts:
            names = sorted(set(a["files"]) | set(b["files"]))
            parts[-1] = "files %s" % " ".join(
                n for n in names if a["files"].get(n) != b["files"].get(n))
        if parts:
            differ += 1
            print("DIFFERS (%s): axrel %s" % (", ".join(parts), " ".join(argv)))
    print("%d commands, %d differ" % (len(cmds), differ))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
