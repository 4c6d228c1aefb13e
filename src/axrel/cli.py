"""Command-line front end.

Commands: parse, axioms, check, effects, twin, gtd, geodesic, report.
Exit codes: 0 all verdicts hold, 1 some verdict fails, 2 some verdict is
unknown (and none fails), 64 usage error, 65 data/format error, 70
internal error (a bug, reported in one line, never as a verdict).

Output is byte-identical for identical inputs, flags and seed; exact
values print as field literals with a 12-digit decimal after them.
Environment variables AXREL_SAMPLES and AXREL_SEED supply default
budgets; flags override.  A flag or variable value out of range is a
usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from . import exprs
from .accel import ShipConfig, gtd_clock_ratio, load_scenario, twin_paradox, worldline_csv
from .field import ER, ExactReal, parse_exact, ExactRealSyntaxError
from .kinematics import effects
from .model import load_model
from .numeric import require_positive_finite
from .report import exit_code, machine_report, text_report
from .semantics import Budget, check_theory
from .syntax import (
    FormulaSyntaxError, Sort, SortError, axiom_corpus, named_axiom, parse,
    print_formula, UnknownTheory,
)

# Every layer a command uses loads with this module, so main() imports
# nothing but the chart layer (numpy).  field.parse_exact imports exprs on
# first use, so exprs is named here.
_LOADED_WITH_CLI = (exprs,)

EX_USAGE = 64
EX_DATA = 65
EX_SOFTWARE = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EX_USAGE, "%s: error: %s\n" % (self.prog, message))


class _UsageError(Exception):
    """A flag or environment value out of range (exit 64)."""


def _positive_int(text: str) -> int:
    # argparse names the flag in front of the message.
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _env_int(name: str, default: int, minimum: int | None = None) -> int:
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        value = int(text)
    except ValueError:
        raise _UsageError("%s must be an integer, got %r" % (name, text)) from None
    if minimum is not None and value < minimum:
        raise _UsageError("%s must be at least %d, got %d" % (name, minimum, value))
    return value


def _fmt_value(v: ExactReal) -> str:
    return "%s (~ %s)" % (v.literal(), v.decimal_str())


def _budget(args) -> Budget:
    samples = args.samples if args.samples is not None else \
        _env_int("AXREL_SAMPLES", 48, minimum=1)
    seed = args.seed if args.seed is not None else _env_int("AXREL_SEED", 0)
    return Budget(samples=samples, seed=seed)


def _emit(args, text: str):
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _Parser(prog="axrel", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and print it back")
    p.add_argument("formula")
    p.add_argument("--declare", action="append", default=[],
                   metavar="VAR:SORT", help="sort of a free variable, e.g. o:B")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("axioms", help="list theories or show an axiom")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("check", help="check a theory against a model file")
    p.add_argument("theory")
    p.add_argument("model_file")
    p.add_argument("--samples", type=_positive_int)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--output")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("effects", help="time dilation, contraction, asynchrony")
    p.add_argument("--v", required=True, help="relative speed, field literal")
    p.add_argument("--length", default="1", help="ship proper length")
    p.add_argument("--sweep", type=_positive_int, metavar="N",
                   help="CSV sweep over v = k/N, k = 0..N-1")
    p.add_argument("--svg", metavar="FILE", help="write the two-panel figure")
    p.add_argument("--output")
    p.set_defaults(func=cmd_effects)

    p = sub.add_parser("twin", help="proper times of a twin scenario file")
    p.add_argument("scenario_file")
    p.add_argument("--csv", metavar="FILE", help="traveler worldline samples")
    p.add_argument("--output")
    p.set_defaults(func=cmd_twin)

    p = sub.add_parser("gtd", help="nose/rear clock ratio of the accelerated ship")
    p.add_argument("--g", required=True, help="rear proper acceleration")
    p.add_argument("--h", required=True, dest="h", help="proper length")
    p.add_argument("--output")
    p.set_defaults(func=cmd_gtd)

    p = sub.add_parser("geodesic", help="integrate a geodesic in a chart file")
    p.add_argument("chart_file")
    p.add_argument("--x0", required=True, help="start point, comma-separated literals")
    p.add_argument("--u0", required=True, help="initial tangent, comma-separated")
    p.add_argument("--span", type=float, default=1.0)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--csv", metavar="FILE")
    p.add_argument("--output")
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("report", help="machine-readable verification report")
    p.add_argument("model_file")
    p.add_argument("--theory", default="AccRel")
    p.add_argument("--samples", type=_positive_int)
    p.add_argument("--seed", type=int)
    p.add_argument("--output")
    p.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write("axrel: %s\n" % exc)
        return EX_USAGE
    except (FormulaSyntaxError, SortError, ExactRealSyntaxError, UnknownTheory,
            OSError, ValueError, ArithmeticError) as exc:
        # ArithmeticError covers field.DivisionByZero (`velocity 1/0 0 0`) and
        # a float overflow (a chart entry `2^2000`).
        sys.stderr.write("axrel: %s\n" % exc)
        return EX_DATA
    except Exception as exc:
        # Exit 1 means "some axiom fails", so a crash must not end with it.
        sys.stderr.write("axrel: internal error: %s: %s\n" % (type(exc).__name__, exc))
        return EX_SOFTWARE


# ---------------------------------------------------------------------------


def cmd_parse(args) -> int:
    declarations = {}
    for item in args.declare:
        name, _, sort = item.partition(":")
        if sort not in ("B", "Q"):
            raise SortError("declaration %r needs sort B or Q" % item)
        declarations[name] = Sort.BODY if sort == "B" else Sort.QUANTITY
    formula = parse(args.formula, declarations)
    sys.stdout.write(print_formula(formula) + "\n")
    return 0


def cmd_axioms(args) -> int:
    if args.action == "list":
        names = [args.name] if args.name else ["SpecRel", "AccRelMinus", "AccRel", "GenRel(3)"]
        for theory_name in names:
            theory = axiom_corpus(theory_name)
            schema = " + IND schema" if theory.has_ind_schema else ""
            sys.stdout.write("%s%s\n" % (theory.name, schema))
            for group in theory.groups:
                marker = " (reconstruction)" if group.reconstruction else ""
                count = "" if len(group.texts) == 1 else " [%d sentences]" % len(group.texts)
                sys.stdout.write("  %s%s%s\n" % (group.name, count, marker))
        return 0
    if not args.name:
        sys.stderr.write("axrel: axioms show needs a name\n")
        return EX_USAGE
    sentence = named_axiom(args.name)
    sys.stdout.write(print_formula(sentence) + "\n")
    return 0


def cmd_check(args) -> int:
    budget = _budget(args)
    if args.command == "check" and args.theory.startswith("GenRel"):
        m = re.fullmatch(r"GenRel\((\d+)\)", args.theory)
        n = int(m.group(1)) if m else 0
        if n < 1:
            raise UnknownTheory(args.theory)
        from .genrel import load_chart_file, check_chart_theory

        config = load_chart_file(args.model_file)
        results = check_chart_theory(config, n=n)
        seed_line = None  # the chart suite draws no samples
    else:
        theory = axiom_corpus(args.theory)
        structure = load_model(args.model_file)
        results = check_theory(structure, theory, budget)
        seed_line = budget.seed
    if args.format == "json":
        out = machine_report("%s %s" % (args.command, args.theory),
                             {"model": args.model_file}, budget.seed, results)
    else:
        out = text_report("check %s on %s" % (args.theory, args.model_file),
                          results, seed=seed_line)
    _emit(args, out)
    return exit_code(results)


def cmd_effects(args) -> int:
    v = parse_exact(args.v)
    length = parse_exact(args.length)
    rep = effects(v, length)
    lines = [
        "relative speed      v = %s" % _fmt_value(rep.v),
        "time dilation         = %s" % _fmt_value(rep.time_dilation),
        "length contraction    = %s" % _fmt_value(rep.length_contraction),
        "clock asynchrony      = %s" % _fmt_value(rep.clock_asynchrony),
    ]
    out = "\n".join(lines) + "\n"
    if args.sweep is not None:
        rows = ["v,dilation,contraction,asynchrony"]
        for k in range(args.sweep):
            r = effects(ER(Fraction(k, args.sweep)), length)
            rows.append(",".join(x.decimal_str() for x in
                                 (r.v, r.time_dilation, r.length_contraction,
                                  r.clock_asynchrony)))
        out = "\n".join(rows) + "\n"
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(effects_svg(rep))
    _emit(args, out)
    return 0


def effects_svg(rep) -> str:
    """Two-panel figure generated purely from the computed report: the
    contracted moving ship with offset clocks, and the ship's own view."""
    length_px = 300.0
    contracted = float(rep.length_contraction) * length_px
    v_lit = rep.v.literal()
    dil = rep.time_dilation.decimal_str(6)
    asy = rep.clock_asynchrony.decimal_str(6)
    con = rep.length_contraction.decimal_str(6)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 760 360" font-family="monospace" font-size="13">',
        '<text x="20" y="28">observer m: ship moving at v = %s</text>' % v_lit,
        '<rect x="60" y="60" width="%.3f" height="60" fill="none" stroke="black"/>' % contracted,
        '<text x="60" y="145">length = %s of rest length</text>' % con,
        '<text x="56" y="52">rear clock: t</text>',
        '<text x="%.3f" y="52">nose clock: t - %s</text>' % (40 + contracted, asy),
        '<text x="60" y="170">moving clocks tick at %s of coordinate rate</text>' % dil,
        '<text x="20" y="228">observer k: own ship at rest</text>',
        '<rect x="60" y="250" width="%.3f" height="60" fill="none" stroke="black"/>' % length_px,
        '<text x="56" y="242">rear clock: t</text>',
        '<text x="%.3f" y="242">nose clock: t</text>' % (40 + length_px),
        '<text x="60" y="335">both clocks agree; full rest length</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def cmd_twin(args) -> int:
    scenario = load_scenario(args.scenario_file)
    tau_home, tau_traveler = twin_paradox(scenario)
    out = ("home stays for       %s\n" % _fmt_value(tau_home) +
           "traveler ages        %s\n" % _fmt_value(tau_traveler))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(worldline_csv(scenario.traveler.worldline,
                                   scenario.departure[3], scenario.reunion[3]))
    _emit(args, out)
    return 0


def cmd_gtd(args) -> int:
    cfg = ShipConfig(parse_exact(args.g), parse_exact(args.h))
    ratio = gtd_clock_ratio(cfg)
    _emit(args, "nose/rear clock rate ratio = %s\n" % _fmt_value(ratio))
    return 0


def cmd_geodesic(args) -> int:
    # Checked before the chart layer (and numpy) loads; geodesic() repeats it.
    require_positive_finite("geodesic step", args.step)
    require_positive_finite("geodesic span", args.span)
    from .genrel import geodesic, geodesic_csv, load_chart_file

    config = load_chart_file(args.chart_file)
    x0 = [float(parse_exact(c)) for c in args.x0.split(",")]
    u0 = [float(parse_exact(c)) for c in args.u0.split(",")]
    if len(x0) != 4 or len(u0) != 4:
        raise ValueError("x0 and u0 need four comma-separated components")
    result = geodesic(config.chart, x0, u0, span=args.span, step=args.step)
    out = ("steps: %d, step size: %g\n" % (len(result.lambdas) - 1, result.step) +
           "conservation drift: %.6g (tolerance %g%s)\n" % (
               result.conservation_drift, result.drift_tolerance,
               ", FLAGGED" if result.drift_flagged else "") +
           "truncated at domain boundary: %s\n" % result.truncated)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(geodesic_csv(result))
    _emit(args, out)
    return 0


def cmd_report(args) -> int:
    """`check --format json` on a model file, labelled `report` (chart
    files are `check`'s alone)."""
    args.format = "json"
    return cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
