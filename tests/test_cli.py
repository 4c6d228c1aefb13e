import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from axrel.cli import main
from axrel.report import SCHEMA

MINK = """
structure minkowski
families photons inertials
observer rest
observer boosted velocity 3/5 0 0
observer updown velocity 0 4/5 0
observer skew velocity 3/5 0 0 rotate 1 2 3/5 4/5 translate 1 0 0 2
"""

GALILEAN = """
structure galilean
families photons inertials
observer lab galilean 0 0 0
observer train galilean 3/5 0 0
"""

SCENARIO = """
scenario roundtrip-0.6
body home inertial through 0 0 0 0 velocity 0 0 0
body traveler piecewise knots 0 0 0 0 , 3 0 0 5 , 0 0 0 10
home home
traveler traveler
meet 0 0 0 0
meet 0 0 0 10
"""

RINDLER = """
chart rindler
order 9
domain 1 1/10 10
g 1 1 = 1
g 2 2 = 1
g 3 3 = 1
g 4 4 = 0 - x1^2
worldline rear 1 0 0
meet rear rear 1 0 0 0
"""

FLAT = """chart flat
order 9
g 1 1 = 1
g 2 2 = 1
g 3 3 = 1
g 4 4 = 0 - 1
worldline a 0 0 0
worldline b 1 0 0
meet a a 0 0 0 0
"""


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, text in (("mink.model", MINK), ("galilean.model", GALILEAN),
                       ("trip.scn", SCENARIO), ("rindler.chart", RINDLER)):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_specrel_standard_exits_zero(files, capsys):
    code, out, _ = run_cli(["check", "SpecRel", files["mink.model"]], capsys)
    assert code == 0
    assert out.count("Holds") == 5


def test_check_specrel_galilean_exits_one(files, capsys):
    code, out, _ = run_cli(["check", "SpecRel", files["galilean.model"]], capsys)
    assert code == 1
    assert "AxPh" in out and "counterexample" in out


def test_check_json_schema(files, capsys):
    code, out, _ = run_cli(["check", "SpecRel", files["mink.model"],
                            "--format", "json"], capsys)
    payload = json.loads(out)
    assert payload["schema"] == SCHEMA
    assert payload["summary"] == {"Holds": 5, "Fails": 0, "Unknown": 0}
    assert payload["seed"] == 0


def test_check_reports_are_byte_identical(files, capsys):
    args = ["check", "AccRel", files["mink.model"], "--format", "json",
            "--seed", "9", "--samples", "12"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_effects_exact_output(capsys):
    code, out, _ = run_cli(["effects", "--v", "3/5"], capsys)
    assert code == 0
    assert "4/5 (~ 0.800000000000)" in out
    assert "3/5 (~ 0.600000000000)" in out


def test_effects_sweep_csv(capsys):
    code, out, _ = run_cli(["effects", "--v", "0", "--sweep", "10"], capsys)
    rows = out.strip().splitlines()
    assert rows[0] == "v,dilation,contraction,asynchrony"
    assert len(rows) == 11


def _argparse_exit(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("sweep", ["0", "-3"])
def test_effects_sweep_below_one_is_usage_error(capsys, sweep):
    code, out, err = _argparse_exit(["effects", "--v", "0", "--sweep", sweep], capsys)
    _one_line_error(code, err, (64,))
    assert "--sweep" in err and out == ""


def test_effects_sweep_of_one_is_a_single_row(capsys):
    code, out, _ = run_cli(["effects", "--v", "0", "--sweep", "1"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "v,dilation,contraction,asynchrony"
    assert len(out.splitlines()) == 2


def test_effects_svg_from_computed_values(tmp_path, capsys):
    svg = tmp_path / "fig.svg"
    code, _, _ = run_cli(["effects", "--v", "3/5", "--svg", str(svg)], capsys)
    body = svg.read_text()
    assert body.startswith("<svg")
    assert "0.800000" in body  # contraction, computed not pasted
    assert "3/5" in body


def test_twin_command(files, capsys):
    code, out, _ = run_cli(["twin", files["trip.scn"]], capsys)
    assert code == 0
    assert "10 (~ 10.0000000000" in out
    assert "8 (~ 8.0000000000" in out


def test_gtd_command(capsys):
    code, out, _ = run_cli(["gtd", "--g", "1", "--h", "1/2"], capsys)
    assert code == 0
    assert "3/2" in out


def test_geodesic_command(files, tmp_path, capsys):
    csv = tmp_path / "geo.csv"
    code, out, _ = run_cli(["geodesic", files["rindler.chart"],
                            "--x0", "2,0,0,0", "--u0", "1/5,0,0,11/20",
                            "--span", "1.0", "--csv", str(csv)], capsys)
    assert code == 0
    assert "conservation drift" in out
    assert csv.read_text().startswith("lambda,")


def test_readme_geodesic_golden_bytes(files, tmp_path, capsys):
    # The README's geodesic at the default step and halvings; the SHA-256 is
    # that of the CSV the scalar Christoffel loop wrote.
    csv = tmp_path / "out.csv"
    code, out, _ = run_cli(["geodesic", files["rindler.chart"],
                            "--x0", "2,0,0,0", "--u0", "1/5,0,0,11/20",
                            "--span", "1", "--csv", str(csv)], capsys)
    assert code == 0
    assert out == ("steps: 200, step size: 0.005\n"
                   "conservation drift: 5.19695e-12 (tolerance 1e-06)\n"
                   "truncated at domain boundary: False\n")
    digest = hashlib.sha256(csv.read_bytes()).hexdigest()
    assert digest == "4cf8f6565daaa254fcd569b5349488a16f750434924cda13f2e9bf4cfa0b5475"


def test_check_genrel_chart(files, capsys):
    code, out, _ = run_cli(["check", "GenRel(3)", files["rindler.chart"]], capsys)
    assert code == 0
    assert "AxPh-" in out and "AxDiff_3" in out


def test_check_genrel_text_report_has_no_seed_line(files, capsys):
    # The chart suite draws no samples, so --seed changes nothing and the
    # text report does not print it; the JSON schema keeps its seed key.
    argv = ["check", "GenRel(3)", files["rindler.chart"]]
    _, plain, _ = run_cli(argv, capsys)
    _, seeded, _ = run_cli(argv + ["--seed", "5"], capsys)
    assert "seed" not in plain
    assert seeded == plain
    _, out, _ = run_cli(argv + ["--format", "json", "--seed", "5"], capsys)
    assert json.loads(out)["seed"] == 5


@pytest.mark.parametrize("chart, argv, golden", [
    ("flat.chart", [], "genrel9_flat.txt"),
    ("flat.chart", ["--format", "json"], "genrel9_flat.json"),
    ("rindler.chart", [], "genrel9_rindler.txt"),
    ("rindler.chart", ["--format", "json"], "genrel9_rindler.json"),
])
def test_golden_genrel_chart_reports(tmp_path, monkeypatch, capsys, chart, argv, golden):
    # Two static observers (AxDiff_9 decided by the translation between
    # them) and one (no observer pairs).
    (tmp_path / "flat.chart").write_text(FLAT)
    (tmp_path / "rindler.chart").write_text(RINDLER)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["check", "GenRel(9)", chart] + argv, capsys)
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / golden).read_text()


def test_parse_command(capsys):
    code, out, _ = run_cli(["parse", "A o:B . IOb(o) -> W(o,o,0,0,0,0)"], capsys)
    assert code == 0
    assert out.strip() == "A o:B . IOb(o) -> W(o, o, 0, 0, 0, 0)"


def test_parse_data_error(capsys):
    code, _, err = run_cli(["parse", "A o:B . IOb(o) -> -> W(o,o,0,0,0,0)"], capsys)
    assert code == 65


def test_axioms_list_and_show(capsys):
    code, out, _ = run_cli(["axioms", "list", "SpecRel"], capsys)
    assert code == 0
    for name in ("AxField", "AxSelf", "AxPh", "AxEv", "AxSymd"):
        assert name in out
    code, out, _ = run_cli(["axioms", "show", "AxSelf"], capsys)
    assert code == 0
    assert out.startswith("A o:B")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_axioms_show_generated_axdiff(capsys, n):
    from axrel.syntax import alpha_equal, axiom_corpus, parse

    code, out, err = run_cli(["axioms", "show", "AxDiff_%d" % n], capsys)
    assert code == 0 and err == ""
    (_, sentence), = axiom_corpus("GenRel(%d)" % n).group("AxDiff_%d" % n).sentences
    assert alpha_equal(parse(out), sentence)


@pytest.mark.parametrize("name", ["AxDiff_0", "AxDiff_01", "AxDiff_x"])
def test_axioms_show_rejects_other_axdiff_names(capsys, name):
    code, out, err = run_cli(["axioms", "show", name], capsys)
    assert code == 65 and out == "" and err == "axrel: %r\n" % name


def test_missing_file_is_data_error(capsys):
    code, _, err = run_cli(["check", "SpecRel", "/nonexistent.model"], capsys)
    assert code == 65


def test_usage_error_is_64():
    with pytest.raises(SystemExit) as exc:
        main(["check"])
    assert exc.value.code == 64


BUDGET_COMMANDS = [["check", "SpecRel", "mink.model"], ["report", "mink.model"]]


@pytest.mark.parametrize("command", BUDGET_COMMANDS)
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_samples_below_one_is_usage_error(files, capsys, command, samples):
    argv = [files.get(a, a) for a in command] + ["--samples", samples]
    code, out, err = _argparse_exit(argv, capsys)
    _one_line_error(code, err, (64,))
    assert "--samples" in err and out == ""


@pytest.mark.parametrize("command", BUDGET_COMMANDS)
@pytest.mark.parametrize("name, value", [("AXREL_SAMPLES", "abc"), ("AXREL_SAMPLES", "0"),
                                         ("AXREL_SAMPLES", "-5"), ("AXREL_SEED", "abc"),
                                         ("AXREL_SEED", "1.5")])
def test_bad_budget_variable_is_usage_error(files, capsys, monkeypatch, command, name, value):
    monkeypatch.setenv(name, value)
    code, out, err = run_cli([files.get(a, a) for a in command], capsys)
    _one_line_error(code, err, (64,))
    assert err.startswith("axrel: %s " % name) and out == ""


def test_budget_flags_override_bad_variables(files, capsys, monkeypatch):
    monkeypatch.setenv("AXREL_SAMPLES", "abc")
    monkeypatch.setenv("AXREL_SEED", "abc")
    code, _, err = run_cli(["check", "SpecRel", files["mink.model"],
                            "--samples", "4", "--seed", "3"], capsys)
    assert code == 0 and err == ""


def test_report_command(files, capsys):
    code, out, _ = run_cli(["report", files["mink.model"], "--theory", "AccRel",
                            "--samples", "8"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["Fails"] == 0
    assert any(k.startswith("IND.") for k in payload["results"])


def test_report_is_check_json_under_its_own_label(files, capsys):
    flags = ["--samples", "8", "--seed", "3"]
    code, report, _ = run_cli(["report", files["galilean.model"], "--theory", "SpecRel"] + flags, capsys)
    check_code, check, _ = run_cli(["check", "SpecRel", files["galilean.model"],
                                    "--format", "json"] + flags, capsys)
    assert (code, check_code) == (1, 1)
    assert '"command": "report SpecRel"' in report
    assert report == check.replace('"command": "check SpecRel"', '"command": "report SpecRel"')

def test_golden_machine_report(files, capsys):
    golden = Path(__file__).parent / "golden" / "specrel_minkowski.json"
    from axrel.model import load_model
    from axrel.report import machine_report
    from axrel.semantics import Budget, check_theory
    from axrel.syntax import axiom_corpus

    structure = load_model(files["mink.model"])
    results = check_theory(structure, axiom_corpus("SpecRel"), Budget(samples=8, seed=7))
    report = machine_report("check SpecRel", {"model": "mink.model"}, 7, results)
    assert report == golden.read_text()


CAPPED_IRRATIONAL = """structure capped
families photons inertials
observer rest
observer capped velocity 1/2 0 0 domain 4 -inf 10
"""


@pytest.mark.parametrize("argv, golden, exit_code", [
    (["check", "AccRel", "capped.model", "--format", "json", "--samples", "4"],
     "accrel_capped_irrational.json", 1),
    (["effects", "--v", "0", "--sweep", "17"], "effects_sweep17.csv", 0),
    (["gtd", "--g", "sqrt(2)", "--h", "1/3"], "gtd_sqrt2.txt", 0),
], ids=["accrel-capped", "effects-sweep", "gtd"])
def test_golden_radical_outputs(tmp_path, monkeypatch, capsys, argv, golden, exit_code):
    # Outputs with radicals (the capped observer's Lorentz factor 2/sqrt(3)
    # is irrational), so they pin the tower arithmetic's printed literals.
    (tmp_path / "capped.model").write_text(CAPPED_IRRATIONAL)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(argv, capsys)
    assert code == exit_code
    assert out == (Path(__file__).parent / "golden" / golden).read_text()


def test_tiny_budget_may_return_unknown(tmp_path, capsys):
    # a model whose AxCmv cannot be certified (accelerated observer chart is
    # absent from model files, so instead: break certification by turning
    # families off -> the correspondence arguments lose injectivity)
    model = tmp_path / "sparse.model"
    model.write_text("""
structure sparse
families none
observer rest
observer boosted velocity 3/5 0 0
""")
    code, out, _ = run_cli(["check", "AccRelMinus", str(model),
                            "--samples", "2", "--seed", "1"], capsys)
    assert code in (1, 2)
    assert ("Unknown" in out) or ("Fails" in out)



@pytest.mark.parametrize("command", [["check", "AccRel"], ["report"]])
def test_model_without_observers_is_unknown_not_a_crash(tmp_path, capsys, command):
    # IND.body_position and IND.photon_reach bind their @observer parameter
    # to the first observer.  With none they are Unknown and say why; the
    # other verdicts hold vacuously.
    model = tmp_path / "bare.model"
    model.write_text("structure minkowski\n")
    code, out, err = run_cli(command + [str(model)], capsys)
    assert code == 2 and err == ""
    assert out.count("no body to bind to parameter o (@observer)") == 2

def _one_line_error(code, err, expected_codes=(65,)):
    assert code in expected_codes
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("line, needle", [
    ("observer a velocity 3/5", "line 3: observer field 'velocity' needs 3 values"),
    ("observer a rotate 1 2 3/5", "line 3: observer field 'rotate' needs 4 values"),
    ("observer a translate 1 0 0", "line 3: observer field 'translate' needs 4 values"),
    ("observer a domain 4 10", "line 3: observer field 'domain' needs 3 values"),
    ("observer a domain 5 0 1", "line 3: domain axis must be 1 to 4"),
])
def test_truncated_observer_field_is_data_error(tmp_path, capsys, line, needle):
    model = tmp_path / "broken.model"
    model.write_text("structure broken\n# an observer field is cut short\n%s\n" % line)
    code, _, err = run_cli(["check", "SpecRel", str(model)], capsys)
    _one_line_error(code, err)
    assert needle in err


@pytest.mark.parametrize("line", [
    "observer a domain x 0 1",
    "observer a rotate 1 x 3/5 4/5",
    "observer a rotate 1 4 3/5 4/5",
    "observer a rotate 1 2 1/2 1/2",
    "observer a velocity 1 0 0",
])
def test_bad_observer_value_names_its_line(tmp_path, capsys, line):
    model = tmp_path / "bad.model"
    model.write_text("structure bad\nfamilies photons inertials\n%s\n" % line)
    code, _, err = run_cli(["check", "SpecRel", str(model)], capsys)
    _one_line_error(code, err)
    assert "line 3:" in err


@pytest.mark.parametrize("bounds, needle", [
    ("10 -inf", "line 2: domain upper bound must be a field literal or inf, got '-inf'"),
    ("inf 10", "line 2: domain lower bound must be a field literal or -inf, got 'inf'"),
    ("0 x", "line 2: domain upper bound must be a field literal or inf, got 'x'"),
])
def test_bad_domain_bound_is_data_error(tmp_path, capsys, bounds, needle):
    model = tmp_path / "bounds.model"
    model.write_text("structure broken\nobserver a domain 4 %s\n" % bounds)
    code, _, err = run_cli(["check", "SpecRel", str(model)], capsys)
    _one_line_error(code, err)
    assert needle in err


@pytest.mark.parametrize("fields, message", [
    ("velocity 3/5 0 0 velocity 1/2 0 0", "observer velocity given twice"),
    ("velocity 3/5 0 0 galilean 1/2 0 0", "observer velocity given twice"),
    ("galilean 1/2 0 0 velocity 3/5 0 0", "observer velocity given twice"),
    ("translate 1 0 0 2 rotate 1 2 0 1 translate 0 0 0 1", "observer translation given twice"),
    ("domain 4 -inf 10 domain 1 0 1 domain 4 0 inf", "observer domain axis 4 given twice"),
])
def test_repeated_observer_field_is_data_error(tmp_path, capsys, fields, message):
    line = "observer a %s" % fields
    model = tmp_path / "repeated.model"
    model.write_text("structure broken\n%s\n" % line)
    code, out, err = run_cli(["check", "SpecRel", str(model)], capsys)
    _one_line_error(code, err)
    assert err == "axrel: line 2: %s in %r\n" % (message, line) and out == ""


def test_repeated_rotations_are_allowed(tmp_path, capsys):
    model = tmp_path / "turns.model"
    model.write_text("structure turns\nobserver rest\n"
                     "observer a rotate 1 2 0 1 rotate 1 2 0 1 domain 1 -1 1 domain 2 -1 1\n")
    code, _, err = run_cli(["check", "SpecRel", str(model)], capsys)
    assert code in (0, 1) and err == ""


def test_division_by_zero_in_model_is_data_error(tmp_path, capsys):
    model = tmp_path / "divzero.model"
    model.write_text("structure broken\nobserver a velocity 1/0 0 0\n")
    code, _, err = run_cli(["check", "SpecRel", str(model)], capsys)
    _one_line_error(code, err)
    assert err == "axrel: line 2: division by exact zero in 'observer a velocity 1/0 0 0'\n"


@pytest.mark.parametrize("line, message", [
    ("structure", "structure needs one name"),
    ("families photons bosons", "unknown family 'bosons'"),
    ("widget 1", "unknown declaration 'widget'"),
    ("observer rest velocity 1/2 0 zz", "unknown name 'zz'"),
    ("observer a", "duplicate body id 'a'"),
    ("body a photon through 0 0 0 0 direction 1 0 0", "duplicate body id 'a'"),
])
def test_malformed_model_line_is_data_error(tmp_path, capsys, line, message):
    model = tmp_path / "broken.model"
    model.write_text("structure broken\nobserver a  # the next declaration is malformed\n%s\n"
                     % line)
    code, out, err = run_cli(["check", "SpecRel", str(model)], capsys)
    _one_line_error(code, err)
    assert err == "axrel: line 3: %s in %r\n" % (message, line) and out == ""


@pytest.mark.parametrize("line, needle", [
    ("worldline a 0 0", "line 3: worldline needs 4 values"),
    ("meet a a 0 0 0", "line 3: meet needs 6 values"),
    ("g 1 1 1", "line 3: metric entry must read 'g I J = EXPR'"),
    ("g 1 5 = 1", "line 3: index '5' must be 1 to 4"),
    ("order x", "line 3: 'x' is not an integer in 'order x'"),
    ("domain 1 0 zz", "line 3: unknown name 'zz' in 'domain 1 0 zz'"),
    ("worldline a 0 0 q", "line 3: unknown name 'q' in 'worldline a 0 0 q'"),
])
@pytest.mark.parametrize("command", [
    ["check", "GenRel(3)"],
    ["geodesic", "--x0", "0,0,0,0", "--u0", "0,0,0,1"],
], ids=["check", "geodesic"])
def test_malformed_chart_line_is_data_error(tmp_path, capsys, line, needle, command):
    chart = tmp_path / "broken.chart"
    chart.write_text("chart broken\n# a declaration is cut short\n%s\n" % line)
    code, out, err = run_cli(command + [str(chart)], capsys)
    _one_line_error(code, err)
    assert needle in err and out == ""


@pytest.mark.parametrize("line, needle", [
    ("body f photon through 0 0 0", "line 3: photon body must read"),
    ("body r inertial through 0 0 0 0 direction 0 0 0", "line 3: inertial body must read"),
    ("body k piecewise knots 0 0 0 0 , 0 0 5", "line 3: knot 2 needs 4 coordinates"),
    ("body k piecewise 0 0 0 0", "line 3: piecewise body must read"),
    ("body lonely", "line 3: body needs a name and a kind"),
])
def test_malformed_body_line_is_data_error(tmp_path, capsys, line, needle):
    model = tmp_path / "broken.model"
    model.write_text("structure broken\nobserver rest\n%s\n" % line)
    code, _, err = run_cli(["check", "SpecRel", str(model)], capsys)
    _one_line_error(code, err)
    assert needle in err


@pytest.mark.parametrize("old, new, needle", [
    ("meet 0 0 0 10", "meet 0 0 0", "line 7: meet needs 4 values"),
    ("body home inertial through 0 0 0 0 velocity 0 0 0", "body home inertial through 0 0 0 0",
     "line 2: inertial body must read"),
    ("knots 0 0 0 0 , 3 0 0 5", "knots 0 0 0 0 , 3 0 5", "line 3: knot 2 needs 4 coordinates"),
    ("home home", "home nobody", "scenario home 'nobody' is not a declared body"),
], ids=["short-meet", "short-body", "short-knot", "undeclared-home"])
def test_malformed_scenario_line_is_data_error(tmp_path, capsys, old, new, needle):
    scenario = tmp_path / "broken.scn"
    scenario.write_text(SCENARIO.replace(old, new).lstrip("\n"))
    code, _, err = run_cli(["twin", str(scenario)], capsys)
    _one_line_error(code, err)
    assert needle in err


@pytest.mark.parametrize("step", ["0", "-0.01", "nan", "inf"])
def test_geodesic_rejects_bad_step(files, capsys, step):
    code, _, err = run_cli(["geodesic", files["rindler.chart"], "--x0", "2,0,0,0",
                            "--u0", "1/5,0,0,11/20", "--step", step], capsys)
    _one_line_error(code, err, (64, 65))
    assert "step" in err


@pytest.mark.parametrize("span", ["inf", "nan", "0", "-1"])
def test_geodesic_rejects_bad_span(files, capsys, span):
    code, out, err = run_cli(["geodesic", files["rindler.chart"], "--x0", "2,0,0,0",
                              "--u0", "1/5,0,0,11/20", "--span", span], capsys)
    _one_line_error(code, err)
    assert "span" in err and out == ""


@pytest.mark.parametrize("theory", ["GenRelX", "GenRel", "GenRel(0)", "GenRel(3"])
def test_check_rejects_malformed_genrel_name(files, capsys, theory):
    code, out, err = run_cli(["check", theory, files["rindler.chart"]], capsys)
    _one_line_error(code, err)
    assert out == ""


def test_unexpected_exception_exits_70_in_one_line(monkeypatch, capsys):
    import axrel.cli

    def boom(args):
        raise RuntimeError("simulated bug")

    monkeypatch.setattr(axrel.cli, "cmd_gtd", boom)
    code, out, err = run_cli(["gtd", "--g", "1", "--h", "1/2"], capsys)
    assert code == 70
    assert out == ""
    assert err == "axrel: internal error: RuntimeError: simulated bug\n"


def test_twin_csv_row_at_the_turnaround(files, tmp_path, capsys):
    # The README round trip: out at 3/5 until t = 5, back at -3/5.
    csv = tmp_path / "traveler.csv"
    code, _, _ = run_cli(["twin", files["trip.scn"], "--csv", str(csv)], capsys)
    assert code == 0
    rows = {float(r.split(",")[0]): [float(x) for x in r.split(",")]
            for r in csv.read_text().splitlines()[1:]}
    assert len(rows) == 101
    # The row at the knot carries the velocity of the segment it starts.
    assert rows[5.0] == [5.0, 3.0, 0.0, 0.0, -0.6, 0.0, 0.0, 4.0]
    assert rows[4.9][4] == 0.6 and rows[5.1][4] == -0.6
    assert rows[0.0][7] == 0.0 and rows[10.0][7] == 8.0


# Model-file fuzzing: lines of every kind, mostly well formed, with words
# that are out of range or malformed mixed in.  A crash exits 70; it must
# never pass for a verdict (0, 1, 2) or a rejection (64, 65).
def _mostly(valid, invalid):
    # Nine draws in ten from `valid`.
    return st.integers(0, 9).flatmap(lambda k: invalid if k == 0 else valid)


_SMALL = st.sampled_from(["0", "1", "-1", "1/2", "-1/2", "3/5", "1/3", "2", "0.5", "sqrt(2)/2"])
_LITERALS = _mostly(_SMALL, st.sampled_from(
    ["1/0", "sqrt(-1)", "0/0", "1//2", "x1", "zz", "(", "inf", "-inf", "1e3", ","]))
_WORDS = st.sampled_from([
    "velocity", "galilean", "rotate", "translate", "domain", "closed", "through",
    "direction", "knots", "photon", "inertial", "piecewise", "photons", "none", "rest", "7",
])
_NAMES = st.sampled_from(["rest", "a", "b", "k", "m", "p"])


def _numbers(count):
    # The right count of values, or now and then one short or one over.
    n = _mostly(st.just(count), st.sampled_from([count - 1, count + 1]))
    return n.flatmap(lambda n: st.lists(_LITERALS, min_size=n, max_size=n))


def _values(valid, count):
    return _mostly(st.sampled_from(valid), _numbers(count))


_VELOCITY = _values([("0", "0", "0"), ("3/5", "0", "0"), ("0", "-1/2", "1/2"),
                     ("1/3", "1/3", "1/3"), ("sqrt(2)/4", "0", "0")], 3)
_DIRECTION = _values([("1", "0", "0"), ("0", "-1", "0"), ("3/5", "4/5", "0")], 3)
_EVENT = _mostly(st.tuples(_SMALL, _SMALL, _SMALL, _SMALL), _numbers(4))
_SPACE = st.sampled_from(["0", "1/2", "1", "-1"])

_OBSERVER_FIELD = st.one_of(
    st.tuples(st.sampled_from(["velocity", "galilean"]), _VELOCITY),
    st.tuples(st.just("rotate"), _mostly(
        st.sampled_from([("1", "2", "3/5", "4/5"), ("2", "3", "0", "1"), ("1", "3", "-1", "0")]),
        st.tuples(st.sampled_from(["0", "2", "3", "x"]), st.sampled_from(["1", "2", "4"]),
                  _LITERALS, _LITERALS))),
    st.tuples(st.just("translate"), _EVENT),
    st.tuples(st.just("domain"), _mostly(st.sampled_from(["1", "2", "3", "4"]),
                                         st.sampled_from(["0", "5", "x"])),
              _mostly(st.sampled_from(["-inf", "-1", "0"]), _LITERALS),
              _mostly(st.sampled_from(["inf", "1", "10"]), _LITERALS),
              st.sampled_from([(), ("closed",)])),
)
# Knot times 0, 5, 10 keep every leg slower than light.
_KNOTS = _mostly(
    st.lists(st.tuples(_SPACE, _SPACE, _SPACE), min_size=2, max_size=3).map(
        lambda places: [p + (t,) for p, t in zip(places, ("0", "5", "10"))]),
    st.lists(_numbers(4), min_size=1, max_size=3))


def _flatten(parts):
    for part in parts:
        if isinstance(part, (tuple, list)):
            yield from _flatten(part)
        else:
            yield part


_DECLARATION = st.one_of(
    st.tuples(st.just("observer"), _NAMES,
              st.lists(_mostly(_OBSERVER_FIELD, _WORDS), min_size=1, max_size=3)),
    st.tuples(st.just("observer"), _NAMES),
    st.tuples(st.just("structure"), _mostly(_NAMES, st.lists(_NAMES, max_size=2))),
    st.tuples(st.just("families"), st.lists(
        _mostly(st.sampled_from(["photons", "inertials", "none"]), st.just("bosons")),
        max_size=3)),
    st.tuples(st.just("body"), _NAMES, st.just("photon"), _mostly(st.just("through"), _WORDS),
              _EVENT, _mostly(st.just("direction"), _WORDS), _DIRECTION),
    st.tuples(st.just("body"), _NAMES, st.just("inertial"), _mostly(st.just("through"), _WORDS),
              _EVENT, _mostly(st.just("velocity"), _WORDS), _VELOCITY),
    st.tuples(st.just("body"), _NAMES, st.just("piecewise"), _mostly(st.just("knots"), _WORDS),
              _KNOTS.map(lambda knots: [w for knot in knots for w in list(knot) + [","]][:-1])),
)
_MODEL_LINE = _mostly(
    _DECLARATION, st.tuples(st.sampled_from(["body", "widget", "#", ""]),
                            st.lists(_WORDS, max_size=4)),
).map(lambda parts: " ".join(_flatten(parts)))


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_MODEL_LINE, min_size=1, max_size=4))
def test_fuzzed_model_files_never_crash(tmp_path, capsys, lines):
    model = tmp_path / "fuzz.model"
    model.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(["check", "SpecRel", str(model)], capsys)
    assert code in (0, 1, 2, 64, 65), (lines, err)
    assert "Traceback" not in err
