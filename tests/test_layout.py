"""Module layering.

- Importing the package loads no layer: each public name loads its home
  module on first use.  The prediction layers (`field`, `kinematics`,
  `model`, `accel`) load none of the formula layers (`semantics`,
  `syntax`, `intervals`).
- `axrel.cli` loads every layer but the chart layer with the module, and
  the chart layer compiles the exact layers before it loads numpy.
- The certified reductions (`certify`), the IND solver (`ind`), the
  interval layer and the chart layer never import the evaluator
  (`semantics`) at module level, so the chart layer does not load it.
- The chart layer takes its float numerics from `axrel.numeric`, never
  from the accelerated-observer layer.
- Only the chart layer (`axrel.genrel`) imports numpy, and it loads on
  first use, so the exact commands never pay for numpy.
- No module imports `dataclasses`, and the entry points load neither it
  nor `inspect` nor OpenSSL's `_hashlib`: each costs every fresh
  interpreter milliseconds of import.
- No module imports a name it never uses, and every function the
  benchmark's tracer wraps still exists.
- The float checks take no step, tolerance or sample-count parameter
  that no caller sets: their parameter lists are pinned here, and a
  numeric worldline has one velocity estimator, `numeric.velocity_at`.
- Only `model` tests which kind a worldline is, but to reject a wrong
  kind of input: the kinds map, split and parametrise themselves, and
  say whether a body on them is IB or Ph.
- A value the code derives, or one that a single setting fixes, is no
  argument: a body's IB and Ph, an IND instance's field language, a
  chart suite's order, a geodesic's drift flag, the solver-call cap and
  a custom IND battery are not parameters.
- Only `kinematics` tests which kind a chart is, but to reject a wrong
  kind of input: every chart answers `apply`, `inverse()`, `compose`
  and `is_exact`.
"""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import axrel.genrel

SRC = Path(axrel.genrel.__file__).resolve().parent.parent


def _import_names(node):
    if isinstance(node, ast.ImportFrom):
        yield "." * node.level + (node.module or "")
        for alias in node.names:
            yield "." * node.level + (node.module + "." if node.module else "") + alias.name
    elif isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name


def _imported_modules(path):
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        yield from _import_names(node)


def test_genrel_imports_nothing_from_accel():
    imported = set(_imported_modules(axrel.genrel.__file__))
    assert not {m for m in imported if m in (".accel", "axrel.accel")
                or m.startswith((".accel.", "axrel.accel."))}
    assert ".numeric" in imported


def _importers(module):
    return sorted(
        str(path.relative_to(SRC)) for path in (SRC / "axrel").rglob("*.py")
        if any(m == module or m.startswith(module + ".") for m in _imported_modules(path)))


def test_only_genrel_imports_numpy():
    assert _importers("numpy") == ["axrel/genrel.py"]


def test_no_module_imports_dataclasses():
    assert _importers("dataclasses") == []


_PROBE = """
import sys
sys.path.insert(0, {src!r})
{body}
print(sorted(m for m in {watched!r} if m in sys.modules))
"""


def _loaded_after(body, tmp_path, watched=("numpy", "axrel.genrel")):
    code = _PROBE.format(src=str(SRC), body=body, watched=watched)
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, check=True, cwd=tmp_path).stdout
    return out.strip().splitlines()[-1]


def _program_modules():
    return tuple(sorted(
        ".".join(("axrel",) + path.relative_to(SRC / "axrel").with_suffix("").parts)
        .replace(".__init__", "") for path in (SRC / "axrel").rglob("*.py")))


def test_importing_the_package_loads_no_layer(tmp_path):
    body = "import axrel\nassert set(axrel.__all__) <= set(dir(axrel))"
    assert _loaded_after(body, tmp_path, _program_modules()) == "['axrel']"


def test_lower_layers_load_without_the_formula_layers(tmp_path):
    # Verdicts come from axrel.verdict, so checking a prediction does not
    # load the evaluator, the parser or the interval solver.
    formula_layers = ("axrel.semantics", "axrel.syntax", "axrel.intervals")
    for module in ("axrel.field", "axrel.kinematics", "axrel.model", "axrel.accel"):
        assert _loaded_after("import " + module, tmp_path, formula_layers) == "[]", module


def test_cli_loads_every_layer_but_the_charts_with_the_module(tmp_path):
    # So main(), which the benchmark times apart from the import, imports
    # nothing but the chart layer.
    expected = [m for m in _program_modules() if m != "axrel.genrel"]
    assert _loaded_after("import axrel.cli", tmp_path, _program_modules()) == str(expected)


def test_genrel_compiles_the_exact_layers_before_numpy(tmp_path):
    body = ("import axrel.genrel\nloaded = list(sys.modules)\n"
            "assert loaded.index('axrel.ind') < loaded.index('numpy'), loaded\n"
            "assert 'axrel.certify' in loaded, loaded")
    watched = ("numpy", "axrel.genrel", "axrel.semantics")
    assert _loaded_after(body, tmp_path, watched) == "['axrel.genrel', 'numpy']"


def _module_level_imports(path):
    # Imports outside every function body: the ones that run on import.
    stack = list(ast.parse(Path(path).read_text(encoding="utf-8")).body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _import_names(node)
            stack.extend(ast.iter_child_nodes(node))


def test_lower_modules_import_nothing_from_the_evaluator_at_module_level():
    for module in ("certify", "ind", "intervals", "genrel"):
        imported = set(_module_level_imports(SRC / "axrel" / (module + ".py")))
        assert not {m for m in imported if m in (".semantics", "axrel.semantics")
                    or m.startswith((".semantics.", "axrel.semantics."))}, module
    # The guard sees cli's top-level import and skips the ones in ind's functions.
    assert ".semantics" in set(_module_level_imports(SRC / "axrel" / "cli.py"))
    assert ".semantics" not in set(_module_level_imports(SRC / "axrel" / "ind.py"))
    assert ".semantics" in set(_imported_modules(SRC / "axrel" / "ind.py"))


def test_exact_layers_load_without_numpy(tmp_path):
    for module in ("axrel", "axrel.cli", "axrel.accel"):
        assert _loaded_after("import " + module, tmp_path) == "[]", module


def test_entry_points_load_no_dataclasses_inspect_or_openssl(tmp_path):
    for module in ("axrel", "axrel.cli", "axrel.accel"):
        loaded = _loaded_after("import " + module, tmp_path, ("dataclasses", "inspect", "_hashlib"))
        assert loaded == "[]", module
    # numpy itself imports inspect, so only the other two are watched here.
    assert _loaded_after("import axrel.genrel", tmp_path, ("dataclasses", "_hashlib")) == "[]"


def test_rejected_chart_commands_load_without_numpy(tmp_path):
    chart = tmp_path / "flat.chart"
    chart.write_text("chart flat\ng 1 1 = 1\ng 2 2 = 1\ng 3 3 = 1\ng 4 4 = 0 - 1\n")
    for argv in (["check", "GenRelX", str(chart)],
                 ["geodesic", str(chart), "--x0", "0,0,0,0", "--u0", "0,0,0,1", "--step", "0"]):
        body = "from axrel.cli import main\nassert main(%r) == 65" % (argv,)
        assert _loaded_after(body, tmp_path) == "[]", argv


def test_chart_names_still_import_from_the_package(tmp_path):
    body = "from axrel import rindler_chart, geodesic\nassert geodesic.__module__ == 'axrel.genrel'"
    assert _loaded_after(body, tmp_path) == "['axrel.genrel', 'numpy']"


def test_every_public_name_imports_from_the_package():
    import axrel

    for module, names in axrel._EXPORTS.items():
        home = importlib.import_module("axrel." + module)
        for name in names:
            namespace = {}
            exec("from axrel import " + name, namespace)
            assert namespace[name] is getattr(home, name), name
    assert axrel.__all__ == sorted(n for names in axrel._EXPORTS.values() for n in names)
    star = {}
    exec("from axrel import *", star)
    assert set(axrel.__all__) <= set(star) and set(axrel.__all__) <= set(dir(axrel))
    with pytest.raises(AttributeError):
        axrel.no_such_name
    with pytest.raises(ImportError):
        exec("from axrel import no_such_name", {})


def _annotation_names(node):
    # Names in an annotation, including one written as a quoted string.
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                quoted = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))


def _unused_imports(path):
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    unused = {str(path.relative_to(SRC)): _unused_imports(path)
              for path in sorted((SRC / "axrel").rglob("*.py")) if path.name != "__init__.py"}
    assert {module: names for module, names in unused.items() if names} == {}


def test_unused_import_check_sees_quoted_annotations(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("from a import B, C, D\nimport e.f\n\n"
                      "def g(x: 'B') -> 'list[C]':\n    return e.f\n")
    assert _unused_imports(module) == [(1, "D")]


def _tracer():
    path = SRC.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    # The tracer replaces owner.__dict__[name], so a name inherited or
    # missing from its owner would stop a traced benchmark run.
    tracer = _tracer()
    missing = []
    for layer, targets in tracer.LAYERS.items():
        for module, path in targets:
            try:
                owner, attr = tracer._resolve(module, path)
            except (ImportError, AttributeError):
                missing.append((layer, module, path))
                continue
            if attr not in vars(owner):
                missing.append((layer, module, path))
    assert missing == []


# Each float check's parameters: what a caller sets (the CLI's step and
# span, perfbench's max_halvings, the tests' drift_tolerance and rate_fn)
# and nothing else.  Steps, tolerances and sample counts are constants.
_FLOAT_CHECK_PARAMETERS = {
    "genrel.geodesic": ("chart", "x0", "u0", "span", "step", "max_halvings",
                        "drift_tolerance"),
    "genrel.check_axph_minus": ("chart", "p"),
    "genrel.check_axev_minus": ("domains", "worldlines"),
    "genrel.check_axdiff": ("transform", "n", "probe_points", "declared_order"),
    "genrel.normal_frame": ("chart", "p"),
    "genrel.check_chart_theory": ("config", "n"),
    "genrel.check_axself_minus": ("observer_chart", "worldline", "sample_times"),
    "genrel.check_axsymt_minus": ("chart", "obs1", "obs2", "t_meet", "rate_fn"),
    "genrel.FloatBox.sample_points": ("self",),
    "genrel.MetricChart.__init__": ("self", "g", "domain", "order", "name"),
    "accel.check_axcmv": ("s", "o", "t"),
    "accel._numeric_proper_time": ("w", "t0", "t1"),
    "numeric.richardson_derivative": ("f", "t", "t_min", "t_max"),
    "numeric.velocity_at": ("w", "t"),
}


def test_float_checks_take_no_unset_knobs():
    import inspect

    got = {}
    for path in _FLOAT_CHECK_PARAMETERS:
        module, *names = path.split(".")
        obj = importlib.import_module("axrel." + module)
        for name in names:
            obj = getattr(obj, name)
        got[path] = tuple(inspect.signature(obj).parameters)
    assert got == _FLOAT_CHECK_PARAMETERS
    assert axrel.genrel.MetricChart._fields == ("g", "domain", "order", "name")


def test_a_numeric_worldline_has_one_velocity_estimator():
    # accel and genrel differentiate numeric worldlines only through
    # numeric.velocity_at; neither defines an estimator of its own.
    import axrel.accel

    for module in (axrel.accel, axrel.genrel):
        assert module.velocity_at is importlib.import_module("axrel.numeric").velocity_at
        own = [name for name in vars(module) if "velocity" in name and name != "velocity_at"]
        assert own == [], module.__name__


_WORLDLINE_KINDS = {"InertialLine", "PhotonLine", "PiecewiseInertial", "SmoothNumeric"}
_CHART_KINDS = {"AffineMap", "PoincareMap", "DifferentiableChart"}


def _kind_tests(path, kinds):
    """(function, rejects) for each isinstance call on one of the classes
    named in kinds in the module: rejects is True when the call, alone or
    negated, is the test of an `if` whose body only raises."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    rejecting = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and not node.orelse and \
                all(isinstance(stmt, ast.Raise) for stmt in node.body):
            test = node.test
            if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
                test = test.operand
            rejecting.add(id(test))
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Name) \
                    and child.func.id == "isinstance" and len(child.args) == 2:
                classes = child.args[1].elts if isinstance(child.args[1], ast.Tuple) \
                    else [child.args[1]]
                if {getattr(k, "id", None) for k in classes} & kinds:
                    sites.append((".".join(scope), id(child) in rejecting))
            visit(child, inner)

    visit(tree, ())
    return sites


def test_only_model_tests_a_worldline_kind_except_to_reject_one():
    # The kinds map, split and parametrise themselves in `model`, and a
    # body's is_inertial and is_photon say which straight kind it rides.
    # Other layers may test a worldline's class only to refuse a wrong
    # kind: a non-numeric chart worldline, a NoFTL body off a line.
    sites = sorted((str(path.relative_to(SRC)), function, rejects)
                   for path in (SRC / "axrel").rglob("*.py") if path.name != "model.py"
                   for function, rejects in _kind_tests(path, _WORLDLINE_KINDS))
    assert sites == [
        ("axrel/genrel.py", "_tangent_of", True),
        ("axrel/kinematics.py", "_arrival_time", True),
    ]


def test_only_kinematics_tests_a_chart_kind_except_to_reject_one():
    # Exact and numeric charts answer the same questions, and the exact
    # strategies ask `is_exact`.  Other layers may test a chart's class only
    # to refuse a wrong kind: serialize_model refuses a numeric chart.
    sites = sorted((str(path.relative_to(SRC)), function, rejects)
                   for path in (SRC / "axrel").rglob("*.py") if path.name != "kinematics.py"
                   for function, rejects in _kind_tests(path, _CHART_KINDS))
    assert sites == [("axrel/model.py", "serialize_model", True)]


# Constructors and checks that take no value the code can work out: the
# body's IB and Ph come from its worldline, an IND instance's field
# language from its formula, a chart suite's order from its chart and a
# geodesic's drift flag from its drift; the solver-call cap is a constant
# and check_theory always runs the configured IND battery.
_DERIVED_VALUES_ARE_NO_ARGUMENTS = {
    ("axrel.model", "Body.__init__"): ("self", "id", "worldline"),
    ("axrel.verdict", "Budget.__init__"): ("self", "samples", "seed"),
    ("axrel.semantics", "check_theory"): ("s", "theory", "budget"),
    ("axrel.syntax.corpus", "IndInstance.__init__"):
        ("self", "name", "formula", "var", "expected_sup", "param_values"),
    ("axrel.genrel", "ChartSuiteConfig.__init__"): ("self", "chart", "observers", "meets"),
    ("axrel.genrel", "GeodesicResult.__init__"):
        ("self", "lambdas", "points", "tangents", "conservation_drift", "drift_tolerance",
         "step", "truncated", "worldline"),
}


def test_derived_values_are_no_arguments():
    import inspect

    got = {}
    for module, path in _DERIVED_VALUES_ARE_NO_ARGUMENTS:
        obj = importlib.import_module(module)
        for name in path.split("."):
            obj = getattr(obj, name)
        got[module, path] = tuple(inspect.signature(obj).parameters)
    assert got == _DERIVED_VALUES_ARE_NO_ARGUMENTS
    from axrel.genrel import ChartSuiteConfig, GeodesicResult
    from axrel.syntax.corpus import IndInstance

    assert "field_language" not in IndInstance._fields
    assert "order" not in ChartSuiteConfig._fields
    assert "drift_flagged" not in GeodesicResult._fields
