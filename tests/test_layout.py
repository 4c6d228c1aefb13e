"""Module layering.

- The chart layer takes its float numerics from `axrel.numeric`, never
  from the accelerated-observer layer.
- Only the chart layer (`axrel.genrel`) imports numpy, and it loads on
  first use, so the exact commands never pay for numpy.
"""

import ast
import subprocess
import sys
from pathlib import Path

import axrel.genrel

SRC = Path(axrel.genrel.__file__).resolve().parent.parent


def _imported_modules(path):
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")
            for alias in node.names:
                yield "." * node.level + (node.module + "." if node.module else "") + alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name


def test_genrel_imports_nothing_from_accel():
    imported = set(_imported_modules(axrel.genrel.__file__))
    assert not {m for m in imported if m in (".accel", "axrel.accel")
                or m.startswith((".accel.", "axrel.accel."))}
    assert ".numeric" in imported


def test_only_genrel_imports_numpy():
    importers = sorted(
        str(path.relative_to(SRC)) for path in (SRC / "axrel").rglob("*.py")
        if any(m == "numpy" or m.startswith("numpy.") for m in _imported_modules(path)))
    assert importers == ["axrel/genrel.py"]


_PROBE = """
import sys
sys.path.insert(0, {src!r})
{body}
print(sorted(m for m in ("numpy", "axrel.genrel") if m in sys.modules))
"""


def _loaded_after(body, tmp_path):
    out = subprocess.run([sys.executable, "-c", _PROBE.format(src=str(SRC), body=body)],
                         capture_output=True, text=True, check=True, cwd=tmp_path).stdout
    return out.strip().splitlines()[-1]


def test_exact_layers_load_without_numpy(tmp_path):
    for module in ("axrel", "axrel.cli", "axrel.accel"):
        assert _loaded_after("import " + module, tmp_path) == "[]", module


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
