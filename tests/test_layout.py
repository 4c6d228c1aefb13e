"""Module layering: the chart layer takes its float numerics from
`axrel.numeric`, never from the accelerated-observer layer."""

import ast
from pathlib import Path

import axrel.genrel


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
