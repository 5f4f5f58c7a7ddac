"""Checks on the source text of the library, its tests and its benchmarks."""

import ast
import importlib
import pathlib

import kexnet

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIRS = [pathlib.Path(kexnet.__file__).parent, ROOT / "tests", ROOT / "benchmarks"]


def test_no_unused_imports():
    # A name an import binds must be read as a name in its module; a mention
    # in a docstring or comment does not count. __init__.py imports to export.
    unused = []
    for path in sorted(p for d in DIRS for p in d.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.parent.name}/{path.name}: unused import {name}")
    assert not unused


def test_perfbench_bindings_stay_bound():
    # perfbench/tracing.py wraps each (module, attribute) of its BINDINGS by
    # name; read the pairs from its source, so perfbench is not imported.
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    (bindings,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BINDINGS"]
    ]
    names = [(row.elts[0].value, row.elts[1].value) for row in bindings.elts]
    assert len(names) > 10
    missing = [f"{m}.{a}" for m, a in names if not hasattr(importlib.import_module(m), a)]
    assert not missing
