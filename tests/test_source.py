"""Checks on the source text of the library, its tests and its benchmarks."""

import ast
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
