"""Checks on the source text of the library, its tests and its benchmarks."""

import ast
import importlib
import pathlib

import kexnet
from kexnet.topology import GEOMETRIES, TopologyKind

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIRS = [pathlib.Path(kexnet.__file__).parent, ROOT / "tests", ROOT / "benchmarks"]


def _perfbench_bindings():
    # perfbench/tracing.py wraps each (module, attribute) of its BINDINGS by
    # name; read the pairs from its source, so perfbench is not imported.
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    (bindings,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BINDINGS"]
    ]
    return [(row.elts[0].value, row.elts[1].value) for row in bindings.elts]


def test_no_unused_imports():
    # A name an import binds must be read as a name in its module; a mention
    # in a docstring or comment does not count. __init__.py imports to export,
    # and a library module may bind a name only for perfbench's BINDINGS to
    # wrap: exactly those (module, name) pairs count as read.
    bound = set(_perfbench_bindings())
    unused = []
    for path in sorted(p for d in DIRS for p in d.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.parent == DIRS[0]:
            used |= {name for module, name in bound if module == f"kexnet.{path.stem}"}
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
    names = _perfbench_bindings()
    assert len(names) > 10
    missing = [f"{m}.{a}" for m, a in names if not hasattr(importlib.import_module(m), a)]
    assert not missing


def test_kind_facts_in_one_record():
    # A kind is named only where TopologyKind defines it, in
    # topology.GEOMETRIES, its one record, and in protocols, whose generator
    # table topology cannot import: no TopologyKind.<MEMBER> elsewhere, nor a
    # kind by its value, as in TopologyKind("lch") or kind == "lch".
    assert set(GEOMETRIES) == set(TopologyKind)
    members, values = set(TopologyKind.__members__), {k.value for k in TopologyKind}
    named = []
    for path in sorted(DIRS[0].glob("*.py")):
        if path.name == "protocols.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tops = tree.body if path.name == "topology.py" else []
        allowed = {
            id(node)
            for top in tops
            if getattr(top, "name", None) == "TopologyKind"
            or isinstance(top, ast.AnnAssign) and top.target.id == "GEOMETRIES"
            for node in ast.walk(top)
        }
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, ast.Attribute) and node.attr in members and (
                isinstance(node.value, ast.Name) and node.value.id == "TopologyKind"
            ):
                named.append(f"{path.name}:{node.lineno}: TopologyKind.{node.attr}")
            elif isinstance(node, ast.Constant) and node.value in values:
                named.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not named
