"""Package-wide invariants: stdlib-only imports, no floating point, no
unused import and no unreferenced top-level definition."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "d43crystal").glob("*.py"))


def _allowed(module):
    root = module.split(".", 1)[0]
    return root == "d43crystal" or root in sys.stdlib_module_names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_intra_package(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        bad = [n for n in names if not _allowed(n)]
        assert not bad, f"{path.name}:{node.lineno} imports {bad}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floating_point(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            assert not isinstance(node.value, (float, complex)), (
                f"{path.name}:{node.lineno} has the literal {node.value!r}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id != "float", (
                f"{path.name}:{node.lineno} calls float()")


def test_scan_sees_the_package():
    assert {p.name for p in SOURCES} >= {"exactalg.py", "rmatrix.py",
                                          "cli.py"}


def _unused_imports(tree):
    """Names bound by an import statement and never read in the module."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".", 1)[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in bound.items() if name not in used}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = _unused_imports(tree)
    assert not unused, f"{path.name} imports unused names {unused}"


ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(p for d in ("src", "tests", "benchmarks")
                 for p in (ROOT / d).rglob("*.py"))
DEFS = (ast.FunctionDef, ast.ClassDef)


def _reads(node, path, own):
    """Keys of the names and attributes read under node: a name the file
    defines at top level resolves to that file, any other name and every
    attribute to the name alone."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr, None
        elif isinstance(sub, ast.Name):
            yield sub.id, path if sub.id in own else None


def test_every_top_level_definition_is_referenced():
    # a top-level def or class of the package that nothing in src/, tests/
    # or benchmarks/ reads outside its own body is dead code; a test oracle
    # of the same name does not keep it alive
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in SCANNED}
    owns = {path: {node.name for node in tree.body if isinstance(node, DEFS)}
            for path, tree in trees.items()}
    refs = Counter()
    for path, tree in trees.items():
        refs.update(_reads(tree, path, owns[path]))
    dead = []
    for path in SOURCES:
        for node in trees[path].body:
            if isinstance(node, DEFS):
                inner = Counter(_reads(node, path, owns[path]))
                keys = ((node.name, None), (node.name, path))
                if all(refs[k] == inner[k] for k in keys):
                    dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert not dead, f"unreferenced definitions: {dead}"
