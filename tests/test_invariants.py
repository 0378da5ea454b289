"""Package-wide invariants: stdlib-only imports and no floating point."""

import ast
import sys
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
