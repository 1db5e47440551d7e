"""The reference scans in tests/oracles.py stay out of the package."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "hoval"


def _defined(path):
    """Names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_no_oracle_is_defined_in_the_package():
    oracles = _defined(TESTS / "oracles.py")
    assert {"planes_by_reduce", "histogram_by_scan", "mat_inv", "tower_columns"} <= oracles
    shared = [f"{path.name}: {name}"
              for path in sorted(SRC.glob("*.py"))
              for name in sorted(_defined(path) & oracles)]
    assert not shared
