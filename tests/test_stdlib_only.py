"""The package imports nothing outside the standard library at runtime."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hoval"


def _imports(path):
    """(module, level) for every import statement of a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, 0
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", node.level


def test_every_import_is_relative_or_stdlib():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = []
    for path in files:
        for module, level in _imports(path):
            top = module.split(".")[0]
            if level == 0 and top != "hoval" and top not in sys.stdlib_module_names:
                outside.append(f"{path.name}: {module}")
    assert not outside
