"""The README's Library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_prints_its_comments():
    block = _library_block()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert prints
    expected = []
    for line in prints:
        m = re.fullmatch(r"print\(.*?\)\s+# (.*)", line)
        assert m, f"no output comment: {line}"
        expected.append(m.group(1))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
