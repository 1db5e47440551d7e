"""The package imports nothing outside the standard library at runtime, and
a serial run never loads the worker pool or `dataclasses`."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# runs in a fresh interpreter: sys.argv[1] is a scratch directory for --out;
# prints whether `array` is loaded after the import and after each run, the
# modules the runs loaded, then every loaded module
_SERIAL_RUNS = """
import json, sys
import hoval, hoval.cli
loaded = {"import": "array" in sys.modules}
before = set(sys.modules)
out = sys.argv[1] + "/report.json"
for name, argv in (
        ("pairs", ["verify-all", "--h", "3", "--k", "2", "--i", "1"]),
        ("exhaustive", ["spectrum", "--h", "3", "--k", "2", "--i", "1",
                        "--mode", "exhaustive"])):
    rc = hoval.cli.main(argv + ["--parallel", "1", "--out", out])
    assert rc == 0, (argv, rc)
    loaded[name] = "array" in sys.modules
print(json.dumps(loaded))
print(json.dumps(sorted(set(sys.modules) - before)))
print(json.dumps(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory):
    """(array loaded after each step, modules loaded at the end, modules
    the runs loaded) of the serial runs above."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SERIAL_RUNS, str(tmp_path_factory.mktemp("out"))],
        env=env, capture_output=True, text=True, check=True,
    )
    *_, loaded, by_runs, modules = proc.stdout.splitlines()
    return json.loads(loaded), json.loads(modules), json.loads(by_runs)


def test_a_serial_run_loads_no_process_pool(serial_run):
    # the pool is imported where a tally starts more than one worker, so
    # neither the import nor a --parallel 1 run may pull it in
    modules = serial_run[1]
    assert "hoval.linearsets" in modules
    pool = [m for m in modules
            if m.startswith("multiprocessing") or m == "concurrent.futures.process"]
    assert not pool
    # the records are no dataclasses, so start-up skips inspect and its chain
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(modules)


def test_only_the_line_tally_loads_array(serial_run):
    # the tally packs its columns with `array`, imported where it builds
    # them, so `import hoval` and a pairs-mode verify-all never load it
    assert serial_run[0] == {"import": False, "pairs": False, "exhaustive": True}


def test_out_runs_load_no_codec(serial_run):
    # --out is written as bytes, so no text-mode open looks up a codec
    by_runs = serial_run[2]
    assert "array" in by_runs  # the exhaustive run's tally, so the diff is live
    assert not [m for m in by_runs if m.split(".")[0] == "encodings"]
