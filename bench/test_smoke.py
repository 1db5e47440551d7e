"""Smoke test of the benchmark on (3,2,1) alone (about 20 s).

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402

SMOKE = {"smoke": (run.Case(3, 2, 1),)}
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="ascii"))


def _run(capsys, trace: int):
    argv = ["--workload", "smoke", "--seed", "1", "--seconds", "1",
            "--trace", str(trace)]
    assert run.main(argv, workloads=SMOKE) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(capsys, trace, section):
    text, result = _run(capsys, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    printed = {line.split()[0]: line.split()[-1] for line in text if line.startswith("  ")}
    for name, unit in want.items():
        assert printed.get(name) == unit, name


def test_wrong_expected_fact_is_a_failed_case(capsys, monkeypatch):
    expected_facts = oracle.expected_facts

    def one_direction_too_many(*args):
        facts = expected_facts(*args)
        want, relation = facts["directions"]
        facts["directions"] = (want + 1, relation)
        return facts

    monkeypatch.setattr(oracle, "expected_facts", one_direction_too_many)
    text, result = _run(capsys, 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["cases_correct"]["value"] == 0
    assert any(line.split()[:2] == ["failed_cases", f"{result['failed']}/{result['attempted']}"]
               for line in text)
    assert any("directions: got 63" in line for line in text)
