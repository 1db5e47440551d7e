"""The benchmark's tracer (bench/spans.py) still wraps what the pipeline calls."""

import importlib.util
from pathlib import Path

from hoval import pipeline, reduction, serialize
from hoval.pipeline import run_verify_all

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_pipeline_callable():
    for attr in _spans().PIPELINE_SPANS:
        assert callable(getattr(pipeline, attr, None)), attr


def test_a_traced_run_reports_what_an_untraced_one_does(monkeypatch):
    spans = _spans()
    plain = run_verify_all(3, 2, 1).to_json_dict(include_timings=False)
    # every attribute install replaces, snapshotted so that it is restored
    for attr in spans.PIPELINE_SPANS:
        monkeypatch.setattr(pipeline, attr, getattr(pipeline, attr))
    monkeypatch.setattr(reduction, "field_reduction_spread",
                        reduction.field_reduction_spread)
    monkeypatch.setattr(serialize, "dumps", serialize.dumps)
    # the span name of check_axioms is read off its axioms= keyword
    calls = []
    real = pipeline.check_axioms

    def check_axioms(*args, **kwargs):
        calls.append((len(args), sorted(kwargs)))
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "check_axioms", check_axioms)
    tracer = spans.Tracer("3-2-1")
    spans.install(tracer)
    traced = run_verify_all(3, 2, 1)
    assert traced.verdict == "pass"
    assert traced.to_json_dict(include_timings=False) == plain
    left = {span["name"] for span in tracer.spans}
    named = {name for name in spans.PIPELINE_SPANS.values() if isinstance(name, str)}
    assert named | {"cplanes.a123", "cplanes.a4"} <= left
    assert calls and all(n == 2 and "axioms" in kw for n, kw in calls)
