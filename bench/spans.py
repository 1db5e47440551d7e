"""In-memory spans around the layer calls of one verify-all process.

The tracer replaces the public functions that ``hoval.pipeline`` calls with
thin wrappers that record a span per call: name, start, end, the index of
the enclosing span, and a few counts read off the call's result.  Nothing in
the package itself changes.  Per-element kernels (``smul``, ``normalize``,
...) are called millions of times per run and are deliberately left
unwrapped; ``kernels.py`` times them separately.
"""

from __future__ import annotations

import resource
import time
from math import comb


class Tracer:
    def __init__(self, case_id: str):
        self.case_id = case_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append({
            "name": name,
            "case": self.case_id,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
        })
        self._stack.append(idx)
        return idx

    def close(self, idx: int, **attrs) -> None:
        span = self.spans[idx]
        span["end"] = time.perf_counter()
        span.update(attrs)
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent=None) -> int:
        """Record a span measured elsewhere (the set-up timestamps)."""
        self.spans.append({"name": name, "case": self.case_id, "start": start,
                           "end": end, "parent": parent})
        return len(self.spans) - 1

    def wrap(self, name, fn, counts=None):
        """`fn` inside a span; `name` may be a function of the call's args."""
        def traced(*args, **kwargs):
            idx = self.open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx, error=type(exc).__name__)
                raise
            self.close(idx, **(counts(result) if counts else {}))
            return result
        return traced


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _axioms_span(args, kwargs) -> str:
    axioms = kwargs.get("axioms", args[3] if len(args) > 3 else ())
    return "cplanes.a4" if tuple(axioms) == ("A4",) else "cplanes.a123"


def _spectrum_work(hist) -> dict:
    work = comb(hist.npoints, 2) if hist.mode == "pairs" else hist.nlines
    return {"work": work}


def _spread_counts(spread) -> dict:
    return {"points": len(spread.index), "maxrss_mib": _maxrss_mib()}


# name bound in hoval.pipeline -> span name (or a function picking one)
PIPELINE_SPANS = {
    "build_hyperoval": "hyperoval.build_hyperoval",
    "translation_closure_check": "hyperoval.translation_closure_check",
    "is_arc": "hyperoval.is_arc",
    "directions": "hyperoval.directions",
    "spectrum": "linearsets.spectrum",
    "spectrum_conforms": "linearsets.spectrum_conforms",
    "f2_witness": "linearsets.f2_witness",
    "scattered_check": "linearsets.scattered_check",
    "find_long_secants": "pseudoregulus.find_long_secants",
    "extract_transversals": "pseudoregulus.extract_transversals",
    "transversal_map": "pseudoregulus.transversal_map",
    "fit_semilinear": "pseudoregulus.fit_semilinear",
    "build_spread": "pseudoregulus.build_spread",
    "one_point_property": "pseudoregulus.one_point_property",
    "build_plane": "bruckbose.build_plane",
    "plane_axioms_check": "bruckbose.plane_axioms_check",
    "hyperoval_in_plane": "bruckbose.hyperoval_in_plane",
    "build_c_planes": "cplanes.build_c_planes",
    "check_axioms": _axioms_span,
}

_COUNTS = {"spectrum": _spectrum_work}


def install(tracer: Tracer) -> None:
    """Wrap the layer calls of the imported package in spans."""
    from hoval import pipeline, reduction, serialize

    for attr, name in PIPELINE_SPANS.items():
        fn = getattr(pipeline, attr)
        setattr(pipeline, attr, tracer.wrap(name, fn, _COUNTS.get(attr)))
    # called from the lazy spread properties of CorrespondenceMaps
    reduction.field_reduction_spread = tracer.wrap(
        "reduction.field_reduction_spread", reduction.field_reduction_spread,
        _spread_counts)
    # looked up as serialize.dumps by the CLI when it writes the report
    serialize.dumps = tracer.wrap(
        "serialize.dumps", serialize.dumps, lambda text: {"bytes": len(text)})


def self_seconds(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one process nest strictly (one thread, wrappers only), so the
    children of a span never overlap each other.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
