"""End-to-end verification: construct, then check every structural claim.

The pipeline runs a fixed sequence of stages, each wrapping one module:

    construct      build the point set, count it, check translation closure
    spectrum       direction counts of affine lines against {0, 1, 3, q-1},
                   in pairs mode from a verified cyclic symmetry of D
    linearity      binary-linearity witness and scatteredness of the
                   direction set against the canonical subline spread
    pseudoregulus  long secants, transversals, semilinear exponent fit
    spread         reconstructed line spread, canonical match, 1-point rule
    plane          incidence plane over the spread, axioms, hyperoval scan
    cplanes        plane family through the long secants, axioms A1 to A4

A stage that fails or raises stops the run; later stages report skipped.
A stage that raises a HovalError or runs out of memory reports status
"error" with the exception named in `error`.  The verdict is "pass" only
when every stage ran and came back clean.
"""

from __future__ import annotations

import time

from .bruckbose import build_plane, hyperoval_in_plane, plane_axioms_check
from .cplanes import build_c_planes, check_axioms
from .errors import HovalError
from .hyperoval import (
    HyperovalSpec,
    build_hyperoval,
    directions,
    is_arc,
    translation_closure_check,
)
from .linearsets import (
    cyclic_candidate,
    f2_witness,
    scattered_check,
    spectrum,
    spectrum_conforms,
)
from .projective import DEFAULT_BUDGET
from .pseudoregulus import (
    build_spread,
    extract_transversals,
    find_long_secants,
    fit_semilinear,
    one_point_property,
    require_long_secants,
    transversal_map,
)
from .record import Record

STAGE_ORDER = (
    "construct",
    "spectrum",
    "linearity",
    "pseudoregulus",
    "spread",
    "plane",
    "cplanes",
)


class StageResult(Record):
    name: str
    status: str  # "ok" | "fail" | "error" | "skipped"
    ok: bool
    data: dict
    error: str | None
    seconds: float


class VerificationReport(Record):
    params: dict
    verdict: str
    stages: tuple
    # the artifacts the stages built, for callers that need more than the
    # JSON data (the CLI prints the spread elements); never serialized
    run: _Run | None = None
    _uncompared = ("run",)

    def stage(self, name: str) -> StageResult:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_json_dict(self, include_timings: bool = True) -> dict:
        out_stages = []
        for s in self.stages:
            entry = {
                "name": s.name,
                "status": s.status,
                "ok": s.ok,
                "data": s.data,
                "error": s.error,
            }
            if include_timings:
                entry["seconds"] = round(s.seconds, 6)
            out_stages.append(entry)
        return {
            "schema": 1,
            "kind": "verification_report",
            "params": self.params,
            "verdict": self.verdict,
            "stages": out_stages,
        }


def _hex(p) -> str:
    return f"0x{p:x}"


def _hex_seq(seq) -> list:
    return [_hex(p) for p in seq]


class _Run:
    """Mutable state threaded through the stages."""

    def __init__(self, spec, mode, budget, processes):
        self.spec = spec
        self.mode = mode
        self.budget = budget
        self.processes = processes
        self.hov = None
        self.dirs = None
        self.hist = None  # the spectrum of dirs: line counts, pair map or group
        self.structure = None
        self.transversals = None
        self.fit = None
        self.spread_result = None
        self.dir_hits = None  # points of dirs per element of the spread


def _stage_construct(run: _Run) -> tuple[bool, dict]:
    spec = run.spec
    run.hov = build_hyperoval(spec)
    hov = run.hov
    q, k = 1 << spec.h, spec.k
    closure_ok, closure_witness = translation_closure_check(hov.affine)
    arc_ok, arc_witness = is_arc(hov.plane_points, hov.maps.plane_big)
    sizes_ok = (
        hov.size == q ** k + 2
        and len(hov.affine) == q ** k
        and len(hov.infinity) == 2
    )
    data = {
        "points": hov.size,
        "affine_points": len(hov.affine),
        "infinity_points": len(hov.infinity),
        "expected_points": q ** k + 2,
        "translation_closure": closure_ok,
        "is_arc": arc_ok,
    }
    if arc_witness is not None:
        data["collinear_witness"] = _hex_seq(arc_witness)
    if closure_witness is not None:
        data["closure_witness"] = _hex_seq(closure_witness)
    # arc failure alone does not gate: non-coprime exponents build fine and
    # are meant to fall over at the spectrum stage
    return sizes_ok and closure_ok, data


def _stage_spectrum(run: _Run) -> tuple[bool, dict]:
    spec = run.spec
    run.dirs = directions(run.hov.affine, run.hov.maps)
    # M(x, y) = (g x, g^(2^i) y) acts transitively on D for every i; the
    # spectrum checks it on D in either mode before anything reads it
    hist = spectrum(
        run.dirs, mode=run.mode, budget=run.budget, processes=run.processes,
        candidate=cyclic_candidate(run.hov.maps, spec.i),
    )
    run.hist = hist
    q = 1 << spec.h
    conforms, offender = spectrum_conforms(hist, q)
    ndirs = len(run.dirs.points)
    expected = q ** spec.k - 1
    data = {
        "directions": ndirs,
        "expected_directions": expected,
        "conforms": conforms,
        "histogram": hist.to_json_dict(),
        "path": hist.path,
    }
    if offender is not None:
        data["offending_count"] = offender
    return conforms and ndirs == expected, data


def _stage_linearity(run: _Run) -> tuple[bool, dict]:
    maps = run.hov.maps
    wit = f2_witness(run.hov.affine, run.dirs, maps)
    rep = scattered_check(wit, maps.hinf)
    data = {
        "rank": rep.rank,
        "max_rank": rep.max_rank,
        "scattered": rep.scattered,
        "is_maximum": rep.is_maximum,
        "max_meet": rep.max_meet,
        "meet_histogram": {str(k): v for k, v in sorted(rep.meet_histogram.items())},
    }
    if rep.offending_element is not None:
        data["offending_element"] = rep.offending_element
    return rep.scattered and rep.is_maximum, data


def _stage_pseudoregulus(run: _Run) -> tuple[bool, dict]:
    spec = run.spec
    maps = run.hov.maps
    run.structure = find_long_secants(run.dirs, run.budget, hist=run.hist)
    run.transversals = extract_transversals(run.structure, run.dirs.space)
    fmap = transversal_map(run.transversals)
    run.fit = fit_semilinear(run.dirs, fmap, maps)
    hk = spec.hk
    found = sorted(set(run.fit.exponents))
    expected = sorted({spec.i % hk, (hk - spec.i) % hk})
    data = {
        "long_secants": len(run.structure.secants),
        "exponents": found,
        "expected_exponents": expected,
        "labeling": run.fit.labeling,
        "chosen_exponent": run.fit.exponent,
    }
    return found == expected, data


def _stage_spread(run: _Run) -> tuple[bool, dict]:
    spec = run.spec
    maps = run.hov.maps
    run.spread_result = build_spread(run.fit, run.transversals, maps)
    res = run.spread_result
    ok1, detail = one_point_property(res, run.dirs)
    run.dir_hits = detail["hits"]
    q, k = 1 << spec.h, spec.k
    size_ok = len(res.spread.elements) == q ** k + 1
    data = {
        "elements": len(res.spread.elements),
        "expected_elements": q ** k + 1,
        "matches_canonical": res.matches_canonical,
        "exponent": res.exponent,
        "one_point": ok1,
        "hit_once": detail.get("hit_once"),
    }
    if not ok1 and detail.get("witness") is not None:
        data["one_point_witness"] = detail["witness"]
    return res.matches_canonical and ok1 and size_ok, data


def _stage_plane(run: _Run) -> tuple[bool, dict]:
    maps = run.hov.maps
    res = run.spread_result
    plane = build_plane(maps, res.spread)
    axioms = plane_axioms_check(plane, budget=run.budget)
    hrep = hyperoval_in_plane(
        run.hov.affine, res.t0_index, res.tinf_index, plane, run.dir_hits
    )
    data = {
        "order": plane.order,
        "points": plane.n_points,
        "lines": plane.n_lines,
        "axioms_mode": axioms.mode,
        "axioms_path": axioms.path,
        "axioms_ok": axioms.ok,
        "pairs_checked": axioms.pairs_checked,
        "hyperoval_ok": hrep.ok,
        "hyperoval_mode": hrep.mode,
        "hyperoval_histogram": {str(k): v for k, v in sorted(hrep.histogram.items())},
        "incidence_equivalents": hrep.incidence_equivalents,
    }
    if axioms.witness is not None:
        data["axioms_witness"] = repr(axioms.witness)
    if hrep.witness is not None:
        data["hyperoval_witness"] = repr(hrep.witness)
    return axioms.ok and hrep.ok, data


def _stage_cplanes(run: _Run) -> tuple[bool, dict]:
    spec = run.spec
    maps = run.hov.maps
    family = build_c_planes(run.hov.affine, run.structure, maps)
    q = 1 << spec.h
    n = len(run.hov.affine)
    reports = check_axioms(family, maps, axioms=("A1", "A2", "A3"))
    # A4 gets a call of its own so a trace (bench/spans.py) times it apart
    # from A1-A3.  It reads the line counts of the spectrum stage, which
    # charged them under this budget, and charges nothing itself.
    reports.update(
        check_axioms(family, maps, axioms=("A4",), budget=run.budget, hist=run.hist)
    )
    data = {
        "planes": len(family),
        "expected_planes": n * family.m // q,
        "axioms": {
            name: {
                "ok": rep.ok,
                "checked": rep.checked,
                "detail": rep.detail if rep.bins is None
                else {**rep.detail, "bins": rep.bins},
            }
            for name, rep in sorted(reports.items())
        },
    }
    for name, rep in reports.items():
        if rep.witness is not None:
            data["axioms"][name]["witness"] = repr(rep.witness)
    return all(rep.ok for rep in reports.values()), data


_STAGE_FUNCS = {
    "construct": _stage_construct,
    "spectrum": _stage_spectrum,
    "linearity": _stage_linearity,
    "pseudoregulus": _stage_pseudoregulus,
    "spread": _stage_spread,
    "plane": _stage_plane,
    "cplanes": _stage_cplanes,
}

# artifacts each stage needs; producers run silently when not requested
_PREREQS = {
    "construct": (),
    "spectrum": ("construct",),
    "linearity": ("construct", "spectrum"),
    "pseudoregulus": ("construct", "spectrum"),
    "spread": ("construct", "spectrum", "pseudoregulus"),
    "plane": ("construct", "spectrum", "pseudoregulus", "spread"),
    "cplanes": ("construct", "spectrum", "pseudoregulus"),
}


def run_verify_all(
    h: int,
    k: int,
    i: int,
    *,
    strict: bool = True,
    mode: str = "pairs",
    budget: int | None = DEFAULT_BUDGET,
    processes: int = 1,
    stages=None,
    seed: int = 0,
) -> VerificationReport:
    """Run the verification stages for one parameter triple.

    `stages` restricts which stage results are reported; prerequisites of a
    requested stage still execute (unreported) to build their artifacts.
    Raises NoLongSecants before any stage runs when h = 1 and a stage needs
    the long secants.  `seed` is recorded in `params` and seeds nothing:
    no check of the run draws a sample from it.
    """
    spec = HyperovalSpec(h, k, i, strict=strict)
    requested = tuple(STAGE_ORDER) if stages is None else tuple(stages)
    if not requested:
        raise ValueError("stages names no stage")
    for name in requested:
        if name not in _STAGE_FUNCS:
            raise ValueError(f"unknown stage {name!r}")
    # execution set: requested stages plus anything they depend on
    needed = set(requested)
    for name in requested:
        needed.update(_PREREQS[name])
    if "pseudoregulus" in needed:  # every stage from it on reads the secants
        require_long_secants(h)
    run = _Run(spec, mode, budget, processes)
    results = []
    failed = False
    for name in STAGE_ORDER:
        if name not in needed:
            continue
        report_it = name in requested
        if failed:
            if report_it:
                results.append(
                    StageResult(name, "skipped", False, {}, None, 0.0)
                )
            continue
        t0 = time.perf_counter()
        try:
            ok, data = _STAGE_FUNCS[name](run)
            status = "ok" if ok else "fail"
            err = None
        except (HovalError, MemoryError) as exc:
            ok, data = False, {}
            status = "error"
            err = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        # an unrequested prerequisite that fails still lands in the report,
        # otherwise the skip chain it causes would be unexplained
        if report_it or not ok:
            results.append(StageResult(name, status, ok, data, err, seconds))
        if not ok:
            failed = True
    verdict = "pass" if all(s.ok for s in results) else "fail"
    params = {
        "h": h,
        "k": k,
        "i": i,
        "strict": strict,
        "q": 1 << h,
        "field_degree": h * k,
        "mode": mode,
        "processes": processes,
        "seed": seed,
        "stages": list(requested),
    }
    return VerificationReport(
        params=params, verdict=verdict, stages=tuple(results), run=run
    )
