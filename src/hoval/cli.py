"""Command line front end.

Every subcommand prints one JSON document to stdout (or writes it with
--out) and signals through the exit code:

    0  checks passed
    1  a property check failed, or construction was refused
    2  usage error, unreadable input file, or h = 1 for a subcommand
       that needs long secants
    3  an enumeration exceeded the budget

detect-pseudoregulus, build-spread, bruck-bose-verify and bj-axioms are
views: each runs its stages through run_verify_all and projects the stage
data, so a view checks exactly what verify-all checks.

Set HOVAL_PARALLEL to change the default worker count of --parallel.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import serialize
from .errors import (
    EnumerationTooLarge,
    HovalError,
    IrreducibleCheckFailed,
    NoLongSecants,
    ParseError,
    UnsupportedDegree,
)
from .gf2 import tower_create
from .hyperoval import DirectionSet, HyperovalSpec, build_hyperoval, directions
from .linearsets import cyclic_candidate, spectrum, spectrum_conforms
from .pipeline import STAGE_ORDER, run_verify_all
from .projective import DEFAULT_BUDGET
from .reduction import maps_for

_AXIOM_NAMES = ("A1", "A2", "A3", "A4")
_PLANE_MODE_HELP = (
    "auto (default) checks every point pair when the q^2k vectors of "
    "V(2k, q) number at most 2^20 (every hk <= 10), from one mark per "
    "direction of each spread element, and spot checks above that"
)


def _default_parallel() -> int:
    raw = os.environ.get("HOVAL_PARALLEL", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _budget(args) -> int | None:
    if args.budget is None:
        return DEFAULT_BUDGET
    return None if args.budget <= 0 else args.budget


def _checked_spec(h, k, i, strict: bool) -> HyperovalSpec:
    """HyperovalSpec with out-of-range parameters turned into usage errors."""
    try:
        return HyperovalSpec(h, k, i, strict=strict)
    except ValueError as exc:
        raise ParseError(f"bad parameters (h={h}, k={k}, i={i}): {exc}") from exc


def _spec(args) -> HyperovalSpec:
    return _checked_spec(args.h, args.k, args.i, not args.allow_nonstrict)


def _emit(args, doc: dict) -> None:
    text = serialize.dumps(doc)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="ascii") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_construct(args) -> int:
    hov = build_hyperoval(_spec(args))
    _emit(args, serialize.hyperoval_dict(hov))
    return 0


def _cmd_directions(args) -> int:
    hov = build_hyperoval(_spec(args))
    d = directions(hov.affine, hov.maps)
    _emit(args, serialize.point_set_dict("directions", d.points, hov.spec, hov.maps))
    return 0


def _dirs_from_file(path: str):
    doc = serialize.load_point_set(path)
    if doc.kind != "directions":
        raise ParseError(f"expected a directions file, got kind {doc.kind!r}")
    p = doc.params
    spec = _checked_spec(p["h"], p["k"], p["i"], bool(p.get("strict", True)))
    try:
        tower = tower_create(spec.h, spec.k, *doc.moduli)
    except (IrreducibleCheckFailed, UnsupportedDegree) as exc:
        raise ParseError(f"bad field in {path}: {exc}") from exc
    maps = maps_for(tower)
    hinf = maps.hinf
    limit = 1 << (hinf.width * hinf.field.m)
    for pt in doc.points:
        if not 0 < pt < limit or hinf.normalize(pt) != pt:
            raise ParseError(f"0x{pt:x} is not a normalized point of the space")
    return spec, maps, DirectionSet(doc.points, hinf)


def _cmd_spectrum(args) -> int:
    if args.infile:
        spec, maps, d = _dirs_from_file(args.infile)
    else:
        if None in (args.h, args.k, args.i):
            raise ParseError("need --h, --k and --i when no --in file is given")
        hov = build_hyperoval(_spec(args))
        spec, maps = hov.spec, hov.maps
        d = directions(hov.affine, maps)
    # the cyclic group verify-all reads the spectrum from, under its gate
    candidate = None
    if args.mode == "pairs" and spec.is_strict_case:
        candidate = cyclic_candidate(maps, spec.i)
    hist = spectrum(
        d, mode=args.mode, budget=_budget(args), processes=args.parallel,
        candidate=candidate,
    )
    conforms, offender = spectrum_conforms(hist, 1 << spec.h)
    doc = serialize.spectrum_dict(hist, spec, maps)
    doc["conforms"] = conforms
    if offender is not None:
        doc["offending_count"] = offender
    _emit(args, doc)
    return 0 if conforms else 1


def _pipeline(args, stages, **options):
    """run_verify_all over the parameters and common flags of `args`."""
    _spec(args)  # reject bad parameters as usage errors before the run
    return run_verify_all(
        args.h,
        args.k,
        args.i,
        strict=not args.allow_nonstrict,
        budget=_budget(args),
        processes=args.parallel,
        stages=stages,
        **options,
    )


def _exit_code(rep) -> int:
    """0 when the run passed, 3 when a stage ran out of budget, else 1."""
    if rep.verdict == "pass":
        return 0
    for s in rep.stages:
        if s.error and s.error.startswith(EnumerationTooLarge.__name__ + ":"):
            return 3
    return 1


def _view(args, stages, project, **options) -> int:
    """Run `stages` of the pipeline and print the document `project` makes.

    `project(rep)` returns the document and whether its checks passed.  If a
    requested stage raised or was skipped, there is nothing to project: the
    stage that went wrong is named on stderr instead.
    """
    rep = _pipeline(args, stages, **options)
    missed = [s.name for s in rep.stages
              if s.name in stages and s.status in ("error", "skipped")]
    if missed:
        bad = next(s for s in rep.stages if not s.ok)
        reason = bad.error or f"check failed, so {', '.join(missed)} did not run"
        print(f"error: {bad.name} {bad.status}: {reason}", file=sys.stderr)
        return _exit_code(rep)
    doc, ok = project(rep)
    _emit(args, doc)
    return 0 if ok else 1


def _report_head(kind: str, rep) -> dict:
    hov = rep.run.hov
    return {
        "schema": serialize.SCHEMA_VERSION,
        "kind": kind,
        "params": serialize.params_header(hov.spec, hov.maps),
    }


def _cmd_detect(args) -> int:
    def project(rep):
        ps = rep.stage("pseudoregulus").data
        sp = rep.stage("spread").data
        ok = rep.verdict == "pass"
        doc = _report_head("pseudoregulus_report", rep)
        doc.update(
            long_secants=ps["long_secants"],
            exponents=ps["exponents"],
            labeling=ps["labeling"],
            chosen_exponent=ps["chosen_exponent"],
            spread_elements=sp["elements"],
            matches_canonical=sp["matches_canonical"],
            one_point=sp["one_point"],
            ok=ok,
        )
        return doc, ok

    return _view(args, ("pseudoregulus", "spread"), project)


def _cmd_build_spread(args) -> int:
    def project(rep):
        sp = rep.stage("spread").data
        hov = rep.run.hov
        doc = serialize.spread_dict(rep.run.spread_result.spread, hov.spec, hov.maps)
        doc["exponent"] = sp["exponent"]
        doc["matches_canonical"] = sp["matches_canonical"]
        return doc, rep.verdict == "pass"

    return _view(args, ("spread",), project)


def _cmd_bruck_bose(args) -> int:
    def project(rep):
        plane = rep.stage("plane")
        doc = _report_head("bruck_bose_report", rep)
        doc.update(plane.data, ok=plane.ok)
        return doc, plane.ok

    return _view(args, ("plane",), project,
                 plane_mode=args.plane_mode, seed=args.seed)


def _cmd_bj_axioms(args) -> int:
    names = tuple(s.strip().upper() for s in args.axioms.split(",") if s.strip())
    if not names:
        raise ParseError(f"--axioms names no axiom, pick from {_AXIOM_NAMES}")
    for name in names:
        if name not in _AXIOM_NAMES:
            raise ParseError(f"unknown axiom {name!r}, pick from {_AXIOM_NAMES}")

    def project(rep):
        cp = rep.stage("cplanes").data
        axioms = {name: cp["axioms"][name] for name in names}
        ok = all(a["ok"] for a in axioms.values())
        doc = _report_head("cplane_report", rep)
        doc.update(
            planes=cp["planes"],
            long_secants=rep.stage("pseudoregulus").data["long_secants"],
            axioms=axioms,
            ok=ok,
        )
        return doc, ok

    return _view(args, ("pseudoregulus", "cplanes"), project)


def _cmd_verify_all(args) -> int:
    stages = None
    if args.stages is not None:
        stages = tuple(s.strip() for s in args.stages.split(",") if s.strip())
        if not stages:
            raise ParseError(f"--stages names no stage, pick from {STAGE_ORDER}")
        for name in stages:
            if name not in STAGE_ORDER:
                raise ParseError(f"unknown stage {name!r}, pick from {STAGE_ORDER}")
    rep = _pipeline(args, stages, mode=args.mode,
                    plane_mode=args.plane_mode, seed=args.seed)
    _emit(args, rep.to_json_dict())
    return _exit_code(rep)


def _add_params(p, required=True):
    p.add_argument("--h", type=int, required=required,
                   help="subfield degree, the plane order is 2^(h*k)")
    p.add_argument("--k", type=int, required=required,
                   help="tower height, ambient space is PG(2k, 2^h)")
    p.add_argument("--i", type=int, required=required,
                   help="Frobenius exponent of the defining map t -> t^(2^i)")
    p.add_argument("--allow-nonstrict", action="store_true",
                   help="accept exponents with gcd(i, hk) > 1")


def _add_common(p):
    p.add_argument("--budget", type=int, default=None,
                   help="enumeration budget (0 removes the limit)")
    p.add_argument("--parallel", type=int, default=_default_parallel(),
                   help="worker processes for the exhaustive line scan, "
                   "at least 1, capped at the CPU count")
    p.add_argument("--out", help="write the JSON document to this file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoval",
        description="translation hyperovals: construction and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the point set and print it")
    _add_params(p)
    _add_common(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("directions", help="direction set of the affine points")
    _add_params(p)
    _add_common(p)
    p.set_defaults(func=_cmd_directions)

    p = sub.add_parser("spectrum", help="line meet counts of the direction set")
    _add_params(p, required=False)
    _add_common(p)
    p.add_argument("--in", dest="infile",
                   help="read a directions JSON file instead of constructing")
    p.add_argument("--mode", choices=("pairs", "exhaustive"), default="pairs")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("detect-pseudoregulus",
                       help="secants, transversals, exponent fit, spread")
    _add_params(p)
    _add_common(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("build-spread", help="print the reconstructed spread")
    _add_params(p)
    _add_common(p)
    p.set_defaults(func=_cmd_build_spread)

    p = sub.add_parser("bruck-bose-verify",
                       help="plane axioms and the hyperoval line scan")
    _add_params(p)
    _add_common(p)
    p.add_argument("--plane-mode", choices=("auto", "exhaustive", "sampled"),
                   default="auto", help=_PLANE_MODE_HELP)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bruck_bose)

    p = sub.add_parser("bj-axioms", help="C-plane incidence axioms")
    _add_params(p)
    _add_common(p)
    p.add_argument("--axioms", default="A1,A2,A3,A4",
                   help="comma separated subset of A1,A2,A3,A4")
    p.set_defaults(func=_cmd_bj_axioms)

    p = sub.add_parser("verify-all", help="run the full verification pipeline")
    _add_params(p)
    _add_common(p)
    p.add_argument("--mode", choices=("pairs", "exhaustive"), default="pairs")
    p.add_argument("--plane-mode", choices=("auto", "exhaustive", "sampled"),
                   default="auto", help=_PLANE_MODE_HELP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stages", help="comma separated stage subset")
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.parallel < 1:
            raise ParseError(f"--parallel must be at least 1, got {args.parallel}")
        return args.func(args)
    except (ParseError, NoLongSecants) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except HovalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
