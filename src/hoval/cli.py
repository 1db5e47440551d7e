"""Command line front end.

Every subcommand prints one JSON document to stdout (or writes it with
--out) and signals through the exit code:

    0  checks passed
    1  a property check failed, or construction was refused
    2  usage error, unreadable input file, unwritable --out file, or h = 1
       for a subcommand that needs long secants
    3  an enumeration exceeded the budget, or a stage ran out of memory

detect-pseudoregulus, build-spread, bruck-bose-verify and bj-axioms are
views: each runs its stages through run_verify_all and projects the stage
data, so a view checks exactly what verify-all checks.

Only spectrum and verify-all take --parallel (default 1).  construct and
directions enumerate nothing, so take no --budget.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import serialize
from .errors import (
    EnumerationTooLarge,
    GcdHypothesisViolated,
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


def _processes(args) -> int:
    if args.parallel < 1:
        raise ParseError(f"--parallel must be at least 1, got {args.parallel}")
    return args.parallel


def _budget(args) -> int | None:
    if args.budget is None:
        return DEFAULT_BUDGET
    if args.budget < 0:
        raise ParseError(f"--budget must be at least 0, got {args.budget}")
    return args.budget or None


def _checked_spec(h, k, i, strict: bool) -> HyperovalSpec:
    """HyperovalSpec with out-of-range parameters turned into usage errors."""
    try:
        return HyperovalSpec(h, k, i, strict=strict)
    except GcdHypothesisViolated as exc:  # still exit 1, naming the CLI flag
        gcd = str(exc).split(";")[0]
        raise GcdHypothesisViolated(
            f"{gcd}; pass --allow-nonstrict to build the set anyway") from None
    except ValueError as exc:
        raise ParseError(f"bad parameters (h={h}, k={k}, i={i}): {exc}") from exc


def _spec(args) -> HyperovalSpec:
    return _checked_spec(args.h, args.k, args.i, not args.allow_nonstrict)


def _check_writable(path: str) -> None:
    """Refuse an --out path that cannot be written, before any stage runs."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="ascii"):
            pass
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc
    if not existed:
        os.remove(path)


def _emit(args, doc: dict) -> None:
    text = serialize.dumps(doc)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="ascii") as f:
                f.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {args.out}: {exc}") from exc
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


def _dirs_from_file(path: str, allow_nonstrict: bool):
    doc = serialize.load_point_set(path)
    if doc.kind != "directions":
        raise ParseError(f"expected a directions file, got kind {doc.kind!r}")
    p = doc.params
    strict = bool(p.get("strict", True)) and not allow_nonstrict
    spec = _checked_spec(p["h"], p["k"], p["i"], strict)
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
    processes = _processes(args)
    budget = _budget(args)
    if args.infile:
        spec, maps, d = _dirs_from_file(args.infile, args.allow_nonstrict)
    else:
        if None in (args.h, args.k, args.i):
            raise ParseError("need --h, --k and --i when no --in file is given")
        hov = build_hyperoval(_spec(args))
        spec, maps = hov.spec, hov.maps
        d = directions(hov.affine, maps)
    # the cyclic group verify-all checks, under its gate
    candidate = None
    if spec.is_strict_case:
        candidate = cyclic_candidate(maps, spec.i)
    hist = spectrum(
        d, mode=args.mode, budget=budget, processes=processes,
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
    budget = _budget(args)
    _spec(args)  # reject bad parameters as usage errors before the run
    return run_verify_all(
        args.h,
        args.k,
        args.i,
        strict=not args.allow_nonstrict,
        budget=budget,
        stages=stages,
        **options,
    )


_EXHAUSTED = (EnumerationTooLarge.__name__ + ":", MemoryError.__name__ + ":")


def _exit_code(rep) -> int:
    """0 when the run passed, 3 when a stage ran out of budget or memory, else 1."""
    if rep.verdict == "pass":
        return 0
    for s in rep.stages:
        if s.error and s.error.startswith(_EXHAUSTED):
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

    return _view(args, ("plane",), project)


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
    processes = _processes(args)
    stages = None
    if args.stages is not None:
        stages = tuple(s.strip() for s in args.stages.split(",") if s.strip())
        if not stages:
            raise ParseError(f"--stages names no stage, pick from {STAGE_ORDER}")
        for name in stages:
            if name not in STAGE_ORDER:
                raise ParseError(f"unknown stage {name!r}, pick from {STAGE_ORDER}")
    rep = _pipeline(args, stages, mode=args.mode, seed=args.seed,
                    processes=processes)
    _emit(args, rep.to_json_dict())
    return _exit_code(rep)


_COMMANDS = {
    "construct": (_cmd_construct, "build the point set and print it"),
    "directions": (_cmd_directions, "direction set of the affine points"),
    "spectrum": (_cmd_spectrum, "line meet counts of the direction set"),
    "detect-pseudoregulus": (_cmd_detect,
                             "secants, transversals, exponent fit, spread"),
    "build-spread": (_cmd_build_spread, "print the reconstructed spread"),
    "bruck-bose-verify": (_cmd_bruck_bose, "plane axioms and the hyperoval line scan"),
    "bj-axioms": (_cmd_bj_axioms, "C-plane incidence axioms"),
    "verify-all": (_cmd_verify_all, "run the full verification pipeline"),
}


def _add_arguments(p, command: str) -> None:
    """Add the arguments of subcommand `command` to its parser `p`."""
    required = command != "spectrum"  # spectrum can read --in instead
    p.add_argument("--h", type=int, required=required,
                   help="subfield degree, the plane order is 2^(h*k)")
    p.add_argument("--k", type=int, required=required,
                   help="tower height, ambient space is PG(2k, 2^h)")
    p.add_argument("--i", type=int, required=required,
                   help="Frobenius exponent of the defining map t -> t^(2^i)")
    p.add_argument("--allow-nonstrict", action="store_true",
                   help="accept exponents with gcd(i, hk) > 1")
    if command not in ("construct", "directions"):
        p.add_argument("--budget", type=int, default=None,
                       help="enumeration budget (0 removes the limit)")
    if command in ("spectrum", "verify-all"):
        p.add_argument("--parallel", type=int, default=1,
                       help="worker processes for the exhaustive line tally, "
                       "at least 1, capped at the CPU count")
    p.add_argument("--out", help="write the JSON document to this file")
    if command == "spectrum":
        p.add_argument("--in", dest="infile",
                       help="read a directions JSON file instead of constructing")
    if command in ("spectrum", "verify-all"):
        p.add_argument("--mode", choices=("pairs", "exhaustive"), default="pairs")
    if command == "verify-all":
        p.add_argument("--seed", type=int, default=0,
                       help="recorded in the report's params; seeds nothing")
    if command == "bj-axioms":
        p.add_argument("--axioms", default="A1,A2,A3,A4",
                       help="comma separated subset of A1,A2,A3,A4")
    if command == "verify-all":
        p.add_argument("--stages", help="comma separated stage subset")


def _build_parser(argv: list) -> argparse.ArgumentParser:
    """The parser, with the arguments of the subcommand `argv` names only.

    The top level takes no option with a value, so the first word of `argv`
    that is not an option names the subcommand.
    """
    parser = argparse.ArgumentParser(
        prog="hoval",
        description="translation hyperovals: construction and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((a for a in argv if not a.startswith("-")), None)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command == named:
            _add_arguments(p, command)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
    try:
        if args.out:
            _check_writable(args.out)
        return _COMMANDS[args.command][0](args)
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
