"""hoval benchmark: cold ``verify-all`` per case, in fresh interpreters.

    python3 bench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout: the package is taken from
``src/`` next to this directory and nothing is installed.  Each case runs in
its own interpreter (case.py), one process at a time, with ``--parallel 1``
and ``--seed`` set to the workload seed (the sampled plane check draws its
samples from it; the kernel micro-benchmarks draw their inputs from it).

``--trace 0`` repeats rounds over the workload's cases until ``--seconds``
have passed and prints the end-to-end metrics:

    verify_s       seconds inside cli.main, per-case median, summed over cases
    setup_s        seconds for import hoval + maps_for(tower_create(h, k)),
                   per-case median of at least SETUP_SAMPLES processes, summed
    peak_rss_mib   largest per-case median of the case processes' ru_maxrss
    cases_correct  share of case runs whose exit code, verdict and paper facts
                   match oracle.py and whose timing-free report repeats the
                   case's first one byte for byte
    checks_run     stages plus C-plane axioms the reports show as run

``--trace 1`` runs one untraced round, one traced round (spans.py) and the
kernel micro-benchmarks (kernels.py), and prints the per-layer metrics.  The
traced reports must equal the untraced ones byte for byte.  Span metrics
(``*_s``) are self seconds summed over the workload's cases.

Every run writes its record (machine, load, commit, seed, samples, problems,
metrics) and, when traced, every span to bench/out/<workload>-s<seed>-t<trace>/.
The last line of stdout is one JSON object: correct, attempted, failed
(case runs that failed a check) and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
from spans import self_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 11
# a run must end within 180 s: no round starts after this many seconds, and
# every case process is killed at DEADLINE_S
LAST_ROUND_S = 120
DEADLINE_S = 170


@dataclass(frozen=True)
class Case:
    h: int
    k: int
    i: int
    strict: bool = True
    mode: str = "pairs"
    stages: tuple = oracle.STAGES

    @property
    def id(self) -> str:
        tag = "" if self.strict else "-nonstrict"
        tag += "" if self.mode == "pairs" else f"-{self.mode}"
        return f"{self.h}.{self.k}.{self.i}{tag}"

    def argv(self, seed: int, out: Path) -> list[str]:
        argv = ["verify-all", "--h", str(self.h), "--k", str(self.k),
                "--i", str(self.i), "--parallel", "1", "--seed", str(seed),
                "--out", str(out)]
        if not self.strict:
            argv.append("--allow-nonstrict")
        if self.mode != "pairs":
            argv += ["--mode", self.mode]
        if self.stages != oracle.STAGES:
            argv += ["--stages", ",".join(self.stages)]
        return argv


_SPECTRUM_ONLY = ("construct", "spectrum")

WORKLOADS = {
    # the only workload where the A4 triple scan runs in full (2,763,520
    # triples at (4,2,1)), on the table-driven kernels of PG(3,16); (3,2,1)
    # checks its plane exhaustively; (4,2,2) walks the fail path
    "desk": (Case(3, 2, 1), Case(4, 2, 1), Case(4, 2, 2, strict=False)),
    # hk = 9: H_inf is too large for scalar tables, the plane check is
    # sampled, linearity builds s_prime over PG(17,2), A4 is refused by its cap
    "wide": (Case(3, 3, 1),),
    # the same layers reached through a scan of all 70,161 lines of PG(3,16)
    # instead of point pairs: moves with normalize and line enumeration,
    # stays flat under changes to the pair path
    "exhaustive": (Case(4, 2, 1, mode="exhaustive", stages=_SPECTRUM_ONLY),
                   Case(4, 2, 3, mode="exhaustive", stages=_SPECTRUM_ONLY),
                   Case(4, 2, 2, strict=False, mode="exhaustive",
                        stages=_SPECTRUM_ONLY)),
}

END_TO_END = {
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "cases_correct": "share",
    "checks_run": "count",
}

# span name -> per-layer metric "<span>_s" (self seconds)
SPAN_METRICS = (
    "cplanes.a4", "cplanes.a123", "cplanes.build_c_planes",
    "bruckbose.build_plane", "bruckbose.plane_axioms_check",
    "bruckbose.hyperoval_in_plane",
    "linearsets.spectrum", "pseudoregulus.find_long_secants",
    "linearsets.f2_witness", "linearsets.scattered_check",
    "reduction.field_reduction_spread",
    "pseudoregulus.extract_transversals", "pseudoregulus.fit_semilinear",
    "pseudoregulus.build_spread", "pseudoregulus.one_point_property",
    "hyperoval.build_hyperoval", "hyperoval.directions",
    "hyperoval.translation_closure_check", "hyperoval.is_arc",
    "gf2.tower_create", "serialize.dumps",
)

# measured by kernels.py on the workload's largest space
KERNEL_METRICS = {
    "gf2.mul_ns": "ns",
    "projective.smul_ns": "ns",
    "projective.normalize_ns": "ns",
    "projective.pair_line_key_ns": "ns",
    "projective.reduce_ns": "ns",
    "bruckbose.base_of_ns": "ns",
    "projective.smul_tables": "flag",
    "projective.ensure_tables_s": "s",
}

# What each per-layer metric should move, and on which workload:
#   cplanes.*                  verify_s on desk; near zero on wide, where A4
#                              is refused and only checks_run can move
#   bruckbose.*                verify_s on wide first, desk second
#   linearsets.spectrum_*, pseudoregulus.find_long_secants_s
#                              verify_s on wide; spectrum also on exhaustive
#   linearsets.f2_witness_s, linearsets.scattered_check_s, reduction.*
#                              verify_s and peak_rss_mib on wide
#   other pseudoregulus.*, hyperoval.*   verify_s on wide
#   kernels                    verify_s on desk (smul tables on) or wide (off)
#   gf2.tower_create_s         setup_s on every workload
#   serialize.*                verify_s, slightly
PER_LAYER = {
    **{f"{name}_s": "s" for name in SPAN_METRICS},
    "cplanes.a4_triples": "count",
    "bruckbose.pairs_checked": "count",
    "bruckbose.axioms_exhaustive": "count",
    "linearsets.spectrum_work": "count",
    "reduction.spread_points": "count",
    "reduction.maxrss_mib": "MiB",
    "serialize.report_bytes": "bytes",
    "pipeline.skipped_checks": "count",
    **KERNEL_METRICS,
    "pipeline.self_s": "s",
    "trace.overhead_s": "s",
}


class Runner:
    """Starts case processes for one benchmark run and keeps their results."""

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self.outdir = outdir
        self.t0 = time.perf_counter()
        self.env = dict(os.environ)
        self.env.pop("HOVAL_PARALLEL", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def _child(self, script: str, args: list[str], result: Path) -> dict | None:
        result.unlink(missing_ok=True)
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / script)] + args,
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                timeout=max(1.0, DEADLINE_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0 or not result.exists():
            return None
        return json.loads(result.read_text(encoding="ascii"))

    def case(self, case: Case, *, trace=False, setup_only=False) -> dict:
        """Run one case process; the dict lists what went wrong, if anything."""
        self.count += 1
        stem = f"{case.id}-{self.count}"
        report = self.outdir / f"{stem}.report.json"
        result = self.outdir / f"{stem}.result.json"
        report.unlink(missing_ok=True)
        args = ["--h", str(case.h), "--k", str(case.k), "--case-id", case.id,
                "--result", str(result)]
        args += ["--trace"] * trace + ["--setup-only"] * setup_only
        res = self._child("case.py", args + ["--"] + case.argv(self.seed, report),
                          result)
        if res is None:
            return {"problems": ["case process failed or timed out"]}
        res["problems"] = []
        if setup_only:
            return res
        if not report.exists():
            res["problems"].append("no report written")
            return res
        res["doc"] = json.loads(report.read_text(encoding="ascii"))
        facts = oracle.expected_facts(case.h, case.k, case.i, case.strict, case.stages)
        obs = oracle.observe(res["doc"], res["rc"], 1 << case.h)
        res["problems"] += oracle.mismatches(facts, obs)
        return res

    def kernels(self, h: int, k: int) -> dict | None:
        result = self.outdir / f"kernels-{h}.{k}.json"
        return self._child("kernels.py", ["--h", str(h), "--k", str(k), "--seed",
                                          str(self.seed), "--result", str(result)],
                           result)


def _same_report(res: dict, first: dict, what: str) -> None:
    if "canonical" in res and "canonical" in first and res["canonical"] != first["canonical"]:
        res["problems"].append(f"timing-free report differs from {what}")


def _median(results: list[dict], key: str) -> float | None:
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else None


def measure_end_to_end(runner: Runner, cases, seconds: float) -> tuple[dict, dict]:
    runs = {c.id: [] for c in cases}
    while True:
        started = runner.elapsed()
        for c in cases:
            res = runner.case(c)
            if runs[c.id]:
                _same_report(res, runs[c.id][0], "the first run of the case")
            runs[c.id].append(res)
        round_s = runner.elapsed() - started
        if runner.elapsed() >= seconds or runner.elapsed() + round_s > LAST_ROUND_S:
            break
    setups = {c.id: list(runs[c.id]) for c in cases}
    for c in cases:
        while len(setups[c.id]) < SETUP_SAMPLES and runner.elapsed() < DEADLINE_S - 10:
            setups[c.id].append(runner.case(c, setup_only=True))
    attempted = sum(len(r) for r in runs.values())
    failed = sum(bool(r["problems"]) for rs in runs.values() for r in rs)
    first = [runs[c.id][0] for c in cases if "doc" in runs[c.id][0]]
    verify = [_median(runs[c.id], "verify_s") for c in cases]
    setup = [_median(setups[c.id], "setup_s") for c in cases]
    rss = [_median(runs[c.id], "maxrss_mib") for c in cases]
    metrics = {
        "verify_s": sum(v for v in verify if v is not None),
        "setup_s": sum(v for v in setup if v is not None),
        "peak_rss_mib": max((v for v in rss if v is not None), default=0.0),
        "cases_correct": (attempted - failed) / attempted,
        "checks_run": sum(oracle.checks_run(r["doc"]) for r in first),
    }
    summary = {
        "attempted": attempted,
        "failed": failed,
        "rounds": len(runs[cases[0].id]),
        "skipped_checks": sum(oracle.skipped_checks(r["doc"]) for r in first),
    }
    return metrics, {"summary": summary, "runs": runs, "setup_runs": setups}


def _span_sums(spans_by_case: list[list[dict]]) -> dict:
    sums: dict = {}
    for spans in spans_by_case:
        for span, own in zip(spans, self_seconds(spans)):
            sums[span["name"]] = sums.get(span["name"], 0.0) + own
    return sums


def _attr(spans_by_case, name: str, key: str) -> list:
    return [s.get(key, 0) for spans in spans_by_case for s in spans if s["name"] == name]


def _stage(doc: dict, name: str) -> dict:
    return next((s["data"] for s in doc.get("stages", []) if s["name"] == name), {})


def measure_layers(runner: Runner, cases) -> tuple[dict, dict]:
    plain = [runner.case(c) for c in cases]
    traced = [runner.case(c, trace=True) for c in cases]
    for p, t in zip(plain, traced):
        _same_report(t, p, "the untraced run")
    h, k = max(((c.h, c.k) for c in cases), key=lambda hk: hk[0] * hk[1])
    kern = runner.kernels(h, k) or {}
    runs = plain + traced
    attempted = len(runs)
    failed = sum(bool(r["problems"]) for r in runs)
    spans = [r.get("spans", []) for r in traced]
    docs = [r["doc"] for r in traced if "doc" in r]
    own = _span_sums(spans)
    metrics = {f"{name}_s": own.get(name, 0.0) for name in SPAN_METRICS}
    a4 = [_stage(d, "cplanes").get("axioms", {}).get("A4", {}) for d in docs]
    planes = [_stage(d, "plane") for d in docs]
    untraced_s = sum(r.get("verify_s", 0.0) for r in plain)
    traced_s = sum(r.get("verify_s", 0.0) for r in traced)
    metrics.update({
        "cplanes.a4_triples": sum(a.get("checked", 0) for a in a4),
        "bruckbose.pairs_checked": sum(p.get("pairs_checked", 0) for p in planes),
        "bruckbose.axioms_exhaustive": sum(p.get("axioms_mode") == "exhaustive"
                                           for p in planes),
        "linearsets.spectrum_work": sum(_attr(spans, "linearsets.spectrum", "work")),
        "reduction.spread_points": sum(_attr(spans, "reduction.field_reduction_spread",
                                             "points")),
        "reduction.maxrss_mib": max(_attr(spans, "reduction.field_reduction_spread",
                                          "maxrss_mib"), default=0.0),
        "serialize.report_bytes": sum(_attr(spans, "serialize.dumps", "bytes")),
        "pipeline.skipped_checks": sum(oracle.skipped_checks(d) for d in docs),
        "pipeline.self_s": own.get("cli.main", 0.0),
        "trace.overhead_s": traced_s - untraced_s,
    })
    metrics.update({name: kern.get(name, 0) for name in KERNEL_METRICS})
    if not kern:
        failed += 1
        attempted += 1
        traced.append({"problems": ["kernel process failed or timed out"]})
    summary = {
        "attempted": attempted,
        "failed": failed,
        "kernel_space": [h, k],
        "verify_s_untraced": untraced_s,
        "verify_s_traced": traced_s,
    }
    detail = {"summary": summary, "runs": {"untraced": plain, "traced": traced},
              "kernels": kern}
    (runner.outdir / "spans.json").write_text(
        json.dumps([s for group in spans for s in group]), encoding="ascii")
    return metrics, detail


def _slim(runs: dict) -> dict:
    """Case results without the reports and spans, for the record."""
    return {key: [{k: v for k, v in r.items() if k not in ("doc", "canonical", "spans")}
                  for r in rs] for key, rs in runs.items()}


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def main(argv=None, workloads=WORKLOADS) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "hoval" / "__init__.py").is_file():
        print(f"error: no hoval package under {SRC}", file=sys.stderr)
        return 2
    # an installed package is byte-compiled; compile here too so that set-up
    # never times the compiler, even where PYTHONDONTWRITEBYTECODE is set
    compileall.compile_dir(SRC / "hoval", quiet=1)
    outdir = BENCH / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    cases = workloads[args.workload]
    load_before = os.getloadavg()
    runner = Runner(args.seed, outdir)
    if args.trace:
        metrics, detail = measure_layers(runner, cases)
        units = PER_LAYER
    else:
        metrics, detail = measure_end_to_end(runner, cases, args.seconds)
        units = END_TO_END
    summary = detail["summary"]
    record = {
        "workload": args.workload,
        "cases": [c.id for c in cases],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": runner.elapsed(),
        "machine": machine(),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "metrics": metrics,
        "summary": summary,
        "kernels": detail.get("kernels"),
        "runs": _slim(detail["runs"]),
        "setup_runs": _slim(detail.get("setup_runs", {})),
    }
    (outdir / "record.json").write_text(json.dumps(record, indent=1), encoding="ascii")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"wall {runner.elapsed():.1f} s  record {outdir.relative_to(ROOT)}/record.json")
    print(f"  {'failed_cases':<34} {summary['failed']}/{summary['attempted']}")
    for key, value in summary.items():
        if key not in ("attempted", "failed"):
            print(f"  {key:<34} {value}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:.6g} {units[name]}")
    for rs in list(record["runs"].values()) + list(record["setup_runs"].values()):
        for r in rs:
            for problem in r["problems"]:
                print(f"  problem: {problem}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
