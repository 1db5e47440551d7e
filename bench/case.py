"""One benchmark case in a fresh interpreter.

    python3 bench/case.py --h H --k K --result R.json [--trace] [--setup-only] \
        -- verify-all --h H --k K --i I ... --out REPORT.json

The package keeps its fields, towers, correspondence maps and scalar tables
in process-global caches, so every CLI user pays for them cold; only a fresh
interpreter measures that.  The case first times ``import hoval`` plus
``maps_for(tower_create(h, k))`` (set-up), then one call of
``hoval.cli.main(argv)`` (verify), and writes both with the process's peak
RSS, the exit code and the report's timing-free JSON to R.json.  With
``--trace`` the layer calls run inside spans (see spans.py) and the spans
are written too.  The package must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import argparse
import json
import resource
import time

from spans import Tracer, install


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--case-id", default="")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = p.parse_args()
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    t0 = time.perf_counter()
    import hoval
    t1 = time.perf_counter()
    tower = hoval.tower_create(args.h, args.k)
    t2 = time.perf_counter()
    hoval.maps_for(tower)
    t3 = time.perf_counter()

    tracer = Tracer(args.case_id)
    root = tracer.add("setup", t0, t3)
    tracer.add("setup.import", t0, t1, root)
    tracer.add("gf2.tower_create", t1, t2, root)
    tracer.add("reduction.maps_for", t2, t3, root)
    out = {"setup_s": t3 - t0}

    if not args.setup_only:
        from hoval import cli, serialize

        dumps = serialize.dumps
        reports = []
        run_verify_all = cli.run_verify_all

        def capture(*a, **kw):
            rep = run_verify_all(*a, **kw)
            reports.append(rep)
            return rep

        cli.run_verify_all = capture
        if args.trace:
            install(tracer)
        idx = tracer.open("cli.main")
        start = time.perf_counter()
        rc = cli.main(cli_argv)
        end = time.perf_counter()
        tracer.close(idx)
        out.update(
            verify_s=end - start,
            rc=rc,
            maxrss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            canonical=(dumps(reports[0].to_json_dict(include_timings=False))
                       if reports else None),
        )
    out["spans"] = tracer.spans
    with open(args.result, "w", encoding="ascii") as f:
        json.dump(out, f)


if __name__ == "__main__":
    main()
