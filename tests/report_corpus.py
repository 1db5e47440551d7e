"""Write the timing-free verify-all report of every small triple to OUTDIR.

    python tests/report_corpus.py OUTDIR

One file per triple and mode, for every h, k >= 2 and 1 <= i < hk, strict
iff gcd(i, hk) = 1: the 97 triples with hk <= 12 in pairs mode and the 27
with hk <= 8 in exhaustive mode.  A change that should move no verdict and
no figure is checked by running this in both trees and comparing the two
directories with `diff -r`.  The reports come from the `src/` beside this
file, one triple at a time in one process.  pytest does not collect it.
"""

import sys
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hoval.pipeline import run_verify_all  # noqa: E402
from hoval.serialize import dumps  # noqa: E402

RUNS = (("pairs", 12), ("exhaustive", 8))  # mode, largest hk


def triples(limit: int):
    """(h, k, i) for h, k >= 2, hk <= limit and 1 <= i < hk."""
    for h in range(2, limit // 2 + 1):
        for k in range(2, limit // h + 1):
            for i in range(1, h * k):
                yield h, k, i


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tests/report_corpus.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    written = 0
    for mode, limit in RUNS:
        for h, k, i in triples(limit):
            report = run_verify_all(h, k, i, strict=gcd(i, h * k) == 1, mode=mode)
            text = dumps(report.to_json_dict(include_timings=False))
            (out / f"report_{h}_{k}_{i}_{mode}.json").write_text(text, encoding="ascii")
            written += 1
    print(f"{written} reports in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
