"""The timing-free verify-all report of every small triple, and its digests.

    python tests/report_corpus.py --check     # compare with DIGESTS
    python tests/report_corpus.py --write     # record the current reports
    python tests/report_corpus.py OUTDIR      # write the reports themselves

One report per triple and mode, for every h, k >= 2 and 1 <= i < hk,
strict iff gcd(i, hk) = 1: the 97 triples with hk <= 12 in pairs mode and
the 27 with hk <= 8 in exhaustive mode.  DIGESTS holds one SHA-256 per
report, in `sha256sum` format, so a change that should move no verdict and
no figure is checked by `--check` (and by test_report_corpus.py in
tier-1); a change that means to move a report re-records the file with
`--write` and names the reports that moved.  The reports come from the
`src/` beside this file, one triple at a time in one process.
"""

import hashlib
import sys
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hoval.pipeline import run_verify_all  # noqa: E402
from hoval.serialize import dumps  # noqa: E402

RUNS = (("pairs", 12), ("exhaustive", 8))  # mode, largest hk
DIGESTS = Path(__file__).resolve().parent / "data" / "report_corpus.sha256"


def triples(limit: int):
    """(h, k, i) for h, k >= 2, hk <= limit and 1 <= i < hk."""
    for h in range(2, limit // 2 + 1):
        for k in range(2, limit // h + 1):
            for i in range(1, h * k):
                yield h, k, i


def reports():
    """(file name, report text) for every triple and mode, in order."""
    for mode, limit in RUNS:
        for h, k, i in triples(limit):
            report = run_verify_all(h, k, i, strict=gcd(i, h * k) == 1, mode=mode)
            text = dumps(report.to_json_dict(include_timings=False))
            yield f"report_{h}_{k}_{i}_{mode}.json", text


def digests() -> dict:
    """File name -> SHA-256 hex digest of its report text."""
    return {name: hashlib.sha256(text.encode("ascii")).hexdigest() for name, text in reports()}


def recorded() -> dict:
    """The digests DIGESTS records, as digests() returns them."""
    pairs = (line.split("  ", 1) for line in DIGESTS.read_text(encoding="ascii").splitlines())
    return {name: digest for digest, name in pairs}


def mismatches(now: dict, then: dict) -> list:
    """Sorted names whose digest differs, or that one of the two lacks."""
    return sorted(name for name in now.keys() | then.keys() if now.get(name) != then.get(name))


def main(argv) -> int:
    if argv == ["--write"]:
        now = digests()
        DIGESTS.write_text("".join(f"{d}  {n}\n" for n, d in now.items()), encoding="ascii")
        print(f"{len(now)} digests in {DIGESTS}")
        return 0
    if argv == ["--check"]:
        moved = mismatches(digests(), recorded())
        for name in moved:
            print(f"moved: {name}")
        print(f"{len(moved)} of the recorded reports moved")
        return 1 if moved else 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python tests/report_corpus.py --check | --write | OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    written = 0
    for name, text in reports():
        (out / name).write_text(text, encoding="ascii")
        written += 1
    print(f"{written} reports in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
