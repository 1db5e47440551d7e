"""Expected verify-all outcomes, derived from the paper's formulas.

No report is pinned: every expected fact is computed from (h, k, i) with
q = 2^h, and a report is checked against the facts one by one.  A fact is
``(expected, relation)``; the relation says how the observed value must
relate to it: equal, a subset of it, or one of its members.
"""

from __future__ import annotations

STAGES = ("construct", "spectrum", "linearity", "pseudoregulus", "spread",
          "plane", "cplanes")


def expected_facts(h: int, k: int, i: int, strict: bool, stages) -> dict:
    """Facts a verify-all report for this case must show."""
    q = 1 << h
    hk = h * k
    requested = [s for s in STAGES if s in stages]
    if not strict:
        # gcd(i, hk) > 1: the direction set collapses and the spectrum
        # leaves {0, 1, 3, q-1}; every later stage is skipped
        failed = requested.index("spectrum")
        status = {s: "ok" for s in requested[:failed]}
        status["spectrum"] = "fail"
        status.update((s, "skipped") for s in requested[failed + 1:])
        return {
            "exit": (1, "eq"),
            "verdict": ("fail", "eq"),
            "stage_status": (status, "eq"),
            "offending_count_reported": (True, "eq"),
        }
    facts = {
        "exit": (0, "eq"),
        "verdict": ("pass", "eq"),
        "stage_status": ({s: "ok" for s in requested}, "eq"),
        "directions": (q**k - 1, "eq"),
        "spectrum_support": ({0, 1, 3, q - 1}, "subset"),
        "long_lines": ((q**k - 1) // (q - 1), "eq"),
    }
    if "pseudoregulus" in requested:
        facts["exponents"] = (sorted({i % hk, (hk - i) % hk}), "eq")
    if "spread" in requested:
        facts["spread_elements"] = (q**k + 1, "eq")
        facts["matches_canonical"] = (True, "eq")
    if "plane" in requested:
        facts["plane_order"] = (2**hk, "eq")
        facts["hyperoval_meets"] = ({0, 2}, "subset")  # no tangent lines
    if "cplanes" in requested:
        facts["a123"] = ("ok", "eq")
        facts["a4"] = ({"ok", "skipped"}, "in")
    return facts


def _axioms(data: dict) -> tuple:
    axioms = data.get("axioms", {})
    a123 = "ok" if all(axioms.get(a, {}).get("ok") for a in ("A1", "A2", "A3")) else "fail"
    if "A4" in axioms:
        a4 = "ok" if axioms["A4"]["ok"] else "fail"
    else:
        a4 = "skipped" if "a4_skipped" in data else "missing"
    return a123, a4


def observe(doc: dict, rc: int, q: int) -> dict:
    """The values of every fact as the report and exit code show them."""
    stages = {s["name"]: s.get("data", {}) for s in doc.get("stages", [])}
    obs = {
        "exit": rc,
        "verdict": doc.get("verdict"),
        "stage_status": {s["name"]: s["status"] for s in doc.get("stages", [])},
    }
    spec = stages.get("spectrum", {})
    if spec:
        counts = spec["histogram"]["counts"]
        obs["directions"] = spec["directions"]
        obs["spectrum_support"] = {int(j) for j, c in counts.items() if c}
        obs["long_lines"] = counts.get(str(q - 1), 0)
        obs["offending_count_reported"] = "offending_count" in spec
    if "pseudoregulus" in stages:
        obs["exponents"] = stages["pseudoregulus"].get("exponents")
    if "spread" in stages:
        obs["spread_elements"] = stages["spread"].get("elements")
        obs["matches_canonical"] = stages["spread"].get("matches_canonical")
    if "plane" in stages:
        plane = stages["plane"]
        obs["plane_order"] = plane.get("order")
        obs["hyperoval_meets"] = {int(j) for j in plane.get("hyperoval_histogram", {})}
    if "cplanes" in stages:
        obs["a123"], obs["a4"] = _axioms(stages["cplanes"])
    return obs


def mismatches(facts: dict, obs: dict) -> list[str]:
    """One line per fact the observation does not satisfy."""
    out = []
    for name, (want, relation) in facts.items():
        got = obs.get(name)
        if relation == "eq":
            ok = got == want
        elif relation == "subset":
            ok = got is not None and got <= want
        else:
            ok = got in want
        if not ok:
            out.append(f"{name}: got {got!r}, expected {relation} {want!r}")
    return out


def skipped_checks(doc: dict) -> int:
    """Checks the report says it skipped (today: ``a4_skipped``)."""
    return sum(key.endswith("_skipped") for s in doc.get("stages", [])
               for key in s.get("data", {}))


def checks_run(doc: dict) -> int:
    """Stages that ran plus the C-plane axioms that ran."""
    n = 0
    for s in doc.get("stages", []):
        if s["status"] != "skipped":
            n += 1 + len(s.get("data", {}).get("axioms", {}))
    return n
