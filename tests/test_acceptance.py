"""Acceptance checks, one test per numbered criterion.

Every test prints a single "[criterion N] PASS/FAIL ..." line before it
asserts, so the run log carries one verdict line per criterion.  All
checks are exact; the timed ones use generous single-core bounds.
"""

import random
import time
from math import comb

from hoval.bruckbose import build_plane, hyperoval_in_plane, plane_axioms_check
from hoval.cplanes import build_c_planes, check_axioms
from hoval.errors import HovalError, NotF2Linear
from hoval.hyperoval import (
    AffinePointSet,
    HyperovalSpec,
    build_hyperoval,
    directions,
    translation_closure_check,
)
from hoval.linearsets import f2_witness, scattered_check, spectrum, spectrum_conforms
from hoval.pipeline import run_verify_all
from hoval.pseudoregulus import extract_transversals, find_long_secants
from oracles import detect_pseudoregulus, s_prime, scattered_by_elements

STRICT_CASES = ((3, 2, 1), (4, 2, 1), (4, 2, 3), (3, 3, 1), (3, 3, 2))
CONTROL = (4, 2, 2)

_CASE_CACHE: dict = {}
_CHAIN_CACHE: dict = {}


def _case(h, k, i, strict=True):
    key = (h, k, i, strict)
    if key not in _CASE_CACHE:
        hov = build_hyperoval(HyperovalSpec(h, k, i, strict=strict))
        _CASE_CACHE[key] = (hov, directions(hov.affine, hov.maps))
    return _CASE_CACHE[key]


def _chain(h, k, i):
    key = (h, k, i)
    if key not in _CHAIN_CACHE:
        hov, d = _case(h, k, i)
        _CHAIN_CACHE[key] = detect_pseudoregulus(d, hov.maps)
    return _CHAIN_CACHE[key]


def _verdict(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_01_spectrum_law():
    frozen = {
        (3, 2, 1): ({0: 1376, 1: 2772, 3: 588, 7: 9}, 4745, 5.0),
        (4, 2, 1): ({0: 21184, 1: 38760, 3: 10200, 15: 17}, 70161, 60.0),
    }
    notes = []
    ok = True
    for h, k, i in STRICT_CASES:
        hov, d = _case(h, k, i)
        q = 1 << h
        mode = "exhaustive" if (h, k, i) in frozen else "pairs"
        t0 = time.perf_counter()
        hist = spectrum(d, mode=mode)
        dt = time.perf_counter() - t0
        conforms, offender = spectrum_conforms(hist, q)
        case_ok = conforms
        if (h, k, i) in frozen:
            counts, nlines, bound = frozen[(h, k, i)]
            case_ok = case_ok and hist.counts == counts and hist.nlines == nlines
            case_ok = case_ok and dt < bound
        elif k == 3:
            case_ok = case_ok and dt < 60.0
        notes.append(f"({h},{k},{i}) {mode} {dt:.2f}s support={sorted(hist.support)}")
        ok = ok and case_ok
    _verdict(1, ok, "; ".join(notes))
    assert ok, notes


def test_criterion_02_negative_control():
    h, k, i = CONTROL
    hov, d = _case(h, k, i, strict=False)
    hist = spectrum(d)
    conforms, offender = spectrum_conforms(hist, 1 << h)
    rep = run_verify_all(h, k, i, strict=False)
    stage = rep.stage("spectrum")
    ok = (
        not conforms
        and offender is not None
        and offender not in (0, 1, 3, 15)
        and rep.verdict == "fail"
        and stage.status == "fail"
        and rep.stage("construct").ok
    )
    _verdict(2, ok, f"|D|={len(d.points)} offending count={offender} "
                    f"pipeline fails at spectrum stage")
    assert ok


def test_criterion_03_linearity_and_scatteredness():
    notes = []
    ok = True
    for h, k, i in STRICT_CASES:
        hov, d = _case(h, k, i)
        hk = h * k
        size_ok = len(d.points) == (1 << hk) - 1
        wit = f2_witness(hov.affine, d, hov.maps)
        rep = scattered_check(wit, hov.maps.hinf)
        case_ok = (
            size_ok and wit.rank == hk and rep.scattered and rep.is_maximum
        )
        if hk <= 8:
            # the enumerated (h-1)-spread is the oracle for the fibre count
            case_ok = case_ok and scattered_by_elements(wit, s_prime(hov.maps)) == rep
        notes.append(f"({h},{k},{i}) |D|={len(d.points)} rank={wit.rank}")
        ok = ok and case_ok
    _verdict(3, ok, "; ".join(notes))
    assert ok, notes


def test_criterion_04_pseudoregulus_structure():
    notes = []
    ok = True
    for h, k, i in STRICT_CASES:
        hov, d = _case(h, k, i)
        q = 1 << h
        m = ((q ** k) - 1) // (q - 1)
        rep = _chain(h, k, i)
        s, t = rep.structure, rep.transversals
        disjoint = set(t.side0).isdisjoint(t.side_inf)
        zeros_covered = set(t.side0) | set(t.side_inf) == set(s.zero_points)
        case_ok = (
            s.count == m
            and len(s.zero_points) == 2 * m
            and len(t.t0) == k
            and len(t.t_inf) == k
            and disjoint
            and zeros_covered
        )
        notes.append(f"({h},{k},{i}) m={s.count} zeros={len(s.zero_points)}")
        ok = ok and case_ok
    _verdict(4, ok, "; ".join(notes))
    assert ok, notes


def test_criterion_05_spread_properties():
    notes = []
    ok = True
    for h, k, i in STRICT_CASES:
        hov, d = _case(h, k, i)
        q = 1 << h
        rep = _chain(h, k, i)
        res = rep.spread_result
        n_el = len(res.spread.elements)
        # Spread.reduced already validated the sources of the partition of H_inf
        indices_ok = (
            0 <= res.t0_index < n_el
            and 0 <= res.tinf_index < n_el
            and res.t0_index != res.tinf_index
        )
        case_ok = (
            n_el == q ** k + 1
            and indices_ok
            and rep.one_point_ok
            and rep.one_point_detail["hit_once"] == len(d.points)
        )
        notes.append(f"({h},{k},{i}) elements={n_el} "
                     f"hit_once={rep.one_point_detail['hit_once']}")
        ok = ok and case_ok
    _verdict(5, ok, "; ".join(notes))
    assert ok, notes


def test_criterion_06_semilinear_exponents():
    notes = []
    ok = True
    for h, k, i in STRICT_CASES:
        rep = _chain(h, k, i)
        hk = h * k
        found = sorted(set(rep.fit.exponents))
        expected = sorted({i % hk, (hk - i) % hk})
        ok = ok and found == expected
        notes.append(f"({h},{k},{i}) exponents={found}")
    _verdict(6, ok, "; ".join(notes))
    assert ok, notes


def test_criterion_07_hyperoval_reconstruction():
    # (3,2,1): complete scan of all 4161 lines of the built plane
    hov, d = _case(3, 2, 1)
    rep = _chain(3, 2, 1)
    res = rep.spread_result
    t0 = time.perf_counter()
    plane = build_plane(hov.maps, res.spread)
    axioms = plane_axioms_check(plane)
    hrep = hyperoval_in_plane(
        hov.affine,
        res.spread.elements[res.t0_index],
        res.spread.elements[res.tinf_index],
        plane,
    )
    closure_321 = translation_closure_check(hov.affine)[0]
    dt321 = time.perf_counter() - t0
    ok1 = (
        axioms.ok
        and plane.n_lines == 4161
        and hrep.ok
        and hrep.lines_checked == 4161
        and set(hrep.histogram) <= {0, 2}
        and sum(hrep.histogram.values()) == 4161
        and sum(j * c for j, c in hrep.histogram.items()) == 66 * 65
        and closure_321
        and dt321 < 60.0
    )

    # (4,2,1): complete line scan, at least 1e6 incidence equivalents
    hov4, d4 = _case(4, 2, 1)
    rep4 = _chain(4, 2, 1)
    res4 = rep4.spread_result
    plane4 = build_plane(hov4.maps, res4.spread)
    hrep4 = hyperoval_in_plane(
        hov4.affine,
        res4.spread.elements[res4.t0_index],
        res4.spread.elements[res4.tinf_index],
        plane4,
    )
    closure_421 = translation_closure_check(hov4.affine)[0]
    ok2 = (
        hrep4.ok
        and set(hrep4.histogram) <= {0, 2}
        and hrep4.incidence_equivalents >= 10 ** 6
        and closure_421
    )
    ok = ok1 and ok2
    _verdict(
        7, ok,
        f"(3,2,1) 4161 lines max meet 2, closure, {dt321:.2f}s; "
        f"(4,2,1) {hrep4.incidence_equivalents} incidence equivalents, closure",
    )
    assert ok


def test_criterion_08_cplane_axioms():
    notes = []
    ok = True
    for h, k, i in ((3, 2, 1), (4, 2, 1)):
        hov, d = _case(h, k, i)
        q = 1 << h
        n = len(hov.affine)
        rep = _chain(h, k, i)
        family = build_c_planes(hov.affine, rep.structure, hov.maps)
        reports = check_axioms(family, hov.maps, budget=max(10 ** 8, comb(n, 3)))
        all_ok = all(r.ok for r in reports.values())
        pair_identity = len(family) * comb(q, 2) == comb(n, 2)
        a4 = reports["A4"].detail
        triple_identity = (
            a4["family_planes"] * comb(q, 3)
            == len(family) * comb(q, 3)
            == a4["triples"] - 4 * a4["four_point_planes"]
        )
        case_ok = all_ok and pair_identity and triple_identity
        notes.append(
            f"({h},{k},{i}) planes={len(family)} "
            f"pairs={len(family) * comb(q, 2)} "
            f"family_triples={len(family) * comb(q, 3)}"
        )
        ok = ok and case_ok
    _verdict(8, ok, "; ".join(notes))
    assert ok, notes


def _mutants(hov, n=10, seed=20260819):
    rng = random.Random(seed)
    pts = sorted(hov.affine.points)
    spec = hov.spec
    width_bits = 2 * spec.k * spec.h
    out = []
    for _ in range(n):
        victim = rng.randrange(len(pts))
        while True:
            repl = 1 | (rng.randrange(1 << width_bits) << spec.h)
            if repl not in hov.affine.points:
                break
        mutated = frozenset(pts[:victim] + pts[victim + 1:]) | {repl}
        out.append(AffinePointSet(mutated, hov.maps.ambient))
    return out


def test_criterion_09_mutation_sensitivity():
    hov, d = _case(3, 2, 1)
    maps = hov.maps
    spec = hov.spec
    rep = _chain(3, 2, 1)
    res = rep.spread_result
    plane = build_plane(maps, res.spread)
    t0_rows = res.spread.elements[res.t0_index]
    tinf_rows = res.spread.elements[res.tinf_index]
    good_structure = rep.structure

    def detect_c3(qset, dirs):
        if len(dirs.points) != (1 << spec.hk) - 1:
            return f"|D|={len(dirs.points)}"
        try:
            wit = f2_witness(qset, dirs, maps)
        except NotF2Linear as exc:
            return f"NotF2Linear: {exc}"
        srep = scattered_by_elements(wit, s_prime(maps))
        if wit.rank != spec.hk or not (srep.scattered and srep.is_maximum):
            return f"rank={wit.rank} scattered={srep.scattered}"
        return None

    def detect_c4(qset, dirs):
        try:
            s = find_long_secants(dirs)
            extract_transversals(s, dirs.space)
        except HovalError as exc:
            return f"{type(exc).__name__}"
        if s.count != 9:
            return f"secant count {s.count}"
        return None

    def detect_c5(qset, dirs):
        try:
            drep = detect_pseudoregulus(dirs, maps)
        except HovalError as exc:
            return f"{type(exc).__name__}"
        if not drep.one_point_ok or not drep.spread_result.matches_canonical:
            return "spread properties failed"
        return None

    def detect_c7(qset, dirs):
        try:
            hrep = hyperoval_in_plane(qset, t0_rows, tinf_rows, plane)
        except HovalError as exc:
            return f"{type(exc).__name__}"
        if not hrep.ok:
            return f"line witness {hrep.witness}"
        if not translation_closure_check(qset)[0]:
            return "closure broken"
        return None

    def detect_c8(qset, dirs):
        try:
            family = build_c_planes(qset, good_structure, maps)
        except HovalError as exc:
            return f"{type(exc).__name__}"
        reports = check_axioms(family, maps)
        bad = [name for name, r in sorted(reports.items()) if not r.ok]
        return f"axioms {bad} failed" if bad else None

    detectors = {
        "c3": detect_c3,
        "c4": detect_c4,
        "c5": detect_c5,
        "c7": detect_c7,
        "c8": detect_c8,
    }
    failures = []
    detected = {name: 0 for name in detectors}
    for idx, mutant in enumerate(_mutants(hov)):
        dirs = directions(mutant, maps)
        for name, fn in detectors.items():
            witness = fn(mutant, dirs)
            if witness is None:
                failures.append((idx, name))
            else:
                detected[name] += 1
    ok = not failures
    _verdict(
        9, ok,
        "10 mutants, detections " +
        ", ".join(f"{name}:{cnt}/10" for name, cnt in detected.items()),
    )
    assert ok, failures


def test_criterion_10_oracle_agreement():
    notes = []
    ok = True
    # (3,3,1): the tally covers the 19,477,641 lines of PG(5,8) within
    # the default budget
    cases = [(3, 2, 1, True), (4, 2, 1, True), (4, 2, 3, True),
             (3, 3, 1, True), (4, 2, 2, False)]
    for h, k, i, strict in cases:
        hov, d = _case(h, k, i, strict=strict)
        a = spectrum(d, mode="pairs")
        b = spectrum(d, mode="exhaustive")
        same = a.counts == b.counts and a.nlines == b.nlines
        notes.append(f"({h},{k},{i}) {'agree' if same else 'DIFFER'}")
        ok = ok and same
    _verdict(10, ok, "; ".join(notes))
    assert ok, notes
