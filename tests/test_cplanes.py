"""C-plane family construction and the four incidence axioms."""

import inspect
import tracemalloc
from functools import lru_cache
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hoval import cplanes, pipeline
from hoval.cplanes import build_c_planes, check_axioms
from hoval.errors import CPlaneConstructionFailed, EnumerationTooLarge
from hoval.hyperoval import (
    AffinePointSet,
    DirectionSet,
    HyperovalSpec,
    build_hyperoval,
    directions,
    is_arc,
    translation_closure_check,
)
from hoval.linearsets import cyclic_candidate, spectrum
from hoval.pipeline import run_verify_all
from hoval.projective import ProjSpace
from hoval.pseudoregulus import SecantStructure, find_long_secants
from oracles import (
    a1_all_planes,
    a2_all_pairs,
    a3_cover,
    a4_triple_scan,
    all_lines,
    in_span,
    meets_by_scan,
    planes_by_reduce,
    planes_of,
    replace,
    vector_keys,
)


def _setup(h, k, i):
    hov = build_hyperoval(HyperovalSpec(h, k, i))
    d = directions(hov.affine, hov.maps)
    s = find_long_secants(d)
    return hov, d, s


@pytest.fixture(scope="module")
def case321():
    return _setup(3, 2, 1)


@pytest.fixture(scope="module")
def family321(case321):
    hov, d, s = case321
    return build_c_planes(hov.affine, s, hov.maps)


def test_family_size_321(case321, family321):
    hov, d, s = case321
    assert len(family321) == 72
    assert family321.q == 8 and family321.m == 9
    assert len(family321) == len(hov.affine) * len(s.secants) // 8
    planes = planes_of(family321, hov.maps)
    assert len(planes) == 72
    for pl in planes:
        assert len(pl.points) == 8
        assert len(pl.rows) == 3


def test_planes_have_distinct_keys(case321, family321):
    planes = planes_of(family321, case321[0].maps)
    assert len({(pl.secant_index, pl.base) for pl in planes}) == len(family321)
    assert len(vector_keys(planes, case321[0].maps)) == len(family321)


def test_axiom_a1_321(case321, family321):
    hov, d, s = case321
    rep = check_axioms(family321, hov.maps, axioms=("A1",))["A1"]
    assert rep.ok, rep.witness
    assert rep.checked == 72 * comb(8, 2)


def test_axiom_a2_321(case321, family321):
    hov, d, s = case321
    rep = check_axioms(family321, hov.maps, axioms=("A2",))["A2"]
    assert rep.ok, rep.witness
    assert rep.checked == comb(64, 2) == 2016


def test_axiom_a3_321(case321, family321):
    hov, d, s = case321
    rep = check_axioms(family321, hov.maps, axioms=("A3",))["A3"]
    assert rep.ok, rep.witness
    # 72 planes of 64 affine points apiece tile C nine-fold, the rest once
    assert 72 * 64 == 64 * 9 + (8 ** 4 - 64)
    assert rep.detail["affine_points"] == 8 ** 4


def test_axiom_a4_321(case321, family321):
    hov, d, s = case321
    rep = check_axioms(family321, hov.maps, axioms=("A4",))["A4"]
    assert rep.ok, rep.witness
    assert rep.detail["triples"] == comb(64, 3) == 41664
    assert rep.detail["family_planes"] == 72
    assert rep.detail["four_point_planes"] == (41664 - 72 * comb(8, 3)) // 4 == 9408


def test_a4_budget_guard(case321, family321):
    hov, d, s = case321
    with pytest.raises(EnumerationTooLarge):
        check_axioms(family321, hov.maps, axioms=("A4",), budget=100)


def test_unknown_axiom_rejected(case321, family321):
    hov, d, s = case321
    with pytest.raises(ValueError):
        check_axioms(family321, hov.maps, axioms=("A5",))


def test_family_size_421():
    hov, d, s = _setup(4, 2, 1)
    fam = build_c_planes(hov.affine, s, hov.maps)
    assert len(fam) == 272
    assert fam.m == 17
    reps = check_axioms(fam, hov.maps, axioms=("A1", "A2", "A3"))
    assert all(r.ok for r in reps.values())
    assert reps["A2"].checked == comb(256, 2) == 32640


def test_family_size_331():
    hov, d, s = _setup(3, 3, 1)
    fam = build_c_planes(hov.affine, s, hov.maps)
    assert len(fam) == 4672
    assert fam.m == 73
    rep = check_axioms(fam, hov.maps, axioms=("A2",))["A2"]
    assert rep.ok, rep.witness
    assert rep.checked == comb(512, 2) == 130816


def test_cplanes_stage_at_341_builds_no_plane(monkeypatch):
    # hk = 12: 299,520 planes, none of them materialized; the family and
    # A1-A4 together stay under 10 MiB of Python allocations
    peaks = []
    build, check = pipeline.build_c_planes, pipeline.check_axioms

    def traced_build(*args, **kwargs):
        tracemalloc.start()
        return build(*args, **kwargs)

    def traced_check(*args, **kwargs):
        out = check(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return out

    monkeypatch.setattr(pipeline, "build_c_planes", traced_build)
    monkeypatch.setattr(pipeline, "check_axioms", traced_check)
    try:
        rep = run_verify_all(3, 4, 1, stages=("cplanes",))
    finally:
        tracemalloc.stop()
    cp = rep.stage("cplanes")
    assert rep.verdict == "pass" and cp.status == "ok"
    assert cp.data["planes"] == cp.data["expected_planes"] == 299520
    assert len(peaks) == 2 and max(peaks) < 10 * 2**20, peaks


def _damaged(hov):
    """C with its smallest point swapped for an affine point outside C."""
    pts = sorted(hov.affine.points)
    h = hov.maps.tower.h
    outside = next(1 | (v << h) for v in range(1, 1 << 12)
                   if (1 | (v << h)) not in hov.affine.points)
    return AffinePointSet(pts[1:] + [outside], hov.maps.ambient)


def test_damaged_set_fails_construction(case321):
    hov, d, s = case321
    damaged = _damaged(hov)
    closed, witness = translation_closure_check(damaged)
    assert not closed
    with pytest.raises(CPlaneConstructionFailed) as exc:
        build_c_planes(damaged, s, hov.maps)
    assert exc.value.witness == ("closure", witness)


def _forged_records(family):
    """Meet records no build produces: the last secant dropped, and the
    first secant's entry replaced by a copy of the second's."""
    return {
        "dropped": replace(family, secants=family.secants[:-1]),
        "repeated": replace(
            family, secants=family.secants[1:2] + family.secants[1:]
        ),
    }


def test_damaged_family_fails_a2(case321, family321):
    # a dropped secant leaves 7 vectors of W and 7 classes of V/W uncovered,
    # a repeated one covers its own twice; A2 and A3 name that, and the
    # explicit scans over the forged planes fail as well
    hov, d, s = case321
    maps = hov.maps
    n = len(hov.affine)
    for name, fam in _forged_records(family321).items():
        reps = check_axioms(fam, maps, axioms=("A2", "A3"))
        assert not reps["A2"].ok and not reps["A3"].ok, name
        planes = planes_of(fam, maps)
        assert not a2_all_pairs(planes, n).ok
        assert not a3_cover(planes, hov.affine, fam.m, maps.ambient).ok
        if name == "dropped":
            assert reps["A2"].witness == ("covered", n - 1 - 7, n - 1)
            assert reps["A3"].witness == ("coverage", 64 - 7, 64)
        else:
            tag, x, first, second = reps["A2"].witness
            assert (tag, first, second) == ("vector", 0, 1)
            assert x in family321.secants[1][1]
            assert reps["A3"].witness[0] == "class"
            assert reps["A3"].witness[2:] == (0, 1)
        _assert_witness_on_planes(reps["A2"].witness, planes, hov.affine, maps)
        _assert_witness_on_planes(reps["A3"].witness, planes, hov.affine, maps)


# -- A4: base-point scan against the full triple scan -------------------------

def _a4_both(family, maps):
    """(public A4 report, oracle triple-scan report) for one family."""
    fast = check_axioms(family, maps, axioms=("A4",), budget=None)["A4"]
    full = a4_triple_scan(planes_of(family, maps), family.c_points, maps)
    return fast, full


_TOTALS = ("triples", "family_planes", "four_point_planes")


def _histograms(d, maps, i):
    """Spectra of D by the cyclic group (when the candidate of exponent i
    verifies on D), by the pair scan and by the line tally, and one of D
    minus its least point, which A4 must not read."""
    out = {
        "group": spectrum(d, candidate=cyclic_candidate(maps, i)),
        "pair-scan": spectrum(d),
        "line-scan": spectrum(d, mode="exhaustive"),
    }
    if len(d) > 1:
        out["other-set"] = spectrum(DirectionSet(d.ordered[1:], d.space))
    return out


@lru_cache(maxsize=None)
def _a4_case(hki):
    """The family of (h, k, i), A4 by the base point and by the oracle's
    triple scan, and the spectra of its D."""
    hov, d, s = _setup(*hki)
    fam = build_c_planes(hov.affine, s, hov.maps)
    fast, full = _a4_both(fam, hov.maps)
    return hov, fam, fast, full, _histograms(d, hov.maps, hki[2])


@pytest.mark.parametrize("hki", [(3, 2, 1), (4, 2, 1)])
def test_a4_base_point_matches_triple_scan(hki):
    hov, fam, fast, full, _ = _a4_case(hki)
    assert fast.detail["mode"] == "base-point"
    assert full.detail["mode"] == "triple-scan"
    assert fast.ok and full.ok, (fast.witness, full.witness)
    assert {k: fast.detail[k] for k in _TOTALS} == {k: full.detail[k] for k in _TOTALS}
    n = len(hov.affine)
    assert fast.checked == fast.detail["pairs"] == comb(n - 1, 2)
    assert full.checked == comb(n, 3)


@pytest.mark.parametrize("path", ["group", "pair-scan", "line-scan", "other-set"])
@pytest.mark.parametrize("hki", [(3, 2, 1), (4, 2, 1)])
def test_a4_from_each_spectrum_matches_triple_scan(hki, path, line_key_calls):
    # A4 reads the line counts of the group, the pair map or the line tally
    # of D without a line key; a spectrum of another set is not read, and
    # A4 runs the pair scan of D instead
    hov, fam, _, full, hists = _a4_case(hki)
    line_key_calls.clear()
    rep = check_axioms(fam, hov.maps, axioms=("A4",), budget=None,
                       hist=hists[path])["A4"]
    n = len(hov.affine)
    assert len(line_key_calls) == (comb(n - 1, 2) if path == "other-set" else 0)
    assert rep.ok and full.ok
    assert {k: rep.detail[k] for k in _TOTALS} == {k: full.detail[k] for k in _TOTALS}
    assert rep.bins == {"group": "cyclic-group", "other-set": "pair-scan"}.get(path, path)


def test_a4_base_point_budget_counts_pairs(case321, family321):
    hov, d, s = case321
    # 1953 pairs through the base point fit, the 41664 triples would not
    rep = check_axioms(family321, hov.maps, axioms=("A4",),
                       budget=comb(63, 2))["A4"]
    assert rep.ok and rep.detail["mode"] == "base-point"
    with pytest.raises(EnumerationTooLarge) as exc:
        check_axioms(family321, hov.maps, axioms=("A4",), budget=comb(63, 2) - 1)
    assert exc.value.estimate == comb(63, 2)


# -- A1: planes through the base point against every plane --------------------

def _counting_arcs(monkeypatch):
    """Count the is_arc calls A1 makes from here on."""
    calls = []
    real = cplanes.is_arc

    def counted(pts, space):
        calls.append(len(pts))
        return real(pts, space)

    monkeypatch.setattr(cplanes, "is_arc", counted)
    return calls


@pytest.mark.parametrize("hki", [(3, 2, 1), (4, 2, 1), (3, 3, 1), (3, 3, 2)])
def test_a1_base_point_matches_all_planes(hki, monkeypatch):
    hov, d, s = _setup(*hki)
    fam = build_c_planes(hov.affine, s, hov.maps)
    full = a1_all_planes(planes_by_reduce(hov.affine, s, hov.maps), hov.maps.ambient)
    calls = _counting_arcs(monkeypatch)
    fast = check_axioms(fam, hov.maps, axioms=("A1",))["A1"]
    # each meet's q - 1 directions are distinct, so no meet is handed to is_arc
    assert calls == []
    assert fast.detail == {**full.detail, "mode": "base-point"}
    assert full.detail["mode"] == "all-planes"
    assert (fast.ok, fast.checked, fast.witness) == (full.ok, full.checked, full.witness)
    assert fast.ok and fast.checked == len(fam) * comb(fam.q, 2)


def _secant_structure(keys, maps):
    """A hand-made SecantStructure over the given lines of H_inf."""
    keys = tuple(sorted(keys))
    points = tuple(tuple(maps.hinf.line_points(*key)) for key in keys)
    return SecantStructure(secants=keys, zero_pairs=(), points=points)


def _coset_secants(c_points, maps):
    """The lines L spanned by two directions of the coset C with
    |W ∩ L| = q, as a hand-made SecantStructure: its family is every plane
    that meets C in exactly q points."""
    space, h, q = maps.hinf, maps.tower.h, maps.hinf.q
    vecs = [p >> h for p in c_points.ordered]
    dirs = sorted({space.normalize(vecs[0] ^ v) for v in vecs[1:]})
    lines = {space.pair_line_key(u, w) for u, w in combinations(dirs, 2)}
    keys = [rows for rows in lines
            if sum(space.reduce(vecs[0] ^ v, rows) == 0 for v in vecs) == q]
    return _secant_structure(keys, maps)


def _collinear_coset():
    """An additive coset of AG(4, 8) spanning one GF(8)-plane, with 0, g and
    2g collinear, and the family of its q-point planes: that one plane."""
    maps = build_hyperoval(HyperovalSpec(3, 2, 1)).maps
    space, h = maps.hinf, maps.tower.h
    g1 = space.pack((1, 2, 0, 0))
    gens = (g1, space.smul(2, g1), space.pack((0, 0, 1, 0)))
    span = {0}
    for g in gens:
        span |= {x ^ g for x in span}
    c_points = AffinePointSet((1 | (x << h) for x in span), maps.ambient)
    return maps, c_points, build_c_planes(c_points, _coset_secants(c_points, maps), maps)


def test_a4_pair_map_needs_distinct_directions(line_key_calls):
    # repeated directions from the base point: a spectrum of the distinct
    # directions has no pair for the collinear triple, so it is not read,
    # and A4 names the triple the oracle's triple scan names
    maps, c_points, family = _collinear_coset()
    d = directions(c_points, maps)
    assert len(d) < len(c_points) - 1
    hist = spectrum(d)
    line_key_calls.clear()
    rep = check_axioms(family, maps, axioms=("A4",), hist=hist)["A4"]
    assert not line_key_calls
    full = a4_triple_scan(planes_of(family, maps), c_points, maps)
    assert not rep.ok and rep.witness[0] == "collinear"
    assert rep.witness == full.witness


def test_a1_failure_under_symmetry_reports_all_planes_witness():
    # the family is one plane whose meet holds 0, g and 2g: the base-point
    # check names the collinear triple the all-planes scan names, by secant
    maps, c_points, family = _collinear_coset()
    assert len(family) == 1
    rep = check_axioms(family, maps, axioms=("A1",))["A1"]
    full = a1_all_planes(planes_of(family, maps), maps.ambient)
    assert not rep.ok and not full.ok
    assert rep.witness == ("secant", 0) + full.witness[2:]
    assert rep.checked == full.checked == comb(8, 2)


def test_a1_reads_each_difference_s_own_direction():
    # a 16-point coset of AG(4, 8) with three q-point planes, one of them
    # no arc; found by a search where A1 reading the direction of the
    # difference before each meet vector in C's order passed it
    maps = build_hyperoval(HyperovalSpec(3, 2, 1)).maps
    span = {0}
    for g in (3579, 3477, 2434, 605):
        span |= {x ^ g for x in span}
    c_points = AffinePointSet((1 | (2989 ^ x) << 3 for x in span), maps.ambient)
    family = build_c_planes(c_points, _coset_secants(c_points, maps), maps)
    assert (len(c_points), family.m) == (16, 3)
    rep = check_axioms(family, maps, axioms=("A1",))["A1"]
    full = a1_all_planes(planes_of(family, maps), maps.ambient)
    assert not rep.ok and not full.ok
    assert rep.witness[0] == "secant"
    assert not is_arc(rep.witness[2:], maps.ambient)[0]


def _random_coset(h, data):
    """An additive coset of AG(4, q), q = 2^h, of GF(2)-dimension 2 to 6.

    Half the draws take their generators from the differences of the
    (h, 2, 1) translation hyperoval, so that q-point planes turn up.
    """
    hov = build_hyperoval(HyperovalSpec(h, 2, 1))
    maps = hov.maps
    bits = 4 * h
    if data.draw(st.booleans()):
        base = hov.affine.ordered[0]
        pool = st.sampled_from([(p ^ base) >> h for p in hov.affine.ordered[1:]])
    else:
        pool = st.integers(1, (1 << bits) - 1)
    gens = data.draw(st.lists(pool, min_size=2, max_size=6))
    offset = data.draw(st.integers(0, (1 << bits) - 1))
    span = {0}
    for g in gens:
        span |= {x ^ g for x in span}
    return maps, AffinePointSet((1 | ((offset ^ x) << h) for x in span), maps.ambient)


@pytest.mark.parametrize("h", [3, 4])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a4_paths_agree_on_random_cosets(h, data):
    # PG(4, 8) and PG(4, 16); A1, and A4 from each spectrum of D, are held
    # to the full scans on the same inputs
    maps, c_points = _random_coset(h, data)
    if len(c_points) < 3:
        return
    family = build_c_planes(c_points, _coset_secants(c_points, maps), maps)
    fast, full = _a4_both(family, maps)
    assert fast.detail["mode"] == "base-point"
    assert fast.ok == full.ok, (fast.witness, full.witness)
    if fast.ok:
        assert {k: fast.detail[k] for k in _TOTALS} == {k: full.detail[k] for k in _TOTALS}
    d = directions(c_points, maps)
    for path, hist in _histograms(d, maps, 1).items():
        read = check_axioms(family, maps, axioms=("A4",), budget=None,
                            hist=hist)["A4"]
        assert read == fast, path
    a1 = check_axioms(family, maps, axioms=("A1",))["A1"]
    a1_full = a1_all_planes(planes_of(family, maps), maps.ambient)
    assert a1.ok == a1_full.ok and a1.detail["mode"] == "base-point"
    if a1.ok:
        assert a1.checked == a1_full.checked
    else:
        assert a1.witness[0] == "secant"
        assert not is_arc(a1.witness[2:], maps.ambient)[0]


# -- the family, A2 and A3 from the translation basis W -----------------------

@pytest.fixture(scope="module")
def case331():
    return _setup(3, 3, 1)


@pytest.mark.parametrize("hki", [(3, 2, 1), (4, 2, 1), (3, 3, 2)])
def test_planes_from_w_match_reduce(hki):
    # the meets binned from C's directions are the q^2 scan's, and their
    # cosets are the planes grouped by reduce
    hov, d, s = _setup(*hki)
    fam = build_c_planes(hov.affine, s, hov.maps)
    assert fam.c_points is hov.affine
    assert fam.secants == meets_by_scan(hov.affine, s.secants, hov.maps)
    assert planes_of(fam, hov.maps) == planes_by_reduce(hov.affine, s, hov.maps)


def test_planes_from_w_match_reduce_331(case331):
    hov, d, s = case331
    fam = build_c_planes(hov.affine, s, hov.maps)
    assert planes_of(fam, hov.maps) == planes_by_reduce(hov.affine, s, hov.maps)


def test_short_meet_is_refused_by_secant(case321):
    # a 3-secant meets W in 4 vectors, not q = 8: the record names that
    # secant and its meet, and grouping by reduce fails on the same secant
    hov, d, s = case321
    maps = hov.maps
    three = sorted(k for k, c in spectrum(d).multiplicities.items() if c == 3)
    keys = list(s.secants[1:]) + [three[0]]
    structure = _secant_structure(keys, maps)
    sidx = sorted(keys).index(three[0])
    with pytest.raises(CPlaneConstructionFailed) as got:
        build_c_planes(hov.affine, structure, maps)
    assert got.value.witness == ("secant", sidx, 4)
    assert str(got.value) == f"secant {sidx} meets W in 4 vectors, expected 8"
    with pytest.raises(CPlaneConstructionFailed) as want:
        planes_by_reduce(hov.affine, structure, maps)
    assert want.value.witness[:2] == ("coset", sidx)


def _without_mode(rep):
    return replace(
        rep, detail={k: v for k, v in rep.detail.items() if k != "mode"}
    )


def _on_planes(p, sidx, planes, maps):
    """The planes of secant sidx that hold the affine point p."""
    reduce = maps.ambient.reduce
    return [pl for pl in planes
            if pl.secant_index == sidx and reduce(p ^ pl.base, pl.rows[1:]) == 0]


def _assert_witness_on_planes(witness, planes, c_points, maps):
    """A failing A2 or A3 witness holds on the explicit planes: the pair or
    point it names lies on planes of both its secants, or the count of what
    is covered falls short."""
    tag = witness[0]
    if tag in ("vector", "class"):
        _, x, first, second = witness
        p = c_points.ordered[0] ^ (x << maps.tower.h)
        # the pair {c0, p} of C for A2, the affine point p off C for A3
        assert (p in c_points.points) == (tag == "vector")
        for sidx in (first, second):
            assert _on_planes(p, sidx, planes, maps)
            if tag == "vector":
                assert _on_planes(c_points.ordered[0], sidx, planes, maps)
    else:
        assert tag in ("covered", "coverage") and witness[1] < witness[2]


def _assert_w_matches_explicit(family, structure, maps):
    """A2 and A3 from the record agree with the explicit scans over the
    planes grouped by reduce: passing reports agree apart from mode, and a
    failing witness holds on those planes."""
    c_points = family.c_points
    planes = planes_by_reduce(c_points, structure, maps)
    explicit = {"A2": a2_all_pairs(planes, len(c_points)),
                "A3": a3_cover(planes, c_points, family.m, maps.ambient)}
    reps = check_axioms(family, maps, axioms=("A2", "A3"))
    for name, rep in reps.items():
        assert rep.ok == explicit[name].ok, name
        assert rep.detail["mode"] == "translation-group", name
        if rep.ok:
            assert _without_mode(rep) == _without_mode(explicit[name])
        else:
            _assert_witness_on_planes(rep.witness, planes, c_points, maps)
    return reps


@pytest.mark.parametrize("hki", [(3, 2, 1), (4, 2, 1), (3, 3, 2)])
def test_w_axioms_match_explicit_on_the_true_family(hki):
    hov, d, s = _setup(*hki)
    fam = build_c_planes(hov.affine, s, hov.maps)
    reps = _assert_w_matches_explicit(fam, s, hov.maps)
    assert reps["A2"].ok and reps["A3"].ok


def test_w_axioms_match_explicit_on_the_true_family_331(case331):
    hov, d, s = case331
    fam = build_c_planes(hov.affine, s, hov.maps)
    reps = _assert_w_matches_explicit(fam, s, hov.maps)
    assert reps["A2"].ok and reps["A3"].ok


@lru_cache(maxsize=None)
def _h2_case(k):
    """The (2, k, 1) set and the 3-secants of its direction set, from the
    spectrum's pair map: at q = 4 they look like long secants by count."""
    hov = build_hyperoval(HyperovalSpec(2, k, 1))
    d = directions(hov.affine, hov.maps)
    three = sorted(key for key, c in spectrum(d).multiplicities.items() if c == 3)
    return hov, d, three


@pytest.mark.parametrize("k", [2, 3])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_w_axioms_match_explicit_on_random_secant_choices(k, data):
    # m of the 3-secants at random: each meets W in q = 4 vectors, so the
    # record is built, but the choice seldom partitions D
    hov, d, three = _h2_case(k)
    m = (4 ** k - 1) // 3
    picks = data.draw(st.lists(st.sampled_from(three), min_size=m, max_size=m,
                               unique=True))
    structure = _secant_structure(picks, hov.maps)
    fam = build_c_planes(hov.affine, structure, hov.maps)
    _assert_w_matches_explicit(fam, structure, hov.maps)


def test_w_axioms_match_explicit_on_every_partition_221():
    # the choices of m = 5 3-secants that do partition D, found by exact
    # cover: every one passes A2 by W and is held to both explicit scans
    hov, d, three = _h2_case(2)
    on = {key: frozenset(p for p in d.points if in_span(d.space, key, p))
          for key in three}
    partitions = []

    def cover(chosen, covered):
        if len(covered) == len(d):
            partitions.append(chosen)
            return
        first = min(d.points - covered)
        for key in three:
            if first in on[key] and not on[key] & covered:
                cover(chosen + [key], covered | on[key])

    cover([], frozenset())
    assert partitions
    for picks in partitions:
        structure = _secant_structure(picks, hov.maps)
        fam = build_c_planes(hov.affine, structure, hov.maps)
        assert _assert_w_matches_explicit(fam, structure, hov.maps)["A2"].ok


# -- the meets W ∩ L_s binned from C's directions, against the q^2 scan --------

@pytest.mark.parametrize("k", [2, 3])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_meets_match_the_scan_on_overlapping_lines(k, data):
    # m lines from the 3-secants, which overlap, up to two of them swapped
    # for lines through a point of D and a random point: mostly tangents,
    # which meet W in 2 vectors, not q = 4.  On C or a translate of it,
    # whose differences from its least point come in another order, the
    # build gives the scan's sorted meets, or names its first short secant
    hov, d, three = _h2_case(k)
    space = d.space
    shift = data.draw(st.integers(0, (1 << space.bits) - 1)) << hov.maps.tower.h
    c_points = AffinePointSet((p ^ shift for p in hov.affine), hov.maps.ambient)
    m = (4 ** k - 1) // 3
    shorts = data.draw(st.integers(0, 2))
    picks = data.draw(st.lists(st.sampled_from(three), min_size=m - shorts,
                               max_size=m - shorts, unique=True))
    for _ in range(shorts):
        u = data.draw(st.sampled_from(d.ordered))
        v = space.normalize(data.draw(st.integers(1, (1 << space.bits) - 1)))
        assume(v != u)
        picks.append(space.pair_line_key(u, v))
    structure = _secant_structure(picks, hov.maps)
    want = meets_by_scan(c_points, structure.secants, hov.maps)
    short = [("secant", sidx, len(meet))
             for sidx, (_, meet) in enumerate(want) if len(meet) != 4]
    if short:
        with pytest.raises(CPlaneConstructionFailed) as got:
            build_c_planes(c_points, structure, hov.maps)
        assert got.value.witness == short[0]
    else:
        assert build_c_planes(c_points, structure, hov.maps).secants == want


def test_meets_and_a4_do_not_scan_the_secant_spaces(monkeypatch):
    # at (4,2,1) the build reads the 289 points of the m = 17 secant lines
    # that the secant search walked, and walks the 255 differences once; it
    # walks no line, makes no membership test in C and no scalar product,
    # where the L_s hold m q^2 = 4,352 vectors.  A4 reads each family line's
    # count off its meet
    hov, d, s = _setup(4, 2, 1)
    maps, c_points = hov.maps, hov.affine
    hist = spectrum(d)
    cplanes.projected_differences(c_points, maps.hinf)  # memoized on C
    walked, smuls, lookups = [], [], []
    real_line, real_smul = ProjSpace.line_points, ProjSpace.smul
    real_diffs = cplanes.projected_differences

    def line_points(self, r0, r1):
        pts = real_line(self, r0, r1)
        walked.extend(pts)
        return pts

    def smul(self, c, v):
        smuls.append(1)
        return real_smul(self, c, v)

    def differences(q_points, space):
        for u in real_diffs(q_points, space):
            lookups.append(u)
            yield u

    class Points(frozenset):
        def __contains__(self, p):
            lookups.append(None)
            return super().__contains__(p)

    monkeypatch.setattr(ProjSpace, "line_points", line_points)
    monkeypatch.setattr(ProjSpace, "smul", smul)
    monkeypatch.setattr(cplanes, "projected_differences", differences)
    monkeypatch.setattr(c_points, "points", Points(c_points.points))
    fam = build_c_planes(c_points, s, maps)
    assert (fam.m, fam.q) == (17, 16)
    assert walked == [] and smuls == []
    assert sum(map(len, s.points)) == len({p for line in s.points for p in line}) == 289
    assert lookups == list(real_diffs(c_points, maps.hinf)) and len(lookups) == 255
    monkeypatch.setattr(cplanes, "projected_differences", real_diffs)
    walked.clear()
    rep = check_axioms(fam, maps, axioms=("A4",), hist=hist)["A4"]
    assert rep.ok and not walked


def test_w_axioms_need_the_family_built_from_this_set(case321, family321):
    # the axioms take no point set: they read the C the record was built
    # from, so an equal but distinct set gets its own, equal record, and a
    # damaged set gets none
    hov, d, s = case321
    maps = hov.maps
    assert "c_points" not in inspect.signature(check_axioms).parameters
    assert family321.c_points is hov.affine
    twin = AffinePointSet(hov.affine.points, maps.ambient)
    twin_family = build_c_planes(twin, s, maps)
    assert twin_family.c_points is twin
    assert twin_family.secants == family321.secants
    axioms = ("A1", "A2", "A3", "A4")
    assert check_axioms(twin_family, maps, axioms) == check_axioms(family321, maps, axioms)
    with pytest.raises(CPlaneConstructionFailed):
        build_c_planes(_damaged(hov), s, maps)


def test_a123_memory_at_331(case331):
    # no dict over the 130,816 pairs or the 262,144 affine points
    hov, d, s = case331
    fam = build_c_planes(hov.affine, s, hov.maps)
    tracemalloc.start()
    try:
        reps = check_axioms(fam, hov.maps, axioms=("A1", "A2", "A3"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(rep.ok for rep in reps.values())
    assert peak < 5 * 2**20


# -- A4 from the verified cyclic group of D ----------------------------------

def _grouped(hov, d):
    hist = spectrum(d, candidate=cyclic_candidate(hov.maps, hov.spec.i))
    assert hist.path == "cyclic-group"
    return hist


@pytest.mark.parametrize("hki", [(3, 2, 1), (4, 2, 1)])
def test_a4_from_pair_map_matches_scan(hki, line_key_calls):
    # the N_j of the pair scan's histogram give the bins without a line key
    # and without a charge; the verdict is that of A4's own scan
    hov, d, s = _setup(*hki)
    fam = build_c_planes(hov.affine, s, hov.maps)
    hist = spectrum(d)
    line_key_calls.clear()
    from_map = check_axioms(fam, hov.maps, axioms=("A4",), budget=0,
                            hist=hist)["A4"]
    assert not line_key_calls
    scanned = check_axioms(fam, hov.maps, axioms=("A4",))["A4"]
    n = len(hov.affine)
    assert len(line_key_calls) == comb(n - 1, 2)
    assert from_map == scanned and from_map.ok
    assert from_map.detail["mode"] == "base-point"
    assert from_map.bins == scanned.bins == "pair-scan"


def test_a4_ignores_pair_map_of_another_set(case321, family321, line_key_calls):
    hov, d, s = case321
    n = len(hov.affine)
    scanned = check_axioms(family321, hov.maps, axioms=("A4",))["A4"]
    # a spectrum of a set other than the n - 1 base-point directions is
    # refused before its counts are read, even when the counts would pass:
    # D minus a point, D's counts relabelled, the verified group of (3,2,5)
    other = DirectionSet(d.ordered[1:], d.space)
    hov5 = build_hyperoval(HyperovalSpec(3, 2, 5))
    grouped5 = _grouped(hov5, directions(hov5.affine, hov5.maps))
    assert grouped5.dirs.points != d.points
    for hist in (spectrum(other), replace(spectrum(d), dirs=other), grouped5, None):
        line_key_calls.clear()
        rep = check_axioms(family321, hov.maps, axioms=("A4",), hist=hist)["A4"]
        assert len(line_key_calls) == comb(n - 1, 2)
        assert rep == scanned and rep.bins == "pair-scan"


@pytest.mark.parametrize("hki", [(3, 2, 1), (4, 2, 1)])
def test_a4_from_the_group_matches_scan(hki, line_key_calls):
    hov, d, s = _setup(*hki)
    fam = build_c_planes(hov.affine, s, hov.maps)
    hist = _grouped(hov, d)
    line_key_calls.clear()
    grouped = check_axioms(fam, hov.maps, axioms=("A4",), budget=0,
                           hist=hist)["A4"]
    assert not line_key_calls
    scanned = check_axioms(fam, hov.maps, axioms=("A4",))["A4"]
    assert grouped == scanned and grouped.ok
    assert (grouped.bins, scanned.bins) == ("cyclic-group", "pair-scan")


def _family_over(family, keys, maps):
    """The record of C's planes over the given lines of H_inf, each with its
    meet W ∩ L whatever its size (build_c_planes refuses a size other than
    q), so that the oracle scans the same planes A4 is handed."""
    return replace(family, secants=meets_by_scan(family.c_points, sorted(keys), maps))


def test_a4_group_verdict_agrees_with_the_map_on_altered_bins(case321, family321):
    # the family lines through the base point are swapped, dropped or added
    # to.  A4 from the group's spectrum and from the pair map's give one
    # report, which passes only when the triple scan does, and names a
    # family line off q - 1 = 7 points of D, or the N_j of lines left off
    # the family
    hov, d, s = case321
    maps = hov.maps
    space = maps.hinf
    grouped, mapped = _grouped(hov, d), spectrum(d)
    a = hov.affine.ordered[0] >> maps.tower.h
    longs = list(s.secants)
    three = min(k for k, c in mapped.multiplicities.items() if c == 3)
    empty = next(line for line in all_lines(space) if line not in mapped.multiplicities)
    on_three = ("plane", three, space.reduce(a, three), 3, "family")
    variants = {
        "true": (set(longs), None),
        "swapped": (set(longs[1:]) | {three}, on_three),
        "fewer": (set(longs[1:]), ("outside", 7, 9)),
        "extra": (set(longs) | {three}, on_three),
        "empty": (set(longs[1:]) | {empty}, ("outside", 7, 9)),
    }
    families = {}
    for name, (keys, witness) in variants.items():
        fam = families[name] = _family_over(family321, keys, maps)
        by_group, by_map = (check_axioms(fam, maps, axioms=("A4",), hist=hist)["A4"]
                            for hist in (grouped, mapped))
        full = a4_triple_scan(planes_of(fam, maps), hov.affine, maps)
        assert by_group == by_map and by_group.witness == witness, name
        assert by_group.ok == full.ok == (name == "true"), name
    assert families["true"] == family321
    # counts forged to fit the swapped set in every total: its 3-secant
    # through the base point is still a failing family bin
    fitted = replace(grouped, counts={**grouped.counts, 3: 589, 7: 8})
    rep = check_axioms(families["swapped"], maps, axioms=("A4",), hist=fitted)["A4"]
    assert rep.witness == on_three
    # a spectrum without N_7 fails on the true family by its count
    lost = replace(grouped, counts={j: c for j, c in grouped.counts.items() if j != 7})
    rep = check_axioms(family321, maps, axioms=("A4",), hist=lost)["A4"]
    assert rep.witness == ("outside", 7, 0)
