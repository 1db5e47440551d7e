"""Incidence plane construction, plane axioms, hyperoval line scan."""

import random
import tracemalloc
from collections import Counter

import pytest

from hoval.errors import EnumerationTooLarge, InvalidSpread
from hoval.gf2 import tower_create
from hoval.hyperoval import (
    AffinePointSet,
    HyperovalSpec,
    build_hyperoval,
    directions,
    translation_closure_check,
)
from hoval.bruckbose import (
    PlaneAxiomsReport,
    _histogram_by_fibres,
    _quadrangle_ok,
    build_plane,
    hyperoval_in_plane,
    plane_axioms_check,
)
from hoval.pipeline import run_verify_all
from hoval.reduction import Spread, maps_for
from oracles import (
    LINE_PAIR_SAMPLES,
    affine_line,
    coset_bases,
    detect_pseudoregulus,
    direction_marks,
    forged_spread,
    histogram_by_rank,
    histogram_by_scan,
    line_pair_meets,
    meet,
    pair_scan,
    plane_lines,
    sampled_check,
    subspace_points,
)


@pytest.fixture(scope="module")
def setup321():
    hov = build_hyperoval(HyperovalSpec(3, 2, 1))
    d = directions(hov.affine, hov.maps)
    rep = detect_pseudoregulus(d, hov.maps)
    plane = build_plane(hov.maps, rep.spread_result.spread)
    return hov, d, rep, plane


def test_plane_counts_321(setup321):
    _, _, _, plane = setup321
    assert plane.order == 64
    assert plane.n_points == 64 * 64 + 65 == 4161
    assert plane.n_lines == 64 * 65 + 1 == 4161
    # each affine line has order affine points, all distinct
    pts = affine_line(plane, 0, coset_bases(plane, 0)[0])
    assert len(set(pts)) == 64


def test_plane_holds_no_per_element_structure():
    # the plane over the (4,2,1) run's spread reads its 257 elements' rows
    # from the spread: a lifted copy of them took about 64 KiB
    run = run_verify_all(4, 2, 1, stages=("spread",)).run
    tracemalloc.start()
    try:
        plane = build_plane(run.hov.maps, run.spread_result.spread)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plane.n_lines == 256 * 257 + 1
    assert peak < 4096


def test_line_through_membership(setup321):
    _, _, _, plane = setup321
    rng = random.Random(3)
    h = plane.maps.tower.h
    bits = plane.maps.ambient.bits - h
    for _ in range(60):
        p = 1 | (rng.randrange(1 << bits) << h)
        r = 1 | (rng.randrange(1 << bits) << h)
        if p == r:
            continue
        eidx, base = plane.line_through(p, r)
        on = affine_line(plane, eidx, base)
        assert p in on and r in on


def test_parallel_classes_tile_affine(setup321):
    _, _, _, plane = setup321
    for eidx in (0, 17, 64):
        seen = set()
        for b in coset_bases(plane, eidx):
            pts = affine_line(plane, eidx, b)
            assert not (set(pts) & seen)
            seen.update(pts)
        assert len(seen) == 64 * 64


def test_axioms_exhaustive_321(setup321):
    _, _, _, plane = setup321
    rep = plane_axioms_check(plane)
    assert rep.ok
    assert (rep.mode, rep.path) == ("exhaustive", "fibres")
    assert rep.points == rep.lines == 4161
    assert rep.points_per_line == 65
    assert rep.pairs_checked == 4161 * 4160 // 2
    assert rep.collisions == 0
    assert rep.quadrangle_ok
    assert rep.witness is None


def test_axioms_sampled_mode(setup321):
    _, _, _, plane = setup321
    rep = sampled_check(plane, _quadrangle_ok(plane), seed=5, samples=400)
    assert rep.ok
    assert rep.mode == "sampled"
    assert rep.collisions == 0


def test_axioms_exhaustive_small_case():
    hov = build_hyperoval(HyperovalSpec(2, 2, 1))
    plane = build_plane(hov.maps)
    rep = plane_axioms_check(plane)
    assert rep.mode == "exhaustive"
    assert rep.ok
    assert rep.points == 16 * 16 + 17 == 273


def test_hyperoval_in_plane_321(setup321):
    hov, d, rep, plane = setup321
    res = rep.spread_result
    hrep = hyperoval_in_plane(hov.affine, res.t0_index, res.tinf_index, plane)
    assert hrep.ok
    assert hrep.size_ok and hrep.closure_ok
    assert hrep.histogram == {0: 2016, 2: 2145}
    assert hrep.lines_checked == 4161
    assert hrep.incidence_equivalents == 4161 * 65
    assert hrep.witness is None


def test_hyperoval_in_plane_421():
    hov = build_hyperoval(HyperovalSpec(4, 2, 1))
    d = directions(hov.affine, hov.maps)
    rep = detect_pseudoregulus(d, hov.maps)
    res = rep.spread_result
    plane = build_plane(hov.maps, res.spread)
    hrep = hyperoval_in_plane(hov.affine, res.t0_index, res.tinf_index, plane)
    assert hrep.ok
    # no tangents, C(258, 2) secants, the rest external
    assert hrep.histogram.get(1, 0) == 0
    assert hrep.histogram[2] == 258 * 257 // 2
    assert sum(hrep.histogram.values()) == plane.n_lines == 65793
    assert hrep.incidence_equivalents >= 10**6


def test_mutated_set_caught_by_line_scan(setup321):
    hov, d, rep, plane = setup321
    trans = (rep.spread_result.t0_index, rep.spread_result.tinf_index)
    rng = random.Random(11)
    h = hov.maps.tower.h
    bits = hov.maps.ambient.bits - h
    pts = list(hov.affine.ordered)
    while True:
        cand = 1 | (rng.randrange(1 << bits) << h)
        if cand not in hov.affine.points:
            break
    damaged = AffinePointSet(pts[1:] + [cand], hov.maps.ambient)
    hrep = hyperoval_in_plane(damaged, *trans, plane)
    assert not hrep.ok
    assert hrep.witness == ("closure", translation_closure_check(damaged)[1])
    # the line scan finds a line that meets the mutant off {0, 2}
    hist, witness = _scanned(damaged, plane, trans)
    assert witness is not None
    assert [j for j in hist if j not in (0, 2)]


def _plane_case(hki):
    hov = build_hyperoval(HyperovalSpec(*hki))
    d = directions(hov.affine, hov.maps)
    rep = detect_pseudoregulus(d, hov.maps)
    res = rep.spread_result
    return hov, build_plane(hov.maps, res.spread), (res.t0_index, res.tinf_index)


def _scanned(q_points, plane, transversals):
    """(histogram with the line at infinity, witness) of the full line scan."""
    hist, witness = histogram_by_scan(q_points, plane, set(transversals))
    hist[2] = hist.get(2, 0) + 1
    return {j: hist[j] for j in sorted(hist)}, witness


@pytest.mark.parametrize("hki", [(3, 2, 1), (4, 2, 1), (4, 2, 3), (3, 3, 1)])
def test_hyperoval_in_plane_by_basis_matches_scan(hki):
    hov, plane, trans = _plane_case(hki)
    hrep = hyperoval_in_plane(hov.affine, *trans, plane)
    assert hrep.mode == "translation-group" and hrep.ok
    assert (hrep.histogram, hrep.witness) == _scanned(hov.affine, plane, trans)


def test_hyperoval_in_plane_refuses_an_unclosed_set(setup321):
    hov, d, rep, plane = setup321
    trans = (rep.spread_result.t0_index, rep.spread_result.tinf_index)
    pts = list(hov.affine.ordered)
    h = hov.maps.tower.h
    outside = next(1 | (v << h) for v in range(1, 1 << 12)
                   if (1 | (v << h)) not in hov.affine.points)
    damaged = AffinePointSet(pts[1:] + [outside], hov.maps.ambient)
    closed, witness = translation_closure_check(damaged)
    hrep = hyperoval_in_plane(damaged, *trans, plane)
    assert not closed and not hrep.ok and not hrep.closure_ok
    assert hrep.mode == "closure" and hrep.witness == ("closure", witness)
    assert hrep.histogram == {} and hrep.lines_checked == 0


def test_failing_histogram_names_its_line():
    # the (4,2,2) set, moved off the origin, is a closed coset but no arc:
    # the histogram from W is the line scan's, and the witness names the
    # line through its smallest point, which the scan counts alike
    hov, plane, trans = _plane_case((4, 2, 1))
    control = build_hyperoval(HyperovalSpec(4, 2, 2, strict=False)).affine
    shift = 0x5A << hov.maps.tower.h
    bad = AffinePointSet([p ^ shift for p in control.ordered], hov.maps.ambient)
    hrep = hyperoval_in_plane(bad, *trans, plane)
    assert hrep.closure_ok and not hrep.ok and hrep.mode == "translation-group"
    assert hrep.histogram == _scanned(bad, plane, trans)[0]
    tag, eidx, base, count = hrep.witness
    assert tag == "line" and count not in (0, 2)
    on_line = sum(plane.base_of(eidx, p) == base for p in bad.ordered)
    assert on_line + (eidx in trans) == count
    assert plane.base_of(eidx, bad.ordered[0]) == base != coset_bases(plane, eidx)[0]


def _by_rank(q_points, plane, transversals):
    """(histogram with the line at infinity, witness) of the rank oracle."""
    hist, witness = histogram_by_rank(q_points, plane, set(transversals))
    hist[2] = hist.get(2, 0) + 1
    return {j: hist[j] for j in sorted(hist)}, witness


@pytest.mark.parametrize("hki", [(3, 2, 1), (4, 2, 1), (4, 2, 3), (3, 3, 1),
                                 (3, 3, 2), (5, 2, 1)])
def test_fibre_counts_match_the_rank_oracle(hki):
    hov, plane, trans = _plane_case(hki)
    extra = set(trans)
    by_fibres = _histogram_by_fibres(hov.affine, plane, extra)
    assert by_fibres == histogram_by_rank(hov.affine, plane, extra)
    assert set(by_fibres[0]) == {0, 2} and by_fibres[1] is None


def _off_hyperoval(which):
    """A closed coset that is no hyperoval, its plane and transversals, and
    whether its witness is the line through c0 (else the first missed line)."""
    if which == "through c0":
        # the (4,2,2) set moved off the origin: some lines meet it in 4 points
        hov, plane, trans = _plane_case((4, 2, 1))
        control = build_hyperoval(HyperovalSpec(4, 2, 2, strict=False)).affine
        shift = 0x5A << hov.maps.tower.h
        coset = AffinePointSet([p ^ shift for p in control.ordered], hov.maps.ambient)
        return coset, plane, trans, True
    # two points whose direction is off element 0, which is made a
    # transversal: its lines through them meet 2, the others only its point
    hov, plane, _ = _plane_case((3, 2, 1))
    c0 = hov.affine.ordered[0]
    p = next(p for p in hov.affine.ordered if plane.base_of(0, p) != plane.base_of(0, c0))
    return AffinePointSet([c0, p], hov.maps.ambient), plane, (0, 1), False


@pytest.mark.parametrize("which", ["through c0", "missed line"])
def test_fibre_counts_match_the_rank_oracle_off_hyperovals(which):
    coset, plane, trans, through_c0 = _off_hyperoval(which)
    hrep = hyperoval_in_plane(coset, *trans, plane)
    assert hrep.closure_ok and not hrep.ok
    assert (hrep.histogram, hrep.witness) == _by_rank(coset, plane, trans)
    assert hrep.histogram == _scanned(coset, plane, trans)[0]
    _, eidx, base, count = hrep.witness
    c0 = coset.ordered[0]
    assert (plane.base_of(eidx, c0) == base) == through_c0
    if not through_c0:
        assert (eidx, count) == (0, 1)
        assert base not in {plane.base_of(0, p) for p in coset.ordered}


def test_direction_hits_are_read_only_when_the_projection_is_injective():
    # W holds w, 2w and 3w, which give one direction: |D| < |Q| - 1, so the
    # hits of D are no fibre counts and W is walked, as the rank oracle
    # counts; on the run's set |D| = |Q| - 1 and the hits give the same
    # report as the walk
    hov, plane, trans = _plane_case((3, 2, 1))
    maps, h = hov.maps, hov.maps.tower.h
    hinf = maps.hinf
    w, v = hinf.pack((1, 2, 0, 5)), hinf.pack((0, 1, 7, 3))
    span = {0}
    for g in (w, hinf.smul(2, w), v):
        span |= {x ^ g for x in span}
    coset = AffinePointSet([1 ^ x << h for x in span], maps.ambient)
    element_of = plane.spread.element_of
    for q_points, injective in ((coset, False), (hov.affine, True)):
        d = directions(q_points, maps)
        hits = Counter(element_of(p) for p in d.ordered)
        assert (len(d) == len(q_points) - 1) is injective
        hrep = hyperoval_in_plane(q_points, *trans, plane, hits)
        assert hrep == hyperoval_in_plane(q_points, *trans, plane)
        assert (hrep.histogram, hrep.witness) == _by_rank(q_points, plane, trans)
        assert hrep.ok is injective


def test_direction_on_no_element_is_a_witness(setup321, forged321):
    # element 1 of the forged spread copies element 0, so no element holds
    # the directions of the original element 1
    hov, _, _, plane = setup321
    h = hov.maps.tower.h
    d = plane.maps.hinf.normalize(plane.spread.elements[1][0])
    pair = AffinePointSet([1, 1 ^ (d << h)], hov.maps.ambient)
    hrep = hyperoval_in_plane(pair, 0, 2, forged321)
    assert hrep.closure_ok and not hrep.ok
    assert hrep.witness == ("direction on no element", d)
    assert hrep.histogram == {} and hrep.lines_checked == 0


def test_wrong_transversal_rows_rejected(setup321):
    hov, d, rep, plane = setup321
    for t0, t_inf in ((0, 65), (-1, 0)):
        with pytest.raises(InvalidSpread, match="not spread elements"):
            hyperoval_in_plane(hov.affine, t0, t_inf, plane)


# -- table-driven kernels against their oracles -------------------------------

def _lifted(plane, eidx):
    """Rows of spread element eidx moved into the ambient space."""
    h = plane.maps.tower.h
    return tuple(r << h for r in plane.spread.elements[eidx])


def _random_affine(plane, rng):
    h = plane.maps.tower.h
    bits = plane.maps.ambient.bits - h
    return 1 | (rng.getrandbits(bits) << h)


def _span_by_pivot_chunks(plane, eidx):
    """{the pivot chunks of v: v} over the span of element eidx's lifted
    rows, the span enumerated by ambient smul; p ^ v has zero pivot chunks
    exactly when v's pivot chunks are p's."""
    amb = plane.maps.ambient
    rows = _lifted(plane, eidx)
    vecs = {0}
    for row in rows:
        vecs = {v ^ amb.smul(c, row) for v in vecs for c in range(amb.q)}
    pivots = [amb.pivot(row) for row in rows]
    table = {tuple(amb.chunk(v, j) for j in pivots): v for v in vecs}
    assert len(table) == len(vecs) == amb.q ** len(rows)  # one member per coset
    return pivots, table


@pytest.mark.parametrize("hk", [(3, 2), (3, 3)])
def test_base_of_matches_reduce(hk):
    # base_of(eidx, p) is the one member of p + span(rows) with zero pivot
    # chunks, found here from the enumerated span and not by reduce
    plane = build_plane(maps_for(tower_create(*hk)))
    amb = plane.maps.ambient
    rng = random.Random(17)
    n_el = len(plane.spread.elements)
    spans: dict = {}
    for _ in range(3000):
        eidx = rng.randrange(n_el)
        p = _random_affine(plane, rng)
        if eidx not in spans:
            spans[eidx] = _span_by_pivot_chunks(plane, eidx)
        pivots, table = spans[eidx]
        assert plane.base_of(eidx, p) == p ^ table[tuple(amb.chunk(p, j) for j in pivots)]


def test_spans_and_bases_match_smul_construction(setup321):
    _, _, _, plane = setup321
    amb = plane.maps.ambient
    q = amb.q
    for eidx in range(len(plane.spread.elements)):
        rows = _lifted(plane, eidx)
        vecs = {0}
        for row in rows:
            vecs = {v ^ amb.smul(c, row) for v in vecs for c in range(q)}
        assert sorted(affine_line(plane, eidx, 0)) == sorted(vecs)
        # coset representatives: chunk 0 is 1, every row pivot chunk is 0
        order = plane.order
        bases = [plane.line_at(eidx * order + j)[1] for j in range(order)]
        assert len(bases) == plane.order and list(bases) == sorted(set(bases))
        for b in bases:
            assert b & amb.chunk_mask == 1
            assert all(amb.chunk(b, amb.pivot(r)) == 0 for r in rows)


def _common_points(plane, l1, l2):
    """Number of common points of two distinct lines, by brute membership."""
    inf1 = l1 == "inf"
    inf2 = l2 == "inf"
    if inf1 or inf2:
        return 1  # the other line's element point is on the infinite line
    e1, b1 = l1
    e2, b2 = l2
    if e1 == e2:
        return 1 if b1 != b2 else None  # parallel class meets at the element point
    count = 0
    for p in affine_line(plane, e1, b1):
        if plane.base_of(e2, p) == b2:
            count += 1
    return count  # element points differ, so only affine meetings count


def _pair_table(plane):
    """(pairs, collisions, first witness) from an n^2 byte coverage table."""
    n = plane.n_points
    order = plane.order
    all_affine = sorted(p for b in coset_bases(plane, 0) for p in affine_line(plane, 0, b))
    affine_ids = {p: i for i, p in enumerate(all_affine)}
    buf = bytearray(n * n)
    pairs = collisions = 0
    witness = None
    lines = [
        sorted(affine_ids[p] for p in affine_line(plane, eidx, base))
        + [order * order + eidx]
        for eidx, base in plane_lines(plane)
    ]
    lines.append(list(range(order * order, n)))
    for ids in lines:
        for ii, a in enumerate(ids):
            row = a * n
            for b in ids[ii + 1:]:
                if buf[row + b]:
                    collisions += 1
                    if witness is None:
                        witness = ("pair on two lines", a, b)
                else:
                    buf[row + b] = 1
                pairs += 1
    return pairs, collisions, witness


def _bytearray_axioms_oracle(plane, seed=0):
    """The exhaustive plane check with an n^2 byte coverage table."""
    n = plane.n_points
    order = plane.order
    quadrangle = _quadrangle_ok(plane)
    rng = random.Random(seed)
    pairs, collisions, witness = _pair_table(plane)
    covered_ok = pairs == n * (n - 1) // 2
    if not covered_ok and witness is None:
        witness = ("pair count", pairs, n * (n - 1) // 2)
    all_lines = list(plane_lines(plane)) + ["inf"]
    for _ in range(LINE_PAIR_SAMPLES):
        l1, l2 = rng.sample(all_lines, 2)
        c = _common_points(plane, l1, l2)
        if c != 1:
            collisions += 1
            if witness is None:
                witness = ("line pair meets", l1, l2, c)
    return PlaneAxiomsReport(
        ok=collisions == 0 and covered_ok and quadrangle,
        mode="exhaustive",
        points=n,
        lines=plane.n_lines,
        points_per_line=order + 1,
        lines_per_point=order + 1,
        pairs_checked=pairs,
        collisions=collisions,
        quadrangle_ok=quadrangle,
        witness=witness,
    )


def _forged(plane):
    """The plane over the same spread with element 1 a copy of element 0,
    indexed point by point: no ReductionIndex, so only the oracles take it."""
    good = plane.spread
    elements = list(good.elements)
    elements[1] = elements[0]
    forged = object.__new__(Spread)  # a Spread reduces every source itself
    forged.elements = tuple(elements)
    forged.space = good.space
    forged.index = {p: idx for idx, el in enumerate(elements)
                    for p in subspace_points(good.space, el)}
    return build_plane(plane.maps, forged)


def _forged_reduced(hk):
    """The canonical plane of GF(2^h) < GF(2^hk) over a spread with the
    field-reduction index in which element 1 copies element 0's rows but
    keeps its own fibre."""
    maps = maps_for(tower_create(*hk))
    good = maps.abb_spread
    elements = list(good.elements)
    elements[1] = elements[0]
    return build_plane(maps, forged_spread(good, elements))


@pytest.fixture(scope="module")
def forged321(setup321):
    """The (3,2,1) plane over a non-partition: element 1 copies element 0."""
    _, _, _, plane = setup321
    return _forged(plane)


def test_fibre_certificate_matches_the_pair_table_oracle(setup321):
    _, _, _, plane = setup321
    rep = plane_axioms_check(plane)
    assert rep == _bytearray_axioms_oracle(plane, seed=3)
    assert rep.ok and rep.collisions == 0


def test_bitset_coverage_matches_oracle_on_forged_plane(forged321):
    pairs, collisions, witness = pair_scan(forged321)
    assert (pairs, collisions, witness) == _pair_table(forged321)
    assert collisions > 0
    assert witness[0] == "pair on two lines"
    # every pair on an element-0 line is covered twice, element 1 adds none
    assert pairs == 4161 * 4160 // 2


def test_sampled_mode_catches_forged_plane(forged321):
    rep = sampled_check(forged321, _quadrangle_ok(forged321), seed=5, samples=600)
    assert not rep.ok
    assert rep.collisions > 0
    assert rep.witness is not None


def test_plane_check_refuses_a_spread_that_is_not_reduced(forged321):
    with pytest.raises(InvalidSpread, match="field reduction"):
        plane_axioms_check(forged321)


@pytest.mark.parametrize("which", ["valid", "forged"])
def test_one_reduce_per_affine_pair(setup321, forged321, which):
    plane = setup321[3] if which == "valid" else forged321
    rng = random.Random(23)
    n_el = len(plane.spread.elements)
    for _ in range(200):
        p = _random_affine(plane, rng)
        r = _random_affine(plane, rng)
        two = [e for e in range(n_el) if plane.base_of(e, p) == plane.base_of(e, r)]
        one = [e for e in range(n_el) if plane.base_of(e, p ^ r) == 0]
        assert one == two


# -- the translation certificate and the rank meet -----------------------------

def _line_pairs(plane, rng, count):
    """Seeded distinct line pairs: same class, with the line at infinity,
    and from two classes, `count` of each."""
    n_el = len(plane.spread.elements)
    order = plane.order
    bases = [coset_bases(plane, eidx) for eidx in range(n_el)]

    def line(eidx):
        return eidx, bases[eidx][rng.randrange(order)]

    for _ in range(count):
        eidx = rng.randrange(n_el)
        b1, b2 = rng.sample(bases[eidx], 2)
        yield (eidx, b1), (eidx, b2)
        yield line(rng.randrange(n_el)), "inf"
        e1, e2 = rng.sample(range(n_el), 2)
        yield line(e1), line(e2)
    # lines of two classes through one affine point
    for _ in range(count):
        e1, e2 = rng.sample(range(n_el), 2)
        p = _random_affine(plane, rng)
        yield (e1, plane.base_of(e1, p)), (e2, plane.base_of(e2, p))


@pytest.mark.parametrize("hk", [(3, 2), (4, 2), (3, 3)])
def test_rank_meet_matches_common_points(hk):
    plane = build_plane(maps_for(tower_create(*hk)))
    rng = random.Random(29)
    for l1, l2 in _line_pairs(plane, rng, 40):
        assert meet(plane, l1, l2) == _common_points(plane, l1, l2) == 1
        assert meet(plane, l2, l1) == 1


def test_rank_meet_matches_common_points_on_forged_plane(forged321):
    rng = random.Random(31)
    counts = set()
    pairs = list(_line_pairs(forged321, rng, 60))
    # element 0 and its copy: equal lines meet in q^k points, others in none
    pairs += [((0, b1), (1, b2)) for b1 in coset_bases(forged321, 0)[:4]
              for b2 in coset_bases(forged321, 1)[:4]]
    for l1, l2 in pairs:
        c = meet(forged321, l1, l2)
        assert c == _common_points(forged321, l1, l2)
        counts.add(c)
    assert counts == {0, 1, 64}


def test_line_at_follows_lines(setup321):
    _, _, _, plane = setup321
    lines = list(plane_lines(plane)) + ["inf"]
    assert len(lines) == plane.n_lines
    assert [plane.line_at(i) for i in range(plane.n_lines)] == lines


def test_direction_marks_count_the_pair_scan_collisions(forged321):
    # 9 directions of element 0 repeat on its copy, (q - 1) vectors each,
    # and each vector is the difference of q^2k / 2 affine pairs
    repeats, witness = direction_marks(forged321)
    pairs, collisions, _ = pair_scan(forged321)
    assert repeats == 9
    assert collisions == repeats * 7 * 2048 == 129024
    assert witness[:1] + witness[2:] == ("direction on two elements", 0, 1)
    assert forged321.base_of(0, witness[1] << 3) == 0
    assert pairs == 4161 * 4160 // 2


@pytest.mark.parametrize("hk, points", [((3, 2), 4161), ((4, 2), 65793)])
def test_forged_reduced_spread_fails_by_its_fibres(hk, points):
    # witnesses on both sides of 8,192 points, with no table over the
    # points or the q^2k vectors (a pair table at (4,2,1) is ~541 MB)
    plane = _forged_reduced(hk)
    assert plane.n_points == points
    tracemalloc.start()
    try:
        rep = plane_axioms_check(plane)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert not rep.ok and rep.path == "fibres"
    row = plane.spread.elements[0][0]
    assert rep.witness == ("element row in another fibre", 1, row, 0)
    assert rep.collisions == 2  # both rows of element 1 lie in element 0's fibre
    assert rep.pairs_checked == points * (points - 1) // 2


@pytest.mark.parametrize("hki", [(3, 2, 1), (4, 2, 1), (3, 3, 1)])
def test_fibre_certificate_agrees_with_direction_marks(hki):
    _, plane, _ = _plane_case(hki)
    forged = _forged_reduced(hki[:2])
    for p in (plane, forged):
        repeats, _ = direction_marks(p)
        assert plane_axioms_check(p).ok == (repeats == 0)
    assert plane_axioms_check(plane).ok


def _wrong_rank():
    """The (3,2) canonical plane with every element cut to its first row."""
    maps = maps_for(tower_create(3, 2))
    good = maps.abb_spread
    return build_plane(maps, forged_spread(good, [el[:1] for el in good.elements]))


def test_fibre_certificate_names_an_element_of_the_wrong_rank():
    # every element cut to its first row: each still lies in its own fibre
    rep = plane_axioms_check(_wrong_rank())
    assert not rep.ok
    assert rep.witness == ("element rank", 0, 1, 2)
    assert rep.collisions == 65


def test_repeated_pivot_is_a_witness_of_the_certificate():
    # element 5's rows (r0, r0 + r1) span element 5 and lie in its fibre,
    # but share r0's pivot, so base_of would give no coset representative
    maps = maps_for(tower_create(3, 2))
    good = maps.abb_spread
    elements = list(good.elements)
    r0, r1 = elements[5]
    elements[5] = (r0, r0 ^ r1)
    plane = build_plane(maps, forged_spread(good, elements))
    assert good.element_of(r0 ^ r1) == 5
    rep = plane_axioms_check(plane)
    pivot = maps.hinf.pivot(r0)
    assert not rep.ok and rep.path == "fibres"
    assert rep.witness == ("element pivots repeat", 5, (pivot, pivot))
    assert rep.collisions == 1


def test_unnormalized_row_is_named_with_no_fibre():
    # element 5's rows (3 r0, r1) span element 5, and 3 r0 spans r0's
    # source, but it is no normalized point: the cross product is not tried,
    # and the lookup that names the row's fibre refuses it
    maps = maps_for(tower_create(3, 2))
    good = maps.abb_spread
    elements = list(good.elements)
    r0, r1 = elements[5]
    scaled = maps.hinf.smul(3, r0)
    elements[5] = (scaled, r1)
    assert maps.hinf.normalize(scaled) == r0
    rep = plane_axioms_check(build_plane(maps, forged_spread(good, elements)))
    assert not rep.ok
    assert rep.witness == ("element row in another fibre", 5, scaled, None)
    assert rep.collisions == 1


def test_hyperoval_in_plane_assumes_the_certificate():
    # the fibres of the cut spread are still the (3,2) spread, so they
    # count W ∩ E for 2-dimensional elements on a plane of order q: a class
    # would hold more lines than the plane has, and no verdict is given
    hov, run_plane, trans = _plane_case((3, 2, 1))
    plane = _wrong_rank()
    assert not plane_axioms_check(plane).ok
    cut = plane.spread.elements
    t0, t_inf = (cut.index(run_plane.spread.elements[t][:1]) for t in trans)
    hrep = hyperoval_in_plane(hov.affine, t0, t_inf, plane)
    assert hrep.closure_ok and not hrep.size_ok and not hrep.ok
    assert hrep.witness == ("element span is no fibre", 0)
    assert hrep.histogram == {} and hrep.lines_checked == 0


@pytest.mark.parametrize("hki", [(3, 2, 1), (4, 2, 1), (3, 3, 1)])
def test_every_oracle_meet_is_one_on_valid_planes(hki):
    _, plane, _ = _plane_case(hki)
    assert plane_axioms_check(plane).ok
    assert line_pair_meets(plane, seed=hki[0]) == (0, None)


def test_fibre_certificate_obeys_the_budget(setup321):
    _, _, _, plane = setup321
    calls = 2 * 65  # k rows of each of the q^k + 1 elements
    assert plane_axioms_check(plane, budget=calls).ok
    with pytest.raises(EnumerationTooLarge) as exc:
        plane_axioms_check(plane, budget=calls - 1)
    assert exc.value.estimate == calls


def test_pair_scan_fallback_obeys_the_budget(forged321):
    with pytest.raises(EnumerationTooLarge) as exc:
        pair_scan(forged321, budget=4161 ** 2 - 1)
    assert exc.value.estimate == 4161 ** 2
