"""Incidence plane construction, plane axioms, hyperoval line scan."""

import random
import tracemalloc

import pytest

from hoval.errors import EnumerationTooLarge, InvalidSpread
from hoval.gf2 import tower_create
from hoval.hyperoval import AffinePointSet, HyperovalSpec, build_hyperoval, directions
from hoval.bruckbose import (
    _direction_marks,
    _histogram_by_scan,
    _pair_scan,
    PlaneAxiomsReport,
    _quadrangle_ok,
    build_plane,
    hyperoval_in_plane,
    plane_axioms_check,
)
from hoval.pseudoregulus import detect_pseudoregulus
from hoval.reduction import Spread, maps_for


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
    pts = plane.line_points(0, plane.bases[0][0])
    assert len(set(pts)) == 64


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
        on = plane.line_points(eidx, base)
        assert p in on and r in on


def test_parallel_classes_tile_affine(setup321):
    _, _, _, plane = setup321
    for eidx in (0, 17, 64):
        seen = set()
        for b in plane.bases[eidx]:
            pts = plane.line_points(eidx, b)
            assert not (set(pts) & seen)
            seen.update(pts)
        assert len(seen) == 64 * 64


def test_axioms_exhaustive_321(setup321):
    _, _, _, plane = setup321
    rep = plane_axioms_check(plane, mode="exhaustive", samples=500)
    assert rep.ok
    assert rep.mode == "exhaustive"
    assert rep.points == rep.lines == 4161
    assert rep.points_per_line == 65
    assert rep.pairs_checked == 4161 * 4160 // 2
    assert rep.collisions == 0
    assert rep.quadrangle_ok
    assert rep.witness is None


def test_axioms_sampled_mode(setup321):
    _, _, _, plane = setup321
    rep = plane_axioms_check(plane, mode="sampled", seed=5, samples=400)
    assert rep.ok
    assert rep.mode == "sampled"
    assert rep.collisions == 0


def test_axioms_exhaustive_small_case():
    hov = build_hyperoval(HyperovalSpec(2, 2, 1))
    plane = build_plane(hov.maps)
    rep = plane_axioms_check(plane, mode="auto")
    assert rep.mode == "exhaustive"
    assert rep.ok
    assert rep.points == 16 * 16 + 17 == 273


def test_hyperoval_in_plane_321(setup321):
    hov, d, rep, plane = setup321
    t = rep.transversals
    hrep = hyperoval_in_plane(hov.affine, t.t0.rows, t.t_inf.rows, plane)
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
    plane = build_plane(hov.maps, rep.spread_result.spread)
    t = rep.transversals
    hrep = hyperoval_in_plane(hov.affine, t.t0.rows, t.t_inf.rows, plane)
    assert hrep.ok
    # no tangents, C(258, 2) secants, the rest external
    assert hrep.histogram.get(1, 0) == 0
    assert hrep.histogram[2] == 258 * 257 // 2
    assert sum(hrep.histogram.values()) == plane.n_lines == 65793
    assert hrep.incidence_equivalents >= 10**6


def test_mutated_set_caught_by_line_scan(setup321):
    hov, d, rep, plane = setup321
    t = rep.transversals
    rng = random.Random(11)
    h = hov.maps.tower.h
    bits = hov.maps.ambient.bits - h
    pts = list(hov.affine.ordered)
    while True:
        cand = 1 | (rng.randrange(1 << bits) << h)
        if cand not in hov.affine.points:
            break
    damaged = AffinePointSet(pts[1:] + [cand], hov.maps.ambient)
    hrep = hyperoval_in_plane(damaged, t.t0.rows, t.t_inf.rows, plane)
    assert not hrep.ok
    assert hrep.witness is not None
    bad = [j for j in hrep.histogram if j not in (0, 2) and hrep.histogram[j]]
    assert bad


def _plane_case(hki):
    hov = build_hyperoval(HyperovalSpec(*hki))
    d = directions(hov.affine, hov.maps)
    rep = detect_pseudoregulus(d, hov.maps)
    plane = build_plane(hov.maps, rep.spread_result.spread)
    t = rep.transversals
    return hov, plane, (t.t0.rows, t.t_inf.rows)


def _scanned(q_points, plane, transversals):
    """(histogram with the line at infinity, witness) of the full line scan."""
    elements = [el.rows for el in plane.spread.elements]
    extra = {elements.index(rows) for rows in transversals}
    hist, witness = _histogram_by_scan(q_points, plane, extra)
    hist[2] = hist.get(2, 0) + 1
    return {j: hist[j] for j in sorted(hist)}, witness


@pytest.mark.parametrize("hki", [(3, 2, 1), (4, 2, 1), (4, 2, 3), (3, 3, 1)])
def test_hyperoval_in_plane_by_basis_matches_scan(hki):
    hov, plane, trans = _plane_case(hki)
    hrep = hyperoval_in_plane(hov.affine, *trans, plane)
    assert hrep.mode == "translation-group" and hrep.ok
    assert (hrep.histogram, hrep.witness) == _scanned(hov.affine, plane, trans)


def test_hyperoval_in_plane_scans_without_closure(setup321):
    hov, d, rep, plane = setup321
    trans = (rep.transversals.t0.rows, rep.transversals.t_inf.rows)
    pts = list(hov.affine.ordered)
    h = hov.maps.tower.h
    outside = next(1 | (v << h) for v in range(1, 1 << 12)
                   if (1 | (v << h)) not in hov.affine.points)
    damaged = AffinePointSet(pts[1:] + [outside], hov.maps.ambient)
    hrep = hyperoval_in_plane(damaged, *trans, plane)
    assert hrep.mode == "line-scan" and not hrep.closure_ok
    assert (hrep.histogram, hrep.witness) == _scanned(damaged, plane, trans)


def test_failing_histogram_is_rescanned_for_its_witness():
    # the (4,2,2) set is a closed coset but no arc: the histogram from W
    # fails, and the scan reports the same histogram with a line witness
    hov, plane, trans = _plane_case((4, 2, 1))
    bad = build_hyperoval(HyperovalSpec(4, 2, 2, strict=False)).affine
    hrep = hyperoval_in_plane(bad, *trans, plane)
    assert hrep.closure_ok and not hrep.ok and hrep.mode == "line-scan"
    assert (hrep.histogram, hrep.witness) == _scanned(bad, plane, trans)
    assert hrep.witness[0] == "line"


def test_wrong_transversal_rows_rejected(setup321):
    hov, d, rep, plane = setup321
    with pytest.raises(InvalidSpread):
        hyperoval_in_plane(hov.affine, (1, 2), (3, 4), plane)


# -- table-driven kernels against their oracles -------------------------------

def _lifted(plane, eidx):
    """Rows of spread element eidx moved into the ambient space."""
    h = plane.maps.tower.h
    return tuple(r << h for r in plane.spread.elements[eidx].rows)


def _random_affine(plane, rng):
    h = plane.maps.tower.h
    bits = plane.maps.ambient.bits - h
    return 1 | (rng.getrandbits(bits) << h)


@pytest.mark.parametrize("hk", [(3, 2), (3, 3)])
def test_base_of_matches_reduce(hk):
    plane = build_plane(maps_for(tower_create(*hk)))
    amb = plane.maps.ambient
    rng = random.Random(17)
    n_el = len(plane.spread.elements)
    for _ in range(3000):
        eidx = rng.randrange(n_el)
        p = _random_affine(plane, rng)
        assert plane.base_of(eidx, p) == amb.reduce(p, _lifted(plane, eidx))


def test_spans_and_bases_match_smul_construction(setup321):
    _, _, _, plane = setup321
    amb = plane.maps.ambient
    q = amb.q
    for eidx in range(len(plane.spread.elements)):
        rows = _lifted(plane, eidx)
        vecs = {0}
        for row in rows:
            vecs = {v ^ amb.smul(c, row) for v in vecs for c in range(q)}
        assert sorted(plane.line_points(eidx, 0)) == sorted(vecs)
        # coset representatives: chunk 0 is 1, every row pivot chunk is 0
        bases = plane.bases[eidx]
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
    for p in plane.line_points(e1, b1):
        if plane.base_of(e2, p) == b2:
            count += 1
    return count  # element points differ, so only affine meetings count


def _bytearray_axioms_oracle(plane, seed=0, samples=2000):
    """The exhaustive plane check with an n^2 byte coverage table."""
    n = plane.n_points
    order = plane.order
    quadrangle = _quadrangle_ok(plane)
    rng = random.Random(seed)
    witness = None
    all_affine = sorted(p for b in plane.bases[0] for p in plane.line_points(0, b))
    affine_ids = {p: i for i, p in enumerate(all_affine)}
    buf = bytearray(n * n)
    pairs = 0
    collisions = 0
    lines = [
        sorted(affine_ids[p] for p in plane.line_points(eidx, base))
        + [order * order + eidx]
        for eidx, base in plane.lines()
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
    covered_ok = pairs == n * (n - 1) // 2
    if not covered_ok and witness is None:
        witness = ("pair count", pairs, n * (n - 1) // 2)
    line_pairs = 0
    all_lines = list(plane.lines()) + ["inf"]
    for _ in range(min(samples, 2000)):
        l1, l2 = rng.sample(all_lines, 2)
        c = _common_points(plane, l1, l2)
        line_pairs += 1
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
        line_pairs_checked=line_pairs,
        quadrangle_ok=quadrangle,
        witness=witness,
    )


def _forged(plane):
    """The plane over the same spread with element 1 a copy of element 0."""
    good = plane.spread
    elements = list(good.elements)
    elements[1] = elements[0]
    forged = object.__new__(Spread)  # Spread() itself refuses overlaps
    forged.elements = tuple(elements)
    forged.space = good.space
    forged.sources = forged.source_space = forged.source_index = None
    forged.index = {p: idx for idx, el in enumerate(elements) for p in el.points()}
    return build_plane(plane.maps, forged)


@pytest.fixture(scope="module")
def forged321(setup321):
    """The (3,2,1) plane over a non-partition: element 1 copies element 0."""
    _, _, _, plane = setup321
    return _forged(plane)


def test_bitset_coverage_matches_oracle(setup321):
    _, _, _, plane = setup321
    rep = plane_axioms_check(plane, mode="exhaustive", seed=3, samples=300)
    assert rep == _bytearray_axioms_oracle(plane, seed=3, samples=300)
    assert rep.ok and rep.collisions == 0


def test_bitset_coverage_matches_oracle_on_forged_plane(forged321):
    rep = plane_axioms_check(forged321, mode="exhaustive", seed=3, samples=300)
    oracle = _bytearray_axioms_oracle(forged321, seed=3, samples=300)
    assert rep == oracle
    assert not rep.ok
    assert rep.collisions > 0
    assert rep.witness[0] == "pair on two lines"
    # every pair on an element-0 line is covered twice, element 1 adds none
    assert rep.pairs_checked == 4161 * 4160 // 2


def test_sampled_mode_catches_forged_plane(forged321):
    rep = plane_axioms_check(forged321, mode="sampled", seed=5, samples=600)
    assert not rep.ok
    assert rep.collisions > 0
    assert rep.witness is not None


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
    n_el = len(plane.bases)
    order = plane.order

    def line(eidx):
        return eidx, plane.bases[eidx][rng.randrange(order)]

    for _ in range(count):
        eidx = rng.randrange(n_el)
        b1, b2 = rng.sample(plane.bases[eidx], 2)
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
        assert plane.meet(l1, l2) == _common_points(plane, l1, l2) == 1
        assert plane.meet(l2, l1) == 1


def test_rank_meet_matches_common_points_on_forged_plane(forged321):
    rng = random.Random(31)
    counts = set()
    pairs = list(_line_pairs(forged321, rng, 60))
    # element 0 and its copy: equal lines meet in q^k points, others in none
    pairs += [((0, b1), (1, b2)) for b1 in forged321.bases[0][:4]
              for b2 in forged321.bases[1][:4]]
    for l1, l2 in pairs:
        c = forged321.meet(l1, l2)
        assert c == _common_points(forged321, l1, l2)
        counts.add(c)
    assert counts == {0, 1, 64}


def test_line_at_follows_lines(setup321):
    _, _, _, plane = setup321
    lines = list(plane.lines()) + ["inf"]
    assert len(lines) == plane.n_lines
    assert [plane.line_at(i) for i in range(plane.n_lines)] == lines


def test_direction_marks_count_the_pair_scan_collisions(forged321):
    # 9 directions of element 0 repeat on its copy, (q - 1) vectors each,
    # and each vector is the difference of q^2k / 2 affine pairs
    repeats, witness = _direction_marks(forged321, 4096)
    pairs, collisions, _ = _pair_scan(forged321, None)
    assert repeats == 9
    assert collisions == repeats * 7 * 2048 == 129024
    assert witness[:1] + witness[2:] == ("direction on two elements", 0, 1)
    assert forged321.base_of(0, witness[1] << 3) == 0
    assert pairs == 4161 * 4160 // 2


def test_forged_421_fails_by_direction_without_a_pair_table():
    plane = _forged(build_plane(maps_for(tower_create(4, 2))))
    assert plane.n_points == 65793
    tracemalloc.start()
    try:
        rep = plane_axioms_check(plane, mode="exhaustive", seed=3, samples=300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the pair table would be 65793^2 / 8 bytes, ~541 MB
    assert peak < 4 * 2**20
    assert not rep.ok and rep.path == "translation"
    assert rep.witness[0] == "direction on two elements"
    assert rep.witness[2:] == (0, 1)
    # the quadrangle's direction 1 lay on the element the copy replaced
    assert not rep.quadrangle_ok
    # 17 directions repeat, 15 vectors each, 2^16 / 2 pairs per vector
    assert rep.collisions >= 17 * 15 * 2**15
    assert rep.pairs_checked == 65793 * 65792 // 2


def test_pair_scan_fallback_obeys_the_budget(forged321):
    with pytest.raises(EnumerationTooLarge) as exc:
        plane_axioms_check(forged321, mode="exhaustive", budget=4161 ** 2 - 1)
    assert exc.value.estimate == 4161 ** 2
    with pytest.raises(EnumerationTooLarge) as exc:
        plane_axioms_check(forged321, mode="exhaustive", budget=4095)
    assert exc.value.estimate == 4096
