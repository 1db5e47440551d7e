"""Hyperoval construction, arc checks, directions, translation closure."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoval.errors import GcdHypothesisViolated, TooFewPoints
from hoval.gf2 import tower_create
from hoval.hyperoval import (
    AffinePointSet,
    HyperovalSpec,
    _arc_scan,
    _closure_scan,
    _is_coset,
    build_hyperoval,
    directions,
    is_arc,
    translation_basis,
    translation_closure_check,
)
from hoval.projective import ProjSpace
from hoval.reduction import maps_for
from oracles import hinf2


def direction_pair_counts(q_points, maps) -> dict:
    """How many point pairs determine each direction, over all C(n, 2) pairs."""
    h = maps.tower.h
    normalize = maps.hinf.normalize
    out: dict = {}
    for a, b in combinations(q_points.ordered, 2):
        d = normalize((a ^ b) >> h)
        out[d] = out.get(d, 0) + 1
    return out


@pytest.fixture(scope="module")
def hov321():
    return build_hyperoval(HyperovalSpec(3, 2, 1))


def test_spec_validation():
    with pytest.raises(GcdHypothesisViolated):
        HyperovalSpec(4, 2, 2)
    HyperovalSpec(4, 2, 2, strict=False)  # allowed as control input
    with pytest.raises(ValueError):
        HyperovalSpec(3, 2, 0)
    with pytest.raises(ValueError):
        HyperovalSpec(3, 2, 6)
    assert HyperovalSpec(3, 2, 5).hk == 6
    assert not HyperovalSpec(4, 2, 2, strict=False).strict


def test_sizes_321(hov321):
    assert hov321.size == 66  # q^k + 2 = 64 + 2
    assert len(hov321.affine) == 64
    assert len(set(hov321.plane_points)) == 66
    assert hov321.infinity[0] != hov321.infinity[1]
    for p in hov321.affine:
        assert hov321.maps.ambient.chunk(p, 0) == 1


def test_oval_is_arc_in_plane(hov321):
    ok, witness = is_arc(hov321.plane_points, hov321.maps.plane_big)
    assert ok and witness is None


def test_frobenius_points_explicit():
    # q = 8, k = 2, i = 1: (1, t, t^2) for a couple of hand-computed t
    hov = build_hyperoval(HyperovalSpec(3, 2, 1))
    big = hov.maps.tower.big
    plane = hov.maps.plane_big
    for t in (0, 1, 2, 3, 37):
        assert plane.pack((1, t, big.mul(t, t))) in hov.plane_points


def test_nonstrict_square_exponent_not_an_arc():
    # gcd(2, 4) = 2: u^3 = v^3 has nontrivial solutions, so collinear
    # triples must exist
    hov = build_hyperoval(HyperovalSpec(2, 2, 2, strict=False))
    ok, witness = is_arc(hov.plane_points, hov.maps.plane_big)
    assert not ok
    a, b, c = witness
    key = hov.maps.plane_big.pair_line_key
    assert key(a, b) == key(a, c)


def test_is_arc_guards():
    maps = maps_for(tower_create(3, 2))
    with pytest.raises(TooFewPoints):
        is_arc([1, 2], maps.plane_big)
    with pytest.raises(ValueError):
        is_arc([1, 1, 2], maps.plane_big)


@pytest.mark.parametrize("h,k,i,strict", [
    (3, 2, 1, True), (3, 2, 5, True), (4, 2, 1, True), (2, 3, 1, True),
    (4, 2, 2, False),
])
def test_fast_arc_matches_full_scan(h, k, i, strict, line_key_calls, monkeypatch):
    # the affine plane points are closed and two points lie at infinity, so
    # a hyperoval needs only the n - 1 lines from the smallest affine point,
    # each named by its point at infinity: n - 3 normalize calls and no line
    # key; the (4, 2, 2) control falls back to the full scan and its witness
    hov = build_hyperoval(HyperovalSpec(h, k, i, strict=strict))
    space = hov.maps.plane_big
    n = len(hov.plane_points)
    full = _arc_scan(sorted(hov.plane_points), space)
    scan_keys = len(line_key_calls)
    line_key_calls.clear()
    normalized = []
    real = ProjSpace.normalize
    monkeypatch.setattr(ProjSpace, "normalize",
                        lambda self, v: normalized.append(v) or real(self, v))
    assert is_arc(hov.plane_points, space) == full
    assert full[0] == strict
    assert len(line_key_calls) == (0 if strict else scan_keys)
    if strict:
        assert len(normalized) == n - 3


def test_fast_arc_fallback_on_non_closed_set(hov321):
    # seven hyperoval points plus a point collinear with two of them, away
    # from the smallest: the lines from the smallest point miss the triple,
    # and the set is not closed, so the full scan runs and finds it
    space = hov321.maps.plane_big
    key = space.pair_line_key
    affine = [p for p in sorted(hov321.plane_points) if p & space.chunk_mask == 1]
    pts = affine[1:8]
    base = pts[0]
    third = next(
        p for p in space.line_points(*key(pts[3], pts[5]))
        if p & space.chunk_mask == 1 and p > base and p not in pts
        and len({key(base, x) for x in pts[1:] + [p]}) == len(pts)
    )
    damaged = pts + [third]
    ok, witness = is_arc(damaged, space)
    assert (ok, witness) == _arc_scan(sorted(damaged), space)
    assert not ok and key(*witness[:2]) == key(*witness[1:])


def test_fast_arc_refused_with_three_points_at_infinity():
    # one affine point is trivially closed, but the three points at
    # infinity are collinear on a line the affine point does not meet
    space = maps_for(tower_create(3, 2)).plane_big
    pts = [space.pack(c) for c in ((1, 5, 7), (0, 1, 0), (0, 0, 1), (0, 1, 1))]
    base = pts[0]
    assert len({space.pair_line_key(base, p) for p in pts[1:]}) == 3
    ok, witness = is_arc(pts, space)
    assert (ok, witness) == _arc_scan(sorted(pts), space)
    assert not ok and base not in witness


def test_direction_count_and_pair_uniformity(hov321):
    d = directions(hov321.affine, hov321.maps)
    assert len(d) == 63  # q^k - 1 for a strict exponent
    counts = direction_pair_counts(hov321.affine, hov321.maps)
    # each direction comes from exactly q^k / 2 unordered pairs
    assert set(counts.values()) == {32}
    assert sum(counts.values()) == 64 * 63 // 2


def test_direction_count_331():
    hov = build_hyperoval(HyperovalSpec(3, 3, 1))
    d = directions(hov.affine, hov.maps)
    assert len(d) == 8**3 - 1


def test_directions_collapse_for_gcd2_control():
    # gcd(i, hk) = 2 glues scalar fibers of size 3:
    # |D| = (q^k - 1) / 3 + non... the frozen control count is 85
    hov = build_hyperoval(HyperovalSpec(4, 2, 2, strict=False))
    d = directions(hov.affine, hov.maps)
    assert len(d) == 85


@pytest.mark.parametrize("h,k,i,strict", [
    (3, 2, 1, True), (4, 2, 1, True), (3, 3, 1, True), (4, 2, 2, False),
])
def test_directions_base_point_path_matches_all_pairs(h, k, i, strict):
    # a verified translation set takes the n - 1 differences from one base
    # point; direction_pair_counts still walks all C(n, 2) pairs
    hov = build_hyperoval(HyperovalSpec(h, k, i, strict=strict))
    assert translation_closure_check(hov.affine)[0]
    d = directions(hov.affine, hov.maps)
    assert d.points == set(direction_pair_counts(hov.affine, hov.maps))


def test_directions_of_damaged_set_use_all_pairs(hov321):
    pts = list(hov321.affine.ordered)
    h = hov321.maps.tower.h
    outside = next(1 | (v << h) for v in range(1, 1 << 12)
                   if (1 | (v << h)) not in hov321.affine.points)
    damaged = AffinePointSet(pts[1:] + [outside], hov321.maps.ambient)
    assert not translation_closure_check(damaged)[0]
    d = directions(damaged, hov321.maps)
    assert d.points == set(direction_pair_counts(damaged, hov321.maps))
    # the base-point differences alone would miss some directions
    base = damaged.ordered[0]
    assert {hov321.maps.hinf.normalize((base ^ x) >> h)
            for x in damaged.ordered[1:]} < d.points


def test_closure_is_memoized_on_the_set(hov321):
    first = translation_closure_check(hov321.affine)
    assert translation_closure_check(hov321.affine) is first


def test_translation_closure(hov321):
    ok, witness = translation_closure_check(hov321.affine)
    assert ok and witness is None


def test_translation_closure_witness_on_damage(hov321):
    pts = list(hov321.affine.ordered)
    # swap one point for an affine point outside the set
    outside = next(
        1 | (v << hov321.maps.tower.h)
        for v in range(1, 1 << 12)
        if (1 | (v << hov321.maps.tower.h)) not in hov321.affine.points
    )
    damaged = AffinePointSet(pts[1:] + [outside], hov321.maps.ambient)
    ok, witness = translation_closure_check(damaged)
    assert not ok
    a, b, base, v = witness
    assert v == a ^ b ^ base
    assert v not in damaged.points


def test_closure_holds_even_nonstrict():
    # closure is a property of the graph of an additive map, so the gcd
    # hypothesis plays no role here
    hov = build_hyperoval(HyperovalSpec(4, 2, 2, strict=False))
    ok, _ = translation_closure_check(hov.affine)
    assert ok


def test_affine_set_is_graph_of_additive_map(hov321):
    # difference of any two points has the same shape as a point difference
    # from the base point: the direction multiset is closed under addition
    tower = hov321.maps.tower
    vecs = {p ^ hov321.affine.ordered[0] for p in hov321.affine.ordered}
    for a, b in combinations(sorted(vecs)[:20], 2):
        assert a ^ b in vecs


def test_exponent_family_sizes():
    # all strict exponents at (3, 2) give hyperovals
    for i in (1, 5):
        hov = build_hyperoval(HyperovalSpec(3, 2, i))
        ok, _ = is_arc(hov.plane_points, hov.maps.plane_big)
        assert ok, i
        assert math.gcd(i, 6) == 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closure_by_rank_matches_scan(data):
    # random subsets of AG(4, 8), and additive cosets with or without one
    # point removed: closure by rank, witness included, is the pair scan's
    maps = maps_for(tower_create(3, 2))
    h = maps.tower.h
    if data.draw(st.booleans()):
        gens = data.draw(st.lists(st.integers(1, 4095), max_size=5))
        span = {0}
        for g in gens:
            span |= {x ^ g for x in span}
        offset = data.draw(st.integers(0, 4095))
        vecs = {offset ^ x for x in span}
        if len(vecs) > 1 and data.draw(st.booleans()):
            vecs.discard(data.draw(st.sampled_from(sorted(vecs))))
    else:
        vecs = set(data.draw(st.lists(st.integers(0, 4095), min_size=1, max_size=40)))
    pts = AffinePointSet((1 | (v << h) for v in vecs), maps.ambient)
    scanned = _closure_scan(pts.ordered, pts.points)
    assert translation_closure_check(pts) == scanned
    assert _is_coset(pts.ordered) == scanned[0]
    base = pts.ordered[0]
    assert translation_basis(pts) == hinf2(maps).rref(
        (p ^ base) >> h for p in pts.ordered[1:]
    )


def test_translation_basis_is_memoized(hov321):
    basis = translation_basis(hov321.affine)
    assert len(basis) == 6
    assert translation_basis(hov321.affine) is basis
