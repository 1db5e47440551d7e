"""Field reduction spreads and the plane/ambient/GF(2) coordinate maps."""

import random
from collections import Counter

import pytest

from hoval.errors import EnumerationTooLarge, InvalidSpread, NotAffine, NotAtInfinity
from hoval.gf2 import tower_create
from hoval.projective import ProjSpace, Subspace
from hoval.reduction import CorrespondenceMaps, Spread, field_reduction_spread, maps_for


@pytest.fixture(scope="module")
def t32():
    return tower_create(3, 2)


@pytest.fixture(scope="module")
def maps32(t32):
    return maps_for(t32)


def test_line_spread_of_pg3_8(t32):
    # PG(1, 64) has 65 points; reduction gives 65 disjoint lines covering
    # the 585 points of PG(3, 8).
    s = field_reduction_spread(t32, 2)
    assert len(s) == 65
    assert s.space.n == 3 and s.space.q == 8
    assert all(el.dim == 1 for el in s.elements)
    assert len(s.index) == 585
    assert len(s.sources) == 65


def test_spread_partition_guard(t32):
    s = field_reduction_spread(t32, 2)
    # duplicating an element must be caught
    with pytest.raises(InvalidSpread):
        Spread(list(s.elements) + [s.elements[0]], s.space)
    # dropping one leaves points uncovered
    with pytest.raises(InvalidSpread):
        Spread(s.elements[:-1], s.space)


def test_field_reduction_budget(t32):
    with pytest.raises(EnumerationTooLarge):
        field_reduction_spread(t32, 2, budget=10)


def test_abb_affine_roundtrip_and_count(maps32):
    plane = maps32.plane_big
    big = maps32.tower.big
    images = set()
    for t in range(big.q):
        for s in range(big.q):
            p = plane.pack((1, t, s))
            v = maps32.abb_affine(p)
            assert maps32.ambient.chunk(v, 0) == 1
            assert maps32.abb_affine_inv(v) == p
            images.add(v)
    assert len(images) == big.q * big.q  # q^{2k} affine points, injective


def test_abb_affine_rejects_infinity(maps32):
    p = maps32.plane_big.pack((0, 1, 0))
    with pytest.raises(NotAffine):
        maps32.abb_affine(p)
    with pytest.raises(NotAtInfinity):
        maps32.direction_spread_element(maps32.plane_big.pack((1, 0, 0)))


def test_direction_elements_are_the_spread(maps32):
    plane = maps32.plane_big
    spread = maps32.abb_spread
    infinity = [plane.pack((0, 1, x2)) for x2 in range(maps32.tower.big.q)]
    infinity.append(plane.pack((0, 0, 1)))
    seen = set()
    for pt in infinity:
        el = maps32.direction_spread_element(pt)
        idx = spread.source_index[maps32.infinity_source(pt)]
        assert el.rows == spread.elements[idx].rows
        seen.add(el.rows)
    assert len(seen) == 65


def test_abb_sends_line_directions_into_spread_elements(maps32):
    # two affine plane points determine a point at infinity; their images
    # must differ by a vector lying in that point's spread element
    plane = maps32.plane_big
    big = maps32.tower.big
    h = maps32.tower.h
    rng = random.Random(7)
    for _ in range(200):
        t1, s1 = rng.randrange(big.q), rng.randrange(big.q)
        t2, s2 = rng.randrange(big.q), rng.randrange(big.q)
        if (t1, s1) == (t2, s2):
            continue
        p1 = plane.pack((1, t1, s1))
        p2 = plane.pack((1, t2, s2))
        at_inf = plane.normalize(p1 ^ p2)
        assert plane.chunk(at_inf, 0) == 0
        el = maps32.direction_spread_element(at_inf)
        diff = maps32.abb_affine(p1) ^ maps32.abb_affine(p2)
        assert diff & ((1 << h) - 1) == 0
        assert el.contains(maps32.hinf.normalize(diff >> h))


def test_bc_affine_roundtrip(maps32):
    amb = maps32.ambient
    rng = random.Random(11)
    for _ in range(100):
        v = 1 | (rng.randrange(1 << (amb.bits - amb.h)) << amb.h)
        w = maps32.bc_affine(v)
        assert w & 1 == 1
        assert maps32.bc_affine_inv(w) == v
    with pytest.raises(NotAffine):
        maps32.bc_affine(2 << amb.h)


def test_s_prime_matches_bc_spread_elements(maps32):
    sp = maps32.s_prime
    # sources live in PG(3, 8) with the same packing as H_inf
    assert len(sp) == 585
    assert sp.space.npoints() == 4095  # PG(11, 2)
    for idx in (0, 1, 17, 320, 584):
        src = sp.sources[idx]
        assert maps32.bc_spread_of(src).rows == sp.elements[idx].rows
    # renormalizing any GF(2) vector of an element recovers its source
    for idx in (3, 100):
        for p in sp.elements[idx].points():
            assert maps32.hinf_point_of_f2_vector(p) == sp.sources[idx]


def test_s_tilde_is_refined_by_s_prime(maps32):
    # each (hk-1)-element splits into exactly (q^k-1)/(q-1) full
    # (h-1)-elements; this is the subspread property the two-step
    # construction relies on
    sp = maps32.s_prime
    st = maps32.s_tilde
    assert len(st) == 65
    for el in st.elements:
        fibers = Counter(sp.index[p] for p in el.points())
        assert len(fibers) == 9
        assert all(c == 7 for c in fibers.values())


def test_tower_33_spread_sizes():
    t = tower_create(3, 3)
    m = maps_for(t)
    s = m.abb_spread
    assert len(s) == 513  # 8^3 + 1 elements, planes of PG(5, 8)
    assert all(el.dim == 2 for el in s.elements)
    assert len(s.index) == s.space.npoints() == 37449


def test_maps_cache(t32):
    assert maps_for(t32) is maps_for(t32)
