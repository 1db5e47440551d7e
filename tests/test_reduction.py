"""Field reduction spreads and the plane/ambient/GF(2) coordinate maps."""

import random
from collections import Counter

import pytest

from hoval.errors import EnumerationTooLarge, InvalidSpread, NotAffine
from hoval.gf2 import tower_create
from hoval.projective import ProjSpace
from hoval.gf2 import LinearMap
from hoval.reduction import Spread, field_reduction_spread, maps_for
from oracles import hinf2, in_span, partition_index, s_prime


# --- independent oracles for the maps and spreads ------------------------------

def abb_affine_inv(maps, v):
    """(1, vec t, vec s) of PG(2k, q) -> affine (1, t, s) of PG(2, q^k)."""
    if maps.ambient.chunk(v, 0) != 1:
        raise NotAffine(f"0x{v:x} is not a normalized affine point")
    hk_bits = maps.tower.k * maps.tower.h
    h = maps.tower.h
    t = maps.tower.unvec_packed((v >> h) & ((1 << hk_bits) - 1))
    s = maps.tower.unvec_packed(v >> (h * (maps.tower.k + 1)))
    return maps.plane_big.pack((1, t, s))


def infinity_source(maps, p):
    """Point (0, x1, x2) at infinity -> the PG(1, q^k) point (x1, x2)
    packed the way field reduction indexes its sources."""
    return p >> (maps.tower.k * maps.tower.h)


def direction_spread_element(maps, p):
    """Point (0, x1, x2) at infinity -> its (k-1)-space inside H_inf."""
    x1 = maps.plane_big.chunk(p, 1)
    x2 = maps.plane_big.chunk(p, 2)
    hk_bits = maps.tower.k * maps.tower.h
    vec = maps.tower.vec_packed
    mul = maps.tower.big.mul
    rows = [vec(mul(b, x1)) | (vec(mul(b, x2)) << hk_bits) for b in maps.tower.basis]
    return maps.hinf.rref(rows)


def bc_affine_inv(maps, w):
    """Affine point of PG(2hk, 2) -> affine point of PG(2k, q)."""
    if w & 1 != 1:
        raise NotAffine(f"0x{w:x} is not a normalized affine point")
    return 1 | ((w >> 1) << maps.tower.h)


def bc_spread_of(maps, p):
    """Point of H_inf -> its (h-1)-space in the GF(2) hyperplane."""
    rows = [maps.hinf.smul(1 << b, p) for b in range(maps.tower.h)]
    return hinf2(maps).rref(rows)


def s_tilde(maps):
    """Elements of the (hk-1)-spread of PG(2hk-1, 2) matching the line at
    infinity: the GF(2)-expansion of the elements of abb_spread, checked
    point by point by the partition oracle."""
    h = maps.tower.h
    els = []
    for el in maps.abb_spread.elements:
        rows = [maps.hinf.smul(1 << b, r) for r in el for b in range(h)]
        els.append(hinf2(maps).rref(rows))
    partition_index(els, hinf2(maps))
    return els


@pytest.fixture(scope="module")
def t32():
    return tower_create(3, 2)


@pytest.fixture(scope="module")
def maps32(t32):
    return maps_for(t32)


def test_only_the_gf_q_spaces_take_scalar_tables():
    # the spaces over GF(q) multiply by each of their q - 1 scalars many
    # times, the plane over GF(q^k) by each scalar about once
    maps = maps_for(tower_create(3, 3))
    spread = maps.abb_spread
    assert maps.ambient.table_backed and maps.hinf.table_backed
    assert spread.space.table_backed and not spread.index.source.table_backed
    assert not maps.plane_big.table_backed
    # equality and hash ignore the tables
    plain = ProjSpace(maps.ambient.n, maps.tower.small)
    assert plain == maps.ambient and hash(plain) == hash(maps.ambient)


def test_line_spread_of_pg3_8(t32):
    # PG(1, 64) has 65 points; reduction gives 65 disjoint lines covering
    # the 585 points of PG(3, 8).
    s = field_reduction_spread(t32, 2)
    assert len(s) == 65
    assert s.space.n == 3 and s.space.q == 8
    assert all(len(el) == 2 for el in s.elements)
    assert len(s.index) == 585
    assert len(s.sources) == 65


def test_spread_partition_guard(t32):
    s = field_reduction_spread(t32, 2)
    assert partition_index(s.elements, s.space) == dict(s.index.items())
    # duplicating an element must be caught
    with pytest.raises(InvalidSpread, match="lies in elements 0 and 65"):
        partition_index(list(s.elements) + [s.elements[0]], s.space)
    # dropping one leaves points uncovered
    with pytest.raises(InvalidSpread, match="cover 576 of 585"):
        partition_index(s.elements[:-1], s.space)


def test_reduced_spread_refuses_a_singular_coordinate_change(t32):
    # with a singular M the fibres of distinct sources share its kernel,
    # so the sources alone no longer make the elements a partition
    s = field_reduction_spread(t32, 2)
    h = s.space.h
    # coordinate 2 goes to coordinates 2 and 3, coordinate 3 to zero
    singular = LinearMap.from_columns([1, 1 << h, 5 << 2 * h, 0], s.space)
    with pytest.raises(InvalidSpread, match="singular"):
        Spread.reduced(s.elements, s.space, t32, s.sources, s.index.source, singular)
    identity = LinearMap.from_columns([1 << j * h for j in range(4)], s.space)
    again = Spread.reduced(s.elements, s.space, t32, s.sources, s.index.source, identity)
    assert [again.element_of(p) for p in s.space.subspace_points(s.elements[7])] == [7] * 9


def test_reduced_spread_refuses_duplicate_and_missing_sources(t32):
    # a spread from field reduction is a partition only when its sources
    # are every point of the source space once; nothing else is checked
    s = field_reduction_spread(t32, 2)
    args = (s.space, t32)
    with pytest.raises(InvalidSpread, match="gives elements 0 and 65"):
        Spread.reduced(
            s.elements + s.elements[:1], *args, s.sources + s.sources[:1],
            s.index.source,
        )
    with pytest.raises(InvalidSpread, match="64 elements from 64 of 65"):
        Spread.reduced(s.elements[1:], *args, s.sources[1:], s.index.source)
    again = Spread.reduced(s.elements, *args, s.sources, s.index.source)
    assert [again.element_of(p) for p in s.space.subspace_points(s.elements[7])] == [7] * 9


@pytest.mark.parametrize("hk", [(2, 2), (3, 2), (2, 3)])
def test_field_reduction_rows_are_already_reduced(hk):
    # reduction_rows writes each element without row reduction; rref of
    # its rows, over r = 2 (abb_spread) and r = 2k (s_prime), is the oracle
    maps = maps_for(tower_create(*hk))
    for spread in (field_reduction_spread(maps.tower, 2), s_prime(maps)):
        k = spread.index.source.h // spread.space.h
        for el in spread.elements:
            assert len(el) == k
            assert spread.space.rref(el) == el


def test_reduction_index_refuses_unnormalized_points(t32):
    # the index reads a point's leading chunk: any multiple but the
    # normalized one is no key, though it spans the same point
    s = field_reduction_spread(t32, 2)
    space = s.space
    for p in space.subspace_points(s.elements[7]):
        assert s.element_of(p) == 7
        for c in range(2, space.q):
            off = space.smul(c, p)
            assert off not in s.index
            with pytest.raises(KeyError):
                s.element_of(off)


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
            assert abb_affine_inv(maps32, v) == p
            images.add(v)
    assert len(images) == big.q * big.q  # q^{2k} affine points, injective


def test_abb_affine_rejects_infinity(maps32):
    p = maps32.plane_big.pack((0, 1, 0))
    with pytest.raises(NotAffine):
        maps32.abb_affine(p)


def test_direction_elements_are_the_spread(maps32):
    plane = maps32.plane_big
    spread = maps32.abb_spread
    infinity = [plane.pack((0, 1, x2)) for x2 in range(maps32.tower.big.q)]
    infinity.append(plane.pack((0, 0, 1)))
    seen = set()
    for pt in infinity:
        el = direction_spread_element(maps32, pt)
        idx = spread.index.source_index[infinity_source(maps32, pt)]
        assert el == spread.elements[idx]
        seen.add(el)
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
        el = direction_spread_element(maps32, at_inf)
        diff = maps32.abb_affine(p1) ^ maps32.abb_affine(p2)
        assert diff & ((1 << h) - 1) == 0
        assert in_span(maps32.hinf, el, maps32.hinf.normalize(diff >> h))


def test_bc_affine_roundtrip(maps32):
    amb = maps32.ambient
    rng = random.Random(11)
    for _ in range(100):
        v = 1 | (rng.randrange(1 << (amb.bits - amb.h)) << amb.h)
        w = maps32.bc_affine(v)
        assert w & 1 == 1
        assert bc_affine_inv(maps32, w) == v
    with pytest.raises(NotAffine):
        maps32.bc_affine(2 << amb.h)


def test_s_prime_matches_bc_spread_elements(maps32):
    sp = s_prime(maps32)
    # sources live in PG(3, 8) with the same packing as H_inf
    assert len(sp) == 585
    assert sp.space.npoints() == 4095  # PG(11, 2)
    for idx in (0, 1, 17, 320, 584):
        src = sp.sources[idx]
        assert bc_spread_of(maps32, src) == sp.elements[idx]
    # renormalizing any GF(2) vector of an element recovers its source
    for idx in (3, 100):
        for p in sp.space.subspace_points(sp.elements[idx]):
            assert maps32.hinf.normalize(p) == sp.sources[idx]


def test_s_tilde_is_refined_by_s_prime(maps32):
    # each (hk-1)-element splits into exactly (q^k-1)/(q-1) full
    # (h-1)-elements; this is the subspread property the two-step
    # construction relies on
    sp = s_prime(maps32)
    st = s_tilde(maps32)
    assert len(st) == 65
    for el in st:
        fibers = Counter(sp.index[p] for p in hinf2(maps32).subspace_points(el))
        assert len(fibers) == 9
        assert all(c == 7 for c in fibers.values())


def test_tower_33_spread_sizes():
    t = tower_create(3, 3)
    m = maps_for(t)
    s = m.abb_spread
    assert len(s) == 513  # 8^3 + 1 elements, planes of PG(5, 8)
    assert all(len(el) == 3 for el in s.elements)
    assert len(s.index) == s.space.npoints() == 37449


def test_maps_cache(t32):
    assert maps_for(t32) is maps_for(t32)
