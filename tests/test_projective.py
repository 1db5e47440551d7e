import random
from itertools import combinations

import pytest

from hoval.errors import (
    DegenerateSpan,
    EnumerationTooLarge,
    SingularMatrix,
    ZeroVector,
)
from hoval.gf2 import field_create
from hoval.projective import (
    Line,
    ProjSpace,
    Subspace,
    gaussian_lines,
    line_through,
    mat_inv,
    mat_mul,
    mat_vec_packed,
    projective_points_count,
)


def apply_projectivity(m, v, s):
    """Image of a point under an invertible matrix, normalized."""
    mat_inv(m, s.field)  # validates invertibility
    return s.normalize(mat_vec_packed(m, v, s))


def space(n, m):
    return ProjSpace(n, field_create(m))


# --- counts against closed forms and brute force -------------------------------

def test_pg12_points():
    s = space(1, 1)
    pts = {s.unpack(p) for p in s.points()}
    assert pts == {(1, 0), (0, 1), (1, 1)}


def test_fano_plane_brute_force():
    s = space(2, 1)
    pts = list(s.points())
    assert len(pts) == 7
    lines = list(s.lines())
    assert len(lines) == 7
    for r0, r1 in lines:
        on = [p for p in pts if s.contains((r0, r1), p)]
        assert len(on) == 3
    for p in pts:
        through = [ln for ln in lines if s.contains(ln, p)]
        assert len(through) == 3


def test_pg38_counts():
    s = space(3, 3)
    assert s.npoints() == 585
    assert sum(1 for _ in s.points()) == 585
    assert s.nlines() == 4745
    assert sum(1 for _ in s.lines()) == 4745


def test_pg316_counts():
    s = space(3, 4)
    assert s.npoints() == 4369
    assert s.nlines() == 70161
    assert sum(1 for _ in s.lines()) == 70161


def test_counting_formulas():
    assert projective_points_count(4, 8) == 585
    assert gaussian_lines(4, 8) == 4745
    assert gaussian_lines(4, 16) == 70161
    assert gaussian_lines(3, 2) == 7
    assert gaussian_lines(6, 8) == 19477641


# --- normalization --------------------------------------------------------------

def test_normalize_example_gf8():
    s = space(2, 3)
    v = s.pack((0b010, 0b100, 0))  # (x, x^2, 0)
    assert s.unpack(s.normalize(v)) == (1, 0b010, 0)


def test_normalize_trailing_pivot():
    s = space(2, 3)
    v = s.pack((0, 0, 0b101))
    assert s.unpack(s.normalize(v)) == (0, 0, 1)


def test_normalize_scale_invariant():
    s = space(3, 3)
    rng = random.Random(5)
    for _ in range(200):
        v = rng.randrange(1, 1 << s.bits)
        n = s.normalize(v)
        for lam in range(1, s.q):
            assert s.normalize(s.smul(lam, v)) == n


def test_normalize_zero_vector():
    with pytest.raises(ZeroVector):
        space(2, 2).normalize(0)


def test_points_are_normalized_unique_lex_sorted():
    s = space(2, 2)
    seen = list(s.points())
    assert len(seen) == len(set(seen)) == s.npoints()
    tuples = [s.unpack(p) for p in seen]
    assert tuples == sorted(tuples)
    for p in seen:
        assert s.normalize(p) == p


# --- scalar action ----------------------------------------------------------------

def test_smul_matches_chunkwise():
    s = space(3, 3)
    s.ensure_tables()
    f = s.field
    rng = random.Random(9)
    for _ in range(300):
        v = rng.randrange(1 << s.bits)
        lam = rng.randrange(s.q)
        want = s.pack([f.mul(lam, c) for c in s.unpack(v)])
        assert s.smul(lam, v) == want


def test_smul_no_tables_path():
    s = space(4, 4)  # 20 bits * q=16 exceeds the table limit
    assert s.ensure_tables() is False
    f = s.field
    v = s.pack((1, 2, 3, 4, 5))
    assert s.unpack(s.smul(7, v)) == tuple(f.mul(7, c) for c in (1, 2, 3, 4, 5))


# --- lines -------------------------------------------------------------------------

def test_lines_canonical_distinct_and_points():
    s = space(2, 3)
    keys = set()
    for r0, r1 in s.lines():
        assert s.rref((r0, r1)) == (r0, r1)
        keys.add((r0, r1))
        pts = s.line_points(r0, r1)
        assert len(pts) == s.q + 1
        assert len(set(pts)) == s.q + 1
        for p in pts:
            assert s.normalize(p) == p
            assert s.contains((r0, r1), p)
    assert len(keys) == s.nlines()


def test_pair_line_key_independent_of_pair():
    s = space(3, 3)
    rng = random.Random(3)
    all_pts = list(s.points())
    for _ in range(50):
        a, b = rng.sample(all_pts, 2)
        key = s.pair_line_key(a, b)
        pts = s.line_points(*key)
        assert a in pts and b in pts
        for c, d in combinations(pts, 2):
            assert s.pair_line_key(c, d) == key
            assert s.pair_line_key(d, c) == key


def test_pair_line_key_coincident():
    s = space(2, 2)
    p = s.pack((1, 0, 0))
    with pytest.raises(DegenerateSpan):
        s.pair_line_key(p, p)


def test_line_through_caches_points():
    s = space(2, 3)
    ln = line_through(s.pack((1, 0, 0)), s.pack((0, 1, 0)), s)
    assert isinstance(ln, Line)
    assert len(ln.points()) == 9
    assert ln.points() is ln.points()


# --- subspaces ------------------------------------------------------------------------

def test_rref_span_membership():
    s = space(3, 3)
    rng = random.Random(17)
    for _ in range(50):
        vs = [rng.randrange(1, 1 << s.bits) for _ in range(3)]
        rows = s.rref(vs)
        assert s.rref(rows) == rows
        for v in vs:
            assert s.contains(rows, v)
        pivots = [s.pivot(r) for r in rows]
        assert pivots == sorted(pivots)
        assert len(set(pivots)) == len(pivots)
        for r in rows:
            assert s.chunk(r, s.pivot(r)) == 1


def test_subspace_points_plane_in_pg38():
    s = space(3, 3)
    rows = s.rref((s.pack((1, 0, 0, 5)), s.pack((0, 1, 0, 3)), s.pack((0, 0, 1, 7))))
    sub = Subspace(rows, s)
    pts = sub.points()
    assert len(pts) == 73  # q^2 + q + 1 for q = 8
    assert len(set(pts)) == 73
    for p in pts:
        assert s.normalize(p) == p
        assert sub.contains(p)


# --- budget ----------------------------------------------------------------------------

def test_enumeration_budget():
    s = space(3, 4)
    with pytest.raises(EnumerationTooLarge):
        list(s.points(budget=10))
    with pytest.raises(EnumerationTooLarge):
        list(s.lines(budget=10))


# --- matrices ----------------------------------------------------------------------------

def _random_invertible(n, field, rng):
    while True:
        m = [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)]
        try:
            mat_inv(m, field)
            return m
        except SingularMatrix:
            continue


def test_mat_inv_round_trip():
    f = field_create(3)
    rng = random.Random(23)
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    for _ in range(20):
        m = _random_invertible(4, f, rng)
        assert mat_mul(m, mat_inv(m, f), f) == ident


def test_mat_inv_singular():
    f = field_create(2)
    with pytest.raises(SingularMatrix):
        mat_inv([[1, 1], [1, 1]], f)


def test_projectivity_preserves_incidence():
    s = space(3, 3)
    rng = random.Random(41)
    m = _random_invertible(4, s.field, rng)
    pts = list(s.points())
    lines = list(s.lines())
    for _ in range(100):
        p = rng.choice(pts)
        r0, r1 = rng.choice(lines)
        image_line = s.rref(
            (mat_vec_packed(m, r0, s), mat_vec_packed(m, r1, s))
        )
        assert s.contains((r0, r1), p) == s.contains(
            image_line, apply_projectivity(m, p, s)
        )
