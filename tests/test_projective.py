import random
import tracemalloc
from itertools import combinations, product

import pytest

from hoval.errors import (
    DegenerateSpan,
    EnumerationTooLarge,
    SingularMatrix,
    ZeroVector,
)
from hoval.gf2 import LinearMap, field_create, tower_create
from hoval.pipeline import run_verify_all
from hoval.projective import ProjSpace, gaussian_lines, projective_points_count
from hoval.reduction import maps_for
from oracles import (
    all_lines,
    chunk_normalize,
    chunk_reduce,
    chunk_rref,
    chunk_smul,
    columns_matrix,
    in_span,
    mat_inv,
    mat_mul,
    mat_vec_packed,
    matrix_columns,
    pivot_normalize,
    pivot_pair_line_key,
    subspace_points,
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
    lines = list(all_lines(s))
    assert len(lines) == 7
    for r0, r1 in lines:
        on = [p for p in pts if in_span(s, (r0, r1), p)]
        assert len(on) == 3
    for p in pts:
        through = [ln for ln in lines if in_span(s, ln, p)]
        assert len(through) == 3


def test_pg38_counts():
    s = space(3, 3)
    assert s.npoints() == 585
    assert sum(1 for _ in s.points()) == 585
    assert s.nlines() == 4745
    assert sum(1 for _ in all_lines(s)) == 4745


def test_pg316_counts():
    s = space(3, 4)
    assert s.npoints() == 4369
    assert s.nlines() == 70161
    assert sum(1 for _ in all_lines(s)) == 70161


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


def test_points_are_drawn_lazily():
    # three points of PG(1, 2^20) read by a refused fit cost no copy of
    # the 2^20 coordinate values
    s = ProjSpace(1, field_create(20))
    tracemalloc.start()
    try:
        it = s.points(budget=None)
        first = [next(it) for _ in range(3)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [1 << 20, 1, 1 | 1 << 20]
    assert peak < 1 << 20


def test_completions_run_the_last_free_coordinate_fastest():
    s = space(4, 2)
    base, free = 1 << 2, (4, 8, 6)  # free shifts in no particular order
    want = [base | a << 4 | b << 8 | c << 6 for a, b, c in product(range(4), repeat=3)]
    assert list(s.completions(base, free)) == want
    assert list(s.completions(base, ())) == [base]


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

def _test_vectors(s, rng, count):
    """0, all ones, every unit vector, and random vectors."""
    top = (1 << s.bits) - 1
    return ([0, top] + [1 << b for b in range(s.bits)]
            + [rng.randrange(top + 1) for _ in range(count)])


def test_smul_matches_chunkwise():
    # the plane over GF(q^k) meets each scalar about once: no tables, the
    # chunk loop calls Field.mul per coordinate
    s = maps_for(tower_create(3, 3)).plane_big
    assert (s.n, s.q) == (2, 512) and not s.table_backed
    vecs = _test_vectors(s, random.Random(512), 20)
    for lam in range(s.q):
        for v in vecs:
            assert s.smul(lam, v) == chunk_smul(s, lam, v)
    assert s.ensure_tables() is False


def test_smul_no_tables_path():
    # a field above gf2's exp/log table limit keeps Field.mul per chunk,
    # even where byte tables are asked for
    s = ProjSpace(2, field_create(17), tables=True)
    assert s.ensure_tables() is False
    f = s.field
    v = s.pack((1, 2, 3))
    assert s.unpack(s.smul(7, v)) == tuple(f.mul(7, c) for c in (1, 2, 3))


# H_inf and the ambient space of (4,2), the ambient spaces of (3,3) and (6,2)
_TABLE_SPACES = [(3, 4), (4, 4), (6, 3), (4, 6)]


@pytest.mark.parametrize("n, m", _TABLE_SPACES)
def test_table_smul_matches_chunkwise_for_every_scalar(n, m):
    s = ProjSpace(n, field_create(m), tables=True)
    assert s.table_backed
    vecs = _test_vectors(s, random.Random(n * 31 + m), 40)
    for lam in range(s.q):
        for v in vecs:
            assert s.smul(lam, v) == chunk_smul(s, lam, v)
    assert s.ensure_tables() is True


@pytest.mark.parametrize("n, m, tables", [nm + (True,) for nm in _TABLE_SPACES]
                         + [(2, 9, False)])
def test_kernels_match_the_chunk_loop_oracle(n, m, tables):
    s = ProjSpace(n, field_create(m), tables=tables)
    rng = random.Random(n * 31 + m)

    def vec():
        # nonzero, with a random number of zero chunks below the pivot
        low = rng.randrange(s.width) * s.h
        return rng.randrange(1, 1 << (s.bits - low)) << low

    for _ in range(150):
        v = vec()
        assert s.normalize(v) == chunk_normalize(s, v)
        rows = [vec() for _ in range(rng.randrange(1, s.width + 1))]
        rows.append(rows[0] ^ chunk_smul(s, rng.randrange(s.q), rows[-1]))
        ech = s.rref(rows)
        assert ech == chunk_rref(s, rows)
        assert s.reduce(v, ech) == chunk_reduce(s, v, ech)
        a, b = chunk_normalize(s, vec()), chunk_normalize(s, vec())
        if a != b:
            assert s.pair_line_key(a, b) == chunk_rref(s, (a, b))


# --- normalize and pair_line_key in one frame, against their compositions -----

def _same_pivot_partner(s, p, rng):
    """A normalized point other than p with p's pivot, or None."""
    free = s.bits - ((p & -p).bit_length() - 1) // s.h * s.h - s.h
    if free == 0:
        return None
    other = p ^ rng.randrange(1, 1 << free) << (s.bits - free)
    return s.normalize(other)


def _check_kernels(s, points, rng):
    """normalize of every nonzero multiple (a seeded one when q > 16) and
    pair_line_key with a seeded partner and a same-pivot partner."""
    points = list(points)
    for p in points:
        for c in range(1, s.q) if s.q <= 16 else (rng.randrange(2, s.q),):
            v = s.smul(c, p)
            assert s.normalize(v) == pivot_normalize(s, v) == pivot_normalize(s, p)
        partners = [rng.choice(points), _same_pivot_partner(s, p, rng)]
        for b in partners:
            if b is not None and b != p:
                assert s.pair_line_key(p, b) == pivot_pair_line_key(s, p, b)


@pytest.mark.parametrize("hk", [(3, 2), (2, 3), (4, 2)])
def test_kernels_on_every_point_of_the_table_backed_hinf(hk):
    hinf = maps_for(tower_create(*hk)).hinf
    assert hinf.table_backed
    _check_kernels(hinf, hinf.points(), random.Random(hk[0] * 7 + hk[1]))


@pytest.mark.parametrize("hk", [(2, 2), (3, 2), (2, 3), (4, 2)])
def test_kernels_on_every_point_of_the_big_field_line(hk):
    # PG(1, q^k): no scalar tables, each chunk multiplied by adding logs
    line = ProjSpace(1, tower_create(*hk).big)
    assert not line.table_backed and line.field._exp is not None
    _check_kernels(line, line.points(), random.Random(hk[0] * 7 + hk[1]))


def test_kernels_past_the_table_limit():
    # degree 18 has no exp/log tables: normalize takes Field.inv and smul
    tower = tower_create(6, 3)
    assert tower.big._exp is None
    rng = random.Random(63)
    for s in (ProjSpace(1, tower.big), maps_for(tower).hinf):
        points = {s.normalize(rng.randrange(1, 1 << s.bits)) for _ in range(2000)}
        _check_kernels(s, sorted(points), rng)


# --- lines -------------------------------------------------------------------------

def test_lines_canonical_distinct_and_points():
    s = space(2, 3)
    keys = set()
    for r0, r1 in all_lines(s):
        assert s.rref((r0, r1)) == (r0, r1)
        keys.add((r0, r1))
        pts = s.line_points(r0, r1)
        assert len(pts) == s.q + 1
        assert len(set(pts)) == s.q + 1
        for p in pts:
            assert s.normalize(p) == p
            assert in_span(s, (r0, r1), p)
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


# --- subspaces ------------------------------------------------------------------------

def test_rref_span_membership():
    s = space(3, 3)
    rng = random.Random(17)
    for _ in range(50):
        vs = [rng.randrange(1, 1 << s.bits) for _ in range(3)]
        rows = s.rref(vs)
        assert s.rref(rows) == rows
        for v in vs:
            assert in_span(s, rows, v)
        pivots = [s.pivot(r) for r in rows]
        assert pivots == sorted(pivots)
        assert len(set(pivots)) == len(pivots)
        for r in rows:
            assert s.chunk(r, s.pivot(r)) == 1


def test_subspace_points_plane_in_pg38():
    s = space(3, 3)
    rows = s.rref((s.pack((1, 0, 0, 5)), s.pack((0, 1, 0, 3)), s.pack((0, 0, 1, 7))))
    pts = subspace_points(s, rows)
    assert len(pts) == 73  # q^2 + q + 1 for q = 8
    assert len(set(pts)) == 73
    for p in pts:
        assert s.normalize(p) == p
        assert in_span(s, rows, p)


# --- budget ----------------------------------------------------------------------------

def test_enumeration_budget():
    s = space(3, 4)
    with pytest.raises(EnumerationTooLarge):
        list(s.points(budget=10))
    with pytest.raises(EnumerationTooLarge):
        list(all_lines(s, budget=10))


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
    # LinearMap.inverse, GF(2) Gauss-Jordan on the packed columns, is the
    # GF(q) inverse of the list-matrix oracle
    s = space(3, 3)
    f = s.field
    rng = random.Random(23)
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    for _ in range(20):
        m = _random_invertible(4, f, rng)
        assert mat_mul(m, mat_inv(m, f), f) == ident
        lmap = LinearMap.from_columns(matrix_columns(m, s), s)
        inverse = lmap.inverse()
        want = LinearMap.from_columns(matrix_columns(mat_inv(m, f), s), s)
        assert inverse.columns == want.columns
        for _ in range(50):
            v = rng.randrange(1 << s.bits)
            assert inverse(lmap(v)) == lmap(inverse(v)) == v


@pytest.mark.parametrize("bits", [1, 7, 8, 13, 24])
def test_linear_map_inverse_round_trips_over_gf2(bits):
    rng = random.Random(bits)
    top = (1 << bits) - 1
    for _ in range(10):
        while True:
            lmap = LinearMap(rng.randrange(1, top + 1) for _ in range(bits))
            try:
                inverse = lmap.inverse()
                break
            except SingularMatrix:
                continue
        for v in [0, top] + [rng.randrange(top + 1) for _ in range(100)]:
            assert inverse(lmap(v)) == lmap(inverse(v)) == v


def test_mat_inv_singular():
    f = field_create(2)
    with pytest.raises(SingularMatrix):
        mat_inv([[1, 1], [1, 1]], f)
    # a column that is the sum of two others, a repeated column, a zero
    # column, and a column reaching past the map's bits
    s = space(3, 2)
    for cols in ([1, 4, 5, 64], [1, 4, 4, 64], [1, 0, 16, 64], [1, 4, 16, 256]):
        with pytest.raises(SingularMatrix):
            LinearMap.from_columns(cols, s).inverse()
    with pytest.raises(SingularMatrix):
        LinearMap([0b011, 0b110, 0b101]).inverse()


def test_projectivity_preserves_incidence():
    s = space(3, 3)
    rng = random.Random(41)
    m = _random_invertible(4, s.field, rng)
    pts = list(s.points())
    lines = list(all_lines(s))
    for _ in range(100):
        p = rng.choice(pts)
        r0, r1 = rng.choice(lines)
        image_line = s.rref(
            (mat_vec_packed(m, r0, s), mat_vec_packed(m, r1, s))
        )
        assert in_span(s, (r0, r1), p) == in_span(
            s, image_line, apply_projectivity(m, p, s)
        )


@pytest.mark.parametrize("n,m", [(3, 2), (3, 4), (5, 3), (9, 2)])
def test_linear_map_matches_mat_vec_packed(n, m):
    # PG(3,4), PG(3,16), PG(5,8), PG(9,4): 8 to 20 bits, whole and partial
    # last bytes
    s = space(n, m)
    rng = random.Random(100 * n + m)
    for mat in (
        _random_invertible(s.width, s.field, rng),
        [[rng.randrange(s.q) for _ in range(s.width)] for _ in range(s.width)],
    ):
        lmap = LinearMap.from_columns(matrix_columns(mat, s), s)
        units = tuple(mat_vec_packed(mat, 1 << b, s) for b in range(s.bits))
        assert lmap.columns == units
        top = (1 << s.bits) - 1
        for v in [0, top] + [rng.randrange(top + 1) for _ in range(500)]:
            assert lmap(v) == mat_vec_packed(mat, v, s)


def test_linear_map_matches_mat_vec_packed_on_the_fit_331():
    # the fit is GF(q)-linear: its images of the coordinate unit vectors
    # fix it on every vector
    run = run_verify_all(3, 3, 1, stages=("pseudoregulus",)).run
    s = run.hov.maps.hinf
    cols = [run.fit.matrix(1 << (j * s.h)) for j in range(s.width)]
    fit = columns_matrix(cols, s)
    lmap = LinearMap.from_columns(cols, s)
    assert lmap.columns == run.fit.matrix.columns
    for p in run.dirs.ordered:
        assert lmap(p) == mat_vec_packed(fit, p, s) == run.fit.matrix(p)


def test_linear_map_then_composes():
    s = space(3, 3)
    rng = random.Random(9)
    a = _random_invertible(4, s.field, rng)
    b = _random_invertible(4, s.field, rng)
    ab = LinearMap.from_columns(matrix_columns(b, s), s).then(
        LinearMap.from_columns(matrix_columns(a, s), s))
    for _ in range(200):
        v = rng.randrange(1 << s.bits)
        assert ab(v) == mat_vec_packed(mat_mul(a, b, s.field), v, s)
