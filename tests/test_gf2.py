import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoval.errors import DivisionByZero, IrreducibleCheckFailed, UnsupportedDegree
from hoval.gf2 import (
    TABLE_LIMIT,
    Field,
    LinearMap,
    _byte_tables,
    default_modulus,
    field_create,
    is_irreducible,
    tower_create,
)
from oracles import (
    apply_columns,
    nonzero_elements,
    to_subfield,
    tower_columns,
    tower_unvec,
    tower_vec,
)


# --- independent oracles -----------------------------------------------------

def oracle_mul(a, b, modulus, m):
    """Schoolbook polynomial product followed by long division."""
    prod = 0
    for i in range(m):
        if (a >> i) & 1:
            prod ^= b << i
    for d in range(2 * m - 2, m - 1, -1):
        if (prod >> d) & 1:
            prod ^= modulus << (d - m)
    return prod


def oracle_irreducible(modulus, m):
    """Trial division by every polynomial of degree 1..m//2."""
    if modulus.bit_length() - 1 != m:
        return False
    for d in range(1, m // 2 + 1):
        for g in range(1 << d, 1 << (d + 1)):
            r = modulus
            while r and r.bit_length() >= g.bit_length():
                r ^= g << (r.bit_length() - g.bit_length())
            if r == 0:
                return False
    return True


def byte_tables_entry_by_entry(columns):
    """Each table entry from the entry with its lowest set bit cleared."""
    tables = []
    for lo in range(0, len(columns), 8):
        cols = columns[lo:lo + 8]
        tab = [0] * (1 << len(cols))
        for v in range(1, len(tab)):
            low = v & -v
            tab[v] = tab[v ^ low] ^ cols[low.bit_length() - 1]
        tables.append(tab)
    return tuple(tables)


def subfield_fixed_points(big, h):
    """Elements of the big field fixed by t -> t^(2^h)."""
    for t in range(big.q):
        if big.frob(t, h) == t:
            yield t


# --- construction ------------------------------------------------------------

def test_default_moduli_frozen():
    assert default_modulus(1) == 0x3
    assert default_modulus(2) == 0x7
    assert default_modulus(3) == 0xB
    assert default_modulus(4) == 0x13
    assert default_modulus(5) == 0x25
    assert default_modulus(6) == 0x43
    assert default_modulus(8) == 0x11B
    assert default_modulus(9) == 0x203
    assert default_modulus(12) == 0x1009


def test_irreducibility_matches_trial_division():
    for m in range(1, 9):
        for f in range(1 << m, 1 << (m + 1)):
            assert is_irreducible(f, m) == oracle_irreducible(f, m), bin(f)


def test_reducible_modulus_rejected():
    with pytest.raises(IrreducibleCheckFailed):
        Field(3, 0b1001)  # x^3 + 1 = (x+1)(x^2+x+1)


def test_unsupported_degrees():
    with pytest.raises(UnsupportedDegree):
        Field(0)
    with pytest.raises(UnsupportedDegree):
        Field(25)


# --- arithmetic ---------------------------------------------------------------

def test_gf8_product_example():
    gf8 = field_create(3, 0b1011)
    assert gf8.mul(0b100, 0b010) == 0b011  # x^2 * x = x + 1


def test_gf4_inverse_example():
    gf4 = field_create(2)
    assert gf4.inv(0b10) == 0b11


def test_gf4_frobenius_example():
    gf4 = field_create(2)
    assert gf4.frob(0b10, 1) == 0b11
    assert gf4.frob(0b10, 2) == 0b10  # full orbit returns


def test_mul_matches_oracle_exhaustive():
    for m in (2, 3, 4):
        f = field_create(m)
        for a in range(f.q):
            for b in range(f.q):
                assert f.mul(a, b) == oracle_mul(a, b, f.modulus, m)


def test_mul_matches_oracle_sampled_large():
    rng = random.Random(7)
    for m in (11, 16, 17, 24):
        f = field_create(m)
        for _ in range(200):
            a, b = rng.randrange(f.q), rng.randrange(f.q)
            assert f.mul(a, b) == oracle_mul(a, b, f.modulus, m)


def test_inverse_exhaustive():
    for m in (2, 3, 4, 8, 10):
        f = field_create(m)
        for a in nonzero_elements(f):
            assert f.mul(a, f.inv(a)) == 1
        with pytest.raises(DivisionByZero):
            f.inv(0)


def test_inverse_large_degree_path():
    f = field_create(17)
    rng = random.Random(3)
    for _ in range(50):
        a = rng.randrange(1, f.q)
        assert f.mul(a, f.inv(a)) == 1


@settings(max_examples=200, deadline=None)
@given(
    m=st.sampled_from([3, 4, 6, 8, 9, 12]),
    a=st.integers(min_value=0, max_value=(1 << 12) - 1),
    b=st.integers(min_value=0, max_value=(1 << 12) - 1),
    c=st.integers(min_value=0, max_value=(1 << 12) - 1),
)
def test_field_axioms(m, a, b, c):
    f = field_create(m)
    a %= f.q
    b %= f.q
    c %= f.q
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
    assert f.mul(a, 1) == a


def test_frobenius_is_additive_and_multiplicative():
    for m in (3, 4, 6):
        f = field_create(m)
        for i in range(1, m):
            for a in range(f.q):
                for b in (1, 2, f.q - 1):
                    assert f.frob(a ^ b, i) == f.frob(a, i) ^ f.frob(b, i)
                    assert f.frob(f.mul(a, b), i) == f.mul(f.frob(a, i), f.frob(b, i))
                assert f.frob(a, i) == f.pow(a, 1 << i)


def test_frobenius_fixed_field_sizes():
    # fixed points of t -> t^(2^i) form GF(2^gcd(i, m))
    for m in (4, 6, 9, 12):
        f = field_create(m)
        for i in range(1, m + 1):
            fixed = sum(1 for a in range(f.q) if f.frob(a, i) == a)
            assert fixed == 1 << math.gcd(i, m)


def test_frob_full_cycle_is_identity():
    f = field_create(3)
    for a in range(f.q):
        assert f.frob(a, 3) == a


# --- tower --------------------------------------------------------------------

def test_tower_embedding_is_ring_hom_exhaustive():
    t = tower_create(3, 2)
    small, big = t.small, t.big
    for a in range(small.q):
        for b in range(small.q):
            assert t.embed(a ^ b) == t.embed(a) ^ t.embed(b)
            assert t.embed(small.mul(a, b)) == big.mul(t.embed(a), t.embed(b))


def test_tower_embedding_image_is_frobenius_fixed_field():
    t = tower_create(3, 2)
    image = {t.embed(a) for a in range(t.small.q)}
    fixed = set(subfield_fixed_points(t.big, 3))
    assert image == fixed


def test_tower_embedded_generator_has_subfield_order():
    t = tower_create(3, 2)
    g = t.small.generator
    img = t.embed(g)
    order = 1
    acc = img
    while acc != 1:
        acc = t.big.mul(acc, img)
        order += 1
    assert order == t.small.q - 1


@pytest.mark.parametrize("ncols", [1, 5, 8, 13, 18, 24])
def test_byte_tables_match_the_entry_by_entry_oracle(ncols):
    # the last table covers fewer than 8 columns unless 8 divides ncols
    rng = random.Random(ncols)
    cols = [rng.randrange(1 << 20) for _ in range(ncols)]
    assert _byte_tables(cols) == byte_tables_entry_by_entry(cols)
    lmap = LinearMap(cols)
    for v in [rng.randrange(1 << ncols) for _ in range(200)]:
        assert lmap(v) == apply_columns(cols, v)


def test_tower_vec_unvec_round_trip_exhaustive():
    t = tower_create(3, 2)
    for x in range(t.big.q):
        assert tower_unvec(t, tower_vec(t, x)) == x
        assert t.unvec_packed(t.vec_packed(x)) == x


@pytest.mark.parametrize("h, k", [(3, 2), (6, 3)])
def test_tower_vec_unvec_match_the_bit_loop_oracle(h, k):
    # every element of GF(2^6); 2,000 seeded ones of GF(2^18), past the
    # table limit, where vec_packed is the inverse LinearMap itself
    t = tower_create(h, k)
    fwd, inv = tower_columns(t)
    if t.big.m <= TABLE_LIMIT:
        sample = range(t.big.q)
    else:
        rng = random.Random(18)
        sample = [rng.randrange(t.big.q) for _ in range(2000)]
    for x in sample:
        assert t.vec_packed(x) == apply_columns(inv, x)
        assert t.unvec_packed(x) == apply_columns(fwd, x)


def test_tower_vec_is_basis_expansion():
    t = tower_create(3, 2)
    for j in range(t.k):
        coords = tower_vec(t, t.basis[j])
        assert coords == tuple(1 if jj == j else 0 for jj in range(t.k))


def test_tower_vec_additive_and_small_linear():
    t = tower_create(3, 3)
    rng = random.Random(11)
    for _ in range(100):
        x, y = rng.randrange(t.big.q), rng.randrange(t.big.q)
        assert t.vec_packed(x ^ y) == t.vec_packed(x) ^ t.vec_packed(y)
        lam = rng.randrange(1, t.small.q)
        scaled = t.big.mul(t.embed(lam), x)
        want = tuple(t.small.mul(lam, c) for c in tower_vec(t, x))
        assert tower_vec(t, scaled) == want


def test_tower_trivial_small_field_is_bit_identity():
    t = tower_create(1, 6)
    for x in (0, 1, 5, 37, 63):
        assert t.vec_packed(x) == x
        assert t.unvec_packed(x) == x


def test_tower_subfield_membership():
    t = tower_create(4, 2)
    for a in range(t.small.q):
        img = t.embed(a)
        assert t.in_subfield(img)
        assert to_subfield(t, img) == a
    non_members = [x for x in range(t.big.q) if not t.in_subfield(x)]
    assert len(non_members) == t.big.q - t.small.q


def test_tower_too_large():
    with pytest.raises(UnsupportedDegree):
        tower_create(5, 5)


def test_tower_shapes_for_matrix_cases():
    for h, k in ((3, 2), (4, 2), (3, 3), (2, 2)):
        t = tower_create(h, k)
        assert t.big.q == t.small.q**k
        assert len(t.basis) == k
