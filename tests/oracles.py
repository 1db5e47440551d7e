"""Reference implementations the tests hold the library's fast paths to.

Each is the straightforward version of something `src/hoval` now computes
another way, kept here (not in the package) because only tests call it.
"""

from hoval.projective import ProjSpace


def mat_vec_packed(m, v: int, space: ProjSpace) -> int:
    """Matrix over GF(q) times packed column vector, one product per entry."""
    mul = space.field.mul
    coords = space.unpack(v)
    out = 0
    for i, row in enumerate(m):
        acc = 0
        for j, c in enumerate(coords):
            if c and row[j]:
                acc ^= mul(row[j], c)
        out |= acc << (i * space.h)
    return out


def apply_columns(columns, v: int) -> int:
    """The GF(2)-linear map with these unit-vector images, applied to v."""
    out = 0
    for col in columns:
        if not v:
            break
        if v & 1:
            out ^= col
        v >>= 1
    return out


def nonzero_elements(field) -> range:
    """The nonzero elements of a Field, as ints."""
    return range(1, field.q)
