"""Reference implementations the tests hold the library's fast paths to.

Each is the straightforward version of something `src/hoval` now computes
another way, kept here (not in the package) because only tests call it.
"""

from itertools import product

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


def cone_set(pts, space: ProjSpace) -> frozenset:
    """All scalar multiples of the normalized points, as raw vectors."""
    cone = set()
    for d in pts:
        for lam in range(1, space.q):
            cone.add(space.smul(lam, d))
    return frozenset(cone)


def scan_pattern(space: ProjSpace, cone, pattern) -> dict:
    """Point counts of every line of one pivot pattern, line by line."""
    p0, p1, free0, free1 = pattern
    q, h = space.q, space.h
    smul = space.smul
    counts: dict = {}
    base0 = 1 << (p0 * h)
    base1 = 1 << (p1 * h)
    lams = range(1, q)
    for vals0 in product(range(q), repeat=len(free0)):
        r0 = base0
        for sh, c in zip(free0, vals0):
            r0 |= c << sh
        for vals1 in product(range(q), repeat=len(free1)):
            r1 = base1
            for sh, c in zip(free1, vals1):
                r1 |= c << sh
            c = (r1 in cone) + (r0 in cone)
            for lam in lams:
                if r0 ^ smul(lam, r1) in cone:
                    c += 1
            counts[c] = counts.get(c, 0) + 1
    return counts


def line_scan_counts(pts, space: ProjSpace) -> dict:
    """The line spectrum of a point set, every line's points counted."""
    cone = cone_set(pts, space)
    out: dict = {}
    for pattern in space.line_chunks():
        for j, c in scan_pattern(space, cone, pattern).items():
            out[j] = out.get(j, 0) + c
    return {j: out[j] for j in sorted(out)}
