"""Projective spaces PG(n, q), q = 2^h, with packed-int coordinate vectors.

A point of PG(n, q) is a nonzero vector of GF(q)^(n+1) packed into one int:
coordinate j occupies bits [j*h, (j+1)*h), so coordinate 0 sits in the least
significant chunk and vector addition is plain XOR.  Points are kept in the
canonical scaling whose leftmost (lowest-index) nonzero coordinate equals 1.
Subspaces are tuples of packed rows in reduced echelon form with strictly
increasing pivot chunks, so subspace equality is tuple equality.

Multiplying by a fixed scalar s is a GF(2)-linear map of packed vectors.  A
table-backed space holds it as a gf2.LinearMap, one lookup per byte into
ceil(bits/8) tables of 256 entries, built on s's first use: the package
has one byte-table kernel.  The spaces over the tower's base field GF(q)
are table-backed: a run multiplies by each of their q - 1 scalars hundreds
to thousands of times.  The spaces over GF(q^k) meet each scalar about
once and multiply chunk by chunk, with Field.mul (normalize adds logs).
Which kind a space is gets fixed where it is created.

vec/unvec and the coordinate changes are gf2.LinearMaps too, and
LinearMap.from_columns builds a GF(q)-linear one of this module's packed
vectors from its columns.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

from .errors import (
    DegenerateSpan,
    DimensionMismatch,
    EnumerationTooLarge,
    ZeroVector,
)
from .gf2 import TABLE_LIMIT, Field, LinearMap

DEFAULT_BUDGET = 10**8


def gaussian_lines(width: int, q: int) -> int:
    """Number of lines of PG(width-1, q)."""
    return (q**width - 1) * (q ** (width - 1) - 1) // ((q * q - 1) * (q - 1))


def projective_points_count(width: int, q: int) -> int:
    return (q**width - 1) // (q - 1)


class ProjSpace:
    """Coordinate helper for PG(n, q); all vectors are packed ints.

    With tables=True, smul applies one LinearMap per scalar (see the module
    docstring); a field above gf2's exp/log table limit keeps the chunk
    loop, so no space holds more than 2^16 scalar slots.
    """

    __slots__ = ("n", "field", "width", "h", "q", "chunk_mask", "bits", "_scalar_maps")

    def __init__(self, n: int, field: Field, tables: bool = False):
        self.n = n
        self.field = field
        self.width = n + 1
        self.h = field.m
        self.q = field.q
        self.chunk_mask = field.q - 1
        self.bits = self.width * self.h
        # slot s holds v -> s v once built; None: chunk loop
        self._scalar_maps: list | None = (
            [None] * self.q if tables and field.m <= TABLE_LIMIT else None
        )

    # -- packing ----------------------------------------------------------

    def pack(self, coords: Sequence[int]) -> int:
        if len(coords) != self.width:
            raise DimensionMismatch(f"need {self.width} coordinates")
        v = 0
        for j, c in enumerate(coords):
            v |= c << (j * self.h)
        return v

    def unpack(self, v: int) -> tuple[int, ...]:
        return tuple((v >> (j * self.h)) & self.chunk_mask for j in range(self.width))

    def chunk(self, v: int, j: int) -> int:
        return (v >> (j * self.h)) & self.chunk_mask

    def pivot(self, v: int) -> int:
        """Index of the lowest nonzero coordinate."""
        return ((v & -v).bit_length() - 1) // self.h

    # -- scalar action -----------------------------------------------------

    @property
    def table_backed(self) -> bool:
        """True when smul applies LinearMaps, False for the chunk loop."""
        return self._scalar_maps is not None

    def ensure_tables(self) -> bool:
        """Build every scalar's map now; True if the space has them."""
        maps = self._scalar_maps
        if maps is not None:
            for s in range(2, self.q):
                if maps[s] is None:
                    self._scalar_map(s)
        return maps is not None

    def _scalar_map(self, s: int):
        """v -> s v, the LinearMap of the images of the unit vectors, kept
        as its `apply` function."""
        h = self.h
        single = [self.field.mul(s, 1 << b) for b in range(h)]
        apply = LinearMap(single[b % h] << (b // h * h) for b in range(self.bits)).apply
        self._scalar_maps[s] = apply
        return apply

    def smul(self, s: int, v: int) -> int:
        """Scalar multiple of a packed vector: s's LinearMap on a
        table-backed space, else one Field.mul per nonzero chunk."""
        if s == 0:
            return 0
        if s == 1 or v == 0:
            return v
        maps = self._scalar_maps
        if maps is not None:
            return (maps[s] or self._scalar_map(s))(v)
        h = self.h
        mask = self.chunk_mask
        mul = self.field.mul
        out = 0
        shift = 0
        while v:
            c = v & mask
            if c:
                out |= mul(s, c) << shift
            v >>= h
            shift += h
        return out

    def normalize(self, v: int) -> int:
        """Canonical scaling: leftmost nonzero coordinate becomes 1.  The
        inverse is read off the exp/log tables, and a space without scalar
        tables adds logs chunk by chunk; above gf2.TABLE_LIMIT, Field.inv."""
        if v == 0:
            raise ZeroVector("zero vector has no projective point")
        h, mask = self.h, self.chunk_mask
        shift = ((v & -v).bit_length() - 1) // h * h
        lead = v >> shift & mask
        if lead == 1:
            return v
        exp, log = self.field._exp, self.field._log
        if exp is None:
            return self.smul(self.field.inv(lead), v)
        s = self.q - 1 - log[lead]  # the log of 1 / lead
        maps = self._scalar_maps
        if maps is not None:
            inv = exp[s]
            return (maps[inv] or self._scalar_map(inv))(v)
        out = 1 << shift
        v >>= shift + h
        while v:
            shift += h
            c = v & mask
            if c:
                out |= exp[s + log[c]] << shift
            v >>= h
        return out

    # -- counting ----------------------------------------------------------

    def npoints(self) -> int:
        return projective_points_count(self.width, self.q)

    def nlines(self) -> int:
        return gaussian_lines(self.width, self.q)

    # -- enumeration ---------------------------------------------------------

    def completions(self, base: int, free: Sequence[int]) -> Iterator[int]:
        """base plus every choice of coordinates at the free shifts, the last
        fastest; lazy, so the first point costs O(len(free)), not O(q)."""
        if not free:
            return iter((base,))
        step = 1 << free[-1]  # c << free[-1] for c < q, as one range
        return chain.from_iterable(map(v.__or__, range(0, self.q * step, step))
                                   for v in self.completions(base, free[:-1]))

    def points(self, budget: int | None = DEFAULT_BUDGET) -> Iterator[int]:
        """All normalized points, lexicographic on coordinate tuples."""
        if budget is not None and self.npoints() > budget:
            raise EnumerationTooLarge(self.npoints(), budget, "point enumeration")
        h = self.h
        for p in range(self.n, -1, -1):
            free = [j * h for j in range(p + 1, self.width)]
            yield from self.completions(1 << (p * h), free)

    def line_chunks(self) -> list[tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
        """The pivot patterns of the canonical lines, for enumerating them.

        Returns one entry per pivot pattern: (pivot0, pivot1, free0, free1)
        with the free shift positions of each row.  Every line is one row
        pair of one pattern; the exhaustive spectrum counts one pencil of
        q^|free0| lines per second row (linearsets._tally_pattern).
        """
        out = []
        for p0 in range(self.width - 1):
            for p1 in range(p0 + 1, self.width):
                free0 = tuple(
                    j * self.h for j in range(p0 + 1, self.width) if j != p1
                )
                free1 = tuple(j * self.h for j in range(p1 + 1, self.width))
                out.append((p0, p1, free0, free1))
        return out

    # -- linear algebra on packed rows ----------------------------------------

    def pair_line_key(self, a: int, b: int) -> tuple[int, int]:
        """Canonical row pair of the line through two distinct points.

        Both inputs must already be normalized points.
        """
        h = self.h
        pa = ((a & -a).bit_length() - 1) // h
        pb = ((b & -b).bit_length() - 1) // h
        if pa == pb:
            b ^= a  # both pivots have value 1
            if b == 0:
                raise DegenerateSpan("coincident points span no line")
            b = self.normalize(b)
            pb = ((b & -b).bit_length() - 1) // h
        if pb < pa:
            a, b = b, a
            pb = pa
        c = a >> pb * h & self.chunk_mask
        if c:
            a ^= self.smul(c, b)
        return (a, b)

    def rref(self, rows: Iterable[int]) -> tuple[int, ...]:
        """Reduced echelon form; rows sorted by pivot, pivots equal to 1."""
        out: list[int] = []
        for v in rows:
            for r in out:
                c = self.chunk(v, self.pivot(r))
                if c:
                    v ^= self.smul(c, r)
            if v == 0:
                continue
            v = self.normalize(v)
            pv = self.pivot(v)
            for idx, r in enumerate(out):
                c = self.chunk(r, pv)
                if c:
                    out[idx] = r ^ self.smul(c, v)
            out.append(v)
        out.sort(key=self.pivot)
        return tuple(out)

    def reduce(self, v: int, rows: Sequence[int]) -> int:
        """Clear the pivot chunks of the given echelon rows from v."""
        for r in rows:
            c = self.chunk(v, self.pivot(r))
            if c:
                v ^= self.smul(c, r)
        return v

    def line_points(self, r0: int, r1: int) -> list[int]:
        """The q+1 normalized points of a canonical line row pair."""
        pts = [r1]
        for lam in range(self.q):
            pts.append(r0 ^ self.smul(lam, r1))
        return pts

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ProjSpace)
            and other.n == self.n
            and other.field == self.field
        )

    def __hash__(self) -> int:
        return hash((self.n, self.field))

    def __repr__(self) -> str:
        return f"ProjSpace(n={self.n}, q={self.q})"
