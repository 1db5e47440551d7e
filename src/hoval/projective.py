"""Projective spaces PG(n, q), q = 2^h, with packed-int coordinate vectors.

A point of PG(n, q) is a nonzero vector of GF(q)^(n+1) packed into one int:
coordinate j occupies bits [j*h, (j+1)*h), so coordinate 0 sits in the least
significant chunk and vector addition is plain XOR.  Points are kept in the
canonical scaling whose leftmost (lowest-index) nonzero coordinate equals 1.
Subspaces are tuples of packed rows in reduced echelon form with strictly
increasing pivot chunks, so subspace equality is tuple equality.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence

from .errors import (
    DegenerateSpan,
    DimensionMismatch,
    EnumerationTooLarge,
    SingularMatrix,
    ZeroVector,
)
from .gf2 import Field

DEFAULT_BUDGET = 10**8

# full scalar-times-vector tables are built only below this size
_SMUL_TABLE_LIMIT = 1 << 20


def gaussian_lines(width: int, q: int) -> int:
    """Number of lines of PG(width-1, q)."""
    return (q**width - 1) * (q ** (width - 1) - 1) // ((q * q - 1) * (q - 1))


def projective_points_count(width: int, q: int) -> int:
    return (q**width - 1) // (q - 1)


class ProjSpace:
    """Coordinate helper for PG(n, q); all vectors are packed ints."""

    __slots__ = (
        "n", "field", "width", "h", "q", "chunk_mask", "bits", "_smul_tabs",
    )

    def __init__(self, n: int, field: Field):
        self.n = n
        self.field = field
        self.width = n + 1
        self.h = field.m
        self.q = field.q
        self.chunk_mask = field.q - 1
        self.bits = self.width * self.h
        self._smul_tabs: list[list[int]] | None = None

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

    def ensure_tables(self) -> bool:
        """Build full scalar-action tables when affordable; True if present."""
        self._ensure_tables()
        return self._smul_tabs is not None

    def _ensure_tables(self) -> None:
        if self._smul_tabs is not None:
            return
        size = 1 << self.bits
        if size * self.q > _SMUL_TABLE_LIMIT:
            return
        mul = self.field.mul
        h = self.h
        mask = self.chunk_mask
        tabs = [None] * self.q
        tabs[0] = [0] * size
        tabs[1] = list(range(size))
        for s in range(2, self.q):
            row = [0] * size
            single = [mul(s, c) for c in range(self.q)]
            for v in range(1, size):
                row[v] = single[v & mask] | (row[v >> h] << h)
            tabs[s] = row
        self._smul_tabs = tabs  # type: ignore[assignment]

    def smul(self, s: int, v: int) -> int:
        """Scalar multiple of a packed vector."""
        if s == 0:
            return 0
        if s == 1 or v == 0:
            return v
        if self._smul_tabs is not None:
            return self._smul_tabs[s][v]
        mul = self.field.mul
        h = self.h
        mask = self.chunk_mask
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
        """Canonical scaling: leftmost nonzero coordinate becomes 1."""
        if v == 0:
            raise ZeroVector("zero vector has no projective point")
        lead = self.chunk(v, self.pivot(v))
        if lead == 1:
            return v
        return self.smul(self.field.inv(lead), v)

    # -- counting ----------------------------------------------------------

    def npoints(self) -> int:
        return projective_points_count(self.width, self.q)

    def nlines(self) -> int:
        return gaussian_lines(self.width, self.q)

    # -- enumeration ---------------------------------------------------------

    def points(self, budget: int | None = DEFAULT_BUDGET) -> Iterator[int]:
        """All normalized points, lexicographic on coordinate tuples."""
        if budget is not None and self.npoints() > budget:
            raise EnumerationTooLarge(self.npoints(), budget, "point enumeration")
        q, h = self.q, self.h
        for p in range(self.n, -1, -1):
            base = 1 << (p * h)
            rest = self.n - p
            if rest == 0:
                yield base
                continue
            shifts = [(p + 1 + j) * h for j in range(rest)]
            for suffix in product(range(q), repeat=rest):
                v = base
                for sh, c in zip(shifts, suffix):
                    v |= c << sh
                yield v

    def lines(self, budget: int | None = DEFAULT_BUDGET) -> Iterator[tuple[int, int]]:
        """All lines as canonical reduced-echelon row pairs."""
        total = self.nlines()
        if budget is not None and total > budget:
            raise EnumerationTooLarge(total, budget, "line enumeration")
        q, h, width = self.q, self.h, self.width
        for p0 in range(width - 1):
            for p1 in range(p0 + 1, width):
                base0 = 1 << (p0 * h)
                base1 = 1 << (p1 * h)
                free0 = [j * h for j in range(p0 + 1, width) if j != p1]
                free1 = [j * h for j in range(p1 + 1, width)]
                for vals0 in product(range(q), repeat=len(free0)):
                    r0 = base0
                    for sh, c in zip(free0, vals0):
                        r0 |= c << sh
                    for vals1 in product(range(q), repeat=len(free1)):
                        r1 = base1
                        for sh, c in zip(free1, vals1):
                            r1 |= c << sh
                        yield (r0, r1)

    def line_chunks(self) -> list[tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
        """Splittable description of the line enumeration for parallel scans.

        Returns one entry per pivot pattern: (pivot0, pivot1, free0, free1)
        with the free shift positions of each row.  Workers re-enumerate a
        pattern independently; the union over patterns is lines().
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
        pa, pb = self.pivot(a), self.pivot(b)
        if pa == pb:
            b ^= a if self.chunk(b, pb) == 1 else self.smul(self.chunk(b, pb), a)
            # both inputs normalized: pivots have value 1, so XOR suffices
            if b == 0:
                raise DegenerateSpan("coincident points span no line")
            b = self.normalize(b)
            pb = self.pivot(b)
        if pb < pa:
            a, b = b, a
            pa, pb = pb, pa
        c = self.chunk(a, pb)
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

    def contains(self, rows: Sequence[int], v: int) -> bool:
        return self.reduce(v, rows) == 0

    def subspace_points(self, rows: Sequence[int]) -> list[int]:
        """Normalized points of the span of echelon rows (all of them)."""
        r = len(rows)
        if r == 0:
            return []
        if r == 1:
            return [rows[0]]
        coeff_space = ProjSpace(r - 1, self.field)
        out = []
        for cv in coeff_space.points(budget=None):
            v = 0
            for j in range(r):
                c = coeff_space.chunk(cv, j)
                if c:
                    v ^= self.smul(c, rows[j])
            out.append(v)
        return out

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


class Subspace:
    """A projective subspace given by its reduced-echelon basis rows."""

    __slots__ = ("rows", "space", "_points")

    def __init__(self, rows: Sequence[int], space: ProjSpace):
        self.rows = tuple(rows)
        self.space = space
        self._points: list[int] | None = None

    @property
    def dim(self) -> int:
        return len(self.rows) - 1

    def npoints(self) -> int:
        return projective_points_count(len(self.rows), self.space.q)

    def contains(self, v: int) -> bool:
        return self.space.contains(self.rows, v)

    def points(self) -> list[int]:
        if self._points is None:
            self._points = self.space.subspace_points(self.rows)
        return self._points

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subspace)
            and other.rows == self.rows
            and other.space == self.space
        )

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, rows={self.rows})"


class Line(Subspace):
    """A line; caches its q+1 points."""

    __slots__ = ()

    def __init__(self, r0: int, r1: int, space: ProjSpace):
        super().__init__((r0, r1), space)

    def points(self) -> list[int]:
        if self._points is None:
            self._points = self.space.line_points(*self.rows)
        return self._points


def line_through(a: int, b: int, space: ProjSpace) -> Line:
    r0, r1 = space.pair_line_key(a, b)
    return Line(r0, r1, space)


# ---------------------------------------------------------------------------
# small dense matrices over GF(q), rows as lists of coordinate ints
# ---------------------------------------------------------------------------

def mat_vec_packed(m: Sequence[Sequence[int]], v: int, space: ProjSpace) -> int:
    """Matrix times packed column vector, result packed."""
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


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], field: Field
            ) -> list[list[int]]:
    n = len(a)
    m = len(b[0])
    inner = len(b)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = 0
            for t in range(inner):
                if a[i][t] and b[t][j]:
                    acc ^= field.mul(a[i][t], b[t][j])
            out[i][j] = acc
    return out


def mat_inv(m: Sequence[Sequence[int]], field: Field) -> list[list[int]]:
    n = len(m)
    a = [list(row) for row in m]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise SingularMatrix("matrix has no inverse")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        scale = field.inv(a[col][col])
        if scale != 1:
            a[col] = [field.mul(scale, x) for x in a[col]]
            inv[col] = [field.mul(scale, x) for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x ^ field.mul(f, y) for x, y in zip(a[r], a[col])]
                inv[r] = [x ^ field.mul(f, y) for x, y in zip(inv[r], inv[col])]
    return inv

