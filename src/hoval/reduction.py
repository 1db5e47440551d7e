"""Field reduction and the maps between the three ambient geometries.

For the tower GF(2^h) < GF(2^hk) (q = 2^h) the same objects live in three
spaces: the plane PG(2, q^k), its Andre/Bruck-Bose ambient PG(2k, q) with
hyperplane at infinity PG(2k-1, q), and the Barlotti-Cofman ambient
PG(2hk, 2).  The packed layouts are chosen so that going down the tower only
reinterprets chunk boundaries: a GF(q)-coordinate vector with h-bit chunks
is bitwise identical to its GF(2)-coordinate expansion.

The spreads that field reduction builds (abb_spread of H_inf and the spread
the pseudoregulus stage rebuilds) are partitions by construction: the
element through a point is the reduction of the source point its blocks
spell, so Spread.reduced finds it with one unvec per block and one
normalize over the big field and never enumerates the points.  An element
is written down, not row-reduced: the reduction of a normalized source
point is already in ProjSpace.rref form (reduction_rows).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .errors import EnumerationTooLarge, InvalidSpread, NotAffine
from .gf2 import LinearMap, Tower, f2_echelon
from .projective import DEFAULT_BUDGET, ProjSpace


class Spread:
    """A partition of PG(n, q) into pairwise disjoint equal subspaces.

    Every spread comes from field reduction (``Spread.reduced``: abb_spread
    and the rebuilt spread of the pseudoregulus stage).  Each of
    ``elements`` is a subspace of ``space`` as its reduced-echelon row
    tuple (ProjSpace.rref), so two elements are equal iff their tuples are;
    the builders write each one with reduction_rows.
    ``sources[idx]`` is the packed point of the source projective space that
    field reduction turned into ``elements[idx]``, before any coordinate
    change; ``index`` is a ReductionIndex that finds the element through a
    normalized point from the point's source, so no point is visited.  The
    tests keep a point-by-point partition check as their oracle.
    """

    __slots__ = ("elements", "index", "space", "sources")

    @classmethod
    def reduced(
        cls,
        elements: Sequence[tuple[int, ...]],
        space: ProjSpace,
        tower: Tower,
        sources: Sequence[int],
        source_space: ProjSpace,
        matrix: LinearMap | None = None,
    ) -> Spread:
        """The spread whose element idx is M^-1 of the reduction of sources[idx].

        The caller builds elements[idx] as the field reduction over `tower`
        of the normalized point sources[idx] of `source_space`, carried by
        M^-1 when a `matrix` M (a LinearMap of `space`'s vectors) is given.  When the sources are every point
        of the source space once, the reductions partition `space`, and so
        does their image under M^-1.  Both counts are checked here, and so
        is M: "M, then unvec each block" must have GF(2)-independent
        columns, else the fibres of distinct sources share its kernel.  No
        point of `space` is visited.
        """
        source_index: dict[int, int] = {}
        for idx, src in enumerate(sources):
            if src in source_index:
                raise InvalidSpread(
                    f"source 0x{src:x} gives elements {source_index[src]} and {idx}"
                )
            source_index[src] = idx
        npoints = source_space.npoints()
        if not len(elements) == len(source_index) == npoints:
            raise InvalidSpread(
                f"{len(elements)} elements from {len(source_index)} of "
                f"{npoints} source points"
            )
        to_source = unvec_blocks(tower, source_space.width)
        lmap = to_source if matrix is None else matrix.then(to_source)
        if len(f2_echelon(lmap.columns)) != space.bits:
            raise InvalidSpread("the coordinate change is singular")
        spread = cls.__new__(cls)
        spread.elements = tuple(elements)
        spread.space = space
        spread.sources = tuple(sources)
        spread.index = ReductionIndex(space, source_space, source_index, lmap)
        return spread

    def __len__(self) -> int:
        return len(self.elements)

    def element_of(self, point: int) -> int:
        """Index of the unique element through a normalized point."""
        return self.index[point]


def unvec_blocks(tower: Tower, blocks: int) -> LinearMap:
    """v -> the big-field elements its blocks of k coordinates spell.

    Block c of v (bits [c hk, (c + 1) hk)) unvecs to an element of GF(q^k)
    packed at the same bits, so the result is a packed vector of
    PG(blocks - 1, q^k).
    """
    hk, unvec = tower.hk, tower.unvec_packed
    return LinearMap(unvec(1 << b % hk) << b // hk * hk for b in range(blocks * hk))


class ReductionIndex(Mapping):
    """Normalized point -> element index of a Spread.reduced, by arithmetic.

    A point of PG(rk-1, q) is r blocks of k coordinates.  After the
    optional coordinate change M, each block unvecs to an element of
    GF(q^k); the r of them, normalized in PG(r-1, q^k), are the source
    whose reduction holds the point.  "M, then unvec each block" is one
    GF(2)-linear map, applied by table (`to_source`).  A mapping view over
    every point of the space: len() is its point count, iteration
    enumerates it.
    """

    __slots__ = ("space", "source", "source_index", "to_source")

    def __init__(self, space, source, source_index, to_source: LinearMap):
        self.space = space
        self.source = source
        self.source_index = source_index
        self.to_source = to_source

    def __getitem__(self, point: int) -> int:
        space = self.space
        if not 0 < point < 1 << space.bits or space.chunk(point, space.pivot(point)) != 1:
            raise KeyError(point)
        return self.source_index[self.source.normalize(self.to_source(point))]

    def __len__(self) -> int:
        return self.space.npoints()

    def __iter__(self):
        return self.space.points()


def reduction_rows(tower: Tower, point: int) -> tuple[int, ...]:
    """The field reduction of a normalized point, as its ProjSpace.rref rows.

    Row j of point (x_0, ..., x_{r-1}) of PG(r-1, q^k) is (beta^j x_0, ...,
    beta^j x_{r-1}), each coordinate vec'd into a block of k chunks.  The
    tower basis is 1, beta, ..., beta^(k-1), so where the leading x_p is 1
    row j has block p = e_j and zero blocks before it: pivot p k + j, value
    1, zero in every other row's pivot, rows sorted by pivot.
    """
    hk, mask, vec, mul = tower.hk, tower.big.q - 1, tower.vec_packed, tower.big.mul
    coords = [point >> c & mask for c in range(0, point.bit_length(), hk)]
    return tuple(
        sum(vec(mul(b, x)) << c * hk for c, x in enumerate(coords)) for b in tower.basis
    )


def field_reduction_spread(
    tower: Tower, r: int, budget: int | None = DEFAULT_BUDGET
) -> Spread:
    """The (k-1)-spread of PG(rk-1, q) induced by PG(r-1, q^k).

    Element idx comes from the idx-th point (x_0, ..., x_{r-1}) of the source
    space and is the GF(q)-span of the vectors (a*x_0, ..., a*x_{r-1}) for
    a running over the big field; reduction_rows writes it down from the
    basis a = beta^j, already in reduced echelon form.  The budget counts
    the k rows written per source point; no target point is visited.
    """
    source = ProjSpace(r - 1, tower.big)
    target = ProjSpace(r * tower.k - 1, tower.small, tables=True)
    est = source.npoints() * tower.k
    if budget is not None and est > budget:
        raise EnumerationTooLarge(est, budget, "field reduction")
    sources = tuple(source.points(budget=None))
    elements = [reduction_rows(tower, pt) for pt in sources]
    return Spread.reduced(elements, target, tower, sources, source)


class CorrespondenceMaps:
    """Coordinate maps tying PG(2, q^k), PG(2k, q) and PG(2hk, 2) together."""

    __slots__ = (
        "tower", "plane_big", "ambient", "hinf", "_abb_spread",
    )

    def __init__(self, tower: Tower):
        self.tower = tower
        self.plane_big = ProjSpace(2, tower.big)
        # the GF(q) spaces multiply by each scalar many times: byte tables
        self.ambient = ProjSpace(2 * tower.k, tower.small, tables=True)
        self.hinf = ProjSpace(2 * tower.k - 1, tower.small, tables=True)
        self._abb_spread: Spread | None = None

    # -- plane over the big field -> Andre/Bruck-Bose ambient ----------------

    def abb_affine(self, p: int) -> int:
        """Affine (1, t, s) of PG(2, q^k) -> (1, vec t, vec s) of PG(2k, q)."""
        if self.plane_big.chunk(p, 0) != 1:
            raise NotAffine(f"0x{p:x} is not a normalized affine point")
        t = self.plane_big.chunk(p, 1)
        s = self.plane_big.chunk(p, 2)
        h = self.tower.h
        vec = self.tower.vec_packed
        return 1 | (vec(t) << h) | (vec(s) << (h * (self.tower.k + 1)))

    @property
    def abb_spread(self) -> Spread:
        """The Desarguesian (k-1)-spread of H_inf; no verify-all stage builds it."""
        if self._abb_spread is None:
            self._abb_spread = field_reduction_spread(self.tower, 2)
        return self._abb_spread

    # -- ambient over GF(q) -> Barlotti-Cofman ambient over GF(2) -------------

    def bc_affine(self, v: int) -> int:
        """Affine point of PG(2k, q) -> affine point of PG(2hk, 2)."""
        if self.ambient.chunk(v, 0) != 1:
            raise NotAffine(f"0x{v:x} is not a normalized affine point")
        return 1 | ((v >> self.tower.h) << 1)


_MAPS_CACHE: dict[tuple[int, int, int, int], CorrespondenceMaps] = {}


def maps_for(tower: Tower) -> CorrespondenceMaps:
    key = (tower.h, tower.k, tower.small.modulus, tower.big.modulus)
    m = _MAPS_CACHE.get(key)
    if m is None:
        m = CorrespondenceMaps(tower)
        _MAPS_CACHE[key] = m
    return m
