"""Field reduction and the maps between the three ambient geometries.

For the tower GF(2^h) < GF(2^hk) (q = 2^h) the same objects live in three
spaces: the plane PG(2, q^k), its Andre/Bruck-Bose ambient PG(2k, q) with
hyperplane at infinity PG(2k-1, q), and the Barlotti-Cofman ambient
PG(2hk, 2).  The packed layouts are chosen so that going down the tower only
reinterprets chunk boundaries: a GF(q)-coordinate vector with h-bit chunks
is bitwise identical to its GF(2)-coordinate expansion.

Both Desarguesian spreads of a run (abb_spread of H_inf and the spread the
pseudoregulus stage rebuilds) are one Spread: the field reduction of every
point of PG(1, q^k), carried by M^-1 when the stage has fitted a coordinate
change M.  They are partitions by construction: the element through a
point is the reduction of the source point its blocks spell, so the
spread's index finds it with one unvec per block and one normalize over
the big field and never enumerates the points.  An element is written
down, not row-reduced: the reduction of a normalized source point is
already in ProjSpace.rref form (reduction_map).
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import EnumerationTooLarge, InvalidSpread, NotAffine, SingularMatrix
from .gf2 import LinearMap, Tower
from .projective import DEFAULT_BUDGET, ProjSpace, projective_points_count


class Spread:
    """The Desarguesian (k-1)-spread of PG(rk-1, q), by field reduction.

    ``Spread(tower, space)`` reduces PG(r-1, q^k) over `tower` into
    `space`, r = space.width / k: element idx is the reduction
    (reduction_map) of the idx-th point of ProjSpace(r - 1, q^k).points().
    With a `matrix` M, a LinearMap of `space`'s vectors, element idx is the
    reduction of the point that M^-1 of source idx spells: M^-1 of the
    reduction of source idx when M permutes the spread, and otherwise an
    element off its fibre, which plane_axioms_check names.  Each element
    is its reduced-echelon row tuple (ProjSpace.rref), so two elements are
    equal iff their tuples are.  ``index`` is a ReductionIndex that finds
    the element through a normalized point from the point's source, so no
    point of `space` is visited.  The tests keep a point-by-point partition
    check as their oracle.
    """

    __slots__ = ("elements", "index", "space")

    def __init__(self, tower: Tower, space: ProjSpace, matrix: LinearMap | None = None):
        """Every source point once, so the fibres of the index partition
        `space`.  M is refused unless "M, then unvec each block" is
        invertible: else the fibres of distinct sources share its kernel.
        """
        source = ProjSpace(space.width // tower.k - 1, tower.big)
        to_source = unvec_blocks(tower, source.width)
        points = tuple(source.points(budget=None))
        if matrix is None:
            lmap, spelled = to_source, points
        else:
            lmap = matrix.then(to_source)
            try:
                back = lmap.inverse().then(to_source)  # source -> source under M^-1
            except SingularMatrix:
                raise InvalidSpread("the coordinate change is singular") from None
            spelled = map(source.normalize, map(back.apply, points))
        self.elements = tuple(map(reduction_map(tower, source.width), spelled))
        self.space = space
        self.index = ReductionIndex(
            space, source, {s: idx for idx, s in enumerate(points)}, lmap
        )

    def __len__(self) -> int:
        return len(self.elements)

    def element_of(self, point: int) -> int:
        """Index of the unique element through a normalized point."""
        return self.index[point]


def unvec_blocks(tower: Tower, blocks: int) -> LinearMap:
    """v -> the big-field elements its blocks of k coordinates spell.

    Block c of v (bits [c hk, (c + 1) hk)) unvecs to an element of GF(q^k)
    packed at the same bits, so the result is a packed vector of
    PG(blocks - 1, q^k).  One map per tower and number of blocks, built on
    first use and kept in tower.unvec_maps.
    """
    lmap = tower.unvec_maps.get(blocks)
    if lmap is None:
        hk, unvec = tower.hk, tower.unvec_packed
        lmap = tower.unvec_maps[blocks] = LinearMap(
            unvec(1 << b % hk) << b // hk * hk for b in range(blocks * hk)
        )
    return lmap


class ReductionIndex(Mapping):
    """Normalized point -> element index of a Spread, by arithmetic.

    A point of PG(rk-1, q) is r blocks of k coordinates.  After the
    optional coordinate change M, each block unvecs to an element of
    GF(q^k); the r of them, normalized in PG(r-1, q^k), are the source
    whose reduction holds the point.  "M, then unvec each block" is one
    GF(2)-linear map, applied by table (`to_source`); an unnormalized point
    is refused by its pivot chunk, read inline.  A mapping view over every
    point of the space: len() is its point count, iteration enumerates it.
    """

    __slots__ = ("space", "source", "source_index", "to_source")

    def __init__(self, space, source, source_index, to_source: LinearMap):
        self.space = space
        self.source = source
        self.source_index = source_index
        self.to_source = to_source

    def __getitem__(self, point: int) -> int:
        space = self.space
        h = space.h
        if not 0 < point < 1 << space.bits or (
                point >> ((point & -point).bit_length() - 1) // h * h & space.chunk_mask != 1):
            raise KeyError(point)
        return self.source_index[self.source.normalize(self.to_source.apply(point))]

    def __len__(self) -> int:
        return self.space.npoints()

    def __iter__(self):
        return self.space.points()


def reduction_map(tower: Tower, r: int):
    """point -> its field reduction as ProjSpace.rref rows, for the
    normalized points of PG(r-1, q^k).

    Row j of point (x_0, ..., x_{r-1}) is (beta^j x_0, ..., beta^j
    x_{r-1}), each coordinate vec'd into a block of k chunks.  The tower
    basis is 1, beta, ..., beta^(k-1), so where the leading x_p is 1 row j
    has block p = e_j and zero blocks before it: pivot p k + j, value 1,
    zero in every other row's pivot, rows sorted by pivot.  The k rows are
    one GF(2)-linear image of the point, row j at bit j r hk: one LinearMap
    per tower and r, built on first use and kept in tower.reduction_maps.
    """
    rows_of = tower.reduction_maps.get(r)
    if rows_of is None:
        hk, vec, mul = tower.hk, tower.vec_packed, tower.big.mul
        width = r * hk
        lmap = LinearMap(
            sum(vec(mul(bj, 1 << b % hk)) << (j * width + b // hk * hk)
                for j, bj in enumerate(tower.basis))
            for b in range(width))
        apply, mask = lmap.apply, (1 << width) - 1
        shifts = range(0, tower.k * width, width)

        def rows_of(point: int) -> tuple[int, ...]:
            rows = apply(point)
            return tuple(rows >> s & mask for s in shifts)

        tower.reduction_maps[r] = rows_of
    return rows_of


def field_reduction_spread(
    tower: Tower, r: int, budget: int | None = DEFAULT_BUDGET
) -> Spread:
    """The (k-1)-spread of PG(rk-1, q) induced by PG(r-1, q^k).

    Element idx comes from the idx-th point (x_0, ..., x_{r-1}) of the source
    space and is the GF(q)-span of the vectors (a*x_0, ..., a*x_{r-1}) for
    a running over the big field; reduction_map writes it down from the
    basis a = beta^j, already in reduced echelon form.  The budget counts
    the k rows written per source point; no target point is visited.
    """
    est = projective_points_count(r, tower.big.q) * tower.k
    if budget is not None and est > budget:
        raise EnumerationTooLarge(est, budget, "field reduction")
    return Spread(tower, ProjSpace(r * tower.k - 1, tower.small, tables=True))


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
