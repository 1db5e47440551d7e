"""Field reduction and the maps between the three ambient geometries.

For the tower GF(2^h) < GF(2^hk) (q = 2^h) the same objects live in three
spaces: the plane PG(2, q^k), its Andre/Bruck-Bose ambient PG(2k, q) with
hyperplane at infinity PG(2k-1, q), and the Barlotti-Cofman ambient
PG(2hk, 2).  The packed layouts are chosen so that going down the tower only
reinterprets chunk boundaries: a GF(q)-coordinate vector with h-bit chunks
is bitwise identical to its GF(2)-coordinate expansion.
"""

from __future__ import annotations

from typing import Sequence

from .errors import EnumerationTooLarge, InvalidSpread, NotAffine, NotAtInfinity
from .gf2 import Tower, field_create, tower_create
from .projective import DEFAULT_BUDGET, ProjSpace, Subspace


class Spread:
    """A partition of PG(n, q) into pairwise disjoint equal subspaces.

    ``sources[idx]`` is the packed point of the source projective space that
    field reduction turned into ``elements[idx]`` (None for spreads built
    some other way).
    """

    __slots__ = ("elements", "index", "space", "sources", "source_space", "source_index")

    def __init__(
        self,
        elements: Sequence[Subspace],
        space: ProjSpace,
        sources: Sequence[int] | None = None,
        source_space: ProjSpace | None = None,
    ):
        self.elements = tuple(elements)
        self.space = space
        self.sources = None if sources is None else tuple(sources)
        self.source_space = source_space
        self.source_index = (
            None
            if sources is None
            else {src: i for i, src in enumerate(self.sources)}
        )
        index: dict[int, int] = {}
        for idx, el in enumerate(self.elements):
            for p in el.points():
                if p in index:
                    raise InvalidSpread(
                        f"point 0x{p:x} lies in elements {index[p]} and {idx}"
                    )
                index[p] = idx
        if len(index) != space.npoints():
            raise InvalidSpread(
                f"elements cover {len(index)} of {space.npoints()} points"
            )
        self.index = index

    def __len__(self) -> int:
        return len(self.elements)

    def element_of(self, point: int) -> int:
        """Index of the unique element through a normalized point."""
        return self.index[point]

    def keys(self) -> set[tuple[int, ...]]:
        return {el.rows for el in self.elements}


def field_reduction_spread(
    tower: Tower, r: int, budget: int | None = DEFAULT_BUDGET
) -> Spread:
    """The (k-1)-spread of PG(rk-1, q) induced by PG(r-1, q^k).

    Element idx comes from the idx-th point (x_0, ..., x_{r-1}) of the source
    space and is the GF(q)-span of the vectors (a*x_0, ..., a*x_{r-1}) for
    a running over the big field; its basis uses a = beta^j.
    """
    big, small = tower.big, tower.small
    source = ProjSpace(r - 1, big)
    target = ProjSpace(r * tower.k - 1, small)
    est = source.npoints() * tower.k + target.npoints()
    if budget is not None and est > budget:
        raise EnumerationTooLarge(est, budget, "field reduction")
    hk_bits = tower.k * tower.h
    vec = tower.vec_packed
    mul = big.mul
    elements = []
    sources = []
    for pt in source.points(budget=None):
        coords = source.unpack(pt)
        rows = []
        for b in tower.basis:
            row = 0
            for c, x in enumerate(coords):
                if x:
                    row |= vec(mul(b, x)) << (c * hk_bits)
            rows.append(row)
        elements.append(Subspace(target.rref(rows), target))
        sources.append(pt)
    return Spread(elements, target, sources, source)


class CorrespondenceMaps:
    """Coordinate maps tying PG(2, q^k), PG(2k, q) and PG(2hk, 2) together."""

    __slots__ = (
        "tower", "plane_big", "ambient", "hinf", "pi2", "hinf2",
        "_abb_spread", "_s_prime", "_s_tilde",
    )

    def __init__(self, tower: Tower):
        self.tower = tower
        gf2 = field_create(1)
        self.plane_big = ProjSpace(2, tower.big)
        self.ambient = ProjSpace(2 * tower.k, tower.small)
        self.hinf = ProjSpace(2 * tower.k - 1, tower.small)
        self.pi2 = ProjSpace(2 * tower.hk, gf2)
        self.hinf2 = ProjSpace(2 * tower.hk - 1, gf2)
        self._abb_spread: Spread | None = None
        self._s_prime: Spread | None = None
        self._s_tilde: Spread | None = None

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

    def abb_affine_inv(self, v: int) -> int:
        if self.ambient.chunk(v, 0) != 1:
            raise NotAffine(f"0x{v:x} is not a normalized affine point")
        hk_bits = self.tower.k * self.tower.h
        h = self.tower.h
        t = self.tower.unvec_packed((v >> h) & ((1 << hk_bits) - 1))
        s = self.tower.unvec_packed(v >> (h * (self.tower.k + 1)))
        return self.plane_big.pack((1, t, s))

    def infinity_source(self, p: int) -> int:
        """Point (0, x1, x2) at infinity -> the PG(1, q^k) point (x1, x2)
        packed the way field reduction indexes its sources."""
        if self.plane_big.chunk(p, 0) != 0:
            raise NotAtInfinity(f"0x{p:x} is affine")
        return p >> (self.tower.k * self.tower.h)

    def direction_spread_element(self, p: int) -> Subspace:
        """Point (0, x1, x2) at infinity -> its (k-1)-space inside H_inf."""
        if self.plane_big.chunk(p, 0) != 0:
            raise NotAtInfinity(f"0x{p:x} is affine")
        x1 = self.plane_big.chunk(p, 1)
        x2 = self.plane_big.chunk(p, 2)
        hk_bits = self.tower.k * self.tower.h
        vec = self.tower.vec_packed
        mul = self.tower.big.mul
        rows = [
            vec(mul(b, x1)) | (vec(mul(b, x2)) << hk_bits) for b in self.tower.basis
        ]
        return Subspace(self.hinf.rref(rows), self.hinf)

    @property
    def abb_spread(self) -> Spread:
        """The Desarguesian (k-1)-spread of H_inf from the line at infinity."""
        if self._abb_spread is None:
            self._abb_spread = field_reduction_spread(self.tower, 2)
        return self._abb_spread

    # -- ambient over GF(q) -> Barlotti-Cofman ambient over GF(2) -------------

    def bc_affine(self, v: int) -> int:
        """Affine point of PG(2k, q) -> affine point of PG(2hk, 2)."""
        if self.ambient.chunk(v, 0) != 1:
            raise NotAffine(f"0x{v:x} is not a normalized affine point")
        return 1 | ((v >> self.tower.h) << 1)

    def bc_affine_inv(self, w: int) -> int:
        if w & 1 != 1:
            raise NotAffine(f"0x{w:x} is not a normalized affine point")
        return 1 | ((w >> 1) << self.tower.h)

    def bc_spread_of(self, p: int) -> Subspace:
        """Point of H_inf -> its (h-1)-space in the GF(2) hyperplane."""
        rows = [self.hinf.smul(1 << b, p) for b in range(self.tower.h)]
        return Subspace(self.hinf2.rref(rows), self.hinf2)

    def hinf_point_of_f2_vector(self, w: int) -> int:
        """The H_inf point whose (h-1)-space contains the GF(2) vector w.

        The packed layouts coincide bit for bit, so this is just
        renormalization of w read with h-bit chunks.
        """
        return self.hinf.normalize(w)

    @property
    def s_prime(self) -> Spread:
        """(h-1)-spread of PG(2hk-1, 2); elements match points of H_inf."""
        if self._s_prime is None:
            sub = tower_create(1, self.tower.h, big_modulus=self.tower.small.modulus)
            self._s_prime = field_reduction_spread(sub, 2 * self.tower.k, budget=None)
        return self._s_prime

    @property
    def s_tilde(self) -> Spread:
        """(hk-1)-spread of PG(2hk-1, 2) matching the line at infinity.

        Built as the GF(2)-expansion of the GF(q) spread so that it lives in
        the same basis coordinates as everything else; reducing GF(2^hk)
        directly would land in polynomial-basis bit coordinates instead,
        which differ by a per-chunk GF(2)-isomorphism.
        """
        if self._s_tilde is None:
            base = self.abb_spread
            h = self.tower.h
            els = []
            for el in base.elements:
                rows = [
                    self.hinf.smul(1 << b, r) for r in el.rows for b in range(h)
                ]
                els.append(Subspace(self.hinf2.rref(rows), self.hinf2))
            self._s_tilde = Spread(els, self.hinf2, base.sources, base.source_space)
        return self._s_tilde


_MAPS_CACHE: dict[tuple[int, int, int, int], CorrespondenceMaps] = {}


def maps_for(tower: Tower) -> CorrespondenceMaps:
    key = (tower.h, tower.k, tower.small.modulus, tower.big.modulus)
    m = _MAPS_CACHE.get(key)
    if m is None:
        m = CorrespondenceMaps(tower)
        _MAPS_CACHE[key] = m
    return m
