"""Translation hyperovals of PG(2, q^k) and their affine shadows.

The point set is {(1, t, t^(2^i)) : t in GF(q^k)} plus (0,1,0) and (0,0,1).
It is a hyperoval exactly when gcd(i, hk) = 1; the constructor still builds
the set for other exponents so the detection machinery has honest negative
inputs to work on.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import combinations

from .errors import GcdHypothesisViolated, TooFewPoints
from .gf2 import MAX_DEGREE, f2_echelon, tower_create
from .projective import ProjSpace
from .record import Record
from .reduction import CorrespondenceMaps, maps_for


class HyperovalSpec(Record):
    """Parameters (h, k, i): tower GF(2^h) < GF(2^hk), Frobenius x -> x^(2^i)."""

    h: int
    k: int
    i: int
    strict: bool = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.h < 1 or self.k < 1:
            raise ValueError("h and k must be positive")
        hk = self.h * self.k
        if hk > MAX_DEGREE:
            raise ValueError(f"hk = {hk} exceeds the field degree cap {MAX_DEGREE}")
        if not 1 <= self.i <= hk - 1:
            raise ValueError(f"exponent must lie in 1..{hk - 1}")
        if self.strict and math.gcd(self.i, hk) != 1:
            raise GcdHypothesisViolated(
                f"gcd({self.i}, {hk}) = {math.gcd(self.i, hk)} != 1; "
                "pass strict=False to build the set anyway"
            )

    @property
    def hk(self) -> int:
        return self.h * self.k


class AffinePointSet:
    """A set of normalized affine points of one projective space.

    The translation basis W, the result of translation_closure_check and
    projected_differences are memoized on the set, so the stages that read
    them (directions, linearity, the hyperoval line scan, the C-planes and
    their axioms) compute each at most once per set.
    """

    __slots__ = ("points", "ordered", "space", "_closure", "_basis", "_projected")

    def __init__(self, points, space: ProjSpace):
        self.points = frozenset(points)
        self.ordered = tuple(sorted(self.points))
        self.space = space
        self._closure = None
        self._basis = None
        self._projected = None
        for p in self.ordered:
            if space.chunk(p, 0) != 1:
                raise ValueError(f"0x{p:x} is not normalized affine")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ordered)

    def __contains__(self, p: int) -> bool:
        return p in self.points


class DirectionSet:
    """Normalized points of the hyperplane at infinity hit by secant lines."""

    __slots__ = ("points", "ordered", "space")

    def __init__(self, points, space: ProjSpace):
        self.points = frozenset(points)
        self.ordered = tuple(sorted(self.points))
        self.space = space

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ordered)

    def __contains__(self, p: int) -> bool:
        return p in self.points


class TranslationHyperoval(Record):
    spec: HyperovalSpec
    maps: CorrespondenceMaps
    plane_points: tuple  # all q^k + 2 points of PG(2, q^k), sorted
    affine: AffinePointSet  # the q^k affine images in PG(2k, q)
    infinity: tuple  # the two plane points at infinity

    @property
    def size(self) -> int:
        return len(self.plane_points)


def build_hyperoval(spec: HyperovalSpec, maps: CorrespondenceMaps | None = None) -> TranslationHyperoval:
    if maps is None:
        maps = maps_for(tower_create(spec.h, spec.k))
    tower = maps.tower
    big = tower.big
    plane = maps.plane_big
    frob = big.frob
    affine_plane = [plane.pack((1, t, frob(t, spec.i))) for t in range(big.q)]
    e1 = plane.pack((0, 1, 0))
    e2 = plane.pack((0, 0, 1))
    q_points = AffinePointSet((maps.abb_affine(p) for p in affine_plane), maps.ambient)
    return TranslationHyperoval(
        spec=spec,
        maps=maps,
        plane_points=tuple(sorted(affine_plane + [e1, e2])),
        affine=q_points,
        infinity=(e1, e2),
    )


def is_arc(points: Sequence[int], space: ProjSpace, coset: bool | None = None):
    """No three of the points collinear.

    Returns (True, None) or (False, (p1, p2, p3)) with a collinear triple.
    Points must be normalized; duplicates are rejected up front.

    When the affine points (first coordinate 1) form a coset of an additive
    group and at most two points lie at infinity, the translations of that
    coset fix the points at infinity and carry any collinear triple onto
    one through the smallest affine point, so only the lines from that
    point are tested.  Each is named by its point at infinity:
    normalize(p ^ base) for an affine p, and p itself for a point at
    infinity.  A collision there, or any other input, runs the full pair
    scan, which also picks the reported triple.

    `coset` is the caller's proved verdict on whether the affine points
    form a coset; None proves it here (_is_coset).  The construct stage
    passes its translation closure of the points' abb_affine images: that
    map is injective and GF(2)-affine, so one set is a coset exactly when
    the other is, and C is echelon-reduced once.
    """
    pts = sorted(set(points))
    if len(pts) != len(points):
        raise ValueError("duplicate points")
    if len(pts) < 3:
        raise TooFewPoints(f"need at least 3 points, got {len(pts)}")
    mask = space.chunk_mask
    affine = [p for p in pts if p & mask == 1]
    if len(pts) - len(affine) <= 2 and (_is_coset(affine) if coset is None else coset):
        base, normalize = affine[0], space.normalize
        at_infinity = {normalize(p ^ base) if p & mask == 1 else p for p in pts if p != base}
        if len(at_infinity) == len(pts) - 1:
            return True, None
    return _arc_scan(pts, space)


def _arc_scan(pts, space: ProjSpace):
    """is_arc over all C(n, 2) pairs of the sorted points."""
    first_pair: dict = {}
    for a, b in combinations(pts, 2):
        key = space.pair_line_key(a, b)
        prev = first_pair.get(key)
        if prev is not None:
            third = prev[0] if prev[0] not in (a, b) else prev[1]
            return False, (third, a, b)
        first_pair[key] = (a, b)
    return True, None


def directions(q_points: AffinePointSet, maps: CorrespondenceMaps) -> DirectionSet:
    """Normalized H_inf points spanned by differences of affine points.

    For a set whose translation closure is verified the differences a ^ b
    are exactly the differences base ^ x against one base point, so n - 1 of
    them give the whole set; any other set pays for all C(n, 2) pairs.
    """
    if q_points.ordered and translation_closure_check(q_points)[0]:
        return DirectionSet(projected_differences(q_points, maps.hinf), maps.hinf)
    h, normalize = maps.tower.h, maps.hinf.normalize
    out = {normalize((a ^ b) >> h) for a, b in combinations(q_points.ordered, 2)}
    return DirectionSet(out, maps.hinf)


def projected_differences(q_points: AffinePointSet, hinf: ProjSpace) -> tuple:
    """hinf.normalize((p ^ c0) >> h) for p in ordered[1:], c0 = ordered[0]:
    the H_inf point of each difference from the least point, in order; for
    a closed set, D point by point.  Memoized on the set."""
    if q_points._projected is None:
        h, c0, normalize = q_points.space.h, q_points.ordered[0], hinf.normalize
        q_points._projected = tuple(normalize((p ^ c0) >> h) for p in q_points.ordered[1:])
    return q_points._projected


def translation_closure_check(q_points: AffinePointSet):
    """P1 + P2 + P0 stays in the set for a fixed base point P0.

    The affine set is closed under this ternary operation iff it is a coset
    of an additive group of vectors, which is what makes every secant
    direction a full translation direction.  That holds iff the n points
    fill the span of their differences, n = 2^rank W (translation_basis);
    only a set that fails this test is scanned pair by pair, for the
    witness.  Returns (ok, witness); the result is computed once per set
    and memoized on it.
    """
    if q_points._closure is None:
        if len(q_points) == 1 << len(translation_basis(q_points)):
            q_points._closure = (True, None)
        else:
            q_points._closure = _closure_scan(q_points.ordered, q_points.points)
    return q_points._closure


def translation_basis(q_points: AffinePointSet) -> tuple:
    """The GF(2) echelon basis of W = span{(p ^ c0) >> h}, c0 = ordered[0].

    Vectors are in the H_inf layout, where the packed GF(q) coordinates are
    read as 2hk bits; the rows are W's unique reduced echelon basis
    (f2_echelon).  For a closed set C = c0 + W.  Memoized on the set.
    """
    if q_points._basis is None:
        ordered = q_points.ordered
        h = q_points.space.h
        q_points._basis = f2_echelon((p ^ ordered[0]) >> h for p in ordered[1:])
    return q_points._basis


def _is_coset(ordered) -> bool:
    """Do the points fill the span of their differences from ordered[0]?"""
    return len(ordered) == 1 << len(f2_echelon(p ^ ordered[0] for p in ordered))


def _closure_scan(ordered, points):
    """(ok, witness) of a ^ b ^ ordered[0] in points for all pairs a, b."""
    base = ordered[0]
    for a, b in combinations(ordered, 2):
        v = a ^ b ^ base
        if v not in points:
            return False, (a, b, base, v)
    return True, None
