"""The incidence plane of an ambient spread, and hyperovals inside it.

Points: the q^2k affine points of PG(2k, q) plus one point per spread
element.  Lines: for each element E, the q^k affine cosets base + <E>
closed up with E's point, plus the single line at infinity.  With a
Desarguesian spread this is PG(2, q^k) again; the axioms are checked here
against the incidence structure, not assumed.  Every translation of
V(2k, q) is a collineation, so the axioms come down to the element spans
partitioning H_inf, which the fibres of the spread's field reduction
certify with two products per element row (plane_axioms_check).  The same
partition puts every nonzero difference of a coset c0 + W in exactly one element, so
the spread stage's count of D per element, or one element_of per point of
the coset, gives every |W ∩ E| and the line histogram (hyperoval_in_plane).
The plane holds no per-element structure: base_of and line_at read the
rows from Spread.elements, whose distinct pivots the certificate checks.

Integer point ids inside reports: affine points are their packed
coordinates, the point of element idx is -1 - idx.
"""

from __future__ import annotations

from itertools import chain, combinations, repeat
from math import comb

from .errors import DimensionMismatch, EnumerationTooLarge, InvalidSpread
from .hyperoval import AffinePointSet, projected_differences, translation_closure_check
from .projective import DEFAULT_BUDGET
from .record import Record
from .reduction import CorrespondenceMaps, ReductionIndex, Spread


class BruckBosePlane:
    __slots__ = ("maps", "spread", "order", "n_points", "n_lines")

    def __init__(self, maps: CorrespondenceMaps, spread: Spread):
        self.maps = maps
        self.spread = spread
        self.order = maps.ambient.q ** len(spread.elements[0])
        self.n_points = self.order**2 + len(spread.elements)
        self.n_lines = self.order * len(spread.elements) + 1

    def base_of(self, eidx: int, p: int) -> int:
        """Coset representative of affine point p along element eidx.

        ProjSpace.reduce over the element's rows shifted up past the affine
        chunk, read from the spread on each call; it is the coset's one
        representative with zero pivot chunks when the pivots are distinct,
        which plane_axioms_check certifies.
        """
        h = self.maps.tower.h
        return self.maps.ambient.reduce(p, [r << h for r in self.spread.elements[eidx]])

    def line_through(self, p: int, r: int):
        """Line id (eidx, base) through two distinct affine points."""
        h = self.maps.tower.h
        d = self.maps.hinf.normalize((p ^ r) >> h)
        eidx = self.spread.element_of(d)
        return eidx, self.base_of(eidx, p)

    def line_at(self, idx: int):
        """Line number idx: element by element, then "inf" last.

        Line j of element eidx has chunk 0 equal to 1, zero pivot chunks and
        the base-q digits of j in the free chunks, lowest digit lowest (so
        the bases ascend): a zero chunk is pushed in at each pivot of j << h,
        the element's pivots read from the spread on each call.
        """
        if idx == self.n_lines - 1:
            return "inf"
        eidx, j = divmod(idx, self.order)
        h, pivot = self.maps.tower.h, self.maps.hinf.pivot
        base = j << h
        for shift in sorted((pivot(r) + 1) * h for r in self.spread.elements[eidx]):
            low = base & ((1 << shift) - 1)
            base = low | (base ^ low) << h
        return eidx, base | 1


def build_plane(maps: CorrespondenceMaps, spread: Spread | None = None) -> BruckBosePlane:
    """Incidence plane over a spread of H_inf (the canonical one by default)."""
    if spread is None:
        spread = maps.abb_spread
    if spread.space is not maps.hinf and spread.space != maps.hinf:
        raise DimensionMismatch("spread does not live in the hyperplane at infinity")
    return BruckBosePlane(maps, spread)


class PlaneAxiomsReport(Record):
    ok: bool
    mode: str
    points: int
    lines: int
    points_per_line: int
    lines_per_point: int
    pairs_checked: int
    collisions: int  # element rows off their fibre, elements of the wrong rank or pivots
    quadrangle_ok: bool
    witness: tuple | None
    # how the verdict was reached, not part of it
    path: str = "fibres"
    _uncompared = ("path",)


def _quadrangle_ok(plane: BruckBosePlane) -> bool:
    h = plane.maps.tower.h
    k = plane.maps.tower.k
    pts = [
        1,
        1 | (1 << h),
        1 | (1 << ((k + 1) * h)),
        1 | (1 << h) | (1 << ((k + 1) * h)),
    ]
    try:
        lines = {plane.line_through(a, b) for a, b in combinations(pts, 2)}
    except KeyError:  # a direction on no spread element
        return False
    return len(lines) == 6


def plane_axioms_check(
    plane: BruckBosePlane,
    budget: int | None = DEFAULT_BUDGET,
) -> PlaneAxiomsReport:
    """Projective plane axioms for the incidence structure, at every size.

    Lines are cosets b + <E>, so every translation of V(2k, q) is a
    collineation and the lines through two affine points depend only on
    their difference d: one per element whose span holds d.  Each parallel
    class tiles the affine points (distinct pivots give base_of one coset
    representative per coset), and two element points share only the line
    at infinity.  So every point pair lies on exactly one line iff the
    element spans partition the nonzero vectors of H_inf.

    The partition is certified from the fibres of the spread's
    ReductionIndex (path "fibres"), with no array over the q^2k vectors.
    The fibre of a source s, plus 0, is the preimage of GF(q^k) s under
    "M, then unvec each block" (to_source): a GF(q)-subspace, since the map
    is GF(q)-linear, and the fibres of distinct sources meet only in 0,
    since the Spread refused a map that is not injective.  The certificate
    asks that every element has k rows with distinct pivots (so
    independent) and that every row of element idx lies in the fibre of
    idx: the row is a normalized point and x = to_source(row) spans the
    source s = (s0, s1) of idx, x0 s1 = x1 s0 with x != 0, two products
    over GF(q^k) and no inverse.  Only a row that fails is looked up
    (element_of), to name the fibre it is in.  Then each span lies in its
    own fibre, the spans are pairwise disjoint, and q^k + 1 of them cover
    the q^2k - 1 nonzero vectors.  pairs_checked, the sum of C(|line|, 2)
    over the lines, equals C(points, 2) exactly when there are q^k + 1
    elements.  A repeated pivot is ("element pivots repeat", idx, pivots),
    and a row in a wrong fibre ("element row in another fibre", idx, row,
    other_idx), with other_idx None when the row is no normalized point.
    A spread whose index is no ReductionIndex raises InvalidSpread; the
    budget charges the k (q^k + 1) rows.  Four points in general position
    must also span six lines.  Nothing is sampled: the certificate decides
    the axioms, and every forged plane of the tests fails it with its own
    witness (test_forged_planes_fail_by_the_certificate_alone).
    """
    spread = plane.spread
    index = spread.index
    if not isinstance(index, ReductionIndex):
        raise InvalidSpread("the plane axioms are certified for a field reduction index only")
    tower, hinf = plane.maps.tower, plane.maps.hinf
    k, hk, mul = tower.k, tower.hk, tower.big.mul
    pivot, h, top, lead = hinf.pivot, hinf.h, 1 << hinf.bits, hinf.chunk_mask
    to_source, mask = index.to_source.apply, (1 << hk) - 1
    m = len(spread.elements)
    if budget is not None and k * m > budget:
        raise EnumerationTooLarge(k * m, budget, "fibre certificate")
    # element idx reduces the idx-th source point; past them there is none
    sources = chain(index.source.points(budget=None), repeat(None))
    collisions = 0
    witness = None
    for idx, (el, s) in enumerate(zip(spread.elements, sources)):
        if len(el) != k:
            collisions += 1
            witness = witness or ("element rank", idx, len(el), k)
            continue
        pivots = tuple(map(pivot, el))
        if len(set(pivots)) != k:
            collisions += 1
            witness = witness or ("element pivots repeat", idx, pivots)
        for row, p in zip(el, pivots):
            if s is not None and 0 < row < top and row >> p * h & lead == 1:
                x = to_source(row)
                if x and mul(x & mask, s >> hk) == mul(x >> hk, s & mask):
                    continue
            other = index.get(row)
            collisions += 1
            witness = witness or ("element row in another fibre", idx, row, other)
    n = plane.n_points
    order = plane.order
    pairs = m * order * comb(order + 1, 2) + comb(m, 2)
    covered_ok = pairs == comb(n, 2)
    if not covered_ok and witness is None:
        witness = ("pair count", pairs, comb(n, 2))
    quadrangle = _quadrangle_ok(plane)
    return PlaneAxiomsReport(
        ok=collisions == 0 and covered_ok and quadrangle,
        mode="exhaustive",
        points=n,
        lines=plane.n_lines,
        points_per_line=order + 1,
        lines_per_point=order + 1,
        pairs_checked=pairs,
        collisions=collisions,
        quadrangle_ok=quadrangle,
        witness=witness,
    )


class HyperovalPlaneReport(Record):
    ok: bool
    size_ok: bool
    closure_ok: bool
    histogram: dict  # |line meet H| -> number of lines, over all lines
    lines_checked: int
    incidence_equivalents: int
    witness: tuple | None
    mode: str  # "translation-group", or "closure" when Q is no coset


def hyperoval_in_plane(
    q_points: AffinePointSet,
    t0_index: int,
    tinf_index: int,
    plane: BruckBosePlane,
    dir_hits: dict | None = None,
) -> HyperovalPlaneReport:
    """Q plus the points of elements t0_index and tinf_index (the spread
    stage's transversals) is a hyperoval of the plane.

    The meet histogram over every line of the plane must be supported on
    {0, 2} (hyperovals have no tangents).  Q must be a verified coset
    c0 + W: the translations by W fix every parallel class, so a line
    base + E meets Q in 0 or |W ∩ E| points, and the histogram follows from
    one element_of per point of Q (_histogram_by_fibres), or from
    `dir_hits`, one_point_property's count of D = directions(q_points) per
    element.  A Q that is no coset fails with its closure witness and no
    histogram, and so does a difference whose direction lies on no element.
    The per-line meet count settles membership for all its points, so the
    work is equivalent to n_lines * (order + 1) point-line incidence checks.

    The verdict holds only for a plane that plane_axioms_check accepts: the
    counts are taken from the spread index's fibres, which are the element
    spans only when its certificate passes.  Off it, a class whose fibre
    count the lines of its span cannot hold fails with the witness
    ("element span is no fibre", element) and no histogram.
    """
    extra = {t0_index, tinf_index}
    if not all(0 <= idx < len(plane.spread) for idx in extra):
        raise InvalidSpread("transversal indices are not spread elements")
    order = plane.order
    size_ok = len(q_points) == order
    closure_ok, closure_witness = translation_closure_check(q_points)
    histogram, lines_checked = {}, 0
    if not closure_ok:
        witness = ("closure", closure_witness)
    else:
        histogram, witness = _histogram_by_fibres(q_points, plane, extra, dir_hits)
        if histogram:
            # the infinite line carries exactly the two transversal points
            histogram[2] = histogram.get(2, 0) + 1
            lines_checked = plane.n_lines
    return HyperovalPlaneReport(
        ok=size_ok and lines_checked > 0 and set(histogram) <= {0, 2},
        size_ok=size_ok,
        closure_ok=closure_ok,
        histogram={j: histogram[j] for j in sorted(histogram)},
        lines_checked=lines_checked,
        incidence_equivalents=lines_checked * (order + 1),
        witness=witness,
        mode="translation-group" if closure_ok else "closure",
    )


def _histogram_by_fibres(q_points: AffinePointSet, plane: BruckBosePlane, extra, dir_hits=None):
    """(histogram, witness) of the affine lines' meets with a coset Q = c0 + W.

    The element spans partition H_inf (plane_axioms_check's certificate),
    so each nonzero w = (p ^ c0) >> h of W lies in exactly one element and
    |W ∩ E| is 1 plus the points p != c0 whose direction element_of sends
    to E: |Q| - 1 lookups of projected_differences, no rank.  When
    `dir_hits` counts |D| = |Q| - 1 points, no two p share a direction and
    those are the counts, with no lookup.  On a plane that fails the
    certificate these are fibre counts, and the plane stage fails on it.
    Each line of element E through a point of Q meets Q in that point plus
    W ∩ E, so n / |W ∩ E| lines of the class meet Q in |W ∩ E| points and
    the rest miss it; the elements in `extra` add their point to every line
    of their class.  The witness ("line", element, base, count) names the
    first line met off {0, 2}: the line through c0 when the lines that meet
    Q fail, else the first line of the class that misses Q.  A direction on
    no element gives ({}, ("direction on no element", d)), and a class that
    Q would meet in more lines than it has, or in all of them when the count
    leaves one missed, gives ({}, ("element span is no fibre", element)).
    """
    n = len(q_points)
    order = plane.order
    c0 = q_points.ordered[0]
    if dir_hits is not None and sum(dir_hits.values()) == n - 1:
        meets = [1 + dir_hits.get(e, 0) for e in range(len(plane.spread.elements))]
    else:
        meets = [1] * len(plane.spread.elements)
        element_of = plane.spread.index.__getitem__
        for d in projected_differences(q_points, plane.maps.hinf):
            try:
                eidx = element_of(d)
            except KeyError:
                return {}, ("direction on no element", d)
            meets[eidx] += 1
    histogram: dict = {}
    witness = None
    for eidx, meet in enumerate(meets):
        bonus = 1 if eidx in extra else 0
        hit = n // meet
        if hit > order:
            return {}, ("element span is no fibre", eidx)
        for count, lines in ((meet + bonus, hit), (bonus, order - hit)):
            if not lines:
                continue
            histogram[count] = histogram.get(count, 0) + lines
            if witness is None and count not in (0, 2):
                if count == bonus:
                    met = {plane.base_of(eidx, p) for p in q_points.ordered}
                    lines_of = (plane.line_at(eidx * order + j)[1] for j in range(order))
                    base = next((b for b in lines_of if b not in met), None)
                    if base is None:
                        return {}, ("element span is no fibre", eidx)
                else:
                    base = plane.base_of(eidx, c0)
                witness = ("line", eidx, base, count)
    return histogram, witness
