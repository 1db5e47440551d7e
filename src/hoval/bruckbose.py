"""The incidence plane of an ambient spread, and hyperovals inside it.

Points: the q^2k affine points of PG(2k, q) plus one point per spread
element.  Lines: for each element E, the q^k affine cosets base + <E>
closed up with E's point, plus the single line at infinity.  With a
Desarguesian spread this is PG(2, q^k) again; the axioms are checked here
against the incidence structure, not assumed.  Every translation of
V(2k, q) is a collineation, so the lines through two affine points depend
only on their difference: marking each element's directions once covers
all C(n, 2) point pairs in O(q^2k) work (plane_axioms_check).

Integer point ids inside reports: affine points are their packed
coordinates, the point of element idx is -1 - idx.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb

from .errors import DimensionMismatch, EnumerationTooLarge, InvalidSpread
from .hyperoval import (
    AffinePointSet,
    f2_echelon,
    f2_reduce,
    translation_basis,
    translation_closure_check,
)
from .projective import DEFAULT_BUDGET
from .reduction import CorrespondenceMaps, Spread

# the translation certificate keeps one byte per vector of V(2k, q)
_EXHAUSTIVE_DIRECTION_LIMIT = 1 << 20
# the pair-scan fallback keeps an n-bit int per point, n^2 / 8 bytes for n points
_PAIR_SCAN_POINT_LIMIT = 8192


class BruckBosePlane:
    __slots__ = (
        "maps", "spread", "tabs", "mask", "bases", "order",
        "n_points", "n_lines",
    )

    def __init__(self, maps: CorrespondenceMaps, spread: Spread):
        amb = maps.ambient
        h = maps.tower.h
        self.maps = maps
        self.spread = spread
        q = amb.q
        rank = len(spread.elements[0].rows)
        self.order = q**rank
        self.mask = amb.chunk_mask
        tabs = []
        bases = []
        cosets_by_free: dict = {}
        width = amb.width
        for el in spread.elements:
            rows = tuple(r << h for r in el.rows)
            # per row: (pivot shift, the q multiples of the row)
            tab = tuple(
                (amb.pivot(r) * h, tuple(amb.smul(c, r) for c in range(q)))
                for r in rows
            )
            tabs.append(tab)
            pivots = {amb.pivot(r) for r in rows}
            free = tuple(c for c in range(1, width) if c not in pivots)
            if len(free) != width - 1 - rank:
                raise InvalidSpread("element pivots collide with the affine chunk")
            cosets = cosets_by_free.get(free)
            if cosets is None:
                vecs = [1]
                for c in free:
                    vecs = [v | (val << (c * h)) for v in vecs for val in range(q)]
                cosets = cosets_by_free[free] = tuple(sorted(vecs))
            bases.append(cosets)
        self.tabs = tuple(tabs)
        self.bases = tuple(bases)
        self.n_points = self.order**2 + len(spread.elements)
        self.n_lines = self.order * len(spread.elements) + 1

    def base_of(self, eidx: int, p: int) -> int:
        """Coset representative of affine point p along element eidx.

        Clears the pivot chunks of the element's lifted rows in turn, as
        ProjSpace.reduce does, reading each row multiple from its table.
        """
        mask = self.mask
        for shift, multiples in self.tabs[eidx]:
            p ^= multiples[(p >> shift) & mask]
        return p

    def line_points(self, eidx: int, base: int) -> list:
        """The q^k affine points base + <E> of element eidx, unsorted.

        Built from the element's row multiples on each call.
        """
        pts = [base]
        for _, multiples in self.tabs[eidx]:
            pts = [p ^ m for p in pts for m in multiples]
        return pts

    def line_through(self, p: int, r: int):
        """Line id (eidx, base) through two distinct affine points."""
        h = self.maps.tower.h
        d = self.maps.hinf.normalize((p ^ r) >> h)
        eidx = self.spread.element_of(d)
        return eidx, self.base_of(eidx, p)

    def lines(self):
        for eidx, bs in enumerate(self.bases):
            for b in bs:
                yield (eidx, b)

    def line_at(self, idx: int):
        """Line number idx in the order of lines(), then "inf" last."""
        if idx == self.n_lines - 1:
            return "inf"
        eidx, j = divmod(idx, self.order)
        return eidx, self.bases[eidx][j]

    def meet(self, l1, l2) -> int:
        """Number of common points of two distinct lines.

        The line at infinity meets every other line in its element point,
        and two lines of one class share only theirs.  Lines b1 + E1 and
        b2 + E2 of distinct classes share the affine points b1 + (E1 ∩ E2)
        when b1 ^ b2 lies in E1 + E2 and none otherwise: q^(2k - r) or 0,
        r the rank of E1 + E2.  E2's rows are reduced along E1 by base_of
        and then against each other, so one echelon of at most k rows
        decides both; at rank 2k every direction lies in E1 + E2.
        """
        if l1 == "inf" or l2 == "inf":
            return 1
        (e1, b1), (e2, b2) = l1, l2
        if e1 == e2:
            return 1
        amb = self.maps.ambient
        rest: list = []
        for _, multiples in self.tabs[e2]:
            v = amb.reduce(self.base_of(e1, multiples[1]), rest)
            if v:
                rest.append(amb.normalize(v))
        if len(rest) < len(self.tabs[e2]) and amb.reduce(self.base_of(e1, b1 ^ b2), rest):
            return 0
        return self.order // amb.q ** len(rest)


def build_plane(maps: CorrespondenceMaps, spread: Spread | None = None) -> BruckBosePlane:
    """Incidence plane over a spread of H_inf (the canonical one by default)."""
    if spread is None:
        spread = maps.abb_spread
    if spread.space is not maps.hinf and spread.space != maps.hinf:
        raise DimensionMismatch("spread does not live in the hyperplane at infinity")
    return BruckBosePlane(maps, spread)


@dataclass(frozen=True)
class PlaneAxiomsReport:
    ok: bool
    mode: str
    points: int
    lines: int
    points_per_line: int
    lines_per_point: int
    pairs_checked: int
    collisions: int
    line_pairs_checked: int
    quadrangle_ok: bool
    witness: tuple | None
    # how the verdict was reached, not part of it: "translation" (direction
    # marks), "pair-scan" (coverage bitsets) or "sampled"
    path: str = field(default="pair-scan", compare=False)


def _cover_line(cover: list, ids) -> tuple[int, int, tuple | None]:
    """Mark the point pairs of one line in the per-point coverage bitsets.

    `ids` are the line's point ids in ascending order; bit b of cover[a]
    is set once the pair a < b lies on a scanned line.  Returns the number
    of pairs, how many of them an earlier line already covered, and the
    first such pair (smallest a, then smallest b) or None.
    """
    later = 0
    for a in ids:
        later |= 1 << a
    collisions = 0
    first = None
    for a in ids:
        later ^= 1 << a
        seen = cover[a] & later
        if seen:
            collisions += seen.bit_count()
            if first is None:
                first = (a, (seen & -seen).bit_length() - 1)
        cover[a] |= later
    return len(ids) * (len(ids) - 1) // 2, collisions, first


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


def _direction_marks(plane: BruckBosePlane, n_affine: int) -> tuple[int, tuple | None]:
    """Mark every element's directions in one byte per vector of V(2k, q).

    A direction is a nonzero span vector scaled so that its lowest nonzero
    chunk is 1, the H_inf packing of normalize.  With the rows of E sorted
    by pivot, each row is zero at the pivots before its own, so the
    directions with pivot chunk j are normalize(r_j) plus the span of the
    later rows: (q^k - 1) / (q - 1) marks per element, each direction once.
    Returns how many marks fell on a marked direction and, for the first
    element that repeats one, ("direction on two elements", d, e1, e2) with
    d its smallest repeated direction and e1 < e2.
    """
    h = plane.maps.tower.h
    normalize = plane.maps.hinf.normalize
    marks = bytearray(n_affine)
    repeats = 0
    witness = None
    for eidx, tab in enumerate(plane.tabs):
        low = [[m >> h for m in multiples] for _, multiples in sorted(tab)]
        dirs = []
        tail = [0]  # the span of the rows after row j
        for j in range(len(low) - 1, -1, -1):
            lead = normalize(low[j][1])
            dirs += [lead ^ v for v in tail]
            if j:
                tail = [v ^ m for v in tail for m in low[j]]
        seen = sum(map(marks.__getitem__, dirs))
        if seen:
            repeats += seen
            if witness is None:
                d = min(v for v in dirs if marks[v])
                e1 = next(e for e in range(eidx) if plane.base_of(e, d << h) == 0)
                witness = ("direction on two elements", d, e1, eidx)
        for v in dirs:
            marks[v] = 1
    return repeats, witness


def _pair_scan(plane: BruckBosePlane, budget) -> tuple[int, int, tuple | None]:
    """(pairs, collisions, first witness) of the coverage bitset scan.

    One int bitset per point id takes, line by line, the ids that follow
    it on the line; a pair already set collides.
    """
    n = plane.n_points
    order = plane.order
    est = n * n
    if budget is not None and est > budget:
        raise EnumerationTooLarge(est, budget, "pair coverage table")
    # ids: affine points in sorted packed order, then element points
    all_affine = sorted(p for b in plane.bases[0] for p in plane.line_points(0, b))
    affine_ids = {p: i for i, p in enumerate(all_affine)}
    # ids of each line in ascending order, the line at infinity last;
    # each element's span is built once for all of its lines
    spans = (plane.line_points(eidx, 0) for eidx in range(len(plane.bases)))
    point_lines = chain(
        (
            sorted(affine_ids[base ^ s] for s in span) + [order * order + eidx]
            for eidx, span in enumerate(spans)
            for base in plane.bases[eidx]
        ),
        [range(order * order, n)],
    )
    cover = [0] * n
    pairs = 0
    collisions = 0
    witness = None
    for ids in point_lines:
        line_pairs, line_collisions, first = _cover_line(cover, ids)
        pairs += line_pairs
        collisions += line_collisions
        if witness is None and first is not None:
            witness = ("pair on two lines", *first)
    return pairs, collisions, witness


def plane_axioms_check(
    plane: BruckBosePlane,
    mode: str = "auto",
    seed: int = 0,
    samples: int = 2000,
    budget: int | None = DEFAULT_BUDGET,
) -> PlaneAxiomsReport:
    """Projective plane axioms for the incidence structure.

    Exhaustive mode proves that every point pair lies on exactly one line
    from the translation group.  Lines are cosets b + <E>, so every
    translation of V(2k, q) is a collineation and the lines through two
    affine points depend only on their difference d: one per element whose
    span holds d.  Each parallel class tiles the affine points (k distinct
    pivots, checked when the plane is built, give one coset representative
    per coset), and two element points share only the line at infinity.
    So every pair lies on exactly one line iff the element spans partition
    the nonzero vectors of V(2k, q), which one byte per vector checks in
    O(q^2k) (path "translation").  pairs_checked is then the sum of
    C(|line|, 2) over the lines, which equals C(points, 2) on a plane, and
    each vector on t > 1 spans adds (t - 1) q^2k / 2 collisions.  When the
    spans overlap on a plane of at most 8192 points, the coverage bitset
    scan (path "pair-scan", n^2 / 8 bytes) names the first pair on two
    lines; above that the witness is the first direction on two elements.
    `auto` is exhaustive up to q^2k = 2^20 (every hk <= 10), and the
    budget charges the q^2k marks.

    Both modes draw line pairs with a seeded generator and count each
    meet by one rank (BruckBosePlane.meet): min(samples, 2000) of them in
    exhaustive mode, as a double-check.  Sampled mode spot checks point
    pairs, coset representatives and line pairs, `samples` draws in all.
    """
    n = plane.n_points
    order = plane.order
    n_affine = 1 << (plane.maps.ambient.bits - plane.maps.tower.h)
    if mode == "auto":
        mode = "exhaustive" if n_affine <= _EXHAUSTIVE_DIRECTION_LIMIT else "sampled"
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")

    quadrangle = _quadrangle_ok(plane)
    rng = random.Random(seed)
    if mode == "sampled":
        return _sampled_check(plane, rng, samples, quadrangle)

    if budget is not None and n_affine > budget:
        raise EnumerationTooLarge(n_affine, budget, "direction marks")
    if order * order != n_affine:
        raise InvalidSpread("parallel classes do not tile the affine points")
    repeats, witness = _direction_marks(plane, n_affine)
    if repeats and n <= _PAIR_SCAN_POINT_LIMIT:
        path = "pair-scan"
        pairs, collisions, witness = _pair_scan(plane, budget)
    else:
        path = "translation"
        m = len(plane.bases)
        pairs = m * order * comb(order + 1, 2) + comb(m, 2)
        # q - 1 vectors per direction, n_affine / 2 affine pairs per vector
        collisions = repeats * (plane.maps.ambient.q - 1) * (n_affine // 2)
    covered_ok = pairs == comb(n, 2)
    if not covered_ok and witness is None:
        witness = ("pair count", pairs, comb(n, 2))
    line_pairs = 0
    for _ in range(min(samples, 2000)):
        l1, l2 = (plane.line_at(i) for i in rng.sample(range(plane.n_lines), 2))
        c = plane.meet(l1, l2)
        line_pairs += 1
        if c != 1:
            collisions += 1
            if witness is None:
                witness = ("line pair meets", l1, l2, c)
    ok = collisions == 0 and covered_ok and quadrangle
    return PlaneAxiomsReport(
        ok=ok,
        mode="exhaustive",
        points=n,
        lines=plane.n_lines,
        points_per_line=order + 1,
        lines_per_point=order + 1,
        pairs_checked=pairs,
        collisions=collisions,
        line_pairs_checked=line_pairs,
        quadrangle_ok=quadrangle,
        witness=witness,
        path=path,
    )


def _sampled_check(plane: BruckBosePlane, rng, samples: int, quadrangle: bool):
    """Spot checks of point pairs, coset representatives and line pairs."""
    witness = None
    bad = 0
    pairs = 0
    n_elements = len(plane.bases)
    order = plane.order
    amb = plane.maps.ambient
    h = plane.maps.tower.h
    width_bits = amb.bits - h
    for _ in range(samples):
        kind = rng.randrange(3)
        if kind == 0:
            p = 1 | (rng.randrange(1 << width_bits) << h)
            r = 1 | (rng.randrange(1 << width_bits) << h)
            if p == r:
                continue
            # reduce is GF(q)-linear: p, r share a coset iff p ^ r reduces to 0
            d = p ^ r
            hits = [
                eidx for eidx in range(n_elements) if plane.base_of(eidx, d) == 0
            ]
            if len(hits) != 1:
                bad += 1
                if witness is None:
                    witness = ("affine pair", p, r, len(hits))
        elif kind == 1:
            p = 1 | (rng.randrange(1 << width_bits) << h)
            eidx = rng.randrange(n_elements)
            base = plane.base_of(eidx, p)
            if base not in plane.bases[eidx]:
                bad += 1
                if witness is None:
                    witness = ("coset rep missing", eidx, p)
        else:
            e1 = rng.randrange(n_elements)
            e2 = rng.randrange(n_elements)
            b1 = plane.bases[e1][rng.randrange(order)]
            b2 = plane.bases[e2][rng.randrange(order)]
            if (e1, b1) == (e2, b2):
                continue
            c = plane.meet((e1, b1), (e2, b2))
            if c != 1:
                bad += 1
                if witness is None:
                    witness = ("line pair meets", (e1, b1), (e2, b2), c)
        pairs += 1
    return PlaneAxiomsReport(
        ok=bad == 0 and quadrangle,
        mode="sampled",
        points=plane.n_points,
        lines=plane.n_lines,
        points_per_line=order + 1,
        lines_per_point=order + 1,
        pairs_checked=pairs,
        collisions=bad,
        line_pairs_checked=pairs,
        quadrangle_ok=quadrangle,
        witness=witness,
        path="sampled",
    )


@dataclass(frozen=True)
class HyperovalPlaneReport:
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
    t0_rows: tuple,
    tinf_rows: tuple,
    plane: BruckBosePlane,
) -> HyperovalPlaneReport:
    """Q plus the two transversal points is a hyperoval of the plane.

    The meet histogram over every line of the plane must be supported on
    {0, 2} (hyperovals have no tangents).  Q must be a verified coset
    c0 + W: the translations by W fix every parallel class, so a line
    base + E meets Q in 0 or |W ∩ E| points, and the histogram follows from
    one GF(2) rank per spread element (_histogram_by_basis).  A Q that is no
    coset fails with its closure witness and no histogram.  The per-line
    meet count settles membership for all its points, so the work is
    equivalent to n_lines * (order + 1) point-line incidence checks.
    """
    keyed = {el.rows: idx for idx, el in enumerate(plane.spread.elements)}
    if t0_rows not in keyed or tinf_rows not in keyed:
        raise InvalidSpread("transversal rows are not spread elements")
    extra = {keyed[t0_rows], keyed[tinf_rows]}
    order = plane.order
    size_ok = len(q_points) == order
    closure_ok, closure_witness = translation_closure_check(q_points)
    if closure_ok:
        histogram, witness = _histogram_by_basis(q_points, plane, extra)
        # the infinite line carries exactly the two transversal points
        histogram[2] = histogram.get(2, 0) + 1
        lines_checked = plane.n_lines
    else:
        histogram, witness = {}, ("closure", closure_witness)
        lines_checked = 0
    return HyperovalPlaneReport(
        ok=size_ok and closure_ok and set(histogram) <= {0, 2},
        size_ok=size_ok,
        closure_ok=closure_ok,
        histogram={j: histogram[j] for j in sorted(histogram)},
        lines_checked=lines_checked,
        incidence_equivalents=lines_checked * (order + 1),
        witness=witness,
        mode="translation-group" if closure_ok else "closure",
    )


def _histogram_by_basis(q_points: AffinePointSet, plane: BruckBosePlane, extra):
    """(histogram, witness) of the affine lines' meets with a coset Q = c0 + W.

    Each line of element E through a point of Q meets Q in that point plus
    W ∩ E, so n / |W ∩ E| lines of the class meet Q in |W ∩ E| points and
    the rest miss it; the elements in `extra` add their point to every line
    of their class.  The witness ("line", element, base, count) names the
    first line met off {0, 2}: the line through c0 when the lines that meet
    Q fail, else the first line of the class that misses Q.
    """
    hinf = plane.maps.hinf
    h = plane.maps.tower.h
    basis = translation_basis(q_points)
    n = len(q_points)
    c0 = q_points.ordered[0]
    histogram: dict = {}
    witness = None
    for eidx, el in enumerate(plane.spread.elements):
        gens = (f2_reduce(hinf.smul(1 << b, r), basis)
                for r in el.rows for b in range(h))
        meet = 1 << (h * len(el.rows) - len(f2_echelon(gens)))
        bonus = 1 if eidx in extra else 0
        hit = n // meet
        for count, lines in ((meet + bonus, hit),
                             (bonus, len(plane.bases[eidx]) - hit)):
            if not lines:
                continue
            histogram[count] = histogram.get(count, 0) + lines
            if witness is None and count not in (0, 2):
                if count == bonus:
                    met = {plane.base_of(eidx, p) for p in q_points.ordered}
                    base = next(b for b in plane.bases[eidx] if b not in met)
                else:
                    base = plane.base_of(eidx, c0)
                witness = ("line", eidx, base, count)
    return histogram, witness
