"""The incidence plane of an ambient spread, and hyperovals inside it.

Points: the q^2k affine points of PG(2k, q) plus one point per spread
element.  Lines: for each element E, the q^k affine cosets base + <E>
closed up with E's point, plus the single line at infinity.  With a
Desarguesian spread this is PG(2, q^k) again; the axioms are checked here
directly against the incidence structure, not assumed.

Integer point ids inside reports: affine points are their packed
coordinates, the point of element idx is -1 - idx.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations

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

# pair coverage keeps an n-bit int per point, n^2 / 8 bytes for n points
_EXHAUSTIVE_POINT_LIMIT = 8192


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


def _common_points(plane: BruckBosePlane, l1, l2) -> int:
    """Number of common points of two distinct lines, by brute membership."""
    inf1 = l1 == "inf"
    inf2 = l2 == "inf"
    if inf1 or inf2:
        return 1  # the other line's element point is on the infinite line
    e1, b1 = l1
    e2, b2 = l2
    if e1 == e2:
        return 1 if b1 != b2 else None  # parallel class meets at the element point
    count = 0
    for p in plane.line_points(e1, b1):
        if plane.base_of(e2, p) == b2:
            count += 1
    return count  # element points differ, so only affine meetings count


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
    lines = {plane.line_through(a, b) for a, b in combinations(pts, 2)}
    return len(lines) == 6


def plane_axioms_check(
    plane: BruckBosePlane,
    mode: str = "auto",
    seed: int = 0,
    samples: int = 2000,
    budget: int | None = DEFAULT_BUDGET,
) -> PlaneAxiomsReport:
    """Projective plane axioms for the incidence structure.

    Exhaustive mode keeps one int bitset per point id and ORs in, line by
    line, the ids that follow it on the line; a pair already set collides,
    and the final pair count matching C(points, 2) certifies every pair is
    covered.  Together with the uniform line size and point degree this
    forces two lines to meet in exactly one point, which sampled line pairs
    double-check.  Sampled mode spot checks point pairs and line pairs with
    a seeded generator.
    """
    n = plane.n_points
    order = plane.order
    if mode == "auto":
        mode = "exhaustive" if n <= _EXHAUSTIVE_POINT_LIMIT else "sampled"
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")

    quadrangle = _quadrangle_ok(plane)
    rng = random.Random(seed)
    n_elements = len(plane.spread.elements)
    witness = None

    if mode == "exhaustive":
        est = n * n
        if budget is not None and est > budget:
            raise EnumerationTooLarge(est, budget, "pair coverage table")
        # ids: affine points in sorted packed order, then element points
        all_affine = sorted(
            p for b in plane.bases[0] for p in plane.line_points(0, b)
        )
        affine_ids = {p: i for i, p in enumerate(all_affine)}
        if len(affine_ids) != order * order:
            raise InvalidSpread("element 0 cosets do not tile the affine points")
        # ids of each line in ascending order, the line at infinity last;
        # each element's span is built once for all of its lines
        spans = (plane.line_points(eidx, 0) for eidx in range(n_elements))
        point_lines = chain(
            (
                sorted(affine_ids[base ^ s] for s in span)
                + [order * order + eidx]
                for eidx, span in enumerate(spans)
                for base in plane.bases[eidx]
            ),
            [range(order * order, n)],
        )
        cover = [0] * n
        pairs = 0
        collisions = 0
        for ids in point_lines:
            line_pairs, line_collisions, first = _cover_line(cover, ids)
            pairs += line_pairs
            collisions += line_collisions
            if witness is None and first is not None:
                witness = ("pair on two lines", *first)
        covered_ok = pairs == n * (n - 1) // 2
        if not covered_ok and witness is None:
            witness = ("pair count", pairs, n * (n - 1) // 2)
        line_pairs = 0
        all_lines = list(plane.lines()) + ["inf"]
        for _ in range(min(samples, 2000)):
            l1, l2 = rng.sample(all_lines, 2)
            c = _common_points(plane, l1, l2)
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
        )

    # sampled
    bad = 0
    pairs = 0
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
            c = _common_points(plane, (e1, b1), (e2, b2))
            if c != 1:
                bad += 1
                if witness is None:
                    witness = ("line pair meets", (e1, b1), (e2, b2), c)
        pairs += 1
    ok = bad == 0 and quadrangle
    return PlaneAxiomsReport(
        ok=ok,
        mode="sampled",
        points=n,
        lines=plane.n_lines,
        points_per_line=order + 1,
        lines_per_point=order + 1,
        pairs_checked=pairs,
        collisions=bad,
        line_pairs_checked=pairs,
        quadrangle_ok=quadrangle,
        witness=witness,
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
    mode: str  # "translation-group" | "line-scan"


def hyperoval_in_plane(
    q_points: AffinePointSet,
    t0_rows: tuple,
    tinf_rows: tuple,
    plane: BruckBosePlane,
) -> HyperovalPlaneReport:
    """Q plus the two transversal points is a hyperoval of the plane.

    The meet histogram over every line of the plane must be supported on
    {0, 2} (hyperovals have no tangents).  When Q is a verified coset
    c0 + W, the translations by W fix every parallel class, so a line
    base + E meets Q in 0 or |W ∩ E| points, and the histogram follows from
    one GF(2) rank per spread element.  Otherwise, or when that histogram
    fails, every line is scanned, which also picks the witness.  Either way
    the per-line meet count settles membership for all its points, so the
    work is equivalent to n_lines * (order + 1) point-line incidence checks.
    """
    keyed = {el.rows: idx for idx, el in enumerate(plane.spread.elements)}
    if t0_rows not in keyed or tinf_rows not in keyed:
        raise InvalidSpread("transversal rows are not spread elements")
    extra = {keyed[t0_rows], keyed[tinf_rows]}
    order = plane.order
    size_ok = len(q_points) == order
    closure_ok, closure_witness = translation_closure_check(q_points)

    histogram = _histogram_by_basis(q_points, plane, extra) if closure_ok else None
    if histogram is not None and set(histogram) <= {0, 2}:
        mode, witness = "translation-group", None
    else:
        mode = "line-scan"
        histogram, witness = _histogram_by_scan(q_points, plane, extra)
    # the infinite line carries exactly the two transversal points
    histogram[2] = histogram.get(2, 0) + 1
    lines_checked = plane.n_lines
    ok = size_ok and closure_ok and set(histogram) <= {0, 2}
    if witness is None and not closure_ok:
        witness = ("closure", closure_witness)
    return HyperovalPlaneReport(
        ok=ok,
        size_ok=size_ok,
        closure_ok=closure_ok,
        histogram={j: histogram[j] for j in sorted(histogram)},
        lines_checked=lines_checked,
        incidence_equivalents=lines_checked * (order + 1),
        witness=witness,
        mode=mode,
    )


def _histogram_by_basis(q_points: AffinePointSet, plane: BruckBosePlane, extra) -> dict:
    """The affine lines' meet histogram of a coset Q = c0 + W.

    Each line of element E through a point of Q meets Q in that point plus
    W ∩ E, so n / |W ∩ E| lines of the class meet Q in |W ∩ E| points and
    the rest miss it; the elements in `extra` add their point to every line
    of their class.
    """
    hinf = plane.maps.hinf
    h = plane.maps.tower.h
    basis = translation_basis(q_points)
    n = len(q_points)
    histogram: dict = {}
    for eidx, el in enumerate(plane.spread.elements):
        gens = (f2_reduce(hinf.smul(1 << b, r), basis)
                for r in el.rows for b in range(h))
        meet = 1 << (h * len(el.rows) - len(f2_echelon(gens)))
        bonus = 1 if eidx in extra else 0
        hit = n // meet
        for count, lines in ((meet + bonus, hit),
                             (bonus, len(plane.bases[eidx]) - hit)):
            if lines:
                histogram[count] = histogram.get(count, 0) + lines
    return histogram


def _histogram_by_scan(q_points: AffinePointSet, plane: BruckBosePlane, extra):
    """(histogram, witness) of the affine lines' meets, line by line."""
    histogram: dict = {}
    witness = None
    base_of = plane.base_of
    for eidx, bases in enumerate(plane.bases):
        counts = Counter(base_of(eidx, p) for p in q_points.ordered)
        bonus = 1 if eidx in extra else 0
        for base in bases:
            c = counts.get(base, 0) + bonus
            histogram[c] = histogram.get(c, 0) + 1
            if c not in (0, 2) and witness is None:
                on_line = [p for p in q_points.ordered
                           if plane.base_of(eidx, p) == base]
                witness = ("line", eidx, base, c, tuple(on_line[:3]))
    return histogram, witness
