"""Planes spanned by the affine point set together with its long secants.

For each affine point P of the translation set C and each long secant s of
its direction set, the span <P, s> is a plane of PG(2k, q).  These C-planes
tile the affine points off C, slice C itself into q-arcs, and every triple
of C points generates either one of them or a plane holding exactly four
points of C.

Every axiom verdict covers the whole family, but only an input whose
symmetry has been verified gets a shortcut.  When C is a verified coset
c0 + W, the family is built from the meets W ∩ L_s of W with the lifted
secant spaces, and A2 and A3 become partition statements about those
meets and about the images of the L_s in V/W, checked by GF(2) linear
algebra.  A1 and A4 reduce their scans to the planes and triples through
one point once the translations of C are verified to carry the family onto
itself, and A4 reads its bins off the cyclic group of D that the spectrum
verified when it is given one.  Any other input, and any failing shortcut,
takes the explicit scan, which also picks the reported witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .errors import CPlaneConstructionFailed, DegenerateSpan, EnumerationTooLarge
from .hyperoval import (
    AffinePointSet,
    f2_echelon,
    f2_reduce,
    is_arc,
    translation_basis,
    translation_closure_check,
)
from .linearsets import CyclicSymmetry
from .projective import DEFAULT_BUDGET
from .pseudoregulus import SecantStructure
from .reduction import CorrespondenceMaps


@dataclass(frozen=True)
class CPlane:
    secant_index: int
    base: int  # affine coset representative against the lifted secant rows
    rows: tuple  # canonical 3-row basis in the ambient space
    points: tuple  # the q points of C on this plane, sorted


@dataclass(frozen=True)
class CPlaneFamily:
    planes: tuple
    m: int  # number of long secants
    q: int
    vector_keys: frozenset  # (secant rows, reduced base vector) per plane
    # point set -> translation-symmetry verdict, filled by _symmetric
    _symmetry: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    # (C, W, per secant its rows and the vectors of W ∩ L_s), set by
    # build_c_planes when it built the family from C's translation basis
    _translation: tuple | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __len__(self) -> int:
        return len(self.planes)


def build_c_planes(
    c_points: AffinePointSet,
    structure: SecantStructure,
    maps: CorrespondenceMaps,
) -> CPlaneFamily:
    """Group C by coset against each lifted long secant.

    Every (point, secant) pair must land in a class of exactly q points of
    C; the family size comes out to |C| * m / q.  For a verified coset
    C = c0 + W the classes of secant s are the cosets c + (W ∩ L_s), read
    off the q^2 vectors of L_s; otherwise, or when some |W ∩ L_s| is not q,
    each point is reduced against each secant.
    """
    amb = maps.ambient
    h = maps.tower.h
    q = amb.q
    lifted = [tuple(r << h for r in s.rows) for s in structure.secants]
    meets = None
    if translation_closure_check(c_points)[0]:
        meets = _secant_meets(c_points, structure, maps)
    if meets is not None:
        planes = _planes_from_meets(c_points, meets, lifted, maps)
    else:
        planes = _planes_by_reduce(c_points, lifted, maps)
    expected = len(c_points) * structure.count // q
    if len(planes) != expected:
        raise CPlaneConstructionFailed(
            f"{len(planes)} planes formed, expected {expected}"
        )
    hinf = maps.hinf
    vkeys = frozenset(
        (structure.secants[pl.secant_index].rows,
         hinf.reduce(pl.base >> h, structure.secants[pl.secant_index].rows))
        for pl in planes
    )
    if len(vkeys) != len(planes):
        raise CPlaneConstructionFailed("two planes share a vector key")
    family = CPlaneFamily(
        planes=tuple(planes), m=structure.count, q=q, vector_keys=vkeys
    )
    if meets is not None:
        record = tuple(zip((s.rows for s in structure.secants), meets))
        object.__setattr__(
            family, "_translation",
            (c_points, translation_basis(c_points), record),
        )
    return family


def _secant_meets(c_points: AffinePointSet, structure, maps):
    """Per secant s, the vectors x of L_s with c0 ^ (x << h) in C, sorted.

    For a closed C these are W ∩ L_s.  None when one of them does not hold
    exactly q vectors.
    """
    hinf = maps.hinf
    h = maps.tower.h
    q = hinf.q
    c0 = c_points.ordered[0]
    points = c_points.points
    meets = []
    for s in structure.secants:
        m0, m1 = ([hinf.smul(c, r) for c in range(q)] for r in s.rows)
        meet = sorted(
            x for x in (a ^ b for a in m0 for b in m1)
            if c0 ^ (x << h) in points
        )
        if len(meet) != q:
            return None
        meets.append(meet)
    return meets


def _planes_from_meets(c_points, meets, lifted, maps) -> list:
    """The cosets c + (W ∩ L_s) of C, one ambient reduce per plane."""
    reduce = maps.ambient.reduce
    h = maps.tower.h
    planes = []
    for sidx, (meet, rows) in enumerate(zip(meets, lifted)):
        shifts = [x << h for x in meet]
        done: set = set()
        found = []
        for p in c_points.ordered:
            if p in done:
                continue
            pts = sorted(p ^ x for x in shifts)
            done.update(pts)
            found.append((reduce(p, rows), tuple(pts)))
        found.sort()
        planes.extend(
            CPlane(secant_index=sidx, base=base, rows=(base,) + rows, points=pts)
            for base, pts in found
        )
    return planes


def _planes_by_reduce(c_points, lifted, maps) -> list:
    """Group every point of C by its reduction against every secant."""
    amb = maps.ambient
    q = amb.q
    groups: dict = {}
    for p in c_points.ordered:
        for sidx, rows in enumerate(lifted):
            key = (sidx, amb.reduce(p, rows))
            groups.setdefault(key, []).append(p)
    planes = []
    for (sidx, base), pts in sorted(groups.items()):
        if len(pts) != q:
            raise CPlaneConstructionFailed(
                f"secant {sidx} coset 0x{base:x} holds {len(pts)} points of C, "
                f"expected {q}"
            )
        rows = (base,) + lifted[sidx]
        planes.append(
            CPlane(secant_index=sidx, base=base, rows=rows, points=tuple(pts))
        )
    return planes


@dataclass(frozen=True)
class AxiomReport:
    name: str
    ok: bool
    checked: int
    witness: tuple | None
    detail: dict
    # where A4 took its plane bins from: "cyclic-group", "pair-scan" or
    # "triple-scan"; provenance only, so reports that agree
    # on everything else compare equal whatever their source
    bins: str | None = field(default=None, compare=False)


def _check_a1(
    family: CPlaneFamily, c_points: AffinePointSet, maps: CorrespondenceMaps
) -> AxiomReport:
    """Each plane meets C in a q-arc.

    Under the translation symmetry of _symmetric every plane's meet is the
    translate of a meet through the base point ordered[0], and a
    translation keeps collinearity, so only those meets are tested: each
    plane's meet is translated onto the base point and the distinct results
    checked, m of them for a symmetric family.  Any other input, and any
    failure, takes the all-planes scan, which picks the reported plane.
    """
    amb = maps.ambient
    planes = family.planes
    if _symmetric(family, c_points, maps):
        base = c_points.ordered[0]
        meets = {
            tuple(sorted(p ^ pl.points[0] ^ base for p in pl.points))
            for pl in planes
        }
        if all(is_arc(pts, amb)[0] for pts in meets):
            checked = sum(comb(len(pl.points), 2) for pl in planes)
            return AxiomReport(
                "A1", True, checked, None,
                {"mode": "base-point", "planes": len(planes)},
            )
    return _a1_all_planes(family, amb)


def _a1_all_planes(family: CPlaneFamily, amb) -> AxiomReport:
    """A1 by testing every plane's meet with C, stopping at the first failure."""
    checked = 0
    for idx, pl in enumerate(family.planes):
        ok, witness = is_arc(pl.points, amb)
        checked += len(pl.points) * (len(pl.points) - 1) // 2
        if not ok:
            return AxiomReport(
                "A1", False, checked, ("plane", idx) + witness,
                {"mode": "all-planes"},
            )
    return AxiomReport(
        "A1", True, checked, None,
        {"mode": "all-planes", "planes": len(family.planes)},
    )


def _translation(family: CPlaneFamily, c_points: AffinePointSet):
    """(W, per secant (rows, W ∩ L_s)) when the family was built from the
    translation basis of this very point set, else None."""
    rec = family._translation
    if rec is None or rec[0] is not c_points:
        return None
    return rec[1], rec[2]


def _check_a2(family: CPlaneFamily, c_points: AffinePointSet) -> AxiomReport:
    """Every pair of C points lies on exactly one plane of the family.

    For a family built from C = c0 + W, the pair {a, b} lies on one plane
    per secant s with a ^ b in W ∩ L_s (_meets_partition_w).  Any other
    family, and a failure, takes the all-pairs scan.
    """
    record = _translation(family, c_points)
    if record is not None and _meets_partition_w(record[1], len(c_points)):
        n = len(c_points)
        pairs = n * (n - 1) // 2
        return AxiomReport(
            "A2", True, pairs, None,
            {"mode": "translation-group", "pairs": pairs},
        )
    return _a2_all_pairs(family, c_points)


def _meets_partition_w(secants, n: int) -> bool:
    """Do the sets (W ∩ L_s) minus 0 partition W minus 0, for |W| = n?

    `secants` pairs each secant's rows with the vectors of W ∩ L_s.
    """
    covered: set = set()
    total = 0
    for _, meet in secants:
        covered.update(meet)
        total += len(meet) - 1
    covered.discard(0)
    return total == len(covered) == n - 1


def _a2_all_pairs(family: CPlaneFamily, c_points: AffinePointSet) -> AxiomReport:
    """A2 by recording the plane of every pair of every plane's meet."""
    seen: dict = {}
    for idx, pl in enumerate(family.planes):
        for a, b in combinations(pl.points, 2):
            prev = seen.get((a, b))
            if prev is not None:
                return AxiomReport(
                    "A2", False, len(seen), ("pair", a, b, prev, idx),
                    {"mode": "explicit"},
                )
            seen[(a, b)] = idx
    n = len(c_points)
    total = n * (n - 1) // 2
    ok = len(seen) == total
    witness = None if ok else ("covered", len(seen), total)
    return AxiomReport(
        "A2", ok, len(seen), witness, {"mode": "explicit", "pairs": total}
    )


def _check_a3(
    family: CPlaneFamily, c_points: AffinePointSet, maps: CorrespondenceMaps
) -> AxiomReport:
    """Affine points off C lie on exactly one plane; C points on exactly m.

    For a family built from C = c0 + W, an affine point p lies on one plane
    per secant s whose image in V/W holds p ^ c0, so C points lie on m
    planes (_images_partition_quotient).  Any other family, and a failure,
    takes the cover scan.
    """
    record = _translation(family, c_points)
    if record is not None and _images_partition_quotient(*record, maps):
        total_affine = 1 << maps.hinf.bits
        return AxiomReport(
            "A3", True, total_affine, None,
            {"mode": "translation-group", "affine_points": total_affine,
             "off_set_planes": 1, "on_set_planes": family.m},
        )
    return _a3_cover(family, c_points, maps)


def _images_partition_quotient(basis, secants, maps) -> bool:
    """Do the images of the L_s in V/W partition V/W minus 0?

    V is the space of H_inf vectors and W has the echelon `basis`; a vector
    reduced against it stands for its class.  Each image is spanned by the
    reduced GF(2) generators of L_s, the GF(q) rows times 1, 2, ..., 2^(h-1).
    """
    hinf = maps.hinf
    h = maps.tower.h
    seen = {0}
    total = 0
    for rows, _ in secants:
        image = {0}
        for g in f2_echelon(f2_reduce(hinf.smul(1 << b, r), basis)
                            for r in rows for b in range(h)):
            image |= {x ^ g for x in image}
        seen |= image
        total += len(image) - 1
    return total == len(seen) - 1 == (1 << (hinf.bits - len(basis))) - 1


def _a3_cover(
    family: CPlaneFamily, c_points: AffinePointSet, maps: CorrespondenceMaps
) -> AxiomReport:
    """A3 by counting, for every affine point, the planes that hold it."""
    amb = maps.ambient
    q = family.q
    cover: dict = {}
    for pl in family.planes:
        r1, r2 = pl.rows[1], pl.rows[2]
        m1 = [amb.smul(c, r1) for c in range(q)]
        m2 = [amb.smul(c, r2) for c in range(q)]
        for a in m1:
            pa = pl.base ^ a
            for b in m2:
                p = pa ^ b
                cover[p] = cover.get(p, 0) + 1
    cset = c_points.points
    checked = 0
    for p, cnt in cover.items():
        want = family.m if p in cset else 1
        if cnt != want:
            return AxiomReport(
                "A3", False, checked, ("point", p, cnt, want),
                {"mode": "explicit"},
            )
        checked += 1
    total_affine = amb.q ** (amb.width - 1)
    ok = len(cover) == total_affine
    witness = None if ok else ("coverage", len(cover), total_affine)
    return AxiomReport(
        "A3", ok, checked, witness,
        {"mode": "explicit", "affine_points": total_affine,
         "off_set_planes": 1, "on_set_planes": family.m},
    )


def _check_a4(
    family: CPlaneFamily,
    c_points: AffinePointSet,
    maps: CorrespondenceMaps,
    budget: int | None,
    symmetry: CyclicSymmetry | None = None,
) -> AxiomReport:
    """Triples of C points span family planes or 4-point planes only.

    Points are handled as difference vectors in the H_inf coordinate space.
    Under the translation symmetry of _symmetric those translations act
    transitively on C while preserving the family and every plane's meet
    with C, so each triple is the translate of a triple through one base
    point and the base-point scan suffices.  Every other input takes the
    full triple scan.  `symmetry` is passed on to the base-point scan.
    """
    space = maps.hinf
    h = maps.tower.h
    vecs = [p >> h for p in c_points.ordered]
    if translation_closure_check(c_points)[0]:
        n = len(vecs)
        pairs = (n - 1) * (n - 2) // 2
        if budget is not None and pairs > budget:
            raise EnumerationTooLarge(pairs, budget, "base-point pair span scan")
        if _symmetric(family, c_points, maps):
            return _a4_base_point(family, c_points, vecs, space, symmetry)
    return _a4_triple_scan(family, c_points, vecs, space, budget)


def _symmetric(family: CPlaneFamily, c_points: AffinePointSet, maps) -> bool:
    """Is C a verified translation set whose translations keep the family?

    Closure is memoized on the point set and the verdict per point set on
    the family, so A1 and A4 share one check.
    """
    memo = family._symmetry
    if c_points not in memo:
        memo[c_points] = bool(c_points.ordered) and (
            translation_closure_check(c_points)[0]
            and _translation_invariant(family, translation_basis(c_points), maps)
        )
    return memo[c_points]


def _translation_invariant(family: CPlaneFamily, gens, maps) -> bool:
    """Do the translations of the coset C carry the family onto itself?

    Translating by v sends the plane (rows, coset) to (rows, coset ^
    reduce(v, rows)), so the GF(2) generators `gens` of the group suffice.
    """
    reduce = maps.hinf.reduce
    keys = family.vector_keys
    moves = {rows: [reduce(g, rows) for g in gens] for rows in {r for r, _ in keys}}
    return all((rows, coset ^ d) in keys for rows, coset in keys for d in moves[rows])


def _a4_base_point(family, c_points, vecs, space, symmetry=None) -> AxiomReport:
    """A4 from the C(n-1, 2) pairs {b, c} through the base point a.

    A plane through a is fixed by its direction 2-space alone.  A family
    bin must collect C(q-1, 2) pairs and any other bin exactly C(3, 2) = 3,
    and exactly m family planes pass through a.  The full-set totals follow
    from transitivity: n/q times the family planes through a, n/4 times the
    four-point planes through a.

    `symmetry` is the cyclic group of a direction set D that a pairs-mode
    spectrum verified (SpectrumHistogram.symmetry).  When the n-1 directions
    a ^ b are pairwise distinct and are exactly D, the bins are the lines
    with two or more points of D, and the verdict is read from the group
    (_a4_from_symmetry) instead of scanning; a failing verdict is
    recomputed by the scan, which picks the reported bin.
    """
    n = len(vecs)
    normalize = space.normalize
    reduce = space.reduce
    a = vecs[0]
    through = {
        rows for rows in {rows for rows, _ in family.vector_keys}
        if (rows, reduce(a, rows)) in family.vector_keys
    }
    dirs = [normalize(a ^ v) for v in vecs[1:]]
    if symmetry is not None:
        distinct = set(dirs)
        if len(distinct) == n - 1 and distinct == symmetry.dirs.points:
            rep = _a4_from_symmetry(family, symmetry, through, n, space)
            if rep is not None and rep.ok:
                return rep
    space.ensure_tables()
    pair_key = space.pair_line_key
    counts: dict = {}
    for ib in range(n - 2):
        u = dirs[ib]
        for ic in range(ib + 1, n - 1):
            try:
                rows = pair_key(u, dirs[ic])
            except DegenerateSpan:
                return AxiomReport(
                    "A4", False, 0,
                    ("collinear", c_points.ordered[0],
                     c_points.ordered[ib + 1], c_points.ordered[ic + 1]),
                    {"mode": "base-point"}, "pair-scan",
                )
            counts[rows] = counts.get(rows, 0) + 1
    return _a4_bins(family, counts, through, a, n, space, "pair-scan")


def _a4_bins(family, counts, through, a, n, space, bins) -> AxiomReport:
    """The base-point A4 verdict from the pair count of each plane through a."""
    q = family.q
    total = (n - 1) * (n - 2) // 2
    family_mult = comb(q - 1, 2)
    seen = 0
    quads = 0
    for rows, cnt in counts.items():
        in_family = rows in through
        if in_family and cnt == family_mult:
            seen += 1
        elif cnt == 3 and not in_family:
            quads += 1
        else:
            return AxiomReport(
                "A4", False, total,
                ("plane", rows, space.reduce(a, rows), cnt,
                 "family" if in_family else "outside"),
                {"mode": "base-point"}, bins,
            )
    return _a4_totals(family, len(through), seen, quads, n, bins)


def _a4_from_symmetry(family, symmetry, through, n, space):
    """What _a4_bins gives on the pair counts of D, from a verified group.

    The bins are the lines with j >= 2 points of D, each with C(j, 2)
    pairs.  A bin in `through` passes iff j = q - 1 and any other iff j = 3,
    so N_j (symmetry.lines) and |L ∩ D| for the m lines L of `through`
    decide every bin.  None when some bin fails, for the scan to report it.
    """
    dset = symmetry.dirs.points
    q = family.q
    others = dict(symmetry.lines)
    seen = 0
    for rows in through:
        j = sum(p in dset for p in space.line_points(*rows))
        if j < 2:
            continue
        if j != q - 1:
            return None
        seen += 1
        others[j] -= 1
    if any(c for j, c in others.items() if j != 3):
        return None
    return _a4_totals(
        family, len(through), seen, others.get(3, 0), n, "cyclic-group"
    )


def _a4_totals(family, nthrough, seen, quads, n, bins) -> AxiomReport:
    """The base-point A4 report once every bin passed: `seen` family and
    `quads` four-point planes through the base point, of `nthrough` family
    planes there.  The bins must hold all C(n-1, 2) pairs, which a scan
    always does and a group must show."""
    q = family.q
    total = (n - 1) * (n - 2) // 2
    family_planes = seen * n // q
    binned = seen * comb(q - 1, 2) + quads * 3
    witness = None
    if seen != nthrough or seen != family.m:
        witness = ("family planes through base point", seen, family.m)
    elif seen * n != q * len(family.planes):
        witness = ("family planes seen", family_planes, len(family.planes))
    elif binned != total:
        witness = ("pairs binned", binned, total)
    return AxiomReport(
        "A4", witness is None, total, witness,
        {"mode": "base-point", "pairs": total, "triples": comb(n, 3),
         "family_planes": family_planes, "four_point_planes": quads * n // 4},
        bins,
    )


def _a4_triple_scan(family, c_points, vecs, space, budget) -> AxiomReport:
    """A4 by binning every unordered triple by the affine plane it spans.

    A bin of a family plane must collect C(q, 3) triples, any other bin
    exactly C(4, 3) = 4, meaning a fourth point of C completes it.
    """
    q = family.q
    n = len(vecs)
    total = n * (n - 1) * (n - 2) // 6
    if budget is not None and total > budget:
        raise EnumerationTooLarge(total, budget, "triple span scan")
    space.ensure_tables()
    normalize = space.normalize
    pair_key = space.pair_line_key
    reduce = space.reduce
    # keys packed into a single int: rows then coset, `shift` bits apiece
    shift = space.width * space.field.m
    fam_packed = {
        (rows[0] << 2 * shift) | (rows[1] << shift) | coset
        for rows, coset in family.vector_keys
    }
    counts: dict = {}
    for ia in range(n - 2):
        a = vecs[ia]
        for ib in range(ia + 1, n - 1):
            u = normalize(a ^ vecs[ib])
            for ic in range(ib + 1, n):
                w = normalize(a ^ vecs[ic])
                try:
                    r0, r1 = pair_key(u, w)
                except DegenerateSpan:
                    return AxiomReport(
                        "A4", False, 0,
                        ("collinear", c_points.ordered[ia],
                         c_points.ordered[ib], c_points.ordered[ic]),
                        {"mode": "triple-scan"}, "triple-scan",
                    )
                kk = (r0 << 2 * shift) | (r1 << shift) | reduce(a, (r0, r1))
                counts[kk] = counts.get(kk, 0) + 1
    family_mult = comb(q, 3)
    family_seen = 0
    quads = 0
    mask = (1 << shift) - 1
    for kk, cnt in counts.items():
        in_family = kk in fam_packed
        if in_family and cnt == family_mult:
            family_seen += 1
        elif cnt == 4 and not in_family:
            quads += 1
        else:
            return AxiomReport(
                "A4", False, total,
                ("plane", (kk >> 2 * shift, (kk >> shift) & mask), kk & mask,
                 cnt, "family" if in_family else "outside"),
                {"mode": "triple-scan"}, "triple-scan",
            )
    ok = family_seen == len(family.planes)
    witness = None if ok else ("family planes seen", family_seen, len(family.planes))
    return AxiomReport(
        "A4", ok, total, witness,
        {"mode": "triple-scan", "triples": total, "family_planes": family_seen,
         "four_point_planes": quads},
        "triple-scan",
    )


def check_axioms(
    family: CPlaneFamily,
    c_points: AffinePointSet,
    maps: CorrespondenceMaps,
    axioms=("A1", "A2", "A3", "A4"),
    budget: int | None = DEFAULT_BUDGET,
    symmetry: CyclicSymmetry | None = None,
) -> dict:
    """Run the requested axiom checks; returns {name: AxiomReport}.

    `symmetry` is optionally the cyclic group of the direction set of C
    that a pairs-mode spectrum verified, for A4 to read its bins from (see
    _a4_base_point).
    """
    out: dict = {}
    for name in axioms:
        if name == "A1":
            out[name] = _check_a1(family, c_points, maps)
        elif name == "A2":
            out[name] = _check_a2(family, c_points)
        elif name == "A3":
            out[name] = _check_a3(family, c_points, maps)
        elif name == "A4":
            out[name] = _check_a4(family, c_points, maps, budget, symmetry)
        else:
            raise ValueError(f"unknown axiom {name!r}")
    return out
