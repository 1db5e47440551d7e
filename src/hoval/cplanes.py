"""Planes spanned by the affine point set together with its long secants.

For each affine point P of the translation set C and each long secant s of
its direction set, the span <P, s> is a plane of PG(2k, q).  These C-planes
tile the affine points off C, slice C itself into q-arcs, and every triple
of C points generates either one of them or a plane holding exactly four
points of C.

The family is held as its coset record.  C must be a verified coset
c0 + W and every lifted secant space L_s must meet W in exactly q vectors;
then the planes of secant s are the n/q cosets c + (W ∩ L_s), so the family
has n m / q planes, is carried onto itself by the translations of C, and
gives each plane one key, all by construction.  The meets W ∩ L_s are
binned from the directions of C's differences, and no plane is built:

* A1 tests the m meets c0 + (W ∩ L_s) through the base point c0; every
  other meet is a translate of one of them, and each is a coset, so its
  lines through c0 decide it.
* A2 and A3 are partition statements about the meets W ∩ L_s and about the
  images of the L_s in V/W, checked by GF(2) linear algebra.
* A4 bins the C(n-1, 2) pairs through c0 by the plane they span with c0:
  the lines with two or more points of the direction set D.  The family
  planes there are the m secants themselves, each with its points of D
  counted off its meet, and the line counts N_j of a spectrum of D decide
  every other bin.

A failing axiom reports the witness its check already holds.  The explicit
scans over every plane, pair and triple are the tests' oracles.
"""

from __future__ import annotations

from collections import Counter
from math import comb

from .errors import CPlaneConstructionFailed
from .gf2 import f2_echelon, f2_reduce
from .hyperoval import (
    AffinePointSet,
    DirectionSet,
    is_arc,
    projected_differences,
    translation_basis,
    translation_closure_check,
)
from .linearsets import SpectrumHistogram, spectrum
from .projective import DEFAULT_BUDGET
from .pseudoregulus import SecantStructure
from .record import Record
from .reduction import CorrespondenceMaps


class CPlaneFamily(Record):
    """The C-plane family of C = c0 + W over the long secants.

    `secants` pairs each secant's rows in H_inf with the sorted vectors of
    W ∩ L_s; the planes of that secant are the cosets c + (W ∩ L_s) of C.
    """

    c_points: AffinePointSet
    basis: tuple  # W's GF(2) echelon basis, translation_basis(c_points)
    secants: tuple  # (rows, W ∩ L_s) per long secant
    q: int

    @property
    def m(self) -> int:
        return len(self.secants)

    def __len__(self) -> int:
        return len(self.c_points) * self.m // self.q


def build_c_planes(
    c_points: AffinePointSet,
    structure: SecantStructure,
    maps: CorrespondenceMaps,
) -> CPlaneFamily:
    """The coset record of the C-plane family.

    C is verified to be a coset c0 + W first, so the nonzero vectors of W
    are the differences w = (p ^ c0) >> h, and w lies in L_s exactly when
    its direction lies on s.  Each w joins the meet of every secant whose
    line holds its direction (projected_differences, memoized on C, against
    the line points the secant search walked): that is W ∩ L_s for any
    lines, overlapping ones included, and no vector of L_s is visited.
    Raises CPlaneConstructionFailed for a C that is no coset (witness
    ("closure", ...)) and for a secant whose meet does not hold exactly q
    vectors (witness ("secant", index, meet size)).
    """
    closed, witness = translation_closure_check(c_points)
    if not closed:
        raise CPlaneConstructionFailed(
            f"C is not translation-closed: {witness!r}", ("closure", witness)
        )
    hinf, h, q = maps.hinf, maps.tower.h, maps.hinf.q
    c0 = c_points.ordered[0]
    through: dict = {}  # point of H_inf -> the secants whose line holds it
    for sidx, line in enumerate(structure.points):
        for p in line:
            through.setdefault(p, []).append(sidx)
    meets = [[0] for _ in structure.secants]
    for p, u in zip(c_points.ordered[1:], projected_differences(c_points, hinf)):
        for sidx in through.get(u, ()):
            meets[sidx].append((p ^ c0) >> h)
    for sidx, meet in enumerate(meets):
        if len(meet) != q:
            raise CPlaneConstructionFailed(
                f"secant {sidx} meets W in {len(meet)} vectors, expected {q}",
                ("secant", sidx, len(meet)),
            )
    # sorted: c0 = min C is 0 at the top bit of each w << h, so p ^ c0 keeps C's order
    secants = tuple(zip(structure.secants, map(tuple, meets)))
    return CPlaneFamily(c_points, translation_basis(c_points), secants, q)


class AxiomReport(Record):
    name: str
    ok: bool
    checked: int
    witness: tuple | None
    detail: dict
    # the spectrum A4 read its line counts from: "cyclic-group", "pair-scan"
    # or "line-scan"; provenance only, so reports that agree on everything
    # else compare equal whatever their source
    bins: str | None = None
    _uncompared = ("bins",)


def _check_a1(family: CPlaneFamily, maps: CorrespondenceMaps) -> AxiomReport:
    """Each plane meets C in a q-arc.

    Every meet is a translate of one of the m meets c0 + (W ∩ L_s) through
    the base point, and a translation keeps collinearity, so only those are
    tested.  Such a meet is a coset, so it is an arc iff its q - 1 lines
    through c0 are distinct: iff the directions of its nonzero x are.  x is
    the difference of the point c0 ^ (x << h) of C, so its direction is
    read off projected_differences, memoized on C, at that point's place
    in C's order, and none is normalized again.  A meet whose directions
    repeat is handed to is_arc, and the failure names the secant and
    is_arc's collinear triple.
    """
    from bisect import bisect_left  # here, so that `import hoval` loads no bisect

    amb, h = maps.ambient, maps.tower.h
    ordered = family.c_points.ordered
    c0 = ordered[0]
    projected = projected_differences(family.c_points, maps.hinf)
    pairs = comb(family.q, 2)
    for sidx, (_, meet) in enumerate(family.secants):
        points = [c0 ^ (x << h) for x in meet]
        seen = {projected[bisect_left(ordered, p) - 1] for p in points if p != c0}
        if len(seen) == len(meet) - 1:
            continue
        ok, witness = is_arc(points, amb)
        if not ok:
            return AxiomReport(
                "A1", False, (sidx + 1) * pairs, ("secant", sidx) + witness,
                {"mode": "base-point"},
            )
    return AxiomReport(
        "A1", True, len(family) * pairs, None,
        {"mode": "base-point", "planes": len(family)},
    )


def _check_a2(family: CPlaneFamily) -> AxiomReport:
    """Every pair of C points lies on exactly one plane of the family.

    The pair {a, b} lies on one plane per secant s with a ^ b in W ∩ L_s, so
    A2 holds iff the sets (W ∩ L_s) minus 0 partition W minus 0.  A failure
    names a vector covered by two secants, or how many vectors are covered.
    """
    n = len(family.c_points)
    covered, clash = _partition_clash(meet for _, meet in family.secants)
    if clash or covered != n - 1:
        witness = ("vector",) + clash if clash else ("covered", covered, n - 1)
        # each vector of W stands for the n/2 pairs {a, a ^ x} of C
        return AxiomReport(
            "A2", False, covered * n // 2, witness, {"mode": "translation-group"}
        )
    pairs = n * (n - 1) // 2
    return AxiomReport(
        "A2", True, pairs, None, {"mode": "translation-group", "pairs": pairs}
    )


def _check_a3(family: CPlaneFamily, maps: CorrespondenceMaps) -> AxiomReport:
    """Affine points off C lie on exactly one plane; C points on exactly m.

    An affine point p lies on one plane per secant s whose image in V/W
    holds the class of p ^ c0 (V the H_inf vectors; a vector reduced against
    W's basis stands for its class), so A3 holds iff the images of the L_s
    partition V/W minus 0.  Each image is spanned by the reduced GF(2)
    generators of L_s, the GF(q) rows times 1, 2, ..., 2^(h-1).  A failure
    names a class hit by two secants, or how many classes are covered.
    """
    hinf = maps.hinf
    h = maps.tower.h
    basis = family.basis
    n = len(family.c_points)
    classes = 1 << (hinf.bits - len(basis))

    def image(rows):
        out = {0}
        for g in f2_echelon(f2_reduce(hinf.smul(1 << b, r), basis)
                            for r in rows for b in range(h)):
            out |= {x ^ g for x in out}
        return sorted(out)

    covered, clash = _partition_clash(image(rows) for rows, _ in family.secants)
    if clash or covered != classes - 1:
        witness = ("class",) + clash if clash else ("coverage", covered + 1, classes)
        # each class is a coset of W, n affine points
        return AxiomReport(
            "A3", False, (covered + 1) * n, witness, {"mode": "translation-group"}
        )
    total_affine = 1 << hinf.bits
    return AxiomReport(
        "A3", True, total_affine, None,
        {"mode": "translation-group", "affine_points": total_affine,
         "off_set_planes": 1, "on_set_planes": family.m},
    )


def _partition_clash(sets) -> tuple:
    """(nonzero elements covered, first clash) over the sets in order.

    A clash (x, i, j) is a nonzero x in sets i < j; with none, the sets
    minus 0 are pairwise disjoint and the count is the size of their union.
    """
    owner: dict = {}
    for idx, elems in enumerate(sets):
        for x in elems:
            if x and owner.setdefault(x, idx) != idx:
                return len(owner), (x, owner[x], idx)
    return len(owner), None


def _a4_base_point(family: CPlaneFamily, space, hist=None, budget=None) -> AxiomReport:
    """Triples of C points span family planes or 4-point planes only.

    The translations of C act transitively on C and keep the family and
    every plane's meet with C, so each triple is the translate of one
    through the base point a = c0, and A4 follows from the C(n-1, 2) pairs
    {b, c} through a.  Points are handled as vectors of H_inf (`space`), and
    a plane through a is fixed by its direction 2-space alone: the family
    planes through a are the m secants.  Two equal directions a ^ b = a ^ c
    make a, b, c collinear.  Otherwise the n - 1 directions are a set D,
    the planes through a that hold pairs are the lines with j >= 2 points
    of D, and each holds C(j, 2) pairs.  A family plane must hold C(q-1, 2)
    and any other C(3, 2) = 3, so A4 holds iff each family line carries
    q - 1 points of D and every other line with two or more carries 3: the
    line counts N_j of `hist`, a spectrum of D, and |L ∩ D| for the m family
    lines L decide it; |L ∩ D| = len(W ∩ L) - 1, as w -> its direction is
    one to one on the n - 1 nonzero w of W once the directions are distinct.
    A histogram of another set is not read, and without one of D the pair
    scan spectrum(D, budget=budget) is run and charged.
    The full-set totals follow from transitivity: n/q times the family
    planes through a, n/4 times the four-point planes through a.
    """
    ordered = family.c_points.ordered
    n = len(ordered)
    q = family.q
    total = (n - 1) * (n - 2) // 2
    dirs = projected_differences(family.c_points, space)
    dset = frozenset(dirs)
    if len(dset) != n - 1:
        # the first pair (b, c) in scan order with equal directions
        times = Counter(dirs)
        ib = next(i for i, u in enumerate(dirs) if times[u] > 1)
        ic = dirs.index(dirs[ib], ib + 1)
        return AxiomReport(
            "A4", False, 0, ("collinear", ordered[0], ordered[ib + 1], ordered[ic + 1]),
            {"mode": "base-point"},
        )
    if hist is None or hist.dirs.points != dset:
        hist = spectrum(DirectionSet(dset, space), budget=budget)
    bins = "cyclic-group" if hist.symmetry is not None else hist.path
    a = ordered[0] >> space.h
    others = {j: c for j, c in hist.counts.items() if j >= 2}
    seen = 0
    for rows, meet in family.secants:
        j = len(meet) - 1
        if j < 2:
            continue
        if j != q - 1:
            return AxiomReport(
                "A4", False, total,
                ("plane", rows, space.reduce(a, rows), comb(j, 2), "family"),
                {"mode": "base-point"}, bins,
            )
        seen += 1
        others[j] = others.get(j, 0) - 1
    # what is left of N_j are the lines off the family
    for j, c in sorted(others.items()):
        if c < 0 or (c and j != 3):
            return AxiomReport(
                "A4", False, total, ("outside", j, hist.counts.get(j, 0)),
                {"mode": "base-point"}, bins,
            )
    quads = others.get(3, 0)
    binned = seen * comb(q - 1, 2) + quads * 3
    witness = None
    if seen != family.m:
        witness = ("family planes through base point", seen, family.m)
    elif binned != total:
        witness = ("pairs binned", binned, total)
    return AxiomReport(
        "A4", witness is None, total, witness,
        {"mode": "base-point", "pairs": total, "triples": comb(n, 3),
         "family_planes": seen * n // q, "four_point_planes": quads * n // 4},
        bins,
    )


def check_axioms(
    family: CPlaneFamily,
    maps: CorrespondenceMaps,
    axioms=("A1", "A2", "A3", "A4"),
    budget: int | None = DEFAULT_BUDGET,
    hist: SpectrumHistogram | None = None,
) -> dict:
    """Run the requested axiom checks on the family's own C; returns
    {name: AxiomReport}.

    `hist` is optionally a spectrum of the direction set of C, whose line
    counts A4 reads (see _a4_base_point); reading it charges nothing, and
    without it A4 runs the pair scan under `budget`.
    """
    out: dict = {}
    for name in axioms:
        if name == "A1":
            out[name] = _check_a1(family, maps)
        elif name == "A2":
            out[name] = _check_a2(family)
        elif name == "A3":
            out[name] = _check_a3(family, maps)
        elif name == "A4":
            out[name] = _a4_base_point(family, maps.hinf, hist, budget)
        else:
            raise ValueError(f"unknown axiom {name!r}")
    return out
