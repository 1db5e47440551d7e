"""Secant spectra of direction sets and their GF(2)-linear structure.

The direction set D of a translation hyperoval lives in H_inf = PG(2k-1, q).
Its line spectrum says how many lines meet D in j points; the target shape
is support {0, 1, 3, q-1}.  D is also the GF(q)-projection of a GF(2)-linear
point set K of rank hk, scattered with respect to the (h-1)-spread.

The spectrum has three paths.  The line scan walks every line of H_inf and
is the independent cross-check.  The pair scan bins the C(|D|, 2) pairs of
D by the line they span.  The cyclic-group path needs a candidate
collineation M (cyclic_candidate builds M(x, y) = (g x, g^(2^i) y) for g
primitive in GF(q^k)) and first verifies on the data that M is a GF(q)-linear
bijection whose powers carry d0 = min D through all of D and back.  Then
every point of D lies on the same number c_j of j-secants, so the spectrum
N_j = |D| c_j / j is read off the |D| - 1 lines through d0.  The verified
CyclicSymmetry also gives the long secants (pseudoregulus) and the A4 bins
(cplanes) without a pair scan.  A set that fails the check takes the pair
scan, and a call without a candidate always does.

Only the line scan runs in worker processes, at most one per CPU; the pair
scan and the cyclic-group path run in the calling process.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations, product

from .errors import EnumerationTooLarge, NotF2Linear, TooFewPoints
from .gf2 import field_create
from .hyperoval import AffinePointSet, DirectionSet, f2_echelon, translation_basis
from .projective import DEFAULT_BUDGET, ProjSpace, projective_points_count
from .reduction import CorrespondenceMaps, Spread


@dataclass(frozen=True)
class CyclicSymmetry:
    """A collineation of H_inf verified to act transitively on a direction set.

    `orbit[t]` is M^t(d0) for d0 = min D, so the orbit lists every point of D
    once.  `lines[j]` is the number N_j of lines meeting D in exactly j >= 2
    points, read off the lines through d0.
    """

    dirs: DirectionSet
    orbit: tuple
    lines: dict


@dataclass(frozen=True)
class SpectrumHistogram:
    """counts[j] = number of lines meeting the point set in exactly j points.

    When the pair scan ran, `multiplicities` keeps its map from each line
    through two or more points to its pair count, for find_long_secants;
    when the cyclic-group path ran, `symmetry` keeps the verified group, for
    find_long_secants and A4.  Either spares them a second pass over the
    pairs.
    """

    counts: dict
    mode: str
    nlines: int
    npoints: int
    multiplicities: dict | None = field(default=None, compare=False, repr=False)
    symmetry: CyclicSymmetry | None = field(default=None, compare=False, repr=False)

    @property
    def support(self) -> tuple:
        return tuple(sorted(j for j, c in self.counts.items() if c))

    @property
    def path(self) -> str:
        """"line-scan", "cyclic-group" or "pair-scan": how counts were found."""
        if self.mode == "exhaustive":
            return "line-scan"
        return "pair-scan" if self.symmetry is None else "cyclic-group"

    def count(self, j: int) -> int:
        return self.counts.get(j, 0)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "lines": self.nlines,
            "points": self.npoints,
            "counts": {str(j): self.counts[j] for j in sorted(self.counts)},
        }


def spectrum_conforms(hist: SpectrumHistogram, q: int):
    """Support must be contained in {0, 1, 3, q-1}.

    Returns (ok, offending_j or None).
    """
    allowed = {0, 1, 3, q - 1}
    for j in hist.support:
        if j not in allowed:
            return False, j
    return True, None


# -- pairs mode ---------------------------------------------------------------

def check_pair_budget(npoints: int, budget) -> None:
    """Refuse a scan of the C(npoints, 2) pairs that exceeds the budget."""
    npairs = npoints * (npoints - 1) // 2
    if budget is not None and npairs > budget:
        raise EnumerationTooLarge(npairs, budget, "secant pair scan")


def check_group_budget(npoints: int, budget) -> None:
    """Refuse the npoints - 1 line keys through one point of a verified
    cyclic group when they exceed the budget."""
    keys = npoints - 1
    if budget is not None and keys > budget:
        raise EnumerationTooLarge(keys, budget, "cyclic-group line keys")


def _pair_multiplicities(pts, space: ProjSpace, budget):
    check_pair_budget(len(pts), budget)
    key = space.pair_line_key
    mult: dict = {}
    for a, b in combinations(pts, 2):
        k = key(a, b)
        mult[k] = mult.get(k, 0) + 1
    return mult


def _merge_counts(dicts):
    out: dict = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out


def _lines_from_multiplicities(mult) -> dict:
    """{j: number of lines with j >= 2 points} from a pair-count map."""
    counts: dict = {}
    for c in mult.values():
        # invert c = j(j-1)/2
        j = (1 + math.isqrt(1 + 8 * c)) // 2
        if j * (j - 1) // 2 != c:
            raise AssertionError(f"pair multiplicity {c} is not triangular")
        counts[j] = counts.get(j, 0) + 1
    return counts


def _complete_counts(lines: dict, ndirs: int, space: ProjSpace) -> dict:
    """The full histogram from the counts of lines with two or more points."""
    counts = dict(lines)
    incident = sum(j * c for j, c in lines.items())
    # every point lies on (q^n - 1)/(q - 1) lines; what is not accounted for
    # by multi-point lines must be 1-point lines
    through = projective_points_count(space.n, space.q)
    ones = ndirs * through - incident
    if ones:
        counts[1] = ones
    zeros = space.nlines() - sum(counts.values())
    if zeros:
        counts[0] = zeros
    return {j: counts[j] for j in sorted(counts)}


# -- cyclic-group path ---------------------------------------------------------

def cyclic_candidate(maps: CorrespondenceMaps, i: int) -> tuple:
    """M(x, y) = (g x, g^(2^i) y) on H_inf, for g the generator of GF(q^k).

    M is given by the images of the 2hk GF(2) unit vectors of the H_inf
    layout, where a vector packs vec(x) below vec(y).  For gcd(i, hk) = 1
    its powers act regularly on D = {<(t, t^(2^i))>}, but it is only a
    candidate: cyclic_symmetry checks it on the data before any use.
    """
    tower = maps.tower
    big = tower.big
    g = big.generator
    gi = big.frob(g, i)
    shift = tower.hk
    mask = (1 << shift) - 1
    vec, unvec = tower.vec_packed, tower.unvec_packed
    columns = []
    for b in range(2 * shift):
        x, y = unvec((1 << b) & mask), unvec((1 << b) >> shift)
        columns.append(vec(big.mul(g, x)) | (vec(big.mul(gi, y)) << shift))
    return tuple(columns)


def _apply(columns, v: int) -> int:
    """The GF(2)-linear map with these unit-vector images, applied to v."""
    out = 0
    for col in columns:
        if not v:
            break
        if v & 1:
            out ^= col
        v >>= 1
    return out


def cyclic_symmetry(dirs: DirectionSet, columns) -> CyclicSymmetry | None:
    """Verify a candidate collineation on D; None when any check fails.

    The candidate must be a GF(q)-linear bijection of the H_inf vectors: its
    GF(2) columns have full rank and it commutes with the GF(q) generator on
    every unit vector.  The orbit of d0 = min D must be D: |D| - 1 steps of
    apply-and-normalize that stay in D and visit no point twice, then back
    to d0.  <M> is then a group of collineations acting transitively on D,
    so every point of D lies on the same number c_j of j-secants, and the
    |D| - 1 lines from d0 give N_j = |D| c_j / j.
    """
    space = dirs.space
    pts = dirs.points
    if len(columns) != space.bits or len(f2_echelon(columns)) != space.bits:
        return None
    w = 2 if space.q > 2 else 1  # x generates GF(q) over GF(2)
    for b, col in enumerate(columns):
        if _apply(columns, space.smul(w, 1 << b)) != space.smul(w, col):
            return None
    normalize = space.normalize
    d0 = dirs.ordered[0]
    orbit = [d0]
    p = d0
    for _ in range(len(pts) - 1):
        p = normalize(_apply(columns, p))
        if p not in pts:
            return None
        orbit.append(p)
    if len(set(orbit)) != len(pts) or normalize(_apply(columns, p)) != d0:
        return None
    key = space.pair_line_key
    others: dict = {}  # line through d0 -> the other points of D on it
    for p in orbit[1:]:
        k = key(d0, p)
        others[k] = others.get(k, 0) + 1
    c: dict = {}
    for n in others.values():
        c[n + 1] = c.get(n + 1, 0) + 1
    lines = {}
    for j in sorted(c):
        lines[j], rest = divmod(len(pts) * c[j], j)
        if rest:
            raise AssertionError(f"{len(pts)} * {c[j]} is not a multiple of {j}")
    return CyclicSymmetry(dirs, tuple(orbit), lines)


# -- exhaustive mode ----------------------------------------------------------

def _cone_set(pts, space: ProjSpace) -> frozenset:
    """All scalar multiples of the normalized points, as raw vectors."""
    cone = set()
    for d in pts:
        for lam in range(1, space.q):
            cone.add(space.smul(lam, d))
    return frozenset(cone)


def _scan_pattern(space: ProjSpace, cone, task) -> dict:
    p0, p1, free0, free1, pinned = task
    q, h = space.q, space.h
    smul = space.smul
    counts: dict = {}
    base0 = 1 << (p0 * h)
    base1 = 1 << (p1 * h)
    ranges0 = [range(q)] * len(free0)
    if pinned is not None:
        ranges0[0] = (pinned,)
    lams = range(1, q)
    for vals0 in product(*ranges0):
        r0 = base0
        for sh, c in zip(free0, vals0):
            r0 |= c << sh
        for vals1 in product(range(q), repeat=len(free1)):
            r1 = base1
            for sh, c in zip(free1, vals1):
                r1 |= c << sh
            c = (r1 in cone) + (r0 in cone)
            for lam in lams:
                if r0 ^ smul(lam, r1) in cone:
                    c += 1
            counts[c] = counts.get(c, 0) + 1
    return counts


def _exhaustive_tasks(space: ProjSpace):
    tasks = []
    for p0, p1, free0, free1 in space.line_chunks():
        if free0:
            for v in range(space.q):
                tasks.append((p0, p1, free0, free1, v))
        else:
            tasks.append((p0, p1, free0, free1, None))
    return tasks


# worker-process state for the parallel line scan
_W: dict = {}


def _worker_init(m, modulus, n, pts):
    f = field_create(m, modulus)
    space = ProjSpace(n, f)
    space.ensure_tables()
    _W["space"] = space
    _W["cone"] = _cone_set(pts, space)


def _worker_scan(task) -> dict:
    return _scan_pattern(_W["space"], _W["cone"], task)


def spectrum(
    dirs,
    space: ProjSpace | None = None,
    mode: str = "pairs",
    budget: int | None = DEFAULT_BUDGET,
    processes: int = 1,
    candidate: tuple | None = None,
) -> SpectrumHistogram:
    """Line spectrum of a point set.

    mode "pairs" finds the lines through two or more points and derives the
    1- and 0-line counts from incidence identities; mode "exhaustive" walks
    every line of the space and counts memberships directly.  Both give the
    same histogram; exhaustive is the independent cross-check but costs
    nlines * (q + 1) operations.

    In pairs mode a `candidate` collineation (cyclic_candidate) that
    cyclic_symmetry verifies on the set gives the multi-point lines from
    the lines through one point; otherwise the C(|D|, 2) pairs are scanned.
    The budget charges each path what it computes, before it runs: |D| - 1
    line keys for the group, C(|D|, 2) for the pair scan.

    `processes` only applies to the exhaustive line scan, which runs in
    min(processes, os.cpu_count()) worker processes, or in this one when
    that is 1.
    """
    if isinstance(dirs, DirectionSet):
        pts = dirs.ordered
        space = dirs.space
    else:
        pts = tuple(sorted(dirs))
        if space is None:
            raise ValueError("space is required for plain point iterables")
    if not pts:
        raise TooFewPoints("empty point set has no spectrum")
    if mode not in ("pairs", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")

    if mode == "pairs":
        if candidate is not None:
            check_group_budget(len(pts), budget)
            d = dirs if isinstance(dirs, DirectionSet) else DirectionSet(pts, space)
            symmetry = cyclic_symmetry(d, candidate)
            if symmetry is not None:
                counts = _complete_counts(symmetry.lines, len(pts), space)
                return SpectrumHistogram(
                    counts, "pairs", space.nlines(), len(pts), symmetry=symmetry
                )
        mult = _pair_multiplicities(pts, space, budget)
        counts = _complete_counts(
            _lines_from_multiplicities(mult), len(pts), space
        )
        return SpectrumHistogram(counts, "pairs", space.nlines(), len(pts), mult)

    est = space.nlines() * (space.q + 1)
    if budget is not None and est > budget:
        raise EnumerationTooLarge(est, budget, "exhaustive line scan")
    tasks = _exhaustive_tasks(space)
    workers = min(processes, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(space.field.m, space.field.modulus, space.n, pts),
        ) as pool:
            counts = _merge_counts(pool.map(_worker_scan, tasks))
    else:
        space.ensure_tables()
        cone = _cone_set(pts, space)
        counts = _merge_counts(_scan_pattern(space, cone, t) for t in tasks)
    counts = {j: counts[j] for j in sorted(counts)}
    total = sum(counts.values())
    if total != space.nlines():
        raise AssertionError(f"scanned {total} lines, expected {space.nlines()}")
    return SpectrumHistogram(counts, "exhaustive", space.nlines(), len(pts))


# -- GF(2)-linear structure ----------------------------------------------------

@dataclass(frozen=True)
class F2Witness:
    """The GF(2)-linear point set behind an affine translation set.

    rows are the echelon basis of W, the span of the difference vectors of
    the Barlotti-Cofman images; the nonzero vectors of W are the points of
    K in PG(2hk-1, 2).
    """

    base: int
    rows: tuple
    rank: int
    k_points: tuple


def f2_witness(
    q_points: AffinePointSet, dirs: DirectionSet, maps: CorrespondenceMaps
) -> F2Witness:
    """Check that the GF(2) images differ by an F2-closed vector set.

    The differences (p ^ c0) >> h, c0 = min C, are the Barlotti-Cofman
    difference vectors, so their span is the translation basis W of C
    (translation_basis, memoized on the set) and they are closed iff
    |C| = 2^rank W, the rank test of translation_closure_check.  Raises
    NotF2Linear when the difference set is not a subspace or when its
    renormalization does not reproduce the direction set.
    """
    if len(q_points) < 2:
        raise TooFewPoints("need at least 2 affine points")
    rows = translation_basis(q_points)
    rank = len(rows)
    ordered = q_points.ordered
    h = q_points.space.h
    diffs = [(p ^ ordered[0]) >> h for p in ordered]
    if len(diffs) != 1 << rank:
        span = {0}
        for r in rows:
            span |= {s ^ r for s in span}
        missing = min(span.difference(diffs))
        raise NotF2Linear(
            f"difference set of size {len(diffs)} spans {len(span)} vectors; "
            f"0x{missing:x} is in the span but not the set"
        )
    k_points = tuple(sorted(diffs[1:]))
    projected = {maps.hinf.normalize(w) for w in k_points}
    if projected != dirs.points:
        off = min(projected.symmetric_difference(dirs.points))
        raise NotF2Linear(
            f"projection of the rank-{rank} span differs from the "
            f"direction set near 0x{off:x}"
        )
    return F2Witness(maps.bc_affine(ordered[0]), rows, rank, k_points)


@dataclass(frozen=True)
class ScatterednessReport:
    scattered: bool
    rank: int
    max_rank: int
    is_maximum: bool
    max_meet: int
    offending_element: int | None
    meet_histogram: dict


def scattered_check(witness: F2Witness, fibres) -> ScatterednessReport:
    """Does every element of the (h-1)-spread meet K in at most one point?

    `fibres` is H_inf itself: the spread element holding a GF(2) vector w is
    the fibre of its H_inf point normalize(w), so counting normalize over K
    needs no spread, and the offending element is reported as the smallest
    over-met H_inf point.  A built spread (CorrespondenceMaps.s_prime) is
    accepted too and checked element by element, offending element given
    as its index; the tests keep it as the oracle for the fibre count.
    """
    if isinstance(fibres, Spread):
        element_of, nelements, space = fibres.element_of, len(fibres), fibres.space
    else:
        element_of, nelements, space = fibres.normalize, fibres.npoints(), fibres
    meets: dict = {}
    for p in witness.k_points:
        idx = element_of(p)
        meets[idx] = meets.get(idx, 0) + 1
    max_meet = max(meets.values(), default=0)
    offender = None
    if max_meet > 1:
        offender = min(i for i, c in meets.items() if c > 1)
    hist: dict = {0: nelements - len(meets)}
    for c in meets.values():
        hist[c] = hist.get(c, 0) + 1
    # K lives in PG(2hk-1, 2); either description has 2hk bits per vector
    max_rank = space.width * space.field.m // 2
    scattered = max_meet <= 1
    return ScatterednessReport(
        scattered=scattered,
        rank=witness.rank,
        max_rank=max_rank,
        is_maximum=scattered and witness.rank == max_rank,
        max_meet=max_meet,
        offending_element=offender,
        meet_histogram={j: hist[j] for j in sorted(hist)},
    )
