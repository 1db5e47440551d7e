"""Secant spectra of direction sets and their GF(2)-linear structure.

The direction set D of a translation hyperoval lives in H_inf = PG(2k-1, q).
Its line spectrum says how many lines meet D in j points; the target shape
is support {0, 1, 3, q-1}.  D is also the GF(q)-projection of a GF(2)-linear
point set K of rank hk, scattered with respect to the (h-1)-spread.

The spectrum has three paths.  The line tally counts every line of H_inf
and is the independent cross-check: for each second row r1 of a canonical
line it bins the points of D of the first row's pivot by the line of the
pencil through r1 they lie on, so the lines no point reaches are counted
in bulk.  A pencil's line keys are one XOR of packed columns, built once
per pivot pattern, and one Counter bins them.  The pair scan bins
the C(|D|, 2) pairs of D by the line they span.  The cyclic-group path
needs a candidate collineation M (cyclic_candidate builds
M(x, y) = (g x, g^(2^i) y) for g primitive in GF(q^k), which acts
transitively on D for every exponent i) and first verifies
on the data that M is a GF(q)-linear bijection whose powers carry
d0 = min D through all of D and back.  Then every point of D lies on the
same number c_j of j-secants, and the spectrum N_j = |D| c_j / j is read
off the |D| - 1 lines through d0.  A set that fails the check takes the
pair scan, and a call without a candidate always does.  The line tally
only hands a verified group on.

The histogram is the one carrier of secant facts: it names the set it
counted, and the long secants (pseudoregulus) and A4 (cplanes) read the
group's orbit, the pair map or the line counts N_j from it.  Only
`spectrum` charges the budget for line keys or pairs.

Only the line tally runs in worker processes, at most one per CPU; the pair
scan and the cyclic-group path run in the calling process.  The worker pool
(concurrent.futures.process and multiprocessing) is imported only when a
tally starts more than one worker, so a serial run never loads it, and
`array` only when a tally packs its columns.
"""

from __future__ import annotations

import math
import os
import sys
from collections import Counter
from itertools import combinations, product

from .errors import EnumerationTooLarge, NotF2Linear, TooFewPoints
from .gf2 import LinearMap, f2_echelon, field_create
from .hyperoval import (
    AffinePointSet,
    DirectionSet,
    projected_differences,
    translation_basis,
    translation_closure_check,
)
from .projective import DEFAULT_BUDGET, ProjSpace, projective_points_count
from .record import Record
from .reduction import CorrespondenceMaps


class CyclicSymmetry(Record):
    """A collineation of H_inf verified to act transitively on a direction set.

    The set is the `dirs` of the SpectrumHistogram that holds the group.
    `orbit[t]` is M^t(d0) for d0 = min D, so the orbit lists every point of D
    once.  `lines[j]` is the number N_j of lines meeting D in exactly j >= 2
    points, read off the lines through d0.
    """

    orbit: tuple
    lines: dict


class SpectrumHistogram(Record):
    """counts[j] = number of lines meeting the point set `dirs` in exactly j
    points.

    When the pair scan ran, `multiplicities` keeps its map from each line
    through two or more points to its pair count; when a candidate was
    verified, in either mode, `symmetry` keeps the group.  find_long_secants
    reads D from `dirs` and them, and the counts, instead of a second pass
    over the pairs; A4 refuses a histogram whose `dirs` is not its set.
    """

    counts: dict
    mode: str
    dirs: DirectionSet
    multiplicities: dict | None = None
    symmetry: CyclicSymmetry | None = None
    _uncompared = ("dirs", "multiplicities", "symmetry")

    @property
    def npoints(self) -> int:
        return len(self.dirs)

    @property
    def nlines(self) -> int:
        return self.dirs.space.nlines()

    @property
    def support(self) -> tuple:
        return tuple(sorted(j for j, c in self.counts.items() if c))

    @property
    def path(self) -> str:
        """"line-scan", "cyclic-group" or "pair-scan": how counts were found."""
        if self.mode == "exhaustive":
            return "line-scan"
        return "pair-scan" if self.symmetry is None else "cyclic-group"

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "lines": self.nlines,
            "points": self.npoints,
            "counts": {str(j): self.counts[j] for j in sorted(self.counts)},
        }


def spectrum_conforms(hist: SpectrumHistogram):
    """Support must be contained in {0, 1, 3, q-1}, q that of the set's space.

    Returns (ok, offending_j or None).
    """
    q = hist.dirs.space.q
    allowed = {0, 1, 3, q - 1}
    for j in hist.support:
        if j not in allowed:
            return False, j
    return True, None


# -- pairs mode ---------------------------------------------------------------

def _pair_multiplicities(pts, space: ProjSpace, budget):
    npairs = len(pts) * (len(pts) - 1) // 2
    if budget is not None and npairs > budget:
        raise EnumerationTooLarge(npairs, budget, "secant pair scan")
    key = space.pair_line_key
    mult: dict = {}
    for a, b in combinations(pts, 2):
        k = key(a, b)
        mult[k] = mult.get(k, 0) + 1
    return mult


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
    layout, where a vector packs vec(x) below vec(y).  It sends
    <(t, t^(2^i))> to <(gt, (gt)^(2^i))>, so its powers act transitively on
    D for every i, gcd(i, hk) > 1 included; but it is only a candidate:
    cyclic_symmetry checks it on the data before any use.
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


def cyclic_symmetry(dirs: DirectionSet, columns) -> CyclicSymmetry | None:
    """Verify a candidate collineation on D; None when any check fails.

    The candidate must be a GF(q)-linear bijection of the H_inf vectors: its
    GF(2) columns have full rank and it commutes with the GF(q) generator on
    every unit vector.  The orbit of d0 = min D must be D: |D| - 1 steps of
    apply-and-normalize that stay in D and do not meet d0, then back to d0.
    M permutes the points of H_inf, so its walk from d0 is a cycle whose
    first repeat can only be d0, and no other revisit needs a test.  <M> is
    then a group of collineations acting transitively on D, so every point
    of D lies on the same number c_j of j-secants, and the |D| - 1 lines
    from d0 give N_j = |D| c_j / j.  The line through d0 and
    p is named by its one point with a zero chunk at d0's pivot,
    normalize(p ^ c d0), c being p's chunk there.
    """
    space = dirs.space
    pts = dirs.points
    if len(columns) != space.bits or len(f2_echelon(columns)) != space.bits:
        return None
    apply = LinearMap(columns).apply
    w = 2 if space.q > 2 else 1  # x generates GF(q) over GF(2)
    for b, col in enumerate(columns):
        if apply(space.smul(w, 1 << b)) != space.smul(w, col):
            return None
    normalize = space.normalize
    d0 = dirs.ordered[0]
    orbit = [d0]
    p = d0
    for _ in range(len(pts) - 1):
        p = normalize(apply(p))
        if p == d0 or p not in pts:
            return None
        orbit.append(p)
    if normalize(apply(p)) != d0:
        return None
    smul, shift, mask = space.smul, space.pivot(d0) * space.h, space.chunk_mask
    others: dict = {}  # line through d0 -> the other points of D on it
    for p in orbit[1:]:
        k = normalize(p ^ smul(p >> shift & mask, d0))
        others[k] = others.get(k, 0) + 1
    c: dict = {}
    for n in others.values():
        c[n + 1] = c.get(n + 1, 0) + 1
    lines = {}
    for j in sorted(c):
        lines[j], rest = divmod(len(pts) * c[j], j)
        if rest:
            raise AssertionError(f"{len(pts)} * {c[j]} is not a multiple of {j}")
    return CyclicSymmetry(tuple(orbit), lines)


# -- exhaustive mode ----------------------------------------------------------

def _pivot_classes(pts, space: ProjSpace) -> dict:
    """{p: the points of pts whose pivot is p}."""
    classes: dict = {}
    for d in pts:
        classes.setdefault(space.pivot(d), []).append(d)
    return classes


def _pattern_columns(space: ProjSpace, pts, p0: int, p1: int) -> tuple:
    """The packed columns of the points pts of pivot p0 against the
    second-row pivot p1: (typecode, byte length, start, shifted).

    A key d ^ c r1 has chunk p0 equal to 1, chunk p1 zero and nothing
    below p0, so it is held by its other chunks alone, those of the first
    row's free shifts, packed down: (n - 1 - p0) h bits.  Slot t of each
    column is an array slot in native byte order and belongs to pts[t],
    whose p1 chunk is c_t.  `start` holds pts[t] packed so, and
    shifted[f][v] holds c_t v at the packed place of shift f, for each free
    shift f of the second row and each v in GF(q).  Multiplying by v is
    GF(2)-linear in v, so the q columns of a shift are XORs of the h
    columns of c_t 2^b, and no slot carries into the next.
    """
    from array import array

    h = space.h
    low = (p1 - p0 - 1) * h  # the packed bits of the chunks between the pivots
    bits = (space.width - p0 - 2) * h
    # the narrowest native unsigned slot
    code = next((c for c in "BHIQ" if array(c).itemsize * 8 >= bits), None)
    if code is None:
        raise ValueError(f"the line tally packs a key in at most 64 bits, not {bits}")
    order = sys.byteorder

    def pack(values) -> int:
        return int.from_bytes(array(code, values).tobytes(), order)

    mask, mul = space.chunk_mask, space.field.mul
    chunks = [d >> p1 * h & mask for d in pts]
    start = pack([d >> (p0 + 1) * h & (1 << low) - 1 | d >> (p1 + 1) * h << low
                  for d in pts])
    by_value = [0]  # by_value[v] holds c_t v
    for b in range(h if p1 < space.n else 0):  # p1 = n leaves r1 no free shift
        x = pack([mul(c, 1 << b) for c in chunks])
        by_value += [y ^ x for y in by_value]
    shifted = {
        j * h: [y << low + (j - p1 - 1) * h for y in by_value]
        for j in range(p1 + 1, space.width)
    }
    return code, len(pts) * array(code).itemsize, start, shifted


def _tally_pattern(space: ProjSpace, dset, classes, columns, task) -> Counter:
    """Line counts of one pivot pattern, one pencil per second row r1.

    The lines <r0, r1> with r1 fixed form a pencil.  A point d of D with
    pivot p0 lies on exactly one of them, the one with r0 = d ^ d_p1 r1,
    and r1 is the only point of these lines with another pivot.  So a line
    counts int(r1 in D) plus the points of its bin, and the lines no point
    binned to count int(r1 in D).  The keys d ^ d_p1 r1 of a pencil are one
    packed column, the pattern's start column XOR the shifted columns of
    r1's free coordinates (_pattern_columns, built once per pattern into
    the `columns` cache), binned by a Counter over its slots.
    """
    p0, p1, pencil, base, free = task
    cols = columns.get((p0, p1))
    if cols is None:
        cols = columns[p0, p1] = _pattern_columns(space, classes.get(p0, ()), p0, p1)
    code, nbytes, start, shifted = cols
    for f, by_value in shifted.items():
        if f not in free:  # fixed by the task's base
            start ^= by_value[base >> f & space.chunk_mask]
    order = sys.byteorder
    # bin sizes, r1 off D and r1 in D; size 0 counts the lines no point binned to
    sizes = (Counter(), Counter())
    pencils = product(*(shifted[f] for f in free))
    for r1, xs in zip(space.completions(base, free), pencils):
        col = start
        for x in xs:
            col ^= x
        # a list is counted faster than the memoryview's own iterator
        bins = Counter(memoryview(col.to_bytes(nbytes, order)).cast(code).tolist())
        hit = r1 in dset
        sizes[hit].update(bins.values())
        sizes[hit][0] += pencil - len(bins)
    counts: Counter = Counter()
    for hit in (0, 1):
        for size, n in sizes[hit].items():
            counts[hit + size] += n
    return +counts


def _tally_tasks(space: ProjSpace) -> list:
    """(p0, p1, pencil size, base of r1, free shifts of r1) per pivot
    pattern, split on the first free coordinate of r1."""
    tasks = []
    for p0, p1, free0, free1 in space.line_chunks():
        pencil = space.q ** len(free0)
        base = 1 << (p1 * space.h)
        if free1:
            for v in range(space.q):
                tasks.append((p0, p1, pencil, base | v << free1[0], free1[1:]))
        else:
            tasks.append((p0, p1, pencil, base, free1))
    return tasks


# worker-process state for the parallel tally
_W: dict = {}


def _worker_init(m, modulus, n, pts, tables):
    space = ProjSpace(n, field_create(m, modulus), tables)
    _W["space"] = space
    _W["dset"] = frozenset(pts)
    _W["classes"] = _pivot_classes(pts, space)
    _W["columns"] = {}


def _worker_tally(task) -> Counter:
    return _tally_pattern(
        _W["space"], _W["dset"], _W["classes"], _W["columns"], task
    )


def _verified_group(dirs: DirectionSet, candidate, budget):
    """cyclic_symmetry of the candidate on the set; None without one."""
    if candidate is None:
        return None
    # the |D| - 1 line keys through d0
    keys = len(dirs.ordered) - 1
    if budget is not None and keys > budget:
        raise EnumerationTooLarge(keys, budget, "cyclic-group line keys")
    return cyclic_symmetry(dirs, candidate)


def spectrum(
    dirs: DirectionSet,
    mode: str = "pairs",
    budget: int | None = DEFAULT_BUDGET,
    processes: int = 1,
    candidate: tuple | None = None,
) -> SpectrumHistogram:
    """Line spectrum of a DirectionSet in its projective space.

    mode "pairs" finds the lines through two or more points and derives the
    1- and 0-line counts from incidence identities; mode "exhaustive"
    counts the points on every line of the space, one pencil of lines per
    second row r1 (_tally_pattern), and checks the line total and the
    incidence total |D| (q^n - 1)/(q - 1).  Both give the same histogram;
    exhaustive is the independent cross-check.  The tally's packed columns
    are built once per pivot pattern: into one cache per call here, and
    into one per worker process.

    A `candidate` collineation (cyclic_candidate) is verified on the set in
    either mode.  In pairs mode the group gives the multi-point lines from
    the lines through one point, else the C(|D|, 2) pairs are scanned; the
    tally counts every line and only hands the group on.
    The budget charges each path what it computes, before it runs: |D| - 1
    line keys for the group, C(|D|, 2) for the pair scan, and for the tally
    #r1 (q - 1 + |D_p0|) summed over the pivot patterns (p0, p1): each
    pencil's |D_p0| keys, and q - 1 for the scalar multiples of r1 the
    tally once computed per pencil, kept so that its refusals stay put.

    `processes` only applies to the exhaustive line tally, which runs in
    min(processes, os.cpu_count()) worker processes, or in this one when
    that is 1.
    """
    pts = dirs.ordered
    space = dirs.space
    if not pts:
        raise TooFewPoints("empty point set has no spectrum")
    if mode not in ("pairs", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")

    if mode == "pairs":
        symmetry = _verified_group(dirs, candidate, budget)
        if symmetry is not None:
            counts = _complete_counts(symmetry.lines, len(pts), space)
            return SpectrumHistogram(counts, "pairs", dirs, symmetry=symmetry)
        mult = _pair_multiplicities(pts, space, budget)
        counts = _complete_counts(
            _lines_from_multiplicities(mult), len(pts), space
        )
        return SpectrumHistogram(counts, "pairs", dirs, mult)

    q = space.q
    classes = _pivot_classes(pts, space)
    tasks = _tally_tasks(space)
    est = sum(
        q ** len(free) * (q - 1 + len(classes.get(p0, ())))
        for p0, _, _, _, free in tasks
    )
    if budget is not None and est > budget:
        raise EnumerationTooLarge(est, budget, "exhaustive line tally")
    symmetry = _verified_group(dirs, candidate, budget)
    workers = min(processes, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(space.field.m, space.field.modulus, space.n, pts,
                      space.table_backed),
        ) as pool:
            counts = sum(pool.map(_worker_tally, tasks), Counter())
    else:
        dset, columns = frozenset(pts), {}
        parts = (_tally_pattern(space, dset, classes, columns, t) for t in tasks)
        counts = sum(parts, Counter())
    counts = {j: counts[j] for j in sorted(counts)}
    total = sum(counts.values())
    if total != space.nlines():
        raise AssertionError(f"tallied {total} lines, expected {space.nlines()}")
    incident = sum(j * c for j, c in counts.items())
    if incident != len(pts) * projective_points_count(space.n, q):
        raise AssertionError(f"tallied {incident} incidences for {len(pts)} points")
    return SpectrumHistogram(counts, "exhaustive", dirs, symmetry=symmetry)


# -- GF(2)-linear structure ----------------------------------------------------

class F2Witness(Record):
    """The GF(2)-linear point set behind an affine translation set.

    rows are the echelon basis of W, the span of the difference vectors of
    the Barlotti-Cofman images; the nonzero vectors of W are the points of
    K in PG(2hk-1, 2); `projected` holds the H_inf point of each, in C's order.
    """

    base: int
    rows: tuple
    rank: int
    projected: tuple
    _uncompared = ("projected",)


def f2_witness(q_points: AffinePointSet, maps: CorrespondenceMaps) -> F2Witness:
    """Check that the GF(2) images differ by an F2-closed vector set.

    The differences (p ^ c0) >> h, c0 = min C, are the Barlotti-Cofman
    difference vectors, so their span is the translation basis W of C
    (translation_basis, memoized on the set) and they are closed iff
    |C| = 2^rank W, the rank test of translation_closure_check.  Raises
    NotF2Linear when the difference set is not a subspace, naming the
    vector (v ^ c0) >> h of closure's memoized witness (a, b, c0, v): a sum
    of two differences, so in the span, whose point v is not in C.
    `projected` is C's memoized projected differences, which is the
    direction set of a closed C by construction (directions).
    """
    if len(q_points) < 2:
        raise TooFewPoints("need at least 2 affine points")
    rows = translation_basis(q_points)
    rank = len(rows)
    ordered = q_points.ordered
    if len(ordered) != 1 << rank:
        _, c0, v = translation_closure_check(q_points)[1][1:]
        raise NotF2Linear(
            f"difference set of size {len(ordered)} spans {1 << rank} vectors; "
            f"0x{(v ^ c0) >> q_points.space.h:x} is in the span but not the set"
        )
    projected = projected_differences(q_points, maps.hinf)
    return F2Witness(maps.bc_affine(ordered[0]), rows, rank, projected)


class ScatterednessReport(Record):
    scattered: bool
    rank: int
    max_rank: int
    is_maximum: bool
    max_meet: int
    offending_element: int | None
    meet_histogram: dict


def scattered_check(witness: F2Witness, hinf: ProjSpace) -> ScatterednessReport:
    """Does every element of the (h-1)-spread meet K in at most one point?

    The spread element holding a GF(2) vector w is the fibre of its H_inf
    point hinf.normalize(w), so counting witness.projected needs no spread,
    and the offending element is reported as the smallest over-met H_inf
    point.  The tests build the spread by field reduction and check it
    element by element as the oracle for the fibre count.
    """
    meets = Counter(witness.projected)
    max_meet = max(meets.values(), default=0)
    offender = None
    if max_meet > 1:
        offender = min(i for i, c in meets.items() if c > 1)
    hist = Counter(meets.values())
    hist[0] = hinf.npoints() - len(meets)
    # K lives in PG(2hk-1, 2): H_inf's 2hk bits per vector
    max_rank = hinf.bits // 2
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
