"""Reference implementations the tests hold the library's fast paths to.

Each is the straightforward version of something `src/hoval` now computes
another way, or a helper the package dropped, kept here (not in the
package) because only tests call it.  detect_pseudoregulus chains the
pseudoregulus stages on any direction set; run_verify_all is the package's
one chain.
"""

import random
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, product, repeat
from math import comb

from hoval.bruckbose import PlaneAxiomsReport
from hoval.cplanes import AxiomReport
from hoval.errors import (
    CPlaneConstructionFailed,
    EnumerationTooLarge,
    InvalidSpread,
    SingularMatrix,
)
from hoval.gf2 import f2_echelon, f2_reduce, field_create, tower_create
from hoval.hyperoval import is_arc, translation_basis
from hoval.linearsets import ScatterednessReport
from hoval.projective import DEFAULT_BUDGET, ProjSpace
from hoval.pseudoregulus import (
    SecantStructure,
    SemilinearFit,
    SpreadResult,
    Transversals,
    build_spread,
    extract_transversals,
    find_long_secants,
    fit_semilinear,
    one_point_property,
    transversal_map,
)
from hoval.reduction import field_reduction_spread
from hoval.serialize import dumps


# -- matrices over GF(q) as lists of coordinate rows --------------------------

def mat_mul(a, b, field) -> list:
    """The product of two list matrices over `field`, entry by entry."""
    n = len(a)
    m = len(b[0])
    inner = len(b)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = 0
            for t in range(inner):
                if a[i][t] and b[t][j]:
                    acc ^= field.mul(a[i][t], b[t][j])
            out[i][j] = acc
    return out


def mat_inv(m, field) -> list:
    """Gauss-Jordan over GF(q); raises SingularMatrix."""
    n = len(m)
    a = [list(row) for row in m]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise SingularMatrix("matrix has no inverse")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        scale = field.inv(a[col][col])
        if scale != 1:
            a[col] = [field.mul(scale, x) for x in a[col]]
            inv[col] = [field.mul(scale, x) for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x ^ field.mul(f, y) for x, y in zip(a[r], a[col])]
                inv[r] = [x ^ field.mul(f, y) for x, y in zip(inv[r], inv[col])]
    return inv


def matrix_columns(m, space: ProjSpace) -> list:
    """The packed columns of a square list matrix, for LinearMap.from_columns."""
    return [space.pack([row[j] for row in m]) for j in range(space.width)]


def columns_matrix(cols, space: ProjSpace) -> list:
    """The list matrix whose column j is the packed vector cols[j]."""
    unpacked = [space.unpack(c) for c in cols]
    return [[col[r] for col in unpacked] for r in range(space.width)]


def mat_vec_packed(m, v: int, space: ProjSpace) -> int:
    """Matrix over GF(q) times packed column vector, one product per entry."""
    mul = space.field.mul
    coords = space.unpack(v)
    out = 0
    for i, row in enumerate(m):
        acc = 0
        for j, c in enumerate(coords):
            if c and row[j]:
                acc ^= mul(row[j], c)
        out |= acc << (i * space.h)
    return out


def chunk_smul(space: ProjSpace, s: int, v: int) -> int:
    """s times a packed vector, one Field.mul per coordinate."""
    return space.pack([space.field.mul(s, c) for c in space.unpack(v)])


def chunk_normalize(space: ProjSpace, v: int) -> int:
    """The scaling of v whose first nonzero coordinate is 1."""
    lead = next(c for c in space.unpack(v) if c)
    return chunk_smul(space, space.field.inv(lead), v)


def _minus_multiple(field, row, col, pivot_row):
    """row minus row[col] times pivot_row, coordinate by coordinate."""
    c = row[col]
    return [x ^ field.mul(c, y) for x, y in zip(row, pivot_row)]


def chunk_rref(space: ProjSpace, rows) -> tuple:
    """Gauss-Jordan on coordinate lists, column by column from coordinate 0."""
    f = space.field
    rest = [list(space.unpack(r)) for r in rows]
    done: list = []
    for col in range(space.width):
        i = next((i for i, r in enumerate(rest) if r[col]), None)
        if i is None:
            continue
        row = rest.pop(i)
        piv = [f.mul(f.inv(row[col]), x) for x in row]
        rest = [_minus_multiple(f, r, col, piv) for r in rest]
        done = [_minus_multiple(f, r, col, piv) for r in done] + [piv]
    return tuple(space.pack(r) for r in done)


def chunk_reduce(space: ProjSpace, v: int, rows) -> int:
    """v with the pivot coordinates of the echelon rows cleared."""
    coords = list(space.unpack(v))
    for r in rows:
        row = space.unpack(r)
        col = next(j for j, c in enumerate(row) if c)
        coords = _minus_multiple(space.field, coords, col, row)
    return space.pack(coords)


def all_lines(space: ProjSpace, budget=DEFAULT_BUDGET):
    """Every line of the space as its canonical reduced-echelon row pair."""
    total = space.nlines()
    if budget is not None and total > budget:
        raise EnumerationTooLarge(total, budget, "line enumeration")
    for p0, p1, free0, free1 in space.line_chunks():
        for r0 in space.completions(1 << (p0 * space.h), free0):
            for r1 in space.completions(1 << (p1 * space.h), free1):
                yield (r0, r1)


def in_span(space: ProjSpace, rows, v: int) -> bool:
    """Does the span of the echelon rows hold v?"""
    return space.reduce(v, rows) == 0


def apply_columns(columns, v: int) -> int:
    """The GF(2)-linear map with these unit-vector images, applied to v."""
    out = 0
    for col in columns:
        if not v:
            break
        if v & 1:
            out ^= col
        v >>= 1
    return out


# -- the tower's vec/unvec, bit by bit -----------------------------------------

def tower_columns(tower) -> tuple:
    """(unvec columns, vec columns) of the tower: column j h + b of unvec
    is the embedded 2^b times basis[j], and vec's are its inverse, by
    Gauss-Jordan on the augmented GF(2) matrix of bit rows."""
    hk, h = tower.hk, tower.h
    fwd = [tower.big.mul(tower.embed(1 << b), bj) for bj in tower.basis
           for b in range(h)]
    rows = [sum(((fwd[j] >> i) & 1) << j for j in range(hk)) for i in range(hk)]
    aug = [rows[i] | (1 << (hk + i)) for i in range(hk)]
    for col in range(hk):
        piv = next(r for r in range(col, hk) if (aug[r] >> col) & 1)
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(hk):
            if r != col and (aug[r] >> col) & 1:
                aug[r] ^= aug[col]
    inv_rows = [aug[i] >> hk for i in range(hk)]
    inv = [sum(((inv_rows[i] >> j) & 1) << i for i in range(hk)) for j in range(hk)]
    return fwd, inv


def tower_vec(tower, t: int) -> tuple:
    """The k GF(q) coordinates of t over the tower basis."""
    packed = tower.vec_packed(t)
    return tuple((packed >> (j * tower.h)) & (tower.small.q - 1)
                 for j in range(tower.k))


def tower_unvec(tower, coords) -> int:
    """The big-field element with the given coordinates over the basis."""
    return tower.unvec_packed(sum(c << (j * tower.h) for j, c in enumerate(coords)))


def to_subfield(tower, t: int) -> int:
    """The small-field preimage of an embedded element; KeyError outside."""
    return {tower.embed(a): a for a in range(tower.small.q)}[t]


def nonzero_elements(field) -> range:
    """The nonzero elements of a Field, as ints."""
    return range(1, field.q)


def cone_set(pts, space: ProjSpace) -> frozenset:
    """All scalar multiples of the normalized points, as raw vectors."""
    cone = set()
    for d in pts:
        for lam in range(1, space.q):
            cone.add(space.smul(lam, d))
    return frozenset(cone)


def scan_pattern(space: ProjSpace, cone, pattern) -> dict:
    """Point counts of every line of one pivot pattern, line by line."""
    p0, p1, free0, free1 = pattern
    q, h = space.q, space.h
    smul = space.smul
    counts: dict = {}
    base0 = 1 << (p0 * h)
    base1 = 1 << (p1 * h)
    lams = range(1, q)
    for vals0 in product(range(q), repeat=len(free0)):
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


def line_scan_counts(pts, space: ProjSpace) -> dict:
    """The line spectrum of a point set, every line's points counted."""
    cone = cone_set(pts, space)
    out: dict = {}
    for pattern in space.line_chunks():
        for j, c in scan_pattern(space, cone, pattern).items():
            out[j] = out.get(j, 0) + c
    return {j: out[j] for j in sorted(out)}


# -- the C-plane family, plane by plane ---------------------------------------

@dataclass(frozen=True)
class CPlane:
    secant_index: int
    base: int  # affine coset representative against the lifted secant rows
    rows: tuple  # canonical 3-row basis in the ambient space
    points: tuple  # the q points of C on this plane, sorted


def _lifted(secant_rows, maps) -> list:
    return [tuple(r << maps.tower.h for r in rows) for rows in secant_rows]


def planes_by_reduce(c_points, structure, maps) -> list:
    """Every plane, by grouping each point of C by its reduction against
    each lifted long secant; any class of other than q points raises."""
    amb = maps.ambient
    lifted = _lifted(structure.secants, maps)
    groups: dict = {}
    for p in c_points.ordered:
        for sidx, rows in enumerate(lifted):
            groups.setdefault((sidx, amb.reduce(p, rows)), []).append(p)
    planes = []
    for (sidx, base), pts in sorted(groups.items()):
        if len(pts) != amb.q:
            raise CPlaneConstructionFailed(
                f"secant {sidx} coset 0x{base:x} holds {len(pts)} points of C, "
                f"expected {amb.q}", ("coset", sidx, base, len(pts)),
            )
        planes.append(CPlane(sidx, base, (base,) + lifted[sidx], tuple(pts)))
    return planes


def planes_of(family, maps) -> list:
    """Every plane of a coset record: the cosets c + (W ∩ L_s) of its C,
    ordered as planes_by_reduce orders them."""
    reduce = maps.ambient.reduce
    h = maps.tower.h
    lifted = _lifted((rows for rows, _ in family.secants), maps)
    planes = []
    for sidx, ((_, meet), rows) in enumerate(zip(family.secants, lifted)):
        shifts = [x << h for x in meet]
        done: set = set()
        found = []
        for p in family.c_points.ordered:
            if p not in done:
                pts = sorted(p ^ x for x in shifts)
                done.update(pts)
                found.append((reduce(p, rows), tuple(pts)))
        planes.extend(CPlane(sidx, base, (base,) + rows, pts)
                      for base, pts in sorted(found))
    return planes


def vector_keys(planes, maps) -> frozenset:
    """(secant rows in H_inf, reduced coset vector) of every plane."""
    hinf = maps.hinf
    h = maps.tower.h
    keys = set()
    for pl in planes:
        rows = tuple(r >> h for r in pl.rows[1:])
        keys.add((rows, hinf.reduce(pl.base >> h, rows)))
    return frozenset(keys)


def a1_all_planes(planes, amb) -> AxiomReport:
    """A1 by testing every plane's meet with C, stopping at the first failure."""
    checked = 0
    for idx, pl in enumerate(planes):
        ok, witness = is_arc(pl.points, amb)
        checked += comb(len(pl.points), 2)
        if not ok:
            return AxiomReport("A1", False, checked, ("plane", idx) + witness,
                               {"mode": "all-planes"})
    return AxiomReport("A1", True, checked, None,
                       {"mode": "all-planes", "planes": len(planes)})


def a2_all_pairs(planes, n: int) -> AxiomReport:
    """A2 by recording the plane of every pair of every plane's meet."""
    seen: dict = {}
    for idx, pl in enumerate(planes):
        for a, b in combinations(pl.points, 2):
            prev = seen.get((a, b))
            if prev is not None:
                return AxiomReport("A2", False, len(seen), ("pair", a, b, prev, idx),
                                   {"mode": "explicit"})
            seen[(a, b)] = idx
    total = n * (n - 1) // 2
    ok = len(seen) == total
    return AxiomReport("A2", ok, len(seen),
                       None if ok else ("covered", len(seen), total),
                       {"mode": "explicit", "pairs": total})


def a3_cover(planes, c_points, m: int, amb) -> AxiomReport:
    """A3 by counting, for every affine point, the planes that hold it."""
    q = amb.q
    cover: dict = {}
    for pl in planes:
        m1 = [amb.smul(c, pl.rows[1]) for c in range(q)]
        m2 = [amb.smul(c, pl.rows[2]) for c in range(q)]
        for a in m1:
            for b in m2:
                p = pl.base ^ a ^ b
                cover[p] = cover.get(p, 0) + 1
    checked = 0
    for p, cnt in cover.items():
        want = m if p in c_points.points else 1
        if cnt != want:
            return AxiomReport("A3", False, checked, ("point", p, cnt, want),
                               {"mode": "explicit"})
        checked += 1
    total_affine = q ** (amb.width - 1)
    ok = len(cover) == total_affine
    return AxiomReport(
        "A3", ok, checked, None if ok else ("coverage", len(cover), total_affine),
        {"mode": "explicit", "affine_points": total_affine,
         "off_set_planes": 1, "on_set_planes": m},
    )


def a4_triple_scan(planes, c_points, maps, budget=None) -> AxiomReport:
    """A4 by binning every unordered triple by the affine plane it spans.

    A bin of a family plane must collect C(q, 3) triples, any other bin
    exactly C(4, 3) = 4, meaning a fourth point of C completes it.  A
    plane's key (rows, reduce(a, rows)) is packed into one int.
    """
    space = maps.hinf
    q, bits = space.q, space.bits
    mask = (1 << bits) - 1
    ordered = c_points.ordered
    vecs = [p >> maps.tower.h for p in ordered]
    n = len(vecs)
    total = comb(n, 3)
    if budget is not None and total > budget:
        raise EnumerationTooLarge(total, budget, "triple span scan")
    family = {(red << bits | r1) << bits | r0
              for (r0, r1), red in vector_keys(planes, maps)}
    space.ensure_tables()
    normalize, pair_key, reduce = space.normalize, space.pair_line_key, space.reduce
    # each triple is binned under its first point a, one line count per a
    counts: dict = {}
    for ia in range(n - 2):
        a = vecs[ia]
        dirs = [normalize(a ^ v) for v in vecs[ia + 1:]]
        lines: Counter = Counter()
        for ib, u in enumerate(dirs):
            rest = dirs[ib + 1:]
            if u in rest:
                return AxiomReport(
                    "A4", False, 0,
                    ("collinear", ordered[ia], ordered[ia + 1 + ib],
                     ordered[ia + ib + 2 + rest.index(u)]),
                    {"mode": "triple-scan"}, "triple-scan")
            lines.update(map(pair_key, repeat(u), rest))
        for rows, cnt in lines.items():
            key = (reduce(a, rows) << bits | rows[1]) << bits | rows[0]
            counts[key] = counts.get(key, 0) + cnt
    family_seen = quads = 0
    for key, cnt in counts.items():
        in_family = key in family
        if in_family and cnt == comb(q, 3):
            family_seen += 1
        elif cnt == 4 and not in_family:
            quads += 1
        else:
            rows = (key & mask, key >> bits & mask)
            return AxiomReport("A4", False, total,
                               ("plane", rows, key >> 2 * bits, cnt,
                                "family" if in_family else "outside"),
                               {"mode": "triple-scan"}, "triple-scan")
    ok = family_seen == len(planes)
    return AxiomReport(
        "A4", ok, total, None if ok else ("family planes seen", family_seen, len(planes)),
        {"mode": "triple-scan", "triples": total, "family_planes": family_seen,
         "four_point_planes": quads},
        "triple-scan",
    )


# -- the hyperoval in the Bruck-Bose plane, line by line ----------------------

def histogram_by_scan(q_points, plane, extra):
    """(histogram, witness) of the affine lines' meets, line by line."""
    histogram: dict = {}
    witness = None
    for eidx in range(len(plane.spread.elements)):
        counts = Counter(plane.base_of(eidx, p) for p in q_points.ordered)
        bonus = 1 if eidx in extra else 0
        for base in coset_bases(plane, eidx):
            c = counts.get(base, 0) + bonus
            histogram[c] = histogram.get(c, 0) + 1
            if c not in (0, 2) and witness is None:
                witness = ("line", eidx, base, c)
    return histogram, witness


def histogram_by_rank(q_points, plane, extra):
    """(histogram, witness) of the affine lines' meets with a coset Q = c0 + W,
    |W ∩ E| taken by one GF(2) rank of W + E per spread element.

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
    order = plane.order
    c0 = q_points.ordered[0]
    histogram: dict = {}
    witness = None
    for eidx, el in enumerate(plane.spread.elements):
        gens = (f2_reduce(hinf.smul(1 << b, r), basis)
                for r in el for b in range(h))
        meet = 1 << (h * len(el) - len(f2_echelon(gens)))
        bonus = 1 if eidx in extra else 0
        hit = n // meet
        for count, lines in ((meet + bonus, hit), (bonus, order - hit)):
            if not lines:
                continue
            histogram[count] = histogram.get(count, 0) + lines
            if witness is None and count not in (0, 2):
                if count == bonus:
                    met = {plane.base_of(eidx, p) for p in q_points.ordered}
                    lines_of = (plane.line_at(eidx * order + j)[1] for j in range(order))
                    base = next(b for b in lines_of if b not in met)
                else:
                    base = plane.base_of(eidx, c0)
                witness = ("line", eidx, base, count)
    return histogram, witness


# -- spreads, point by point --------------------------------------------------

def partition_index(elements, space: ProjSpace) -> dict:
    """Normalized point -> element index, visiting every point of every
    element; raises InvalidSpread unless the elements partition `space`."""
    index: dict = {}
    for idx, el in enumerate(elements):
        for p in space.subspace_points(el):
            if p in index:
                raise InvalidSpread(f"point 0x{p:x} lies in elements {index[p]} and {idx}")
            index[p] = idx
    if len(index) != space.npoints():
        raise InvalidSpread(f"elements cover {len(index)} of {space.npoints()} points")
    return index


# -- the Bruck-Bose plane axioms, pair by pair and direction by direction -----

def row_multiples(plane, eidx: int) -> tuple:
    """(pivot shift, the q multiples) of each row of element eidx, lifted
    into the ambient space and multiplied out by ambient smul."""
    amb = plane.maps.ambient
    h = plane.maps.tower.h
    lifted = [r << h for r in plane.spread.elements[eidx]]
    return tuple((amb.pivot(r) * h, tuple(amb.smul(c, r) for c in range(amb.q)))
                 for r in lifted)


def coset_bases(plane, eidx: int) -> tuple:
    """The coset representatives of element eidx in ascending order: chunk
    0 is 1, the pivot chunks of its lifted rows are 0, and every other chunk
    runs over GF(q)."""
    amb = plane.maps.ambient
    h = plane.maps.tower.h
    pivots = {amb.pivot(r << h) for r in plane.spread.elements[eidx]}
    vecs = [1]
    for c in range(1, amb.width):
        if c not in pivots:
            vecs = [v | (val << (c * h)) for v in vecs for val in range(amb.q)]
    return tuple(sorted(vecs))


def affine_line(plane, eidx: int, base: int) -> list:
    """The q^k affine points base + <E> of element eidx, unsorted."""
    pts = [base]
    for _, multiples in row_multiples(plane, eidx):
        pts = [p ^ m for p in pts for m in multiples]
    return pts


def plane_lines(plane):
    """Every affine line (eidx, base), in the order of plane.line_at."""
    for eidx in range(len(plane.spread.elements)):
        for b in coset_bases(plane, eidx):
            yield (eidx, b)


def cover_line(cover: list, ids) -> tuple:
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


def pair_scan(plane, budget=None) -> tuple:
    """(pairs, collisions, first witness) of the coverage bitset scan.

    One int bitset per point id takes, line by line, the ids that follow
    it on the line; a pair already set collides.  n^2 / 8 bytes for n
    points.
    """
    n = plane.n_points
    order = plane.order
    if budget is not None and n * n > budget:
        raise EnumerationTooLarge(n * n, budget, "pair coverage table")
    # ids: affine points in sorted packed order, then element points
    all_affine = sorted(p for b in coset_bases(plane, 0) for p in affine_line(plane, 0, b))
    affine_ids = {p: i for i, p in enumerate(all_affine)}
    # ids of each line in ascending order, the line at infinity last;
    # each element's span is built once for all of its lines
    spans = (affine_line(plane, eidx, 0) for eidx in range(len(plane.spread.elements)))
    point_lines = chain(
        (
            sorted(affine_ids[base ^ s] for s in span) + [order * order + eidx]
            for eidx, span in enumerate(spans)
            for base in coset_bases(plane, eidx)
        ),
        [range(order * order, n)],
    )
    cover = [0] * n
    pairs = collisions = 0
    witness = None
    for ids in point_lines:
        line_pairs, line_collisions, first = cover_line(cover, ids)
        pairs += line_pairs
        collisions += line_collisions
        if witness is None and first is not None:
            witness = ("pair on two lines", *first)
    return pairs, collisions, witness


def direction_marks(plane) -> tuple:
    """Mark every element's directions in one byte per vector of V(2k, q).

    A direction is a nonzero span vector scaled so that its lowest nonzero
    chunk is 1, the H_inf packing of normalize.  With the rows of E sorted
    by pivot, each row is zero at the pivots before its own, so the
    directions with pivot chunk j are normalize(r_j) plus the span of the
    later rows: (q^k - 1) / (q - 1) marks per element, each direction once.
    Returns how many marks fell on a marked direction and, for the first
    element that repeats one, ("direction on two elements", d, e1, e2) with
    d its smallest repeated direction and e1 < e2.  The spans partition
    H_inf iff nothing repeats and every direction is marked.
    """
    h = plane.maps.tower.h
    normalize = plane.maps.hinf.normalize
    marks = bytearray(1 << plane.maps.hinf.bits)
    repeats = 0
    witness = None
    for eidx in range(len(plane.spread.elements)):
        tab = row_multiples(plane, eidx)
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


LINE_PAIR_SAMPLES = 2000  # seeded line pairs of line_pair_meets


def meet(plane, l1, l2) -> int:
    """Number of common points of two distinct lines of `plane`, by one rank.

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
    amb = plane.maps.ambient
    rest: list = []
    for _, row in plane.rows[e2]:
        v = amb.reduce(plane.base_of(e1, row), rest)
        if v:
            rest.append(amb.normalize(v))
    if len(rest) < len(plane.rows[e2]) and amb.reduce(plane.base_of(e1, b1 ^ b2), rest):
        return 0
    return plane.order // amb.q ** len(rest)


def line_pair_meets(plane, seed: int = 0, samples: int = LINE_PAIR_SAMPLES) -> tuple:
    """(pairs not meeting once, first witness) over `samples` line pairs
    drawn by plane.line_at from a seeded generator, each met by `meet`."""
    rng = random.Random(seed)
    bad = 0
    witness = None
    for _ in range(samples):
        l1, l2 = (plane.line_at(i) for i in rng.sample(range(plane.n_lines), 2))
        c = meet(plane, l1, l2)
        if c != 1:
            bad += 1
            if witness is None:
                witness = ("line pair meets", l1, l2, c)
    return bad, witness


def sampled_check(plane, quadrangle: bool, seed: int = 0, samples: int = 2000):
    """Spot checks of point pairs, coset representatives and line pairs."""
    rng = random.Random(seed)
    witness = None
    bad = 0
    pairs = 0
    n_elements = len(plane.spread.elements)
    bases = [coset_bases(plane, eidx) for eidx in range(n_elements)]
    order = plane.order
    h = plane.maps.tower.h
    width_bits = plane.maps.ambient.bits - h
    for _ in range(samples):
        kind = rng.randrange(3)
        if kind == 0:
            p = 1 | (rng.randrange(1 << width_bits) << h)
            r = 1 | (rng.randrange(1 << width_bits) << h)
            if p == r:
                continue
            # reduce is GF(q)-linear: p, r share a coset iff p ^ r reduces to 0
            d = p ^ r
            hits = [e for e in range(n_elements) if plane.base_of(e, d) == 0]
            if len(hits) != 1:
                bad += 1
                if witness is None:
                    witness = ("affine pair", p, r, len(hits))
        elif kind == 1:
            p = 1 | (rng.randrange(1 << width_bits) << h)
            eidx = rng.randrange(n_elements)
            if plane.base_of(eidx, p) not in bases[eidx]:
                bad += 1
                if witness is None:
                    witness = ("coset rep missing", eidx, p)
        else:
            e1 = rng.randrange(n_elements)
            e2 = rng.randrange(n_elements)
            b1 = bases[e1][rng.randrange(order)]
            b2 = bases[e2][rng.randrange(order)]
            if (e1, b1) == (e2, b2):
                continue
            c = meet(plane, (e1, b1), (e2, b2))
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
        quadrangle_ok=quadrangle,
        witness=witness,
        path="sampled",
    )


# -- H_inf over GF(2), and documents on disk -----------------------------------

def hinf2(maps) -> ProjSpace:
    """PG(2hk - 1, 2): H_inf's packed vectors read as 2hk bits."""
    return ProjSpace(2 * maps.tower.hk - 1, field_create(1))


def save(path: str, obj: dict) -> None:
    """Write a document as serialize.dumps spells it."""
    with open(path, "w", encoding="ascii") as f:
        f.write(dumps(obj))


# -- scatteredness over the enumerated (h-1)-spread ----------------------------

@cache
def s_prime(maps):
    """The (h-1)-spread of PG(2hk-1, 2) by field reduction over GF(2) <
    GF(q): element idx is the GF(2) vectors of the H_inf point sources[idx]."""
    tower = maps.tower
    sub = tower_create(1, tower.h, big_modulus=tower.small.modulus)
    return field_reduction_spread(sub, 2 * tower.k, budget=None)


def scattered_by_elements(witness, spread) -> ScatterednessReport:
    """scattered_check element by element over a built spread; the
    offending element is the least over-met element index."""
    meets = Counter(spread.element_of(p) for p in witness.k_points)
    max_meet = max(meets.values(), default=0)
    offender = min((i for i, c in meets.items() if c > 1), default=None)
    hist = Counter(meets.values())
    hist[0] = len(spread) - len(meets)
    max_rank = spread.space.bits // 2
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


# -- the pseudoregulus stages chained without the pipeline ---------------------

@dataclass(frozen=True)
class PseudoregulusReport:
    structure: SecantStructure
    transversals: Transversals
    fit: SemilinearFit
    spread_result: SpreadResult
    one_point_ok: bool
    one_point_detail: dict


def detect_pseudoregulus(dirs, maps, budget=DEFAULT_BUDGET) -> PseudoregulusReport:
    """Secants, transversals, semilinear fit, spread and 1-point property of
    any direction set, canonical or not.  The secants come from a pair scan,
    as no cyclic symmetry is given, so h = 2 is refused (find_long_secants);
    run_verify_all is the chain the package runs."""
    structure = find_long_secants(dirs, budget)
    transversals = extract_transversals(structure, dirs.space)
    fit = fit_semilinear(dirs, transversal_map(transversals), maps)
    result = build_spread(fit, transversals, maps)
    ok, detail = one_point_property(result, dirs)
    return PseudoregulusReport(structure, transversals, fit, result, ok, detail)
