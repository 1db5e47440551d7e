"""Pseudoregulus structure of a direction set and the semilinear fit.

A strict direction set D in H_inf = PG(2k-1, q) is covered by m =
(q^k-1)/(q-1) long secants, each carrying q-1 points of D and two points
off D.  The off points split into two transversal (k-1)-spaces T0 and
T_inf, the secants induce a bijection T0 -> T_inf, and that bijection
extends to a semilinear map whose Frobenius exponent recovers i up to the
inversion i <-> hk - i.  Fitting the map yields the coordinate change that
puts D into the shape {(t, t^(2^i))} and rebuilds the Desarguesian spread
around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    NoLongSecants,
    NotPseudoregulusCandidate,
    SemilinearFitFailed,
    SingularMatrix,
    SpreadConstructionFailed,
    TransversalExtractionFailed,
)
from .hyperoval import DirectionSet
from .linearsets import (
    CyclicSymmetry,
    _pair_multiplicities,
    check_group_budget,
    check_pair_budget,
)
from .projective import (
    DEFAULT_BUDGET,
    Line,
    ProjSpace,
    Subspace,
    mat_inv,
    mat_mul,
    mat_vec_packed,
)
from .reduction import CorrespondenceMaps, Spread


@dataclass(frozen=True)
class SecantStructure:
    secants: tuple  # Line objects in canonical order
    count: int  # m = (q^k - 1)/(q - 1)
    d_on: dict  # D point -> index of its unique long secant
    zero_points: tuple  # sorted points of the secants that avoid D
    zero_pairs: tuple  # per secant, its two off-D points (sorted)


def require_long_secants(h: int) -> None:
    """Refuse h = 1 before any work is done.

    A long secant carries q - 1 points of D, so over q = 2 it meets D once
    and no pair of directions marks it.
    """
    if h < 2:
        raise NoLongSecants(
            f"h = {h} gives q = 2, where a long secant carries q - 1 = 1 "
            "direction: there is no pseudoregulus to detect, use h >= 2"
        )


def find_long_secants(
    dirs: DirectionSet,
    budget: int | None = DEFAULT_BUDGET,
    multiplicities: dict | None = None,
    symmetry: CyclicSymmetry | None = None,
) -> SecantStructure:
    """Locate the (q-1)-secants and check they partition D.

    `symmetry` is the cyclic group a pairs-mode spectrum of the same D
    verified (SpectrumHistogram.symmetry); the secants are then the orbit
    of the one through min D (_orbit_secants).  Otherwise `multiplicities`
    is the pair map a pairs-mode spectrum of D scanned
    (SpectrumHistogram.multiplicities), and without either the pairs are
    scanned here.  The budget charges |D| - 1 line keys on the group path
    and the C(|D|, 2) pairs on the others.

    At q = 4 a long secant and a 3-secant both carry 3 points of D, so only
    the group can tell them apart: without a verified group h = 2 is
    refused.  Raises NotPseudoregulusCandidate when the counts or the cover
    are off.
    """
    space = dirs.space
    q = space.q
    pts = dirs.ordered
    if len(pts) % (q - 1) != 0:
        raise NotPseudoregulusCandidate(
            f"|D| = {len(pts)} is not a multiple of q - 1 = {q - 1}"
        )
    m = len(pts) // (q - 1)
    grouped = symmetry is not None and symmetry.dirs.points == dirs.points
    if grouped:
        check_group_budget(len(pts), budget)
        # at q = 4 the 3-secants outnumber the long secants; the orbit decides
        found = m if q == 4 else symmetry.lines.get(q - 1, 0)
    else:
        check_pair_budget(len(pts), budget)
        if q == 4:
            raise NotPseudoregulusCandidate(
                "at q = 4 long secants and 3-secants both carry 3 directions; "
                "without a verified cyclic symmetry of D they cannot be told apart"
            )
        mult = multiplicities
        if mult is None:
            mult = _pair_multiplicities(pts, space, budget)
        target = (q - 1) * (q - 2) // 2
        keys = sorted(k for k, c in mult.items() if c == target)
        found = len(keys)
    if found != m:
        raise NotPseudoregulusCandidate(
            f"found {found} long secants, expected {m}"
        )
    if grouped:
        keys = _orbit_secants(symmetry, m)
    dset = dirs.points
    d_on: dict = {}
    zero_pairs = []
    zero_all: list = []
    for idx, key in enumerate(keys):
        line_pts = space.line_points(*key)
        off = []
        for p in line_pts:
            if p in dset:
                if p in d_on:
                    raise NotPseudoregulusCandidate(
                        f"0x{p:x} lies on long secants {d_on[p]} and {idx}"
                    )
                d_on[p] = idx
            else:
                off.append(p)
        if len(off) != 2:
            raise NotPseudoregulusCandidate(
                f"secant {idx} has {q + 1 - len(off)} points of D"
            )
        zero_pairs.append(tuple(sorted(off)))
        zero_all.extend(off)
    if len(d_on) != len(pts):
        missing = min(dset - d_on.keys())
        raise NotPseudoregulusCandidate(f"0x{missing:x} is on no long secant")
    if len(set(zero_all)) != 2 * m:
        raise NotPseudoregulusCandidate("long secants are not pairwise disjoint")
    secants = tuple(Line(k0, k1, space) for k0, k1 in keys)
    return SecantStructure(
        secants=secants,
        count=m,
        d_on=d_on,
        zero_points=tuple(sorted(zero_all)),
        zero_pairs=tuple(zero_pairs),
    )


def _orbit_secants(symmetry: CyclicSymmetry, m: int) -> list:
    """The <M>-orbit of m lines with q - 1 points of D each, sorted.

    A line whose orbit has m members is fixed by the order-(q - 1) subgroup
    <M^m>, so its q - 1 points of D form one <M^m>-orbit.  Through d0 that
    leaves one candidate, the line L through orbit[0], orbit[m], orbit[2m],
    ...; its images are the lines through orbit[t], orbit[t + m], ... for
    t < m.  So there is at most one such orbit, and it partitions D.
    Raises NotPseudoregulusCandidate when L carries any other point of D.
    """
    orbit = symmetry.orbit
    space = symmetry.dirs.space
    key = space.pair_line_key(orbit[0], orbit[m])
    on = {p for p in space.line_points(*key) if p in symmetry.dirs.points}
    if on != set(orbit[::m]):
        raise NotPseudoregulusCandidate(
            f"no orbit of {m} lines partitions D under the verified cyclic "
            f"symmetry: the line through 0x{orbit[0]:x} and 0x{orbit[m]:x} "
            f"carries {len(on)} points of D"
        )
    return sorted(space.pair_line_key(orbit[t], orbit[t + m]) for t in range(m))


@dataclass(frozen=True)
class Transversals:
    t0: Subspace
    t_inf: Subspace
    side0: tuple  # per secant, its point on t0
    side_inf: tuple  # per secant, its point on t_inf
    anchor: int


def _rank_for_point_count(m: int, q: int) -> int:
    total, r = 0, 0
    while total < m:
        total += q**r
        r += 1
    if total != m:
        raise TransversalExtractionFailed(
            f"{m} is not the point count of any subspace over GF({q})"
        )
    return r


def extract_transversals(
    structure: SecantStructure, space: ProjSpace, anchor: int | None = None
) -> Transversals:
    """Split the off-D points into the two transversal subspaces.

    The anchor (least off point by default) names one side; a point X of
    another secant joins it iff the line anchor-X avoids D entirely.  The
    result is anchor-independent up to swapping the two sides.
    """
    zset = set(structure.zero_points)
    if anchor is None:
        anchor = structure.zero_points[0]
    elif anchor not in zset:
        raise TransversalExtractionFailed(f"anchor 0x{anchor:x} is not an off point")
    key = space.pair_line_key
    line_pts = space.line_points
    side0, side_inf = [], []
    for idx, (a, b) in enumerate(structure.zero_pairs):
        if anchor in (a, b):
            side0.append(anchor)
            side_inf.append(b if anchor == a else a)
            continue
        za = all(p in zset for p in line_pts(*key(anchor, a)))
        zb = all(p in zset for p in line_pts(*key(anchor, b)))
        if za == zb:
            raise TransversalExtractionFailed(
                f"secant {idx}: off points classify as ({za}, {zb})"
            )
        side0.append(a if za else b)
        side_inf.append(b if za else a)
    r = _rank_for_point_count(structure.count, space.q)
    t0 = Subspace(space.rref(side0), space)
    t_inf = Subspace(space.rref(side_inf), space)
    for name, sub, side in (("T0", t0, side0), ("Tinf", t_inf, side_inf)):
        if len(sub.rows) != r:
            raise TransversalExtractionFailed(
                f"{name} has rank {len(sub.rows)}, expected {r}"
            )
        if set(sub.points()) != set(side):
            raise TransversalExtractionFailed(
                f"{name} span has points beyond the off points"
            )
    if len(space.rref(t0.rows + t_inf.rows)) != space.width:
        raise TransversalExtractionFailed("transversals do not span the space")
    return Transversals(
        t0=t0, t_inf=t_inf, side0=tuple(side0), side_inf=tuple(side_inf), anchor=anchor
    )


def transversal_map(transversals: Transversals) -> dict:
    """The secant-induced bijection T0 -> T_inf as a point dict."""
    return dict(zip(transversals.side0, transversals.side_inf))


def _solve_in_span(space: ProjSpace, target: int, vectors):
    """Coefficients expressing target over the given vectors, or None."""
    f = space.field
    rows: list = []
    for idx, v in enumerate(vectors):
        cf = [0] * len(vectors)
        cf[idx] = 1
        for rv, rc in rows:
            c = space.chunk(v, space.pivot(rv))
            if c:
                v ^= space.smul(c, rv)
                cf = [x ^ f.mul(c, y) for x, y in zip(cf, rc)]
        if v == 0:
            continue
        lead = space.chunk(v, space.pivot(v))
        if lead != 1:
            il = f.inv(lead)
            v = space.smul(il, v)
            cf = [f.mul(il, x) for x in cf]
        rows.append((v, cf))
    out = [0] * len(vectors)
    t = target
    for rv, rc in rows:
        c = space.chunk(t, space.pivot(rv))
        if c:
            t ^= space.smul(c, rv)
            out = [x ^ f.mul(c, y) for x, y in zip(out, rc)]
    return tuple(out) if t == 0 else None


def _columns_matrix(space: ProjSpace, cols):
    unpacked = [space.unpack(c) for c in cols]
    return [[unpacked[c][r] for c in range(len(cols))] for r in range(space.width)]


def _greedy_basis(space: ProjSpace, pts, rank: int):
    basis: list = []
    rows: tuple = ()
    for p in pts:
        cand = space.rref(rows + (p,))
        if len(cand) > len(rows):
            rows = cand
            basis.append(p)
            if len(basis) == rank:
                break
    return basis


@dataclass(frozen=True)
class SemilinearFit:
    exponent: int  # Frobenius exponent of the primary fit
    exponents: frozenset  # all exponents accepted over both labelings
    labeling: str  # "standard" or "swapped" for the primary fit
    matrix: tuple  # coordinate change, detected -> canonical, row tuples
    scalars: tuple  # the projective rescaling constants c_2..c_k
    rho: int  # field constant absorbed while normalizing the fit
    fits: tuple  # every accepted (labeling, exponent) pair


def _preserves_spread(m, maps: CorrespondenceMaps, space: ProjSpace) -> bool:
    """Does the coordinate change permute the ambient spread elements?

    An invertible m carries each element E onto a subspace of E's rank, so
    m(E) is an element exactly when the images of E's rows lie in one, and
    then m permutes the elements.  A singular m shrinks the element through
    a kernel vector, so it permutes none.
    """
    try:
        mat_inv(m, space.field)
    except SingularMatrix:
        return False
    spread = maps.abb_spread
    element_of = spread.element_of
    normalize = space.normalize
    for el in spread.elements:
        hit = {element_of(normalize(mat_vec_packed(m, r, space))) for r in el.rows}
        if len(hit) != 1:
            return False
    return True


def fit_semilinear(
    dirs: DirectionSet,
    transversals: Transversals,
    fmap: dict,
    maps: CorrespondenceMaps,
) -> SemilinearFit:
    """Fit x -> A x^(2^j) to the secant bijection and normalize D.

    Tries both transversal labelings.  A candidate exponent is accepted
    when the fitted coordinate change carries D onto {(t, t^(2^j))} and
    permutes the spread of the hyperplane at infinity.  The second demand
    matters: twisting one block by the GF(q)-linear map x -> x^(2^h)
    shifts the apparent exponent by h while fixing both transversals and
    D's shape, so without it every exponent in {+-i + s*h} would pass.
    Respecting the spread pins the answer to one exponent per labeling,
    {i, hk - i} in total.  The returned matrix carries detected
    coordinates to the canonical frame where D = {(t, t^(2^i))}.
    """
    tower = maps.tower
    space = maps.hinf
    big = tower.big
    k, hk = tower.k, tower.hk
    hk_bits = k * tower.h
    mask = (1 << hk_bits) - 1
    vec = tower.vec_packed

    candidates = [j for j in range(1, hk) if math.gcd(j, hk) == 1]
    canonical_cache: dict = {}

    def canonical_set(j: int) -> frozenset:
        got = canonical_cache.get(j)
        if got is None:
            got = frozenset(
                space.normalize(vec(u) | (vec(big.frob(u, j)) << hk_bits))
                for u in range(1, big.q)
            )
            canonical_cache[j] = got
        return got

    inv_map = {v: u for u, v in fmap.items()}
    labelings = (
        ("standard", transversals.t0, fmap),
        ("swapped", transversals.t_inf, inv_map),
    )
    accepted = []
    for label, source, use_map in labelings:
        u = _greedy_basis(space, sorted(use_map.keys()), k)
        if len(u) != k:
            continue
        v = [use_map[x] for x in u]
        scalars = [1]
        ok = True
        for ell in range(1, k):
            x = space.normalize(u[0] ^ u[ell])
            z = use_map.get(x)
            coeffs = None if z is None else _solve_in_span(space, v[0], [z, v[ell]])
            if coeffs is None or coeffs[1] == 0:
                ok = False
                break
            scalars.append(coeffs[1])
        if not ok:
            continue
        w = [space.smul(c, x) for c, x in zip(scalars, v)]
        b_source = _columns_matrix(space, u + w)
        try:
            b_source_inv = mat_inv(b_source, space.field)
        except SingularMatrix:
            continue
        d0 = dirs.ordered[0]
        for j in candidates:
            cols = [vec(b) for b in tower.basis]
            cols += [vec(big.frob(b, j)) << hk_bits for b in tower.basis]
            m = mat_mul(_columns_matrix(space, cols), b_source_inv, space.field)
            y = mat_vec_packed(m, d0, space)
            t = tower.unvec_packed(y & mask)
            s = tower.unvec_packed(y >> hk_bits)
            if t == 0:
                continue
            rho = big.mul(s, big.inv(big.frob(t, j)))
            if rho == 0 or not tower.in_subfield(rho):
                continue
            if rho != 1:
                rinv = big.inv(rho)
                n = [
                    [tower.vec(big.mul(rinv, b))[r] for b in tower.basis]
                    for r in range(k)
                ]
                m = m[:k] + mat_mul(n, m[k:], space.field)
            image = {space.normalize(mat_vec_packed(m, x, space)) for x in dirs.ordered}
            if image == canonical_set(j) and _preserves_spread(m, maps, space):
                accepted.append(
                    (label, j, tuple(tuple(r) for r in m), tuple(scalars), rho)
                )
    if not accepted:
        raise SemilinearFitFailed("no exponent fits the secant bijection")
    accepted.sort(key=lambda a: (a[0] != "standard", a[1]))
    label, j, m, scalars, rho = accepted[0]
    return SemilinearFit(
        exponent=j,
        exponents=frozenset(a[1] for a in accepted),
        labeling=label,
        matrix=m,
        scalars=scalars,
        rho=rho,
        fits=tuple((a[0], a[1]) for a in accepted),
    )


@dataclass(frozen=True)
class SpreadResult:
    spread: Spread
    matches_canonical: bool
    t0_index: int
    tinf_index: int
    exponent: int


def build_spread(
    fit: SemilinearFit, transversals: Transversals, maps: CorrespondenceMaps
) -> SpreadResult:
    """Rebuild the Desarguesian spread through the fitted pseudoregulus.

    Canonical elements are the field-reduction spans of (1, u^(2^i - 1))
    plus the two coordinate subspaces; they come back through the inverse
    coordinate change, so the element through a point p is the canonical
    element through fit.matrix * p (Spread.reduced).  matches_canonical
    compares the canonical-frame elements against the line-at-infinity
    spread, element set for element set.
    """
    tower = maps.tower
    space = maps.hinf
    big = tower.big
    k = tower.k
    hk_bits = k * tower.h
    vec = tower.vec_packed
    i = fit.exponent

    source = ProjSpace(1, big)
    canonical_keys = set()
    element_rows = []
    sources = []
    for u in range(1, big.q):
        fu = big.frob(u, i)
        rows = space.rref(
            [vec(big.mul(b, u)) | (vec(big.mul(b, fu)) << hk_bits) for b in tower.basis]
        )
        if rows in canonical_keys:
            raise SpreadConstructionFailed(
                f"parameters u collide at 0x{u:x}; exponent {i} is not strict"
            )
        canonical_keys.add(rows)
        element_rows.append(rows)
        sources.append(source.normalize(u | (fu << hk_bits)))
    element_rows.append(space.rref([vec(b) for b in tower.basis]))
    element_rows.append(space.rref([vec(b) << hk_bits for b in tower.basis]))
    sources += [1, 1 << hk_bits]  # <(1, 0)> and <(0, 1)>

    # the q^k + 1 distinct canonical elements reduce every point of
    # PG(1, q^k), and mat_inv proves the fit invertible: the elements it
    # takes back partition H_inf, and the fit finds the one through a point
    minv = mat_inv([list(r) for r in fit.matrix], space.field)
    elements = []
    for rows in element_rows:
        mapped = space.rref([mat_vec_packed(minv, r, space) for r in rows])
        elements.append(Subspace(mapped, space))
    spread = Spread.reduced(elements, space, tower, sources, source, fit.matrix)
    # the rebuilt spread, taken back to detected coordinates, must be the
    # field-reduction spread the ambient came with
    matches = spread.keys() == maps.abb_spread.keys()
    want0 = transversals.t0.rows
    want_inf = transversals.t_inf.rows
    keyset = {el.rows: idx for idx, el in enumerate(spread.elements)}
    if want0 not in keyset or want_inf not in keyset:
        raise SpreadConstructionFailed("transversals are not spread elements")
    return SpreadResult(
        spread=spread,
        matches_canonical=matches,
        t0_index=keyset[want0],
        tinf_index=keyset[want_inf],
        exponent=i,
    )


def one_point_property(
    result: SpreadResult, dirs: DirectionSet
):
    """Each non-transversal element carries exactly one point of D.

    Returns (ok, detail dict with the hit histogram and a witness index).
    """
    spread = result.spread
    hits: dict = {}
    for p in dirs.ordered:
        idx = spread.element_of(p)
        hits[idx] = hits.get(idx, 0) + 1
    ok = True
    witness = None
    for idx in (result.t0_index, result.tinf_index):
        if hits.get(idx):
            ok = False
            witness = idx
    expected = len(spread) - 2
    once = sum(1 for c in hits.values() if c == 1)
    if once != expected or len(hits) != expected:
        if ok:
            bad = [i for i, c in hits.items() if c != 1]
            witness = min(bad) if bad else None
        ok = False
    detail = {
        "elements": len(spread),
        "hit_once": once,
        "hit_other": sorted(set(hits.values()) - {1}),
        "witness": witness,
    }
    return ok, detail


@dataclass(frozen=True)
class PseudoregulusReport:
    structure: SecantStructure
    transversals: Transversals
    fit: SemilinearFit
    spread_result: SpreadResult
    one_point_ok: bool
    one_point_detail: dict


def detect_pseudoregulus(
    dirs: DirectionSet, maps: CorrespondenceMaps, budget: int | None = DEFAULT_BUDGET
) -> PseudoregulusReport:
    """Full chain: secants, transversals, semilinear fit, spread, 1-point."""
    structure = find_long_secants(dirs, budget)
    transversals = extract_transversals(structure, dirs.space)
    fmap = transversal_map(transversals)
    fit = fit_semilinear(dirs, transversals, fmap, maps)
    result = build_spread(fit, transversals, maps)
    ok, detail = one_point_property(result, dirs)
    return PseudoregulusReport(
        structure=structure,
        transversals=transversals,
        fit=fit,
        spread_result=result,
        one_point_ok=ok,
        one_point_detail=detail,
    )
