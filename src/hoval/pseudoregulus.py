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
from itertools import chain

from .errors import (
    NoLongSecants,
    NotPseudoregulusCandidate,
    SemilinearFitFailed,
    SingularMatrix,
    SpreadConstructionFailed,
    TransversalExtractionFailed,
)
from .gf2 import LinearMap, f2_echelon
from .hyperoval import DirectionSet
from .linearsets import (
    CyclicSymmetry,
    _pair_multiplicities,
    check_group_budget,
    check_pair_budget,
)
from .projective import DEFAULT_BUDGET, ProjSpace
from .record import Record
from .reduction import CorrespondenceMaps, Spread, reduction_rows, unvec_blocks


class SecantStructure(Record):
    """The long secants of D, each as its ProjSpace.pair_line_key row pair."""

    secants: tuple  # one per long secant, sorted
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

    `symmetry` is the cyclic group a spectrum of the same D verified
    (SpectrumHistogram.symmetry); the secants are then the orbit of the one
    through min D (_orbit_secants).  Otherwise `multiplicities`
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
    return SecantStructure(
        secants=tuple(keys),
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


class Transversals(Record):
    """The two transversal subspaces as row tuples, and their secant points."""

    t0: tuple  # reduced-echelon rows (ProjSpace.rref) of the side of the anchor
    t_inf: tuple  # reduced-echelon rows of the other side
    side0: tuple  # per secant, its point on t0
    side_inf: tuple  # per secant, its point on t_inf


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
    t0 = space.rref(side0)
    t_inf = space.rref(side_inf)
    for name, rows, side in (("T0", t0, side0), ("Tinf", t_inf, side_inf)):
        if len(rows) != r:
            raise TransversalExtractionFailed(
                f"{name} has rank {len(rows)}, expected {r}"
            )
        if set(space.subspace_points(rows)) != set(side):
            raise TransversalExtractionFailed(
                f"{name} span has points beyond the off points"
            )
    if len(space.rref(t0 + t_inf)) != space.width:
        raise TransversalExtractionFailed("transversals do not span the space")
    return Transversals(t0=t0, t_inf=t_inf, side0=tuple(side0), side_inf=tuple(side_inf))


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


class SemilinearFit(Record):
    """The accepted exponents and the coordinate change of the primary fit.

    `matrix` is a LinearMap of H_inf's packed vectors: the GF(q)-linear
    map taking detected coordinates to the canonical frame, where
    D = {(t, t^(2^exponent))}.
    """

    exponent: int  # Frobenius exponent of the primary fit
    exponents: frozenset  # all exponents accepted over both labelings
    labeling: str  # "standard" or "swapped" for the primary fit
    matrix: LinearMap  # coordinate change, detected -> canonical
    fits: tuple  # every accepted (labeling, exponent) pair


def _preserves_spread(m, maps: CorrespondenceMaps, spell: LinearMap) -> bool:
    """Does the coordinate change permute the ambient spread elements?

    The ambient spread is the Desarguesian one: its elements are the orbits
    F v of the nonzero vectors under F = {S_c : c in GF(q^k)}, where S_c
    multiplies both blocks by c.  The cheap test first: beta, the class of
    x, generates GF(q^k) over GF(2), so if an invertible M has M S_beta =
    S_gamma M for some gamma then M F M^-1 = F, M(F v) = F M(v), and M
    permutes the elements (_conjugates_field, 2hk unit vectors).  When it
    has not, the elements are made and checked one by one
    (_maps_elements_to_elements): a refusal never rests on the stabiliser
    theorem, and a wrong map still exits at its first element.  A singular
    m shrinks an element through a kernel vector, so it permutes none.
    `spell` is unvec_blocks(tower, 2), built once per fit.
    """
    if len(f2_echelon(m.columns)) != maps.hinf.bits:
        return False
    return _conjugates_field(m, maps, spell) or _maps_elements_to_elements(m, maps, spell)


def _conjugates_field(lmap: LinearMap, maps, spell: LinearMap) -> bool:
    """Is M S_beta = S_gamma M, gamma read off the first unit vector?

    Compared on the 2hk GF(2) unit vectors e_b, which span H_inf's vectors:
    M S_beta e_b against S_gamma of M e_b, column b of M.  M e_0 is nonzero
    for an invertible M, so one of its blocks fixes gamma.
    """
    tower = maps.tower
    mul, inv = tower.big.mul, tower.big.inv
    shift = tower.hk
    vec = tower.vec_packed
    mask = (1 << shift) - 1

    def scale(c: int, v: int) -> int:
        x = spell(v)
        return vec(mul(c, x & mask)) | (vec(mul(c, x >> shift)) << shift)

    beta = 2  # the class of x; its minimal polynomial is the big modulus
    cols = lmap.columns
    x0, x1 = spell(cols[0]), spell(lmap(scale(beta, 1)))
    if not x0 & mask:  # read gamma off the second block
        x0, x1 = x0 >> shift, x1 >> shift
    gamma = mul(x1 & mask, inv(x0 & mask))
    return all(
        lmap(scale(beta, 1 << b)) == scale(gamma, col) for b, col in enumerate(cols)
    )


def _maps_elements_to_elements(lmap: LinearMap, maps, spell: LinearMap) -> bool:
    """Does the invertible map carry each spread element into one element?

    The elements, reductions of the points (0, 1) and (1, t) of PG(1, q^k),
    are written one at a time (reduction_rows), so a wrong map costs the
    elements up to its first bad one.  M carries each element E onto a
    subspace of E's rank, so M(E) is an element exactly when the images of
    E's k rows spell one point of PG(1, q^k), and then M permutes them.
    """
    tower = maps.tower
    hk = tower.hk
    normalize = ProjSpace(1, tower.big).normalize
    for src in chain((1 << hk,), (1 | t << hk for t in range(tower.big.q))):
        hit = {normalize(spell(lmap(r))) for r in reduction_rows(tower, src)}
        if len(hit) != 1:
            return False
    return True


def _canonical_image(to_field: LinearMap, dirs: DirectionSet, tower, j: int) -> bool:
    """Does the map carry D onto {<(u, u^(2^j))> : u in GF(q^k)*}?

    `to_field` is the coordinate change followed by unvec of each block, so
    it sends a point to x | y << hk with x, y in GF(q^k).  <(x, y)> is
    canonical iff x != 0 and y x^(-2^j) = mu^(1 - 2^j) for a mu in GF(q)*;
    it is then <(u, u^(2^j))> for u = x / mu.  gcd(j, hk) = 1 leaves 1 the
    only scalar of GF(q) fixed by x -> x^(2^j), so distinct u give distinct
    points and the canonical set has q^k - 1 of them.  D's image is that
    set iff |D| = q^k - 1, each image point is canonical and their u are
    distinct.  Tested point by point; the first point that fails ends it.
    """
    big = tower.big
    if len(dirs.ordered) != big.q - 1:
        return False
    mul, inv, frob = big.mul, big.inv, big.frob
    # mu^(1 - 2^j) -> 1 / mu; one-to-one, as gcd(2^j - 1, q - 1) = 1
    unscale = {}
    for a in range(1, tower.small.q):
        mu = tower.embed(a)
        unscale[mul(mu, inv(frob(mu, j)))] = inv(mu)
    shift = tower.hk
    mask = (1 << shift) - 1
    seen = set()
    for p in dirs.ordered:
        y = to_field(p)
        x = y & mask
        if not x:
            return False
        mu_inv = unscale.get(mul(y >> shift, inv(frob(x, j))))
        if mu_inv is None:
            return False
        u = mul(x, mu_inv)
        if u in seen:
            return False
        seen.add(u)
    return True


def _fit_candidates(dirs: DirectionSet, fmap: dict, maps: CorrespondenceMaps):
    """Every candidate coordinate change the fit tests, in order.

    Yields (labeling, j, matrix) for each transversal labeling and each
    exponent j prime to hk whose fitted matrix sends d0 = min D to
    (t, rho t^(2^j)), read as big-field blocks, with t != 0 and rho in
    GF(q).  The matrix is the LinearMap that takes the basis u + w of the
    transversal points to the canonical basis (b, 0), (0, b^(2^j)) over
    the tower basis b, with its second block then divided by rho; its
    columns are written from to_basis's, one table build per candidate.
    """
    tower = maps.tower
    space = maps.hinf
    big = tower.big
    k, hk = tower.k, tower.hk
    hk_bits = k * tower.h
    mask = (1 << hk_bits) - 1
    vec, unvec, mul = tower.vec_packed, tower.unvec_packed, big.mul

    def second(v: int) -> list:
        """The GF(q) coordinates of v's second block, embedded in GF(q^k)."""
        return [tower.embed(a) for a in space.unpack(v)[k:]]

    def dot(xs, ys) -> int:
        out = 0
        for x, y in zip(xs, ys):
            out ^= mul(x, y)
        return out

    candidates = [j for j in range(1, hk) if math.gcd(j, hk) == 1]
    inv_map = {v: u for u, v in fmap.items()}
    for label, use_map in (("standard", fmap), ("swapped", inv_map)):
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
        try:
            to_basis = LinearMap.from_columns(u + w, space).inverse()
        except SingularMatrix:
            continue
        # the canonical basis keeps the first block (t of d0 for every j) and
        # sends the GF(q) coordinates a_l of the second to sum a_l b_l^(2^j) / rho
        y0 = to_basis(dirs.ordered[0])
        t, s0 = unvec(y0 & mask), second(y0)
        if t == 0:
            continue
        firsts = [c & mask for c in to_basis.columns]
        seconds = [second(c) for c in to_basis.columns]
        for j in candidates:
            images = [big.frob(b, j) for b in tower.basis]
            rho = mul(dot(s0, images), big.inv(big.frob(t, j)))
            if rho == 0 or not tower.in_subfield(rho):
                continue
            rinv = big.inv(rho)
            images = [mul(rinv, c) for c in images]
            m = LinearMap(
                f | vec(dot(a, images)) << hk_bits for f, a in zip(firsts, seconds)
            )
            yield label, j, m


def fit_semilinear(
    dirs: DirectionSet, fmap: dict, maps: CorrespondenceMaps
) -> SemilinearFit:
    """Fit x -> A x^(2^j) to the secant bijection and normalize D.

    Tries both transversal labelings (_fit_candidates).  A candidate
    exponent is accepted when the fitted coordinate change permutes the
    spread of the hyperplane at infinity (_preserves_spread: a conjugation
    test on 2hk vectors, element by element when it fails) and carries D
    onto {(t, t^(2^j))}, tested point by point (_canonical_image).  The
    spread test runs first, so a wrong exponent skips the image walk and
    the map it reads.
    The second demand matters: twisting one block by the GF(q)-linear map
    x -> x^(2^h) shifts the apparent exponent by h while fixing both
    transversals and D's shape, so without it every exponent in
    {+-i + s*h} would pass.  Respecting the spread pins the answer to one
    exponent per labeling, {i, hk - i} in total.  The returned matrix is
    the LinearMap that carries detected coordinates to the canonical frame
    where D = {(t, t^(2^i))}.
    """
    tower = maps.tower
    spell = unvec_blocks(tower, 2)
    accepted = []
    for label, j, m in _fit_candidates(dirs, fmap, maps):
        if _preserves_spread(m, maps, spell) and _canonical_image(
            m.then(spell), dirs, tower, j
        ):
            accepted.append((label, j, m))
    if not accepted:
        raise SemilinearFitFailed("no exponent fits the secant bijection")
    accepted.sort(key=lambda a: (a[0] != "standard", a[1]))
    label, j, m = accepted[0]
    return SemilinearFit(
        exponent=j,
        exponents=frozenset(a[1] for a in accepted),
        labeling=label,
        matrix=m,
        fits=tuple((a[0], a[1]) for a in accepted),
    )


class SpreadResult(Record):
    spread: Spread
    matches_canonical: bool
    t0_index: int
    tinf_index: int
    exponent: int


def build_spread(
    fit: SemilinearFit, transversals: Transversals, maps: CorrespondenceMaps
) -> SpreadResult:
    """Rebuild the Desarguesian spread through the fitted pseudoregulus.

    The canonical sources are <(u, u^(2^i))> for u in GF(q^k)* and the
    coordinate points <(1, 0)>, <(0, 1)> of PG(1, q^k); field reduction is
    injective on points, so two u collide iff their elements do.  Element
    idx is the reduction (reduction_rows) of the point that M^-1 of source
    idx spells, M = fit.matrix: M^-1 of canonical element idx, as M
    permutes the Desarguesian spread, so the element through p is the
    canonical one through M(p) (Spread.reduced).  No element is
    row-reduced.  matches_canonical runs the fit's spread test again on M,
    and plane_axioms_check re-verifies it, as a row lies in fibre idx only
    if M carries the element onto canonical element idx.
    """
    tower = maps.tower
    big = tower.big
    hk = tower.hk
    i = fit.exponent
    source = ProjSpace(1, big)
    first_u: dict = {}
    for u in range(1, big.q):
        if first_u.setdefault(source.normalize(u | big.frob(u, i) << hk), u) != u:
            raise SpreadConstructionFailed(
                f"parameters u collide at 0x{u:x}; exponent {i} is not strict"
            )
    sources = [*first_u, 1, 1 << hk]  # then <(1, 0)> and <(0, 1)>
    m, spell = fit.matrix, unvec_blocks(tower, 2)
    back = m.then(spell).inverse().then(spell)  # source -> source under M^-1
    matches = _conjugates_field(m, maps, spell) or _maps_elements_to_elements(m, maps, spell)
    elements = [reduction_rows(tower, source.normalize(back(s))) for s in sources]
    spread = Spread.reduced(elements, maps.hinf, tower, sources, source, m)
    keyset = {el: idx for idx, el in enumerate(spread.elements)}
    if transversals.t0 not in keyset or transversals.t_inf not in keyset:
        raise SpreadConstructionFailed("transversals are not spread elements")
    return SpreadResult(
        spread=spread,
        matches_canonical=matches,
        t0_index=keyset[transversals.t0],
        tinf_index=keyset[transversals.t_inf],
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

