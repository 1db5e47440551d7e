"""Pseudoregulus structure of a direction set and the semilinear fit.

A strict direction set D in H_inf = PG(2k-1, q) is covered by m =
(q^k-1)/(q-1) long secants, each carrying q-1 points of D and two points
off D.  The off points split into two transversal (k-1)-spaces T0 and
T_inf, the secants induce a bijection T0 -> T_inf, and that bijection
extends to a semilinear map whose Frobenius exponent recovers i up to the
inversion i <-> hk - i.  Fitting the map yields the coordinate change that
puts D into the shape {(t, t^(2^i))} and rebuilds the Desarguesian spread
around it.  The fit walks D once: the walk that proves D's image canonical
also finds each point's source in PG(1, q^k).  The fit keeps them beside
its matrix, and the spread and its one-point test read D from there.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import islice

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
from . import linearsets
from .linearsets import CyclicSymmetry, SpectrumHistogram
from .projective import DEFAULT_BUDGET, ProjSpace, projective_points_count
from .record import Record
from .reduction import CorrespondenceMaps, Spread, reduction_map, unvec_blocks


class SecantStructure(Record):
    """The long secants of D, each as its ProjSpace.pair_line_key row pair,
    with the q + 1 points of each line (ProjSpace.line_points), walked once
    here and read again by the C-plane stage."""

    secants: tuple  # one per long secant, sorted; m = (q^k - 1)/(q - 1)
    zero_pairs: tuple  # per secant, its two off-D points (sorted)
    points: tuple  # per secant, the points of its line


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
    hist: SpectrumHistogram, budget: int | None = DEFAULT_BUDGET
) -> SecantStructure:
    """Locate the (q-1)-secants of D = hist.dirs and check they partition D.

    When the histogram holds a verified cyclic group, the secants are the
    orbit of the one through min D (_orbit_secants); otherwise they are the
    lines of its pair map with C(q-1, 2) pairs.  A line tally without a
    group has no pair map, so its pairs are scanned for that map alone
    (linearsets._pair_multiplicities), which charges the C(|D|, 2) pairs
    to the budget; reading the histogram charges nothing.

    At q = 4 a long secant and a 3-secant both carry 3 points of D, so only
    the group can tell them apart: without a verified group h = 2 is
    refused.  Raises NotPseudoregulusCandidate when the counts or the cover
    are off.
    """
    dirs = hist.dirs
    space = dirs.space
    q = space.q
    pts = dirs.ordered
    if len(pts) % (q - 1) != 0:
        raise NotPseudoregulusCandidate(
            f"|D| = {len(pts)} is not a multiple of q - 1 = {q - 1}"
        )
    m = len(pts) // (q - 1)
    symmetry = hist.symmetry
    if symmetry is not None:
        # at q = 4 the 3-secants outnumber the long secants; the orbit decides
        found = m if q == 4 else hist.counts.get(q - 1, 0)
    elif q == 4:
        raise NotPseudoregulusCandidate(
            "at q = 4 long secants and 3-secants both carry 3 directions; "
            "without a verified cyclic symmetry of D they cannot be told apart"
        )
    else:
        mult = hist.multiplicities
        if mult is None:
            mult = linearsets._pair_multiplicities(pts, space, budget)
        target = (q - 1) * (q - 2) // 2
        keys = sorted(k for k, c in mult.items() if c == target)
        found = len(keys)
    if found != m:
        raise NotPseudoregulusCandidate(
            f"found {found} long secants, expected {m}"
        )
    if symmetry is not None:
        keys = _orbit_secants(symmetry, dirs, m)
    dset = dirs.points
    d_on: dict = {}
    zero_pairs, points = [], []
    for idx, key in enumerate(keys):
        line_pts = space.line_points(*key)
        points.append(tuple(line_pts))
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
    if len(d_on) != len(pts):
        missing = min(dset - d_on.keys())
        raise NotPseudoregulusCandidate(f"0x{missing:x} is on no long secant")
    if len({p for pair in zero_pairs for p in pair}) != 2 * m:
        raise NotPseudoregulusCandidate("long secants are not pairwise disjoint")
    return SecantStructure(
        secants=tuple(keys), zero_pairs=tuple(zero_pairs), points=tuple(points)
    )


def _orbit_secants(symmetry: CyclicSymmetry, dirs: DirectionSet, m: int) -> list:
    """The <M>-orbit of m lines with q - 1 points of D each, sorted.

    A line whose orbit has m members is fixed by the order-(q - 1) subgroup
    <M^m>, so its q - 1 points of D form one <M^m>-orbit.  Through d0 that
    leaves one candidate, the line L through orbit[0], orbit[m], orbit[2m],
    ...; its images are the lines through orbit[t], orbit[t + m], ... for
    t < m.  So there is at most one such orbit, and it partitions D.
    Raises NotPseudoregulusCandidate when L carries any other point of D.
    """
    orbit = symmetry.orbit
    space = dirs.space
    key = space.pair_line_key(orbit[0], orbit[m])
    on = {p for p in space.line_points(*key) if p in dirs.points}
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


def extract_transversals(structure: SecantStructure, space: ProjSpace) -> Transversals:
    """Split the off-D points into the two transversal subspaces.

    The anchor, the least off point, names one side; a point X of another
    secant joins it iff the point anchor + X is an off point: in T0
    exactly when X is, else off T0 ∪ T_inf.  Any other anchor gives the
    same two sides, possibly swapped.  T0 and T_inf are
    complementary (k-1)-spaces of PG(2k-1, q), so each side must have rank
    width // 2; its span holds the side, so the two are equal exactly when
    the side has as many points as the span.
    """
    zset = {p for pair in structure.zero_pairs for p in pair}
    anchor = min(zset)
    normalize = space.normalize
    side0, side_inf = [], []
    for idx, (a, b) in enumerate(structure.zero_pairs):
        if anchor in (a, b):
            side0.append(anchor)
            side_inf.append(b if anchor == a else a)
            continue
        za = normalize(anchor ^ a) in zset
        zb = normalize(anchor ^ b) in zset
        if za == zb:
            raise TransversalExtractionFailed(
                f"secant {idx}: off points classify as ({za}, {zb})"
            )
        side0.append(a if za else b)
        side_inf.append(b if za else a)
    r = space.width // 2
    t0 = space.rref(side0)
    t_inf = space.rref(side_inf)
    for name, rows, side in (("T0", t0, side0), ("Tinf", t_inf, side_inf)):
        if len(rows) != r:
            raise TransversalExtractionFailed(
                f"{name} has rank {len(rows)}, expected {r}"
            )
        if projective_points_count(r, space.q) != len(set(side)):
            raise TransversalExtractionFailed(
                f"{name} span has points beyond the off points"
            )
    if len(space.rref(t0 + t_inf)) != space.width:
        raise TransversalExtractionFailed("transversals do not span the space")
    return Transversals(t0=t0, t_inf=t_inf, side0=tuple(side0), side_inf=tuple(side_inf))


def transversal_map(transversals: Transversals) -> dict:
    """The secant-induced bijection T0 -> T_inf as a point dict."""
    return dict(zip(transversals.side0, transversals.side_inf))


def _span_scale(space: ProjSpace, z: int, v0: int, v1: int):
    """The c in GF(q)* with v0 + c v1 in <z>, or None.

    reduce(., (z,)) is GF(q)-linear with kernel <z>, so c maps v1's
    remainder onto v0's: it is their ratio at the pivot of v1's.
    """
    r0, r1 = space.reduce(v0, (z,)), space.reduce(v1, (z,))
    if r1 == 0:
        return None
    p, f = space.pivot(r1), space.field
    c = f.mul(space.chunk(r0, p), f.inv(space.chunk(r1, p)))
    return c if c and space.smul(c, r1) == r0 else None


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
    """The accepted exponents, the primary fit's coordinate change and its
    walk of D.

    `matrix` is a LinearMap of H_inf's packed vectors: the GF(q)-linear
    map taking detected coordinates to the canonical frame, where
    D = {(t, t^(2^exponent))}.  `to_source` is matrix, then unvec each
    block, and `sources` holds each point of the fitted D's source under
    it, as _canonical_image walked them.
    """

    exponent: int  # Frobenius exponent of the primary fit
    exponents: frozenset  # all exponents accepted over both labelings
    matrix: LinearMap  # coordinate change, detected -> canonical
    to_source: LinearMap  # matrix, then unvec each block
    sources: memoryview  # per point of D.ordered, its normalized source
    _uncompared = ("to_source", "sources")  # functions of matrix and D


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
    `spell` is unvec_blocks(tower, 2), kept on the tower.
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

    The elements, reductions of the points of PG(1, q^k) in the order of
    ProjSpace.points, are written one at a time (reduction_map), so a
    wrong map costs the elements up to its first bad one.  M carries each element E onto a
    subspace of E's rank, so M(E) is an element exactly when the images of
    E's k rows spell one point of PG(1, q^k), and then M permutes them.
    The last of the q^k + 1 elements is not walked: the invertible M
    carries the other q^k onto q^k distinct elements, and the last one,
    disjoint from them, onto the rest of the space, the one element left.
    """
    tower = maps.tower
    source = ProjSpace(1, tower.big)
    normalize, rows_of = source.normalize, reduction_map(tower, source.width)
    for src in islice(source.points(budget=None), tower.big.q):
        hit = {normalize(spell(lmap(r))) for r in rows_of(src)}
        if len(hit) != 1:
            return False
    return True


def _canonical_image(to_field, dirs: DirectionSet, tower, j: int) -> memoryview | None:
    """Does the map carry D onto {<(u, u^(2^j))> : u in GF(q^k)*}?

    `to_field` applies the coordinate change followed by unvec of each
    block, so it sends a point to x | y << hk with x, y in GF(q^k).  <(x, y)> is
    canonical iff x != 0 and y x^(-2^j) = mu^(1 - 2^j) for a mu in GF(q)*;
    it is then <(u, u^(2^j))> for u = x / mu.  gcd(j, hk) = 1 leaves 1 the
    only scalar of GF(q) fixed by x -> x^(2^j), so distinct u give distinct
    points and the canonical set has q^k - 1 of them.  D's image is that
    set iff |D| = q^k - 1, each image point is canonical and their u are
    distinct.  Tested point by point; the first point that fails ends it.
    With exp/log tables a point costs one to_field and log arithmetic, u
    compared by its log mod q^k - 1; above gf2.TABLE_LIMIT, Field calls.

    Returns None if not, else each point's source in the order of
    dirs.ordered: <(x, y)> normalized in PG(1, q^k), 1 | (y / x) << hk, as
    ReductionIndex finds it under the same map; 8 bytes a point, in a
    read-only memoryview (2hk <= 48 bits), as the fit keeps them.
    """
    big = tower.big
    if len(dirs.ordered) != big.q - 1:
        return None
    mul, inv, frob = big.mul, big.inv, big.frob
    # mu^(1 - 2^j) -> 1 / mu; one-to-one, as gcd(2^j - 1, q - 1) = 1
    unscale = {}
    for a in range(1, tower.small.q):
        mu = tower.embed(a)
        unscale[mul(mu, inv(frob(mu, j)))] = inv(mu)
    shift = tower.hk
    mask = (1 << shift) - 1
    seen = set()
    exp, log, n = big._exp, big._log, big.q - 1
    sources = memoryview(bytearray(8 * n)).cast("Q")
    if log is not None:
        unscale = {log[r]: log[m] for r, m in unscale.items()}
    for idx, p in enumerate(dirs.ordered):
        y = to_field(p)
        x, z = y & mask, y >> shift
        if not x or not z:
            return None
        if log is None:
            x_inv = inv(x)
            mu_inv = unscale.get(mul(z, frob(x_inv, j)))
            u = None if mu_inv is None else mul(x, mu_inv)
            ratio = mul(z, x_inv)
        else:
            lx, lz = log[x], log[z]
            mu_inv = unscale.get((lz - (lx << j)) % n)
            u = None if mu_inv is None else (lx + mu_inv) % n
            ratio = exp[lz - lx + n]
        if u is None or u in seen:
            return None
        seen.add(u)
        sources[idx] = 1 | ratio << shift
    return sources.toreadonly()


def _fit_candidates(dirs: DirectionSet, fmap: dict, maps: CorrespondenceMaps):
    """Every candidate coordinate change the fit tests, in order.

    Yields (j, matrix) for the labeling fmap gives, T0 -> T_inf, and each
    exponent j prime to hk whose fitted matrix sends d0 = min D to
    (t, rho t^(2^j)), read as big-field blocks, with t != 0 and rho in
    GF(q).  The matrix is the LinearMap that takes the basis u + w of the
    transversal points to the canonical basis (b, 0), (0, b^(2^j)) over
    the tower basis b, with its second block then divided by rho; its
    columns are written from to_basis's, one table build per candidate.
    w_l is f(u_l) scaled so that f(u_0 + u_l) = <w_0 + w_l>: w_0 = v_0 and
    w_l = c v_l, where c is _span_scale's for z = f(u_0 + u_l).  A map with
    no such z or no such c yields nothing.  The swapped labeling is fmap
    inverted; fit_semilinear derives its fits instead of searching it.
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

    u = _greedy_basis(space, sorted(fmap.keys()), k)
    if len(u) != k:
        return
    v = [fmap[x] for x in u]
    scalars = [1]
    for ell in range(1, k):
        z = fmap.get(space.normalize(u[0] ^ u[ell]))
        c = None if z is None else _span_scale(space, z, v[0], v[ell])
        if c is None:
            return
        scalars.append(c)
    w = [space.smul(c, x) for c, x in zip(scalars, v)]
    try:
        to_basis = LinearMap.from_columns(u + w, space).inverse()
    except SingularMatrix:
        return
    # the canonical basis keeps the first block (t of d0 for every j) and
    # sends the GF(q) coordinates a_l of the second to sum a_l b_l^(2^j) / rho
    y0 = to_basis(dirs.ordered[0])
    t, s0 = unvec(y0 & mask), second(y0)
    if t == 0:
        return
    firsts = [c & mask for c in to_basis.columns]
    seconds = [second(c) for c in to_basis.columns]
    for j in range(1, hk):
        if math.gcd(j, hk) != 1:
            continue
        images = [big.frob(b, j) for b in tower.basis]
        rho = mul(dot(s0, images), big.inv(big.frob(t, j)))
        if rho == 0 or not tower.in_subfield(rho):
            continue
        rinv = big.inv(rho)
        images = [mul(rinv, c) for c in images]
        yield j, LinearMap(
            f | vec(dot(a, images)) << hk_bits for f, a in zip(firsts, seconds)
        )


def fit_semilinear(
    dirs: DirectionSet, fmap: dict, maps: CorrespondenceMaps
) -> SemilinearFit:
    """Fit x -> A x^(2^j) to the secant bijection and normalize D.

    Searches the standard labeling, fmap: T0 -> T_inf (_fit_candidates),
    at every exponent prime to hk.  A candidate exponent is accepted when
    the fitted coordinate change permutes the spread of the hyperplane at
    infinity (_preserves_spread: a conjugation test on 2hk vectors, element
    by element when it fails) and carries D onto {(t, t^(2^j))}, tested
    point by point (_canonical_image).  The spread test runs first, so a
    wrong exponent skips the image walk and the map it reads.
    The second demand matters: twisting one block by the GF(q)-linear map
    x -> x^(2^h) shifts the apparent exponent by h while fixing both
    transversals and D's shape, so without it every exponent in
    {+-i + s*h} would pass.  Respecting the spread pins the answer to one
    exponent per labeling, {i, hk - i} in total.  The returned matrix is
    the LinearMap that carries detected coordinates to the canonical frame
    where D = {(t, t^(2^i))}, and the fit keeps D's sources under it.

    The swapped labeling, fmap inverted, is derived, not searched: each
    accepted (standard, j, M) gives (swapped, hk - j).  The block swap
    P: (x, y) -> (y, x) commutes with every S_c, so P M permutes the
    spread exactly when M does; P M carries D onto {(s^(2^j), s)} =
    {(s, s^(2^(hk - j)))} and sends T0 to the second block, so it is a
    swapped fit at hk - j.  Conversely P N is a standard fit for every
    swapped fit N.  So the swapped exponents are exactly {hk - j}, and no
    standard fit means no swapped one: the fit then fails.
    """
    tower = maps.tower
    spell = unvec_blocks(tower, 2)
    accepted = []
    for j, m in _fit_candidates(dirs, fmap, maps):
        if _preserves_spread(m, maps, spell):
            to_source = m.then(spell)
            sources = _canonical_image(to_source.apply, dirs, tower, j)
            if sources is not None:
                accepted.append((j, m, to_source, sources))
    if not accepted:
        raise SemilinearFitFailed("no exponent fits the secant bijection")
    found = {a[0] for a in accepted}
    j, m, to_source, sources = accepted[0]
    return SemilinearFit(
        exponent=j,
        exponents=frozenset(found | {tower.hk - e for e in found}),
        matrix=m,
        to_source=to_source,
        sources=sources,
    )


class SpreadResult(Record):
    spread: Spread
    matches_canonical: bool
    t0_index: int
    tinf_index: int
    fit: SemilinearFit  # the fit the spread was built from


def build_spread(
    fit: SemilinearFit, transversals: Transversals, maps: CorrespondenceMaps
) -> SpreadResult:
    """Rebuild the Desarguesian spread through the fitted pseudoregulus.

    The spread is Spread(tower, H_inf, fit.to_source), "M, then unvec each
    block" for M = fit.matrix: element idx is the reduction of the point
    that M^-1 of source idx of PG(1, q^k) spells, which is M^-1 of
    abb_spread's element idx, as M permutes the Desarguesian spread; so
    the element through p is the canonical one through M(p).  No element
    is row-reduced.  matches_canonical runs the fit's spread test
    (_preserves_spread) again on M, and plane_axioms_check re-verifies the
    spread, as a row lies in fibre idx only if M carries the element onto
    canonical element idx.  The transversals are returned as their indices
    among the elements, with no copy.
    """
    spread = Spread(maps.tower, maps.hinf, fit.to_source)
    try:
        t0_index = spread.elements.index(transversals.t0)
        tinf_index = spread.elements.index(transversals.t_inf)
    except ValueError:
        raise SpreadConstructionFailed("transversals are not spread elements") from None
    return SpreadResult(
        spread=spread,
        matches_canonical=_preserves_spread(fit.matrix, maps, unvec_blocks(maps.tower, 2)),
        t0_index=t0_index,
        tinf_index=tinf_index,
        fit=fit,
    )


def one_point_property(result: SpreadResult):
    """Each non-transversal element carries exactly one point of D.

    Returns (ok, detail dict with the hit histogram and a witness index).
    detail["hits"] counts the points of D on each element, for the plane
    stage (hyperoval_in_plane's dir_hits).  A point's element is its
    source's index, read from the fit's walk, so no point of D is mapped
    or normalized again.  The witness is a transversal carrying a point,
    else the least element hit more than once.
    """
    spread = result.spread
    hits = Counter(map(spread.index.source_index.__getitem__, result.fit.sources))
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
        "hits": hits,
    }
    return ok, detail
