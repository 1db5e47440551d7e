"""Secant structure, transversals, semilinear fit, spread reconstruction."""

import math
import random

import pytest

from hoval import pseudoregulus
from hoval.bruckbose import build_plane, plane_axioms_check
from hoval.errors import (
    EnumerationTooLarge,
    NotPseudoregulusCandidate,
    SingularMatrix,
    TransversalExtractionFailed,
)
from hoval.gf2 import LinearMap
from hoval.hyperoval import DirectionSet, HyperovalSpec, build_hyperoval, directions
from hoval.linearsets import cyclic_candidate, spectrum
from hoval.pipeline import run_verify_all
from hoval.pseudoregulus import (
    build_spread,
    extract_transversals,
    find_long_secants,
    fit_semilinear,
    one_point_property,
    transversal_map,
)
from hoval.reduction import ReductionIndex, unvec_blocks
from oracles import detect_pseudoregulus, matrix_columns, partition_index, s_prime


def _directions_for(h, k, i, strict=True):
    hov = build_hyperoval(HyperovalSpec(h, k, i, strict=strict))
    return hov, directions(hov.affine, hov.maps)


@pytest.fixture(scope="module")
def case321():
    return _directions_for(3, 2, 1)


@pytest.fixture(scope="module")
def report321(case321):
    hov, d = case321
    return detect_pseudoregulus(d, hov.maps)


def test_long_secant_structure_321(case321):
    hov, d = case321
    s = find_long_secants(d)
    assert s.count == 9
    assert len(s.zero_points) == 18
    assert len(s.d_on) == 63
    assert set(s.d_on.values()) == set(range(9))
    for a, b in s.zero_pairs:
        assert a not in d.points and b not in d.points
    # secants pairwise disjoint on all q+1 points
    seen = set()
    for line in s.secants:
        pts = set(d.space.line_points(*line))
        assert not (pts & seen)
        seen |= pts


def test_long_secants_from_spectrum_map(case321):
    # the pipeline hands the spectrum's pair map over instead of rescanning;
    # the structure is the same and the budget is still enforced
    hov, d = case321
    hist = spectrum(d, mode="pairs")
    assert hist.multiplicities is not None
    assert spectrum(d, mode="exhaustive").multiplicities is None
    assert find_long_secants(d, multiplicities=hist.multiplicities) == find_long_secants(d)
    with pytest.raises(EnumerationTooLarge):
        find_long_secants(d, budget=100, multiplicities=hist.multiplicities)


def test_transversals_321(case321):
    hov, d = case321
    s = find_long_secants(d)
    t = extract_transversals(s, d.space)
    assert len(t.t0) == 2 and len(t.t_inf) == 2
    assert len(set(t.side0)) == 9 and len(set(t.side_inf)) == 9
    assert set(d.space.subspace_points(t.t0)) == set(t.side0)
    assert set(d.space.subspace_points(t.t_inf)) == set(t.side_inf)
    assert not (set(t.side0) & d.points)
    fmap = transversal_map(t)
    assert sorted(fmap) == sorted(t.side0)
    assert sorted(fmap.values()) == sorted(t.side_inf)


def test_transversals_anchor_independent(case321):
    hov, d = case321
    s = find_long_secants(d)
    base = extract_transversals(s, d.space)
    expected = {base.t0, base.t_inf}
    for anchor in s.zero_points[1:6]:
        alt = extract_transversals(s, d.space, anchor=anchor)
        assert {alt.t0, alt.t_inf} == expected
    with pytest.raises(TransversalExtractionFailed):
        extract_transversals(s, d.space, anchor=d.ordered[0])


def test_fit_exponents_321(report321):
    fit = report321.fit
    assert fit.exponents == frozenset({1, 5})
    assert fit.exponent in (1, 5)
    assert len(fit.fits) == 2
    assert {lab for lab, _ in fit.fits} == {"standard", "swapped"}


def test_fit_image_is_canonical(case321, report321):
    hov, d = case321
    fit = report321.fit
    tower = hov.maps.tower
    space = d.space
    vec = tower.vec_packed
    big = tower.big
    shift = tower.k * tower.h
    canonical = {
        space.normalize(vec(u) | (vec(big.frob(u, fit.exponent)) << shift))
        for u in range(1, big.q)
    }
    image = {space.normalize(fit.matrix(p)) for p in d.ordered}
    assert image == canonical


@pytest.mark.parametrize(
    "h,k,i,expected",
    [
        (3, 2, 1, {1, 5}),
        (3, 2, 5, {1, 5}),
        (4, 2, 1, {1, 7}),
        (4, 2, 3, {3, 5}),
        (3, 3, 1, {1, 8}),
        (3, 3, 2, {2, 7}),
    ],
)
def test_exponent_pairs_all_cases(h, k, i, expected):
    hov, d = _directions_for(h, k, i)
    rep = detect_pseudoregulus(d, hov.maps)
    assert rep.fit.exponents == frozenset(expected)
    assert rep.spread_result.matches_canonical
    assert rep.one_point_ok


def test_spread_321(report321, case321):
    hov, d = case321
    res = report321.spread_result
    assert len(res.spread) == 65
    assert res.matches_canonical
    assert res.t0_index != res.tinf_index
    assert res.spread.elements[res.t0_index] == report321.transversals.t0
    ok, detail = one_point_property(res, d)
    assert ok
    assert detail["hit_once"] == 63
    assert detail["elements"] == 65
    assert detail["hit_other"] == []


@pytest.fixture(scope="module")
def spread_runs():
    return {
        hki: run_verify_all(*hki, stages=("spread",)).run
        for hki in ((3, 2, 1), (4, 2, 1), (2, 3, 1), (3, 3, 1))
    }


def _block_map(maps, fx, fy):
    """The LinearMap (x, y) -> (fx(x), fy(y)) for GF(q)-linear fx, fy."""
    tower = maps.tower
    hk_bits = tower.k * tower.h
    cols = [tower.vec_packed(fx(b)) for b in tower.basis]
    cols += [tower.vec_packed(fy(b)) << hk_bits for b in tower.basis]
    return LinearMap.from_columns(cols, maps.hinf)


def test_spread_elements_and_transversals_are_echelon_row_tuples(spread_runs):
    # a subspace is its ProjSpace.rref tuple, so equal subspaces compare equal
    for run in spread_runs.values():
        maps, space = run.hov.maps, run.dirs.space
        for spread in (maps.abb_spread, run.spread_result.spread):
            for el in spread.elements:
                assert space.rref(el) == el
        t = run.transversals
        assert space.rref(t.t0) == t.t0 and space.rref(t.t_inf) == t.t_inf


def test_secants_are_their_pair_line_keys(spread_runs):
    # a long secant is the pair_line_key of any two of its points of D
    for run in spread_runs.values():
        space = run.dirs.space
        on: dict = {}
        for p, idx in run.structure.d_on.items():
            on.setdefault(idx, []).append(p)
        assert len(on) == len(run.structure.secants)
        for idx, secant in enumerate(run.structure.secants):
            a, b = on[idx][:2]
            assert space.pair_line_key(a, b) == secant


def test_spread_is_a_partition_by_construction(spread_runs):
    # the spreads from field reduction visit no point; the enumerating
    # constructor, which refuses an overlap or a gap, is the oracle for
    # their element_of on every point of the space
    for run in spread_runs.values():
        maps = run.hov.maps
        big = maps.tower.big
        # the fits of these runs fix every element; a fit composed with
        # (x, y) -> (y, g x) moves them, so its element_of must apply it
        hk, mask = maps.tower.hk, (1 << maps.tower.hk) - 1
        swap = _block_map(maps, lambda x: big.mul(big.generator, x), lambda y: y)
        swap = swap.then(lambda v: v >> hk | (v & mask) << hk)
        moved = run.fit.replace(matrix=swap.then(run.fit.matrix))
        rebuilt = build_spread(moved, run.transversals, maps)
        assert rebuilt.matches_canonical
        spreads = (
            maps.abb_spread, run.spread_result.spread, rebuilt.spread, s_prime(maps)
        )
        for spread in spreads:
            assert isinstance(spread.index, ReductionIndex)
            oracle = partition_index(spread.elements, spread.space)
            assert len(spread.index) == len(oracle) == spread.space.npoints()
            for p, idx in oracle.items():
                assert spread.element_of(p) == idx
            # neither index holds the zero vector, a vector too wide or a
            # point not scaled to a leading 1
            off = [0, 1 << spread.space.bits]
            if spread.space.q > 2:
                off.append(2)
            for p in off:
                assert p not in spread.index and p not in oracle


def _preserves_spread_by_rref(m, maps, space):
    """The element-by-element check: rref every image, compare the sets."""
    keys = set(maps.abb_spread.elements)
    out = set()
    for el in maps.abb_spread.elements:
        out.add(space.rref([m(r) for r in el]))
        if not out <= keys:
            return False
    return out == keys


@pytest.mark.parametrize("hki", [(3, 2, 1), (3, 3, 1)])
def test_preserves_spread_matches_rref_on_fitted_matrices(monkeypatch, hki):
    seen = []
    real = pseudoregulus._preserves_spread

    def recorded(m, maps, spell):
        got = real(m, maps, spell)
        seen.append((got, _preserves_spread_by_rref(m, maps, maps.hinf)))
        return got

    monkeypatch.setattr(pseudoregulus, "_preserves_spread", recorded)
    hov, d = _directions_for(*hki)
    rep = detect_pseudoregulus(d, hov.maps)
    assert rep.spread_result.matches_canonical
    assert all(got == want for got, want in seen)
    # the spread check comes first, so it sees every exponent prime to hk
    # in both labelings and passes i and hk - i, one per labeling
    assert [got for got, _ in seen].count(True) == 2
    assert len(seen) == {6: 4, 9: 12}[hki[0] * hki[1]]


def _off_fit_matrices(maps, fit, seed):
    """The fit and five LinearMaps off it: name -> (map, permutes the spread)."""
    space = maps.hinf
    tower = maps.tower
    big = tower.big
    rng = random.Random(seed)
    width = space.width
    g = big.generator
    scale = _block_map(maps, lambda x: big.mul(g, x), lambda y: big.mul(g, y))
    # y -> y^(2^h) is GF(q)-linear and shifts the fit's apparent exponent
    # by h; it keeps D's shape but not the spread
    twist = _block_map(maps, lambda x: x, lambda y: big.frob(y, tower.h))
    fitted = fit.matrix
    while True:
        rand = [[rng.randrange(space.q) for _ in range(width)] for _ in range(width)]
        rand = LinearMap.from_columns(matrix_columns(rand, space), space)
        try:
            rand.inverse()
            break
        except SingularMatrix:
            continue
    # the last coordinate of the fit's image cleared
    last = ~(space.chunk_mask << (width - 1) * space.h)
    singular = fitted.then(lambda v: v & last)
    return {
        "fit": (fitted, True),
        "scale": (scale, True),
        "twist": (twist, False),
        "twisted fit": (fitted.then(twist), False),
        "random": (rand, False),
        "singular": (singular, False),
    }


def test_preserves_spread_matches_rref_off_the_fit(monkeypatch, report321, case321):
    # the conjugation test accepts the fit and the scale alone; every
    # refusal of an invertible matrix comes from the element-wise check
    fallback = []
    real = pseudoregulus._maps_elements_to_elements

    def counted(lmap, maps, spell):
        got = real(lmap, maps, spell)
        fallback.append(got)
        return got

    monkeypatch.setattr(pseudoregulus, "_maps_elements_to_elements", counted)
    hov331, d331 = _directions_for(3, 3, 1)
    runs = (
        (case321[0].maps, report321.fit, 5),
        (hov331.maps, detect_pseudoregulus(d331, hov331.maps).fit, 6),
    )
    for maps, fit, seed in runs:
        space = maps.hinf
        for name, (m, want) in _off_fit_matrices(maps, fit, seed).items():
            fallback.clear()
            got = pseudoregulus._preserves_spread(m, maps, unvec_blocks(maps.tower, 2))
            assert got is want, name
            if name in ("fit", "scale", "singular"):
                assert fallback == [], name
            else:
                assert fallback == [False], name
            assert _preserves_spread_by_rref(m, maps, space) is want, name


def _maps_elements_by_abb_spread(lmap, maps):
    """The element-by-element walk over the enumerated abb_spread: every
    element's row images must lie in one element."""
    spread = maps.abb_spread
    normalize = maps.hinf.normalize
    return all(
        len({spread.element_of(normalize(lmap(r))) for r in el}) == 1
        for el in spread.elements
    )


@pytest.mark.parametrize("hki", [(3, 3, 1), (4, 2, 1)])
def test_elements_made_on_demand_match_the_abb_spread_walk(hki):
    # each candidate of the fit, the identity and the accepted fits pass,
    # every other exponent fails
    hov, d = _directions_for(*hki)
    maps = hov.maps
    spell = unvec_blocks(maps.tower, 2)
    fmap = transversal_map(extract_transversals(find_long_secants(d), d.space))
    fits = fit_semilinear(d, fmap, maps).fits
    identity = LinearMap(1 << b for b in range(maps.hinf.bits))
    assert pseudoregulus._maps_elements_to_elements(identity, maps, spell)
    verdicts = []
    for label, j, m in pseudoregulus._fit_candidates(d, fmap, maps):
        got = pseudoregulus._maps_elements_to_elements(m, maps, spell)
        assert got is _maps_elements_by_abb_spread(m, maps) is ((label, j) in fits)
        verdicts.append(got)
    assert verdicts.count(True) == 2 and verdicts.count(False) >= 2


def _spread_by_rref(fit, maps):
    """The rebuilt elements by row reduction: each canonical element's rows,
    rref'd, taken back through fit.matrix.inverse() and rref'd again, in the
    order of build_spread's sources."""
    tower, space = maps.tower, maps.hinf
    vec, big, hk = tower.vec_packed, tower.big, tower.hk
    canonical = []
    for u in range(1, big.q):
        fu = big.frob(u, fit.exponent)
        canonical.append(
            space.rref([vec(big.mul(b, u)) | vec(big.mul(b, fu)) << hk for b in tower.basis])
        )
    canonical.append(space.rref([vec(b) for b in tower.basis]))
    canonical.append(space.rref([vec(b) << hk for b in tower.basis]))
    inverse = fit.matrix.inverse()
    return canonical, [space.rref([inverse(r) for r in el]) for el in canonical]


@pytest.mark.parametrize(
    "hki", [(3, 2, 1), (4, 2, 1), (4, 2, 3), (3, 3, 1), (3, 3, 2), (2, 3, 1)]
)
def test_rebuilt_spread_matches_the_rref_oracle(hki):
    # the elements written from their sources are, in order, the rref'd
    # M^-1 images of the canonical elements, and those are abb_spread's.
    # The fitted M fixes every element; composed with x -> g x on the first
    # block, of order q^k - 1 on the elements, it moves them
    run = run_verify_all(*hki, stages=("spread",)).run
    maps = run.hov.maps
    big = maps.tower.big
    scale = _block_map(maps, lambda x: big.mul(big.generator, x), lambda y: y)
    moved = run.fit.replace(matrix=scale.then(run.fit.matrix))
    for fit, res in (
        (run.fit, run.spread_result),
        (moved, build_spread(moved, run.transversals, maps)),
    ):
        canonical, taken_back = _spread_by_rref(fit, maps)
        assert list(res.spread.elements) == taken_back
        assert set(canonical) == set(taken_back) == set(maps.abb_spread.elements)
        assert res.matches_canonical
        # the element-by-element path, which the conjugation test spares
        # these fits, gives the same verdict
        spell = unvec_blocks(maps.tower, 2)
        assert pseudoregulus._maps_elements_to_elements(fit.matrix, maps, spell)


def test_spread_through_a_wrong_matrix_fails_the_plane_certificate(report321, case321):
    # twisting the fit's second block by y -> y^(2^h) keeps both transversals
    # but not the spread: the elements written from the detected sources no
    # longer lie in their fibres
    hov, _ = case321
    maps, fit = hov.maps, report321.fit
    twisted = _off_fit_matrices(maps, fit, 5)["twisted fit"][0]
    res = build_spread(fit.replace(matrix=twisted), report321.transversals, maps)
    assert not res.matches_canonical
    axioms = plane_axioms_check(build_plane(maps, res.spread))
    assert not axioms.ok and axioms.collisions > 0
    assert axioms.witness[0] == "element row in another fibre"


def _canonical_set_oracle(maps, j):
    """The old image target: every <(u, u^(2^j))>, normalized."""
    tower, space = maps.tower, maps.hinf
    vec, big = tower.vec_packed, tower.big
    return frozenset(
        space.normalize(vec(u) | (vec(big.frob(u, j)) << tower.hk))
        for u in range(1, big.q)
    )


@pytest.mark.parametrize("hki", [(3, 2, 1), (3, 3, 1)])
def test_point_by_point_image_test_matches_the_canonical_set(hki):
    hov, d = _directions_for(*hki)
    maps, space = hov.maps, d.space
    transversals = extract_transversals(find_long_secants(d), space)
    fmap = transversal_map(transversals)
    verdicts = []
    spell = unvec_blocks(maps.tower, 2)
    for label, j, m in pseudoregulus._fit_candidates(d, fmap, maps):
        to_field = m.then(spell)
        image = {space.normalize(m(p)) for p in d.ordered}
        want = image == _canonical_set_oracle(maps, j)
        assert pseudoregulus._canonical_image(to_field, d, maps.tower, j) is want
        verdicts.append(want)
    # every exponent prime to hk, under both labelings; (3,3,1) also has
    # the exponents shifted by h = 3 fit D's shape
    hk = hki[0] * hki[1]
    assert len(verdicts) == 2 * sum(1 for j in range(1, hk) if math.gcd(j, hk) == 1)
    assert verdicts.count(True) == {6: 2, 9: 6}[hk]
    # a set one point short, with a point outside the canonical set, or
    # carried onto one point
    j = detect_pseudoregulus(d, maps).fit.exponent
    to_field = next(
        m.then(spell) for label, jj, m in pseudoregulus._fit_candidates(d, fmap, maps)
        if label == "standard" and jj == j
    )
    assert pseudoregulus._canonical_image(to_field, d, maps.tower, j)
    short = DirectionSet(d.ordered[1:], space)
    assert not pseudoregulus._canonical_image(to_field, short, maps.tower, j)
    outside = next(p for p in map(space.normalize, range(1, 64)) if p not in d.points)
    moved = DirectionSet(d.ordered[1:] + (outside,), space)
    assert not pseudoregulus._canonical_image(to_field, moved, maps.tower, j)
    # every image canonical but one point: <(1, 1)>, u = 1 each time
    def constant(p):
        return 1 | (1 << maps.tower.hk)

    assert not pseudoregulus._canonical_image(constant, d, maps.tower, j)


def test_secant_count_mismatch_rejected(case321):
    hov, d = case321
    smaller = DirectionSet(d.ordered[:-7], d.space)
    with pytest.raises(NotPseudoregulusCandidate):
        find_long_secants(smaller)


def test_damaged_direction_set_rejected(case321):
    # swap one direction point for some other H_inf point: |D| still 63 but
    # the secant cover breaks
    hov, d = case321
    space = d.space
    outside = next(p for p in space.points() if p not in d.points)
    damaged = DirectionSet(d.ordered[1:] + (outside,), space)
    with pytest.raises(NotPseudoregulusCandidate):
        find_long_secants(damaged)


def test_control_case_rejected_early():
    hov, d = _directions_for(4, 2, 2, strict=False)
    # 85 is not a multiple of q - 1 = 15
    with pytest.raises(NotPseudoregulusCandidate):
        find_long_secants(d)


def test_fit_standard_labeling_preferred(report321):
    assert report321.fit.labeling == "standard"


def test_detect_full_chain_331():
    hov, d = _directions_for(3, 3, 1)
    rep = detect_pseudoregulus(d, hov.maps)
    assert rep.structure.count == 73
    assert len(rep.transversals.t0) == 3
    assert len(rep.spread_result.spread) == 513
    assert rep.one_point_detail["hit_once"] == 511


# -- long secants from the verified cyclic group ---------------------------------

def _symmetry_of(hov, d):
    hist = spectrum(d, candidate=cyclic_candidate(hov.maps, hov.spec.i))
    assert hist.path == "cyclic-group"
    return hist.symmetry


def test_long_secants_from_the_group_321(case321):
    hov, d = case321
    sym = _symmetry_of(hov, d)
    assert find_long_secants(d, symmetry=sym) == find_long_secants(d)
    # the group path is charged its |D| - 1 line keys, not the C(|D|, 2) pairs
    assert find_long_secants(d, budget=len(d) - 1, symmetry=sym) == find_long_secants(d)
    with pytest.raises(EnumerationTooLarge):
        find_long_secants(d, budget=len(d) - 2, symmetry=sym)


@pytest.mark.parametrize("k", [2, 3])
def test_h2_needs_the_verified_group(k):
    # at q = 4 the pair counts of long secants and 3-secants coincide
    hov, d = _directions_for(2, k, 1)
    m = (4 ** k - 1) // 3
    with pytest.raises(NotPseudoregulusCandidate, match="q = 4"):
        find_long_secants(d)
    with pytest.raises(NotPseudoregulusCandidate, match="q = 4"):
        find_long_secants(d, multiplicities=spectrum(d).multiplicities)
    s = find_long_secants(d, symmetry=_symmetry_of(hov, d))
    assert s.count == len(s.secants) == m and len(s.d_on) == len(d)
    t = extract_transversals(s, d.space)
    fit = fit_semilinear(d, transversal_map(t), hov.maps)
    assert fit.exponents == frozenset({1, 2 * k - 1})


@pytest.mark.parametrize("hki", [(2, 3, 1), (2, 5, 1)])
def test_h2_passes_the_one_chain_the_package_runs(hki):
    # run_verify_all hands the spectrum's verified group to the secant
    # search; the oracle chain scans pairs, so at q = 4 it refuses
    rep = run_verify_all(*hki)
    h, k, i = hki
    assert rep.verdict == "pass"
    assert rep.stage("pseudoregulus").data["exponents"] == [i, h * k - i]
    with pytest.raises(NotPseudoregulusCandidate, match="q = 4"):
        detect_pseudoregulus(rep.run.dirs, rep.run.hov.maps)


def test_symmetry_of_another_set_is_not_read(case321):
    hov, d = case321
    sym = _symmetry_of(hov, d)
    damaged = DirectionSet(d.ordered[1:] + (next(
        p for p in d.space.points() if p not in d.points),), d.space)
    with pytest.raises(NotPseudoregulusCandidate) as want:
        find_long_secants(damaged)
    with pytest.raises(NotPseudoregulusCandidate) as got:
        find_long_secants(damaged, symmetry=sym)
    assert str(got.value) == str(want.value)


def test_orbit_that_is_no_group_orbit_is_refused(case321):
    # the orbit list is scrambled: the line through orbit[0] and orbit[m]
    # is then a 3-secant, not a long secant
    hov, d = case321
    sym = _symmetry_of(hov, d)
    rest = list(sym.orbit[1:])
    random.Random(5).shuffle(rest)
    scrambled = sym.replace(orbit=sym.orbit[:1] + tuple(rest))
    with pytest.raises(NotPseudoregulusCandidate, match="no orbit of 9 lines"):
        find_long_secants(d, symmetry=scrambled)
    # a wrong secant count from the group is the pair scan's error
    fewer = sym.replace(lines={**sym.lines, 7: 8})
    with pytest.raises(NotPseudoregulusCandidate, match="found 8 long secants, expected 9"):
        find_long_secants(d, symmetry=fewer)
