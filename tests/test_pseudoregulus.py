"""Secant structure, transversals, semilinear fit, spread reconstruction."""

import dataclasses
import random

import pytest

from hoval import pseudoregulus
from hoval.errors import (
    EnumerationTooLarge,
    NotPseudoregulusCandidate,
    SingularMatrix,
    TransversalExtractionFailed,
)
from hoval.hyperoval import DirectionSet, HyperovalSpec, build_hyperoval, directions
from hoval.linearsets import cyclic_candidate, spectrum
from hoval.pipeline import run_verify_all
from hoval.projective import mat_inv, mat_mul, mat_vec_packed
from hoval.pseudoregulus import (
    build_spread,
    detect_pseudoregulus,
    extract_transversals,
    find_long_secants,
    fit_semilinear,
    one_point_property,
    transversal_map,
)
from hoval.reduction import ReductionIndex, Spread


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
        pts = set(line.points())
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
    assert len(t.t0.rows) == 2 and len(t.t_inf.rows) == 2
    assert len(set(t.side0)) == 9 and len(set(t.side_inf)) == 9
    assert set(t.t0.points()) == set(t.side0)
    assert set(t.t_inf.points()) == set(t.side_inf)
    assert not (set(t.side0) & d.points)
    fmap = transversal_map(t)
    assert sorted(fmap) == sorted(t.side0)
    assert sorted(fmap.values()) == sorted(t.side_inf)


def test_transversals_anchor_independent(case321):
    hov, d = case321
    s = find_long_secants(d)
    base = extract_transversals(s, d.space)
    expected = {base.t0.rows, base.t_inf.rows}
    for anchor in s.zero_points[1:6]:
        alt = extract_transversals(s, d.space, anchor=anchor)
        assert {alt.t0.rows, alt.t_inf.rows} == expected
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
    image = {
        space.normalize(mat_vec_packed(list(fit.matrix), p, space)) for p in d.ordered
    }
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
    assert res.spread.elements[res.t0_index].rows == report321.transversals.t0.rows
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
    """The matrix of (x, y) -> (fx(x), fy(y)) for GF(q)-linear fx, fy."""
    tower = maps.tower
    hk_bits = tower.k * tower.h
    cols = [tower.vec_packed(fx(b)) for b in tower.basis]
    cols += [tower.vec_packed(fy(b)) << hk_bits for b in tower.basis]
    return pseudoregulus._columns_matrix(maps.hinf, cols)


def test_spread_is_a_partition_by_construction(spread_runs):
    # the spreads from field reduction visit no point; the enumerating
    # constructor, which refuses an overlap or a gap, is the oracle for
    # their element_of on every point of the space
    for run in spread_runs.values():
        maps = run.hov.maps
        big = maps.tower.big
        # the fits of these runs fix every element; a fit composed with
        # (x, y) -> (y, g x) moves them, so its element_of must apply it
        swap = _block_map(maps, lambda x: big.mul(big.generator, x), lambda y: y)
        swap = swap[len(swap) // 2:] + swap[:len(swap) // 2]
        moved = dataclasses.replace(
            run.fit, matrix=mat_mul(run.fit.matrix, swap, maps.hinf.field)
        )
        rebuilt = build_spread(moved, run.transversals, maps)
        assert rebuilt.matches_canonical
        spreads = (
            maps.abb_spread, run.spread_result.spread, rebuilt.spread, maps.s_prime
        )
        for spread in spreads:
            assert isinstance(spread.index, ReductionIndex)
            oracle = Spread(spread.elements, spread.space).index
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
    keys = maps.abb_spread.keys()
    out = set()
    for el in maps.abb_spread.elements:
        out.add(space.rref([mat_vec_packed(m, r, space) for r in el.rows]))
        if not out <= keys:
            return False
    return out == keys


@pytest.mark.parametrize("hki", [(3, 2, 1), (3, 3, 1)])
def test_preserves_spread_matches_rref_on_fitted_matrices(monkeypatch, hki):
    seen = []
    real = pseudoregulus._preserves_spread

    def recorded(m, maps, space):
        got = real(m, maps, space)
        seen.append((got, _preserves_spread_by_rref(m, maps, space)))
        return got

    monkeypatch.setattr(pseudoregulus, "_preserves_spread", recorded)
    hov, d = _directions_for(*hki)
    rep = detect_pseudoregulus(d, hov.maps)
    assert rep.spread_result.matches_canonical
    assert all(got == want for got, want in seen)
    # i and hk - i pass, one per labeling; at hk = 9 the exponents shifted
    # by h = 3 fit D's shape too and reach the check, which refuses them
    assert [got for got, _ in seen].count(True) == 2
    assert len(seen) == {6: 2, 9: 6}[hki[0] * hki[1]]


def test_preserves_spread_matches_rref_off_the_fit(report321, case321):
    hov, _ = case321
    maps = hov.maps
    space = maps.hinf
    tower = maps.tower
    big = tower.big
    rng = random.Random(5)
    width = space.width
    g = big.generator
    scale = _block_map(maps, lambda x: big.mul(g, x), lambda y: big.mul(g, y))
    # y -> y^(2^h) is GF(q)-linear and shifts the fit's apparent exponent
    # by h; it keeps D's shape but not the spread
    twist = _block_map(maps, lambda x: x, lambda y: big.frob(y, tower.h))
    fitted = [list(r) for r in report321.fit.matrix]
    while True:
        rand = [[rng.randrange(space.q) for _ in range(width)] for _ in range(width)]
        try:
            mat_inv(rand, space.field)
            break
        except SingularMatrix:
            continue
    singular = [list(r) for r in fitted]
    singular[-1] = [0] * width
    cases = {
        "fit": (fitted, True),
        "scale": (scale, True),
        "twist": (twist, False),
        "twisted fit": (mat_mul(twist, fitted, space.field), False),
        "random": (rand, False),
        "singular": (singular, False),
    }
    for name, (m, want) in cases.items():
        assert pseudoregulus._preserves_spread(m, maps, space) is want, name
        assert _preserves_spread_by_rref(m, maps, space) is want, name


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
    assert len(rep.transversals.t0.rows) == 3
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
    fit = fit_semilinear(d, t, transversal_map(t), hov.maps)
    assert fit.exponents == frozenset({1, 2 * k - 1})


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
    scrambled = dataclasses.replace(sym, orbit=sym.orbit[:1] + tuple(rest))
    with pytest.raises(NotPseudoregulusCandidate, match="no orbit of 9 lines"):
        find_long_secants(d, symmetry=scrambled)
    # a wrong secant count from the group is the pair scan's error
    fewer = dataclasses.replace(sym, lines={**sym.lines, 7: 8})
    with pytest.raises(NotPseudoregulusCandidate, match="found 8 long secants, expected 9"):
        find_long_secants(d, symmetry=fewer)
