"""Secant structure, transversals, semilinear fit, spread reconstruction."""

import dataclasses
import random

import pytest

from hoval.errors import (
    EnumerationTooLarge,
    NotPseudoregulusCandidate,
    TransversalExtractionFailed,
)
from hoval.hyperoval import DirectionSet, HyperovalSpec, build_hyperoval, directions
from hoval.linearsets import cyclic_candidate, spectrum
from hoval.projective import mat_vec_packed
from hoval.pseudoregulus import (
    build_spread,
    detect_pseudoregulus,
    extract_transversals,
    find_long_secants,
    fit_semilinear,
    one_point_property,
    transversal_map,
)


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


def test_spread_is_a_partition_by_construction(report321):
    # Spread.__init__ would have raised otherwise; double-check the size
    spread = report321.spread_result.spread
    assert len(spread.index) == spread.space.npoints() == 585


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
    with pytest.raises(EnumerationTooLarge):
        find_long_secants(d, budget=100, symmetry=sym)


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
