"""Spectrum histograms against frozen counts, mode cross-checks, F2 structure."""

import math
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoval import linearsets
from hoval.cplanes import build_c_planes, check_axioms
from hoval.errors import EnumerationTooLarge, NotF2Linear
from hoval.gf2 import f2_echelon, field_create
from hoval.hyperoval import (
    AffinePointSet,
    DirectionSet,
    HyperovalSpec,
    build_hyperoval,
    directions,
    translation_basis,
    translation_closure_check,
)
from hoval.linearsets import (
    cyclic_candidate,
    cyclic_symmetry,
    f2_witness,
    scattered_check,
    spectrum,
    spectrum_conforms,
)
from hoval.projective import ProjSpace
from hoval.pseudoregulus import find_long_secants
from oracles import (
    apply_columns, k_points, line_scan_counts, s_prime, scattered_by_elements,
)


@pytest.fixture(scope="module")
def case321():
    hov = build_hyperoval(HyperovalSpec(3, 2, 1))
    return hov, directions(hov.affine, hov.maps)


@pytest.fixture(scope="module")
def case421():
    hov = build_hyperoval(HyperovalSpec(4, 2, 1))
    return hov, directions(hov.affine, hov.maps)


# frozen histograms; the two k=2 cases were recomputed here by both modes
SPEC_321 = {0: 1376, 1: 2772, 3: 588, 7: 9}
SPEC_421 = {0: 21184, 1: 38760, 3: 10200, 15: 17}
SPEC_331 = {0: 17171936, 1: 2262708, 3: 42924, 7: 73}


def test_spectrum_321_pairs(case321):
    _, d = case321
    hist = spectrum(d, mode="pairs")
    assert hist.counts == SPEC_321
    assert hist.nlines == 4745
    ok, off = spectrum_conforms(hist, 8)
    assert ok and off is None


def test_spectrum_321_exhaustive_matches(case321):
    _, d = case321
    assert spectrum(d, mode="exhaustive").counts == SPEC_321


def test_spectrum_421_both_modes(case421):
    _, d = case421
    pairs = spectrum(d, mode="pairs")
    assert pairs.counts == SPEC_421
    assert spectrum(d, mode="exhaustive").counts == SPEC_421
    ok, _ = spectrum_conforms(pairs, 16)
    assert ok


def test_spectrum_331_pairs():
    hov = build_hyperoval(HyperovalSpec(3, 3, 1))
    d = directions(hov.affine, hov.maps)
    hist = spectrum(d, mode="pairs")
    assert hist.counts == SPEC_331
    assert hist.nlines == 19477641
    ok, _ = spectrum_conforms(hist, 8)
    assert ok


def test_spectrum_identities(case321):
    _, d = case321
    hist = spectrum(d, mode="pairs")
    counts = hist.counts
    assert sum(counts.values()) == 4745
    assert sum(j * c for j, c in counts.items()) == 63 * 73
    assert sum(j * (j - 1) // 2 * c for j, c in counts.items()) == 63 * 62 // 2


def test_control_case_fails_conformance():
    hov = build_hyperoval(HyperovalSpec(4, 2, 2, strict=False))
    d = directions(hov.affine, hov.maps)
    assert len(d) == 85
    hist = spectrum(d, mode="pairs")
    ok, offender = spectrum_conforms(hist, 16)
    assert not ok
    assert offender not in (0, 1, 3, 15)
    # identities still hold for the malformed set
    assert sum(j * c for j, c in hist.counts.items()) == 85 * 273


def test_h2_smoke_support():
    # q = 4 collapses q-1 onto 3; the support degenerates to {0, 1, 3}
    hov = build_hyperoval(HyperovalSpec(2, 2, 1))
    d = directions(hov.affine, hov.maps)
    hist = spectrum(d, mode="exhaustive")
    assert set(hist.support) <= {0, 1, 3}
    ok, _ = spectrum_conforms(hist, 4)
    assert ok


class _RealPool(ProcessPoolExecutor):
    """A real process pool that records the size it was asked for."""

    sizes: list = []

    def __init__(self, max_workers, **kwargs):
        self.sizes.append(max_workers)
        super().__init__(max_workers, **kwargs)


def test_parallel_matches_serial(case321, monkeypatch):
    # the tally runs in a real pool of two workers, even on a one-CPU host
    _, d = case321
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RealPool)
    monkeypatch.setattr(linearsets.os, "cpu_count", lambda: 2)
    _RealPool.sizes = []
    assert spectrum(d, mode="pairs", processes=2).counts == SPEC_321
    assert spectrum(d, mode="exhaustive", processes=2).counts == SPEC_321
    assert _RealPool.sizes == [2]


class _FakePool:
    """Records the pool size it was asked for and maps in this process."""

    sizes: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("cpus, requested, pool", [
    (2, 4000, 2), (8, 3, 3), (None, 4000, None), (1, 2, None), (4, 1, None),
])
def test_line_scan_pool_is_capped_at_the_cpu_count(case321, monkeypatch,
                                                   cpus, requested, pool):
    # the pool gets min(processes, cpu_count) workers, and a pool of one is
    # the serial scan; pairs mode never starts one
    _, d = case321
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(linearsets.os, "cpu_count", lambda: cpus)
    _FakePool.sizes = []
    assert spectrum(d, mode="exhaustive", processes=requested).counts == SPEC_321
    assert spectrum(d, mode="pairs", processes=requested).counts == SPEC_321
    assert _FakePool.sizes == ([] if pool is None else [pool])


def test_budget_guards(case321):
    _, d = case321
    with pytest.raises(EnumerationTooLarge):
        spectrum(d, mode="pairs", budget=100)
    with pytest.raises(EnumerationTooLarge):
        spectrum(d, mode="exhaustive", budget=100)


_SPACES = (ProjSpace(3, field_create(2)), ProjSpace(2, field_create(3)))
_POINTS = {space: tuple(space.points()) for space in _SPACES}


@st.composite
def _point_sets(draw):
    """(space, points) in PG(3,4) or PG(2,8): a random set, one that holds
    the last point (the one of pivot n), or one with a pivot class emptied."""
    space = draw(st.sampled_from(_SPACES))
    pts = draw(st.sets(st.sampled_from(_POINTS[space]), min_size=1, max_size=12))
    last = 1 << (space.n * space.h)
    shape = draw(st.sampled_from(["random", "last point", "empty class"]))
    if shape == "last point":
        pts.add(last)
    elif shape == "empty class":
        pivot = draw(st.integers(0, space.n - 1))
        pts = {d for d in pts if space.pivot(d) != pivot} or {last}
    return space, frozenset(pts)


@settings(max_examples=40, deadline=None)
@given(_point_sets())
@example((_SPACES[0], frozenset({1 << 6, 1 | 1 << 6, 1 << 4})))
@example((_SPACES[1], frozenset({1 << 6, 1 << 3 | 5 << 6, 1 << 3 | 7 << 6})))
@example((_SPACES[1], frozenset(p for p in _POINTS[_SPACES[1]] if p & 7 == 0)))
def test_pairs_equals_exhaustive_on_random_sets(case):
    # the tally, the line-by-line scan and the derivation from pair
    # multiplicities must agree on arbitrary point sets, not just hyperoval
    # direction sets; the examples hold the last point and leave the
    # pivot-0 class empty
    space, pts = case
    d = DirectionSet(pts, space)
    a = spectrum(d, mode="pairs")
    b = spectrum(d, mode="exhaustive")
    assert a.counts == b.counts == line_scan_counts(pts, space)
    assert all(type(j) is int and c > 0 for j, c in b.counts.items())


def test_exhaustive_spectrum_builds_no_scalar_tables(case321, monkeypatch):
    # the tally packs its columns from Field.mul and multiplies no vector;
    # nothing asks for every scalar's byte tables up front, in this process
    # or in the pool's workers
    calls = []
    real = ProjSpace.ensure_tables

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(ProjSpace, "ensure_tables", counted)
    _, d = case321
    fresh = ProjSpace(d.space.n, d.space.field, tables=True)
    assert spectrum(DirectionSet(d.ordered, fresh), mode="exhaustive").counts == SPEC_321
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(linearsets.os, "cpu_count", lambda: 2)
    _FakePool.sizes = []
    assert spectrum(d, mode="exhaustive", processes=2).counts == SPEC_321
    assert _FakePool.sizes == [2]
    assert linearsets._W["space"].table_backed  # the worker's H_inf too
    assert not calls


# -- the line tally's packed columns, in each slot width ------------------------

def _lines_through_pencils(space, r1s, seed):
    """Points of PG(n, q): three on a line through each r1, the first r1
    itself, random points of pivot 0, and one of pivot 2 or the last."""
    rng = random.Random(seed)
    h, mask = space.h, space.chunk_mask
    pts = {r1s[0]}
    for r1 in r1s:
        r0 = 1 | rng.randrange(space.q ** (space.n - 1)) << 2 * h
        for lam in rng.sample(range(space.q), 3):
            pts.add(r0 ^ space.smul(lam, r1))
    for _ in range(6):
        pts.add(1 | rng.randrange(1, 1 << space.bits - h) << h)
    pts.add(1 << 2 * h | rng.randrange(mask + 1) << 3 * h & (1 << space.bits) - 1)
    return frozenset(pts)


def _pencils_by_line_keys(space, pts, task):
    """One tally task's line counts, each point of pivot p0 named by the
    pair_line_key of its line with r1."""
    p0, _, pencil, base, free = task
    counts: Counter = Counter()
    for r1 in space.completions(base, free):
        hit = int(r1 in pts)
        bins = Counter(space.pair_line_key(d, r1) for d in pts
                       if space.pivot(d) == p0)
        for size in bins.values():
            counts[hit + size] += 1
        if pencil > len(bins):
            counts[hit] += pencil - len(bins)
    return counts


@pytest.mark.parametrize("h, n, code", [
    (4, 3, "B"), (9, 2, "H"), (11, 2, "H"), (9, 3, "I"), (17, 3, "Q"),
])
def test_tally_task_in_each_slot_width(h, n, code):
    # a key of pattern (0, 1) is (n - 1) h bits: 8, 9, 11, 18 and 34 here.
    # The task fixes every second-row coordinate but the last below 2^17
    # and all of them at 2^17; pencils hold bins of 3 and a second row in
    # the set
    space = ProjSpace(n, field_create(h))
    free = (n * h,) if h < 17 else ()
    base = 1 << h
    for f in range(2 * h, space.bits, h):
        if f not in free:
            base |= 5 << f
    r1s = list(space.completions(base, free))[:3]
    pts = _lines_through_pencils(space, r1s, h)
    classes = linearsets._pivot_classes(pts, space)
    assert linearsets._pattern_columns(space, classes[0], 0, 1)[0] == code
    task = (0, 1, space.q ** (n - 1), base, free)
    got = linearsets._tally_pattern(space, pts, classes, {}, task)
    want = _pencils_by_line_keys(space, pts, task)
    assert got == want and max(want) >= 4  # r1 in D on a bin of 3


def test_tally_refuses_keys_past_64_bits():
    # PG(5, 2^17) keys of pattern (0, 1) need 68 bits: no native slot
    space = ProjSpace(5, field_create(17))
    with pytest.raises(ValueError, match="64 bits"):
        linearsets._pattern_columns(space, [1], 0, 1)
    assert linearsets._pattern_columns(space, [1], 1, 2)[0] == "Q"  # 51 bits


@pytest.mark.parametrize("h, empty", [(6, None), (11, None), (11, 0), (11, 1)])
def test_wide_tally_matches_pairs(h, empty):
    # PG(2, 2^6) keys fit one byte, PG(2, 2^11) keys two; a pivot class
    # emptied leaves its patterns' columns empty
    space = ProjSpace(2, field_create(h))
    base = 1 << h
    pts = _lines_through_pencils(space, [base | v << 2 * h for v in (0, 1, 7)], h)
    if empty is not None:
        pts = frozenset(d for d in pts if space.pivot(d) != empty)
    d = DirectionSet(pts, space)
    assert spectrum(d, mode="exhaustive").counts == spectrum(d, mode="pairs").counts


def test_worker_builds_each_pattern_columns_once(case421, monkeypatch):
    # the pool's worker keeps one column cache for all its tasks: six
    # patterns, built once each, for the 51 tasks of PG(3, 16)
    built = []
    real = linearsets._pattern_columns

    def counted(space, pts, p0, p1):
        built.append((p0, p1))
        return real(space, pts, p0, p1)

    monkeypatch.setattr(linearsets, "_pattern_columns", counted)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(linearsets.os, "cpu_count", lambda: 2)
    _, d = case421
    _FakePool.sizes = []
    assert spectrum(d, mode="exhaustive", processes=2).counts == SPEC_421
    assert _FakePool.sizes == [2]
    patterns = [(p0, p1) for p0, p1, _, _ in d.space.line_chunks()]
    assert len(linearsets._tally_tasks(d.space)) == 51
    assert sorted(built) == sorted(linearsets._W["columns"]) == sorted(patterns)
    built.clear()
    assert spectrum(d, mode="exhaustive").counts == SPEC_421  # serial
    assert sorted(built) == sorted(patterns)


def test_f2_witness_321(case321):
    hov, d = case321
    w = f2_witness(hov.affine, d, hov.maps)
    assert w.rank == 6
    assert 2 ** w.rank == 64
    assert w.rows == translation_basis(hov.affine)
    points = k_points(hov.affine)
    assert len(points) == 63
    span = {0}
    for r in w.rows:
        span |= {s ^ r for s in span}
    assert set(points) == span - {0}
    assert w.base == min(hov.maps.bc_affine(p) for p in hov.affine)
    rep = scattered_by_elements(hov.affine, w, s_prime(hov.maps))
    assert rep.scattered and rep.is_maximum
    assert rep.rank == rep.max_rank == 6
    assert rep.max_meet == 1
    assert rep.meet_histogram == {0: 522, 1: 63}


def test_f2_witness_rejects_damaged_set(case321):
    hov, d = case321
    pts = list(hov.affine.ordered)
    h = hov.maps.tower.h
    outside = next(
        1 | (v << h)
        for v in range(1, 1 << 12)
        if (1 | (v << h)) not in hov.affine.points
    )
    damaged = AffinePointSet(pts[1:] + [outside], hov.maps.ambient)
    with pytest.raises(NotF2Linear) as exc:
        f2_witness(damaged, directions(damaged, hov.maps), hov.maps)
    # the vector of translation_closure_check's witness, with no span listed
    assert str(exc.value) == (
        "difference set of size 64 spans 128 vectors; "
        "0xc7 is in the span but not the set"
    )
    _, _, c0, v = translation_closure_check(damaged)[1]
    diffs = {(p ^ c0) >> h for p in damaged.ordered}
    span = {0}
    for r in f2_echelon(diffs):
        span |= {s ^ r for s in span}
    assert (v ^ c0) >> h == 0xC7 and 0xC7 in span - diffs and len(span) == 128


def test_f2_witness_rejects_wrong_directions(case321):
    hov, d = case321
    from hoval.hyperoval import DirectionSet

    wrong = DirectionSet(list(d.ordered[:-1]), d.space)
    with pytest.raises(NotF2Linear) as exc:
        f2_witness(hov.affine, wrong, hov.maps)
    assert str(exc.value) == (
        "projection of the rank-6 span differs from the direction set near 0xff1"
    )


def test_control_is_linear_but_not_scattered():
    # x -> x^4 over GF(256) is still additive, so K exists with full rank,
    # but scalar fibers of size 3 pile onto single spread elements
    hov = build_hyperoval(HyperovalSpec(4, 2, 2, strict=False))
    d = directions(hov.affine, hov.maps)
    w = f2_witness(hov.affine, d, hov.maps)
    assert w.rank == 8
    rep = scattered_by_elements(hov.affine, w, s_prime(hov.maps))
    assert not rep.scattered
    assert rep.max_meet == 3
    assert rep.meet_histogram == {0: 4284, 3: 85}
    assert not rep.is_maximum


def test_scattered_421(case421):
    hov, d = case421
    w = f2_witness(hov.affine, d, hov.maps)
    rep = scattered_by_elements(hov.affine, w, s_prime(hov.maps))
    assert rep.scattered and rep.is_maximum and rep.rank == 8
    assert rep.meet_histogram == {0: 4369 - 255, 1: 255}


@pytest.mark.parametrize("h,k,i,strict", [
    (3, 2, 1, True), (4, 2, 1, True), (4, 2, 3, True), (2, 3, 1, True),
    (4, 2, 2, False),
])
def test_fibre_scatteredness_matches_s_prime(h, k, i, strict):
    # the normalize fibres of H_inf are the elements of s_prime, so counting
    # normalize over K must give the report the built spread gives
    hov = build_hyperoval(HyperovalSpec(h, k, i, strict=strict))
    maps = hov.maps
    w = f2_witness(hov.affine, directions(hov.affine, maps), maps)
    fibres = scattered_check(w, maps.hinf)
    spread = scattered_by_elements(hov.affine, w, s_prime(maps))
    same = ("scattered", "rank", "max_rank", "is_maximum", "max_meet", "meet_histogram")
    assert {f: getattr(fibres, f) for f in same} == {f: getattr(spread, f) for f in same}
    assert fibres.max_rank == h * k
    if fibres.scattered:
        assert fibres.offending_element is spread.offending_element is None
    else:
        # the fibre offender is an H_inf point whose s_prime element is over-met
        over = fibres.offending_element
        assert maps.hinf.normalize(over) == over
        points = k_points(hov.affine)
        idx = {s_prime(maps).element_of(p) for p in points
               if maps.hinf.normalize(p) == over}
        assert len(idx) == 1
        assert sum(s_prime(maps).element_of(p) in idx for p in points) > 1


# -- the cyclic-group path ------------------------------------------------------

def _cyclic_case(h, k, i, strict=True):
    hov = build_hyperoval(HyperovalSpec(h, k, i, strict=strict))
    d = directions(hov.affine, hov.maps)
    return hov, d, cyclic_candidate(hov.maps, i)


def _swapped(d):
    """D with its largest point swapped for the smallest point off D."""
    outside = next(p for p in d.space.points() if p not in d.points)
    return DirectionSet(d.ordered[:-1] + (outside,), d.space)


@pytest.mark.parametrize("hki", [
    (3, 2, 1), (4, 2, 3), (2, 3, 1), (1, 3, 1),
    # gcd(i, hk) > 1: the non-examples, on which <M> is still transitive
    (4, 2, 2), (3, 2, 2), (2, 3, 3),
])
def test_cyclic_group_spectrum_equals_pair_scan(hki):
    hov, d, cand = _cyclic_case(*hki, strict=False)
    fast = spectrum(d, candidate=cand)
    scan = spectrum(d)
    assert fast.path == "cyclic-group" and scan.path == "pair-scan"
    assert fast == scan and fast.counts == scan.counts
    assert fast.multiplicities is None and fast.dirs is d and fast.npoints == len(d)
    sym = fast.symmetry
    assert sym.orbit[0] == d.ordered[0] and set(sym.orbit) == d.points
    assert len(sym.orbit) == len(d)
    assert sym.lines == {j: c for j, c in scan.counts.items() if j >= 2}


@pytest.mark.parametrize("which", ["swapped", "wrong exponent", "exhaustive"])
def test_unverified_or_exhaustive_spectrum_takes_its_scan(which, case321):
    hov, d = case321
    cand = cyclic_candidate(hov.maps, 1)
    if which == "swapped":
        d = _swapped(d)
    elif which == "wrong exponent":
        cand = cyclic_candidate(hov.maps, 2)
    mode = "exhaustive" if which == "exhaustive" else "pairs"
    hist = spectrum(d, mode=mode, candidate=cand)
    assert hist.path == ("line-scan" if mode == "exhaustive" else "pair-scan")
    if which == "exhaustive":
        # the tally still counts; the group it verified is only handed on
        assert hist.symmetry is not None and hist.dirs is d
        assert hist.symmetry.lines == {j: c for j, c in SPEC_321.items() if j >= 2}
    else:
        assert hist.symmetry is None
    assert hist.counts == spectrum(d, mode=mode).counts
    if which != "swapped":
        assert hist.counts == SPEC_321


def test_cyclic_symmetry_refuses_non_collineations():
    # each map fixes the point (1, 0, 0, 0), a one-point orbit, so only the
    # rank and GF(q)-linearity checks can refuse it
    space = build_hyperoval(HyperovalSpec(3, 2, 1)).maps.hinf
    d = DirectionSet([1], space)
    identity = tuple(1 << b for b in range(space.bits))
    assert cyclic_symmetry(d, identity) is not None
    # the projection onto coordinate 0: GF(q)-linear, singular
    projection = tuple(1 << b if b < space.h else 0 for b in range(space.bits))
    # squaring every coordinate: a GF(2)-linear bijection, not GF(q)-linear
    f = space.field
    square = tuple(
        f.mul(c, c) << (b // space.h * space.h)
        for b in range(space.bits)
        for c in (1 << (b % space.h),)
    )
    assert cyclic_symmetry(d, projection) is None
    assert cyclic_symmetry(d, square) is None
    assert cyclic_symmetry(d, identity[:-1]) is None


def test_cyclic_symmetry_needs_a_transitive_orbit(case321):
    # M^3 keeps D but its orbits have 21 of the 63 points; its 63rd power
    # still returns to d0, so only the count of distinct points refuses it
    hov, d = case321
    m = cyclic_candidate(hov.maps, 1)
    cube = tuple(apply_columns(m, apply_columns(m, col)) for col in m)
    orbit = cyclic_symmetry(d, m).orbit
    assert cyclic_symmetry(d, cube) is None
    assert spectrum(d, candidate=cube).path == "pair-scan"
    # ten consecutive orbit points from their smallest: the walk stays in
    # the set and visits each once, but M does not carry the set onto itself
    s = next(s for s in range(63) if orbit[s] == min(orbit[s:s + 10]))
    segment = DirectionSet(orbit[s:s + 10], d.space)
    assert cyclic_symmetry(segment, m) is None


def test_cyclic_spectrum_obeys_the_pair_budget(case321):
    # the verified group computes |D| - 1 = 62 line keys, and is charged those
    hov, d = case321
    candidate = cyclic_candidate(hov.maps, 1)
    assert spectrum(d, budget=len(d) - 1, candidate=candidate).path == "cyclic-group"
    with pytest.raises(EnumerationTooLarge) as exc:
        spectrum(d, budget=len(d) - 2, candidate=candidate)
    assert exc.value.estimate == len(d) - 1


def test_hk15_spectrum_passes_under_the_default_budget():
    # the C(|D|, 2) = 536,821,761 pairs exceed the default budget; the
    # verified group computes |D| - 1 = 32,766 line keys
    hov = build_hyperoval(HyperovalSpec(5, 3, 1))
    d = directions(hov.affine, hov.maps)
    candidate = cyclic_candidate(hov.maps, 1)
    hist = spectrum(d, candidate=candidate)
    assert hist.path == "cyclic-group" and hist.multiplicities is None
    # one point of D swapped for another fails the group check, and the
    # pair scan it would fall back to is refused by name
    normalize = d.space.normalize
    outside = next(p for p in map(normalize, range(1, 1 << 12)) if p not in d.points)
    swapped = DirectionSet(d.ordered[1:] + (outside,), d.space)
    with pytest.raises(EnumerationTooLarge) as exc:
        spectrum(swapped, candidate=candidate)
    assert exc.value.estimate == math.comb(len(d), 2) == 536_821_761
    assert "secant pair scan" in str(exc.value)


def test_failed_group_is_charged_the_pair_scan(case321):
    # a candidate that fails verification falls back to the C(|D|, 2) scan,
    # which the budget refuses by name before it runs
    hov, d = case321
    m = cyclic_candidate(hov.maps, 1)
    cube = tuple(apply_columns(m, apply_columns(m, col)) for col in m)
    pairs = math.comb(len(d), 2)
    assert spectrum(d, budget=pairs, candidate=cube).path == "pair-scan"
    with pytest.raises(EnumerationTooLarge) as exc:
        spectrum(d, budget=pairs - 1, candidate=cube)
    assert exc.value.estimate == pairs
    assert "secant pair scan" in str(exc.value)


_STRICT = [
    (h, k, i)
    for h in (2, 3, 4)
    for k in (2, 3, 4)
    if h * k <= 9
    for i in range(1, h * k)
    if math.gcd(i, h * k) == 1
]


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(_STRICT))
def test_cyclic_group_equals_the_pair_scan_oracle(hki):
    # the spectrum, the long secants and A4 from the verified group equal
    # the pair scans
    h, k, i = hki
    hov, d, cand = _cyclic_case(h, k, i)
    fast = spectrum(d, candidate=cand)
    scan = spectrum(d)
    assert fast.path == "cyclic-group" and fast.counts == scan.counts
    q, m = 1 << h, len(d) // ((1 << h) - 1)
    grouped = find_long_secants(d, hist=fast)
    if h > 2:
        assert grouped == find_long_secants(d, hist=scan)
    else:
        # the oracle at q = 4: the 3-secants through d0 whose orbit under M,
        # walked line by line, has m members partitioning D
        assert list(grouped.secants) == _h2_orbit_oracle(d, cand, m)
    assert len(grouped.secants) == m
    family = build_c_planes(hov.affine, grouped, hov.maps)
    a4 = {}
    for name, hist in (("group", fast), ("scan", scan)):
        a4[name] = check_axioms(family, hov.maps, axioms=("A4",), hist=hist)["A4"]
    assert a4["group"] == a4["scan"] and a4["group"].ok
    assert (a4["group"].bins, a4["scan"].bins) == ("cyclic-group", "pair-scan")
    assert a4["group"].detail["family_planes"] == len(family) == q ** k * m // q


def _h2_orbit_oracle(d, columns, m):
    """Orbits of 3-secants through d0 under M, walked line by line, that
    have m members and partition D; exactly one is expected."""
    space = d.space
    key, normalize = space.pair_line_key, space.normalize

    def image(line):
        r0, r1 = (normalize(apply_columns(columns, r)) for r in line)
        return key(r0, r1)

    d0 = d.ordered[0]
    star = {key(d0, p) for p in d.ordered[1:]}
    found = set()
    for line in star:
        on = [p for p in space.line_points(*line) if p in d.points]
        if len(on) != 3:
            continue
        orbit = [line]
        while len(orbit) <= m and image(orbit[-1]) != line:
            orbit.append(image(orbit[-1]))
        covered = [p for ln in orbit for p in space.line_points(*ln) if p in d.points]
        if len(orbit) == m and sorted(covered) == list(d.ordered):
            found.add(tuple(sorted(orbit)))
    assert len(found) == 1, len(found)
    return list(found.pop())
