"""Stage sequencing and report shape of the verification pipeline."""

import tracemalloc
from pathlib import Path

import pytest

from hoval import bruckbose, gf2, linearsets, pipeline, pseudoregulus, reduction, serialize
from hoval import hyperoval
from hoval.errors import NoLongSecants
from hoval.pipeline import STAGE_ORDER, run_verify_all
from hoval.projective import ProjSpace
from oracles import replace


@pytest.fixture(scope="module")
def full321():
    return run_verify_all(3, 2, 1)


def test_full_run_passes(full321):
    rep = full321
    assert rep.verdict == "pass"
    assert tuple(s.name for s in rep.stages) == STAGE_ORDER
    assert all(s.status == "ok" and s.ok for s in rep.stages)
    assert all(s.error is None for s in rep.stages)


def test_stage_payloads(full321):
    rep = full321
    c = rep.stage("construct")
    assert c.data["points"] == 66 and c.data["is_arc"] is True
    s = rep.stage("spectrum")
    assert s.data["directions"] == 63
    assert s.data["histogram"]["counts"] == {
        "0": 1376, "1": 2772, "3": 588, "7": 9
    }
    lin = rep.stage("linearity")
    assert lin.data["rank"] == 6 and lin.data["scattered"] is True
    ps = rep.stage("pseudoregulus")
    assert ps.data["exponents"] == [1, 5]
    assert ps.data["long_secants"] == 9
    sp = rep.stage("spread")
    assert sp.data["elements"] == 65 and sp.data["matches_canonical"] is True
    pl = rep.stage("plane")
    assert pl.data["order"] == 64 and pl.data["hyperoval_ok"] is True
    cp = rep.stage("cplanes")
    assert cp.data["planes"] == 72
    assert all(a["ok"] for a in cp.data["axioms"].values())
    assert "A4" in cp.data["axioms"]


def test_control_case_fails_at_spectrum():
    rep = run_verify_all(4, 2, 2, strict=False)
    assert rep.verdict == "fail"
    c = rep.stage("construct")
    assert c.ok, "construction itself succeeds for the non-coprime exponent"
    assert c.data["is_arc"] is False
    assert "collinear_witness" in c.data
    s = rep.stage("spectrum")
    assert s.status == "fail"
    assert s.data["directions"] == 85
    assert s.data["conforms"] is False
    # everything after the failing stage is skipped
    after = [st for st in rep.stages if st.name not in ("construct", "spectrum")]
    assert after and all(st.status == "skipped" for st in after)


def test_stage_subset_runs_prereqs_silently():
    rep = run_verify_all(3, 2, 1, stages=("spectrum",))
    assert [s.name for s in rep.stages] == ["spectrum"]
    assert rep.verdict == "pass"
    assert rep.stage("spectrum").data["directions"] == 63


def test_failing_prereq_is_surfaced():
    rep = run_verify_all(4, 2, 2, strict=False, stages=("linearity",))
    # spectrum fails silently but must land in the report anyway
    names = [s.name for s in rep.stages]
    assert "spectrum" in names
    assert rep.stage("spectrum").status == "fail"
    assert rep.stage("linearity").status == "skipped"
    assert rep.verdict == "fail"


def test_unknown_stage_rejected():
    with pytest.raises(ValueError):
        run_verify_all(3, 2, 1, stages=("nonsense",))


def test_json_dict_shape(full321):
    d = full321.to_json_dict()
    assert d["schema"] == 1
    assert d["kind"] == "verification_report"
    assert d["verdict"] == "pass"
    assert d["params"]["h"] == 3 and d["params"]["q"] == 8
    assert all("seconds" in s for s in d["stages"])
    bare = full321.to_json_dict(include_timings=False)
    assert all("seconds" not in s for s in bare["stages"])


def test_reports_are_deterministic():
    a = run_verify_all(3, 2, 1, stages=("construct", "spectrum"))
    b = run_verify_all(3, 2, 1, stages=("construct", "spectrum"))
    assert a.to_json_dict(include_timings=False) == b.to_json_dict(
        include_timings=False
    )


def test_one_pair_scan_per_run(monkeypatch):
    calls = []
    real = linearsets._pair_multiplicities

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(linearsets, "_pair_multiplicities", counted)
    rep = run_verify_all(3, 2, 1)
    assert rep.verdict == "pass"
    assert rep.stage("spectrum").data["path"] == "cyclic-group"
    assert len(calls) == 0
    # a candidate built from the wrong exponent fails its check on D: the
    # pairs are scanned once, and that histogram serves the long secants
    # and A4
    candidate = pipeline.cyclic_candidate
    monkeypatch.setattr(pipeline, "cyclic_candidate",
                        lambda maps, i: candidate(maps, i + 1))
    rep = run_verify_all(3, 2, 1)
    assert rep.verdict == "pass"
    assert rep.stage("spectrum").data["path"] == "pair-scan"
    assert rep.stage("cplanes").data["axioms"]["A4"]["detail"]["bins"] == "pair-scan"
    assert len(calls) == 1


def test_verify_all_enumerates_no_spread(monkeypatch):
    # abb_spread and the rebuilt spread come from field reduction and find
    # the element through a point by arithmetic; a fresh maps cache makes
    # the run build both
    def refuse(self, *args, **kwargs):
        raise AssertionError("the pipeline must not enumerate a spread's points")

    monkeypatch.setattr(reduction, "_MAPS_CACHE", {})
    monkeypatch.setattr(reduction.ReductionIndex, "__iter__", refuse)
    rep = run_verify_all(3, 3, 1)
    assert rep.verdict == "pass"
    assert rep.stage("spread").data["hit_once"] == 511


@pytest.mark.parametrize("hki", [(3, 3, 1), (4, 2, 1)])
def test_verify_all_enumerates_no_canonical_spread(monkeypatch, hki):
    # the fit and the spread stage write each Desarguesian element from its
    # source point (reduction_map): abb_spread is never built, and the
    # whole run row-reduces fewer than 30 subspaces (1,562 at (3,3,1) when
    # every element was reduced)
    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline must not build abb_spread")

    rref_calls = []
    real_rref = ProjSpace.rref

    def counted(self, rows):
        rref_calls.append(1)
        return real_rref(self, rows)

    monkeypatch.setattr(reduction, "_MAPS_CACHE", {})
    monkeypatch.setattr(reduction, "field_reduction_spread", refuse)
    monkeypatch.setattr(ProjSpace, "rref", counted)
    rep = run_verify_all(*hki)
    assert rep.verdict == "pass"
    assert len(rref_calls) < 30


def test_plane_stage_element_lookups(monkeypatch):
    # element_of lookups on the run's spread, plane stage only: the six
    # line_through of the quadrangle.  The fibre certificate tests each of
    # the k (q^k + 1) element rows by a cross product against its source,
    # and looks a row up only when it fails (it looked up all 514 rows); |W
    # ∩ E| is read off the spread stage's hits, as |D| = |Q| - 1, with no
    # lookup (it took one per point of Q but c0, 775 in all)
    lookups = []
    real_get = reduction.ReductionIndex.__getitem__
    real_stage = pipeline._STAGE_FUNCS["plane"]

    def plane_stage(run):
        index = run.spread_result.spread.index

        def get(self, point):
            if self is index:
                lookups.append(point)
            return real_get(self, point)

        monkeypatch.setattr(reduction.ReductionIndex, "__getitem__", get)
        try:
            return real_stage(run)
        finally:
            monkeypatch.setattr(reduction.ReductionIndex, "__getitem__", real_get)

    monkeypatch.setitem(pipeline._STAGE_FUNCS, "plane", plane_stage)
    rep = run_verify_all(4, 2, 1)
    assert rep.verdict == "pass"
    assert len(lookups) == 6
    assert "random" not in vars(bruckbose)
    assert not hasattr(bruckbose.BruckBosePlane, "meet")


def test_kernel_calls_per_stage_421(monkeypatch):
    # the kernel calls of a cold (4,2,1) run, stage by stage; |C| = 256.
    # Every field, tower, map and scalar map is built in the run, the tower
    # in construct, so that each LinearMap application counts.  Counts
    # nest: a lookup normalizes its source, and smul on the GF(q) spaces is
    # a LinearMap.  In parentheses, what a stage made when it keyed lines by
    # row pairs and looked up every certificate row: 2,399 normalize, 784
    # pair_line_key and 775 lookups in all
    for module, cache in ((gf2, "_FIELD_CACHE"), (gf2, "_TOWER_CACHE"),
                          (reduction, "_MAPS_CACHE")):
        monkeypatch.setattr(module, cache, {})
    counts: dict = {}
    stage = [None]

    def tally(tag):
        counts.setdefault(stage[0], {}).setdefault(tag, 0)
        counts[stage[0]][tag] += 1

    def count(cls, name, tag):
        real = getattr(cls, name)

        def counted(*args):
            tally(tag)
            return real(*args)

        monkeypatch.setattr(cls, name, counted)

    def counted_applier(tables):
        apply = real_applier(tables)
        return lambda v: tally("LinearMap") or apply(v)

    real_applier = gf2._applier
    monkeypatch.setattr(gf2, "_applier", counted_applier)
    count(ProjSpace, "normalize", "normalize")
    count(ProjSpace, "pair_line_key", "pair_line_key")
    count(reduction.ReductionIndex, "__getitem__", "lookup")
    for name, real_stage in pipeline._STAGE_FUNCS.items():
        def staged(run, name=name, real_stage=real_stage):
            stage[0] = name
            return real_stage(run)

        monkeypatch.setitem(pipeline._STAGE_FUNCS, name, staged)
    assert run_verify_all(4, 2, 1).verdict == "pass"
    assert counts == {
        # the tower's embedding and vec tables (16 + 256 LinearMap calls);
        # the arc test names each line from the base point by its point at
        # infinity (it keyed 257 lines)
        "construct": {"LinearMap": 272, "normalize": 255},
        # D, the orbit of d0 and the line from d0 to each orbit point, named
        # by its point off d0's pivot (254 line keys)
        "spectrum": {"normalize": 764, "LinearMap": 1037},
        # the standard labeling's candidates only, the swapped fits derived
        # (102 normalize and 1,273 LinearMap when both labelings were searched)
        "pseudoregulus": {"normalize": 80, "LinearMap": 820, "pair_line_key": 18},
        # one reduction LinearMap per element (two row-map lookups each), one
        # normalize per source point; D's points are counted from the fit's
        # sources, its "M, then unvec" reused (853 LinearMap, 512 normalize and
        # 255 lookups when each point of D was looked up again)
        "spread": {"LinearMap": 582, "normalize": 257},
        # the fibre certificate's 514 rows by cross product, the quadrangle's
        # six lookups (514 + 6 lookups, 526 normalize)
        "plane": {"LinearMap": 520, "normalize": 12, "lookup": 6},
        # A1's directions are read off C's projected differences, with no
        # is_arc (255 normalize when A1 normalized them again; 17 is_arc
        # calls and 255 line keys before that)
        "cplanes": {"LinearMap": 102},
    }


@pytest.mark.parametrize(
    "hki", [(3, 2, 1), (4, 2, 1), (4, 2, 3), (3, 3, 1), (3, 3, 2), (2, 3, 1), (2, 2, 1)]
)
def test_the_fit_walks_d_once(monkeypatch, hki):
    # one image walk per run: the standard labeling accepts one exponent
    # and the swapped fit is derived.  The spread stage normalizes over
    # PG(1, q^k) only the q^k + 1 source points of the spread, and looks
    # up no point of D: one_point_property counts the fit's sources
    stage = [None]
    walks, normalized, lookups = [], [], []
    real_walk = pseudoregulus._canonical_image

    def walked(*args):
        walks.append(stage[0])
        return real_walk(*args)

    monkeypatch.setattr(pseudoregulus, "_canonical_image", walked)
    real_normalize, real_lookup = ProjSpace.normalize, reduction.ReductionIndex.__getitem__
    hk = hki[0] * hki[1]

    def counted_normalize(self, v):
        if stage[0] == "spread" and self.n == 1 and self.field.m == hk:
            normalized.append(v)
        return real_normalize(self, v)

    def counted_lookup(self, p):
        if stage[0] == "spread":
            lookups.append(p)
        return real_lookup(self, p)

    monkeypatch.setattr(ProjSpace, "normalize", counted_normalize)
    monkeypatch.setattr(reduction.ReductionIndex, "__getitem__", counted_lookup)
    for name, real_stage in pipeline._STAGE_FUNCS.items():
        def staged(run, name=name, real_stage=real_stage):
            stage[0] = name
            return real_stage(run)

        monkeypatch.setitem(pipeline._STAGE_FUNCS, name, staged)
    assert run_verify_all(*hki).verdict == "pass"
    assert walks == ["pseudoregulus"]
    assert len(normalized) == (1 << hk) + 1 and lookups == []


def test_construct_proves_the_coset_once(monkeypatch):
    # translation closure echelon-reduces C in the H_inf layout, and is_arc
    # takes its verdict (two f2_echelon passes over C when is_arc proved the
    # coset again in the plane layout)
    passes = []
    real = hyperoval.f2_echelon
    monkeypatch.setattr(hyperoval, "f2_echelon", lambda rows: passes.append(1) or real(rows))
    rep = run_verify_all(4, 2, 1, stages=("construct",))
    assert rep.verdict == "pass" and len(passes) == 1


def test_unvec_blocks_is_built_once_per_tower(monkeypatch):
    # the fit's spell, build_spread's spread test and the Spread's source
    # map are one unvec_blocks(tower, 2), kept on the tower
    for module, cache in ((gf2, "_FIELD_CACHE"), (gf2, "_TOWER_CACHE"),
                          (reduction, "_MAPS_CACHE")):
        monkeypatch.setattr(module, cache, {})
    handed = []
    real = reduction.unvec_blocks

    def recorded(tower, blocks):
        handed.append((tower, blocks, real(tower, blocks)))
        return handed[-1][2]

    monkeypatch.setattr(reduction, "unvec_blocks", recorded)
    monkeypatch.setattr(pseudoregulus, "unvec_blocks", recorded)
    assert run_verify_all(4, 2, 1, stages=("spread",)).verdict == "pass"
    (tower,) = {t for t, _, _ in handed}
    assert len(handed) == 3  # fit_semilinear, Spread.__init__, build_spread
    assert {b for _, b, _ in handed} == {2} and list(tower.unvec_maps) == [2]
    assert all(lmap is tower.unvec_maps[2] for _, _, lmap in handed)


def test_spread_stage_memory(monkeypatch):
    # 6.3 MiB when both spreads indexed every point of PG(5, 8); 0.9 MiB now
    monkeypatch.setattr(reduction, "_MAPS_CACHE", {})
    tracemalloc.start()
    try:
        rep = run_verify_all(3, 3, 1, stages=("spread",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict == "pass"
    assert peak < 2 * 2**20


def test_line_key_calls_per_run(line_key_calls):
    # no all-pairs pass is left at (4,2,1): the spectrum reads the 254 lines
    # through one direction (816 keys in the whole run); a secant pair scan,
    # an all-pairs arc test, A1 over every plane with a full pair scan, or
    # an A4 pair scan would each add ~32,000
    rep = run_verify_all(4, 2, 1)
    assert rep.verdict == "pass"
    assert len(line_key_calls) < 1_000


def test_cplanes_reports_a4_mode(full321):
    a1 = full321.stage("cplanes").data["axioms"]["A1"]
    assert a1["detail"] == {"mode": "base-point", "planes": 72}
    a4 = full321.stage("cplanes").data["axioms"]["A4"]
    assert a4["detail"]["mode"] == "base-point"
    assert a4["checked"] == a4["detail"]["pairs"] == 63 * 62 // 2
    assert a4["detail"]["triples"] == 41664


def test_a4_runs_at_331():
    # 130,305 pairs through the base point instead of the 22,238,720 triples
    # of the full scan
    rep = run_verify_all(3, 3, 1, stages=("cplanes",))
    cp = rep.stage("cplanes")
    assert rep.verdict == "pass"
    assert "a4_skipped" not in cp.data
    a4 = cp.data["axioms"]["A4"]
    assert a4["ok"] and a4["detail"]["mode"] == "base-point"
    assert a4["detail"]["family_planes"] == cp.data["planes"] == 4672


def test_h1_refused_only_when_long_secants_are_needed():
    with pytest.raises(NoLongSecants):
        run_verify_all(1, 3, 1)
    with pytest.raises(NoLongSecants):
        run_verify_all(1, 3, 1, stages=("cplanes",))
    rep = run_verify_all(1, 3, 1, stages=("construct", "spectrum", "linearity"))
    assert rep.verdict == "pass"


@pytest.mark.parametrize("budget, ran", [(512, True), (511, False)])
def test_a4_obeys_the_run_budget(budget, ran):
    # construct charges the q^k = 512 points, the spectrum stage the
    # |D| - 1 = 510 line keys of the verified cyclic group, and A4 reads its
    # line counts and charges nothing: the construction is the run's largest
    # charge up to the cplanes stage
    rep = run_verify_all(3, 3, 1, stages=("cplanes",), budget=budget)
    if ran:
        a4 = rep.stage("cplanes").data["axioms"]["A4"]
        assert a4["ok"] and a4["detail"]["mode"] == "base-point"
        assert a4["detail"]["bins"] == "cyclic-group"
        assert rep.verdict == "pass"
    else:
        construct = rep.stage("construct")
        assert construct.status == "error"
        assert construct.error == ("EnumerationTooLarge: point set construction "
                                   "needs ~512 operations, budget is 511")
        assert rep.stage("cplanes").status == "skipped"


def test_plane_stage_reports_its_axioms_path(full321):
    pl = full321.stage("plane").data
    assert (pl["axioms_mode"], pl["axioms_path"]) == ("exhaustive", "fibres")
    assert pl["pairs_checked"] == 4161 * 4160 // 2 == 8654880
    assert "plane_mode" not in full321.params


def test_auto_plane_check_is_exhaustive_at_331():
    # 3 x 513 element_of calls, no array over the 2^18 vectors
    pl = run_verify_all(3, 3, 1, stages=("plane",)).stage("plane").data
    assert pl["axioms_ok"]
    assert (pl["axioms_mode"], pl["axioms_path"]) == ("exhaustive", "fibres")
    assert pl["pairs_checked"] == 262657 * 262656 // 2


def test_plane_check_is_exhaustive_at_hk_12():
    # 3 x 4,097 element_of calls where 2,000 spot checks used to run
    pl = run_verify_all(4, 3, 1, stages=("plane",)).stage("plane").data
    assert pl["axioms_ok"]
    assert (pl["axioms_mode"], pl["axioms_path"]) == ("exhaustive", "fibres")
    assert pl["pairs_checked"] == 16781313 * 16781312 // 2


def test_run_artifacts_stay_out_of_the_report(full321):
    assert full321.run.spread_result.matches_canonical
    assert "run" not in repr(full321)
    assert "run" not in full321.to_json_dict()
    assert full321 == replace(full321, run=None)


def test_reports_name_their_paths(full321):
    axioms = full321.stage("cplanes").data["axioms"]
    assert axioms["A2"]["detail"] == {"mode": "translation-group", "pairs": 2016}
    assert axioms["A3"]["detail"]["mode"] == "translation-group"
    assert full321.stage("plane").data["hyperoval_mode"] == "translation-group"


def test_a4_builds_no_scalar_tables_from_the_pair_map(monkeypatch):
    # A4 reads the spectrum's line counts at (4,2,1); no stage builds all
    # 14 scalars' byte tables of PG(3,16) up front, each builds a scalar's
    # on first use
    calls = []
    real = ProjSpace.ensure_tables

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(ProjSpace, "ensure_tables", counted)
    rep = run_verify_all(4, 2, 1)
    assert rep.verdict == "pass"
    assert rep.stage("cplanes").data["axioms"]["A4"]["detail"]["mode"] == "base-point"
    assert not calls


@pytest.mark.parametrize("k", [2, 3, 4])
def test_h2_passes(k):
    # at q = 4 the long secants are the one orbit of m 3-secants that the
    # verified cyclic group picks out; the group is verified in either mode
    for mode, path in (("pairs", "cyclic-group"), ("exhaustive", "line-scan")):
        rep = run_verify_all(2, k, 1, mode=mode)
        assert rep.verdict == "pass", [(s.name, s.error) for s in rep.stages]
        assert rep.stage("pseudoregulus").data["long_secants"] == (4 ** k - 1) // 3
        assert rep.stage("pseudoregulus").data["exponents"] == [1, 2 * k - 1]
        assert rep.stage("spectrum").data["path"] == path


def test_reports_name_the_spectrum_path_and_a4_bins(full321, monkeypatch):
    assert full321.stage("spectrum").data["path"] == "cyclic-group"
    a4 = full321.stage("cplanes").data["axioms"]["A4"]
    assert a4["detail"]["bins"] == "cyclic-group"
    assert all("bins" not in full321.stage("cplanes").data["axioms"][name]["detail"]
               for name in ("A1", "A2", "A3"))
    # the line tally counts, and A4 names the group it verified on the way
    exhaustive = run_verify_all(3, 2, 1, mode="exhaustive")
    assert exhaustive.verdict == "pass"
    assert exhaustive.stage("spectrum").data["path"] == "line-scan"
    assert exhaustive.stage("cplanes").data["axioms"]["A4"]["detail"]["bins"] == "cyclic-group"
    # a candidate built from the wrong exponent verifies no group: A4 reads
    # the line tally's counts, and the pairs are scanned once, for the long
    # secants the tally cannot name
    candidate = pipeline.cyclic_candidate
    monkeypatch.setattr(pipeline, "cyclic_candidate",
                        lambda maps, i: candidate(maps, i + 1))
    scans = []
    real = linearsets._pair_multiplicities
    monkeypatch.setattr(linearsets, "_pair_multiplicities",
                        lambda *args: scans.append(1) or real(*args))
    tallied = run_verify_all(3, 2, 1, mode="exhaustive")
    assert tallied.verdict == "pass" and len(scans) == 1
    assert tallied.stage("spectrum").data["path"] == "line-scan"
    assert tallied.stage("cplanes").data["axioms"]["A4"]["detail"]["bins"] == "line-scan"
    # the counts are the same on both paths
    fast, slow = (r.stage("spectrum").data["histogram"] for r in (full321, exhaustive))
    assert (fast["mode"], slow["mode"]) == ("pairs", "exhaustive")
    assert fast["counts"] == slow["counts"]


def test_nonstrict_control_reads_the_cyclic_group():
    # gcd(i, hk) > 1 is outside the theorem, but <M> still acts transitively
    # on D, so the verified group gives the control's spectrum
    rep = run_verify_all(4, 2, 2, strict=False, stages=("spectrum",))
    data = rep.stage("spectrum").data
    assert data["path"] == "cyclic-group" and not data["conforms"]
    assert data["histogram"]["counts"] == run_verify_all(
        4, 2, 2, strict=False, stages=("spectrum",), mode="exhaustive"
    ).stage("spectrum").data["histogram"]["counts"]


def test_hk12_spectrum_builds_no_pair_map():
    # C(4095, 2) = 8,382,465 pairs at (6,2,1); their map took +411 MiB
    tracemalloc.start()
    try:
        rep = run_verify_all(6, 2, 1, stages=("spectrum",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict == "pass"
    assert rep.stage("spectrum").data["path"] == "cyclic-group"
    assert peak < 20 * 2**20


def test_empty_stage_list_rejected():
    with pytest.raises(ValueError, match="no stage"):
        run_verify_all(3, 2, 1, stages=())


def test_f2_witness_reads_the_construct_stage_basis(monkeypatch):
    # the linearity stage takes W from the basis construct memoized on C:
    # neither an rref over PG(2hk-1, 2) nor an echelon pass while it runs
    calls = []
    real_witness = pipeline.f2_witness

    def witness(*args):
        with monkeypatch.context() as m:
            m.setattr(ProjSpace, "rref", lambda *a: calls.append("rref"))
            for module in (hyperoval, linearsets):
                m.setattr(module, "f2_echelon", lambda *a: calls.append("echelon"))
            return real_witness(*args)

    monkeypatch.setattr(pipeline, "f2_witness", witness)
    rep = run_verify_all(3, 2, 1, stages=("linearity",))
    assert rep.verdict == "pass" and rep.stage("linearity").data["rank"] == 6
    assert not calls


def test_nonstrict_pair_map_reaches_the_long_secants(monkeypatch):
    # with a candidate from the wrong exponent, (3,2,2) passes the spectrum
    # stage by the pair scan, whose map find_long_secants reads instead of
    # scanning again; the exponent fit then refuses the set
    candidate = pipeline.cyclic_candidate
    monkeypatch.setattr(pipeline, "cyclic_candidate",
                        lambda maps, i: candidate(maps, i + 1))
    calls = []
    real = linearsets._pair_multiplicities

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linearsets, "_pair_multiplicities", counted)
    rep = run_verify_all(3, 2, 2, strict=False)
    assert len(calls) == 1
    assert rep.stage("spectrum").ok and rep.stage("spectrum").data["path"] == "pair-scan"
    assert [s.status for s in rep.stages] == ["ok"] * 3 + ["error"] + ["skipped"] * 3
    assert rep.stage("pseudoregulus").error.startswith("SemilinearFitFailed:")


def test_nonstrict_control_stays_under_a_pair_budget():
    # C(4095, 2) = 8,382,465 pairs at (3,4,2) would exceed the budget; the
    # verified group charges |D| - 1 = 4,094 line keys instead
    rep = run_verify_all(3, 4, 2, strict=False, budget=100_000)
    assert rep.stage("spectrum").data["path"] == "cyclic-group"
    assert rep.stage("pseudoregulus").error.startswith("SemilinearFitFailed:")


def test_q4_control_reaches_the_exponent_fit(monkeypatch):
    # at q = 4 only the verified group tells the long secants from the
    # 3-secants, so (2,3,3) gets as far as the fit, which refuses it
    rep = run_verify_all(2, 3, 3, strict=False)
    assert rep.stage("spectrum").data["path"] == "cyclic-group"
    assert [s.status for s in rep.stages] == ["ok"] * 3 + ["error"] + ["skipped"] * 3
    assert rep.stage("pseudoregulus").error == (
        "SemilinearFitFailed: no exponent fits the secant bijection"
    )
    # without the group the pair counts cannot decide, and the stage refuses
    candidate = pipeline.cyclic_candidate
    monkeypatch.setattr(pipeline, "cyclic_candidate",
                        lambda maps, i: candidate(maps, i + 1))
    scanned = run_verify_all(2, 3, 3, strict=False)
    assert scanned.stage("spectrum").data["path"] == "pair-scan"
    assert scanned.stage("pseudoregulus").error.startswith(
        "NotPseudoregulusCandidate: at q = 4"
    )


_GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "name,h,k,i,strict",
    [
        ("report_321.json", 3, 2, 1, True),
        ("report_422_nonstrict.json", 4, 2, 2, False),
        ("report_331.json", 3, 3, 1, True),
    ],
)
def test_timing_free_report_matches_the_golden_file(name, h, k, i, strict):
    # the files hold the reports of an earlier tree; a change that keeps
    # every verdict and every reported number reproduces them byte for byte
    rep = run_verify_all(h, k, i, strict=strict)
    text = serialize.dumps(rep.to_json_dict(include_timings=False))
    assert text == (_GOLDEN / name).read_text(encoding="ascii")


def test_stage_out_of_memory_is_an_error(monkeypatch):
    def exhausted(run):
        raise MemoryError()

    monkeypatch.setitem(pipeline._STAGE_FUNCS, "spread", exhausted)
    rep = run_verify_all(3, 2, 1)
    assert rep.verdict == "fail"
    spread = rep.stage("spread")
    assert (spread.status, spread.ok, spread.data) == ("error", False, {})
    assert spread.error.startswith("MemoryError:")
    assert [s.status for s in rep.stages[-2:]] == ["skipped", "skipped"]
