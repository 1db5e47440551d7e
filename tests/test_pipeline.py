"""Stage sequencing and report shape of the verification pipeline."""

import dataclasses
import tracemalloc

import pytest

from hoval import linearsets, pipeline, pseudoregulus, reduction
from hoval import hyperoval
from hoval.errors import NoLongSecants
from hoval.pipeline import STAGE_ORDER, run_verify_all
from hoval.projective import ProjSpace
from hoval.reduction import CorrespondenceMaps, Spread


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
    monkeypatch.setattr(pseudoregulus, "_pair_multiplicities", counted)
    rep = run_verify_all(3, 2, 1, stages=("spectrum", "pseudoregulus"))
    assert rep.verdict == "pass"
    assert rep.stage("spectrum").data["path"] == "cyclic-group"
    assert len(calls) == 0
    # a candidate built from the wrong exponent fails its check on D: the
    # pairs are scanned once and that map serves the long secants
    candidate = pipeline.cyclic_candidate
    monkeypatch.setattr(pipeline, "cyclic_candidate",
                        lambda maps, i: candidate(maps, i + 1))
    rep = run_verify_all(3, 2, 1, stages=("spectrum", "pseudoregulus"))
    assert rep.verdict == "pass"
    assert rep.stage("spectrum").data["path"] == "pair-scan"
    assert len(calls) == 1


def test_linearity_does_not_build_s_prime(monkeypatch):
    def refuse(self):
        raise AssertionError("the pipeline must not enumerate s_prime")

    monkeypatch.setattr(CorrespondenceMaps, "s_prime", property(refuse))
    rep = run_verify_all(3, 2, 1, stages=("linearity",))
    lin = rep.stage("linearity")
    assert lin.ok
    assert lin.data["meet_histogram"] == {"0": 522, "1": 63}
    assert lin.data["max_rank"] == 6


def test_verify_all_enumerates_no_spread(monkeypatch):
    # abb_spread and the rebuilt spread come from field reduction and find
    # the element through a point by arithmetic; a fresh maps cache makes
    # the run build both
    def refuse(self, *args, **kwargs):
        raise AssertionError("the pipeline must not enumerate a spread's points")

    monkeypatch.setattr(reduction, "_MAPS_CACHE", {})
    monkeypatch.setattr(Spread, "__init__", refuse)
    rep = run_verify_all(3, 3, 1)
    assert rep.verdict == "pass"
    assert rep.stage("spread").data["hit_once"] == 511


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


@pytest.mark.parametrize("budget, ran", [(510, True), (509, False)])
def test_a4_obeys_the_run_budget(budget, ran):
    # under the verified cyclic group A4 is charged the |D| - 1 = 510 line
    # keys the spectrum stage computes first under the same budget
    rep = run_verify_all(3, 3, 1, stages=("cplanes",), budget=budget)
    if ran:
        a4 = rep.stage("cplanes").data["axioms"]["A4"]
        assert a4["ok"] and a4["detail"]["mode"] == "base-point"
        assert a4["detail"]["bins"] == "cyclic-group"
        assert rep.verdict == "pass"
    else:
        spectrum = rep.stage("spectrum")
        assert spectrum.status == "error"
        assert spectrum.error.startswith("EnumerationTooLarge")
        assert rep.stage("cplanes").status == "skipped"


def test_plane_stage_reports_its_axioms_path(full321):
    pl = full321.stage("plane").data
    assert (pl["axioms_mode"], pl["axioms_path"]) == ("exhaustive", "translation")
    assert pl["pairs_checked"] == 4161 * 4160 // 2 == 8654880


def test_auto_plane_check_is_exhaustive_at_331():
    # q^2k = 2^18 direction marks instead of 2,000 spot checks
    pl = run_verify_all(3, 3, 1, stages=("plane",)).stage("plane").data
    assert pl["axioms_ok"]
    assert (pl["axioms_mode"], pl["axioms_path"]) == ("exhaustive", "translation")
    assert pl["pairs_checked"] == 262657 * 262656 // 2


def test_run_artifacts_stay_out_of_the_report(full321):
    assert full321.run.spread_result.matches_canonical
    assert "run" not in repr(full321)
    assert "run" not in full321.to_json_dict()
    assert full321 == dataclasses.replace(full321, run=None)


def test_reports_name_their_paths(full321):
    axioms = full321.stage("cplanes").data["axioms"]
    assert axioms["A2"]["detail"] == {"mode": "translation-group", "pairs": 2016}
    assert axioms["A3"]["detail"]["mode"] == "translation-group"
    assert full321.stage("plane").data["hyperoval_mode"] == "translation-group"


def test_a4_builds_no_scalar_tables_from_the_pair_map(monkeypatch):
    # A4 reads the spectrum's cyclic group at (4,2,1), neither a pair map
    # nor a scan; the PG(3,16) scalar tables (+38 MiB) are only for a scan
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
    # verified cyclic group picks out
    rep = run_verify_all(2, k, 1)
    assert rep.verdict == "pass", [(s.name, s.error) for s in rep.stages]
    assert rep.stage("pseudoregulus").data["long_secants"] == (4 ** k - 1) // 3
    assert rep.stage("pseudoregulus").data["exponents"] == [1, 2 * k - 1]
    assert rep.stage("spectrum").data["path"] == "cyclic-group"


def test_reports_name_the_spectrum_path_and_a4_bins(full321):
    assert full321.stage("spectrum").data["path"] == "cyclic-group"
    a4 = full321.stage("cplanes").data["axioms"]["A4"]
    assert a4["detail"]["bins"] == "cyclic-group"
    assert all("bins" not in full321.stage("cplanes").data["axioms"][name]["detail"]
               for name in ("A1", "A2", "A3"))
    exhaustive = run_verify_all(3, 2, 1, mode="exhaustive")
    assert exhaustive.verdict == "pass"
    assert exhaustive.stage("spectrum").data["path"] == "line-scan"
    assert exhaustive.stage("cplanes").data["axioms"]["A4"]["detail"]["bins"] == "pair-scan"
    # the counts are the same on both paths
    fast, slow = (r.stage("spectrum").data["histogram"] for r in (full321, exhaustive))
    assert (fast["mode"], slow["mode"]) == ("pairs", "exhaustive")
    assert fast["counts"] == slow["counts"]


def test_nonstrict_control_takes_the_pair_scan():
    # gcd(i, hk) > 1 is outside the theorem, so no candidate is built
    rep = run_verify_all(4, 2, 2, strict=False, stages=("spectrum",))
    data = rep.stage("spectrum").data
    assert data["path"] == "pair-scan" and not data["conforms"]
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
    # (3,2,2) passes the spectrum stage by the pair scan, whose map
    # find_long_secants reads instead of scanning again; the exponent fit
    # then refuses the set
    calls = []
    real = linearsets._pair_multiplicities

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linearsets, "_pair_multiplicities", counted)
    monkeypatch.setattr(pseudoregulus, "_pair_multiplicities", counted)
    rep = run_verify_all(3, 2, 2, strict=False)
    assert len(calls) == 1
    assert rep.stage("spectrum").ok and rep.stage("spectrum").data["path"] == "pair-scan"
    assert [s.status for s in rep.stages] == ["ok"] * 3 + ["error"] + ["skipped"] * 3
    assert rep.stage("pseudoregulus").error.startswith("SemilinearFitFailed:")
