"""Stage sequencing and report shape of the verification pipeline."""

import dataclasses

import pytest

from hoval import linearsets, pseudoregulus
from hoval.errors import NoLongSecants
from hoval.pipeline import STAGE_ORDER, run_verify_all
from hoval.reduction import CorrespondenceMaps


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


def test_line_key_calls_per_run(line_key_calls):
    # the secant pair scan (C(255, 2) = 32,385 keys) is the only all-pairs
    # pass left at (4,2,1); an all-pairs arc test, A1 over every plane with
    # a full pair scan, or a second A4 pair scan would each add ~32,000
    rep = run_verify_all(4, 2, 1)
    assert rep.verdict == "pass"
    assert 32_385 <= len(line_key_calls) < 40_000


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


@pytest.mark.parametrize("budget, ran", [(130_305, True), (130_304, False)])
def test_a4_obeys_the_run_budget(budget, ran):
    # A4's base-point estimate C(n-1, 2) is the C(|D|, 2) = 130,305 pairs the
    # spectrum stage scans first under the same budget
    rep = run_verify_all(3, 3, 1, stages=("cplanes",), budget=budget)
    if ran:
        a4 = rep.stage("cplanes").data["axioms"]["A4"]
        assert a4["ok"] and a4["detail"]["mode"] == "base-point"
        assert rep.verdict == "pass"
    else:
        spectrum = rep.stage("spectrum")
        assert spectrum.status == "error"
        assert spectrum.error.startswith("EnumerationTooLarge")
        assert rep.stage("cplanes").status == "skipped"


def test_run_artifacts_stay_out_of_the_report(full321):
    assert full321.run.spread_result.matches_canonical
    assert "run" not in repr(full321)
    assert "run" not in full321.to_json_dict()
    assert full321 == dataclasses.replace(full321, run=None)
