"""Exit codes, JSON output, and file round trips of the command line."""

import json

import pytest

from hoval import serialize
from hoval.cli import main
from hoval.gf2 import tower_create
from hoval.hyperoval import HyperovalSpec, build_hyperoval, directions
from hoval.reduction import maps_for


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_json(capsys):
    code, out = _run(capsys, "construct", "--h", "3", "--k", "2", "--i", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["kind"] == "hyperoval"
    assert doc["count"] == 66
    assert len(doc["points"]) == 66
    assert len(doc["affine"]) == 64 and len(doc["infinity"]) == 2
    assert doc["params"]["q"] == 8
    assert all(p.startswith("0x") and p == p.lower() for p in doc["points"])


def test_output_is_deterministic(capsys):
    _, a = _run(capsys, "construct", "--h", "3", "--k", "2", "--i", "1")
    _, b = _run(capsys, "construct", "--h", "3", "--k", "2", "--i", "1")
    assert a == b
    assert a.endswith("\n")


def test_directions_then_spectrum_from_file(tmp_path, capsys):
    path = tmp_path / "dirs.json"
    code, out = _run(
        capsys, "directions", "--h", "3", "--k", "2", "--i", "1",
        "--out", str(path),
    )
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["kind"] == "directions" and doc["count"] == 63

    code, out = _run(capsys, "spectrum", "--in", str(path))
    assert code == 0
    spec = json.loads(out)
    assert spec["conforms"] is True
    assert spec["counts"] == {"0": 1376, "1": 2772, "3": 588, "7": 9}


def test_spectrum_exit_1_when_not_conforming(capsys):
    code, out = _run(
        capsys, "spectrum", "--h", "4", "--k", "2", "--i", "2",
        "--allow-nonstrict",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["conforms"] is False
    assert doc["offending_count"] not in (0, 1, 3, 15)


def test_spectrum_without_params_or_file_is_exit_2(capsys):
    code, _ = _run(capsys, "spectrum")
    assert code == 2


def test_nonstrict_refused_without_flag(capsys):
    code, _ = _run(capsys, "construct", "--h", "4", "--k", "2", "--i", "2")
    assert code == 1


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--h", "3", "--k", "2"])
    assert exc.value.code == 2


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json\n")
    code, _ = _run(capsys, "spectrum", "--in", str(bad))
    assert code == 2


def test_wrong_kind_exit_2(tmp_path, capsys):
    path = tmp_path / "hov.json"
    code, _ = _run(
        capsys, "construct", "--h", "3", "--k", "2", "--i", "1",
        "--out", str(path),
    )
    assert code == 0
    code, _ = _run(capsys, "spectrum", "--in", str(path))
    assert code == 2


def test_budget_exit_3(capsys):
    code, _ = _run(
        capsys, "spectrum", "--h", "3", "--k", "2", "--i", "1",
        "--budget", "10",
    )
    assert code == 3


def test_detect_pseudoregulus(capsys):
    code, out = _run(
        capsys, "detect-pseudoregulus", "--h", "3", "--k", "2", "--i", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exponents"] == [1, 5]
    assert doc["long_secants"] == 9
    assert doc["matches_canonical"] is True and doc["one_point"] is True


def test_build_spread(capsys):
    code, out = _run(capsys, "build-spread", "--h", "3", "--k", "2", "--i", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "spread" and doc["count"] == 65
    assert len(doc["elements"]) == 65
    assert all(len(rows) == 2 for rows in doc["elements"])


def test_bj_axioms_subset(capsys):
    code, out = _run(
        capsys, "bj-axioms", "--h", "3", "--k", "2", "--i", "1",
        "--axioms", "A2,A3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["planes"] == 72
    assert sorted(doc["axioms"]) == ["A2", "A3"]
    assert doc["ok"] is True


def test_bj_axioms_bad_name_exit_2(capsys):
    code, _ = _run(
        capsys, "bj-axioms", "--h", "3", "--k", "2", "--i", "1",
        "--axioms", "A9",
    )
    assert code == 2


def test_verify_all_stage_subset(capsys):
    code, out = _run(
        capsys, "verify-all", "--h", "3", "--k", "2", "--i", "1",
        "--stages", "construct,spectrum",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert [s["name"] for s in doc["stages"]] == ["construct", "spectrum"]


def test_verify_all_control_fails(capsys):
    code, out = _run(
        capsys, "verify-all", "--h", "4", "--k", "2", "--i", "2",
        "--allow-nonstrict", "--stages", "construct,spectrum",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail"


def test_parallel_env_default(monkeypatch, capsys):
    monkeypatch.setenv("HOVAL_PARALLEL", "2")
    code, out = _run(capsys, "spectrum", "--h", "3", "--k", "2", "--i", "1")
    assert code == 0
    assert json.loads(out)["conforms"] is True


def test_parallel_env_garbage_falls_back(monkeypatch, capsys):
    monkeypatch.setenv("HOVAL_PARALLEL", "lots")
    code, out = _run(capsys, "spectrum", "--h", "3", "--k", "2", "--i", "1")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("construct", "--h", "0", "--k", "2", "--i", "1"),
    ("verify-all", "--h", "3", "--k", "2", "--i", "7"),
])
def test_bad_parameters_exit_2(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: bad parameters")
    assert captured.out == ""


def test_unknown_stage_exit_2(capsys):
    code = main(["verify-all", "--h", "3", "--k", "2", "--i", "1",
                 "--stages", "construct,nonsense"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown stage 'nonsense'" in captured.err
    assert captured.out == ""


def test_missing_input_file_exit_2(tmp_path, capsys):
    code = main(["spectrum", "--in", str(tmp_path / "absent.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: cannot read")


def test_h1_refused_before_any_stage(capsys):
    code = main(["verify-all", "--h", "1", "--k", "3", "--i", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: h = 1 gives q = 2")
    assert captured.out == ""


def _directions_file(tmp_path, small, big):
    """A (3,2,1) directions file written over the given field moduli."""
    maps = maps_for(tower_create(3, 2, small, big))
    spec = HyperovalSpec(3, 2, 1)
    hov = build_hyperoval(spec, maps)
    d = directions(hov.affine, maps)
    path = tmp_path / "dirs.json"
    serialize.save(
        str(path), serialize.point_set_dict("directions", d.points, spec, maps)
    )
    return path


# x^3+x^2+1 and x^6+x^5+1 instead of the default x^3+x+1 and x^6+x+1
@pytest.mark.parametrize("small, big", [(0xD, None), (None, 0x61), (0xD, 0x61)])
def test_spectrum_from_file_reads_the_files_field(tmp_path, capsys, small, big):
    path = _directions_file(tmp_path, small, big)
    written = json.loads(path.read_text())["params"]
    code, out = _run(capsys, "spectrum", "--in", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["conforms"] is True
    assert doc["counts"] == {"0": 1376, "1": 2772, "3": 588, "7": 9}
    assert doc["params"]["modulus_small"] == written["modulus_small"]
    assert doc["params"]["modulus_big"] == written["modulus_big"]


@pytest.mark.parametrize("key, value", [
    ("modulus_small", "0x9"),   # x^3+1 is reducible
    ("modulus_big", "0x41"),    # x^6+1 is reducible
    ("modulus_big", "x^6+x+1"),
])
def test_bad_modulus_in_file_exit_2(tmp_path, capsys, key, value):
    path = _directions_file(tmp_path, None, None)
    doc = json.loads(path.read_text())
    doc["params"][key] = value
    path.write_text(serialize.dumps(doc))
    code = main(["spectrum", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""
