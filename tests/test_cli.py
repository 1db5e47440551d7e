"""Exit codes, JSON output, and file round trips of the command line."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hoval import cli, serialize
from hoval.cli import main
from hoval.gf2 import tower_create
from hoval.hyperoval import HyperovalSpec, build_hyperoval, directions
from hoval.linearsets import spectrum
from hoval.pipeline import run_verify_all
from hoval.reduction import maps_for
from oracles import parser_with_every_subcommand, save


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


def test_spectrum_reads_the_cyclic_group(tmp_path, capsys, monkeypatch):
    # the CLI builds the candidate verify-all builds, from --h/--k/--i or
    # from the file's params, for every exponent; the control reads it too
    paths = []
    real = cli.spectrum

    def recorded(*args, **kwargs):
        hist = real(*args, **kwargs)
        paths.append(hist.path)
        return hist

    monkeypatch.setattr(cli, "spectrum", recorded)
    hov = build_hyperoval(HyperovalSpec(3, 2, 1))
    scan = spectrum(directions(hov.affine, hov.maps))
    assert scan.path == "pair-scan"
    path = tmp_path / "dirs.json"
    _run(capsys, "directions", "--h", "3", "--k", "2", "--i", "1",
         "--out", str(path))
    code, out = _run(capsys, "spectrum", "--h", "3", "--k", "2", "--i", "1")
    assert code == 0
    code, from_file = _run(capsys, "spectrum", "--in", str(path))
    assert code == 0
    assert paths == ["cyclic-group", "cyclic-group"]
    assert out == from_file
    assert json.loads(out)["counts"] == scan.to_json_dict()["counts"]
    code, _ = _run(
        capsys, "spectrum", "--h", "4", "--k", "2", "--i", "2",
        "--allow-nonstrict",
    )
    assert code == 1
    assert paths[-1] == "cyclic-group"


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


@pytest.mark.parametrize("command", ["construct", "spectrum", "verify-all"])
def test_gcd_refusal_names_the_flag(capsys, command):
    # a refused construction (exit 1) that points at the CLI flag, not at
    # the library keyword
    code = main([command, "--h", "2", "--k", "3", "--i", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        "error: gcd(2, 6) = 2 != 1; pass --allow-nonstrict to build the set anyway\n"
    )
    assert captured.out == ""


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--h", "3", "--k", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["verify-all", "bruck-bose-verify"])
def test_plane_mode_is_no_option(command):
    # one exhaustive plane check at every size, nothing to choose
    with pytest.raises(SystemExit) as exc:
        main([command, "--h", "3", "--k", "2", "--i", "1", "--plane-mode", "sampled"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, flag", [
    *((c, "--parallel") for c in ("construct", "directions", "detect-pseudoregulus",
                                  "build-spread", "bruck-bose-verify", "bj-axioms")),
    ("construct", "--budget"),
    ("directions", "--budget"),
    ("bruck-bose-verify", "--seed"),
])
def test_flags_that_do_nothing_are_no_options(command, flag):
    # only the exhaustive line tally has workers, and construct and
    # directions enumerate nothing a budget could cap
    with pytest.raises(SystemExit) as exc:
        main([command, "--h", "3", "--k", "2", "--i", "1", flag, "2"])
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


@pytest.mark.parametrize("axioms", [",", " , ", ""])
def test_bj_axioms_empty_list_exit_2(capsys, axioms):
    code = main(["bj-axioms", "--h", "3", "--k", "2", "--i", "1",
                 "--axioms", axioms])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "axiom" in captured.err


@pytest.mark.parametrize("stages", [",", " , ", ""])
def test_verify_all_empty_stage_list_exit_2(capsys, stages):
    code = main(["verify-all", "--h", "3", "--k", "2", "--i", "1",
                 "--stages", stages])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --stages names no stage")


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


def test_parallel_defaults_to_one_whatever_the_environment(monkeypatch, capsys):
    # --parallel is the one way to ask for workers; no variable changes it
    monkeypatch.setenv("HOVAL_PARALLEL", "2")
    code, out = _run(
        capsys, "verify-all", "--h", "3", "--k", "2", "--i", "1",
        "--stages", "construct,spectrum",
    )
    assert code == 0
    assert json.loads(out)["params"]["processes"] == 1


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize("command", ["spectrum", "verify-all"])
def test_parallel_below_one_is_a_usage_error(capsys, command, workers):
    code = main([command, "--h", "3", "--k", "2", "--i", "1", "--mode",
                 "exhaustive", "--parallel", workers])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: --parallel must be at least 1, got {workers}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["spectrum", "verify-all"])
def test_budget_below_zero_is_a_usage_error(capsys, command):
    # only 0 removes the cap; a negative budget is no budget at all
    code = main([command, "--h", "3", "--k", "2", "--i", "1", "--mode",
                 "exhaustive", "--budget", "-7"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: --budget must be at least 0, got -7\n"
    assert captured.out == ""


def test_budget_zero_removes_the_cap(capsys):
    code, out = _run(capsys, "spectrum", "--h", "3", "--k", "2", "--i", "1",
                     "--mode", "exhaustive", "--budget", "0")
    assert code == 0
    assert json.loads(out)["lines"] == 4745


def test_spectrum_from_file_takes_the_nonstrict_flag(tmp_path, capsys):
    # a file that claims strictness for a gcd > 1 exponent is refused with
    # the flag's name, and the flag lifts the refusal
    path = tmp_path / "dirs.json"
    _run(capsys, "directions", "--h", "4", "--k", "2", "--i", "2",
         "--allow-nonstrict", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["params"]["strict"] = True
    path.write_text(serialize.dumps(doc))
    code = main(["spectrum", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "pass --allow-nonstrict" in captured.err and captured.out == ""
    _, out = _run(capsys, "spectrum", "--in", str(path), "--allow-nonstrict")
    assert json.loads(out)["params"]["strict"] is False


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
    save(
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


@pytest.mark.parametrize("key, value", [
    ("h", True), ("k", True), ("i", True), ("count", True), ("strict", "no"),
])
def test_bool_for_an_int_or_non_bool_strict_in_file_exit_2(tmp_path, capsys, key, value):
    # "i": true would run as i = 1, "count": true pass for one point, and
    # "strict": "no" read as strict
    path = _directions_file(tmp_path, None, None)
    doc = json.loads(path.read_text())
    if key == "count":
        doc["points"], doc["count"] = doc["points"][:1], value
    else:
        doc["params"][key] = value
    path.write_text(serialize.dumps(doc))
    code = main(["spectrum", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {'count' if key == 'count' else 'params.' + key}")
    assert captured.out == ""


def test_repeated_point_in_file_exit_2(tmp_path, capsys):
    # 64 entries, one of the 63 directions twice: "count" agrees with the
    # list, but the set it names has 63 points
    path = _directions_file(tmp_path, None, None)
    doc = json.loads(path.read_text())
    doc["points"].append(doc["points"][5])
    doc["count"] = 64
    path.write_text(serialize.dumps(doc))
    code = main(["spectrum", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: points[63]: {doc['points'][5]} is listed twice")
    assert captured.out == ""


# --- the stage subcommands are views over verify-all ---------------------------

_VIEWS = ("detect-pseudoregulus", "build-spread", "bruck-bose-verify", "bj-axioms")


def test_cli_holds_no_stage_logic():
    for name in ("build_plane", "plane_axioms_check", "hyperoval_in_plane",
                 "build_c_planes", "check_axioms", "detect_pseudoregulus",
                 "find_long_secants"):
        assert not hasattr(cli, name), name


@pytest.mark.parametrize("command", _VIEWS)
@pytest.mark.parametrize("params, code", [
    (("--h", "4", "--k", "2", "--i", "2", "--allow-nonstrict"), 1),
    (("--h", "3", "--k", "2", "--i", "1", "--budget", "10"), 3),
    (("--h", "1", "--k", "3", "--i", "1"), 2),
])
def test_view_without_its_stages_prints_no_document(capsys, command, params, code):
    assert main([command, *params]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.fixture(scope="module")
def full321():
    return run_verify_all(3, 2, 1)


def _doc(capsys, *argv):
    code, out = _run(capsys, *argv, "--h", "3", "--k", "2", "--i", "1")
    assert code == 0
    return json.loads(out)


def test_views_repeat_the_stage_data(capsys, full321):
    ps = full321.stage("pseudoregulus").data
    sp = full321.stage("spread").data
    doc = _doc(capsys, "detect-pseudoregulus")
    assert doc["kind"] == "pseudoregulus_report" and doc["ok"] is True
    for key in ("long_secants", "exponents", "labeling", "chosen_exponent"):
        assert doc[key] == ps[key], key
    assert doc["spread_elements"] == sp["elements"]
    assert doc["matches_canonical"] == sp["matches_canonical"]
    assert doc["one_point"] == sp["one_point"]

    doc = _doc(capsys, "build-spread")
    assert doc["count"] == len(doc["elements"]) == sp["elements"]
    assert doc["exponent"] == sp["exponent"]
    assert doc["matches_canonical"] == sp["matches_canonical"]

    doc = _doc(capsys, "bruck-bose-verify")
    assert doc["kind"] == "bruck_bose_report" and doc["ok"] is True
    for key, value in full321.stage("plane").data.items():
        assert doc[key] == value, key

    cp = full321.stage("cplanes").data
    doc = _doc(capsys, "bj-axioms")
    assert doc["kind"] == "cplane_report" and doc["ok"] is True
    assert doc["planes"] == cp["planes"]
    assert doc["long_secants"] == ps["long_secants"]
    assert doc["axioms"] == cp["axioms"]


def test_bj_axioms_scans_the_secant_pairs_once(capsys, line_key_calls):
    # C(255, 2) = 32,385 keys for the spectrum's pair scan, which the long
    # secants and A4 read; a second scan for A4 would double it
    code, out = _run(capsys, "bj-axioms", "--h", "4", "--k", "2", "--i", "1")
    assert code == 0 and json.loads(out)["ok"] is True
    assert len(line_key_calls) < 40_000


def test_verify_all_budget_exit_3(capsys):
    code, out = _run(
        capsys, "verify-all", "--h", "3", "--k", "2", "--i", "1",
        "--budget", "10",
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    spectrum = next(s for s in doc["stages"] if s["name"] == "spectrum")
    assert spectrum["status"] == "error"
    assert spectrum["error"].startswith("EnumerationTooLarge")


@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_unwritable_out_is_refused_before_any_stage(
    tmp_path, capsys, monkeypatch, target
):
    path = tmp_path if target == "directory" else tmp_path / "absent" / "report.json"
    ran = []
    monkeypatch.setattr(cli, "run_verify_all", lambda *a, **kw: ran.append(1))
    code = main(["verify-all", "--h", "3", "--k", "2", "--i", "1", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert captured.out == "" and ran == []
    assert not (tmp_path / "absent").exists()


def test_writable_out_leaves_only_the_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["construct", "--h", "3", "--k", "2", "--i", "1", "--out", str(path)])
    assert code == 0 and capsys.readouterr().out == ""
    assert json.loads(path.read_text())["kind"] == "hyperoval"
    # a run refused after the check leaves no empty file behind
    other = tmp_path / "other.json"
    code = main(["verify-all", "--h", "3", "--k", "2", "--i", "2", "--out", str(other)])
    assert code == 1 and not other.exists()


def test_out_replaces_a_longer_file_whole(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_bytes(b"x" * 100_000)
    code = main(["construct", "--h", "3", "--k", "2", "--i", "1", "--out", str(path)])
    assert code == 0 and capsys.readouterr().out == ""
    text = path.read_text(encoding="ascii")
    assert text.endswith("}\n") and json.loads(text)["kind"] == "hyperoval"


@pytest.mark.parametrize("argv, code", [
    (["verify-all", "--h", "3", "--k", "2", "--i", "2"], 1),  # refused construction
    (["verify-all", "--h", "3", "--k", "2", "--i", "1", "--parallel", "0"], 2),
    (["bj-axioms", "--h", "3", "--k", "2", "--i", "1", "--budget", "10"], 3),
])
def test_a_run_that_emits_nothing_keeps_out_as_it_was(tmp_path, capsys, argv, code):
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
    kept.write_bytes(b"an earlier report\n")
    assert main(argv + ["--out", str(kept)]) == code
    assert main(argv + ["--out", str(fresh)]) == code
    assert kept.read_bytes() == b"an earlier report\n"
    assert sorted(tmp_path.iterdir()) == [kept]
    assert capsys.readouterr().out == ""


def test_out_writes_the_whole_document_into_a_pipe(tmp_path):
    # /dev/stdout into a pipe cannot be truncated; it still gets the document
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "hoval.cli", "construct", "--h", "3", "--k", "2",
         "--i", "1", "--out", "/dev/stdout"],
        env=env, cwd=tmp_path, capture_output=True, check=False,
    )
    assert proc.returncode == 0 and proc.stderr == b""
    doc = json.loads(proc.stdout)
    assert doc["kind"] == "hyperoval" and doc["count"] == 66


def test_stage_out_of_memory_exits_3(capsys, monkeypatch):
    from hoval import pipeline

    def exhausted(run):
        raise MemoryError("no room for the C-planes")

    monkeypatch.setitem(pipeline._STAGE_FUNCS, "cplanes", exhausted)
    code = main(["verify-all", "--h", "3", "--k", "2", "--i", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    cplanes = doc["stages"][-1]
    assert cplanes["name"] == "cplanes" and cplanes["status"] == "error"
    assert cplanes["error"] == "MemoryError: no room for the C-planes"
    code = main(["bj-axioms", "--h", "3", "--k", "2", "--i", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: cplanes error: MemoryError:")


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help", "verify-all"], [], ["frobnicate", "--h", "3"],
    ["verify-all", "-h"], ["spectrum", "--help"],
    ["verify-all", "--h", "3"], ["bj-axioms", "--h", "3", "--k", "2", "--i", "1", "--bogus"],
    ["verify-all", "--h", "3", "--k", "2", "--i", "1", "--mode", "lines"],
])
def test_parser_prints_what_the_parser_of_every_subcommand_printed(argv, capsys):
    # help, an unknown command and subcommand usage errors read the same
    # as they did when main parsed with every subcommand's parser built;
    # "--bogus" is the top level's error, not the lone subcommand parser's
    def printed(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    assert printed(main) == printed(parser_with_every_subcommand(argv).parse_args)


def test_parser_builds_only_the_named_subcommand(monkeypatch, capsys):
    # every parser main builds, the subcommand parsers included, by prog
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *a, **kw):
        built.append(kw["prog"])
        init(self, *a, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["construct", "--h", "3", "--k", "2", "--i", "1"]) == 0
    assert built == ["hoval construct"]
    every = ["hoval"] + [f"hoval {c}" for c in cli._COMMANDS]
    # the full parser only for what the top level prints
    for argv, lone in ((["-h", "verify-all"], []), (["nope"], []),
                       (["construct", "--h", "3", "--k", "2", "--i", "1", "--bogus"],
                        ["hoval construct"])):
        built.clear()
        with pytest.raises(SystemExit):
            main(argv)
        assert built == lone + every
    capsys.readouterr()
