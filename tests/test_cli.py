import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conicfans import chevalley, cli, conicatlas, fixtures, lunavust, symdata, verify
from conicfans.rootcore import StructureError


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_table_cosets_has_ten_rows(capsys):
    code, out = run(capsys, "table", "cosets")
    lines = [l for l in out.strip().splitlines() if l.strip()]
    assert code == 0
    assert len(lines) == 11  # header + ten family rows
    assert lines[-1].split()[0] == "G2" and lines[-1].split()[1] == "2"


def test_table_chow_g2(capsys):
    code, out = run(capsys, "table", "chow", "G2")
    assert code == 0
    assert "(-1,-2)" in out and "(0,1)" in out and "D2" in out


def test_table_planes_d4(capsys):
    code, out = run(capsys, "table", "planes", "D4")
    assert code == 0
    assert len(out.strip().splitlines()) == 4   # header + three rows


def test_usage_errors(capsys):
    code, _ = run(capsys, "table", "nosuch")
    assert code == 2
    code, _ = run(capsys, "table", "chow", "A5")
    assert code == 2
    code, _ = run(capsys, "export", "fan-json", "C3")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("export", "constants-csv", "C3"),
    ("export", "constants-csv", "X3"),
    ("contact-eq", "B2"),
    ("contact-eq", "G9"),
])
def test_bad_labels_without_atlas_entry_are_usage_errors(capsys, monkeypatch, argv):
    # these commands read only the adjoint data, never the whole atlas entry
    monkeypatch.setattr(conicatlas, "build_entry", None)
    code, _ = run(capsys, *argv)
    assert code == 2


@pytest.mark.parametrize("rank", ["2", "-1"])
def test_max_rank_below_three_is_a_usage_error(capsys, rank):
    # below B3 the cap would silently drop every B and D label
    with pytest.raises(SystemExit) as exc:
        cli.main(["--max-rank", rank, "verify", "rootcore", "--jobs", "1"])
    assert exc.value.code == 2
    assert "--max-rank" in capsys.readouterr().err


def test_csv_and_json_formats(capsys):
    code, out = run(capsys, "--format", "csv", "table", "cosets")
    assert code == 0 and out.splitlines()[0] == "g,double_cosets"
    code, out = run(capsys, "--format", "json", "table", "colors", "G2")
    data = json.loads(out)
    assert code == 0 and len(data) == 2


def test_verify_rejects_the_csv_format(capsys):
    code = cli.main(["--format", "csv", "verify", "rootcore", "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "text" in captured.err and "json" in captured.err


def test_export_fan_round_trip(tmp_path, capsys):
    out_file = tmp_path / "fan.json"
    code, _ = run(capsys, "export", "fan-json", "B4", "--which", "hilb",
                  "-o", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    from conicfans.conicatlas import build_entry
    assert {(tuple(tuple(map(int, r)) for r in c["rays"]), tuple(c["colors"]))
            for c in data["cones"]} == {c.key() for c in build_entry("B4").hilb_fan}
    maximal = [c for c in data["cones"] if len(c["rays"]) == 4]
    assert len(maximal) == 2


def test_export_hasse_dot_g2(capsys):
    code, out = run(capsys, "export", "hasse-dot", "G2")
    assert code == 0
    assert out.count("->") == 2 and "Twistor" in out and "NPD" in out


def test_export_constants_csv(capsys, monkeypatch):
    monkeypatch.setattr(conicatlas, "build_entry", None)
    code, out = run(capsys, "export", "constants-csv", "G2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,beta,n"
    assert all(line.split(",")[2].lstrip("-").isdigit() for line in lines[1:])


@pytest.mark.parametrize("label,lines,digest", [
    ("G2", 61, "845ab6750a802b4b383892d49f781fafe607a9564815212d57e1d44146a13be5"),
    ("F4", 817, "f476aced4906bcff7b4bbf67836d35caa0d82ca04665c03806f3553ab41236f6"),
    ("E8", 13441, "38f5c13c29494dc9da014c263df1408ded873d6c0c2005aef88c8693901dbb25"),
    ("B8", 3361, "36ce519bf26e3d15c536514ff19eb66c8b04100b3aa573910ee81a0e17c8d773"),
    ("D8", 2689, "66ba070b720e88e924b74e64cbbc7fe19bd775ab8940e0bb6f69ba0b288f8704"),
])
def test_constants_csv_is_pinned(capsys, label, lines, digest):
    # every signed constant, byte for byte, as the tuple-keyed build gave it
    code, out = run(capsys, "export", "constants-csv", label)
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_export_to_a_file_writes_the_bytes_of_stdout(tmp_path, capsys):
    target = tmp_path / "g2.csv"
    code = cli.main(["export", "constants-csv", "G2", "-o", str(target)])
    assert code == 0 and capsys.readouterr().out == ""
    assert (hashlib.sha256(target.read_bytes()).hexdigest()
            == "845ab6750a802b4b383892d49f781fafe607a9564815212d57e1d44146a13be5")


def test_export_to_unwritable_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code = cli.main(["export", "constants-csv", "G2", "-o", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_contact_eq_report(capsys, monkeypatch):
    monkeypatch.setattr(conicatlas, "build_entry", None)
    code, out = run(capsys, "contact-eq", "G2", "--samples", "400", "--seed", "3")
    assert code == 0
    data = json.loads(out)
    assert data["violations"] == []
    assert data["witnesses"]["line_direction_cubic_vanishes"] is True
    assert data["witnesses"]["general_direction_cubic_vanishes"] is False
    assert set(data["counts"]) == {"samples", "cubic_zero_hits"}


def test_adjoint_data_errors_name_the_label(monkeypatch):
    # contact-eq and constants-csv read the adjoint data outside the atlas,
    # which puts the label on the errors of the cone layer; node 1 of G2 is short
    monkeypatch.setattr(symdata, "contact_node", lambda rd, rho: 1)
    with pytest.raises(StructureError, match=r"^G2: contact node is not long$"):
        symdata.adjoint_data.__wrapped__("G", 2)


@pytest.mark.parametrize("argv", [
    ("contact-eq", "G2", "--samples", "-1"),
    ("verify", "rootcore", "--jobs", "0"),
])
def test_counts_below_one_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2


def test_contact_eq_fails_without_cubic_zero(capsys):
    code, out = run(capsys, "contact-eq", "G2", "--samples", "1")
    assert code == 1
    assert json.loads(out)["counts"]["cubic_zero_hits"] == 0


def test_rank_beyond_goldens_is_a_named_failure(capsys):
    code, out = run(capsys, "--max-rank", "9", "verify", "symdata", "--jobs", "1")
    assert code == 1
    assert "FAIL golden.missing.B9" in out and "FAIL golden.missing.D9" in out
    assert "Traceback" not in out


def _give_e7_the_real_rank_three_form(monkeypatch):
    # the real roots of E7(-25): black nodes 3, 4, 5, 7 and restricted type C3
    real = symdata.satake_of

    def satake_of(series, rank):
        sd = real(series, rank)
        if (series, rank) != ("E", 7):
            return sd
        return symdata.SatakeDiagram(sd.base, series, rank, (
            (1, 0, 0, 0, 0, 0, 0), (1, 2, 2, 2, 1, 0, 1), (1, 2, 3, 4, 3, 2, 2)))

    monkeypatch.setattr(symdata, "satake_of", satake_of)
    monkeypatch.setattr(conicatlas, "satake_of", satake_of)
    monkeypatch.setattr(conicatlas, "build_entry",
                        functools.lru_cache(conicatlas.build_entry.__wrapped__))


def test_a_wrong_satake_diagram_fails_by_name(capsys, monkeypatch):
    _give_e7_the_real_rank_three_form(monkeypatch)
    code = cli.main(["verify", "all", "--jobs", "1"])
    captured = capsys.readouterr()
    failed = [line for line in captured.out.splitlines() if line.startswith("FAIL")]
    assert code == 1
    # a failed entry build fails every atlas line of the label, in its place
    atlas = verify.atlas_names("E7")
    assert len(atlas) == 30
    assert [line.split()[1] for line in failed] == [
        f"{name}.E7" for name in (
            "symdata.satake-black", "symdata.restricted-type",
            "symdata.restriction-map", "symdata.gamma-closed-form",
            "symdata.sigma-involution", "symdata.color-table")] + atlas
    assert "FAIL symdata.restricted-type.E7  (C3 vs F4)" in failed
    assert ("FAIL conicatlas.entry-build.E7  (E7: isotropy equation unsolvable: "
            "union [] differs from target [5])") in failed
    # the entry build's error is the detail of every atlas line it leaves undecided
    assert all(line.endswith("(E7: isotropy equation unsolvable: union [] differs from "
                             "target [5])") for line in failed if line.split()[1] in atlas)
    assert captured.out.splitlines()[-1] == "845 checks, 36 failures"
    assert "Traceback" not in captured.out + captured.err


def test_a_symdata_error_fails_the_checks_it_leaves_undecided(monkeypatch):
    real = symdata.satake_of

    def satake_of(series, rank):   # orthogonal and compatible, but not E7's
        sd = real(series, rank)
        return symdata.SatakeDiagram(sd.base, series, rank, (
            (0, 0, 0, 0, 0, 0, 1), (0, 0, 1, 2, 1, 0, 1), (1, 2, 2, 2, 1, 0, 1),
            (1, 2, 3, 4, 3, 2, 2)))

    monkeypatch.setattr(symdata, "satake_of", satake_of)
    results = verify.symdata_checks("E7", verify.load_golden())
    assert [r.name for r in results] == [f"symdata.{n}.E7" for n in verify._SYMDATA_CHECKS]
    failed = {r.name.split(".")[1]: r.detail for r in results if not r.ok}
    undecided = {"restricted-type", "restriction-map", "gamma-duality",
                 "gamma-closed-form", "color-table"}
    assert set(failed) == undecided | {"satake-black", "sigma-involution"}
    assert all(failed[n].startswith("E7: the restricted Cartan entry") for n in undecided)
    assert failed["sigma-involution"].startswith("alpha4 -> [0, 0, -1, -1, -1, 0, 0] vs ")


def test_every_failed_symdata_check_gives_its_reason(monkeypatch):
    golden = verify.load_golden()
    golden["satake"] = {**golden["satake"], "B3": {
        **golden["satake"]["B3"], "arrows": [[1, 2]], "lambda": {"1": [9]}}}
    real = symdata.restricted_datum

    def doubled_gamma(sd):
        rrd = real(sd)
        return symdata.RestrictedRootDatum(rrd.satake, rrd.restricted, rrd.groups,
                                           rrd.characters,
                                           tuple(tuple(2 * x for x in g) for g in rrd.gamma))

    monkeypatch.setattr(symdata, "restricted_datum", doubled_gamma)
    results = {r.name: r for r in verify.symdata_checks("B3", golden)}
    detail = {name.split(".")[1]: r.detail for name, r in results.items() if not r.ok}
    assert set(detail) == {"satake-arrows", "sigma-involution", "restriction-map",
                           "gamma-duality", "gamma-closed-form"}
    assert detail["satake-arrows"] == "[] vs [[1, 2]]"
    assert detail["restriction-map"] == "{'1': [1], '2': [2], '3': [3]} vs {'1': [9]}"
    assert detail["gamma-duality"] == ("A gamma = [['2', '0', '0'], ['0', '2', '0'], "
                                       "['0', '0', '2']] vs [['1', '0', '0'], "
                                       "['0', '1', '0'], ['0', '0', '1']]")
    assert detail["gamma-closed-form"] == (
        "[['2', '2', '1'], ['2', '4', '2'], ['2', '4', '3']] vs "
        "[['1', '1', '1/2'], ['1', '2', '1'], ['1', '2', '3/2']]")


def _layer_roster(layer, label):
    """The names of one layer's lines on one label, in order."""
    if layer == "atlas":
        return verify.atlas_names(label)
    checks = {"rootcore": verify._ROOTCORE_CHECKS, "symdata": verify._SYMDATA_CHECKS,
              "chevalley": (*verify._CHEVALLEY_CHECKS,
                            *verify._CHEVALLEY_EXTRAS.get(label, ()))}[layer]
    return [f"{layer}.{n}.{label}" for n in checks]


def test_atlas_names_are_the_lines_of_a_passing_label(monkeypatch):
    # every layer puts each line of its roster once, and nothing else: a
    # misspelt put would leave a roster line undecided and decide a line that
    # is never reported
    decide, put_names = verify._decide, []

    def recording(label, names, body, *args):
        def spy(put, *rest):
            def put_and_record(ok, name, detail=""):
                put_names.append(f"{name}.{label}")
                put(ok, name, detail)
            body(put_and_record, *rest)
        return decide(label, names, spy, *args)

    monkeypatch.setattr(verify, "_decide", recording)
    golden = verify.load_golden()
    for label in fixtures.supported_labels(8):
        for layer, check, args in (("rootcore", verify.rootcore_checks, (label,)),
                                   ("symdata", verify.symdata_checks, (label, golden)),
                                   ("atlas", verify.atlas_checks, (label, golden)),
                                   ("chevalley", verify.chevalley_checks, (label,))):
            roster = _layer_roster(layer, label)
            put_names.clear()
            results = check(*args)
            assert all(r.ok for r in results)
            assert [r.name for r in results] == roster
            assert sorted(put_names) == sorted(roster)


_LAYER_FAULTS = {   # a fault inside each layer, and the first line it leaves undecided
    "rootcore": (verify, "longest_element", "rootcore.longest-element-length"),
    "atlas": (lunavust, "ruzzi_smooth", "lunavust.ruzzi-hilb-smooth"),
    "chevalley": (chevalley, "is_extremal", "chevalley.twistor-extremal"),
}


@pytest.mark.parametrize("layer, jobs", [("rootcore", "1"), ("atlas", "1"),
                                         ("chevalley", "1"), ("chevalley", "2")])
def test_a_fault_inside_a_layer_fails_only_the_lines_it_leaves_undecided(
        capsys, monkeypatch, layer, jobs):
    module, name, first = _LAYER_FAULTS[layer]

    def fault(*args, **kwargs):
        raise StructureError(f"{name} is broken")

    monkeypatch.setattr(module, name, fault)
    code = cli.main(["verify", "all", "--jobs", jobs])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    verdicts = {line.split()[1]: line for line in lines[:-1]}
    failed = [line for line in lines if line.startswith("FAIL")]
    assert code == 1
    assert lines[-1] == f"845 checks, {len(failed)} failures" and len(verdicts) == 845
    assert "Traceback" not in captured.out + captured.err
    assert all(line.endswith(f"({name} is broken)") for line in failed)
    for label in fixtures.supported_labels(8):
        roster = _layer_roster(layer, label)
        cut = roster.index(f"{first}.{label}")
        assert all(verdicts[n] == f"ok   {n}" for n in roster[:cut])
        assert all(verdicts[n].startswith(f"FAIL {n}  (") for n in roster[cut:])


@pytest.mark.parametrize("label", ["G2", "B3", "E6"])
def test_a_failed_chevalley_build_fails_every_chevalley_line(monkeypatch, label):
    names = [r.name for r in verify.chevalley_checks(label)]
    assert len(names) == (6 if label in ("G2", "B3") else 5)

    def broken(sc):
        raise StructureError(f"{label}: the Jacobi certificate fails")

    monkeypatch.setattr(chevalley, "_verify_jacobi", broken)
    results = verify.chevalley_checks(label)
    build = f"chevalley.jacobi.{label}"
    assert [r.name for r in results] == names and names[0] == build
    assert not any(r.ok for r in results)
    assert {r.detail for r in results} == {f"{label}: the Jacobi certificate fails"}


def test_the_anticanonical_check_compares_the_stable_rays(capsys, tmp_path, monkeypatch):
    golden = tmp_path / "golden"
    shutil.copytree(verify.golden_dir(), golden)
    faces = json.loads((golden / "faces.json").read_text())
    assert faces["B3"]["hilb"]["1"].pop() == [[-1, -2, -1]]
    (golden / "faces.json").write_text(json.dumps(faces))
    monkeypatch.setenv(verify.GOLDEN_ENV, str(golden))
    code = cli.main(["--max-rank", "3", "verify", "conicatlas", "--jobs", "1"])
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL")]
    assert code == 1
    assert [line.split()[1] for line in failed] == [
        "lunavust.face-lists.hilb.B3", "symdata.anticanonical.hilb.B3"]
    assert failed[1].endswith(", stable rays [[-2, -4, -3], [-2, -2, -1], [-1, -2, -1]] "
                              "vs [[-2, -4, -3], [-2, -2, -1]])")


def test_the_sigma_check_fails_on_a_wrong_golden_diagram(capsys, tmp_path, monkeypatch):
    golden = tmp_path / "golden"
    shutil.copytree(verify.golden_dir(), golden)
    satake = json.loads((golden / "satake.json").read_text())
    satake["E6"]["arrows"] = []
    (golden / "satake.json").write_text(json.dumps(satake))
    monkeypatch.setenv(verify.GOLDEN_ENV, str(golden))
    code = cli.main(["verify", "symdata", "--jobs", "1"])
    captured = capsys.readouterr()
    failed = [line for line in captured.out.splitlines() if line.startswith("FAIL")]
    assert code == 1
    assert [line.split()[1] for line in failed] == [
        "symdata.satake-arrows.E6", "symdata.sigma-involution.E6"]
    assert failed[1].startswith("FAIL symdata.sigma-involution.E6  (alpha1 -> ")
    assert "Traceback" not in captured.out + captured.err
    monkeypatch.delenv(verify.GOLDEN_ENV)
    code = cli.main(["verify", "symdata", "--jobs", "1"])
    out = capsys.readouterr().out
    assert code == 0
    passed = [line.split()[1] for line in out.splitlines() if line.startswith("ok ")]
    assert sum(name.startswith("symdata.sigma-involution.") for name in passed) == 16


def test_verify_scope_and_determinism(capsys):
    code, out1 = run(capsys, "--format", "json", "--max-rank", "4", "verify",
                     "chevalley", "--seed", "7")
    assert code == 0
    code, out2 = run(capsys, "--format", "json", "--max-rank", "4", "verify",
                     "chevalley", "--seed", "7")
    assert code == 0
    assert out1 == out2


def test_verify_rootcore_quick(capsys):
    code, out = run(capsys, "--max-rank", "4", "verify", "rootcore")
    assert code == 0
    assert "0 failures" in out


@pytest.mark.parametrize("filename,mutate", [
    ("gamma.json", lambda d: d["G2"][0].__setitem__(0, "5")),
    ("cosets.json", lambda d: d.__setitem__("G2", 3)),
    ("colors.json", lambda d: d["B4"][0].__setitem__("a", 9)),
    ("satake.json", lambda d: d["E7"].__setitem__("black", [1, 3])),
    ("planes.json", lambda d: d["D4"][0].__setitem__("in_z", False)),
    ("chow_cones.json", lambda d: d["G2"].__setitem__("colors", [1])),
    ("hilb_cones.json", lambda d: d["B4"][0]["rays"].__setitem__(0, [9, 9, 9, 9])),
    ("faces.json", lambda d: d["F4"]["hilb"].__setitem__("1", [])),
    ("hasse.json", lambda d: d["G2"]["hilb"]["nodes"][0].__setitem__("type", "PC")),
    ("orbitcounts.json", lambda d: d["D4"].__setitem__("hilb", 20)),
])
def test_fault_injection_flips_exit_code(tmp_path, monkeypatch, capsys,
                                         filename, mutate):
    src = verify.golden_dir()
    work = tmp_path / "golden"
    shutil.copytree(src, work)
    target = work / filename
    data = json.loads(target.read_text())
    mutate(data)
    target.write_text(json.dumps(data))
    monkeypatch.setenv(verify.GOLDEN_ENV, str(work))
    scope = "symdata" if filename in ("gamma.json", "satake.json", "colors.json") \
        else "conicatlas"
    code, out = run(capsys, "--max-rank", "4", "verify", scope)
    assert code == 1
    assert "FAIL" in out


def test_gamma_fault_names_the_check(tmp_path, monkeypatch, capsys):
    src = verify.golden_dir()
    work = tmp_path / "golden"
    shutil.copytree(src, work)
    target = work / "gamma.json"
    data = json.loads(target.read_text())
    data["B4"][1][1] = "7/2"
    target.write_text(json.dumps(data))
    monkeypatch.setenv(verify.GOLDEN_ENV, str(work))
    code, out = run(capsys, "--max-rank", "4", "verify", "symdata")
    assert code == 1
    assert "gamma" in out


def test_bless_reports_unchanged(tmp_path, monkeypatch, capsys):
    src = verify.golden_dir()
    work = tmp_path / "golden"
    shutil.copytree(src, work)
    monkeypatch.setenv(verify.GOLDEN_ENV, str(work))
    code, out = run(capsys, "verify", "all", "--bless")
    assert code == 0
    assert out.count("unchanged") == len(verify.GOLDEN_FILES)


def _golden_copy(tmp_path, monkeypatch):
    work = tmp_path / "golden"
    shutil.copytree(verify.golden_dir(), work)
    monkeypatch.setenv(verify.GOLDEN_ENV, str(work))
    return work


def _snapshot(path):
    return {f.name: f.read_bytes() for f in sorted(path.iterdir())}


def test_a_restricted_type_without_golden_gamma_fails_by_name(tmp_path, monkeypatch, capsys):
    work = _golden_copy(tmp_path, monkeypatch)
    satake = json.loads((work / "satake.json").read_text())
    satake["B3"]["restricted"] = "C3"
    (work / "satake.json").write_text(json.dumps(satake))
    code = cli.main(["--max-rank", "3", "verify", "symdata", "--jobs", "1"])
    captured = capsys.readouterr()
    failed = [line for line in captured.out.splitlines() if line.startswith("FAIL")]
    assert code == 1
    assert [line.split()[1] for line in failed] == [
        "symdata.restricted-type.B3", "symdata.gamma-closed-form.B3"]
    assert failed[1].endswith("(the golden gamma has no restricted type C3)")
    assert "Traceback" not in captured.out + captured.err


def test_malformed_golden_json_is_a_named_failure(tmp_path, monkeypatch, capsys):
    work = _golden_copy(tmp_path, monkeypatch)
    (work / "planes.json").write_text("{ not json\n")
    code = cli.main(["verify", "rootcore", "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"malformed golden data: {work / 'planes.json'}: ")
    assert len(captured.err.splitlines()) == 1
    # --bless reads the unreadable file as missing and writes it afresh
    code = cli.main(["verify", "--bless"])
    capsys.readouterr()
    assert code == 0
    assert _snapshot(work) == _snapshot(Path(verify.__file__).with_name("golden"))


@pytest.mark.parametrize("argv", [
    ["--max-rank", "4", "verify", "rootcore", "--bless"],
    ["--max-rank", "7", "verify", "all", "--bless"],
    ["verify", "chevalley", "--bless"],
], ids=["rank4-rootcore", "rank7-all", "chevalley"])
def test_bless_below_the_pinned_labels_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    # a narrower scope or rank cap would drop labels from the golden files
    work = _golden_copy(tmp_path, monkeypatch)
    before = _snapshot(work)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "--bless" in captured.err
    assert _snapshot(work) == before


def test_bless_writes_one_json_object(tmp_path, monkeypatch, capsys):
    work = _golden_copy(tmp_path, monkeypatch)
    (work / "cosets.json").write_text("{}\n")
    code, out = run(capsys, "--format", "json", "verify", "--bless")
    assert code == 0
    status = {name: "unchanged" for name in verify.GOLDEN_FILES}
    status["cosets"] = "REWRITTEN"
    assert json.loads(out) == {"bless": status}
    assert _snapshot(work) == _snapshot(Path(verify.__file__).with_name("golden"))


def test_import_generates_no_code_and_loads_no_resources():
    # a clean interpreter (-S: no site hooks that preload modules) importing
    # the CLI and the checks must not pull in dataclasses' code generation
    # (and with it inspect), importlib.resources nor typing
    probe = ("import conicfans.cli, conicfans.verify, sys; "
             "print(sorted({'dataclasses', 'inspect', 'importlib.resources', 'typing'}"
             " & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


CHEVALLEY_LAYER = ["conicfans", "conicfans.chevalley", "conicfans.cli", "conicfans.linalg",
                   "conicfans.rootcore", "conicfans.symdata"]
CONE_LAYER = ["conicfans", "conicfans.cli", "conicfans.conicatlas", "conicfans.fixtures",
              "conicfans.linalg", "conicfans.lunavust", "conicfans.rootcore",
              "conicfans.symdata"]
VERIFY_ROOTCORE = ["conicfans", "conicfans.cli", "conicfans.fixtures", "conicfans.linalg",
                   "conicfans.rootcore", "conicfans.symdata", "conicfans.verify"]
VERIFY_CHEVALLEY = sorted([*VERIFY_ROOTCORE, "conicfans.chevalley"])


@pytest.mark.parametrize("argv,modules", [
    (("contact-eq", "G2", "--samples", "400", "--seed", "3"), CHEVALLEY_LAYER),
    (("export", "constants-csv", "G2"), CHEVALLEY_LAYER),
    (("export", "fan-json", "G2"), CONE_LAYER),
    (("table", "planes", "G2"), CONE_LAYER),
    (("verify", "rootcore", "--jobs", "1"), VERIFY_ROOTCORE),
    (("verify", "chevalley", "--jobs", "1"), VERIFY_CHEVALLEY),
], ids=["contact-eq", "constants-csv", "fan-json", "table", "verify-rootcore",
        "verify-chevalley"])
def test_each_command_loads_only_the_layers_it_runs(argv, modules):
    # each command is a fresh process, which compiles every module it imports
    probe = ("import sys; from conicfans import cli; code = cli.main(sys.argv[1:]); "
             "print(code, *sorted(m for m in sys.modules if m.startswith('conicfans')))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", probe, *argv], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1].split() == ["0", *modules]


def test_loading_the_golden_files_compiles_no_other_layer():
    # the benchmark's cold start: the checks import their layers when they run
    probe = ("import sys; import conicfans.verify as v; v.load_golden(); "
             "print(*sorted(m for m in sys.modules if m.startswith('conicfans')))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["conicfans", "conicfans.linalg", "conicfans.rootcore",
                           "conicfans.verify"]


def test_golden_dir_sits_beside_the_package(monkeypatch):
    monkeypatch.delenv(verify.GOLDEN_ENV, raising=False)
    assert verify.golden_dir() == Path(verify.__file__).parent / "golden"
    assert (verify.golden_dir() / "satake.json").is_file()


@pytest.mark.parametrize("argv", [("table", "cosets"),
                                  ("verify", "rootcore", "--jobs", "1"),
                                  ("export", "constants-csv", "E8")])
def test_closed_stdout_exits_1_quietly(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    read_end, write_end = os.pipe()
    os.close(read_end)   # no reader: the first write fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "conicfans.cli", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_a_reader_that_leaves_after_one_line_ends_the_csv_quietly():
    # the E8 table is far larger than a pipe's buffer, so the writer is still
    # streaming rows when the reader closes its end
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "conicfans.cli", "export",
                             "constants-csv", "E8"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"alpha,beta,n\r\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert err == b""


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace ProcessPoolExecutor by a pool that runs each submission inline.

    Returns the list of the max_workers each pool was asked for.
    """
    import concurrent.futures
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


def test_verify_pool_never_exceeds_the_labels(pool_sizes):
    results = verify.run_checks(scope="rootcore", jobs=64)
    assert pool_sizes == [16]
    assert results == verify.run_checks(scope="rootcore", jobs=1)


def test_verify_pool_checks_the_callers_golden_data(pool_sizes):
    golden = verify.load_golden()
    golden["satake"] = {**golden["satake"],
                        "B3": {**golden["satake"]["B3"], "black": [9]}}
    for jobs in (1, 2):
        failed = [r.name for r in verify.run_checks(scope="symdata", golden=golden,
                                                    jobs=jobs) if not r.ok]
        assert failed == ["symdata.satake-black.B3", "symdata.sigma-involution.B3"]
    assert pool_sizes == [2]


@pytest.mark.parametrize("scope,checks,layers", [
    ("rootcore", 128, []), ("symdata", 144, []), ("chevalley", 82, ["conicfans.chevalley"]),
])
def test_a_process_pool_reports_what_one_process_reports(scope, checks, layers):
    # in a fresh interpreter the pool runs first, so its workers fork from a
    # parent that has run no label: what it has imported, run_checks imported
    probe = ("import sys; import conicfans.verify as v; "
             "pool = v.run_checks(sys.argv[1], jobs=2); "
             "mods = sorted(m for m in sys.modules if m.startswith('conicfans')); "
             "print(pool == v.run_checks(sys.argv[1], jobs=1), len(pool), "
             "all(r.ok for r in pool), *mods)")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", probe, scope], env=env, check=True,
                         capture_output=True, text=True).stdout
    modules = sorted(["conicfans", "conicfans.fixtures", "conicfans.linalg",
                      "conicfans.rootcore", "conicfans.symdata", "conicfans.verify", *layers])
    assert out.split() == ["True", str(checks), "True", *modules]


def test_verify_output_does_not_depend_on_the_seed(capsys):
    reports = []
    for seed in ("3", "17"):
        code, out = run(capsys, "--format", "json", "--seed", seed, "verify",
                        "chevalley", "--jobs", "1")
        assert code == 0
        reports.append(json.loads(out))
    assert [r.pop("seed") for r in reports] == [3, 17]
    assert reports[0] == reports[1]
