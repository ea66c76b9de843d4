import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conicfans import cli, verify
from conicfans.lunavust import fan_from_json_dict


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
    monkeypatch.setattr(cli.conicatlas, "build_entry", None)
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


def test_export_fan_round_trip(tmp_path, capsys):
    out_file = tmp_path / "fan.json"
    code, _ = run(capsys, "export", "fan-json", "B4", "--which", "hilb",
                  "-o", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    fan = fan_from_json_dict(data)
    from conicfans.conicatlas import build_entry
    assert {c.key() for c in fan} == {c.key() for c in build_entry("B4").hilb_fan}
    maximal = [c for c in data["cones"] if len(c["rays"]) == 4]
    assert len(maximal) == 2


def test_export_hasse_dot_g2(capsys):
    code, out = run(capsys, "export", "hasse-dot", "G2")
    assert code == 0
    assert out.count("->") == 2 and "Twistor" in out and "NPD" in out


def test_export_constants_csv(capsys, monkeypatch):
    monkeypatch.setattr(cli.conicatlas, "build_entry", None)
    code, out = run(capsys, "export", "constants-csv", "G2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,beta,n"
    assert all(line.split(",")[2].lstrip("-").isdigit() for line in lines[1:])


@pytest.mark.parametrize("label,lines,digest", [
    ("G2", 61, "845ab6750a802b4b383892d49f781fafe607a9564815212d57e1d44146a13be5"),
    ("F4", 817, "f476aced4906bcff7b4bbf67836d35caa0d82ca04665c03806f3553ab41236f6"),
    ("E8", 13441, "38f5c13c29494dc9da014c263df1408ded873d6c0c2005aef88c8693901dbb25"),
])
def test_constants_csv_is_pinned(capsys, label, lines, digest):
    # every signed constant, byte for byte, as the tuple-keyed build gave it
    code, out = run(capsys, "export", "constants-csv", label)
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_export_to_unwritable_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code = cli.main(["export", "constants-csv", "G2", "-o", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_contact_eq_report(capsys, monkeypatch):
    monkeypatch.setattr(cli.conicatlas, "build_entry", None)
    code, out = run(capsys, "contact-eq", "G2", "--samples", "400", "--seed", "3")
    assert code == 0
    data = json.loads(out)
    assert data["violations"] == []
    assert data["witnesses"]["line_direction_cubic_vanishes"] is True
    assert data["witnesses"]["general_direction_cubic_vanishes"] is False
    assert set(data["counts"]) == {"samples", "cubic_zero_hits"}


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
        assert failed == ["symdata.satake-black.B3"]
    assert pool_sizes == [2]
