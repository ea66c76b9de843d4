"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic is exact, so every comparison is equality; the only
tolerances are the stated wall-clock budgets.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

import pytest

import conicfans
from conicfans import chevalley, conicatlas, fixtures, lunavust, symdata, verify
from conicfans.linalg import identity
from conicfans.rootcore import ParabolicSubset, build_root_datum, duality_involution

LABELS = fixtures.supported_labels(8)
GOLDEN = verify.load_golden()


def _report(num, text, ok):
    print(f"criterion {num} ({text}): {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def derived_golden():
    return json.loads(json.dumps(verify.golden_payload(8)))


@pytest.mark.parametrize("name", verify.GOLDEN_FILES)
def test_golden_files_match_the_fixtures(name, derived_golden):
    # `verify --bless` writes golden_payload(8); the shipped files must not drift from it
    assert verify.load_golden()[name] == derived_golden[name]


def test_criterion_01_satake_table():
    t0 = time.monotonic()
    ok = True
    for label in LABELS:
        series, rank = conicatlas.parse_label(label)
        sd = symdata.satake_of(series, rank)
        rrd = symdata.restricted_datum(sd)
        gold = GOLDEN["satake"][label]
        gs = [f"{s}{r}" for s, r in
              symdata.g_fixed_subalgebra_components(series, rank)]
        lam = {str(i): list(rrd.reps_of(i))
               for i in range(1, rrd.restricted.rank + 1)}
        ok &= gs == gold["gsigma"]
        ok &= rrd.restricted.label == gold["restricted"]
        ok &= lam == gold["lambda"]
        ok &= sorted(sd.black) == gold["black"]
        ok &= [list(p) for p in sd.arrows] == gold["arrows"]
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    _report(1, f"restriction table, {elapsed:.2f}s", ok)


def test_criterion_02_gamma_duality():
    ok = True
    for label in LABELS:
        series, rank = conicatlas.parse_label(label)
        rrd = symdata.restricted_datum(symdata.satake_of(series, rank))
        a = rrd.restricted.cartan
        m = rrd.restricted.rank
        for j, g in enumerate(rrd.gamma):
            for i in range(m):
                ok &= sum(a[i][k] * g[k] for k in range(m)) == (1 if i == j else 0)
        closed = fixtures.gamma_closed_form(rrd.restricted.label)
        ok &= [list(g) for g in rrd.gamma] == [list(map(Q, row)) for row in closed]
    _report(2, "dual basis duality and closed forms", ok)


def test_criterion_03_cone_tables():
    ok = True
    for label in LABELS:
        entry = conicatlas.build_entry(label)
        rrd = entry.rrd

        def payload(c):
            return {"rays": sorted(list(r) for r in lunavust.extremal_rays(c.cone)),
                    "colors": sorted(c.colors)}

        chow_max = lunavust.maximal_cones(entry.chow_fan, rrd)
        ok &= len(chow_max) == 1
        ok &= payload(chow_max[0]) == GOLDEN["chow_cones"][label]
        hilb_max = sorted((payload(c) for c in
                           lunavust.maximal_cones(entry.hilb_fan, rrd)),
                          key=lambda d: (d["rays"], d["colors"]))
        ok &= hilb_max == GOLDEN["hilb_cones"][label]
        ok &= (len(hilb_max) == 1) == (entry.series in ("E", "F", "G"))
        for fan in (entry.chow_fan, entry.hilb_fan):
            ok &= lunavust.is_colored_fan(fan, rrd).ok
            ok &= all(lunavust.is_pointed(c.cone) for c in fan)
            ok &= lunavust.is_complete(fan, rrd)
    _report(3, "colored cone tables, axioms, completeness", ok)


def test_criterion_04_face_lists():
    ok = True
    for label in LABELS:
        entry = conicatlas.build_entry(label)
        for scheme, fan in (("chow", entry.chow_fan), ("hilb", entry.hilb_fan)):
            got = verify._face_payload(entry, fan)
            ok &= got == GOLDEN["faces"][label][scheme]
    _report(4, "colored face lists by dimension", ok)


def test_criterion_05_orbit_counts():
    ok = True
    for label in LABELS:
        entry = conicatlas.build_entry(label)
        counts = GOLDEN["orbitcounts"][label]
        ok &= len(entry.chow_fan) == counts["chow"]
        ok &= len(entry.hilb_fan) == counts["hilb"]
        same = {c.key() for c in entry.chow_fan} == {c.key() for c in entry.hilb_fan}
        ok &= same == (label == "G2")
    _report(5, "orbit counts and coincidence only for G2", ok)


def test_criterion_06_double_cosets():
    t0 = time.monotonic()
    expected_rows = dict(zip(fixtures.FAMILY_KEYS,
                             (6, 4, 6, 6, 8, 4, 4, 4, 4, 2)))
    ok = True
    for label in LABELS:
        series, rank = conicatlas.parse_label(label)
        entry = conicatlas.build_entry(label)
        ok &= entry.double_cosets == expected_rows[fixtures.family_key(series, rank)]
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    _report(6, f"double coset counts, {elapsed:.2f}s", ok)


def test_criterion_07_color_table():
    ok = True
    for label in LABELS:
        series, rank = conicatlas.parse_label(label)
        rrd = symdata.restricted_datum(symdata.satake_of(series, rank))
        got = [{"color": c.index, "type": c.color_type, "a": c.a_coeff,
                "spherical": list(c.spherical_root)}
               for c in symdata.color_table(rrd)]
        ok &= got == GOLDEN["colors"][label]
        if series == "B" and rank >= 5:
            ok &= got[3]["a"] == 2 * rank - 7
        if series == "D" and rank >= 6:
            ok &= got[3]["a"] == 2 * (rank - 4)
    _report(7, "spherical roots, color types, coefficients", ok)


def test_criterion_08_smoothness():
    ok = True
    for label in LABELS:
        entry = conicatlas.build_entry(label)
        rrd = entry.rrd
        for c in lunavust.maximal_cones(entry.hilb_fan, rrd):
            ok &= lunavust.ruzzi_smooth(c, rrd).smooth
        chow_max = lunavust.maximal_cones(entry.chow_fan, rrd)[0]
        ok &= lunavust.ruzzi_smooth(chow_max, rrd).smooth == (label == "G2")
        for fx in fixtures.RUZZI_FIXTURES[rrd.restricted.label]:
            good, why = verify._verify_ruzzi_fixture(rrd, fx)
            ok &= good
    _report(8, "smoothness criterion and reference bases", ok)


def test_criterion_09_isotropy_equations():
    ok = True
    for label in LABELS:
        series, rank = conicatlas.parse_label(label)
        entry = conicatlas.build_entry(label)
        rrd = entry.rrd
        theta = duality_involution(entry.ad.g)
        lists = {i: rrd.reps_of(i) for i in range(1, rrd.restricted.rank + 1)}
        twisted = {str(i): sorted({theta[w] for w in rrd.reps_of(i)})
                   for i in range(1, rrd.restricted.rank + 1)}
        ok &= twisted == GOLDEN["satake"][label]["lambda"]
        chow_f = conicatlas.solve_colors(
            rrd, lists, conicatlas.line_stabilizer(entry.ad), theta)
        ok &= sorted(chow_f) == GOLDEN["chow_cones"][label]["colors"]
        line = fixtures.expected_line_stabilizer(series, rank)
        targets = [line | frozenset(p["stabilizer"])
                   for p in fixtures.expected_planes(series, rank)]
        for target, (syms, cols) in zip(targets, fixtures.HILB_CONES[rrd.restricted.label]):
            f = conicatlas.solve_colors(rrd, lists, ParabolicSubset(target), theta)
            ok &= f == frozenset(cols)
    _report(9, "isotropy equations reproduce the color sets", ok)


def test_criterion_10_chevalley_suite():
    t0 = time.monotonic()
    ok = True
    e8_elapsed = 0.0
    for label in LABELS:
        series, rank = conicatlas.parse_label(label)
        t1 = time.monotonic()
        results = verify.chevalley_checks(label)
        if label == "E8":
            e8_elapsed = time.monotonic() - t1
        ok &= all(r.ok for r in results)
    ok &= e8_elapsed < 60.0
    elapsed = time.monotonic() - t0
    _report(10, f"bracket engine suite, E8 {e8_elapsed:.1f}s of {elapsed:.1f}s", ok)


def test_criterion_11_end_to_end(tmp_path):
    # the children import the package from the same source tree as this test
    src = str(Path(conicfans.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "conicfans.cli", "verify", "all", "--jobs", "4"],
        capture_output=True, text=True, env=env)
    elapsed = time.monotonic() - t0
    ok = proc.returncode == 0 and elapsed < 180.0
    lastline = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
    count = int(lastline.split()[0]) if ok else 0
    ok &= count >= 200

    # a single perturbed fixture value must flip the exit code
    work = tmp_path / "golden"
    shutil.copytree(verify.golden_dir(), work)
    data = json.loads((work / "cosets.json").read_text())
    data["B4"] = 7
    (work / "cosets.json").write_text(json.dumps(data))
    proc2 = subprocess.run(
        [sys.executable, "-m", "conicfans.cli", "--max-rank", "4",
         "verify", "conicatlas"],
        capture_output=True, text=True,
        env={**env, verify.GOLDEN_ENV: str(work)})
    ok &= proc2.returncode == 1
    _report(11, f"verify all: {count} checks in {elapsed:.0f}s, fault flips", ok)
