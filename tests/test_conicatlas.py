import functools
import json
from collections import Counter

import pytest

from conicfans import conicatlas as ca
from conicfans import fixtures
from conicfans import lunavust as lv
from conicfans import verify
from conicfans.rootcore import (ParabolicSubset, StructureError,
                                UnsupportedAlgebraError, duality_involution)


def test_parse_and_reject():
    assert ca.parse_label("B4") == ("B", 4)
    with pytest.raises(Exception):
        ca.parse_label("X9")
    with pytest.raises(UnsupportedAlgebraError):
        ca.build_entry("A3")
    with pytest.raises(UnsupportedAlgebraError):
        ca.build_entry("C4")


@pytest.mark.parametrize("label,j0,n", [
    ("B3", 2, 3), ("B5", 2, 7), ("D4", 2, 4), ("D6", 2, 8),
    ("E6", 6, 10), ("E7", 6, 16), ("E8", 1, 28), ("F4", 4, 7), ("G2", 2, 2)])
def test_adjoint_data(label, j0, n):
    series, rank = ca.parse_label(label)
    ad = ca.adjoint_data(series, rank)
    assert ad.j0 == j0
    assert ad.n == n


def test_line_stabilizers():
    assert ca.line_stabilizer(ca.adjoint_data("B", 5)).missing == {1, 3}
    assert ca.line_stabilizer(ca.adjoint_data("E", 8)).missing == {2}
    assert ca.line_stabilizer(ca.adjoint_data("G", 2)).missing == {1}


def test_planes_table():
    d4 = ca.b_stable_planes(ca.adjoint_data("D", 4))
    assert [(p.beta, sorted(p.stabilizer.missing), p.in_z) for p in d4] == [
        (1, [3, 4], True), (3, [1, 4], True), (4, [1, 3], True)]
    g2 = ca.b_stable_planes(ca.adjoint_data("G", 2))
    assert [(p.beta, sorted(p.stabilizer.missing), p.in_z) for p in g2] == [
        (1, [1], False)]
    b3 = ca.b_stable_planes(ca.adjoint_data("B", 3))
    assert [(p.beta, sorted(p.stabilizer.missing), p.in_z) for p in b3] == [
        (1, [3], True), (3, [1, 3], False)]


def test_solve_colors_examples():
    for label, target, expect in [
            ("B5", {1, 3}, {2, 4}),
            ("B3", {1, 3}, {2}),
            ("E6", {2, 3, 4}, {1, 4})]:
        entry = ca.build_entry(label)
        lists = {i: entry.rrd.reps_of(i)
                 for i in range(1, entry.rrd.restricted.rank + 1)}
        theta = duality_involution(entry.ad.g)
        got = ca.solve_colors(entry.rrd, lists, ParabolicSubset(frozenset(target)),
                              theta)
        assert got == frozenset(expect)


def test_solve_colors_contradiction():
    entry = ca.build_entry("B4")
    lists = {i: entry.rrd.reps_of(i) for i in range(1, 5)}
    theta = duality_involution(entry.ad.g)
    with pytest.raises(StructureError):
        ca.solve_colors(entry.rrd, lists, ParabolicSubset(frozenset({1, 2, 5})), theta)


@pytest.mark.parametrize("label", fixtures.supported_labels(6))
def test_entries_build_and_report(label):
    entry = ca.build_entry(label)
    rtype = entry.rrd.restricted.label
    assert len(entry.chow_fan) == len(fixtures.ORBIT_LABELS[rtype]["chow"])
    assert len(entry.hilb_fan) == len(fixtures.ORBIT_LABELS[rtype]["hilb"])
    for scheme in ("chow", "hilb"):
        rep = ca.orbit_report(entry, scheme)
        assert Counter(rep.types) == Counter(fixtures.ORBIT_LABELS[rtype][scheme].values())


def test_chow_cone_matches_table():
    entry = ca.build_entry("E7")
    maxc = lv.maximal_cones(entry.chow_fan, entry.rrd)[0]
    expected = ca.resolve_cone(entry.rrd, ("-g1", "-g4", "l1", "l2", "l4"), (1, 2, 4))
    assert maxc.key() == expected.key()
    assert maxc.colors == frozenset({1, 2, 4})


def test_reducible_divisor_ray():
    # the contact node of the restricted system: 4 on F4, 2 on B3, B4, D4, G2
    labels = [*fixtures.supported_labels(8), "B9", "B10", "B11", "B12",
              "D9", "D10", "D11", "D12"]
    for label in labels:
        entry = ca.build_entry(label)
        r = 4 if label in ("E6", "E7", "E8", "F4") else 2
        assert ca.reducible_node(entry.rrd) == r, label
        assert ca.reducible_divisor_ray(entry) == ca.resolve_ray(entry.rrd, f"-g{r}"), label


def test_double_coset_table():
    table = {label: ca.build_entry(label).double_cosets
             for label in fixtures.supported_labels(6)}
    assert table["D4"] == 8
    assert table["E6"] == 4
    assert table["B6"] == 6


def test_d4_hilb_level_counts():
    entry = ca.build_entry("D4")
    rep = ca.orbit_report(entry, "hilb")
    dims = [c.cone.dim() for c in rep.poset.nodes]
    assert {d: dims.count(d) for d in set(dims)} == {0: 1, 1: 4, 2: 7, 3: 6, 4: 3}


def test_g2_chain_report():
    entry = ca.build_entry("G2")
    rep = ca.orbit_report(entry, "hilb")
    assert rep.types.count("Twistor") == 1
    assert len(rep.poset.nodes) == 3
    assert len(rep.poset.covers) == 2


def test_e7_hilb_type_counts():
    rep = ca.orbit_report(ca.build_entry("E7"), "hilb")
    assert Counter(rep.types) == {"Twistor": 1, "NPC": 1, "PC": 1, "NPR": 2,
                                  "PR": 1, "NPD": 2, "PD": 1}


def test_b4_chow_type_counts():
    rep = ca.orbit_report(ca.build_entry("B4"), "chow")
    assert Counter(rep.types) == {"Twistor": 1, "NPC": 2, "PC": 2, "NPR": 3,
                                  "PR": 2, "DL": 1}


def test_fans_coincide_only_for_g2():
    g2 = ca.build_entry("G2")
    assert {c.key() for c in g2.chow_fan} == {c.key() for c in g2.hilb_fan}
    b4 = ca.build_entry("B4")
    assert {c.key() for c in b4.chow_fan} != {c.key() for c in b4.hilb_fan}


def test_entry_json_round_trip_fan():
    entry = ca.build_entry("D4")
    assert (entry.label, entry.ad.j0, entry.ad.n) == ("D4", 2, 4)
    assert entry.double_cosets == 8
    data = json.loads(json.dumps(lv.fan_to_json_dict(entry.hilb_fan, entry.rrd.space_label)))
    assert {(tuple(tuple(map(int, r)) for r in c["rays"]), tuple(c["colors"]))
            for c in data["cones"]} == {c.key() for c in entry.hilb_fan}
    assert len(ca.orbit_report(entry, "hilb").poset.nodes) == 21


def test_build_entry_names_the_label_in_cone_layer_errors(monkeypatch):
    def failing_kernel(*args):
        raise StructureError("cone {x : E x = 0, M x >= 0} with E = [], M = [] is not pointed")

    monkeypatch.setattr(lv, "feasible", failing_kernel)
    with pytest.raises(StructureError) as info:
        ca.build_entry.__wrapped__("G2")   # past the cache
    assert str(info.value) == ("G2: cone {x : E x = 0, M x >= 0} with E = [], M = [] "
                               "is not pointed")

    def named_kernel(*args):
        raise StructureError("G2: already named")

    monkeypatch.setattr(lv, "feasible", named_kernel)
    with pytest.raises(StructureError) as info:
        ca.build_entry.__wrapped__("G2")
    assert str(info.value) == "G2: already named"


def test_planes_are_computed_once_per_label(monkeypatch):
    calls = []
    real = ca.b_stable_planes

    def counting(ad):
        calls.append(ad.g.label)
        return real(ad)

    monkeypatch.setattr(ca, "b_stable_planes", counting)
    monkeypatch.setattr(ca, "build_entry", functools.lru_cache(ca.build_entry.__wrapped__))
    results = verify.atlas_checks("B3", verify.load_golden())
    assert all(r.ok for r in results)
    assert calls == ["B3"]


def test_orbit_layer_errors_name_the_label_once(monkeypatch):
    entry = ca.build_entry("B3")
    real = ca._conic_type

    def wrong_closed_chow(entry, scheme, cone, closed):
        t = real(entry, scheme, cone, closed)
        return "PD" if (entry.label, scheme, t) == ("B3", "chow", "DL") else t

    monkeypatch.setattr(ca, "_conic_type", wrong_closed_chow)
    with pytest.raises(StructureError) as info:
        ca.orbit_report(entry, "chow")
    message = str(info.value)
    assert message == "B3: closed orbit carries label PD"
    failed = {r.name: r.detail for r in verify.atlas_checks("B3", verify.load_golden())
              if not r.ok}
    # the message is given once, under orbit-labels; the hasse line points there
    assert failed == {"conicatlas.orbit-labels.chow.B3": message,
                      "conicatlas.hasse.chow.B3":
                          "no orbit report, see conicatlas.orbit-labels.chow.B3"}


def test_a_failing_orbit_report_keeps_its_hasse_line(monkeypatch):
    # every label keeps its check lines when the orbit layer fails
    _move_the_reducible_ray(monkeypatch)
    golden = verify.load_golden()
    results = [r for label in fixtures.supported_labels(8)
               for r in verify.atlas_checks(label, golden)]
    hasse = [r for r in results if r.name.startswith("conicatlas.hasse.")]
    assert (len(results), len(hasse)) == (491, 32)
    assert any(not r.ok for r in hasse)


def _drop_a_planar_generator(monkeypatch):
    # the first plane of restricted type B4 leaves the variety, and with it
    # its planar generator
    real = ca.b_stable_planes

    def flipped(ad):
        first, *rest = real(ad)
        if fixtures.family_kind(ad.series, ad.rank) == "B4":
            first = ca.BStablePlane(first.beta, first.stabilizer, not first.in_z)
        return (first, *rest)

    monkeypatch.setattr(ca, "b_stable_planes", flipped)
    monkeypatch.setattr(ca, "build_entry", functools.lru_cache(ca.build_entry.__wrapped__))


def _move_the_reducible_ray(monkeypatch):
    # restricted type B4 gets -g1 and l1 for -g2 and l2
    real = ca.reducible_node
    monkeypatch.setattr(ca, "reducible_node",
                        lambda rrd: 1 if rrd.restricted.label == "B4" else real(rrd))


def _turn_off_the_dl_branch(monkeypatch):
    real = ca._conic_type
    monkeypatch.setattr(ca, "_conic_type",
                        lambda entry, scheme, cone, closed: real(entry, scheme, cone, False))


@pytest.mark.parametrize("mutate,fails", [
    (_drop_a_planar_generator, "conicatlas.hasse."),
    # the next two break a `_check_labels` invariant before the golden
    # comparison: a PR of codimension two, and a PD on the closed Chow orbit
    (_move_the_reducible_ray, "conicatlas.orbit-labels."),
    (_turn_off_the_dl_branch, "conicatlas.orbit-labels.chow."),
])
def test_each_input_of_the_conic_type_rule_is_pinned(monkeypatch, mutate, fails):
    golden = verify.load_golden()
    mutate(monkeypatch)
    failed = [r.name for label in fixtures.supported_labels(8)
              for r in verify.atlas_checks(label, golden) if not r.ok]
    assert any(name.startswith(fails) for name in failed), failed


@pytest.mark.parametrize("label", fixtures.supported_labels(8))
def test_covers_are_the_transitive_reduction(label):
    nx = pytest.importorskip("networkx")
    entry = ca.build_entry(label)
    for fan in (entry.chow_fan, entry.hilb_fan):
        poset = lv.orbit_poset(fan, entry.rrd)
        dag = nx.DiGraph(poset.less)
        dag.add_nodes_from(range(len(poset.nodes)))
        assert sorted(nx.transitive_reduction(dag).edges) == list(poset.covers)


def test_the_orbit_keys_are_the_one_source_of_the_orbit_golden_files(monkeypatch):
    base = verify.golden_payload(3)
    hilb = fixtures.ORBIT_LABELS["B3"]["hilb"]
    monkeypatch.setitem(fixtures.ORBIT_LABELS["B3"], "hilb",
                        {k: t for k, t in hilb.items() if k != ("-g2", "l2")})
    cut = verify.golden_payload(3)
    changed = {name for name in verify.GOLDEN_FILES if cut[name] != base[name]}
    assert changed == {"faces", "orbitcounts", "hasse"}
    assert cut["orbitcounts"]["B3"]["hilb"] == 8
    assert [label for label in base["hasse"]
            if cut["hasse"][label] != base["hasse"][label]] == ["B3"]
