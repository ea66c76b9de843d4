import itertools
from fractions import Fraction as Q

import pytest

from conicfans import conicatlas
from conicfans import lunavust as lv
from conicfans import symdata as sy
from conicfans.linalg import feasible
from conicfans.rootcore import StructureError


def rrd_of(series, rank):
    return sy.restricted_datum(sy.satake_of(series, rank))


def neg(v):
    return tuple(-x for x in v)


def unit(i, m):
    return tuple(Q(1) if k == i - 1 else Q(0) for k in range(m))


def test_extremal_rays_drop_interior_generators():
    cone = lv.QCone.of([(1, 0), (0, 1), (1, 1)])
    assert lv.extremal_rays(cone) == ((0, 1), (1, 0))
    single = lv.QCone.of([(2, 4)])
    assert lv.extremal_rays(single) == ((1, 2),)


def test_extremal_rays_reject_nonpointed():
    with pytest.raises(StructureError):
        lv.extremal_rays(lv.QCone.of([(1, 0), (-1, 0), (0, 1)]))
    assert not lv.is_pointed(lv.QCone.of([(1, 0), (-1, 0), (0, 1)]))


def test_b4_gamma3_is_absorbed():
    from conicfans.linalg import primitive
    rrd = rrd_of("B", 5)
    g = rrd.gamma
    cone = lv.QCone.of([neg(g[0]), neg(g[1]), neg(g[3]), unit(2, 4), unit(4, 4)])
    rays = lv.extremal_rays(cone)
    assert lv.cone_contains(cone, neg(g[2]))
    assert primitive(neg(g[2])) not in rays
    # the identification behind the absorption: -g3 = -g4 + l4 / 2
    diff = tuple(a - b for a, b in zip(neg(g[2]), neg(g[3])))
    assert diff == tuple(x / 2 for x in unit(4, 4))


def test_colored_cone_validity_g2():
    rrd = rrd_of("G", 2)
    g = rrd.gamma
    ok = lv.ColoredCone(lv.QCone.of([neg(g[1]), unit(2, 2)]), frozenset({2}))
    assert lv.is_colored_cone(ok, rrd, strict=True).ok
    ray_only = lv.ColoredCone(lv.QCone.of([neg(g[1])]), frozenset())
    assert lv.is_colored_cone(ray_only, rrd).ok
    zero = lv.ColoredCone(lv.QCone(()), frozenset())
    assert lv.is_colored_cone(zero, rrd).ok
    bad = lv.ColoredCone(lv.QCone.of([unit(2, 2)]), frozenset({2}))
    chk = lv.is_colored_cone(bad, rrd)
    assert not chk.ok
    assert any("valuation" in d for d in chk.diagnostics)


def test_colored_faces_counts():
    rrd = rrd_of("G", 2)
    g = rrd.gamma
    chow = lv.ColoredCone(lv.QCone.of([neg(g[1]), unit(2, 2)]), frozenset({2}))
    assert len(lv.colored_faces(chow, rrd)) == 3

    rrd4 = rrd_of("D", 4)
    g4 = rrd4.gamma
    cone = lv.ColoredCone(
        lv.QCone.of([neg(v) for v in g4] + [unit(2, 4)]), frozenset({2}))
    assert len(lv.colored_faces(cone, rrd4)) == 15

    rrdf = rrd_of("F", 4)
    gf = rrdf.gamma
    conef = lv.ColoredCone(
        lv.QCone.of([neg(gf[0]), neg(gf[3]), unit(1, 4), unit(2, 4), unit(4, 4)]),
        frozenset({1, 2, 4}))
    assert len(lv.colored_faces(conef, rrdf)) == 7


def test_fan_axioms_and_idempotent_union():
    rrd = rrd_of("B", 4)
    g = rrd.gamma
    c1 = lv.ColoredCone(lv.QCone.of([neg(g[1]), neg(g[3]), unit(2, 4), unit(4, 4)]),
                        frozenset({2, 4}))
    fan = lv.ColoredFan.of(list(lv.colored_faces(c1, rrd)) + [c1, c1])
    assert lv.is_colored_fan(fan, rrd).ok

    chow = lv.ColoredCone(
        lv.QCone.of([neg(g[0]), neg(g[1]), neg(g[3]), unit(2, 4), unit(4, 4)]),
        frozenset({2, 4}))
    overlap = lv.ColoredFan.of(
        list(lv.colored_faces(chow, rrd)) + [chow]
        + list(lv.colored_faces(c1, rrd)) + [c1])
    assert not lv.is_colored_fan(overlap, rrd).ok


def test_completeness():
    rrd = rrd_of("B", 4)
    g = rrd.gamma
    c1 = lv.ColoredCone(lv.QCone.of([neg(g[1]), neg(g[3]), unit(2, 4), unit(4, 4)]),
                        frozenset({2, 4}))
    c2 = lv.ColoredCone(lv.QCone.of([neg(g[0]), neg(g[1]), neg(g[3]), unit(2, 4)]),
                        frozenset({2}))
    both = lv.ColoredFan.of(
        [c1, c2] + list(lv.colored_faces(c1, rrd)) + list(lv.colored_faces(c2, rrd)))
    assert lv.is_complete(both, rrd)
    only1 = lv.ColoredFan.of([c1] + list(lv.colored_faces(c1, rrd)))
    assert not lv.is_complete(only1, rrd)


def test_orbit_poset_is_graded_chain_for_g2():
    rrd = rrd_of("G", 2)
    g = rrd.gamma
    cone = lv.ColoredCone(lv.QCone.of([neg(g[1]), unit(2, 2)]), frozenset({2}))
    fan = lv.ColoredFan.of([cone] + list(lv.colored_faces(cone, rrd)))
    poset = lv.orbit_poset(fan, rrd)
    assert poset.node_count() == 3
    assert len(poset.covers) == 2
    assert poset.levels_by_dim() == {0: 1, 1: 1, 2: 1}


def test_zero_only_fan():
    rrd = rrd_of("G", 2)
    fan = lv.ColoredFan.of([lv.ColoredCone(lv.QCone(()), frozenset())])
    poset = lv.orbit_poset(fan, rrd)
    assert poset.node_count() == 1
    assert not poset.covers


def test_ruzzi_chow_cone_failures():
    rrd = rrd_of("B", 4)
    g = rrd.gamma
    chow = lv.ColoredCone(
        lv.QCone.of([neg(g[0]), neg(g[1]), neg(g[3]), unit(2, 4), unit(4, 4)]),
        frozenset({2, 4}))
    rep = lv.ruzzi_smooth(chow, rrd)
    assert not rep.smooth and not rep.cond2

    rrdf = rrd_of("F", 4)
    gf = rrdf.gamma
    chowf = lv.ColoredCone(
        lv.QCone.of([neg(gf[0]), neg(gf[3]), unit(1, 4), unit(2, 4), unit(4, 4)]),
        frozenset({1, 2, 4}))
    repf = lv.ruzzi_smooth(chowf, rrdf)
    assert not repf.smooth and not repf.cond1


def test_fan_json_round_trip():
    rrd = rrd_of("B", 4)
    g = rrd.gamma
    c1 = lv.ColoredCone(lv.QCone.of([neg(g[1]), neg(g[3]), unit(2, 4), unit(4, 4)]),
                        frozenset({2, 4}))
    fan = lv.ColoredFan.of([c1] + list(lv.colored_faces(c1, rrd)))
    data = lv.fan_to_json_dict(fan, rrd.space_label)
    back = lv.fan_from_json_dict(data)
    assert {c.key() for c in back} == {c.key() for c in fan}
    assert lv.fan_to_json_dict(back, rrd.space_label) == data


def test_dot_export_mentions_all_nodes():
    rrd = rrd_of("G", 2)
    g = rrd.gamma
    cone = lv.ColoredCone(lv.QCone.of([neg(g[1]), unit(2, 2)]), frozenset({2}))
    fan = lv.ColoredFan.of([cone] + list(lv.colored_faces(cone, rrd)))
    poset = lv.orbit_poset(fan, rrd)
    dot = lv.poset_to_dot(poset, name="g2")
    assert dot.count("label=") == 3
    assert dot.count("->") == 2


def _faces_by_facet_subsets(cc, rrd):
    """Reference: one H-system per subset of facets, relint meeting V by `feasible`."""
    out = [lv.ColoredCone(lv.QCone(()), frozenset()).key()]
    if not cc.cone.generators:
        return out
    dim = cc.cone.ambient_dim
    eqs, facets = lv.hrep(cc.cone)
    cartan = rrd.restricted.cartan
    for k in range(len(facets) + 1):
        for subset in itertools.combinations(range(len(facets)), k):
            rays = lv._rays_of_hcone(
                list(eqs) + [facets[j] for j in subset],
                [facets[j] for j in range(len(facets)) if j not in subset], dim)
            if not rays:
                continue
            # x = sum t_i r_i with every t_i >= 1 and A x <= 0
            ineqs = [[Q(int(i == j)) for j in range(len(rays))] + [Q(-1)]
                     for i in range(len(rays))]
            ineqs += [[-sum(Q(row[c]) * r[c] for c in range(dim)) for r in rays] + [Q(0)]
                      for row in cartan]
            if not feasible([], ineqs, len(rays)):
                continue
            face = lv.QCone.of(rays)
            colors = tuple(sorted(i for i in cc.colors
                                  if lv.cone_contains(face, lv.color_point(rrd, i))))
            out.append((rays, colors))
    return sorted(set(out))


@pytest.mark.parametrize("label", ["B3", "B4", "D4", "E6", "G2"])
def test_colored_faces_match_facet_subset_enumeration(label):
    entry = conicatlas.build_entry(label)
    for fan in (entry.chow_fan, entry.hilb_fan):
        for cc in fan:
            got = [f.key() for f in lv.colored_faces(cc, entry.rrd)]
            assert got == _faces_by_facet_subsets(cc, entry.rrd)


def test_colored_faces_solve_no_h_system(monkeypatch):
    rrd = rrd_of("D", 4)
    cc = lv.ColoredCone(
        lv.QCone.of([neg(v) for v in rrd.gamma] + [unit(2, 4)]), frozenset({2}))
    monkeypatch.setattr(lv, "_faces_memo", {})
    monkeypatch.setattr(lv, "_rays_memo", {})
    lv.extremal_rays(cc.cone)
    lv.hrep(cc.cone)

    def solve(*args):
        raise AssertionError("colored_faces solved an H-system")

    monkeypatch.setattr(lv, "_rays_of_hcone", solve)
    assert len(lv.colored_faces(cc, rrd)) == 15


def test_fan_memo_keys_hold_every_cone():
    b4, b5 = conicatlas.build_entry("B4"), conicatlas.build_entry("B5")
    assert b4.rrd.restricted.cartan == b5.rrd.restricted.cartan
    assert lv.is_colored_fan(b4.hilb_fan, b4.rrd).ok
    maxkeys = {c.key() for c in lv.maximal_cones(b5.hilb_fan, b5.rrd)}
    dropped = next(c for c in b5.hilb_fan
                   if c.cone.generators and c.key() not in maxkeys)
    holed = lv.ColoredFan.of([c for c in b5.hilb_fan if c is not dropped])
    check = lv.is_colored_fan(holed, b5.rrd)
    assert not check.ok
    assert any(d.startswith("missing colored face") for d in check.diagnostics)


def test_structure_errors_name_their_object():
    with pytest.raises(StructureError, match=r"M = \[\(0, 1\)\] is not pointed"):
        lv.extremal_rays(lv.QCone.of([(1, 0), (-1, 0), (0, 1)]))
    rrd = rrd_of("G", 2)
    with pytest.raises(StructureError,
                       match=r"restricted nodes \[1, 1\] is singular "
                             r"\(restricted Cartan \[\(2, -1\), \(-3, 2\)\]\)"):
        lv._factor_fundamental_weights(rrd, [1, 1])
