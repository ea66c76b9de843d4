import copy
import itertools
import json
import random
from fractions import Fraction as Q

import fraction_ref as ref
import pytest

from conicfans import conicatlas, fixtures, verify
from conicfans import lunavust as lv
from conicfans import symdata as sy
from conicfans.linalg import int_nullspace, primitive
from conicfans.rootcore import StructureError, classify_component


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


def test_qcone_stores_primitive_int_generators():
    cone = lv.QCone.of([(Q(2, 3), Q(-4, 3)), (0, 0), (Q(0), Q(5))])
    assert cone.generators == ((1, -2), (0, 1))
    assert all(type(x) is int for g in cone.generators for x in g)
    assert lv.QCone.of([(0, 0)]) == lv.QCone(())


def test_cones_on_the_same_rays_share_one_hrep_entry():
    first = lv.QCone.of([(Q(1, 2), 0), (0, 3)])
    assert first == lv.QCone.of([(1, 0), (0, 1)])
    lv.hrep(first)
    hits = lv.hrep.cache_info().hits
    assert lv.hrep(lv.QCone.of([(1, 0), (0, 1)])) == ((), ((0, 1), (1, 0)))
    assert lv.hrep.cache_info().hits == hits + 1


def test_extremal_rays_reject_nonpointed():
    with pytest.raises(StructureError):
        lv.extremal_rays(lv.QCone.of([(1, 0), (-1, 0), (0, 1)]))
    assert not lv.is_pointed(lv.QCone.of([(1, 0), (-1, 0), (0, 1)]))


def test_b4_gamma3_is_absorbed():
    rrd = rrd_of("B", 5)
    g = rrd.gamma
    cone = lv.QCone.of([neg(g[0]), neg(g[1]), neg(g[3]), unit(2, 4), unit(4, 4)])
    rays = lv.extremal_rays(cone)
    assert lv.cone_contains(cone, primitive(neg(g[2])))
    assert primitive(neg(g[2])) not in rays
    # the identification behind the absorption: -g3 = -g4 + l4 / 2
    diff = tuple(a - b for a, b in zip(neg(g[2]), neg(g[3])))
    assert diff == tuple(x / 2 for x in unit(4, 4))


def test_colored_cone_validity_g2():
    rrd = rrd_of("G", 2)
    g = rrd.gamma
    ok = lv.ColoredCone(lv.QCone.of([neg(g[1]), unit(2, 2)]), frozenset({2}))
    assert lv.is_colored_cone(ok, rrd).ok
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


def _fan_diagnostics_over_all_pairs(fan, rrd):
    """The fan check as it was before faces of one cone were skipped: every pair tested."""
    diags = []
    keys = {c.key() for c in fan}
    for c in fan:
        for f in lv.colored_faces(c, rrd):
            if f.key() not in keys:
                diags.append(f"missing colored face {f.key()} of {c.key()}")
    for a, b in itertools.combinations(list(fan), 2):
        if lv.relints_meet_in_valuation(rrd, a.cone, b.cone):
            diags.append(f"relative interiors of cones {a.key()} and "
                         f"{b.key()} meet inside the valuation cone")
    return tuple(diags)


def test_fan_check_skips_only_pairs_of_faces_of_one_cone():
    rrd = rrd_of("B", 4)
    g = rrd.gamma
    c1 = lv.ColoredCone(lv.QCone.of([neg(g[1]), neg(g[3]), unit(2, 4), unit(4, 4)]),
                        frozenset({2, 4}))
    chow = lv.ColoredCone(
        lv.QCone.of([neg(g[0]), neg(g[1]), neg(g[3]), unit(2, 4), unit(4, 4)]),
        frozenset({2, 4}))
    # two overlapping maximal cones, each with all its faces
    overlap = lv.ColoredFan.of(
        list(lv.colored_faces(chow, rrd)) + list(lv.colored_faces(c1, rrd)))
    check = lv.is_colored_fan.__wrapped__(overlap, rrd)
    assert check.diagnostics == _fan_diagnostics_over_all_pairs(overlap, rrd)
    assert any(d.startswith(f"relative interiors of cones {c1.key()} and {chow.key()}")
               or d.startswith(f"relative interiors of cones {chow.key()} and {c1.key()}")
               for d in check.diagnostics)
    # and on every atlas fan, once per restricted datum
    seen = set()
    for label in fixtures.supported_labels(8):
        entry = conicatlas.build_entry(label)
        for fan in (entry.chow_fan, entry.hilb_fan):
            key = (entry.rrd.restricted.cartan, lv._fan_key(fan))
            if key not in seen:
                seen.add(key)
                got = lv.is_colored_fan.__wrapped__(fan, entry.rrd)
                assert got.ok and got.diagnostics == _fan_diagnostics_over_all_pairs(
                    fan, entry.rrd)


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


def _uncovered_valuation_points(fan, rrd):
    """Points sum c_j primitive(-gamma_j), c_j in 0..3, in no maximal cone.

    An oracle for `is_complete` by sampling V on a grid, one `cone_contains`
    at a time, in place of its Fourier-Motzkin covering test.
    """
    rays = [primitive(neg(g)) for g in rrd.gamma]
    maxc = lv.maximal_cones(fan, rrd)
    out = []
    for cs in itertools.product(range(4), repeat=len(rays)):
        x = tuple(sum(c * r[k] for c, r in zip(cs, rays)) for k in range(len(rays)))
        if any(cs) and not any(lv.cone_contains(m.cone, x) for m in maxc):
            out.append(x)
    return out


def test_completeness_matches_the_grid_oracle():
    entries = {}
    for label in fixtures.supported_labels(8):
        entry = conicatlas.build_entry(label)
        entries.setdefault(entry.rrd.restricted.label, entry)
    assert sorted(entries) == ["B3", "B4", "D4", "F4", "G2"]
    for entry in entries.values():
        for fan in (entry.chow_fan, entry.hilb_fan):
            assert lv.is_complete(fan, entry.rrd)
            assert _uncovered_valuation_points(fan, entry.rrd) == []


@pytest.mark.parametrize("label", ["B3", "B4", "D4"])
def test_one_hilbert_cone_leaves_a_grid_point_uncovered(label):
    entry = conicatlas.build_entry(label)
    for cc in lv.maximal_cones(entry.hilb_fan, entry.rrd):
        fan = conicatlas.fan_with_faces(entry.rrd, [cc])
        assert not lv.is_complete(fan, entry.rrd)
        assert _uncovered_valuation_points(fan, entry.rrd)


def test_orbit_poset_is_graded_chain_for_g2():
    rrd = rrd_of("G", 2)
    g = rrd.gamma
    cone = lv.ColoredCone(lv.QCone.of([neg(g[1]), unit(2, 2)]), frozenset({2}))
    fan = lv.ColoredFan.of([cone] + list(lv.colored_faces(cone, rrd)))
    poset = lv.orbit_poset(fan, rrd)
    assert len(poset.nodes) == 3
    assert len(poset.covers) == 2
    assert sorted(c.cone.dim() for c in poset.nodes) == [0, 1, 2]


def test_zero_only_fan():
    rrd = rrd_of("G", 2)
    fan = lv.ColoredFan.of([lv.ColoredCone(lv.QCone(()), frozenset())])
    poset = lv.orbit_poset(fan, rrd)
    assert len(poset.nodes) == 1
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


@pytest.mark.parametrize("label, colors, detail", [
    ("B4", {3, 4}, ("Levi factor [3, 4] is not of type A",)),
    ("B4", {1, 2, 3, 4}, ("Levi factor [1, 2, 3, 4] is not of type A",
                          "sum of (rank+1) over Levi factors is 5 > 4")),
    ("F4", {2, 3}, ("Levi factor [2, 3] is not of type A",)),
    ("G2", {1, 2}, ("Levi factor [1, 2] is not of type A",
                    "sum of (rank+1) over Levi factors is 3 > 2")),
])
def test_ruzzi_condition1_names_each_failing_levi_factor(label, colors, detail):
    entry = conicatlas.build_entry(label)
    cone = lv.maximal_cones(entry.hilb_fan, entry.rrd)[0].cone
    rep = lv.ruzzi_smooth(lv.ColoredCone(cone, frozenset(colors)), entry.rrd)
    assert not rep.cond1 and rep.cond2
    assert rep.detail == detail + ("a dual pairs incompatibly with the selected colors",)


# Reference for Ruzzi's criterion: the rational dual-basis route that the
# integer witness check replaced.

def _rational_dual_basis(prim):
    """Dual basis (pi coordinates) of the half-coroot basis prim / 2: rows of 2 (P^t)^-1."""
    pinv_t = ref.inverse(list(zip(*prim)))
    return [tuple(2 * x for x in row) for row in pinv_t]


def _rational_fundamental_weights(rrd, order):
    """Fundamental weights of the ordered factor in pi coordinates, one solve each."""
    m = rrd.restricted.rank
    cart = rrd.restricted.cartan
    span_rows = [[Q(cart[s - 1][j]) for j in range(m)] for s in order]
    a = [[Q(cart[s - 1][t - 1]) for s in order] for t in order]
    out = []
    for i in range(len(order)):
        c = ref.solve(a, [int(k == i) for k in range(len(order))], len(order))
        out.append(tuple(sum(coef * row[k] for coef, row in zip(c, span_rows))
                         for k in range(m)))
    return out


def _rational_condition3(rrd, prim, factors, detail):
    m = rrd.restricted.rank
    duals = _rational_dual_basis(prim)
    basis_vecs = [tuple(Q(x, 2) for x in p) for p in prim]
    for yi, y in enumerate(duals):
        for bj, b in enumerate(basis_vecs):
            assert sum(y[k] * b[k] for k in range(m)) == (1 if yi == bj else 0)
        assert all(x.denominator == 1 and x.numerator % 2 == 0 for x in y)

    selected = sorted(set().union(*factors)) if factors else []
    points = {col: unit(col, m) for col in selected}
    pair = {yi: {col: sum(duals[yi][k] * points[col][k] / 2 for k in range(m))
                 for col in selected}
            for yi in range(m)}
    dual_for_color = {}
    for yi in range(m):
        hits = [col for col in selected if pair[yi][col] != 0]
        if not hits:
            continue
        if len(hits) > 1 or pair[yi][hits[0]] != 1:
            detail.append("a dual pairs incompatibly with the selected colors")
            return False
        if hits[0] in dual_for_color:
            detail.append("two duals pair with the same color")
            return False
        dual_for_color[hits[0]] = yi
    if len(dual_for_color) != len(selected):
        detail.append("some selected color has no dual pairing 1 with it")
        return False

    pool = [yi for yi in range(m) if yi not in dual_for_color.values()]

    def factor_ok(order, closer_yi):
        fw = _rational_fundamental_weights(rrd, order)
        l = len(order)
        z = duals[closer_yi]
        for i, col in enumerate(order, start=1):
            y = duals[dual_for_color[col]]
            lhs = tuple(y[k] - Q(i, l + 1) * z[k] for k in range(m))
            if lhs != tuple(2 * x for x in fw[i - 1]):
                return False
        return True

    def backtrack(j, remaining):
        if j == len(factors):
            return True
        path = lv._order_path(rrd, factors[j])
        if path is None:
            return False
        orders = [path] if len(path) == 1 else [path, list(reversed(path))]
        return any(factor_ok(order, closer)
                   and backtrack(j + 1, [x for x in remaining if x != closer])
                   for closer in remaining for order in orders)

    if not backtrack(0, pool):
        detail.append("no admissible indexing of the dual basis exists")
        return False
    return True


def _rational_ruzzi_smooth(cc, rrd):
    m = rrd.restricted.rank
    detail = []
    factors = lv.levi_subsystem_factors(rrd, cc.colors)
    cond1 = True
    for comp in factors:
        if classify_component(rrd.restricted.cartan, [a - 1 for a in comp])[0] != "A":
            cond1 = False
            detail.append(f"Levi factor {comp} is not of type A")
    budget = sum(len(c) + 1 for c in factors)
    if budget > m:
        cond1 = False
        detail.append(f"sum of (rank+1) over Levi factors is {budget} > {m}")
    prim = lv.extremal_rays(cc.cone)
    if len(prim) != m:
        cond2 = False
        detail.append(f"{len(prim)} extremal rays in rank {m}: "
                      "not a simplicial cone of full rank")
    else:
        d = ref.det(prim)
        cond2 = abs(d) == 1
        if not cond2:
            detail.append(f"ray basis determinant {d} is not a unit")
    if cond2:
        cond3 = _rational_condition3(rrd, prim, factors, detail)
    else:
        cond3 = False
        detail.append("condition 3 unevaluated without a lattice basis")
    return lv.RuzziReport(cond1 and cond2 and cond3, cond1, cond2, cond3, tuple(detail))


@pytest.mark.parametrize("label", ["B3", "B4", "D4", "F4", "G2"])
def test_ruzzi_smooth_matches_the_rational_reference(label):
    """Every maximal Chow and Hilbert cone, with every set of restricted nodes as colors."""
    entry = conicatlas.build_entry(label)
    rrd = entry.rrd
    m = rrd.restricted.rank
    verdicts = set()
    for fan in (entry.chow_fan, entry.hilb_fan):
        for c in lv.maximal_cones(fan, rrd):
            for k in range(m + 1):
                for colors in itertools.combinations(range(1, m + 1), k):
                    cc = lv.ColoredCone(c.cone, frozenset(colors))
                    rep = lv.ruzzi_smooth(cc, rrd)
                    assert rep == _rational_ruzzi_smooth(cc, rrd)
                    verdicts.add((rep.smooth, rep.cond3))
    assert {(True, True), (False, False)} <= verdicts


@pytest.mark.parametrize("series, order", [
    ("B", [1, 2]), ("B", [3, 2, 1]), ("F", [1, 2]), ("F", [4, 3]), ("G", [2])])
def test_ruzzi_witness_matches_the_rational_weight_condition(series, order):
    """Factors of rank 2 and 3, which no pinned cone's condition 3 reaches."""
    rrd = rrd_of(series, 2 if series == "G" else 4)
    m, l = rrd.restricted.rank, len(order)
    fw = _rational_fundamental_weights(rrd, order)
    rng = random.Random(l)
    for _ in range(20):
        z = tuple(rng.randint(-4, 4) for _ in range(m))
        ys = [tuple(w[k] + Q(i, l + 1) * z[k] for k in range(m))
              for i, w in enumerate(fw, start=1)]
        assert lv.ruzzi_witness(rrd, order, ys, z)
        i, k = rng.randrange(l), rng.randrange(m)
        bad = list(ys)
        bad[i] = tuple(x + int(j == k) for j, x in enumerate(ys[i]))
        assert not lv.ruzzi_witness(rrd, order, bad, z)


def _fixture_cases():
    """One label per restricted type, with that type's condition-3 witnesses."""
    cases = {}
    for label in ("B3", "B4", "D4", "E6", "G2"):
        entry = conicatlas.build_entry(label)
        rtype = entry.rrd.restricted.label
        cases.setdefault(rtype, (entry.rrd, fixtures.RUZZI_FIXTURES[rtype]))
    assert set(cases) == set(fixtures.RUZZI_FIXTURES)
    return [(rrd, fx) for rrd, fxs in cases.values() for fx in fxs]


def _dual_perturbations(fx, deltas):
    for g, grp in enumerate(fx["groups"]):
        for y, dual in enumerate(grp["duals"]):
            for k in range(len(dual)):
                for delta in deltas:
                    bad = copy.deepcopy(fx)
                    row = list(dual)
                    row[k] += delta
                    bad["groups"][g]["duals"][y] = tuple(row)
                    yield bad


def test_ruzzi_fixture_check_rejects_every_perturbation():
    count = 0
    for rrd, fx in _fixture_cases():
        assert verify._verify_ruzzi_fixture(rrd, fx) == (True, "")
        for b, vec in enumerate(fx["basis"]):
            for k in range(len(vec)):
                bad = copy.deepcopy(fx)
                row = list(vec)
                row[k] += Q(1, 2)
                bad["basis"][b] = tuple(row)
                assert not verify._verify_ruzzi_fixture(rrd, bad)[0]
                count += 1
        for bad in _dual_perturbations(fx, (-2, 2)):
            assert not verify._verify_ruzzi_fixture(rrd, bad)[0]
            count += 1
    assert count > 100


def test_ruzzi_fixture_check_names_an_odd_dual_entry():
    """Halving by truncation would accept y + e_k for an even entry y_k >= 0."""
    for rrd, fx in _fixture_cases():
        for bad in _dual_perturbations(fx, (-1, 1)):
            assert verify._verify_ruzzi_fixture(rrd, bad) == (
                False, "a reference dual is not twice an integer vector")


def test_fan_json_round_trip():
    rrd = rrd_of("B", 4)
    g = rrd.gamma
    c1 = lv.ColoredCone(lv.QCone.of([neg(g[1]), neg(g[3]), unit(2, 4), unit(4, 4)]),
                        frozenset({2, 4}))
    fan = lv.ColoredFan.of([c1] + list(lv.colored_faces(c1, rrd)))
    data = json.loads(json.dumps(lv.fan_to_json_dict(fan, rrd.space_label)))
    assert data["space"] == rrd.space_label and len(data["cones"]) == len(fan.cones)
    assert {(tuple(tuple(map(int, r)) for r in c["rays"]), tuple(c["colors"]))
            for c in data["cones"]} == {c.key() for c in fan}


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
    """Reference: one H-system per subset of facets, relint meeting V by minimal faces."""
    out = [lv.ColoredCone(lv.QCone(()), frozenset()).key()]
    if not cc.cone.generators:
        return out
    dim = cc.cone.ambient_dim
    eqs, facets = lv.hrep(cc.cone)
    for k in range(len(facets) + 1):
        for subset in itertools.combinations(range(len(facets)), k):
            rays = lv._rays_of_hcone(
                list(eqs) + [facets[j] for j in subset],
                [facets[j] for j in range(len(facets)) if j not in subset], dim)
            face = lv.QCone.of(rays)
            if not rays or not _relint_meets_by_rays(rrd, face):
                continue
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


# References for the cone checks: the H/V-conversion route they replaced.

def _intersect_by_hrep(c1, c2):
    if not c1.generators or not c2.generators:
        return lv.QCone(())
    e1, f1 = lv.hrep(c1)
    e2, f2 = lv.hrep(c2)
    rays = lv._rays_of_hcone([list(r) for r in e1 + e2], [list(r) for r in f1 + f2],
                             c1.ambient_dim)
    return lv.QCone.of(rays)


def _cone_equal_by_hrep(c1, c2):
    if not c1.generators or not c2.generators:
        return not c1.generators and not c2.generators
    return (all(lv.cone_contains(c2, g) for g in c1.generators)
            and all(lv.cone_contains(c1, g) for g in c2.generators))


def _is_pointed_by_hrep(cone):
    if not cone.generators:
        return True
    eqs, facets = lv.hrep(cone)
    return not int_nullspace([list(r) for r in eqs + facets], cone.ambient_dim)


def _relint_meets_by_rays(rrd, cone):
    """x = sum t_i g_i with every t_i >= 1 and A x <= 0, by the minimal faces."""
    if not cone.generators:
        return True
    gens = cone.generators
    ineqs = [[Q(int(i == j)) for j in range(len(gens))] + [Q(-1)] for i in range(len(gens))]
    ineqs += [[-sum(Q(a) * x for a, x in zip(row, g)) for g in gens] + [Q(0)]
              for row in rrd.restricted.cartan]
    return ref.feasible([], ineqs, len(gens))


def _colored_cone_diagnostics_by_hrep(cc, rrd):
    diags = []
    cone = cc.cone
    eps = {i: lv.color_point(rrd, i) for i in sorted(cc.colors)}
    for i, e in eps.items():
        if cone.generators and not lv.cone_contains(cone, e):
            diags.append(f"color D{i} not inside the cone")
        if not cone.generators:
            diags.append(f"color D{i} attached to the zero cone")
    if cone.generators and not diags:
        vpart = _intersect_by_hrep(cone, lv.valuation_cone(rrd))
        regen = lv.QCone.of(list(eps.values()) + list(vpart.generators))
        if not _cone_equal_by_hrep(cone, regen):
            diags.append("cone is not generated by its colors and its valuation part")
    if not _relint_meets_by_rays(rrd, cone):
        diags.append("relative interior misses the valuation cone")
    if not _is_pointed_by_hrep(cone):
        diags.append("cone is not strictly convex")
    return tuple(diags)


@pytest.mark.parametrize("label", ["B3", "B4", "D4", "E6", "G2"])
def test_cone_checks_match_hrep_references_on_fans(label):
    entry = conicatlas.build_entry(label)
    for fan in (entry.chow_fan, entry.hilb_fan):
        for cc in fan:
            check = lv.is_colored_cone(cc, entry.rrd)
            assert check.diagnostics == _colored_cone_diagnostics_by_hrep(cc, entry.rrd)
            assert check.ok
            assert lv.is_pointed(cc.cone) == _is_pointed_by_hrep(cc.cone) is True


def _hand_made_cones():
    g2, b4 = rrd_of("G", 2), rrd_of("B", 4)
    gg, gb = g2.gamma, b4.gamma
    yield g2, lv.ColoredCone(lv.QCone.of([(1, 0), (-1, 0), (0, 1)]), frozenset()), \
        ("cone is not generated by its colors and its valuation part",
         "relative interior misses the valuation cone", "cone is not strictly convex")
    yield g2, lv.ColoredCone(lv.QCone.of([(1, 0), (-1, 0), (0, 1), (0, -1)]),
                             frozenset({1, 2})), ("cone is not strictly convex",)
    yield g2, lv.ColoredCone(lv.QCone.of([(1, 1), (-1, -1)]), frozenset()), \
        ("cone is not generated by its colors and its valuation part",
         "cone is not strictly convex")
    yield b4, lv.ColoredCone(lv.QCone.of([neg(v) for v in gb] + [unit(2, 4), neg(unit(2, 4))]),
                             frozenset({2})), \
        ("cone is not generated by its colors and its valuation part",
         "cone is not strictly convex")
    # V plus a ray outside it: generated once the color D1 supplies that ray
    beyond_v = lv.QCone.of([neg(gg[0]), neg(gg[1]), unit(1, 2)])
    yield g2, lv.ColoredCone(beyond_v, frozenset()), \
        ("cone is not generated by its colors and its valuation part",)
    yield g2, lv.ColoredCone(beyond_v, frozenset({1})), ()
    yield g2, lv.ColoredCone(lv.QCone.of([neg(gg[1]), unit(1, 2)]), frozenset()), \
        ("cone is not generated by its colors and its valuation part",
         "relative interior misses the valuation cone")
    # (-2, 1) = 2 * (0, 1/2) + (-2, -3): only a point of V outside C supplies it
    yield g2, lv.ColoredCone(lv.QCone.of([(-2, 1), (0, 1)]), frozenset({2})), \
        ("cone is not generated by its colors and its valuation part",
         "relative interior misses the valuation cone")
    yield g2, lv.ColoredCone(lv.QCone.of([neg(gg[0])]), frozenset({2})), \
        ("color D2 not inside the cone",)
    yield g2, lv.ColoredCone(lv.QCone(()), frozenset({1})), \
        ("color D1 attached to the zero cone",)


def test_cone_checks_match_hrep_references_on_hand_made_cones():
    for rrd, cc, expected in _hand_made_cones():
        got = lv.is_colored_cone.__wrapped__(cc, rrd).diagnostics
        assert got == expected == _colored_cone_diagnostics_by_hrep(cc, rrd)
        assert lv.is_pointed(cc.cone) == _is_pointed_by_hrep(cc.cone)


def test_cone_checks_match_hrep_references_on_random_cones():
    rng = random.Random(11)
    nonpointed = 0
    for series, rank in (("G", 2), ("B", 3), ("D", 4)):
        rrd = rrd_of(series, rank)
        pool = ([neg(v) for v in rrd.gamma] + [unit(i, rank) for i in range(1, rank + 1)]
                + [neg(unit(i, rank)) for i in range(1, rank + 1)])
        for _ in range(25):
            gens = rng.sample(pool, rng.randint(1, rank + 1))
            colors = frozenset(i for i in range(1, rank + 1) if rng.random() < 0.4)
            cc = lv.ColoredCone(lv.QCone.of(gens), colors)
            got = lv.is_colored_cone.__wrapped__(cc, rrd).diagnostics
            assert got == _colored_cone_diagnostics_by_hrep(cc, rrd)
            assert lv.is_pointed(cc.cone) == _is_pointed_by_hrep(cc.cone)
            nonpointed += not _is_pointed_by_hrep(cc.cone)
    assert nonpointed > 0


def test_is_colored_cone_reports_a_cone_holding_lines():
    # the plane has no extremal rays, hence no memo key; the check still answers
    rrd = rrd_of("G", 2)
    cc = lv.ColoredCone(lv.QCone.of([(1, 0), (-1, 0), (0, 1), (0, -1)]), frozenset({1, 2}))
    with pytest.raises(StructureError, match="is not pointed"):
        cc.key()
    check = lv.is_colored_cone(cc, rrd)
    assert not check.ok
    assert check.diagnostics == ("cone is not strictly convex",)


def test_relint_conventions_for_the_zero_cone():
    rrd = rrd_of("G", 2)
    zero, ray = lv.QCone(()), lv.QCone.of([neg(rrd.gamma[1])])
    assert lv.relints_meet_in_valuation(rrd, zero)
    assert lv.relints_meet_in_valuation(rrd, zero, zero)
    assert not lv.relints_meet_in_valuation(rrd, zero, ray)
    assert not lv.relints_meet_in_valuation(rrd, ray, zero)
    assert lv.relints_meet_in_valuation(rrd, ray, ray)


def test_valuation_cone_rays_are_the_negative_gammas():
    """The rays read off adj(A) are those of the rational gamma_j."""
    for series, rank in (("B", 3), ("B", 4), ("D", 4), ("F", 4), ("G", 2)):
        rrd = rrd_of(series, rank)
        rows = [[-x for x in row] for row in rrd.restricted.cartan]
        want = tuple(primitive(neg(g)) for g in rrd.gamma)
        assert tuple(conicatlas.resolve_ray(rrd, f"-g{j}")
                     for j in range(1, rank + 1)) == want
        assert lv.valuation_cone(rrd).generators == tuple(sorted(want))
        assert lv.extremal_rays(lv.valuation_cone(rrd)) \
            == lv._rays_of_hcone([], rows, rank) == tuple(sorted(want))


def test_cone_checks_solve_no_h_system_once_cached(monkeypatch):
    rrd = rrd_of("D", 4)
    cc = lv.ColoredCone(
        lv.QCone.of([neg(v) for v in rrd.gamma] + [unit(2, 4)]), frozenset({2}))
    monkeypatch.setattr(lv, "_faces_memo", {})
    lv.extremal_rays(cc.cone)
    lv.hrep(cc.cone)

    def solve(*args):
        raise AssertionError("a yes/no cone question solved an H-system")

    monkeypatch.setattr(lv, "_rays_of_hcone", solve)
    assert lv.is_colored_cone(cc, rrd).ok
    assert all(lv.is_pointed(f.cone) for f in lv.colored_faces(cc, rrd))
    assert not lv.is_pointed(lv.QCone.of([(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0)]))
