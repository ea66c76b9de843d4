from fractions import Fraction as Q

import pytest

from conicfans import fixtures
from conicfans import lunavust as lv
from conicfans import symdata as sy
from conicfans import verify
from conicfans.linalg import identity
from conicfans.rootcore import StructureError, UnsupportedAlgebraError


def test_types_a_and_c_rejected():
    with pytest.raises(UnsupportedAlgebraError):
        sy.satake_of("A", 5)
    with pytest.raises(UnsupportedAlgebraError):
        sy.satake_of("C", 4)
    with pytest.raises(UnsupportedAlgebraError):
        sy.satake_of("B", 2)


def test_satake_rows():
    b3 = sy.satake_of("B", 3)
    assert not b3.black and not b3.arrows
    assert sy.g_fixed_subalgebra_components("B", 3) == (("A", 1),) * 3

    e6 = sy.satake_of("E", 6)
    assert e6.arrows == ((1, 5), (2, 4))
    assert sy.g_fixed_subalgebra_components("E", 6) == (("A", 1), ("A", 5))

    e7 = sy.satake_of("E", 7)
    assert e7.black == frozenset({1, 3, 7})
    assert sy.g_fixed_subalgebra_components("E", 7) == (("A", 1), ("D", 6))

    assert sy.satake_of("E", 8).black == frozenset({4, 5, 6, 8})
    assert sy.satake_of("D", 5).arrows == ((4, 5),)
    assert sy.satake_of("B", 7).black == frozenset({5, 6, 7})


def test_sigma_action_examples():
    # split case: sigma is minus the identity on characters
    b3 = sy.satake_of("B", 3)
    e = identity(3)
    for i in range(3):
        img = sy.sigma_on_characters(b3, e[i])
        assert tuple(a - b for a, b in zip(e[i], img)) == tuple(
            2 * x for x in e[i])

    # black-node correction: alpha4 - sigma(alpha4) = 2 alpha4 + 2 alpha5 in B5
    b5 = sy.satake_of("B", 5)
    e5 = identity(5)
    img = sy.sigma_on_characters(b5, e5[3])
    diff = tuple(a - b for a, b in zip(e5[3], img))
    assert diff == (0, 0, 0, 2, 2)

    # arrow case: alpha1 - sigma(alpha1) = alpha1 + alpha5 in E6
    e6 = sy.satake_of("E", 6)
    e6b = identity(6)
    img = sy.sigma_on_characters(e6, e6b[0])
    diff = tuple(a - b for a, b in zip(e6b[0], img))
    assert diff == (1, 0, 0, 0, 1, 0)


def test_sigma_is_involution_everywhere():
    for series, rank in [("B", 6), ("D", 5), ("D", 7), ("E", 7), ("E", 8)]:
        sd = sy.satake_of(series, rank)
        e = identity(rank)
        for i in range(rank):
            once = sy.sigma_on_characters(sd, e[i])
            assert sy.sigma_on_characters(sd, once) == tuple(e[i])
        for b in sd.black:
            assert sy.sigma_on_characters(sd, e[b - 1]) == tuple(e[b - 1])


def test_restricted_types_and_maps():
    # the split D4 is numbered by the identity, among its six numberings;
    # E8 reverses its white nodes 1, 2, 3, 7
    cases = {("B", 6): ("B4", {1: (1,), 2: (2,), 3: (3,), 4: (4,)}),
             ("D", 4): ("D4", {1: (1,), 2: (2,), 3: (3,), 4: (4,)}),
             ("D", 5): ("B4", {1: (1,), 2: (2,), 3: (3,), 4: (4, 5)}),
             ("E", 8): ("F4", {1: (7,), 2: (3,), 3: (2,), 4: (1,)}),
             ("G", 2): ("G2", {1: (1,), 2: (2,)})}
    for (series, rank), (rtype, reps) in cases.items():
        rrd = sy.restricted_datum(sy.satake_of(series, rank))
        assert rrd.restricted.label == rtype
        got = {i: rrd.reps_of(i) for i in range(1, rrd.restricted.rank + 1)}
        assert got == reps


LABELS = ([("B", r) for r in range(3, 17)] + [("D", r) for r in range(4, 17)]
          + list(fixtures.SUPPORTED_EXCEPTIONAL))


@pytest.mark.parametrize("series,rank", LABELS)
def test_restricted_datum_is_derived_past_the_pinned_ranks(series, rank):
    rrd = sy.restricted_datum(sy.satake_of(series, rank))
    key = fixtures.family_key(series, rank)
    assert rrd.restricted.label == fixtures.SATAKE_EXPECTED[key]["restricted"]
    got = {i: rrd.reps_of(i) for i in range(1, rrd.restricted.rank + 1)}
    assert got == fixtures.expected_lambda_reps(series, rank)


@pytest.mark.parametrize("series,rank", LABELS)
def test_the_cascade_gives_the_published_diagram(series, rank):
    sd = sy.satake_of(series, rank)
    black = fixtures.expected_black(series, rank)
    key = fixtures.family_key(series, rank)
    arrows = [tuple(p) for p in fixtures.SATAKE_EXPECTED[key]["arrows"]]
    assert sd.black == black
    assert list(sd.arrows) == arrows
    assert ([sy.sigma_on_characters(sd, v) for v in identity(rank)]
            == verify._reference_sigma(sd.base, sorted(black), arrows))


@pytest.mark.parametrize("series,rank", LABELS)
def test_the_real_roots_span_the_split_part(series, rank):
    sd = sy.satake_of(series, rank)
    base = sd.base
    assert len(sd.real) == sy.restricted_datum(sd).restricted.rank
    assert all(base.killing_int(a, b) == 0
               for i, a in enumerate(sd.real) for b in sd.real[i + 1:])
    # the cascade starts from the contact grading: its even part is the fixed
    # subalgebra that the extended diagram gives
    j0 = sy.contact_node(base, sy.highest_root(base))
    even = sum(1 for g in base.roots if g[j0 - 1] % 2 == 0)
    assert even == sum(len(sy.build_root_datum(s, r).roots)
                       for s, r in sy.g_fixed_subalgebra_components(series, rank))


@pytest.mark.parametrize("series,rank,real,message", [
    pytest.param("E", 7, ((0, 0, 0, 0, 0, 0, 1), (0, 0, 1, 2, 1, 0, 1),
                          (1, 2, 2, 2, 1, 0, 1), (1, 2, 3, 4, 3, 2, 2)),
                 r"^E7: the restricted Cartan entry of the white nodes "
                 r"\d+ and \d+ is not an integer$", id="E7-non-integer-cartan"),
    pytest.param("B", 5, ((0, 0, 1, 2, 2), (1, 2, 2, 2, 2)),
                 r"^B5: projected roots do not form the restricted system$",
                 id="B5-projected-roots"),
    # the real roots of B5 without its first, (1, 1, 2, 2, 2)
    pytest.param("B", 5, ((0, 1, 1, 2, 2), (1, 1, 0, 0, 0), (0, 1, 1, 0, 0)),
                 r"^B5: the involution of the real roots moves the positive root "
                 r"\(0, 0, 1, 0, 0\) to the positive root \(1, 1, 1, 2, 2\)$",
                 id="B5-drop-a-real-root"),
    # orthogonal real roots, but sigma keeps alpha4 positive
    pytest.param("E", 6, ((1, 1, 2, 1, 0, 1), (0, 1, 2, 2, 1, 1), (0, 0, 0, 0, 0, 1),
                          (1, 2, 2, 1, 1, 1)),
                 r"^E6: the involution of the real roots moves the positive root "
                 r"\(0, 0, 0, 1, 0, 0\) to the positive root \(1, 1, 0, 0, 0, 0\)$",
                 id="E6-incompatible"),
])
def test_a_wrong_real_root_set_is_a_named_failure(series, rank, real, message):
    base = sy.build_root_datum(series, rank)
    with pytest.raises(StructureError, match=message):
        sy.restricted_datum(sy.SatakeDiagram(base, series, rank, real))


def test_gamma_duality_all_supported():
    for series, rank in [("B", 3), ("B", 8), ("D", 4), ("D", 8),
                         ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]:
        rrd = sy.restricted_datum(sy.satake_of(series, rank))
        a = rrd.restricted.cartan
        m = rrd.restricted.rank
        for j, g in enumerate(rrd.gamma):
            for i in range(m):
                want = 1 if i == j else 0
                assert sum(a[i][k] * g[k] for k in range(m)) == want


def test_color_table_rows():
    b5 = sy.color_table(sy.restricted_datum(sy.satake_of("B", 5)))
    d4_color = b5[3]
    assert d4_color.color_type == "b" and d4_color.a_coeff == 3
    assert d4_color.spherical_root == (0, 0, 0, 2, 2)

    f4 = sy.color_table(sy.restricted_datum(sy.satake_of("F", 4)))
    assert all(c.color_type == "2a" and c.a_coeff == 1 for c in f4)

    e7 = sy.color_table(sy.restricted_datum(sy.satake_of("E", 7)))
    assert e7[0].color_type == "b" and e7[0].a_coeff == 4
    assert e7[0].spherical_root == (1, 2, 1, 0, 0, 0, 0)
    assert e7[0].stabilizer.missing == {2}


def test_spherical_root_representative_independence():
    # D5 pairs alpha4, alpha5; E6 pairs (1,5) and (2,4): both must agree
    for series, rank in [("D", 5), ("E", 6)]:
        sd = sy.satake_of(series, rank)
        rrd = sy.restricted_datum(sd)
        e = identity(rank)
        for i in range(1, rrd.restricted.rank + 1):
            reps = rrd.reps_of(i)
            values = set()
            for w in reps:
                img = sy.sigma_on_characters(sd, e[w - 1])
                values.add(tuple(a - b for a, b in zip(e[w - 1], img)))
            assert values == {rrd.characters[i - 1]}


def test_parametric_anticanonical_coefficients():
    for r in range(5, 9):
        table = sy.color_table(sy.restricted_datum(sy.satake_of("B", r)))
        assert table[3].a_coeff == 2 * r - 7
    for r in range(6, 9):
        table = sy.color_table(sy.restricted_datum(sy.satake_of("D", r)))
        assert table[3].a_coeff == 2 * (r - 4)
    d5 = sy.color_table(sy.restricted_datum(sy.satake_of("D", 5)))
    assert d5[3].a_coeff == 2


def test_anticanonical_data_g2():
    rrd = sy.restricted_datum(sy.satake_of("G", 2))
    g = rrd.gamma
    cone = lv.ColoredCone(
        lv.QCone.of([tuple(-x for x in g[1]), (Q(0), Q(1))]), frozenset({2}))
    fan = lv.ColoredFan.of([cone] + list(lv.colored_faces(cone, rrd)))
    data = sy.anticanonical_data(rrd, fan)
    assert data.stable_rays == ((-1, -2),)
    assert data.color_coeffs == ((1, 1), (2, 1))


def test_anticanonical_on_colorless_fan():
    rrd = sy.restricted_datum(sy.satake_of("G", 2))
    g = rrd.gamma
    ray = lv.ColoredCone(lv.QCone.of([tuple(-x for x in g[1])]), frozenset())
    fan = lv.ColoredFan.of([ray] + list(lv.colored_faces(ray, rrd)))
    data = sy.anticanonical_data(rrd, fan)
    assert all(a == 1 for _, a in data.color_coeffs)
    assert data.stable_rays == ((-1, -2),)


def test_contact_node_is_unique_and_named_on_failure():
    from conicfans.rootcore import StructureError, build_root_datum, highest_root
    g2 = build_root_datum("G", 2)
    assert sy.contact_node(g2, highest_root(g2)) == 2
    a3 = build_root_datum("A", 3)   # the highest root meets nodes 1 and 3
    with pytest.raises(StructureError, match=r"^A3: .*found \[1, 3\]"):
        sy.contact_node(a3, highest_root(a3))


def test_extended_diagram_entries_divide_exactly(monkeypatch):
    """A non-integer Cartan entry is a named failure, not a truncated integer.

    With the weight a1 + 2 a2 of G2 in place of the highest root,
    2 <a1, -(a1 + 2 a2)> / <a1 + 2 a2, a1 + 2 a2> = 4 / 7.
    """
    from conicfans.rootcore import StructureError
    monkeypatch.setattr(sy, "highest_root", lambda rd: (1, 2))
    monkeypatch.setattr(sy, "contact_node", lambda rd, rho: 2)
    with pytest.raises(StructureError,
                       match=r"^G2: extended Cartan entry \(1,0\) is not an integer$"):
        sy.g_fixed_subalgebra_components("G", 2)
