import random
from fractions import Fraction as Q

import pytest

from conicfans import chevalley as ch
from conicfans import conicatlas as ca
from conicfans import rootcore as rc


def sc_of(series, rank, verify="none"):
    return ch.build_structure_constants(rc.build_root_datum(series, rank),
                                        verify=verify)


def test_sl2_relations():
    sc = sc_of("A", 1, verify="full")
    e = ch.LieElement.root_vector(1, (1,))
    f = ch.LieElement.root_vector(1, (-1,))
    h = ch.bracket(sc, e, f)
    assert h == ch.LieElement.cartan(1, [1])
    assert ch.bracket(sc, h, e) == e.scale(2)
    assert ch.bracket(sc, h, f) == f.scale(-2)


def test_g2_string_lengths():
    sc = sc_of("G", 2, verify="full")
    assert abs(sc.n((1, 0), (0, 1))) == 1
    assert abs(sc.n((1, 0), (1, 1))) == 2
    assert abs(sc.n((1, 0), (2, 1))) == 3
    assert sc.n((0, 1), (3, 1)) != 0
    # absent pair
    assert sc.n((0, 1), (0, 1)) == 0
    assert sc.n((3, 2), (1, 0)) == 0


def test_antisymmetry_and_negation():
    sc = sc_of("F", 4)
    rd = sc.rd
    for a in rd.roots[:20]:
        for b in rd.roots[:20]:
            s = tuple(x + y for x, y in zip(a, b))
            if any(s) and rd.is_root(s):
                assert sc.n(a, b) == -sc.n(b, a)
                na, nb = tuple(-x for x in a), tuple(-x for x in b)
                assert sc.n(na, nb) == -sc.n(a, b)


def test_jacobi_exhaustive_small_ranks():
    for series, rank in [("B", 3), ("G", 2), ("D", 4)]:
        ch.build_structure_constants(rc.build_root_datum(series, rank), verify="full")


def test_jacobi_on_random_rational_elements():
    sc = sc_of("B", 4)
    rng = random.Random(11)
    roots = sc.rd.roots

    def rand_elem():
        h = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
        e = {roots[rng.randrange(len(roots))]: Q(rng.randint(-3, 3), rng.randint(1, 2))
             for _ in range(3)}
        return ch.LieElement.make(4, h, e)

    for _ in range(60):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        total = ch.bracket(sc, x, ch.bracket(sc, y, z))
        total = total.add(ch.bracket(sc, y, ch.bracket(sc, z, x)))
        total = total.add(ch.bracket(sc, z, ch.bracket(sc, x, y)))
        assert total.is_zero()
        assert ch.bracket(sc, x, x).is_zero()


def test_rho_sl2_triple():
    sc = sc_of("B", 3)
    rho = rc.highest_root(sc.rd)
    e_rho = ch.LieElement.root_vector(3, rho)
    e_neg = ch.LieElement.root_vector(3, tuple(-x for x in rho))
    h = ch.bracket(sc, e_rho, e_neg)
    coroot = sc.rd.coroot(rho)
    assert h == ch.LieElement.cartan(3, coroot)
    assert ch.ad_power(sc, e_neg, e_rho, 2) == e_neg.scale(-2)
    assert ch.ad_power(sc, e_neg, e_rho, 3).is_zero()


def test_extremal_elements():
    sc = sc_of("B", 3)
    rd = sc.rd
    rho = rc.highest_root(rd)
    e_rho = ch.LieElement.root_vector(3, rho)
    assert ch.is_extremal(sc, e_rho)
    for g in rd.roots:
        v = ch.LieElement.root_vector(3, g)
        assert ch.is_extremal(sc, v) == rd.is_long(g)
    mixed = e_rho.add(ch.LieElement.root_vector(3, tuple(-x for x in rho)))
    assert not ch.is_extremal(sc, mixed)
    with pytest.raises(ValueError):
        ch.is_extremal(sc, ch.LieElement.make(3))


def test_twistor_samples():
    sc = sc_of("G", 2)
    rho = rc.highest_root(sc.rd)
    at0 = ch.twistor_conic_sample(sc, rho, 0)
    assert at0 == ch.LieElement.root_vector(2, rho)
    at1 = ch.twistor_conic_sample(sc, rho, 1)
    neg = tuple(-x for x in rho)
    assert dict(at1.e)[neg] == -1
    assert at1.h == tuple(-x for x in sc.rd.coroot(rho))
    for t in (2, Q(1, 3), Q(-5, 7)):
        s = ch.twistor_conic_sample(sc, rho, t)
        assert dict(s.e)[neg] == -Q(t) ** 2
        assert ch.is_extremal(sc, s)


def test_contact_cubic_domain_and_witnesses():
    ad = ca.adjoint_data("B", 3)
    sc = sc_of("B", 3)
    rho, j0 = ad.rho, ad.j0
    line = ch.LieElement.root_vector(3, tuple(-1 if k == j0 - 1 else 0 for k in range(3)))
    assert ch.contact_cubic(sc, rho, j0, line).is_zero()
    assert ch.contact_quadratic(sc, rho, line).is_zero()
    zero = ch.LieElement.make(3)
    assert ch.contact_cubic(sc, rho, j0, zero).is_zero()
    with pytest.raises(ch.ContactDomainError):
        ch.contact_cubic(sc, rho, j0, ch.LieElement.root_vector(3, rho))
    with pytest.raises(ch.ContactDomainError):
        ch.contact_cubic(sc, rho, j0, ch.LieElement.cartan(3, [1, 0, 0]))


def test_contact_cubic_torus_scaling_invariance():
    ad = ca.adjoint_data("B", 3)
    sc = sc_of("B", 3)
    rho, j0 = ad.rho, ad.j0
    dom = ch.contact_hyperplane_roots(sc.rd, j0)
    rng = random.Random(3)
    weights = (Q(2), Q(1, 3), Q(-5))

    def chi(root):
        out = Q(1)
        for k, v in enumerate(root):
            out *= weights[k] ** v
        return out

    def tau(x):
        return ch.LieElement.make(3, x.h, {r: chi(r) * c for r, c in x.e})

    for _ in range(25):
        v = ch.LieElement.make(
            3, None, {g: Q(rng.randint(-4, 4), rng.randint(1, 3)) for g in dom})
        lhs = ch.contact_cubic(sc, rho, j0, tau(v))
        # cubic(tau v) picks up 1/chi(rho) against tau(cubic(v)), so the
        # vanishing locus is invariant under the torus
        rhs = tau(ch.contact_cubic(sc, rho, j0, v)).scale(1 / chi(rho))
        assert lhs == rhs


def test_g2_implication_and_b3_witness():
    g2 = ca.adjoint_data("G", 2)
    scg = sc_of("G", 2)
    rep = ch.contact_implication_check(scg, g2.rho, g2.j0, samples=1500, seed=7)
    assert rep.clean
    # pinned: the integer core draws the same samples and finds the same zeros
    assert (rep.samples, rep.cubic_zero_hits, rep.easy_direction_checked) == (1500, 66, 40)

    b3 = ca.adjoint_data("B", 3)
    scb = sc_of("B", 3)
    wit = ch.find_cubic_zero_quadratic_nonzero(scb, b3.rho, b3.j0)
    assert wit == ch.LieElement.make(3, None, {(-1, -1, -2): 1, (-1, -1, -1): 1})
    assert ch.contact_cubic(scb, b3.rho, b3.j0, wit).is_zero()
    assert not ch.contact_quadratic(scb, b3.rho, wit).is_zero()
    assert ch.find_cubic_zero_quadratic_nonzero(scg, g2.rho, g2.j0) is None


def test_g2_wrapper_report():
    rep = ch.g2_contact_implication_check(samples=600, seed=1)
    assert rep.clean and rep.samples >= 600


def test_contact_dimension_matches_half_dimension():
    for label in ["B3", "D4", "F4", "G2", "E6"]:
        series, rank = ca.parse_label(label)
        ad = ca.adjoint_data(series, rank)
        dom = ch.contact_hyperplane_roots(ad.g, ad.j0)
        assert len(dom) == 2 * ad.n


@pytest.mark.parametrize("series,rank", [("B", 3), ("E", 6)], ids=["B3", "E6"])
def test_jacobi_failure_detection(series, rank):
    # corrupting one structure constant must break the exhaustive sweep,
    # also above rank 4
    rd = rc.build_root_datum(series, rank)
    sc = ch.build_structure_constants(rd, verify="none")
    pair = next(iter(sc._special))
    corrupted = dict(sc._special)
    corrupted[pair] = -corrupted[pair]
    bad = ch.StructureConstants(rd, tuple(sorted(corrupted.items())))
    with pytest.raises(rc.StructureError):
        ch._verify_jacobi(bad)


def test_constants_csv_rows():
    sc = sc_of("G", 2)
    rows = list(ch.constants_csv_rows(sc))
    assert all(n != 0 for _, _, n in rows)
    assert len(rows) == sum(
        1 for a in sc.rd.roots for b in sc.rd.roots
        if any(x + y for x, y in zip(a, b))
        and sc.rd.is_root(tuple(x + y for x, y in zip(a, b))))


def _oracle_bracket(sc, x, y):
    """[x, y] expanded bilinearly from N, the integer coroots and the pairings."""
    rank = sc.rank
    h, e = [Q(0)] * rank, {}
    for r, c in y.e:
        e[r] = e.get(r, Q(0)) + c * sum(a * p for a, p in zip(x.h, sc.pairing_vec(r)))
    for r, c in x.e:
        e[r] = e.get(r, Q(0)) - c * sum(b * p for b, p in zip(y.h, sc.pairing_vec(r)))
    for ra, ca in x.e:
        for rb, cb in y.e:
            s = tuple(a + b for a, b in zip(ra, rb))
            if not any(s):
                h = [v + ca * cb * k for v, k in zip(h, sc.coroot_int(ra))]
            elif sc.rd.is_root(s):
                e[s] = e.get(s, Q(0)) + ca * cb * sc.n(ra, rb)
    return ch.LieElement.make(rank, h, e)


@pytest.mark.parametrize("series,rank", [("G", 2), ("F", 4), ("E", 6)],
                         ids=["G2", "F4", "E6"])
def test_bracket_matches_bilinear_oracle(series, rank):
    sc = sc_of(series, rank)
    roots = sc.rd.roots
    rng = random.Random(rank)

    def rand_elem():
        h = [Q(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(rank)]
        e = {roots[rng.randrange(len(roots))]: Q(rng.randint(-4, 4), rng.randint(1, 5))
             for _ in range(6)}
        return ch.LieElement.make(rank, h, e)

    for _ in range(40):
        x, y = rand_elem(), rand_elem()
        assert ch.bracket(sc, x, y) == _oracle_bracket(sc, x, y)
    for a in roots:
        for b in roots[::3]:
            x, y = ch.LieElement.root_vector(rank, a), ch.LieElement.root_vector(rank, b)
            assert ch.bracket(sc, x, y) == _oracle_bracket(sc, x, y)


@pytest.mark.parametrize("c", [Q(-3), Q(2, 7)], ids=["-3", "2/7"])
def test_projective_and_homogeneous_scaling(c):
    # extremality is projective; the cubic and quadratic are homogeneous of
    # degree 3 and 2, so the integer core may scale away denominators
    sc = sc_of("B", 3)
    rd = sc.rd
    ad = ca.adjoint_data("B", 3)
    rho, j0 = ad.rho, ad.j0
    samples = [ch.twistor_conic_sample(sc, rho, t) for t in (1, Q(-5, 7))]
    samples += [ch.LieElement.root_vector(3, g, Q(3, 4)) for g in rd.roots]
    samples.append(ch.LieElement.make(3, [1, Q(1, 2), 0], {rho: Q(2, 3)}))
    for x in samples:
        assert ch.is_extremal(sc, x) == ch.is_extremal(sc, x.scale(c))

    dom = ch.contact_hyperplane_roots(rd, j0)
    rng = random.Random(5)
    vectors = [ch.LieElement.make(3, None, {dom[0]: 1, dom[1]: 1})]
    vectors += [ch.LieElement.make(3, None, {g: Q(rng.randint(-3, 3), rng.randint(1, 4))
                                             for g in dom if rng.random() < 0.5})
                for _ in range(20)]
    for v in vectors:
        cubic = ch.contact_cubic(sc, rho, j0, v)
        quad = ch.contact_quadratic(sc, rho, v)
        assert ch.contact_cubic(sc, rho, j0, v.scale(c)) == cubic.scale(c ** 3)
        assert ch.contact_quadratic(sc, rho, v.scale(c)) == quad.scale(c ** 2)
        assert ch.contact_cubic(sc, rho, j0, v.scale(c)).is_zero() == cubic.is_zero()
        assert ch.contact_quadratic(sc, rho, v.scale(c)).is_zero() == quad.is_zero()
