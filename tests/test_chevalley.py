import gc
import random
import weakref
from fractions import Fraction as Q
from math import lcm
from operator import mul

import pytest

from conicfans import chevalley as ch
from conicfans import conicatlas as ca
from conicfans import fixtures
from conicfans import rootcore as rc
from conicfans import verify


def sc_of(series, rank, verify="none"):
    return ch.build_structure_constants(rc.build_root_datum(series, rank),
                                        verify=verify)


def coroot_of(rd, root):
    """root^vee in simple coroots: coordinate i is root_i (a_i, a_i) / (root, root)."""
    simple = [tuple(int(i == k) for k in range(rd.rank)) for i in range(rd.rank)]
    n = rd.killing_int(root, root)
    return tuple(Q(root[i] * rd.killing_int(a, a), n) for i, a in enumerate(simple))


# The tests' element is a plain pair (h, {root: coefficient}), rational or
# integral; the engine's elements are integral.

def _pair(x):
    """The pair of a `ch.LieElement`."""
    return x.h, dict(x.e)


def _combo(rank, terms):
    """The pair sum of c * x over the (c, x) in terms."""
    h, e = (0,) * rank, {}
    for c, (xh, xe) in terms:
        h = tuple(a + c * b for a, b in zip(h, xh))
        for r, v in xe.items():
            e[r] = e.get(r, 0) + c * v
    return h, {r: v for r, v in e.items() if v}


def _integral(x):
    """A pair with integral rational coefficients, as an integer pair."""
    h, e = x
    assert all(Q(c).denominator == 1 for c in (*h, *e.values()))
    return tuple(map(int, h)), {r: int(c) for r, c in e.items()}


def _cleared(x):
    """A rational pair times the least common denominator of its coefficients."""
    h, e = x
    return _integral(_combo(len(h), [(lcm(*(Q(c).denominator for c in (*h, *e.values()))), x)]))


def _bracket(sc, x, y):
    """[x, y] of two integer pairs on the engine's `ch._int_bracket`."""
    tab = sc.tables
    xi, yi = ((tuple(h), {tab.index[r]: c for r, c in e.items()}) for h, e in (x, y))
    h, e = ch._int_bracket(tab, xi, yi)
    return h, {tab.roots[i]: c for i, c in e.items()}


def _oracle_bracket(sc, x, y):
    """[x, y] of two pairs, expanded bilinearly from N, the integer coroots and the pairings."""
    rank, tab = sc.rank, sc.tables
    (xh, xe), (yh, ye) = x, y
    h, e = [Q(0)] * rank, {}
    for r, c in ye.items():
        e[r] = e.get(r, Q(0)) + c * sum(a * p for a, p in zip(xh, tab.pairing[tab.index[r]]))
    for r, c in xe.items():
        e[r] = e.get(r, Q(0)) - c * sum(b * p for b, p in zip(yh, tab.pairing[tab.index[r]]))
    for ra, cx in xe.items():
        for rb, cy in ye.items():
            s = tuple(a + b for a, b in zip(ra, rb))
            if not any(s):
                h = [v + cx * cy * k for v, k in zip(h, tab.coroot[tab.index[ra]])]
            elif sc.rd.is_root(s):
                e[s] = e.get(s, Q(0)) + cx * cy * sc.n(ra, rb)
    return tuple(h), {r: c for r, c in e.items() if c}


def _oracle_extremal(sc, x):
    """[x, [x, b]] on the oracle bracket is a multiple of the pair x for every basis vector b."""
    rank = sc.rank
    xh, xe = x
    probes = [(tuple(int(i == k) for i in range(rank)), {}) for k in range(rank)]
    probes += [((0,) * rank, {g: 1}) for g in sc.rd.roots]
    k = next((k for k, c in enumerate(xh) if c), None)
    r0 = next(iter(xe)) if k is None else None
    for b in probes:
        z = _oracle_bracket(sc, x, _oracle_bracket(sc, x, b))
        lam = Q(z[0][k]) / xh[k] if k is not None else Q(z[1].get(r0, 0)) / xe[r0]
        if z != _combo(rank, [(lam, x)]):
            return False
    return True


def _scaled(k, x):
    """The `ch.LieElement` k x, for an integer k."""
    return ch.LieElement.make(len(x.h), [k * a for a in x.h], {r: k * c for r, c in x.e})


def test_sl2_relations():
    sc = sc_of("A", 1, verify="full")
    e, f = ((0,), {(1,): 1}), ((0,), {(-1,): 1})
    h = _bracket(sc, e, f)
    assert h == ((1,), {})
    assert _bracket(sc, h, e) == ((0,), {(1,): 2})
    assert _bracket(sc, h, f) == ((0,), {(-1,): -2})


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
    # on every pair with a root sum of every pinned label: N_{b,a} = -N_{a,b},
    # N_{-a,-b} = -N_{a,b}, and on the zero-sum triple x + y + z = 0 the
    # cyclic identity N_{x,y} |x|^2 = N_{y,z} |z|^2
    for label in fixtures.supported_labels(8):
        sc = sc_of(*ca.parse_label(label))
        rd = sc.rd
        norm = {g: rd.killing_int(g, g) for g in rd.roots}
        pairs = 0
        for a in rd.roots:
            na = tuple(-x for x in a)
            for b in rd.roots:
                s = tuple(x + y for x, y in zip(a, b))
                if not (any(s) and rd.is_root(s)):
                    continue
                pairs += 1
                n, z = sc.n(a, b), tuple(-x for x in s)
                assert n and sc.n(b, a) == -n, (label, a, b)
                assert sc.n(na, tuple(-x for x in b)) == -n, (label, a, b)
                assert n * norm[a] == sc.n(b, z) * norm[z], (label, a, b)
        # the rows hold these pairs and one opposite root each
        assert pairs == sum(len(row) for row in sc.tables.rows) - len(rd.roots), label


@pytest.mark.parametrize("label", fixtures.supported_labels(8))
def test_given_constants_fill_the_rows_of_the_build(label):
    # the lazy tables of the special constants alone equal the build's rows,
    # entry for entry and in the same key order
    sc = sc_of(*ca.parse_label(label))
    fresh = ch.StructureConstants(sc.rd, sc.n_special)
    assert [list(row.items()) for row in fresh.tables.rows] == \
        [list(row.items()) for row in sc.tables.rows]


def test_a_special_pair_without_a_root_sum_raises():
    sc = sc_of("B", 3)
    for pair, message in [
            # alpha_1 + alpha_3 is no root of B3
            (((1, 0, 0), (0, 0, 1)),
             r"B3: special pair \(1, 0, 0\), \(0, 0, 1\) has no root sum"),
            # 5 alpha_1 is no root at all
            (((5, 0, 0), (0, 0, 1)),
             r"B3: special pair \(5, 0, 0\), \(0, 0, 1\): \(5, 0, 0\) is not a root")]:
        bad = ch.StructureConstants(sc.rd, sc.n_special + ((pair, 1),))
        with pytest.raises(rc.StructureError, match=f"^{message}$"):
            bad.tables


@pytest.mark.parametrize("series,rank", [("G", 2), ("F", 4), ("E", 6)],
                         ids=["G2", "F4", "E6"])
def test_constant_magnitudes_are_weyl_invariant(series, rank):
    # |N_{s a, s b}| = |N_{a,b}| for every simple reflection s: the Weyl group
    # lifts to automorphisms that map e_a to +-e_{s a}
    sc = sc_of(series, rank)
    rd = sc.rd
    for i in range(1, rank + 1):
        image = {g: rc.reflect(rd, g, i) for g in rd.roots}
        for a in rd.roots:
            for b in rd.roots:
                assert abs(sc.n(image[a], image[b])) == abs(sc.n(a, b)), (i, a, b)


def test_jacobi_exhaustive_small_ranks():
    for series, rank in [("B", 3), ("G", 2), ("D", 4)]:
        ch.build_structure_constants(rc.build_root_datum(series, rank), verify="full")


def test_jacobi_on_random_rational_elements():
    # random rational elements, cleared of denominators: the Jacobi identity
    # is trilinear, so it holds on x, y, z iff it holds on their multiples
    sc = sc_of("B", 4)
    rng = random.Random(11)
    roots = sc.rd.roots

    def rand_elem():
        h = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
        e = {roots[rng.randrange(len(roots))]: Q(rng.randint(-3, 3), rng.randint(1, 2))
             for _ in range(3)}
        return _cleared((h, e))

    zero = ((0,) * 4, {})
    for _ in range(60):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        total = _combo(4, [(1, _bracket(sc, x, _bracket(sc, y, z))),
                           (1, _bracket(sc, y, _bracket(sc, z, x))),
                           (1, _bracket(sc, z, _bracket(sc, x, y)))])
        assert total == zero
        assert _bracket(sc, x, x) == zero


def test_rho_sl2_triple():
    sc = sc_of("B", 3)
    rho = rc.highest_root(sc.rd)
    neg = tuple(-x for x in rho)
    e_rho, e_neg = ((0,) * 3, {rho: 1}), ((0,) * 3, {neg: 1})
    assert _bracket(sc, e_rho, e_neg) == (coroot_of(sc.rd, rho), {})
    once = _bracket(sc, e_neg, e_rho)
    twice = _bracket(sc, e_neg, once)
    assert twice == ((0,) * 3, {neg: -2})
    assert _bracket(sc, e_neg, twice) == ((0,) * 3, {})


def test_extremal_elements():
    sc = sc_of("B", 3)
    rd = sc.rd
    rho = rc.highest_root(rd)
    e_rho = ch.LieElement.root_vector(3, rho)
    assert ch.is_extremal(sc, e_rho)
    for g in rd.roots:
        v = ch.LieElement.root_vector(3, g)
        assert ch.is_extremal(sc, v) == rd.is_long(g)
    mixed = ch.LieElement.make(3, None, {rho: 1, tuple(-x for x in rho): 1})
    assert not ch.is_extremal(sc, mixed)
    with pytest.raises(ValueError):
        ch.is_extremal(sc, ch.LieElement.make(3))


def test_make_takes_integer_coefficients_only():
    x = ch.LieElement.make(2, [1, 0], {(1, 0): 3, (0, 1): 0})
    assert x == ch.LieElement((1, 0), (((1, 0), 3),))
    for h, e in ((None, {(1, 0): Q(1, 2)}), (None, {(1, 0): Q(2)}), ([Q(1), 0], None),
                 (None, {(1, 0): 1.0})):
        with pytest.raises(TypeError):
            ch.LieElement.make(2, h, e)


def test_a_non_root_key_is_named():
    sc = sc_of("G", 2)
    ad = ca.adjoint_data("G", 2)
    x = ch.LieElement.make(2, None, {(5, 5): 1})
    with pytest.raises(ValueError, match=r"^\(5, 5\) is not a root$"):
        ch.is_extremal(sc, x)
    with pytest.raises(ValueError, match=r"^\(5, 5\) is not a root$"):
        ch.contact_quadratic(sc, ad.rho, x)


def test_twistor_samples():
    sc = sc_of("G", 2)
    rho = rc.highest_root(sc.rd)
    at0 = ch.twistor_conic_sample(sc, rho, 0)
    assert at0 == ch.LieElement.make(2, None, {rho: 2})
    at1 = ch.twistor_conic_sample(sc, rho, 1)
    neg = tuple(-x for x in rho)
    assert dict(at1.e)[neg] == -2
    assert at1.h == tuple(-2 * x for x in coroot_of(sc.rd, rho))
    for t in (2, Q(1, 3), Q(-5, 7)):
        assert ch.is_extremal(sc, ch.twistor_conic_sample(sc, rho, t))


@pytest.mark.parametrize("label", ["G2", "B3", "E6"])
def test_twistor_sample_is_the_integer_point(label):
    # at t = p/q the sample is 2q^2 e_rho + 2pq [e_-rho, e_rho] + p^2 [e_-rho, [e_-rho, e_rho]]
    series, rank = ca.parse_label(label)
    sc = sc_of(series, rank)
    rho = rc.highest_root(sc.rd)
    neg = tuple(-x for x in rho)
    e_neg = ((0,) * rank, {neg: 1})
    first = _bracket(sc, e_neg, ((0,) * rank, {rho: 1}))
    second = _bracket(sc, e_neg, first)
    for t in (0, 1, 2, -3, Q(1, 3), Q(-5, 7), Q(9, 2)):
        p, q = Q(t).numerator, Q(t).denominator
        sample = ch.twistor_conic_sample(sc, rho, t)
        coeffs = dict(sample.e)
        assert (coeffs[rho], coeffs.get(neg, 0)) == (2 * q * q, -2 * p * p)
        assert _pair(sample) == _combo(rank, [(2 * q * q, ((0,) * rank, {rho: 1})),
                                              (2 * p * q, first), (p * p, second)])


def test_twistor_check_names_the_first_failing_t(monkeypatch):
    sc = sc_of("B", 4)
    neg = tuple(-x for x in rc.highest_root(sc.rd))
    extremal = ch.is_extremal

    def fails_at_3_and_5(sc, x):
        # the sample at an integer t has e_-rho coefficient -2 t^2
        return dict(x.e).get(neg, 0) not in (-18, -50) and extremal(sc, x)

    monkeypatch.setattr(ch, "is_extremal", fails_at_3_and_5)
    results = {r.name: r for r in verify.chevalley_checks("B4")}
    twistor = results["chevalley.twistor-extremal.B4"]
    assert not twistor.ok
    assert twistor.detail == "the twistor sample at t = 3 is not extremal"
    assert all(r.ok for name, r in results.items() if name != twistor.name)


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
        ch.contact_cubic(sc, rho, j0, ch.LieElement.make(3, [1, 0, 0]))


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
        return x[0], {r: chi(r) * c for r, c in x[1].items()}

    def cubic(x):
        return _pair(ch.contact_cubic(sc, rho, j0, ch.LieElement.make(3, *x)))

    # d tau(v) is integral for every integer v on the hyperplane
    d = lcm(*(chi(g).denominator for g in dom))
    for _ in range(25):
        v = ((0,) * 3, {g: c for g in dom if (c := rng.randint(-4, 4))})
        # cubic(tau v) picks up 1/chi(rho) against tau(cubic(v)), so the
        # vanishing locus is invariant under the torus
        lhs = cubic(_integral(_combo(3, [(d, tau(v))])))
        assert lhs == _combo(3, [(d ** 3 / chi(rho), tau(cubic(v)))])


def test_g2_implication_and_b3_witness():
    g2 = ca.adjoint_data("G", 2)
    scg = sc_of("G", 2)
    rep = ch.contact_implication_check(scg, g2.rho, g2.j0, samples=1500, seed=7)
    assert rep.clean
    # pinned: the integer core draws the same samples and finds the same zeros
    assert (rep.samples, rep.cubic_zero_hits) == (1500, 66)

    b3 = ca.adjoint_data("B", 3)
    scb = sc_of("B", 3)
    wit = ch.find_cubic_zero_quadratic_nonzero(scb, b3.rho, b3.j0)
    assert wit == ch.LieElement.make(3, None, {(-1, -1, -2): 1, (-1, -1, -1): 1})
    assert ch.contact_cubic(scb, b3.rho, b3.j0, wit).is_zero()
    assert not ch.contact_quadratic(scb, b3.rho, wit).is_zero()
    assert ch.find_cubic_zero_quadratic_nonzero(scg, g2.rho, g2.j0) is None


def test_g2_wrapper_report():
    g2 = ca.adjoint_data("G", 2)
    assert (g2.rho, g2.j0) == (rc.highest_root(g2.g), 2)
    rep = ch.contact_implication_check(sc_of("G", 2), g2.rho, g2.j0, samples=600, seed=1)
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


def _exhaustive_jacobi(sc):
    """The Jacobi identity on every root-vector triple whose sum can be nonzero.

    The reference for `ch._verify_jacobi`, which checks the simple root
    vectors only.  The bracket is alternating, so distinct triples suffice,
    and triples holding a Cartan element hold by the linearity of the root
    pairing (proved in `ch._verify_jacobi`).  J(e_a, e_b, e_c) is zero unless
    a+b+c is in Phi u {0} and some pairwise sum is in Phi u {0}.  The sweep
    lists exactly those triples: each pair (i, j) with a root-or-zero sum s,
    then each k that lands in Phi u {0}, counting a triple only from its
    first such pair in index order.  The row of s that lists k also gives the
    term [e_k, [e_i, e_j]]; for s = 0 that term is [e_k, h_i] = -k(h_i) e_k.
    """
    tab = sc.tables
    roots, rows, sums, coroot, pairing = tab.roots, tab.rows, tab.sums, tab.coroot, tab.pairing
    for i, row in enumerate(rows):
        for j, s in sums[i].items():
            if j <= i:
                continue
            n_ij, row_j = row[j], rows[j]
            # far[k] = (index of i+j+k, c) with [e_k, [e_i, e_j]] = -m c e_{i+j+k}
            if s == ch.ZERO:
                far = {k: (k, sum(map(mul, pk, coroot[i]))) for k, pk in enumerate(pairing)}
                m = 1
            else:
                far = {k: (d, rows[s][k]) for k, d in sums[s].items()}
                m = n_ij
            for k, (d, c) in far.items():
                if k == i or k == j:
                    continue
                row_k = rows[k]
                # count each triple once, from its first pair with a sum
                if i < k < j and k in row:
                    continue
                if k < i and (i in row_k or j in row_k):
                    continue
                if d == ch.ZERO:
                    n_jk, n_ki = row_j[k], row_k[i]
                    ok = not any(n_jk * a + n_ki * b + n_ij * e
                                 for a, b, e in zip(coroot[i], coroot[j], coroot[k]))
                else:
                    total = -m * c
                    t = sums[j].get(k)            # [e_i, [e_j, e_k]]
                    if t is not None:
                        total += (-sum(map(mul, pairing[i], coroot[j])) if t == ch.ZERO
                                  else row_j[k] * row[t])
                    t = sums[k].get(i)            # [e_j, [e_k, e_i]]
                    if t is not None:
                        total += (-sum(map(mul, pairing[j], coroot[k])) if t == ch.ZERO
                                  else row_k[i] * row_j[t])
                    ok = total == 0
                if not ok:
                    raise rc.StructureError(
                        f"{sc.rd.label}: Jacobi fails on roots {roots[i]}, "
                        f"{roots[j]}, {roots[k]}")


def _raises(check, sc) -> bool:
    try:
        check(sc)
    except rc.StructureError:
        return True
    return False


def _flipped(sc, flips):
    """A fresh copy of sc with the special constants at the positions `flips` negated."""
    return ch.StructureConstants(sc.rd, tuple(
        (pair, -n if k in flips else n) for k, (pair, n) in enumerate(sc.n_special)))


@pytest.mark.parametrize("series,rank", [("B", 3), ("B", 4), ("G", 2), ("D", 4), ("D", 5),
                                         ("F", 4), ("E", 6)],
                         ids=["B3", "B4", "G2", "D4", "D5", "F4", "E6"])
def test_jacobi_certificate_agrees_with_the_exhaustive_sweep(series, rank):
    # every single sign flip of a special constant, then seeded multi-flip sets:
    # the certificate raises exactly when the all-triples sweep raises
    sc = sc_of(series, rank)
    count = len(sc.n_special)
    rng = random.Random(rank * 31 + ord(series))
    trials = [{k} for k in range(count)]
    trials += [set(rng.sample(range(count), rng.randint(2, min(4, count))))
               for _ in range(12)]
    verdicts = []
    for flips in trials:
        bad = _flipped(sc, flips)
        verdicts.append(_raises(ch._verify_jacobi, bad))
        assert verdicts[-1] == _raises(_exhaustive_jacobi, bad), sorted(flips)
    assert True in verdicts
    assert not _raises(ch._verify_jacobi, sc) and not _raises(_exhaustive_jacobi, sc)


def _nonzero_term_pairs(sc, x):
    """The pairs {b, c} of roots other than x where a term of J(e_x, e_b, e_c) is
    nonzero, each term expanded on the oracle bracket."""
    tab = sc.tables
    roots = tab.roots
    e = [((0,) * sc.rank, {r: 1}) for r in roots]
    out = set()
    for b in range(len(roots)):
        for c in range(b + 1, len(roots)):
            if x in (b, c):
                continue
            for p, q, r in ((x, b, c), (b, c, x), (c, x, b)):
                h, z = _oracle_bracket(sc, e[p], _oracle_bracket(sc, e[q], e[r]))
                if any(h) or z:
                    out.add(frozenset((b, c)))
                    break
    return out


@pytest.mark.parametrize("series,rank", [("G", 2), ("B", 3), ("D", 4), ("F", 4)],
                         ids=["G2", "B3", "D4", "F4"])
def test_jacobi_certificate_visits_every_pair_with_a_nonzero_term(series, rank):
    # the certificate checks J(e_x, e_b, e_c) only on the pairs `_jacobi_pairs`
    # lists; a pair it skipped could hide a failure no sign flip happens to show,
    # and a pair whose terms all vanish is work that proves nothing
    sc = sc_of(series, rank)
    tab = sc.tables
    for k in range(rank):
        x = tab.index[tuple(int(m == k) for m in range(rank))]
        pairs = [frozenset(p) for p in ch._jacobi_pairs(tab, x) if x not in p]
        assert all(len(p) == 2 for p in pairs)
        assert len(set(pairs)) == len(pairs), "a pair listed twice"
        nonzero = _nonzero_term_pairs(sc, x)
        missing, idle = nonzero - set(pairs), set(pairs) - nonzero
        assert not missing, sorted(tuple(tab.roots[i] for i in p) for p in missing)
        assert not idle, sorted(tuple(tab.roots[i] for i in p) for p in idle)


@pytest.mark.parametrize("label", fixtures.supported_labels())
def test_rows_hold_n_on_the_keys_of_sums(label):
    # rows[i] holds N_{i,j} alone on the keys of sums[i], 0 exactly on the
    # opposite root; N is alternating
    sc = sc_of(*ca.parse_label(label))
    tab = sc.tables
    for i, (row, sums) in enumerate(zip(tab.rows, tab.sums)):
        assert list(row) == list(sums), tab.roots[i]
        assert [j for j, n in row.items() if not n] == [tab.neg[i]], tab.roots[i]
    assert all(sc.n(a, b) == -sc.n(b, a) for a in tab.roots for b in tab.roots)


def test_verify_frees_the_chevalley_tables_of_a_label(monkeypatch):
    # no cache may keep one label's tables alive once its checks have ended
    built = []
    build = ch.build_structure_constants

    def keep_a_weakref(rd, verify="full"):
        sc = build(rd, verify)
        built.append(weakref.ref(sc))
        return sc

    monkeypatch.setattr(ch, "build_structure_constants", keep_a_weakref)
    golden = verify.load_golden()
    for label in ("B3", "G2"):
        assert all(r.ok for r in verify.checks_for_label(label, "chevalley", golden))
    gc.collect()
    assert len(built) == 2
    assert built[0]() is None, "the B3 tables outlive its checks"


def test_chevalley_tables_share_the_datum_root_table():
    # the per-root rows are the datum's own, not copies of them
    rd = rc.build_root_datum("E", 7)
    tab, root = ch.build_structure_constants(rd, verify="none").tables, rd.root_table
    for name in ("roots", "index", "neg", "pairing", "norm2"):
        assert getattr(tab, name) is getattr(root, name), name


def _tampered(series, rank, edit):
    """A fresh copy of the datum's constants whose rows `edit` rewrites in place."""
    sc = sc_of(series, rank)
    fresh = ch.StructureConstants(sc.rd, sc.n_special)
    rows = [dict(row) for row in sc.tables.rows]
    edit(sc.tables, rows)
    fresh.__dict__["tables"] = sc.tables._replace(rows=tuple(rows))
    return fresh


def _first_sum_pair(tab):
    """The first pair (a, b) of root indices with a + b a root."""
    return next((a, b) for a, sums in enumerate(tab.sums)
                for b, s in sums.items() if s != ch.ZERO)


def test_jacobi_certificate_rejects_a_broken_negation_identity():
    def edit(tab, rows):
        # negate N_{a,b} and N_{b,a} together: still alternating, but
        # N_{-a,-b} = -N_{a,b} now fails at this pair
        a, b = _first_sum_pair(tab)
        rows[a][b] = -rows[a][b]
        rows[b][a] = -rows[b][a]

    with pytest.raises(rc.StructureError, match=r"^F4: N_\(-a,-b\) != -N_\(a,b\)"):
        ch._verify_jacobi(_tampered("F", 4, edit))


def test_jacobi_certificate_rejects_a_one_sided_sign_flip():
    def edit(tab, rows):
        a, b = _first_sum_pair(tab)
        rows[a][b] = -rows[a][b]

    with pytest.raises(rc.StructureError, match=r"^B3: N_\(b,a\) != -N_\(a,b\)"):
        ch._verify_jacobi(_tampered("B", 3, edit))


def test_jacobi_certificate_rejects_a_zero_constant():
    def edit(tab, rows):
        a, b = _first_sum_pair(tab)
        rows[a][b] = rows[b][a] = 0

    with pytest.raises(rc.StructureError, match=r"^D4: N vanishes on roots"):
        ch._verify_jacobi(_tampered("D", 4, edit))


@pytest.mark.parametrize("series", ["B", "D"])
def test_jacobi_certificate_past_the_pinned_ranks(series):
    ch.build_structure_constants(rc.build_root_datum(series, 12), verify="full")


def test_constants_csv_rows():
    sc = sc_of("G", 2)
    rows = [(a, b, n) for a, row in ch.constants_csv_rows(sc) for b, n in row]
    assert all(n != 0 for _, _, n in rows)
    assert len(rows) == sum(
        1 for a in sc.rd.roots for b in sc.rd.roots
        if any(x + y for x, y in zip(a, b))
        and sc.rd.is_root(tuple(x + y for x, y in zip(a, b))))


@pytest.mark.parametrize("series,rank", [("G", 2), ("F", 4), ("E", 6)],
                         ids=["G2", "F4", "E6"])
def test_bracket_matches_bilinear_oracle(series, rank):
    sc = sc_of(series, rank)
    roots = sc.rd.roots
    rng = random.Random(rank)

    def rand_elem():
        h = tuple(rng.randint(-4, 4) for _ in range(rank))
        e = {roots[rng.randrange(len(roots))]: rng.randint(-4, 4) for _ in range(6)}
        return h, {r: c for r, c in e.items() if c}

    for _ in range(40):
        x, y = rand_elem(), rand_elem()
        assert _bracket(sc, x, y) == _oracle_bracket(sc, x, y)
    for a in roots:
        for b in roots[::3]:
            x, y = ((0,) * rank, {a: 1}), ((0,) * rank, {b: 1})
            assert _bracket(sc, x, y) == _oracle_bracket(sc, x, y)


@pytest.mark.parametrize("c", [Q(-3), Q(2, 7)], ids=["-3", "2/7"])
def test_projective_and_homogeneous_scaling(c):
    # extremality is projective; the cubic and quadratic are homogeneous of
    # degree 3 and 2.  Scaling by c = num/den is checked as scaling by the
    # integers num and den
    sc = sc_of("B", 3)
    rd = sc.rd
    ad = ca.adjoint_data("B", 3)
    rho, j0 = ad.rho, ad.j0
    ks = (c.numerator, c.denominator)
    samples = [ch.twistor_conic_sample(sc, rho, t) for t in (1, Q(-5, 7))]
    samples += [ch.LieElement.make(3, None, {g: 3}) for g in rd.roots]
    samples.append(ch.LieElement.make(3, [6, 3, 0], {rho: 4}))
    for x in samples:
        assert all(ch.is_extremal(sc, x) == ch.is_extremal(sc, _scaled(k, x)) for k in ks)

    dom = ch.contact_hyperplane_roots(rd, j0)
    rng = random.Random(5)
    vectors = [ch.LieElement.make(3, None, {dom[0]: 1, dom[1]: 1})]
    vectors += [ch.LieElement.make(3, None, {g: rng.randint(-3, 3)
                                             for g in dom if rng.random() < 0.5})
                for _ in range(20)]
    for v in vectors:
        cubic = ch.contact_cubic(sc, rho, j0, v)
        quad = ch.contact_quadratic(sc, rho, v)
        for k in ks:
            assert ch.contact_cubic(sc, rho, j0, _scaled(k, v)) == _scaled(k ** 3, cubic)
            assert ch.contact_quadratic(sc, rho, _scaled(k, v)) == _scaled(k ** 2, quad)


@pytest.mark.parametrize("series,rank", [("G", 2), ("B", 3), ("F", 4)], ids=["G2", "B3", "F4"])
def test_is_extremal_matches_a_bracket_oracle(series, rank):
    sc = sc_of(series, rank)
    rd = sc.rd
    rho = rc.highest_root(rd)
    neg = tuple(-x for x in rho)
    rng = random.Random(rank)
    xs = [ch.twistor_conic_sample(sc, rho, t) for t in (0, 1, Q(-5, 7), Q(9, 2))]
    xs += [ch.LieElement.make(rank, None, {g: rng.randint(1, 5)}) for g in rd.roots[::2]]
    xs += [ch.LieElement.make(rank, None, {rho: 1, neg: 1}),
           ch.LieElement.make(rank, [1] + [0] * (rank - 1)),
           ch.LieElement.make(rank, [1] * rank, {rho: 2})]
    for _ in range(8):
        xs.append(ch.LieElement.make(rank, None, {
            rd.roots[rng.randrange(len(rd.roots))]: rng.randint(-4, 4) for _ in range(2)}))
    verdicts = []
    for x in xs:
        if x.is_zero():
            continue
        verdicts.append(ch.is_extremal(sc, x))
        assert verdicts[-1] == _oracle_extremal(sc, _pair(x)), x
    assert True in verdicts and False in verdicts


def _implication_by_brackets(sc, rho, j0, samples, seed):
    """The sampled implication check evaluated per sample on the oracle bracket.

    Same draws, order and tags as `contact_implication_check`, each rational
    vector tested through [v, [v, e_rho]] and [v, [v, [v, e_rho]]] on
    `_oracle_bracket`.
    """
    rng = random.Random(seed)
    dom = ch.contact_hyperplane_roots(sc.rd, j0)
    e_rho = ((0,) * sc.rank, {rho: 1})
    violations, hits, tested = [], 0, 0

    def run(e, tag):
        nonlocal hits
        v = ((0,) * sc.rank, {g: c for g, c in e.items() if c})
        if not v[1]:
            return
        quad = _oracle_bracket(sc, v, _oracle_bracket(sc, v, e_rho))
        if not any(_oracle_bracket(sc, v, quad)[1].values()):
            hits += 1
            if any(quad[0]) or quad[1]:
                violations.append(f"{tag}: cubic vanishes but quadratic does not")

    for a in range(len(dom)):
        for b in range(a + 1, len(dom)):
            for c in (Q(1), Q(-1), Q(2), Q(-2), Q(1, 2)):
                run({dom[a]: 1, dom[b]: c}, f"pair({a},{b},{c})")
                tested += 1
    while tested < samples:
        draws = [(g, rng.randint(-20, 20), rng.randint(1, 20))
                 for g in dom if rng.random() < 0.7]
        run({g: Q(num, den) for g, num, den in draws}, "random")
        tested += 1
    return ch.ImplicationReport(tested, hits, tuple(violations))


@pytest.mark.parametrize("label,seed", [("G2", 0), ("G2", 4001), ("B3", 11), ("B3", 4001),
                                        ("D4", 5), ("F4", 5)])
def test_implication_check_matches_the_bracket_loop(label, seed):
    series, rank = ca.parse_label(label)
    ad = ca.adjoint_data(series, rank)
    sc = sc_of(series, rank)
    rep = ch.contact_implication_check(sc, ad.rho, ad.j0, 800, seed)
    assert rep == _implication_by_brackets(sc, ad.rho, ad.j0, 800, seed)
    assert rep.cubic_zero_hits > 0
    assert rep.clean == (label == "G2")


def _contact_forms_of(label):
    series, rank = ca.parse_label(label)
    ad = ca.adjoint_data(series, rank)
    sc = sc_of(series, rank)
    m = len(ch.contact_hyperplane_roots(ad.g, ad.j0))
    return sc, ad, m, ch._contact_forms(sc, ad.rho, ad.j0)


@pytest.mark.parametrize("label,n_quads,outside", [("G2", 3, 0), ("B3", 6, 3)])
def test_quadratic_coordinates_against_a_groebner_radical_oracle(label, n_quads, outside):
    # Rabinowitsch: q lies in the radical of (c_1, ..., c_n) iff the ideal
    # (c_1, ..., c_n, 1 - t q) is the unit ideal
    sympy = pytest.importorskip("sympy")
    _, _, m, (quads, cubics) = _contact_forms_of(label)
    v = sympy.symbols(f"v0:{m}")
    t = sympy.Symbol("t")

    def expr(p):
        return sum(c * sympy.Mul(*(v[k] for k in mono)) for mono, c in p.items())

    cs = [expr(c) for c in cubics]
    in_radical = [sympy.groebner(cs + [1 - t * expr(q)], *v, t, order="grevlex").exprs == [1]
                  for q in quads]
    assert (len(quads), in_radical.count(False)) == (n_quads, outside)


def test_g2_contact_certificate_is_exact_and_every_change_breaks_it():
    sc, ad, m, (quads, cubics) = _contact_forms_of("G2")
    cert, why = ch.contact_certificate(sc, ad.rho, ad.j0)
    assert why == ""
    assert (cert.quadratics, cert.cubics) == (quads, cubics)
    assert (len(quads), len(cubics), m) == (3, 4, 4)
    assert tuple(d for d, _ in cert.multipliers) == (3, 3, 3)
    assert ch._certificate_holds(cert)
    for i, (d, forms) in enumerate(cert.multipliers):
        changed = [(d + 1, forms)]
        for j, a in enumerate(forms):
            for k in range(m):
                # one coefficient of a_ij, zero or not, moved by one
                a2 = {**a, (k,): a.get((k,), 0) + 1}
                changed.append((d, forms[:j] + ({x: c for x, c in a2.items() if c},)
                                + forms[j + 1:]))
        for mult in changed:
            multipliers = cert.multipliers[:i] + (mult,) + cert.multipliers[i + 1:]
            assert not ch._certificate_holds(ch.ContactCertificate(quads, cubics, multipliers))


def test_b3_has_no_contact_certificate():
    sc, ad, _, _ = _contact_forms_of("B3")
    cert, why = ch.contact_certificate(sc, ad.rho, ad.j0)
    assert cert is None
    assert why == "quadratic coordinate 1 of 6 is no linear combination of the cubic's"


@pytest.mark.parametrize("zero,detail", [(0, "the contact quadratic is zero"),
                                         (1, "the contact cubic is zero")])
def test_a_zero_contact_form_is_a_named_failure(monkeypatch, zero, detail):
    contact_forms = ch._contact_forms

    def emptied(sc, rho, j0):
        forms = list(contact_forms(sc, rho, j0))
        forms[zero] = ()
        return tuple(forms)

    monkeypatch.setattr(ch, "_contact_forms", emptied)
    results = {r.name: r for r in verify.chevalley_checks("G2")}
    check = results["chevalley.g2-implication.G2"]
    assert not check.ok and check.detail == detail
