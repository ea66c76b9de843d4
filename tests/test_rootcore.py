import pytest

from conicfans import rootcore as rc
from conicfans.fixtures import supported_labels

COUNTS = {("A", 1): 2, ("A", 2): 6, ("B", 3): 18, ("B", 4): 32, ("C", 3): 18,
          ("D", 4): 24, ("E", 6): 72, ("E", 7): 126, ("E", 8): 240,
          ("F", 4): 48, ("G", 2): 12}


@pytest.mark.parametrize("series,rank", sorted(COUNTS))
def test_root_counts(series, rank):
    rd = rc.build_root_datum(series, rank)
    assert len(rd.roots) == COUNTS[(series, rank)]
    assert len(rd.positive_roots) * 2 == len(rd.roots)


def test_invalid_types_rejected():
    for series, rank in [("H", 3), ("A", 0), ("E", 9), ("F", 5), ("G", 3), ("D", 3)]:
        with pytest.raises(rc.InvalidTypeError):
            rc.build_root_datum(series, rank)


def test_g2_positive_roots():
    g2 = rc.build_root_datum("G", 2)
    assert set(g2.positive_roots) == {
        (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}
    assert rc.highest_root(g2) == (3, 2)


def test_small_highest_roots():
    assert rc.highest_root(rc.build_root_datum("A", 1)) == (1,)
    assert rc.highest_root(rc.build_root_datum("B", 4)) == (1, 2, 2, 2)


def test_reflections_in_a2():
    a2 = rc.build_root_datum("A", 2)
    assert rc.reflect(a2, (1, 0), 1) == (-1, 0)
    assert rc.reflect(a2, (0, 1), 1) == (1, 1)
    assert rc.weyl_apply(a2, rc.WeylWord(()), (5, 7)) == (5, 7)
    with pytest.raises(IndexError):
        rc.reflect(a2, (1, 0), 3)


def test_reflection_closure_and_killing():
    for series, rank in [("B", 3), ("F", 4), ("G", 2), ("D", 5)]:
        rd = rc.build_root_datum(series, rank)
        for g in rd.roots:
            for i in range(1, rd.rank + 1):
                assert rd.is_root(rd.reflect(g, i))
        k = rd.killing
        for i in range(rd.rank):
            for j in range(rd.rank):
                assert 2 * k[i][j] / k[j][j] == rd.cartan[i][j]
                prod = rd.cartan[i][j] * rd.cartan[j][i]
                if i != j:
                    assert prod in (0, 1, 2, 3)


def test_reflection_is_killing_isometry():
    rd = rc.build_root_datum("F", 4)
    v, w = (1, 2, 0, 1), (0, 1, 1, 1)
    for i in range(1, 5):
        assert rd.killing_pair(rd.reflect(v, i), rd.reflect(w, i)) == rd.killing_pair(v, w)


def test_longest_element():
    a1 = rc.build_root_datum("A", 1)
    assert rc.longest_element(a1).word == (1,)
    for series, rank in [("B", 4), ("E", 6), ("D", 5)]:
        rd = rc.build_root_datum(series, rank)
        w0 = rc.longest_element(rd)
        assert len(w0.word) == len(rd.positive_roots)
        v = tuple(map(sum, zip(*rd.positive_roots)))    # 2 rho
        image = rc.weyl_apply(rd, w0, v)
        assert all(rd.pairing(image, i) < 0 for i in range(1, rd.rank + 1))
        assert rc.weyl_apply(rd, w0, image) == v


def test_duality_involution():
    assert rc.duality_involution(rc.build_root_datum("B", 5)) == {
        i: i for i in range(1, 6)}
    assert rc.duality_involution(rc.build_root_datum("A", 2)) == {1: 2, 2: 1}
    e6 = rc.duality_involution(rc.build_root_datum("E", 6))
    assert e6 == {1: 5, 2: 4, 3: 3, 4: 2, 5: 1, 6: 6}


def test_parabolic_intersection():
    p1 = rc.ParabolicSubset.of(3)
    p2 = rc.ParabolicSubset.of(1)
    assert rc.parabolic_intersection(p1, p2).missing == {1, 3}
    assert rc.parabolic_intersection(rc.ParabolicSubset(frozenset()), p1).missing == {3}
    union = rc.parabolic_intersection(rc.ParabolicSubset.of(2, 4),
                                      rc.ParabolicSubset.of(3),
                                      rc.ParabolicSubset.of(6))
    assert union.missing == {2, 3, 4, 6}


def test_coset_orbit_sizes():
    a2 = rc.build_root_datum("A", 2)
    assert len(rc.coset_orbit(a2, rc.ParabolicSubset.of(1))) == 3
    b3 = rc.build_root_datum("B", 3)
    assert len(rc.coset_orbit(b3, rc.ParabolicSubset.of(1))) == 6
    # orbit sizes divide the Weyl order |W(B3)| = 2^3 * 3! = 48
    for subset in [{1}, {2}, {1, 3}]:
        orbit = rc.coset_orbit(b3, rc.ParabolicSubset(frozenset(subset)))
        assert 48 % len(orbit) == 0


def test_coset_orbit_cap():
    e7 = rc.build_root_datum("E", 7)
    with pytest.raises(rc.OrbitLimitError):
        rc.coset_orbit(e7, rc.ParabolicSubset.of(1, 2, 3, 4, 5, 6, 7), cap=1000)


def test_e7_inside_e8_levi_orbit_is_small():
    e8 = rc.build_root_datum("E", 8)
    pss, mapping = rc.subdatum(e8, range(2, 9))
    assert pss.components == (("E", 7),)
    orbit = rc.coset_orbit(pss, rc.ParabolicSubset.of(mapping[2]))
    # the crossed end node leaves an E6 stabilizer: the 56-point coset space
    assert len(orbit) == 56
    assert 2903040 % len(orbit) == 0  # |W(E7)|


def test_double_coset_counts():
    g2 = rc.build_root_datum("A", 1)
    assert rc.double_coset_count(g2, rc.ParabolicSubset.of(1)) == 2
    prod = rc.RootDatum(((2, 0, 0), (0, 2, 0), (0, 0, 2)))  # A1 x A1 x A1
    assert rc.double_coset_count(prod, rc.ParabolicSubset.of(1, 2, 3)) == 8
    c3 = rc.build_root_datum("C", 3)
    assert rc.double_coset_count(c3, rc.ParabolicSubset.of(3)) == 4
    assert rc.double_coset_count(c3, rc.ParabolicSubset(frozenset())) == 1


def test_double_coset_trivial_iff_empty():
    b3 = rc.build_root_datum("B", 3)
    assert rc.double_coset_count(b3, rc.ParabolicSubset(frozenset())) == 1
    for bits in range(1, 8):
        subset = frozenset(i + 1 for i in range(3) if bits >> i & 1)
        assert rc.double_coset_count(b3, rc.ParabolicSubset(subset)) >= 2


def test_double_coset_relabel_invariance():
    # the triality-symmetric D4 counts do not depend on which outer node is used
    d4 = rc.build_root_datum("D", 4)
    pss, mapping = rc.subdatum(d4, [1, 3, 4])
    counts = {rc.double_coset_count(pss, rc.ParabolicSubset.of(mapping[i]))
              for i in (1, 3, 4)}
    assert len(counts) == 1


def test_subdatum_components():
    b5 = rc.build_root_datum("B", 5)
    pss, mapping = rc.subdatum(b5, [1, 3, 4, 5])
    assert pss.components == (("A", 1), ("B", 3))
    assert mapping == {1: 1, 3: 2, 4: 3, 5: 4}
    d5 = rc.build_root_datum("D", 5)
    sub, _ = rc.subdatum(d5, [1, 3, 4, 5])
    assert sub.components == (("A", 1), ("A", 3))


# ---------------------------------------------------------------------------
# Record: the frozen value base of every record type

def test_record_repr_matches_the_dataclass_text():
    from conicfans.lunavust import ConeCheck
    from conicfans.verify import CheckResult
    assert repr(rc.ParabolicSubset.of(3, 1)) == "ParabolicSubset(missing=frozenset({1, 3}))"
    assert repr(rc.WeylWord((1, 2))) == "WeylWord(word=(1, 2))"
    assert repr(CheckResult("x", False, "it's")) == (
        "CheckResult(name='x', ok=False, detail=\"it's\")")
    assert repr(ConeCheck(False, ("a",))) == "ConeCheck(ok=False, diagnostics=('a',))"


def test_record_equality_is_per_class_and_hash_follows_fields():
    cartan = ((2, -1), (-1, 2))
    word, datum = rc.WeylWord(cartan), rc.RootDatum(cartan)
    assert word != datum and datum != word
    assert word != (cartan,)
    assert rc.RootDatum(cartan) == datum
    assert hash(rc.RootDatum(cartan)) == hash(datum)
    assert len({rc.WeylWord((1, 2)), rc.WeylWord((1, 2)), rc.WeylWord((2, 1))}) == 2


def test_record_hash_is_cached_once_and_never_pickled():
    import pickle
    a, b = rc.WeylWord((1, 2)), rc.WeylWord((1, 2))
    assert "_hash" not in vars(a)
    assert hash(a) == hash(b) == hash(((1, 2),))
    assert vars(a)["_hash"] == hash(a)
    # another process may hash strings with another seed, so no cached hash travels
    back = pickle.loads(pickle.dumps(a))
    assert "_hash" not in vars(back) and "_hash" in vars(a)
    assert back == a and hash(back) == hash(a)
    assert rc.WeylWord((1, 2)) != rc.WeylWord((2, 1))


def test_record_is_frozen():
    w = rc.WeylWord((1,))
    with pytest.raises(AttributeError):
        w.word = (2,)
    with pytest.raises(AttributeError):
        w.other = 1
    with pytest.raises(AttributeError):
        del w.word
    assert w.word == (1,)


def test_record_constructor_binds_fields_and_defaults():
    from conicfans.lunavust import ConeCheck
    from conicfans.verify import CheckResult
    assert ConeCheck(True).diagnostics == ()
    assert CheckResult(ok=True, name="x") == CheckResult("x", True, "")
    for args, kwargs in [(("x",), {}), (("x", True, "", 1), {}),
                         (("x", True), {"extra": 1}), (("x", True), {"name": "y"})]:
        with pytest.raises(TypeError):
            CheckResult(*args, **kwargs)
    with pytest.raises(ValueError):
        rc.ParabolicSubset(frozenset({0}))


def test_record_pickle_round_trip_keeps_cached_values():
    import pickle

    from conicfans.verify import CheckResult
    res = CheckResult("rootcore.count.B3", True)
    assert pickle.loads(pickle.dumps(res)) == res
    rd = rc.RootDatum(rc.simple_cartan("B", 3))
    roots = rd.roots
    back = pickle.loads(pickle.dumps(rd))
    assert back == rd and "roots" in vars(back) and back.roots == roots


# ---------------------------------------------------------------------------
# sympy's Lie algebra tables as independent oracles

def _simultaneous_permutation(a, b):
    """A permutation p with a[p[i]][p[j]] == b[i][j] for all i, j, or None."""
    n = len(a)

    def extend(p):
        i = len(p)
        if i == n:
            return p
        for k in range(n):
            if k not in p and a[k][k] == b[i][i] and all(
                    a[k][p[j]] == b[i][j] and a[p[j]][k] == b[j][i] for j in range(i)):
                found = extend(p + [k])
                if found:
                    return found
        return None

    return extend([])


def _pinned_types():
    from conicfans.conicatlas import parse_label
    return [(label, *parse_label(label)) for label in supported_labels(8)]


def test_root_counts_match_sympy():
    root_system = pytest.importorskip("sympy.liealgebras.root_system")
    for label, series, rank in _pinned_types():
        rd = rc.build_root_datum(series, rank)
        assert len(root_system.RootSystem(label).all_roots()) == len(rd.roots), label


def test_cartan_matrices_match_sympy_up_to_renumbering():
    cartan_matrix = pytest.importorskip("sympy.liealgebras.cartan_matrix")
    for label, series, rank in _pinned_types():
        theirs = cartan_matrix.CartanMatrix(label).tolist()
        assert _simultaneous_permutation(rc.simple_cartan(series, rank), theirs), label


def test_scaled_killing_is_the_reduced_rational_killing_matrix():
    """(K, D) against C G^-1 C^t from the Fraction elimination, for every label."""
    from math import lcm

    import fraction_ref as ref

    from conicfans.conicatlas import parse_label
    for label in supported_labels(8):
        rd = rc.build_root_datum(*parse_label(label))
        n = rd.rank
        pvs = [[rd.pairing(g, i) for i in range(1, n + 1)] for g in rd.roots]
        gram = [[sum(pv[i] * pv[j] for pv in pvs) for j in range(n)] for i in range(n)]
        ginv = ref.inverse(gram)
        killing = [[sum(rd.cartan[i][a] * ginv[a][b] * rd.cartan[j][b]
                        for a in range(n) for b in range(n)) for j in range(n)]
                   for i in range(n)]
        d = lcm(*(x.denominator for row in killing for x in row))
        assert rd.root_table.killing == (tuple(tuple(int(x * d) for x in row)
                                               for row in killing), d), label


@pytest.mark.parametrize("label", [*supported_labels(8), "B12", "D12"])
def test_root_table_rows_are_the_pairings_and_norms(label):
    """Each row of the closure's table, recomputed root by root."""
    rd = rc.build_root_datum(label[0], int(label[1:]))
    tab = rd.root_table
    assert tab.roots == rd.roots == tuple(sorted(tab.roots))
    # the Killing matrix, recomputed from the rows of the negative roots
    assert tab.killing == rc._scaled_killing_of(rd.cartan, tab.pairing[:len(tab.roots) // 2])
    for i, g in enumerate(tab.roots):
        assert tab.index[g] == i
        assert tab.roots[tab.neg[i]] == tuple(-x for x in g)
        assert tab.pairing[i] == tuple(rd.pairing(g, k) for k in range(1, rd.rank + 1))
        assert tab.norm2[i] == rd.killing_int(g, g)


# ---------------------------------------------------------------------------
# Finite type by positive definiteness, double cosets by dominant weights

SYMPY_TYPES = ([("A", r) for r in range(2, 17)] + [("B", r) for r in range(2, 17)]
               + [("C", r) for r in range(3, 17)] + [("D", r) for r in range(4, 17)]
               + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def test_classification_matches_sympys_cartan_matrices():
    """sympy numbers the nodes its own way, so it is an independent oracle."""
    cartan_matrix = pytest.importorskip("sympy.liealgebras.cartan_matrix")
    for series, rank in SYMPY_TYPES:
        theirs = cartan_matrix.CartanMatrix(f"{series}{rank}").tolist()
        assert rc.classify_component(theirs, range(rank)) == (series, rank)


def test_classification_ignores_the_numbering():
    import random
    rng = random.Random(7)
    for series, rank in SYMPY_TYPES:
        cart = rc.simple_cartan(series, rank)
        for _ in range(3):
            p = rng.sample(range(rank), rank)
            permuted = [[cart[p[i]][p[j]] for j in range(rank)] for i in range(rank)]
            assert rc.classify_component(permuted, range(rank)) == (series, rank), p


def _connected_subsets(rd):
    """Every nonempty connected set of 1-based nodes of the diagram."""
    n = rd.rank
    for bits in range(1, 2 ** n):
        nodes = [i + 1 for i in range(n) if bits >> i & 1]
        if len(rc.subdatum(rd, nodes)[0].component_nodes) == 1:
            yield nodes


@pytest.mark.parametrize("series,rank", [("E", 8), ("F", 4), ("B", 8), ("D", 8)])
def test_every_connected_subdiagram_closes_to_its_classified_root_count(series, rank):
    """The closure pass counts the roots without the classification, and the
    root table raises unless the two agree."""
    rd = rc.build_root_datum(series, rank)
    seen = 0
    for nodes in _connected_subsets(rd):
        sub, _ = rc.subdatum(rd, nodes)
        assert len(sub.components) == 1 and sub.components[0][1] == len(nodes)
        assert len(sub.root_table.roots) == rc._simple_root_count(*sub.components[0])
        seen += 1
    assert seen == {"E": 44, "F": 10, "B": 36, "D": 41}[series]


def _extended_cartan(series, rank):
    """The Cartan matrix of the extended diagram: node 0 is minus the highest root."""
    rd = rc.build_root_datum(series, rank)
    vecs = [tuple(-x for x in rc.highest_root(rd)),
            *(tuple(int(k == i) for k in range(rank)) for i in range(rank))]
    return [[2 * rd.killing_int(a, b) // rd.killing_int(b, b) for b in vecs] for a in vecs]


def _path(bonds):
    """A path diagram with a_(i,i+1) and a_(i+1,i) from each pair of bonds."""
    n = len(bonds) + 1
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, (x, y) in enumerate(bonds):
        a[i][i + 1], a[i + 1][i] = x, y
    return a


def _tree(arms):
    """A simply-laced star: node 0 with one path of the given length per arm."""
    edges, n = [], 1
    for length in arms:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        a[i][j] = a[j][i] = -1
    return a


NOT_FINITE = {
    "4-cycle": [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]],
    **{f"extended {s}{r}": _extended_cartan(s, r) for s, lo, hi in [
        ("A", 2, 8), ("B", 3, 8), ("D", 4, 8), ("E", 6, 8), ("F", 4, 4), ("G", 2, 2)]
       for r in range(lo, hi + 1)},
    "star with four arms": _tree([1, 1, 1, 1]),
    "path with two double bonds": _path([(-1, -2), (-1, -1), (-2, -1)]),
    "T(2,3,6)": _tree([1, 2, 5]),
}


@pytest.mark.parametrize("name", sorted(NOT_FINITE))
def test_a_diagram_of_infinite_type_is_a_named_failure(name):
    a = NOT_FINITE[name]
    with pytest.raises(rc.StructureError, match=r"^diagram \[\[.*\]\] is not of finite type: "):
        rc.classify_component(a, range(len(a)))
    with pytest.raises(rc.StructureError, match="is not of finite type"):
        rc.RootDatum(tuple(map(tuple, a))).roots


def test_extended_a_diagrams_are_the_cycles():
    for r in range(2, 9):
        a = NOT_FINITE[f"extended A{r}"]
        assert sorted(map(sorted, a)) == [[-1, -1, *[0] * (r - 2), 2]] * (r + 1)


def test_a_positive_off_diagonal_entry_is_a_named_failure():
    with pytest.raises(rc.StructureError, match=r"^\[\[2, 1\], \[-1, 2\]\] is not a "
                                                r"generalized Cartan matrix$"):
        rc.classify_component([[2, 1], [-1, 2]], range(2))
    with pytest.raises(rc.StructureError, match="is not a generalized Cartan matrix"):
        rc.classify_component([[2, -1], [0, 2]], range(2))


def _double_cosets_by_traversal(rd, subset):
    """|W_Q \\ W / W_Q| as the number of W_Q-orbits on the coset orbit, each
    walked under the uncrossed simple reflections."""
    orbit = rc.coset_orbit(rd, subset)
    gens = [i for i in range(rd.rank) if (i + 1) not in subset.missing]
    seen, classes = set(), 0
    for p0 in orbit:
        if p0 in seen:
            continue
        classes += 1
        seen.add(p0)
        todo = [p0]
        while todo:
            p = todo.pop()
            for i in gens:
                c = p[i]
                if c:
                    q = tuple(x - c * y for x, y in zip(p, rd.cartan[i]))
                    if q not in seen:
                        seen.add(q)
                        todo.append(q)
    return classes


def test_double_coset_count_matches_the_orbit_traversal_on_the_contact_levis():
    from conicfans.symdata import adjoint_data
    types = ([("B", r) for r in range(3, 17)] + [("D", r) for r in range(4, 17)]
             + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
    for series, rank in types:
        ad = adjoint_data(series, rank)
        assert rc.double_coset_count(ad.pss, ad.q_crossed) == \
            _double_cosets_by_traversal(ad.pss, ad.q_crossed), (series, rank)


@pytest.mark.parametrize("series,rank", [("B", 3), ("C", 3), ("F", 4), ("G", 2)])
def test_double_coset_count_matches_the_orbit_traversal_on_every_crossed_set(series, rank):
    rd = rc.build_root_datum(series, rank)
    for bits in range(1, 2 ** rank):
        subset = rc.ParabolicSubset(frozenset(i + 1 for i in range(rank) if bits >> i & 1))
        assert rc.double_coset_count(rd, subset) == _double_cosets_by_traversal(rd, subset)
