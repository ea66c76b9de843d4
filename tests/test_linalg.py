import random
from fractions import Fraction as Q
from math import lcm

import fraction_ref as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicfans import linalg


def test_primitive_clears_denominators():
    assert linalg.primitive([Q(1, 2), Q(-1, 3)]) == (3, -2)
    assert linalg.primitive([Q(4), Q(6)]) == (2, 3)


def test_primitive_keeps_direction():
    assert linalg.primitive([Q(-2), Q(-4)]) == (-1, -2)
    with pytest.raises(ValueError):
        linalg.primitive([Q(0), Q(0)])


def test_inverse_round_trip():
    m = [[2, -1], [-3, 2]]
    d, adj = linalg.int_inverse(m)
    assert (d, adj) == (1, ((2, 1), (3, 2)))
    assert ref.mat_mul(m, adj) == ref.mat_mul(adj, m) == linalg.identity(2)


def test_solve_and_nullspace():
    a = [[1, 2], [2, 4]]
    assert linalg.solve(a, [3, 6]) == (1, (3, 0))
    assert linalg.solve(a, [3, 7]) is None
    assert linalg.solve([[2, 0], [0, 3]], [1, 1]) == (6, (3, 2))
    # with no rows the width comes from ncols, as in int_nullspace
    assert linalg.solve([], [], 3) == (1, (0, 0, 0))
    with pytest.raises(ValueError, match="need ncols"):
        linalg.solve([], [])
    ns = linalg.int_nullspace(a)
    assert len(ns) == 1
    assert [linalg.vdot(row, ns[0]) for row in a] == [0, 0]


def test_feasible_simple():
    # x >= 1 and x <= 2 is feasible; x >= 1 and x <= 0 is not
    assert linalg.feasible([], [[1, -1], [-1, 2]], 1)
    assert not linalg.feasible([], [[1, -1], [-1, 0]], 1)


def test_feasible_with_equalities():
    # x + y = 1, x >= 0, y >= 0 feasible; adding x >= 2 breaks it
    eqs = [[1, 1, -1]]
    ineqs = [[1, 0, 0], [0, 1, 0]]
    assert linalg.feasible(eqs, ineqs, 2)
    assert not linalg.feasible(eqs, ineqs + [[1, 0, -2]], 2)


def test_feasible_matches_brute_force_on_random_systems():
    rng = random.Random(5)
    grid = [Q(n, d) for n in range(-4, 5) for d in (1, 2, 3)]
    for _ in range(120):
        nvars = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(nvars + 1)]
                for _ in range(rng.randint(1, 4))]
        got = linalg.feasible([], rows, nvars)
        if got:
            continue  # infeasibility is the fragile direction; spot-check below
        witness = False
        pts = [[x] for x in grid] if nvars == 1 else None
        if nvars == 1:
            for (x,) in pts:
                if all(r[0] * x + r[1] >= 0 for r in rows):
                    witness = True
        else:
            for _ in range(400):
                x = [Q(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(nvars)]
                if all(sum(r[k] * x[k] for k in range(nvars)) + r[-1] >= 0 for r in rows):
                    witness = True
                    break
        assert not witness


entries = st.one_of(st.integers(-6, 6), st.builds(Q, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def matrices(draw, square=False):
    """Small integer matrices with zero rows and dependent rows mixed in.

    Each row is drawn rational and then cleared of its denominators.
    """
    ncols = draw(st.integers(1, 5))
    nrows = ncols if square else draw(st.integers(0, 5))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("free", "free", "zero", "combination")))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combination" and rows:
            i = draw(st.integers(0, len(rows) - 1))
            j = draw(st.integers(0, len(rows) - 1))
            a, b = draw(entries), draw(entries)
            rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
        else:
            rows.append([draw(entries) for _ in range(ncols)])
    return ncols, [ref.clear(r) for r in rows]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_rank_and_nullspace_match_the_fraction_elimination(data):
    ncols, rows = data
    _, pivots = ref.rref(rows)
    assert linalg.rank(rows) == len(pivots)
    assert linalg.int_nullspace(rows, ncols) == [
        linalg.primitive(v) for v in ref.nullspace(rows, ncols)]


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_the_fraction_elimination(data, draw):
    """(d, x) is the reference solution times its least denominator."""
    ncols, rows = data
    b = [draw.draw(st.integers(-6, 6)) for _ in rows]
    got = linalg.solve(rows, b, ncols)
    want = ref.solve(rows, b, ncols)
    if want is None:
        assert got is None
        return
    d, x = got
    assert d == lcm(*(y.denominator for y in want))
    assert x == tuple(d * y for y in want)
    assert all(type(y) is int for y in x)
    assert [linalg.vdot(row, x) for row in rows] == [d * y for y in b]


@st.composite
def systems(draw):
    nvars = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3), min_size=nvars + 1, max_size=nvars + 1)
    eqs = draw(st.lists(row, max_size=2))
    ineqs = draw(st.lists(row, min_size=1, max_size=5))
    return nvars, eqs, ineqs


@settings(max_examples=300, deadline=None)
@given(systems())
def test_feasible_matches_the_minimal_face_enumeration(system):
    nvars, eqs, ineqs = system
    assert linalg.feasible(eqs, ineqs, nvars) == ref.feasible(eqs, ineqs, nvars)


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_det_and_inverse_match_the_fraction_elimination(data):
    """det m and adj(m)/det m are the Fraction determinant and Gauss-Jordan inverse."""
    n, rows = data
    d, adj = linalg.int_inverse(rows)
    assert d == ref.det(rows)
    if d == 0:
        assert adj is None
        return
    red, _ = ref.rref([list(row) + [int(i == j) for j in range(n)]
                       for i, row in enumerate(rows)])
    inv = tuple(tuple(Q(x, d) for x in row) for row in adj)
    assert inv == tuple(tuple(r[n:]) for r in red)
    assert ref.mat_mul(rows, inv) == ref.mat_mul(inv, rows) == linalg.identity(n)


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_int_inverse_is_the_determinant_and_the_adjugate(data):
    n, rows = data
    d, adj = linalg.int_inverse(rows)
    assert type(d) is int and d == ref.det(rows)
    if d == 0:
        assert adj is None and ref.inverse(rows) is None
        return
    assert all(type(x) is int for row in adj for x in row)
    assert adj == tuple(tuple(d * x for x in row) for row in ref.inverse(rows))
    assert ref.mat_mul(rows, adj) == tuple(tuple(d * x for x in row)
                                           for row in linalg.identity(n))


def test_kernels_take_only_int_entries():
    """`primitive` is the one boundary; every other kernel rejects a Fraction."""
    half = [[Q(1, 2), 1], [0, 1]]
    whole = [[Q(2), 1], [0, 1]]
    for rows in (half, whole):
        for call in (lambda: linalg.rank(rows),
                     lambda: linalg.int_nullspace(rows),
                     lambda: linalg.int_inverse(rows),
                     lambda: linalg.solve(rows, [1, 1]),
                     lambda: linalg.feasible([], [r + [0] for r in rows], 2),
                     lambda: linalg.feasible([r + [0] for r in rows], [], 2)):
            with pytest.raises(TypeError):
                call()
    assert linalg.primitive([Q(1, 2), 1]) == (1, 2)
    assert linalg.primitive((Q(2), -4)) == (1, -2)
