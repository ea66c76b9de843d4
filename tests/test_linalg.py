import itertools
import random
from fractions import Fraction as Q

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
    m = [[Q(2), Q(-1)], [Q(-3), Q(2)]]
    inv = linalg.inverse(m)
    assert linalg.mat_mul(m, inv) == linalg.identity(2)


def test_solve_and_nullspace():
    a = [[Q(1), Q(2)], [Q(2), Q(4)]]
    assert linalg.solve(a, [Q(3), Q(6)]) is not None
    assert linalg.solve(a, [Q(3), Q(7)]) is None
    ns = linalg.int_nullspace(a)
    assert len(ns) == 1
    assert [linalg.vdot(row, ns[0]) for row in a] == [0, 0]


def test_feasible_simple():
    # x >= 1 and x <= 2 is feasible; x >= 1 and x <= 0 is not
    assert linalg.feasible([], [[Q(1), Q(-1)], [Q(-1), Q(2)]], 1)
    assert not linalg.feasible([], [[Q(1), Q(-1)], [Q(-1), Q(0)]], 1)


def test_feasible_with_equalities():
    # x + y = 1, x >= 0, y >= 0 feasible; adding x >= 2 breaks it
    eqs = [[Q(1), Q(1), Q(-1)]]
    ineqs = [[Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(0)]]
    assert linalg.feasible(eqs, ineqs, 2)
    assert not linalg.feasible(eqs, ineqs + [[Q(1), Q(0), Q(-2)]], 2)


def test_feasible_matches_brute_force_on_random_systems():
    rng = random.Random(5)
    grid = [Q(n, d) for n in range(-4, 5) for d in (1, 2, 3)]
    for _ in range(120):
        nvars = rng.randint(1, 3)
        rows = [[Q(rng.randint(-3, 3)) for _ in range(nvars)] + [Q(rng.randint(-3, 3))]
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


# Oracles for the integer core: the Fraction Gauss-Jordan elimination and
# determinant it replaced, and for `feasible` an enumeration of minimal faces
# on top of them.  (sympy 1.14's exact simplex cannot serve: on systems of
# this size its `linprog` and `lpmin` returned points breaking the
# constraints, called x <= -1 over a free x infeasible, and cycled.)

def _ref_rref(rows):
    m = [[Q(x) for x in row] for row in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _ref_det(m):
    n = len(m)
    a = [[Q(x) for x in row] for row in m]
    d = Q(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return Q(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            d = -d
        d *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


def _ref_nullspace(rows, ncols):
    red, pivots = _ref_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(tuple(v))
    return basis


def _ref_solve(a, b, ncols):
    red, pivots = _ref_rref([list(row) + [b[i]] for i, row in enumerate(a)])
    if ncols in pivots:
        return None
    x = [Q(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][-1]
    return tuple(x)


entries = st.one_of(st.integers(-6, 6), st.builds(Q, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def matrices(draw, square=False):
    """Small rational matrices with zero rows and dependent rows mixed in."""
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
    return ncols, rows


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_rank_and_nullspace_match_the_fraction_elimination(data):
    ncols, rows = data
    _, pivots = _ref_rref(rows)
    assert linalg.rank(rows) == len(pivots)
    assert linalg.int_nullspace(rows, ncols) == [
        linalg.primitive(v) for v in _ref_nullspace(rows, ncols)]


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_the_fraction_elimination(data, draw):
    ncols, rows = data
    b = [draw.draw(entries) for _ in rows]
    got = linalg.solve(rows, b) if rows else linalg.solve(rows, [0] * ncols)
    assert got == (_ref_solve(rows, b, ncols) if rows else (Q(0),) * ncols)
    if got is not None:
        assert [linalg.vdot(row, got) for row in rows] == [Q(x) for x in b]


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_det_and_inverse_match_the_fraction_elimination(data):
    n, rows = data
    d = _ref_det(rows)
    assert linalg.det(rows) == d
    if d == 0:
        with pytest.raises(ValueError):
            linalg.inverse(rows)
        return
    red, _ = _ref_rref([list(row) + [Q(int(i == j)) for j in range(n)]
                        for i, row in enumerate(rows)])
    inv = linalg.inverse(rows)
    assert inv == tuple(tuple(r[n:]) for r in red)
    assert linalg.mat_mul(rows, inv) == linalg.identity(n)


def _feasible_by_minimal_faces(eqs, ineqs, nvars):
    """Feasibility from the minimal faces, with the Fraction elimination.

    A nonempty polyhedron {x : E x + e = 0, M x + m >= 0} has a minimal face,
    and a minimal face is the whole affine space {x : E x + e = 0, M_I x +
    m_I = 0} for the rows I tight on it (Schrijver, Theory of Linear and
    Integer Programming, Thm. 8.4).  So the system is feasible exactly when,
    for some set I of inequality rows, a solution of those equations meets
    every inequality.
    """
    for k in range(len(ineqs) + 1):
        for tight in itertools.combinations(ineqs, k):
            rows = list(eqs) + list(tight)
            x = _ref_solve([r[:-1] for r in rows], [-r[-1] for r in rows], nvars)
            if x is not None and all(
                    sum(c * y for c, y in zip(r, x)) + r[-1] >= 0 for r in ineqs):
                return True
    return False


@st.composite
def systems(draw):
    nvars = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3), min_size=nvars + 1, max_size=nvars + 1)
    eqs = draw(st.lists(row, max_size=2))
    ineqs = draw(st.lists(row, min_size=1, max_size=5))
    scale = draw(st.integers(1, 3))
    return nvars, [[Q(x, scale) for x in r] for r in eqs], ineqs


@settings(max_examples=300, deadline=None)
@given(systems())
def test_feasible_matches_the_minimal_face_enumeration(system):
    nvars, eqs, ineqs = system
    assert linalg.feasible(eqs, ineqs, nvars) == _feasible_by_minimal_faces(eqs, ineqs, nvars)


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_int_inverse_is_the_determinant_and_the_adjugate(data):
    _, rows = data
    ints = [linalg.int_row(r) for r in rows]
    d, adj = linalg.int_inverse(ints)
    assert type(d) is int and d == _ref_det(ints)
    if d == 0:
        assert adj is None
        return
    assert all(type(x) is int for row in adj for x in row)
    assert adj == tuple(tuple(d * x for x in row) for row in linalg.inverse(ints))
