"""Rational references for the integer kernels of `conicfans.linalg`.

Fraction Gauss-Jordan elimination, the determinant by it, and feasibility by
an enumeration of minimal faces on top of them.  The tests check the integer
core against these, and the rational oracles of the cone tests run on them,
so no reference shares code with the kernel it checks.  (sympy 1.14's exact
simplex cannot serve: on systems of this size its `linprog` and `lpmin`
returned points breaking the constraints, called x <= -1 over a free x
infeasible, and cycled.)
"""

import itertools
from fractions import Fraction as Q
from math import lcm


def clear(row) -> list[int]:
    """The rational row times the lcm of its denominators: integral, on the same ray."""
    d = lcm(*(Q(x).denominator for x in row))
    return [int(x * d) for x in row]


def mat_mul(a, b):
    """The matrix product, of integer or rational entries."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def rref(rows):
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


def det(m):
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


def inverse(m):
    """The inverse of a square matrix, or None if it is singular."""
    n = len(m)
    red, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                        for i, row in enumerate(m)])
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(r[n:]) for r in red)


def nullspace(rows, ncols):
    red, pivots = rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(tuple(v))
    return basis


def solve(a, b, ncols):
    """The solution of a x = b that is zero on every free column, or None."""
    red, pivots = rref([list(row) + [b[i]] for i, row in enumerate(a)])
    if ncols in pivots:
        return None
    x = [Q(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][-1]
    return tuple(x)


def feasible(eqs, ineqs, nvars):
    """Feasibility of {x : E x + e = 0, M x + m >= 0} from the minimal faces.

    A nonempty polyhedron has a minimal face, and a minimal face is the whole
    affine space {x : E x + e = 0, M_I x + m_I = 0} for the rows I tight on
    it (Schrijver, Theory of Linear and Integer Programming, Thm. 8.4).  So
    the system is feasible exactly when, for some set I of inequality rows, a
    solution of those equations meets every inequality.
    """
    for k in range(len(ineqs) + 1):
        for tight in itertools.combinations(ineqs, k):
            rows = list(eqs) + list(tight)
            x = solve([r[:-1] for r in rows], [-r[-1] for r in rows], nvars)
            if x is not None and all(
                    sum(c * y for c, y in zip(r, x)) + r[-1] >= 0 for r in ineqs):
                return True
    return False
