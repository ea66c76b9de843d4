"""Exact rational linear algebra on tuples of Fractions.

Everything in this package runs over Q; no floating point is used anywhere.
Vectors are tuples, matrices are tuples of row tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Q = Fraction
Vec = tuple[Q, ...]
Mat = tuple[Vec, ...]


def qvec(xs) -> Vec:
    return tuple(Q(x) for x in xs)


def vdot(a: Vec, b: Vec) -> Q:
    return sum((x * y for x, y in zip(a, b, strict=True)), Q(0))


def is_zero(a) -> bool:
    return all(x == 0 for x in a)


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(vdot(row, v) for row in m)


def transpose(m) -> Mat:
    return tuple(zip(*m, strict=True))


def identity(n: int) -> Mat:
    return tuple(tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(vdot(row, col) for col in bt) for row in a)


def rref(rows) -> tuple[list[list[Q]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [[Q(x) for x in row] for row in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: list[int] = []
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


def rank(rows) -> int:
    return len(rref(rows)[1])


def inverse(m) -> Mat:
    n = len(m)
    aug = [list(map(Q, row)) + [Q(1) if i == j else Q(0) for j in range(n)]
           for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))


def det(m) -> Q:
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


def solve(a, b) -> Vec | None:
    """One exact solution of a x = b, or None if inconsistent."""
    nc = len(a[0]) if a else len(b)
    aug = [list(map(Q, row)) + [Q(b[i])] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if nc in pivots:
        return None
    x = [Q(0)] * nc
    for r, c in enumerate(pivots):
        x[c] = red[r][-1]
    return tuple(x)


def nullspace_basis(rows, ncols: int | None = None) -> list[Vec]:
    """Basis of {x : rows @ x = 0}."""
    if not rows:
        if ncols is None:
            raise ValueError("need ncols for empty system")
        return [tuple(Q(1) if i == j else Q(0) for j in range(ncols)) for i in range(ncols)]
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(tuple(v))
    return basis


def primitive(v) -> tuple[int, ...]:
    """Primitive integer vector on the same ray (positive rescaling only)."""
    v = qvec(v)
    if is_zero(v):
        raise ValueError("zero vector has no primitive representative")
    denom_lcm = 1
    for x in v:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def fm_feasible(ineqs, nvars: int) -> bool:
    """Fourier-Motzkin feasibility of {x : row[:n] . x + row[n] >= 0}.

    Rows are affine: the last entry is the constant term.  Each derived row
    is scaled to its `primitive` integer form, so equal half-spaces dedupe.
    """
    rows = {tuple(map(Q, r)) for r in ineqs}
    for v in range(nvars):
        pos, neg, rest = [], [], []
        for r in rows:
            if r[v] > 0:
                pos.append(r)
            elif r[v] < 0:
                neg.append(r)
            else:
                rest.append(r)
        new = set(rest)
        for p in pos:
            for q in neg:
                comb = tuple(p[k] * (-q[v]) + q[k] * p[v] for k in range(len(p)))
                new.add(comb)
        rows = set()
        for r in new:
            if all(x == 0 for x in r[:-1]):
                if r[-1] < 0:
                    return False
            else:
                rows.add(primitive(r))
    return all(r[-1] >= 0 for r in rows if all(x == 0 for x in r[:-1]))


def feasible(eqs, ineqs, nvars: int) -> bool:
    """Exact feasibility of {x in Q^n : eqs affine rows = 0, ineqs affine rows >= 0}.

    Equalities are removed by substitution first, then Fourier-Motzkin runs on
    what is left.  Affine rows carry the constant in the last slot.
    """
    eqs = [list(map(Q, r)) for r in eqs]
    ineqs = [list(map(Q, r)) for r in ineqs]
    red, pivots = rref(eqs) if eqs else ([], [])
    if nvars in pivots:
        # pivot in the constant column: 0 = nonzero
        return False
    subst = {c: red[r] for r, c in enumerate(pivots)}
    reduced_ineqs = []
    for row in ineqs:
        row = row[:]
        for c, expr in subst.items():
            if row[c] != 0:
                f = row[c]
                row = [x - f * y for x, y in zip(row, expr)]
                row[c] = Q(0)
        reduced_ineqs.append(row)
    keep = [c for c in range(nvars) if c not in pivots]
    proj = [[row[c] for c in keep] + [row[-1]] for row in reduced_ineqs]
    return fm_feasible(proj, len(keep))
