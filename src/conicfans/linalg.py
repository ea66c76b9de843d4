"""Exact linear algebra on one integer elimination core.

No floating point is used anywhere.  Vectors are tuples and matrices are
tuples of row tuples.  Every kernel takes `int` entries and returns `int`s; a
`Fraction` or a float raises TypeError.  `primitive` is the one boundary: it
takes a rational vector to the primitive integer vector on its ray.

Every elimination runs in `_echelon` on `int` rows: Gauss-Jordan elimination
that clears an entry b under or above a pivot a > 0 by replacing the row r
with a r - b p, p being the pivot row, and then divides r by the gcd of its
entries.  So every row stays primitive and every pivot positive, and no
division is ever inexact.  The primitive rows are the fraction-free
counterpart of Bareiss' exact division by the previous pivot (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian elimination",
Math. Comp. 22, 1968): an eliminated row is the primitive vector of a line
fixed by the rows it came from, so its size stays that of a minor.

A positive factor changes neither a row space nor the half-space a row
bounds, so `rank`, `int_nullspace`, `feasible` and `fm_feasible` read the
rows as given.  The reduced row echelon form is unique, so `solve` scales
its solution by the least common denominator, and `int_inverse` returns the
determinant and the adjugate.
"""

from __future__ import annotations

from math import gcd, lcm, prod


def vdot(a, b):
    return sum(x * y for x, y in zip(a, b, strict=True))


def is_zero(a) -> bool:
    return all(x == 0 for x in a)


def transpose(m):
    return tuple(zip(*m, strict=True))


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# Integer core

def _echelon(m: list[list[int]], track: bool = False) -> tuple[list[int], int, int]:
    """Fraction-free reduced echelon form of integer rows, in place.

    Returns (pivot columns, num, den).  Row i of the result is primitive with
    a positive pivot at pivots[i] and zeros in every other pivot column; rows
    past the rank are zero.  With `track`, num and den record the row
    operations: det(result) * den == det(input) * num for a square input.
    """
    num = den = 1
    for i, row in enumerate(m):
        g = gcd(*row)
        if g > 1:
            m[i] = [x // g for x in row]
            den *= g
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            num = -num
        prow = m[r]
        a = prow[c]
        if a < 0:
            prow = m[r] = [-x for x in prow]
            a = -a
            num = -num
        for i, row in enumerate(m):
            b = row[c]
            if b and i != r:
                new = [a * x - b * y for x, y in zip(row, prow)]
                g = gcd(*new)
                if g > 1:
                    new = [x // g for x in new]
                m[i] = new
                if track:
                    num *= a
                    den *= g
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots, num, den


def _reduced(rows) -> tuple[list, list[int]]:
    m = list(rows)
    return m, _echelon(m)[0]


def rank(rows) -> int:
    return len(_reduced(rows)[1])


def int_inverse(m) -> tuple[int, tuple[tuple[int, ...], ...] | None]:
    """(det m, det m * m^-1) for a square integer matrix; (0, None) if it is singular.

    det m * m^-1 is the adjugate, so both are integers.  The elimination of
    [m | I] leaves row i as [r_i e_i | r_i * (row i of m^-1)], and the row
    operations it records give det m.
    """
    n = len(m)
    red = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    pivots, num, den = _echelon(red, track=True)
    if pivots[:n] != list(range(n)):
        return 0, None
    d = prod(red[i][i] for i in range(n)) * den // num
    return d, tuple(tuple(x * d // red[i][i] for x in red[i][n:]) for i in range(n))


def solve(a, b, ncols: int | None = None) -> tuple[int, tuple[int, ...]] | None:
    """(d, x) with a x = d b in integers, d > 0 least; None if inconsistent.

    x / d is the solution that is zero on every free column.  A system with
    no rows needs its number of unknowns as ncols, which it solves with d = 1
    and x = 0.
    """
    if not a:
        if ncols is None:
            raise ValueError("need ncols for empty system")
        return 1, (0,) * ncols
    nc = len(a[0])
    red, pivots = _reduced([list(row) + [b[i]] for i, row in enumerate(a)])
    if nc in pivots:
        return None
    d = lcm(*(row[c] // gcd(row[c], row[-1]) for row, c in zip(red, pivots)))
    x = [0] * nc
    for row, c in zip(red, pivots):
        x[c] = row[-1] * d // row[c]
    return d, tuple(x)


def int_nullspace(rows, ncols: int | None = None) -> list[tuple[int, ...]]:
    """Basis of {x : rows @ x = 0} by primitive integer vectors.

    There is one vector per free column f, in increasing order of f: it is
    positive at f, zero at the other free columns, and its last nonzero entry
    is the one at f (a pivot column holds a nonzero entry only when its
    pivot lies left of f).
    """
    if not rows:
        if ncols is None:
            raise ValueError("need ncols for empty system")
        return [tuple(int(i == j) for j in range(ncols)) for i in range(ncols)]
    ncols = len(rows[0])
    red, pivots = _reduced(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        used = [(row, c) for row, c in zip(red, pivots) if row[f]]
        scale = lcm(*(row[c] for row, c in used))
        v = [0] * ncols
        v[f] = scale
        for row, c in used:
            v[c] = -row[f] * (scale // row[c])
        g = gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis


def _primitive_ints(r) -> tuple[int, ...]:
    g = gcd(*r)
    return tuple(x // g for x in r) if g > 1 else tuple(r)


def primitive(v) -> tuple[int, ...]:
    """Primitive integer vector on the same ray (positive rescaling only).

    The one function here that takes rational entries: the vector is scaled
    by the lcm of its denominators first.
    """
    d = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (d // x.denominator) for x in v]
    if not any(ints):
        raise ValueError("zero vector has no primitive representative")
    return _primitive_ints(ints)


def fm_feasible(ineqs, nvars: int) -> bool:
    """Fourier-Motzkin feasibility of {x : row[:n] . x + row[n] >= 0}.

    Rows are affine: the last entry is the constant term.  Every row is
    scaled to its primitive form, so equal half-spaces dedupe.
    """
    rows = {_primitive_ints(r) for r in ineqs}
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
            pv = p[v]
            for q in neg:
                qv = -q[v]
                new.add(tuple(x * qv + y * pv for x, y in zip(p, q)))
        rows = set()
        for r in new:
            if not any(r[:-1]):
                if r[-1] < 0:
                    return False
            else:
                rows.add(_primitive_ints(r))
    return all(r[-1] >= 0 for r in rows if not any(r[:-1]))


def feasible(eqs, ineqs, nvars: int) -> bool:
    """Exact feasibility of {x in Q^n : eqs affine rows = 0, ineqs affine rows >= 0}.

    Equalities are removed by substitution first, then Fourier-Motzkin runs on
    what is left.  Affine rows carry the constant in the last slot.  A pivot
    row of the integer echelon form reads a x_c = -(rest) with a > 0, so an
    inequality row with entry b at c becomes a row - b pivot row: a positive
    multiple of the substituted row, free of x_c.
    """
    red, pivots = _reduced(eqs)
    if nvars in pivots:
        # pivot in the constant column: 0 = nonzero
        return False
    proj = []
    keep = [c for c in range(nvars) if c not in pivots] + [nvars]
    for row in ineqs:
        for prow, c in zip(red, pivots):
            b = row[c]
            if b:
                a = prow[c]
                row = [a * x - b * y for x, y in zip(row, prow)]
        proj.append([row[c] for c in keep])
    return fm_feasible(proj, len(keep) - 1)
