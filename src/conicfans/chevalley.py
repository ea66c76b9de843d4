"""Chevalley-basis Lie algebra engine: brackets, extremal tests, contact cubic.

Basis: e_alpha for each root alpha plus the simple coroots h_i; the
normalization is [e_alpha, e_-alpha] = alpha^vee, and |N_{alpha,beta}| = p+1
for the root-string length p.  Signs are fixed by giving +1 to the minimal
decomposition of each positive root under a height-then-lex order and
propagating through the Jacobi relations, following the sign identities for
N_{alpha,beta} in Carter, *Simple Groups of Lie Type*, ch. 4.  Unless asked
not to, the construction then certifies the Jacobi identity with one
exhaustive sweep over every root-vector triple whose Jacobi sum can be
nonzero.  Triples holding a Cartan element need no sweep: they hold because
the root pairing is linear, with [e_alpha, e_-alpha] = h_alpha and
(alpha+beta)(h) = alpha(h) + beta(h); the proof is in `_verify_jacobi`.

Integer core on root indices.  Every structure constant, root pairing and
coroot coordinate is an integer, and every table (`RootTables`) is indexed by
the position of a root in `rd.roots`.  The special constants are built on the
datum's tables, and the Jacobi sweep, the bracket `_int_bracket`, extremality
and the contact forms all read the signed rows.  Rational elements enter by
clearing denominators, [x, y] = [d x, d' y] / (d d'); `LieElement` and
`bracket` are the exact rational view on top.  Extremality of x is projective
and the contact cubic and quadratic are homogeneous in v, so whether they
vanish does not change when x or v is scaled by its common denominator.
"""

from __future__ import annotations

import itertools as it
import random
from collections import namedtuple
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from math import lcm
from operator import mul

from .rootcore import Record, RootDatum, StructureError

Root = tuple[int, ...]
# integer element: (Cartan part in coroot coordinates, {root index: nonzero coefficient})
IntElement = tuple[tuple[int, ...], dict[int, int]]

ZERO = -1
"""Sum index of a pair of opposite roots in `RootTables.sums` and `.rows`."""


class RootTables(namedtuple("RootTables", "roots index sums neg order norm2 pairing "
                                          "coroot rows", defaults=(None,))):
    """Integer tables on root indices, the positions of the roots in `rd.roots`.

    sums[i] maps every j with roots[i] + roots[j] in Phi u {0} to the index
    of the sum, or ZERO for opposite roots; rows[i] maps the same j to (that
    index, N_{i,j}), with N = 0 for ZERO.  neg[i] is the index of -roots[i];
    order[i] the place of a positive root in the height-then-lex order, -1
    for a negative one; norm2[i] the squared length (`RootDatum.killing_int`);
    pairing[i] holds roots[i](h_k) for the simple coroots h_k, and coroot[i]
    the coroot in simple-coroot coordinates; index maps each root to its
    position.  All but rows depend on the datum alone (`_root_index`);
    `StructureConstants.tables` adds the rows, None until then.
    """

    __slots__ = ()


@lru_cache(maxsize=None)
def _root_index(rd: RootDatum) -> RootTables:
    roots = rd.roots
    n = rd.rank
    # a linear key read in base 6M + 1 for the largest root coordinate M: a
    # sum of two roots minus a root has coordinates of size at most 3M, so
    # equal keys mean equal vectors
    base = 6 * max(abs(x) for g in roots for x in g) + 1
    key = [sum(x * base ** k for k, x in enumerate(g)) for g in roots]
    at = {kk: i for i, kk in enumerate(key)}
    neg = tuple(at[-kk] for kk in key)
    # filling sums[i] and sums[j] for i < j keeps every row in ascending order
    sums = [{} for _ in roots]
    for i, ka in enumerate(key):
        for j in range(i + 1, len(roots)):
            s = ZERO if j == neg[i] else at.get(ka + key[j])
            if s is not None:
                sums[i][j] = sums[j][i] = s
    place = {g: k for k, g in enumerate(rd.positive_roots)}
    norm2 = tuple(rd.killing_int(g, g) for g in roots)
    simple_norms = [norm2[at[base ** k]] for k in range(n)]
    coroot = []
    for g, ng in zip(roots, norm2):
        # alpha^vee has coordinate k equal to alpha_k |alpha_k|^2 / |alpha|^2
        qr = [divmod(a * nk, ng) for a, nk in zip(g, simple_norms)]
        if any(r for _, r in qr):
            raise StructureError(f"{rd.label}: coroot of {g} has non-integer coordinates")
        coroot.append(tuple(c for c, _ in qr))
    return RootTables(
        roots, {g: i for i, g in enumerate(roots)}, tuple(sums), neg,
        tuple(place.get(g, -1) for g in roots), norm2,
        tuple(tuple(rd.pairing(g, k) for k in range(1, n + 1)) for g in roots),
        tuple(coroot))


def _n(ix: RootTables, special: dict[tuple[int, int], int], i: int, j: int, s: int) -> int:
    """N_{i,j} for a root sum s, read off the constants of the special pairs.

    Two positive roots give the special pair or its swap, N_{b,a} = -N_{a,b},
    and two negative ones N_{a,b} = -N_{-a,-b}.  A mixed pair, a positive and
    b negative, rotates through a zero-sum triple, where N_{x,y}/|z|^2 is
    cyclic for x + y + z = 0: N_{a,b} = -N_{-b,s} |s|^2/|a|^2 when s is
    positive, and N_{a,b} = N_{-b,-a} = -N_{a,-s} |s|^2/|b|^2 when it is not.
    """
    order, neg = ix.order, ix.neg
    sign = 1
    if order[i] < 0 and order[j] < 0:
        i, j, sign = neg[i], neg[j], -1
    elif order[i] < 0:
        i, j, sign = j, i, -1
    if order[j] >= 0:
        return sign * (special[i, j] if order[i] < order[j] else -special[j, i])
    # i positive, j negative: the pair (a, b) that carries the rotated constant
    a, b, den = (neg[j], s, ix.norm2[i]) if order[s] >= 0 else (i, neg[s], ix.norm2[j])
    val, rem = divmod(-sign * ix.norm2[s]
                      * (special[a, b] if order[a] < order[b] else -special[b, a]), den)
    if rem:
        raise StructureError("non-integer structure constant")
    return val


class StructureConstants(Record):
    """The signed constants of one datum, given on the special pairs of root tuples."""

    rd: RootDatum
    n_special: tuple[tuple[tuple[Root, Root], int], ...]

    @property
    def rank(self) -> int:
        return self.rd.rank

    def __post_init__(self):
        object.__setattr__(self, "_special", dict(self.n_special))
        # N is read off `tables`; perfbench/tracer.py reports this memo's size, 0
        object.__setattr__(self, "_memo", {})

    @cached_property
    def tables(self) -> RootTables:
        """The signed root-index tables, built on first use (see `RootTables`)."""
        ix = _root_index(self.rd)
        special = {(ix.index[a], ix.index[b]): n for (a, b), n in self._special.items()}
        rows = [{} for _ in ix.roots]
        for i, row in enumerate(ix.sums):
            for j, s in row.items():
                if j > i:
                    n = 0 if s == ZERO else _n(ix, special, i, j, s)
                    rows[i][j], rows[j][i] = (s, n), (s, -n)
        return ix._replace(rows=tuple(rows))

    def n(self, alpha: Root, beta: Root) -> int:
        """Structure constant N_{alpha,beta}; zero when alpha+beta is no root."""
        tab = self.tables
        hit = tab.rows[tab.index[alpha]].get(tab.index[beta])
        return hit[1] if hit else 0

    def pairing_vec(self, root: Root) -> tuple[int, ...]:
        return self.tables.pairing[self.tables.index[root]]

    def coroot_int(self, alpha: Root) -> tuple[int, ...]:
        """alpha^vee in simple coroots."""
        return self.tables.coroot[self.tables.index[alpha]]


def _special_constants(ix: RootTables) -> dict[tuple[int, int], int]:
    """N on every special pair (a, b): positive roots with a before b and a + b a root.

    The first pair of each non-simple positive root gets +(p + 1), and the
    others follow from the Jacobi identity, going up in height.
    """
    order, sums, neg = ix.order, ix.sums, ix.neg
    positive = sorted((i for i, o in enumerate(order) if o >= 0), key=order.__getitem__)
    by_root = {g: [] for g in positive if sum(ix.roots[g]) > 1}
    for a in positive:
        for b, g in sums[a].items():
            if order[b] > order[a]:
                by_root[g].append((a, b))

    def string_down(a: int, b: int) -> int:
        """Largest p with b - p*a a root (b - p*a is never 0 in a reduced system)."""
        p, cur = 0, sums[b].get(neg[a])
        while cur is not None:
            p, cur = p + 1, sums[cur].get(neg[a])
        return p

    special: dict[tuple[int, int], int] = {}
    for gamma, pairs in by_root.items():
        if not pairs:
            raise StructureError("a non-simple positive root has no decomposition")
        (a1, b1), *rest = pairs
        special[a1, b1] = string_down(a1, b1) + 1
        for alpha, beta in rest:
            # the e_beta component of the Jacobi identity on (-alpha, a1, b1),
            #   N_{a1,b1} N_{-alpha,gamma} = N_{-alpha,a1} N_{a1-alpha,b1}
            #                              + N_{-alpha,b1} N_{a1,b1-alpha},
            # then N_{-alpha,gamma} rotates to N_{alpha,beta} along the triple
            # (-alpha, gamma, -beta) by |gamma|^2 / |beta|^2; alpha differs
            # from a1 and b1, so neither difference is zero
            na, total = neg[alpha], 0
            d1, d2 = sums[a1].get(na), sums[b1].get(na)
            if d1 is not None:
                total += _n(ix, special, na, a1, d1) * _n(ix, special, d1, b1, beta)
            if d2 is not None:
                total += _n(ix, special, na, b1, d2) * _n(ix, special, a1, d2, beta)
            val, rem = divmod(total * ix.norm2[gamma], special[a1, b1] * ix.norm2[beta])
            if rem:
                raise StructureError("non-integer constant during propagation")
            expect = string_down(alpha, beta) + 1
            if abs(val) != expect:
                raise StructureError(
                    f"propagated constant {val} for {ix.roots[alpha]}+{ix.roots[beta]} "
                    f"has wrong magnitude (want {expect})")
            special[alpha, beta] = val
    return special


@lru_cache(maxsize=None)
def build_structure_constants(rd: RootDatum, verify: str = "full") -> StructureConstants:
    """Build signed structure constants and verify the Jacobi identity.

    verify: "full" (the default) runs the exhaustive Jacobi sweep of
    `_verify_jacobi` over every triple of root vectors whose Jacobi sum can
    be nonzero; triples holding a Cartan element hold by the linearity of the
    root pairing, as proved there.  "none" skips the sweep.  The signs follow
    the N_{alpha,beta} identities of Carter, *Simple Groups of Lie Type*,
    ch. 4, and the sweep certifies them rather than sampling them.
    """
    if verify not in ("full", "none"):
        raise ValueError(f"unknown Jacobi policy {verify!r}; use 'full' or 'none'")
    ix = _root_index(rd)
    sc = StructureConstants(rd, tuple(((ix.roots[a], ix.roots[b]), n) for (a, b), n
                                      in _special_constants(ix).items()))
    if verify == "full":
        _verify_jacobi(sc)
    return sc


def _verify_jacobi(sc: StructureConstants) -> None:
    """Check the Jacobi identity on every basis triple; raise StructureError.

    The bracket is alternating, so distinct basis triples suffice, and
    J(x, y, z) = [x, [y, z]] + [y, [z, x]] + [z, [x, y]].  Triples holding a
    Cartan element hold because the root pairing is linear, with
    [e_a, e_-a] = h_a and (a+b)(h) = a(h) + b(h):
      J(h, h', e_a) = a(h)a(h') e_a - a(h')a(h) e_a = 0;
      J(h, e_a, e_b) = N_{a,b} ((a+b)(h) - b(h) - a(h)) e_{a+b} = 0 when a+b
        is a root (using N_{b,a} = -N_{a,b}), and every term is zero when a+b
        is neither a root nor zero;
      J(h, e_a, e_-a) = 0 + a(h) h_a + a(h) h_-a = 0, as h_-a = -h_a.
    That leaves root-vector triples {e_a, e_b, e_c}.  Every term of J has
    weight a+b+c, so J is zero unless a+b+c is in Phi u {0} and some pairwise
    sum is in Phi u {0}.  The sweep lists exactly those triples: each pair
    (i, j) with a root-or-zero sum s, then each k that lands in Phi u {0},
    counting a triple only from its first such pair in index order.  The row
    of s that lists k also gives the term [e_k, [e_i, e_j]]; for s = 0 that
    term is [e_k, h_i] = -k(h_i) e_k.  It reads the same `sc.tables` as the
    bracket.
    """
    tab = sc.tables
    roots, rows, coroot, pairing = tab.roots, tab.rows, tab.coroot, tab.pairing
    for i, row in enumerate(rows):
        for j, (s, n_ij) in row.items():
            if j <= i:
                continue
            row_j = rows[j]
            # far[k] = (index of i+j+k, c) with [e_k, [e_i, e_j]] = -m c e_{i+j+k}
            if s == ZERO:
                far = {k: (k, sum(map(mul, pk, coroot[i]))) for k, pk in enumerate(pairing)}
                m = 1
            else:
                far, m = rows[s], n_ij
            for k, (d, c) in far.items():
                if k == i or k == j:
                    continue
                row_k = rows[k]
                # count each triple once, from its first pair with a sum
                if i < k < j and k in row:
                    continue
                if k < i and (i in row_k or j in row_k):
                    continue
                if d == ZERO:
                    n_jk, n_ki = row_j[k][1], row_k[i][1]
                    ok = not any(n_jk * a + n_ki * b + n_ij * e
                                 for a, b, e in zip(coroot[i], coroot[j], coroot[k]))
                else:
                    total = -m * c
                    hit = row_j.get(k)            # [e_i, [e_j, e_k]]
                    if hit:
                        t, n_jk = hit
                        total += (-sum(map(mul, pairing[i], coroot[j])) if t == ZERO
                                  else n_jk * row[t][1])
                    hit = row_k.get(i)            # [e_j, [e_k, e_i]]
                    if hit:
                        t, n_ki = hit
                        total += (-sum(map(mul, pairing[j], coroot[k])) if t == ZERO
                                  else n_ki * row_j[t][1])
                    ok = total == 0
                if not ok:
                    raise StructureError(
                        f"{sc.rd.label}: Jacobi fails on roots {roots[i]}, "
                        f"{roots[j]}, {roots[k]}")


# ---------------------------------------------------------------------------
# The integer bracket

def _int_bracket(tab: RootTables, x: IntElement, y: IntElement) -> IntElement:
    """[x, y] of two integer elements."""
    (xh, xe), (yh, ye) = x, y
    rows, pairing, coroot = tab.rows, tab.pairing, tab.coroot
    h = [0] * len(xh)
    e: dict[int, int] = {}
    if any(xh):
        for j, c in ye.items():
            e[j] = c * sum(map(mul, xh, pairing[j]))
    if any(yh):
        for i, c in xe.items():
            e[i] = e.get(i, 0) - c * sum(map(mul, yh, pairing[i]))
    for i, a in xe.items():
        row = rows[i]
        for j, b in ye.items():
            hit = row.get(j)
            if hit is None:
                continue
            s, n = hit
            if s == ZERO:
                ab = a * b
                for k, v in enumerate(coroot[i]):
                    h[k] += ab * v
            else:
                e[s] = e.get(s, 0) + a * b * n
    return tuple(h), {k: v for k, v in e.items() if v}


def _root_element(rank: int, i: int) -> IntElement:
    """The root vector of root index i."""
    return (0,) * rank, {i: 1}


def _combine(terms: list[tuple[int, IntElement]]) -> IntElement:
    """The integer linear combination sum of c * x over the pairs (c, x)."""
    h = [0] * len(terms[0][1][0])
    e: dict[int, int] = {}
    for c, (xh, xe) in terms:
        for k, v in enumerate(xh):
            h[k] += c * v
        for i, v in xe.items():
            e[i] = e.get(i, 0) + c * v
    return tuple(h), {i: v for i, v in e.items() if v}


# ---------------------------------------------------------------------------
# Lie elements over Q

class LieElement(Record):
    """h: coroot coordinates of the Cartan part; e: root -> coefficient."""

    h: tuple[Q, ...]
    e: tuple[tuple[Root, Q], ...]

    @staticmethod
    def make(rank: int, h=None, e=None) -> "LieElement":
        hh = tuple(Q(x) for x in (h or [0] * rank))
        ee = tuple(sorted((tuple(r), Q(c)) for r, c in (e or {}).items() if c != 0))
        return LieElement(hh, ee)

    @staticmethod
    def root_vector(rank: int, root: Root, coeff=1) -> "LieElement":
        return LieElement.make(rank, None, {tuple(root): Q(coeff)})

    @staticmethod
    def cartan(rank: int, h) -> "LieElement":
        return LieElement.make(rank, h, None)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.h) and not self.e

    def add(self, other: "LieElement") -> "LieElement":
        h = tuple(a + b for a, b in zip(self.h, other.h))
        e = dict(self.e)
        for r, c in other.e:
            e[r] = e.get(r, Q(0)) + c
        return LieElement.make(len(h), h, e)

    def scale(self, c) -> "LieElement":
        c = Q(c)
        return LieElement.make(len(self.h), [c * x for x in self.h],
                               {r: c * v for r, v in self.e})


def _to_int(tab: RootTables, x: LieElement) -> tuple[IntElement, int]:
    """(d x, d) for the least common denominator d of x's coefficients."""
    d = lcm(*(c.denominator for c in x.h), *(c.denominator for _, c in x.e))
    try:
        e = {tab.index[r]: c.numerator * (d // c.denominator) for r, c in x.e}
    except KeyError as exc:
        raise ValueError(f"{exc.args[0]} is not a root") from None
    return (tuple(c.numerator * (d // c.denominator) for c in x.h), e), d


def _to_lie(tab: RootTables, z: IntElement, d: int) -> LieElement:
    """The rational element z / d."""
    h, e = z
    roots = tab.roots
    return LieElement(tuple(Q(c, d) for c in h),
                      tuple(sorted((roots[i], Q(c, d)) for i, c in e.items())))


def bracket(sc: StructureConstants, x: LieElement, y: LieElement) -> LieElement:
    """The exact bracket [x, y]: [d x, d' y] / (d d') on the integer core."""
    tab = sc.tables
    xi, dx = _to_int(tab, x)
    yi, dy = _to_int(tab, y)
    return _to_lie(tab, _int_bracket(tab, xi, yi), dx * dy)


def is_extremal(sc: StructureConstants, x: LieElement) -> bool:
    """Whether [x, [x, -]] lands in the line through x for every basis vector.

    The test is projective, so it runs on x times its common denominator.  On
    coordinates k < rank for the simple coroot h_k and rank + i for e_i, the
    columns [x, b] of ad_x are computed once; [x, [x, b]] is the combination
    of columns whose coefficients are the coordinates of [x, b].
    """
    if x.is_zero():
        raise ValueError("the zero element is not projective")
    tab = sc.tables
    (xh, xe), _ = _to_int(tab, x)
    rows, pairing, coroot = tab.rows, tab.pairing, tab.coroot
    rank = sc.rank
    # [x, h_k] = -sum_i x_i roots[i](h_k) e_i; [x, e_j] = x_h(e_j) + sum_i x_i [e_i, e_j]
    cols = [{rank + i: -c * pairing[i][k] for i, c in xe.items() if pairing[i][k]}
            for k in range(rank)]
    for j, pj in enumerate(pairing):
        c = sum(map(mul, xh, pj))
        col = {rank + j: c} if c else {}
        for i, c in xe.items():
            s, n = rows[i].get(j, (None, 0))
            if s == ZERO:
                for k, v in enumerate(coroot[i]):
                    col[k] = col.get(k, 0) + c * v
            elif n:
                col[rank + s] = col.get(rank + s, 0) + c * n
        cols.append(col)
    xv = {k: c for k, c in enumerate(xh) if c} | {rank + i: c for i, c in xe.items()}
    p, xp = next(iter(xv.items()))
    for col in cols:
        z: dict[int, int] = {}
        for b, c in col.items():
            for a, v in cols[b].items():
                z[a] = z.get(a, 0) + c * v
        # z is a multiple of x when every 2x2 minor with the pivot p vanishes
        zp = z.get(p, 0)
        if (any(v and a not in xv for a, v in z.items())
                or any(z.get(a, 0) * xp != zp * v for a, v in xv.items())):
            return False
    return True


def twistor_conic_sample(sc: StructureConstants, rho: Root, t) -> LieElement:
    """Projective representative of the standard transverse conic at time t.

    The point is e_rho + t [e_-rho, e_rho] + t^2/2 [e_-rho, [e_-rho, e_rho]];
    with t = p/q it is computed as 2q^2 times that, divided out at the end.
    """
    t = Q(t)
    p, q = t.numerator, t.denominator
    tab = sc.tables
    e_rho = _root_element(sc.rank, tab.index[rho])
    e_neg = _root_element(sc.rank, tab.index[tuple(-x for x in rho)])
    first = _int_bracket(tab, e_neg, e_rho)
    second = _int_bracket(tab, e_neg, first)
    return _to_lie(tab, _combine([(2 * q * q, e_rho), (2 * p * q, first),
                                  (p * p, second)]), 2 * q * q)


class ContactDomainError(ValueError):
    """Element not supported on the contact hyperplane."""


def contact_hyperplane_roots(rd: RootDatum, j0: int) -> tuple[Root, ...]:
    """The roots of grade -1 for the contact node j0, a basis of the hyperplane."""
    return tuple(g for g in rd.roots if g[j0 - 1] == -1)


def contact_cubic(sc: StructureConstants, rho: Root, j0: int,
                  v: LieElement) -> LieElement:
    """[v, [v, [v, e_rho]]] for v on the contact hyperplane, exactly."""
    tab = sc.tables
    if any(v.h) or any(r[j0 - 1] != -1 or r not in tab.index for r, _ in v.e):
        raise ContactDomainError("vector is not supported on the contact hyperplane")
    vi, d = _to_int(tab, v)
    quad = _int_bracket(tab, vi, _int_bracket(tab, vi, _root_element(sc.rank, tab.index[rho])))
    return _to_lie(tab, _int_bracket(tab, vi, quad), d ** 3)


def contact_quadratic(sc: StructureConstants, rho: Root,
                      v: LieElement) -> LieElement:
    """[v, [v, e_rho]], exactly."""
    tab = sc.tables
    vi, d = _to_int(tab, v)
    quad = _int_bracket(tab, vi, _int_bracket(tab, vi, _root_element(sc.rank, tab.index[rho])))
    return _to_lie(tab, quad, d ** 2)


class ImplicationReport(Record):
    samples: int
    cubic_zero_hits: int
    violations: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.violations


def _contact_forms(sc: StructureConstants, rho: Root, j0: int) -> tuple[list, list]:
    """The quadratic and the cubic as integer forms on the contact hyperplane.

    For v = sum_a v_a e_a over the roots of `contact_hyperplane_roots`, the
    bilinear bracket expands [v, [v, e_rho]] into the sum over ordered pairs
    of v_a v_b [e_a, [e_b, e_rho]], and [v, [v, [v, e_rho]]] into the sum of
    v_c v_a v_b [e_c, [e_a, [e_b, e_rho]]].  Each form gathers these by
    sorted monomial and lists, for each a, the nonzero terms
    (coordinate, coefficient, b, c) of its monomials v_a v_b v_c, a <= b <= c;
    a quadratic monomial takes as third factor the constant v_m = 1 that
    `_vanishes` appends to v, m the hyperplane's dimension.
    """
    tab = sc.tables
    e = [_root_element(sc.rank, tab.index[g]) for g in contact_hyperplane_roots(sc.rd, j0)]
    m = len(e)
    first = [_int_bracket(tab, x, _root_element(sc.rank, tab.index[rho])) for x in e]
    gathered: tuple[dict, dict] = ({}, {})   # {(monomial, coordinate): coefficient}

    def gather(form: dict, mono: tuple[int, ...], z: IntElement) -> None:
        mono = tuple(sorted(mono))
        # the Cartan coordinate k is keyed ~k, apart from the root indices
        for coord, x in it.chain(((~k, x) for k, x in enumerate(z[0]) if x), z[1].items()):
            form[mono, coord] = form.get((mono, coord), 0) + x

    for a, b in it.product(range(m), repeat=2):
        t = _int_bracket(tab, e[a], first[b])
        if t[1] or any(t[0]):
            gather(gathered[0], (a, b, m), t)
            for c, x in enumerate(e):
                gather(gathered[1], (a, b, c), _int_bracket(tab, x, t))
    forms = ([[] for _ in e], [[] for _ in e])
    for out, form in zip(forms, gathered):
        for ((a, b, c), coord), x in form.items():
            if x:
                out[a].append((coord, x, b, c))
    return forms


def _vanishes(form: list, w: dict[int, int]) -> bool:
    """Whether the integer form is zero at v = sum_a w[a] e_a."""
    v = {**w, len(form): 1}
    acc: dict[int, int] = {}
    for a, x in w.items():
        for coord, c, b, d in form[a]:
            acc[coord] = acc.get(coord, 0) + c * x * v.get(b, 0) * v.get(d, 0)
    return not any(acc.values())


def contact_implication_check(sc: StructureConstants, rho: Root, j0: int,
                              samples: int, seed: int) -> ImplicationReport:
    """Sampled check that a vanishing cubic forces a vanishing quadratic.

    Random vectors rarely meet the cubic's zero locus, so the sample set is
    padded with structured vectors: all coordinate pairs with small rational
    weights.  The converse needs no samples: the cubic is [v, quadratic].
    Both forms are homogeneous, so each vector is tested times its common
    denominator, on the integer forms of `_contact_forms`.
    """
    rng = random.Random(seed)
    quad, cubic = _contact_forms(sc, rho, j0)
    m = len(quad)
    violations: list[str] = []
    cubic_zero_hits = tested = 0

    def run(w: dict[int, int], tag: str):
        nonlocal cubic_zero_hits, tested
        tested += 1
        if any(w.values()) and _vanishes(cubic, w):
            cubic_zero_hits += 1
            if not _vanishes(quad, w):
                violations.append(f"{tag}: cubic vanishes but quadratic does not")

    # {a: 1, b: c} runs as {a: den(c), b: num(c)}
    weights = [(c.denominator, c.numerator, c) for c in (Q(1), Q(-1), Q(2), Q(-2), Q(1, 2))]
    for a, b in it.combinations(range(m), 2):
        for ca, cb, c in weights:
            run({a: ca, b: cb}, f"pair({a},{b},{c})")
    while tested < samples:
        # a random rational num/den per drawn coordinate
        draws = {a: (rng.randint(-20, 20), rng.randint(1, 20))
                 for a in range(m) if rng.random() < 0.7}
        d = lcm(*(den for _, den in draws.values()))
        run({a: num * (d // den) for a, (num, den) in draws.items()}, "random")
    return ImplicationReport(tested, cubic_zero_hits, tuple(violations))


def find_cubic_zero_quadratic_nonzero(sc: StructureConstants, rho: Root,
                                      j0: int) -> LieElement | None:
    """Deterministic search for a contact direction of a genuine smooth conic."""
    dom = contact_hyperplane_roots(sc.rd, j0)
    quad, cubic = _contact_forms(sc, rho, j0)
    coeffs = [(1, 1), (-1, 1), (2, 1), (-2, 1), (3, 1), (-3, 1), (1, 2), (-1, 2)]
    for size in (2, 3):
        for first, *rest in it.combinations(range(len(dom)), size):
            for cs in it.product(coeffs, repeat=size - 1):
                d = lcm(*(den for _, den in cs))
                w = {first: d, **{a: num * (d // den) for a, (num, den) in zip(rest, cs)}}
                if not _vanishes(quad, w) and _vanishes(cubic, w):
                    weights = {dom[first]: 1}
                    weights.update((dom[a], Q(num, den)) for a, (num, den) in zip(rest, cs))
                    return LieElement.make(sc.rank, None, weights)
    return None


def constants_csv_rows(sc: StructureConstants):
    """Rows (alpha, beta, N) over all pairs with alpha+beta a root."""
    tab = sc.tables
    for a, row in zip(tab.roots, tab.rows):
        for j, (s, n) in row.items():
            if s != ZERO:
                yield (a, tab.roots[j], n)
