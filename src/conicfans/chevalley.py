"""Chevalley-basis Lie algebra engine: brackets, extremal tests, contact cubic.

Basis: e_alpha for each root alpha plus the simple coroots h_i; the
normalization is [e_alpha, e_-alpha] = alpha^vee, and |N_{alpha,beta}| = p+1
for the root-string length p.  Signs are fixed by giving +1 to the minimal
decomposition of each positive root under a height-then-lex order and
propagating through the Jacobi relations; the rows of N are filled in one
pass from these special constants by the sign identities for N_{alpha,beta}
in Carter, *Simple Groups of Lie Type*, ch. 4 (`_fill_triple`).  Unless asked
not to, the construction then certifies the Jacobi identity exactly, for
every triple, through a closure lemma: the elements x whose ad x is a
derivation form a subalgebra, the Chevalley involution e_alpha -> -e_-alpha
preserves it when N_{-alpha,-beta} = -N_{alpha,beta}, and the simple root
vectors generate the algebra when no constant on a root sum is zero.  So it
suffices to check those two identities on every pair and the Jacobi identity
on the triples (e_alpha_i, e_beta, e_gamma) for the r simple roots alpha_i.
Triples holding a Cartan element hold because the root pairing is linear,
with [e_alpha, e_-alpha] = h_alpha and (alpha+beta)(h) = alpha(h) + beta(h).
Both proofs are in `_verify_jacobi`.

Integer core on root indices.  Every structure constant, root pairing and
coroot coordinate is an integer, and every table (`RootTables`) is indexed by
the position of a root in `rd.roots`; the per-root rows are the datum's own
`RootDatum.root_table`.  The signed rows are built on the datum's tables,
and the Jacobi certificate, the bracket `_int_bracket`, extremality and the
contact forms all read them.  Elements are
integral too: a `LieElement` is an integer projective representative.  Every
claim checked here is projective: extremality of x, the vanishing of the
contact cubic and quadratic, which are homogeneous in v, and the points of
the twistor conic, where t = p/q enters as the sample times 2q^2.  So no
coefficient ever needs a denominator.

Contact implication.  On the contact hyperplane the coordinates q_i of the
quadratic [v, [v, e_rho]] and c_j of the cubic [v, [v, [v, e_rho]]] are
integer polynomials in v.  `contact_certificate` proves that the cubic's zero
locus lies in the quadratic's with identities D q_i^2 = sum_j a_ij c_j, the
a_ij linear forms, each checked by exact expansion; `verify` runs it on G2.
`contact_implication_check` is the sampled check that `contact-eq` reports.
"""

from __future__ import annotations

import itertools as it
import random
from collections import namedtuple
from functools import cached_property
from math import lcm
from operator import index, mul

from .linalg import solve
from .rootcore import Record, RootDatum, StructureError

Root = tuple[int, ...]
# integer element: (Cartan part in coroot coordinates, {root index: nonzero coefficient})
IntElement = tuple[tuple[int, ...], dict[int, int]]
# integer polynomial: {sorted tuple of variable indices: nonzero coefficient}
Poly = dict[tuple[int, ...], int]

ZERO = -1
"""Sum index of a pair of opposite roots in `RootTables.sums` and `.rows`."""


class RootTables(namedtuple("RootTables", "roots index neg pairing norm2 sums order "
                                          "coroot rows", defaults=(None,))):
    """Integer tables on root indices, the positions of the roots in `rd.roots`.

    roots, index, neg, pairing and norm2 are the datum's own root table
    (`rootcore.RootTable`), shared and not copied.  On top of it, sums[i] maps
    every j with roots[i] + roots[j] in Phi u {0} to the index of the sum, or
    ZERO for opposite roots; rows[i] maps the same j, in the same order, to
    N_{i,j} alone, with N = 0 for ZERO.  order[i] is the place of a positive
    root in the height-then-lex order, -1 for a negative one, and coroot[i]
    the coroot in simple-coroot coordinates.  All but rows depend on the
    datum alone (`_root_index`); rows, None until then, are filled in one
    pass from the special constants (`_fill_triple`).
    """

    __slots__ = ()


def _root_index(rd: RootDatum) -> RootTables:
    tab = rd.root_table
    roots, neg, norm2 = tab.roots, tab.neg, tab.norm2
    # a linear key read in base 6M + 1 for the largest root coordinate M: a
    # sum of two roots minus a root has coordinates of size at most 3M, so
    # equal keys mean equal vectors
    base = 6 * max(abs(x) for g in roots for x in g) + 1
    key = [sum(x * base ** k for k, x in enumerate(g)) for g in roots]
    at = {kk: i for i, kk in enumerate(key)}
    # filling sums[i] and sums[j] for i < j keeps every row in ascending order
    sums = [{} for _ in roots]
    for i, (ka, ni) in enumerate(zip(key, neg)):
        for j in range(i + 1, len(roots)):
            s = ZERO if j == ni else at.get(ka + key[j])
            if s is not None:
                sums[i][j] = sums[j][i] = s
    place = {g: k for k, g in enumerate(rd.positive_roots)}
    simple_norms = [norm2[at[base ** k]] for k in range(rd.rank)]
    coroot = []
    for g, ng in zip(roots, norm2):
        # alpha^vee has coordinate k equal to alpha_k |alpha_k|^2 / |alpha|^2
        qr = [divmod(a * nk, ng) for a, nk in zip(g, simple_norms)]
        if any(r for _, r in qr):
            raise StructureError(f"{rd.label}: coroot of {g} has non-integer coordinates")
        coroot.append(tuple(c for c, _ in qr))
    return RootTables(roots, tab.index, neg, tab.pairing, norm2, tuple(sums),
                      tuple(place.get(g, -1) for g in roots), tuple(coroot))


def _fill_triple(ix: RootTables, rows: list[dict[int, int]], a: int, b: int, n: int,
                 label: str) -> None:
    """Write N_{a,b} = n into rows, with the 11 constants that it fixes.

    For x + y + z = 0, N_{x,y}/|z|^2 is cyclic, N is alternating and
    N_{-x,-y} = -N_{x,y} (Carter, ch. 4).  So with g = a + b the one value
    fixes every pair of the zero-sum triples {a, b, -g} and {-a, -b, g}:
    N_{b,-g} = n |a|^2/|g|^2 and N_{-g,a} = n |b|^2/|g|^2.
    """
    neg, norm2 = ix.neg, ix.norm2
    g = ix.sums[a].get(b, ZERO)
    if g == ZERO:
        raise StructureError(
            f"{label}: special pair {ix.roots[a]}, {ix.roots[b]} has no root sum")
    n_b, rem_b = divmod(n * norm2[a], norm2[g])
    n_g, rem_g = divmod(n * norm2[b], norm2[g])
    if rem_b or rem_g:
        raise StructureError(f"{label}: non-integer structure constant")
    for x, y, v in ((a, b, n), (b, neg[g], n_b), (neg[g], a, n_g)):
        rows[x][y], rows[y][x] = v, -v
        rows[neg[x]][neg[y]], rows[neg[y]][neg[x]] = -v, v


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
        """The signed root-index tables (see `RootTables`), built on first use
        unless `build_structure_constants` has filled them on its own index;
        each special pair fills its zero-sum triples (`_fill_triple`)."""
        ix, label = _root_index(self.rd), self.rd.label
        rows = [dict.fromkeys(s, 0) for s in ix.sums]
        for (a, b), n in self._special.items():
            stray = next((v for v in (a, b) if v not in ix.index), None)
            if stray is not None:
                raise StructureError(
                    f"{label}: special pair {a}, {b}: {stray} is not a root")
            _fill_triple(ix, rows, ix.index[a], ix.index[b], n, label)
        return ix._replace(rows=tuple(rows))

    def n(self, alpha: Root, beta: Root) -> int:
        """Structure constant N_{alpha,beta}; zero when alpha+beta is no root."""
        tab = self.tables
        return tab.rows[tab.index[alpha]].get(tab.index[beta], 0)


def _special_constants(ix: RootTables, label: str) -> tuple[dict, list[dict[int, int]]]:
    """N on every special pair (a, b), positive roots with a before b and a + b
    a root, and the rows of N that they fill (`_fill_triple`).

    The first pair of each non-simple positive root gets +(p + 1), and the
    others follow from the Jacobi identity, going up in height.  The step for
    gamma reads rows: each N it reads lies in a triple of roots that are, up
    to sign, lower than gamma (alpha, a1, b1, beta, a1 - alpha, b1 - alpha),
    filled at the step of its highest.  An unfilled entry would read 0, which
    fails |N| = p + 1.
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
    rows = [dict.fromkeys(s, 0) for s in sums]
    for gamma, pairs in by_root.items():
        if not pairs:
            raise StructureError(f"{label}: a non-simple positive root has no decomposition")
        (a1, b1), *rest = pairs
        n1 = special[a1, b1] = string_down(a1, b1) + 1
        _fill_triple(ix, rows, a1, b1, n1, label)
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
                total += rows[na][a1] * rows[d1][b1]
            if d2 is not None:
                total += rows[na][b1] * rows[a1][d2]
            val, rem = divmod(total * ix.norm2[gamma], n1 * ix.norm2[beta])
            if rem:
                raise StructureError(f"{label}: non-integer constant during propagation")
            expect = string_down(alpha, beta) + 1
            if abs(val) != expect:
                raise StructureError(
                    f"{label}: propagated constant {val} for {ix.roots[alpha]}+{ix.roots[beta]} "
                    f"has wrong magnitude (want {expect})")
            special[alpha, beta] = val
            _fill_triple(ix, rows, alpha, beta, val, label)
    return special, rows


def build_structure_constants(rd: RootDatum, verify: str = "full") -> StructureConstants:
    """Build signed structure constants and verify the Jacobi identity.

    verify: "full" (the default) runs `_verify_jacobi`, an exact certificate
    of the Jacobi identity on every triple; "none" skips it.  No call is
    cached: the tables live as long as the object returned.
    """
    if verify not in ("full", "none"):
        raise ValueError(f"unknown Jacobi policy {verify!r}; use 'full' or 'none'")
    ix = _root_index(rd)
    special, rows = _special_constants(ix, rd.label)
    sc = StructureConstants(rd, tuple(((ix.roots[a], ix.roots[b]), n)
                                      for (a, b), n in special.items()))
    sc.__dict__["tables"] = ix._replace(rows=tuple(rows))    # no second pass
    if verify == "full":
        _verify_jacobi(sc)
    return sc


def _verify_jacobi(sc: StructureConstants) -> None:
    """Certify the Jacobi identity of the table bracket; raise StructureError.

    J(x, y, z) = [x, [y, z]] + [y, [z, x]] + [z, [x, y]].  The bracket is
    graded by the roots: sums[a] maps exactly the b with a + b in Phi u {0}
    to the index of the sum, and the coroot and pairing tables are linear
    in the root, so h_-a = -h_a and (-a)(h) = -a(h).  One pass over `rows`
    checks that the bracket is alternating, N_{b,a} = -N_{a,b}.

    Triples holding a Cartan element hold because the root pairing is linear,
    with [e_a, e_-a] = h_a and (a+b)(h) = a(h) + b(h):
      J(h, h', e_a) = a(h)a(h') e_a - a(h')a(h) e_a = 0;
      J(h, e_a, e_b) = N_{a,b} ((a+b)(h) - b(h) - a(h)) e_{a+b} = 0 when a+b
        is a root (using N_{b,a} = -N_{a,b}), and every term is zero when a+b
        is neither a root nor zero;
      J(h, e_a, e_-a) = 0 + a(h) h_a + a(h) h_-a = 0, as h_-a = -h_a.

    The root-vector triples follow by closure from the r simple root vectors.
    Let Der be the set of x for which ad x is a derivation, [x, [y, z]] =
    [[x, y], z] + [y, [x, z]] for all y, z; on an alternating bracket that is
    J(x, y, z) = 0 for all y, z.
      1. Der is a subalgebra.  It is a subspace, and for x, x' in Der the
         derivation rule gives ad [x, x'] = [ad x, ad x'], a commutator of
         derivations, hence a derivation.  This uses bilinearity only.
      2. The Chevalley involution w(e_a) = -e_-a, w(h) = -h preserves the
         table bracket iff N_{-a,-b} = -N_{a,b} for every pair with a + b in
         Phi: the brackets [e_a, e_-a] and [h, e_a] commute with w by the
         linearity above.  The pass over `rows` checks that identity.  Then
         ad w(x) = w ad x w^-1, so w(Der) = Der, and e_-a_i = -w(e_a_i) is in
         Der whenever e_a_i is.
      3. The same pass checks that every N_{a,b} with a + b in Phi is
         nonzero.  Then the e_{+-a_i} generate the algebra: h_i =
         [e_a_i, e_-a_i], and every positive non-simple root g has a simple
         root a_i with g - a_i a positive root, so e_g is a nonzero multiple
         of [e_a_i, e_{g-a_i}]; likewise for the negative roots.
    The triples holding a Cartan element hold, so e_a_i is in Der, and by
    1-3 Der is the whole algebra, once J(e_a_i, e_b, e_c) = 0 for all roots
    b, c, distinct and other than a_i (J is alternating, so a repeated
    argument gives 0), for i = 1..r.  Every term of J has weight a_i + b + c, and
    a term is zero unless one pairwise sum is in Phi u {0}.  The certificate
    visits exactly the unordered pairs {b, c} with a nonzero term of J, in
    one flat loop per simple root with J expanded inline:
      - b + c = 0 and a_i + b or a_i - b in Phi u {0}, of weight a_i;
      - b + c = t a root with a_i + t in Phi u {0}; for a_i + t = 0 the sum
        is Cartan, N_{b,c} h_a_i + N_{c,a_i} h_b + N_{a_i,b} h_c;
      - b + c not in Phi u {0}, a_i + b = u in Phi u {0} and c in sums[u],
        a_i + c in Phi u {0} when u = 0, counted once when a_i + c is too.
    Otherwise J has a weight outside Phi u {0}, or every term is zero: when
    p + q and p - q are outside Phi u {0}, the q-string through p is p alone,
    so p(h_q) = 0, and J(e_a_i, e_b, e_-b) = -a_i(h_b) e_a_i and
    J(e_a_i, e_-a_i, e_c) = -c(h_a_i) e_c vanish.  `_jacobi_pairs` lists them.
    """
    tab = sc.tables
    roots, rows, sums, neg = tab.roots, tab.rows, tab.sums, tab.neg
    pairing, coroot = tab.pairing, tab.coroot
    label = sc.rd.label
    _check_pairs(tab, label)

    def on(p: int, q: int) -> int:
        """[e_p, h_q] = -p(h_q) e_p, the term of a zero inner sum q + (-q)."""
        return -sum(map(mul, pairing[p], coroot[q]))

    for k in range(sc.rank):
        x = tab.index[tuple(int(m == k) for m in range(sc.rank))]
        row_x, sum_x, nx = rows[x], sums[x], neg[x]
        # J(e_x, e_b, e_c) = [e_x, [e_b, e_c]] + [e_b, [e_c, e_x]] + [e_c, [e_x, e_b]]
        for b, c in _jacobi_pairs(tab, x):
            if b == x or c == x:
                continue
            row_b, row_c = rows[b], rows[c]
            s = sums[b].get(c)
            if s == nx:
                # weight 0: J = N_{b,c} h_x + N_{c,x} h_b + N_{x,b} h_c
                n_bc, n_cx, n_xb = row_b[c], row_c[x], row_x[b]
                total = any(n_bc * u + n_cx * v + n_xb * w
                            for u, v, w in zip(coroot[x], coroot[b], coroot[c]))
            else:
                total = 0
                if s is not None:
                    total = on(x, b) if s == ZERO else row_b[c] * row_x[s]
                s = sums[c].get(x)
                if s is not None:
                    total += on(b, c) if s == ZERO else row_c[x] * row_b[s]
                s = sum_x.get(b)
                if s is not None:
                    total += on(c, x) if s == ZERO else row_x[b] * row_c[s]
            if total:
                raise StructureError(f"{label}: Jacobi fails on roots {roots[x]}, "
                                     f"{roots[b]}, {roots[c]}")


def _check_pairs(tab: RootTables, label: str) -> None:
    """Check N_{b,a} = -N_{a,b} on every pair with a sum in Phi u {0}, and
    N_{a,b} != 0 and N_{-a,-b} = -N_{a,b} on every pair with a root sum;
    raise StructureError.
    """
    roots, rows, neg = tab.roots, tab.rows, tab.neg
    for a, (row, sum_a) in enumerate(zip(rows, tab.sums)):
        row_neg = rows[neg[a]]
        for b, n in row.items():
            if rows[b].get(a) != -n:
                raise StructureError(f"{label}: N_(b,a) != -N_(a,b) on roots "
                                     f"{roots[a]}, {roots[b]}")
            if sum_a[b] == ZERO:
                continue
            if not n:
                raise StructureError(f"{label}: N vanishes on roots {roots[a]}, {roots[b]}")
            if row_neg[neg[b]] != -n:
                raise StructureError(f"{label}: N_(-a,-b) != -N_(a,b) on roots "
                                     f"{roots[a]}, {roots[b]}")


def _jacobi_pairs(tab: RootTables, x: int):
    """The unordered pairs {b, c} with a nonzero term of J(e_x, e_b, e_c).

    The three kinds of `_verify_jacobi`, each pair once, as a generator.  A
    pair may hold x itself, where J is zero.
    """
    sums, neg = tab.sums, tab.neg
    sum_x = sums[x]
    for b in range(len(neg)):
        if b < neg[b] and (b in sum_x or neg[b] in sum_x):
            yield b, neg[b]
    for t in sum_x:
        # b + c = t for b = -j and c = t + j; reversed, so that b ascends
        for j, c in reversed(sums[t].items()):
            if c != ZERO and neg[j] < c:
                yield neg[j], c
    for b, u in sum_x.items():
        sum_b = sums[b]
        for c in (sum_x if u == ZERO else sums[u]):
            if c != b and c not in sum_b and (b < c or c not in sum_x):
                yield b, c


# ---------------------------------------------------------------------------
# The integer bracket

def _int_bracket(tab: RootTables, x: IntElement, y: IntElement) -> IntElement:
    """[x, y] of two integer elements."""
    (xh, xe), (yh, ye) = x, y
    rows, sums, pairing, coroot = tab.rows, tab.sums, tab.pairing, tab.coroot
    h = [0] * len(xh)
    e: dict[int, int] = {}
    if any(xh):
        for j, c in ye.items():
            e[j] = c * sum(map(mul, xh, pairing[j]))
    if any(yh):
        for i, c in xe.items():
            e[i] = e.get(i, 0) - c * sum(map(mul, yh, pairing[i]))
    for i, a in xe.items():
        row, sum_i = rows[i], sums[i]
        for j, b in ye.items():
            s = sum_i.get(j)
            if s is None:
                continue
            if s == ZERO:
                ab = a * b
                for k, v in enumerate(coroot[i]):
                    h[k] += ab * v
            else:
                e[s] = e.get(s, 0) + a * b * row[j]
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
# Integer Lie elements

class LieElement(Record):
    """An integer projective representative of an element.

    h: coroot coordinates of the Cartan part; e: sorted (root, coefficient)
    pairs with nonzero coefficients.
    """

    h: tuple[int, ...]
    e: tuple[tuple[Root, int], ...]

    @staticmethod
    def make(rank: int, h=None, e=None) -> "LieElement":
        """The element with integer coordinates h and {root: coefficient} e; a
        non-integer coefficient, a `Fraction` included, raises TypeError."""
        e = {tuple(r): index(c) for r, c in (e or {}).items()}
        return LieElement(tuple(map(index, h or (0,) * rank)),
                          tuple(sorted((r, c) for r, c in e.items() if c)))

    @staticmethod
    def root_vector(rank: int, root: Root) -> "LieElement":
        return LieElement((0,) * rank, ((tuple(root), 1),))

    def is_zero(self) -> bool:
        return not any(self.h) and not self.e


def _to_int(tab: RootTables, x: LieElement) -> IntElement:
    """x on root indices."""
    try:
        return x.h, {tab.index[r]: c for r, c in x.e}
    except KeyError as exc:
        raise ValueError(f"{exc.args[0]} is not a root") from None


def _to_lie(tab: RootTables, z: IntElement) -> LieElement:
    """z on roots."""
    h, e = z
    return LieElement(h, tuple(sorted((tab.roots[i], c) for i, c in e.items())))


def is_extremal(sc: StructureConstants, x: LieElement) -> bool:
    """Whether [x, [x, -]] lands in the line through x for every basis vector.

    On coordinates k < rank for the simple coroot h_k and rank + i for e_i, the
    columns [x, b] of ad_x are computed once; [x, [x, b]] is the combination
    of columns whose coefficients are the coordinates of [x, b].
    """
    if x.is_zero():
        raise ValueError("the zero element is not projective")
    tab = sc.tables
    xh, xe = _to_int(tab, x)
    rows, sums, pairing, coroot = tab.rows, tab.sums, tab.pairing, tab.coroot
    rank = sc.rank
    # [x, h_k] = -sum_i x_i roots[i](h_k) e_i; [x, e_j] = x_h(e_j) + sum_i x_i [e_i, e_j]
    cols = [{rank + i: -c * pairing[i][k] for i, c in xe.items() if pairing[i][k]}
            for k in range(rank)]
    for j, pj in enumerate(pairing):
        c = sum(map(mul, xh, pj))
        col = {rank + j: c} if c else {}
        for i, c in xe.items():
            s = sums[i].get(j)
            if s == ZERO:
                for k, v in enumerate(coroot[i]):
                    col[k] = col.get(k, 0) + c * v
            elif s is not None:
                col[rank + s] = col.get(rank + s, 0) + c * rows[i][j]
        cols.append(col)
    xv = {k: c for k, c in enumerate(xh) if c} | {rank + i: c for i, c in xe.items()}
    p, xp = next(iter(xv.items()))
    for col in cols:
        z: dict[int, int] = {}
        for b, c in col.items():
            for a, v in cols[b].items():
                z[a] = z.get(a, 0) + c * v
        if not any(z.values()):
            continue                    # z = 0, as for most b
        # z is a multiple of x when every 2x2 minor with the pivot p vanishes
        zp = z.get(p, 0)
        if (any(v and a not in xv for a, v in z.items())
                or any(z.get(a, 0) * xp != zp * v for a, v in xv.items())):
            return False
    return True


def twistor_conic_sample(sc: StructureConstants, rho: Root, t) -> LieElement:
    """Projective representative of the standard transverse conic at time t.

    The point is e_rho + t [e_-rho, e_rho] + t^2/2 [e_-rho, [e_-rho, e_rho]].
    For t = p/q, an int or a `Fraction`, this returns 2q^2 times it,
    2q^2 e_rho + 2pq [e_-rho, e_rho] + p^2 [e_-rho, [e_-rho, e_rho]], a binary
    quadratic form in (p : q) whose e_rho and e_-rho coefficients are 2q^2
    and -2p^2, so it is never zero.
    """
    p, q = t.numerator, t.denominator
    tab = sc.tables
    e_rho = _root_element(sc.rank, tab.index[rho])
    e_neg = _root_element(sc.rank, tab.index[tuple(-x for x in rho)])
    first = _int_bracket(tab, e_neg, e_rho)
    second = _int_bracket(tab, e_neg, first)
    return _to_lie(tab, _combine([(2 * q * q, e_rho), (2 * p * q, first), (p * p, second)]))


class ContactDomainError(ValueError):
    """Element not supported on the contact hyperplane."""


def contact_hyperplane_roots(rd: RootDatum, j0: int) -> tuple[Root, ...]:
    """The roots of grade -1 for the contact node j0, a basis of the hyperplane."""
    return tuple(g for g in rd.roots if g[j0 - 1] == -1)


def contact_directions(rank: int, rho: Root, j0: int) -> tuple[LieElement, LieElement]:
    """The line direction e_{-alpha_j0}, whose cubic and quadratic vanish, and
    the general direction e_{-alpha_j0} + e_{alpha_j0 - rho}, whose cubic does not."""
    mink = tuple(-1 if k == j0 - 1 else 0 for k in range(rank))
    wit = tuple(-a - r for a, r in zip(mink, rho))
    return LieElement.root_vector(rank, mink), LieElement.make(rank, None, {mink: 1, wit: 1})


def contact_cubic(sc: StructureConstants, rho: Root, j0: int,
                  v: LieElement) -> LieElement:
    """[v, [v, [v, e_rho]]] for v on the contact hyperplane."""
    tab = sc.tables
    if any(v.h) or any(r[j0 - 1] != -1 or r not in tab.index for r, _ in v.e):
        raise ContactDomainError("vector is not supported on the contact hyperplane")
    vi = _to_int(tab, v)
    quad = _int_bracket(tab, vi, _int_bracket(tab, vi, _root_element(sc.rank, tab.index[rho])))
    return _to_lie(tab, _int_bracket(tab, vi, quad))


def contact_quadratic(sc: StructureConstants, rho: Root,
                      v: LieElement) -> LieElement:
    """[v, [v, e_rho]]."""
    tab = sc.tables
    vi = _to_int(tab, v)
    return _to_lie(tab, _int_bracket(tab, vi, _int_bracket(
        tab, vi, _root_element(sc.rank, tab.index[rho]))))


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

    # {a: 1, b: num/den} runs as {a: den, b: num}
    for a, b in it.combinations(range(m), 2):
        for den, num in ((1, 1), (1, -1), (1, 2), (1, -2), (2, 1)):
            c = num if den == 1 else f"{num}/{den}"
            run({a: den, b: num}, f"pair({a},{b},{c})")
    while tested < samples:
        # a random rational num/den per drawn coordinate
        draws = {a: (rng.randint(-20, 20), rng.randint(1, 20))
                 for a in range(m) if rng.random() < 0.7}
        d = lcm(*(den for _, den in draws.values()))
        run({a: num * (d // den) for a, (num, den) in draws.items()}, "random")
    return ImplicationReport(tested, cubic_zero_hits, tuple(violations))


def _contact_polynomials(sc: StructureConstants, rho: Root,
                         j0: int) -> tuple[tuple[Poly, ...], tuple[Poly, ...]]:
    """The nonzero coordinates of the quadratic and of the cubic as polynomials.

    They are read off the integer forms of `_contact_forms`, in the
    coordinates v_a of `contact_hyperplane_roots`, one polynomial per basis
    coordinate of the algebra that a form reaches.
    """
    forms = _contact_forms(sc, rho, j0)
    m = len(forms[0])
    out: tuple[dict, dict] = ({}, {})     # {coordinate: polynomial}
    for polys, form in zip(out, forms):
        for a, terms in enumerate(form):
            for coord, x, b, c in terms:
                # a quadratic monomial ends in the constant v_m = 1
                polys.setdefault(coord, {})[(a, b) if c == m else (a, b, c)] = x
    return tuple(tuple(p for _, p in sorted(polys.items())) for polys in out)


def _poly_mul(f: Poly, g: Poly) -> Poly:
    out: Poly = {}
    for mf, x in f.items():
        for mg, y in g.items():
            mono = tuple(sorted(mf + mg))
            out[mono] = out.get(mono, 0) + x * y
    return {mono: x for mono, x in out.items() if x}


class ContactCertificate(Record):
    """Identities D_i q_i^2 = sum_j a_ij c_j of integer polynomials.

    quadratics holds the q_i and cubics the c_j of `_contact_polynomials`;
    multipliers[i] is (D_i, (a_i1, ..., a_in)), D_i > 0 and each a_ij a
    linear form.  The proof holds for any D_i != 0 and polynomials a_ij of any
    degree, so `_certificate_holds` asks D_i > 0 and nothing of the degrees.
    """

    quadratics: tuple[Poly, ...]
    cubics: tuple[Poly, ...]
    multipliers: tuple[tuple[int, tuple[Poly, ...]], ...]


def _certificate_holds(cert: ContactCertificate) -> bool:
    """Whether every identity of the certificate holds, expanded exactly."""
    if len(cert.multipliers) != len(cert.quadratics):
        return False
    for q, (d, forms) in zip(cert.quadratics, cert.multipliers):
        # sum_j a_ij c_j - D_i q_i^2, which must be the zero polynomial
        total = {mono: -d * x for mono, x in _poly_mul(q, q).items()}
        for a, c in zip(forms, cert.cubics):
            for mono, x in _poly_mul(a, c).items():
                total[mono] = total.get(mono, 0) + x
        if d <= 0 or any(total.values()):
            return False
    return True


def contact_certificate(sc: StructureConstants, rho: Root,
                        j0: int) -> tuple[ContactCertificate | None, str]:
    """An exact proof that a vanishing cubic forces a vanishing quadratic.

    Let q_i be the nonzero coordinates of the quadratic [v, [v, e_rho]] and
    c_j those of the cubic [v, [v, [v, e_rho]]], as integer polynomials in the
    coordinates of v on the contact hyperplane.  The certificate gives, for
    each i, an integer D_i > 0 and linear forms a_ij with
    D_i q_i^2 = sum_j a_ij c_j.  At any complex point of the hyperplane where
    every c_j vanishes, q_i^2 = 0, so q_i = 0: the cubic's zero locus lies in
    the quadratic's, on the whole hyperplane and not only at sampled points.
    The a_ij solve a linear system over Q, one unknown per coefficient;
    `linalg.solve` returns them as integers over their least denominator D_i.
    The result is accepted only once `_certificate_holds` has expanded each
    identity in integers.

    Returns (certificate, "") or (None, the reason there is none).  A zero
    quadratic or cubic is a failure, since the implication would then hold
    vacuously or test nothing.  The system grows fast with the hyperplane:
    E6 takes about 0.9 s on a 2-vCPU machine, so `verify` runs it on G2 only.
    """
    quads, cubics = _contact_polynomials(sc, rho, j0)
    if not quads:
        return None, "the contact quadratic is zero"
    if not cubics:
        return None, "the contact cubic is zero"
    m = len(contact_hyperplane_roots(sc.rd, j0))
    # the unknown (j, k) is the coefficient of v_k in a_ij; its column holds v_k c_j
    columns = [_poly_mul({(k,): 1}, c) for c in cubics for k in range(m)]
    multipliers = []
    for i, q in enumerate(quads):
        square = _poly_mul(q, q)
        monos = sorted(set(square).union(*columns))
        sol = solve([[col.get(mono, 0) for col in columns] for mono in monos],
                    [square.get(mono, 0) for mono in monos])
        if sol is None:
            return None, (f"quadratic coordinate {i} of {len(quads)} is no "
                          f"linear combination of the cubic's")
        d, a = sol
        multipliers.append((d, tuple({(k,): a[j * m + k] for k in range(m) if a[j * m + k]}
                                     for j in range(len(cubics)))))
    cert = ContactCertificate(quads, cubics, tuple(multipliers))
    if not _certificate_holds(cert):
        return None, "a certificate identity fails on expansion"
    return cert, ""


def find_cubic_zero_quadratic_nonzero(sc: StructureConstants, rho: Root,
                                      j0: int) -> LieElement | None:
    """Deterministic search for a contact direction of a genuine smooth conic.

    The direction is returned with the integer weights that were tested.
    """
    dom = contact_hyperplane_roots(sc.rd, j0)
    quad, cubic = _contact_forms(sc, rho, j0)
    coeffs = [(1, 1), (-1, 1), (2, 1), (-2, 1), (3, 1), (-3, 1), (1, 2), (-1, 2)]
    for size in (2, 3):
        for first, *rest in it.combinations(range(len(dom)), size):
            for cs in it.product(coeffs, repeat=size - 1):
                d = lcm(*(den for _, den in cs))
                w = {first: d, **{a: num * (d // den) for a, (num, den) in zip(rest, cs)}}
                if not _vanishes(quad, w) and _vanishes(cubic, w):
                    return LieElement.make(sc.rank, None, {dom[a]: c for a, c in w.items()})
    return None


def constants_csv_rows(sc: StructureConstants):
    """(alpha, [(beta, N_{alpha,beta}), ...]) for every root alpha, in order.

    The list holds every beta with alpha + beta a root.
    """
    tab = sc.tables
    for a, row, sum_a in zip(tab.roots, tab.rows, tab.sums):
        yield a, [(tab.roots[j], row[j]) for j, s in sum_a.items() if s != ZERO]
