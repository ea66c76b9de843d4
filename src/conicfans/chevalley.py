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

Integer core.  Every structure constant, root pairing and coroot coordinate is
an integer, so the bracket of two integer elements is an integer element.
Each `StructureConstants` builds one set of root-index tables on first use
(`RootTables`); the Jacobi sweep and the single bracket `_int_bracket` both
read them.  Rational elements enter the core by clearing denominators: if d x
and d' y are integral, [x, y] = [d x, d' y] / (d d').  `LieElement` and the
public `bracket` are the exact rational view on top of that.  The hot callers
need no rational arithmetic at all: extremality of x is a projective
property, and the contact cubic and quadratic are homogeneous of degree 3 and
2 in v, so whether they vanish does not change when x or v is scaled by its
common denominator.  Proportionality of integer vectors is then the vanishing
of every 2x2 minor.
"""

from __future__ import annotations

import itertools as it
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from math import lcm
from operator import mul
from typing import NamedTuple

from .rootcore import RootDatum, StructureError

Root = tuple[int, ...]
# integer element: (coroot coordinates of the Cartan part, root index -> coefficient),
# with no zero coefficient stored
IntElement = tuple[tuple[int, ...], dict[int, int]]

ZERO = -1
"""Sum index of a pair of opposite roots in `RootTables.rows`."""


def _height(v: Root) -> int:
    return sum(v)


class RootTables(NamedTuple):
    """Integer tables on root indices, the positions of the roots in `rd.roots`.

    rows[i] maps every j with roots[i] + roots[j] in Phi u {0} to the pair
    (index of the sum, N_{i,j}), or (ZERO, 0) when the roots are opposite;
    pairing[i] holds roots[i](h_k) for the simple coroots h_k, and coroot[i]
    the coroot of roots[i] in simple-coroot coordinates.
    """

    roots: tuple[Root, ...]
    index: dict[Root, int]
    rows: tuple[dict[int, tuple[int, int]], ...]
    pairing: tuple[tuple[int, ...], ...]
    coroot: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class StructureConstants:
    rd: RootDatum
    n_special: tuple[tuple[tuple[Root, Root], int], ...]

    @property
    def rank(self) -> int:
        return self.rd.rank

    def __post_init__(self):
        object.__setattr__(self, "_special", dict(self.n_special))
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_order", {g: k for k, g in enumerate(
            sorted(self.rd.positive_roots, key=lambda v: (_height(v), v)))})
        object.__setattr__(self, "_coroot_cache", {})
        object.__setattr__(self, "_pairing_cache", {})
        object.__setattr__(self, "_norm_cache", {})
        object.__setattr__(self, "_simple_norms", tuple(
            self.norm2(tuple(int(i == k) for i in range(self.rank)))
            for k in range(self.rank)))

    def pairing_vec(self, root: Root) -> tuple:
        out = self._pairing_cache.get(root)
        if out is None:
            cart = self.rd.cartan
            n = self.rank
            out = tuple(sum(root[t] * cart[t][i] for t in range(n)) for i in range(n))
            self._pairing_cache[root] = out
        return out

    def norm2(self, root: Root) -> int:
        """The root's squared length, scaled to an integer (`RootDatum.killing_int`)."""
        out = self._norm_cache.get(root)
        if out is None:
            out = self.rd.killing_int(root, root)
            self._norm_cache[root] = out
        return out

    def string_down(self, alpha: Root, beta: Root) -> int:
        """Largest p with beta - p*alpha a root."""
        p = 0
        cur = tuple(b - a for a, b in zip(alpha, beta))
        while self.rd.is_root(cur):
            p += 1
            cur = tuple(c - a for a, c in zip(alpha, cur))
        return p

    def coroot_int(self, alpha: Root) -> tuple[int, ...]:
        """alpha^vee in simple coroots: coordinate k is alpha_k |alpha_k|^2 / |alpha|^2."""
        out = self._coroot_cache.get(alpha)
        if out is None:
            n = self.norm2(alpha)
            out = []
            for a, nk in zip(alpha, self._simple_norms):
                c, rem = divmod(a * nk, n)
                if rem:
                    raise StructureError("coroot has non-integer coordinates")
                out.append(c)
            out = tuple(out)
            self._coroot_cache[alpha] = out
        return out

    def n(self, alpha: Root, beta: Root) -> int:
        """Structure constant N_{alpha,beta}; zero when alpha+beta is no root."""
        s = tuple(a + b for a, b in zip(alpha, beta))
        if not self.rd.is_root(s):
            return 0
        key = (alpha, beta)
        memo = self._memo
        if key in memo:
            return memo[key]
        val = self._resolve(alpha, beta, s)
        memo[key] = val
        return val

    def _resolve(self, alpha: Root, beta: Root, s: Root) -> int:
        pos_a, pos_b = _height(alpha) > 0, _height(beta) > 0
        if pos_a and pos_b:
            if self._order[alpha] < self._order[beta]:
                return self._special[(alpha, beta)]
            return -self._special[(beta, alpha)]
        if not pos_a and not pos_b:
            na = tuple(-x for x in alpha)
            nb = tuple(-x for x in beta)
            return -self.n(na, nb)
        if not pos_a:
            return -self.n(beta, alpha)
        # alpha positive, beta negative
        if _height(s) > 0:
            # rotate through the zero-sum triple (alpha, beta, -s):
            # N_{alpha,beta} = -N_{-beta,s} |s|^2 / |alpha|^2
            val, rem = divmod(-self.norm2(s) * self.n(tuple(-x for x in beta), s),
                              self.norm2(alpha))
            if rem:
                raise StructureError("non-integer structure constant")
            return val
        return -self.n(tuple(-x for x in alpha), tuple(-x for x in beta))

    @cached_property
    def tables(self) -> RootTables:
        """The root-index tables, built on first use from `n` (see `RootTables`)."""
        roots = self.rd.roots
        # a linear key, key(a + b) = key(a) + key(b), read in base 6M + 1 for
        # the largest root coordinate M: a root minus a sum of two roots has
        # coordinates of size at most 3M, so equal keys mean equal vectors
        base = 6 * max(abs(x) for g in roots for x in g) + 1
        key = [sum(x * base ** k for k, x in enumerate(g)) for g in roots]
        at = {kk: i for i, kk in enumerate(key)}
        at[0] = ZERO
        # rows[j][i] comes from rows[i][j] by N_{b,a} = -N_{a,b}; filling both
        # for i < j keeps every row in ascending partner order
        rows = [{} for _ in roots]
        for i, (a, ka) in enumerate(zip(roots, key)):
            for j in range(i + 1, len(roots)):
                s = at.get(ka + key[j])
                if s is not None:
                    n = 0 if s == ZERO else self.n(a, roots[j])
                    rows[i][j] = (s, n)
                    rows[j][i] = (s, -n)
        # the rows hold every N now; the memo only served their build, and
        # keeping both alive for every cached label would double the memory
        self._memo.clear()
        return RootTables(roots, {g: i for i, g in enumerate(roots)}, tuple(rows),
                          tuple(self.pairing_vec(g) for g in roots),
                          tuple(self.coroot_int(g) for g in roots))


def _special_pairs(rd: RootDatum):
    """Positive decompositions gamma = alpha + beta with alpha before beta."""
    order = {g: k for k, g in enumerate(
        sorted(rd.positive_roots, key=lambda v: (_height(v), v)))}
    by_root = {}
    for gamma in rd.positive_roots:
        if _height(gamma) == 1:
            continue
        pairs = []
        for alpha in rd.positive_roots:
            if order[alpha] >= order[gamma]:
                continue
            beta = tuple(g - a for g, a in zip(gamma, alpha))
            if rd.is_root(beta) and _height(beta) > 0 and order[alpha] < order[beta]:
                pairs.append((alpha, beta))
        pairs.sort(key=lambda ab: order[ab[0]])
        by_root[gamma] = pairs
    return order, by_root


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
    order, by_root = _special_pairs(rd)
    sc = StructureConstants(rd, ())
    special: dict[tuple[Root, Root], int] = {}
    object.__setattr__(sc, "_special", special)

    for gamma in sorted(by_root, key=lambda g: (_height(g), g)):
        pairs = by_root[gamma]
        if not pairs:
            raise StructureError("a non-simple positive root has no decomposition")
        a1, b1 = pairs[0]
        special[(a1, b1)] = sc.string_down(a1, b1) + 1
        for alpha, beta in pairs[1:]:
            val = _propagate(sc, rd, gamma, a1, b1, alpha, beta)
            expect = sc.string_down(alpha, beta) + 1
            if abs(val) != expect:
                raise StructureError(
                    f"propagated constant {val} for {alpha}+{beta} "
                    f"has wrong magnitude (want {expect})")
            special[(alpha, beta)] = val

    if verify == "full":
        _verify_jacobi(sc)
    return sc


def _propagate(sc, rd, gamma, a1, b1, alpha, beta) -> int:
    """Solve the Jacobi component identity for N_{alpha,beta}.

    With the zero-sum relation on (-alpha, a1, b1): the e_beta component of
    the Jacobi identity gives
      N_{a1,b1} N_{-alpha,gamma} = N_{-alpha,a1} N_{a1-alpha,b1}
                                 + N_{-alpha,b1} N_{a1,b1-alpha},
    and N_{-alpha,gamma} rescales to N_{alpha,beta} along the triple
    (-alpha, gamma, -beta).
    """
    neg_alpha = tuple(-x for x in alpha)
    total = 0
    d1 = tuple(a - b for a, b in zip(a1, alpha))
    if rd.is_root(d1):
        total += sc.n(neg_alpha, a1) * sc.n(d1, b1)
    d2 = tuple(b - a for b, a in zip(b1, alpha))
    if rd.is_root(d2):
        total += sc.n(neg_alpha, b1) * sc.n(a1, d2)
    # N_{-alpha,gamma} = total / N_{a1,b1}; rotate the zero-sum triple
    # (-alpha, gamma, -beta) back to (alpha, beta) by |gamma|^2 / |beta|^2
    val, rem = divmod(total * sc.norm2(gamma), sc.n(a1, b1) * sc.norm2(beta))
    if rem:
        raise StructureError("non-integer constant during propagation")
    return val


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
    with a root-or-zero sum, then each c that lands in Phi u {0}, counting a
    triple only from its first such pair in index order.  It reads the same
    `sc.tables` as the bracket.
    """
    rd = sc.rd
    tab = sc.tables
    roots, rows, coroot, pairing = tab.roots, tab.rows, tab.coroot, tab.pairing
    everyone = range(len(roots))

    def term(x: int, y: int, z: int) -> int:
        """Coefficient of [e_x, [e_y, e_z]] on the root x+y+z."""
        hit = rows[y].get(z)
        if hit is None:
            return 0
        s, n_yz = hit
        if s == ZERO:
            return -sum(map(mul, pairing[x], coroot[y]))
        return n_yz * rows[x][s][1]

    for i, row in enumerate(rows):
        for j, (s, n_ij) in row.items():
            if j <= i:
                continue
            for k in (everyone if s == ZERO else rows[s]):
                if k == i or k == j:
                    continue
                # count each triple once, from its first pair with a sum
                if i < k < j and k in row:
                    continue
                if k < i and (i in rows[k] or j in rows[k]):
                    continue
                d = k if s == ZERO else rows[s][k][0]
                if d == ZERO:
                    n_jk, n_ki = rows[j][k][1], rows[k][i][1]
                    ok = not any(n_jk * a + n_ki * b + n_ij * c
                                 for a, b, c in zip(coroot[i], coroot[j], coroot[k]))
                else:
                    ok = term(i, j, k) + term(j, k, i) + term(k, i, j) == 0
                if not ok:
                    raise StructureError(
                        f"{rd.label}: Jacobi fails on roots {roots[i]}, "
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


def _int_is_zero(x: IntElement) -> bool:
    return not x[1] and not any(x[0])


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


def _proportional(z: IntElement, x: IntElement) -> bool:
    """Whether z lies on the line through the nonzero x: all 2x2 minors vanish.

    With a pivot coordinate p where x_p != 0, z is a multiple of x exactly
    when z_a x_p = z_p x_a for every coordinate a.
    """
    (zh, ze), (xh, xe) = z, x
    p = next((k for k, v in enumerate(xh) if v), None)
    if p is None:
        p = next(iter(xe))
        xp, zp = xe[p], ze.get(p, 0)
    else:
        xp, zp = xh[p], zh[p]
    return (ze.keys() <= xe.keys()
            and all(a * xp == zp * b for a, b in zip(zh, xh))
            and all(ze.get(k, 0) * xp == zp * v for k, v in xe.items()))


# ---------------------------------------------------------------------------
# Lie elements over Q

@dataclass(frozen=True)
class LieElement:
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

    def e_dict(self) -> dict:
        return dict(self.e)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.h) and not self.e

    def add(self, other: "LieElement") -> "LieElement":
        h = tuple(a + b for a, b in zip(self.h, other.h))
        e = self.e_dict()
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

    The test is projective, so it runs on x times its common denominator.
    """
    if x.is_zero():
        raise ValueError("the zero element is not projective")
    tab = sc.tables
    xi, _ = _to_int(tab, x)
    rank = sc.rank
    probes = [(tuple(int(i == j) for j in range(rank)), {}) for i in range(rank)]
    probes += [((0,) * rank, {j: 1}) for j in range(len(tab.roots))]
    return all(_proportional(_int_bracket(tab, xi, _int_bracket(tab, xi, y)), xi)
               for y in probes)


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


def _contact_quadratic(tab: RootTables, rho_i: int, v: IntElement) -> IntElement:
    """[v, [v, e_rho]]; the cubic is [v, _contact_quadratic(...)]."""
    e_rho = _root_element(len(v[0]), rho_i)
    return _int_bracket(tab, v, _int_bracket(tab, v, e_rho))


def contact_cubic(sc: StructureConstants, rho: Root, j0: int,
                  v: LieElement) -> LieElement:
    """[v, [v, [v, e_rho]]] for v on the contact hyperplane, exactly."""
    tab = sc.tables
    if any(v.h) or any(r[j0 - 1] != -1 or r not in tab.index for r, _ in v.e):
        raise ContactDomainError("vector is not supported on the contact hyperplane")
    vi, d = _to_int(tab, v)
    quad = _contact_quadratic(tab, tab.index[rho], vi)
    return _to_lie(tab, _int_bracket(tab, vi, quad), d ** 3)


def contact_quadratic(sc: StructureConstants, rho: Root,
                      v: LieElement) -> LieElement:
    """[v, [v, e_rho]], exactly."""
    tab = sc.tables
    vi, d = _to_int(tab, v)
    return _to_lie(tab, _contact_quadratic(tab, tab.index[rho], vi), d ** 2)


@dataclass(frozen=True)
class ImplicationReport:
    samples: int
    cubic_zero_hits: int
    violations: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.violations


def _random_q(rng: random.Random) -> tuple[int, int]:
    """A random rational as (numerator, denominator)."""
    num = rng.randint(-20, 20)
    den = rng.randint(1, 20)
    return num, den


def contact_implication_check(sc: StructureConstants, rho: Root, j0: int,
                              samples: int, seed: int) -> ImplicationReport:
    """Sampled check that a vanishing cubic forces a vanishing quadratic.

    Random vectors rarely meet the cubic's zero locus, so the sample set is
    padded with structured vectors: all coordinate pairs with small rational
    weights.  The converse needs no samples: the cubic is [v, quadratic].
    Both forms are homogeneous, so each vector is tested times its common
    denominator, on the integer core.
    """
    rng = random.Random(seed)
    tab = sc.tables
    dom = contact_hyperplane_roots(sc.rd, j0)
    dom_i = [tab.index[g] for g in dom]
    rho_i = tab.index[rho]
    no_h = (0,) * sc.rank
    violations: list[str] = []
    cubic_zero_hits = 0

    def run(e: dict[int, int], tag: str):
        nonlocal cubic_zero_hits
        if not e:
            return
        v = (no_h, e)
        quad = _contact_quadratic(tab, rho_i, v)
        if _int_is_zero(_int_bracket(tab, v, quad)):
            cubic_zero_hits += 1
            if not _int_is_zero(quad):
                violations.append(f"{tag}: cubic vanishes but quadratic does not")

    tested = 0
    # {a: 1, b: c} runs as {a: den(c), b: num(c)}
    weights = [(c.denominator, c.numerator, c) for c in (Q(1), Q(-1), Q(2), Q(-2), Q(1, 2))]
    for a in range(len(dom)):
        for b in range(a + 1, len(dom)):
            for ca, cb, c in weights:
                run({dom_i[a]: ca, dom_i[b]: cb}, f"pair({a},{b},{c})")
                tested += 1
    while tested < samples:
        draws = [(i, _random_q(rng)) for i in dom_i if rng.random() < 0.7]
        d = lcm(*(den for _, (_, den) in draws))
        run({i: num * (d // den) for i, (num, den) in draws if num}, "random")
        tested += 1
    return ImplicationReport(tested, cubic_zero_hits, tuple(violations))


def find_cubic_zero_quadratic_nonzero(sc: StructureConstants, rho: Root,
                                      j0: int) -> LieElement | None:
    """Deterministic search for a contact direction of a genuine smooth conic."""
    tab = sc.tables
    dom = contact_hyperplane_roots(sc.rd, j0)
    rho_i = tab.index[rho]
    no_h = (0,) * sc.rank
    coeffs = [(1, 1), (-1, 1), (2, 1), (-2, 1), (3, 1), (-3, 1), (1, 2), (-1, 2)]
    for size in (2, 3):
        for support in it.combinations(dom, size):
            first, *rest = (tab.index[g] for g in support)
            for cs in it.product(coeffs, repeat=size - 1):
                d = lcm(*(den for _, den in cs))
                v = (no_h, {first: d, **{i: num * (d // den)
                                         for i, (num, den) in zip(rest, cs)}})
                quad = _contact_quadratic(tab, rho_i, v)
                if not _int_is_zero(quad) and _int_is_zero(_int_bracket(tab, v, quad)):
                    weights = {support[0]: 1}
                    weights.update((g, Q(num, den)) for g, (num, den) in zip(support[1:], cs))
                    return LieElement.make(sc.rank, None, weights)
    return None


def constants_csv_rows(sc: StructureConstants):
    """Rows (alpha, beta, N) over all pairs with alpha+beta a root."""
    tab = sc.tables
    for a, row in zip(tab.roots, tab.rows):
        for j, (s, n) in row.items():
            if s != ZERO:
                yield (a, tab.roots[j], n)
