"""Chevalley-basis Lie algebra engine: brackets, extremal tests, contact cubic.

Basis: e_alpha for each root alpha plus the simple coroots h_i; the
normalization is [e_alpha, e_-alpha] = alpha^vee, and |N_{alpha,beta}| = p+1
for the root-string length p.  Signs are fixed by giving +1 to the minimal
decomposition of each positive root under a height-then-lex order and
propagating through the Jacobi relations, following the sign identities for
N_{alpha,beta} in Carter, *Simple Groups of Lie Type*, ch. 4.  Unless asked
not to, the construction then certifies the Jacobi identity with one
exhaustive sweep over every root-vector triple whose Jacobi sum can be
nonzero, on integer tables indexed by root.  Triples holding a Cartan element
need no sweep: they hold because the root pairing is linear, with
[e_alpha, e_-alpha] = h_alpha and (alpha+beta)(h) = alpha(h) + beta(h); the
proof is in `_verify_jacobi`.  All coefficients stay in Q.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache

from .rootcore import RootDatum, StructureError

Root = tuple[int, ...]


def _height(v: Root) -> int:
    return sum(v)


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

    def pairing_vec(self, root: Root) -> tuple:
        out = self._pairing_cache.get(root)
        if out is None:
            cart = self.rd.cartan
            n = self.rank
            out = tuple(sum(root[t] * cart[t][i] for t in range(n)) for i in range(n))
            self._pairing_cache[root] = out
        return out

    def norm2(self, root: Root) -> Q:
        out = self._norm_cache.get(root)
        if out is None:
            out = self.rd.killing_pair(root, root)
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
        out = self._coroot_cache.get(alpha)
        if out is None:
            c = self.rd.coroot(alpha)
            if any(x.denominator != 1 for x in c):
                raise StructureError("coroot has non-integer coordinates")
            out = tuple(int(x) for x in c)
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
            # rotate through the zero-sum triple (alpha, beta, -s)
            ratio = self.norm2(s) / self.norm2(alpha)
            val = -ratio * self.n(tuple(-x for x in beta), s)
            if val.denominator != 1:
                raise StructureError("non-integer structure constant")
            return int(val)
        return -self.n(tuple(-x for x in alpha), tuple(-x for x in beta))


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
    total = Q(0)
    d1 = tuple(a - b for a, b in zip(a1, alpha))
    if rd.is_root(d1):
        total += sc.n(neg_alpha, a1) * sc.n(d1, b1)
    d2 = tuple(b - a for b, a in zip(b1, alpha))
    if rd.is_root(d2):
        total += sc.n(neg_alpha, b1) * sc.n(a1, d2)
    lead = sc.n(a1, b1)
    n_neg_alpha_gamma = Q(total, lead)
    # rotate the zero-sum triple (-alpha, gamma, -beta) back to (alpha, beta)
    ratio = sc.norm2(gamma) / sc.norm2(beta)
    val = ratio * n_neg_alpha_gamma
    if val.denominator != 1:
        raise StructureError("non-integer constant during propagation")
    return int(val)


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
    triple only from its first such pair in index order.  The tables (sums and constants on
    root indices, integer coroots) are locals, so nothing grows on `sc`.
    """
    rd = sc.rd
    roots = rd.roots
    m = len(roots)
    index = {g: i for i, g in enumerate(roots)}
    zero = -1
    add = [[index.get(s, zero if not any(s) else None)
            for s in (tuple(x + y for x, y in zip(a, b)) for b in roots)]
           for a in roots]
    n = [[sc.n(roots[i], roots[j]) if s is not None and s >= 0 else 0
          for j, s in enumerate(row)] for i, row in enumerate(add)]
    coroot = [sc.coroot_int(g) for g in roots]
    pairing = [sc.pairing_vec(g) for g in roots]
    partners = [[k for k, s in enumerate(row) if s is not None] for row in add]
    everyone = range(m)

    def term(x: int, y: int, z: int) -> int:
        """Coefficient of [e_x, [e_y, e_z]] on the root x+y+z."""
        s = add[y][z]
        if s is None:
            return 0
        if s == zero:
            return -sum(p * c for p, c in zip(pairing[x], coroot[y]))
        return n[y][z] * n[x][s]

    for i in range(m):
        row = add[i]
        for j in range(i + 1, m):
            s = row[j]
            if s is None:
                continue
            for k in (everyone if s == zero else partners[s]):
                if k == i or k == j:
                    continue
                # count each triple once, from its first pair with a sum
                if i < k < j and row[k] is not None:
                    continue
                if k < i and (add[k][i] is not None or add[k][j] is not None):
                    continue
                d = k if s == zero else add[s][k]
                if d == zero:
                    ok = not any(n[j][k] * a + n[k][i] * b + n[i][j] * c
                                 for a, b, c in zip(coroot[i], coroot[j], coroot[k]))
                else:
                    ok = term(i, j, k) + term(j, k, i) + term(k, i, j) == 0
                if not ok:
                    raise StructureError(
                        f"{rd.label}: Jacobi fails on roots {roots[i]}, "
                        f"{roots[j]}, {roots[k]}")


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


def bracket(sc: StructureConstants, x: LieElement, y: LieElement) -> LieElement:
    rank = sc.rank
    h_out = [Q(0)] * rank
    e_out: dict = {}

    def add_e(root, coeff):
        if coeff:
            e_out[root] = e_out.get(root, Q(0)) + coeff
            if e_out[root] == 0:
                del e_out[root]

    if any(x.h):
        for r, c in y.e:
            pv = sc.pairing_vec(r)
            add_e(r, c * sum(x.h[i] * pv[i] for i in range(rank) if x.h[i]))
    if any(y.h):
        for r, c in x.e:
            pv = sc.pairing_vec(r)
            add_e(r, -c * sum(y.h[i] * pv[i] for i in range(rank) if y.h[i]))
    for ra, ca in x.e:
        for rb, cb in y.e:
            s = tuple(a + b for a, b in zip(ra, rb))
            if all(v == 0 for v in s):
                for i, cr in enumerate(sc.coroot_int(ra)):
                    h_out[i] += ca * cb * cr
            elif sc.rd.is_root(s):
                add_e(s, ca * cb * sc.n(ra, rb))
    return LieElement.make(rank, h_out, e_out)


def ad_power(sc: StructureConstants, x: LieElement, y: LieElement, k: int) -> LieElement:
    out = y
    for _ in range(k):
        if out.is_zero():
            return out
        out = bracket(sc, x, out)
    return out


def is_extremal(sc: StructureConstants, x: LieElement) -> bool:
    """Whether [x, [x, -]] lands in the line through x for every basis vector."""
    if x.is_zero():
        raise ValueError("the zero element is not projective")
    probes = [LieElement.cartan(sc.rank, [1 if i == j else 0 for j in range(sc.rank)])
              for i in range(sc.rank)]
    probes += [LieElement.root_vector(sc.rank, g) for g in sc.rd.roots]
    for y in probes:
        z = bracket(sc, x, bracket(sc, x, y))
        if not _proportional(z, x):
            return False
    return True


def _proportional(z: LieElement, x: LieElement) -> bool:
    if z.is_zero():
        return True
    ratio = None
    xe = x.e_dict()
    for i, v in enumerate(z.h):
        xv = x.h[i]
        if xv == 0:
            if v != 0:
                return False
        elif ratio is None:
            ratio = v / xv
        elif v != ratio * xv:
            return False
    for r, v in z.e:
        xv = xe.get(r, Q(0))
        if xv == 0:
            return False
        if ratio is None:
            ratio = v / xv
        elif v != ratio * xv:
            return False
    if ratio is None:
        return False
    # remaining x-components must also scale consistently: check the reverse
    for r, xv in x.e:
        zv = dict(z.e).get(r, Q(0))
        if zv != ratio * xv:
            return False
    for i, xv in enumerate(x.h):
        if z.h[i] != ratio * xv:
            return False
    return True


def twistor_conic_sample(sc: StructureConstants, rho: Root, t) -> LieElement:
    """Projective representative of the standard transverse conic at time t."""
    t = Q(t)
    e_rho = LieElement.root_vector(sc.rank, rho)
    e_neg = LieElement.root_vector(sc.rank, tuple(-x for x in rho))
    first = bracket(sc, e_neg, e_rho)
    second = bracket(sc, e_neg, first)
    return e_rho.add(first.scale(t)).add(second.scale(t * t / 2))


class ContactDomainError(ValueError):
    """Element not supported on the contact hyperplane."""


def contact_hyperplane_roots(rd: RootDatum, rho: Root, j0: int) -> tuple[Root, ...]:
    return tuple(g for g in rd.roots if g[j0 - 1] == -1)


def contact_cubic(sc: StructureConstants, rho: Root, j0: int,
                  v: LieElement) -> LieElement:
    dom = set(contact_hyperplane_roots(sc.rd, rho, j0))
    if any(x != 0 for x in v.h) or any(r not in dom for r, _ in v.e):
        raise ContactDomainError("vector is not supported on the contact hyperplane")
    e_rho = LieElement.root_vector(sc.rank, rho)
    return bracket(sc, v, bracket(sc, v, bracket(sc, v, e_rho)))


def contact_quadratic(sc: StructureConstants, rho: Root,
                      v: LieElement) -> LieElement:
    e_rho = LieElement.root_vector(sc.rank, rho)
    return bracket(sc, v, bracket(sc, v, e_rho))


@dataclass(frozen=True)
class ImplicationReport:
    samples: int
    cubic_zero_hits: int
    easy_direction_checked: int
    violations: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.violations


def _random_q(rng: random.Random) -> Q:
    num = rng.randint(-20, 20)
    den = rng.randint(1, 20)
    return Q(num, den)


def contact_implication_check(sc: StructureConstants, rho: Root, j0: int,
                              samples: int, seed: int) -> ImplicationReport:
    """Sampled check that a vanishing cubic forces a vanishing quadratic.

    Random vectors rarely meet the cubic's zero locus, so the sample set is
    padded with structured vectors: all coordinate pairs with small rational
    weights, and the orbit of a line direction under a nilpotent flow (which
    certifies the easy direction: quadratic zero implies cubic zero).
    """
    rng = random.Random(seed)
    dom = contact_hyperplane_roots(sc.rd, rho, j0)
    rank = sc.rank
    violations: list[str] = []
    cubic_zero_hits = 0
    easy = 0

    def run(v: LieElement, tag: str):
        nonlocal cubic_zero_hits
        if v.is_zero():
            return
        cubic = contact_cubic(sc, rho, j0, v)
        if cubic.is_zero():
            cubic_zero_hits += 1
            quad = contact_quadratic(sc, rho, v)
            if not quad.is_zero():
                violations.append(f"{tag}: cubic vanishes but quadratic does not")

    tested = 0
    for a in range(len(dom)):
        for b in range(a + 1, len(dom)):
            for c in (Q(1), Q(-1), Q(2), Q(-2), Q(1, 2)):
                v = LieElement.make(rank, None, {dom[a]: Q(1), dom[b]: c})
                run(v, f"pair({a},{b},{c})")
                tested += 1
    while tested < samples:
        v = LieElement.make(rank, None,
                            {g: _random_q(rng) for g in dom if rng.random() < 0.7})
        run(v, "random")
        tested += 1

    # easy direction along deformed line directions
    line = LieElement.root_vector(rank, min(dom, key=lambda g: (-sum(g), g)))
    flows = [g for g in sc.rd.roots if g[j0 - 1] == 0 and sum(g) != 0]
    for _ in range(min(40, samples)):
        v = line
        for _ in range(2):
            u = LieElement.root_vector(rank, flows[rng.randrange(len(flows))],
                                       _random_q(rng))
            # one exp(ad u) step truncated at nilpotency inside the hyperplane
            term, acc, k = v, v, 1
            while True:
                term = bracket(sc, u, term).scale(Q(1, k))
                if term.is_zero():
                    break
                acc = acc.add(term)
                k += 1
            v = acc
        if any(r not in set(dom) for r, _ in v.e):
            continue
        quad = contact_quadratic(sc, rho, v)
        if quad.is_zero():
            easy += 1
            cubic = contact_cubic(sc, rho, j0, v)
            if not cubic.is_zero():
                violations.append("flowed line direction: quadratic vanishes, cubic does not")
    return ImplicationReport(tested, cubic_zero_hits, easy, tuple(violations))


def g2_contact_implication_check(samples: int, seed: int) -> ImplicationReport:
    """The G2 equivalence of the cubic and quadratic vanishing loci, sampled."""
    from .rootcore import build_root_datum, highest_root
    rd = build_root_datum("G", 2)
    sc = build_structure_constants(rd, verify="none")
    rho = highest_root(rd)
    return contact_implication_check(sc, rho, 2, samples, seed)


def find_cubic_zero_quadratic_nonzero(sc: StructureConstants, rho: Root, j0: int,
                                      max_support: int = 3) -> LieElement | None:
    """Deterministic search for a contact direction of a genuine smooth conic."""
    import itertools as it
    dom = contact_hyperplane_roots(sc.rd, rho, j0)
    coeffs = [Q(1), Q(-1), Q(2), Q(-2), Q(3), Q(-3), Q(1, 2), Q(-1, 2)]
    for size in range(2, max_support + 1):
        for support in it.combinations(dom, size):
            for cs in it.product(coeffs, repeat=size - 1):
                weights = {support[0]: Q(1)}
                weights.update(zip(support[1:], cs))
                v = LieElement.make(sc.rank, None, weights)
                cubic = contact_cubic(sc, rho, j0, v)
                if cubic.is_zero():
                    if not contact_quadratic(sc, rho, v).is_zero():
                        return v
    return None


def constants_csv_rows(sc: StructureConstants):
    """Rows (alpha, beta, N) over all pairs with alpha+beta a root."""
    for a in sc.rd.roots:
        for b in sc.rd.roots:
            s = tuple(x + y for x, y in zip(a, b))
            if any(s) and sc.rd.is_root(s):
                yield (a, b, sc.n(a, b))
