"""Exact root systems, Weyl groups, and parabolic combinatorics.

Roots live as integer coordinate tuples in the simple-root basis.  Simple
roots are numbered 1..rank following the Onishchik-Vinberg convention: the
E-series carries the long chain first (node r attached to the chain at
position 3, 4, 5 for E6, E7, E8), F4 runs short end to long end, and G2 puts
the short root first.  Reducible systems are a single datum with a
block-diagonal Cartan matrix.

A datum's derived data is `owned`: kept on the datum and freed with it.
Only the entry points keyed by a label or by (series, rank) cache across
calls, each as a `label_cache`; `verify` empties them all through
`release_label_caches` when a label's checks end.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction as Q
from functools import cached_property, lru_cache, wraps
from math import gcd, lcm, prod
from operator import mul
from types import MappingProxyType

from .linalg import int_inverse

ORBIT_CAP_DEFAULT = 10**7


class InvalidTypeError(ValueError):
    """Requested (series, rank) is not a valid simple type."""


class UnsupportedAlgebraError(ValueError):
    """The algebra is outside the supported families."""


class OrbitLimitError(RuntimeError):
    """A Weyl orbit enumeration exceeded its element cap."""


class StructureError(RuntimeError):
    """An internal consistency check failed; indicates a transcription bug."""


class Record:
    """Base of the frozen value records: the fields are the class's own annotations.

    It behaves like ``@dataclass(frozen=True)`` without generating code when a
    class is created.  The constructor takes the fields by position or keyword
    (a default is a class attribute of the field's name) and then calls
    ``__post_init__``.  Equality holds only between instances of one class
    and compares the fields in order.  The hash is that of the field tuple,
    computed on first use and kept as the int ``_hash``.  The repr reads
    ``QualName(field=value, ...)``.  Assigning or deleting an attribute raises
    ``AttributeError``; ``functools.cached_property`` and `owned` write the
    instance ``__dict__`` directly, so they still work.  Pickling uses the
    default ``object`` reduce without ``_hash``, since another process may
    hash strings with another seed, and without the `owned` memo.  Records
    do not inherit from one another.
    """

    _fields: tuple[str, ...] = ()
    _hash: int | None = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """All field values from keywords and defaults after the positional ones."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} fields, "
                            f"{len(args)} positional arguments were given")
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls.__dict__:
                values.append(cls.__dict__[name])
            else:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unknown or repeated fields {sorted(kwargs)}")
        return tuple(values)

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        d, e = self.__dict__, other.__dict__
        for name in self._fields:
            if d[name] != e[name]:
                return False
        return True

    def __hash__(self):
        h = self._hash
        if h is None:
            d = self.__dict__
            h = d["_hash"] = hash(tuple([d[name] for name in self._fields]))
        return h

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in ("_hash", "_owned")}

    def __repr__(self):
        d = self.__dict__
        inner = ", ".join(f"{name}={d[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def owned(fn):
    """fn(obj, *args), memoized in obj.__dict__ as `cached_property` does.

    The results are shared by every caller that holds obj and are freed with
    it: no module dict keeps obj alive.
    """
    @wraps(fn)
    def cached(obj, *args):
        memo = obj.__dict__.setdefault("_owned", {})
        key = (fn, *args)
        if key not in memo:
            memo[key] = fn(obj, *args)
        return memo[key]
    return cached


_LABEL_CACHES = []


def label_cache(fn):
    """fn memoized by `lru_cache`, for an entry point keyed by a label or by
    (series, rank).  The cache is registered here, where the layer defines
    it, so that `release_label_caches` reaches it without importing the
    layer, and still reaches it when a module name is rebound to a wrapper
    that has no `cache_clear`."""
    cache = lru_cache(maxsize=None)(fn)
    _LABEL_CACHES.append(cache)
    return cache


def release_label_caches() -> None:
    """Empty every `label_cache` of the layers imported so far."""
    for cache in _LABEL_CACHES:
        cache.cache_clear()


_RANK_RANGE = {"A": (1, None), "B": (2, None), "C": (3, None), "D": (4, None),
               "E": (6, 8), "F": (4, 4), "G": (2, 2)}

_EXCEPTIONAL_COUNTS = {("E", 6): 72, ("E", 7): 126, ("E", 8): 240,
                       ("F", 4): 48, ("G", 2): 12}


def simple_cartan(series: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix entries <alpha_i | alpha_j> in OV numbering."""
    lo, hi = _RANK_RANGE.get(series, (None, None))
    if lo is None or rank < lo or (hi is not None and rank > hi):
        raise InvalidTypeError(f"no simple type {series}{rank}")
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if series in ("A", "B", "C", "F"):
        for i in range(rank - 1):
            bond(i, i + 1)
        if series == "B":
            bond(rank - 2, rank - 1, -2, -1)
        elif series == "C":
            bond(rank - 2, rank - 1, -1, -2)
        elif series == "F":
            bond(1, 2, -1, -2)
    elif series == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
    elif series == "E":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond({6: 2, 7: 3, 8: 4}[rank], rank - 1)
    elif series == "G":
        bond(0, 1, -1, -3)
    return tuple(tuple(row) for row in a)


def classify_component(cart, nodes) -> tuple[str, int]:
    """Canonical (series, rank) of one connected Cartan block.

    Canonical means B2 for the rank-two double-bond diagram and A for any
    simply-laced path, so D3 never appears as a name.  An indecomposable
    symmetrizable generalized Cartan matrix is of finite type exactly when
    its symmetrization is positive definite (Kac, *Infinite dimensional Lie
    algebras*, ch. 4), which the Bareiss pivots, the leading minors, decide;
    one that is not symmetrizable is not of finite type.
    A finite type is then fixed by its rank, its largest bond, its number of
    long simple roots and det A: n + 1 for A_n, 4 for D_n and 9 - n for E_n.
    """
    n = len(nodes)
    a = [[cart[i][j] for j in nodes] for i in nodes]
    if any(a[i][j] != 2 if i == j else a[i][j] > 0 or (a[i][j] == 0) != (a[j][i] == 0)
           for i in range(n) for j in range(n)):
        raise StructureError(f"{a} is not a generalized Cartan matrix")
    # relative squared lengths d, with a_ij d_j = a_ji d_i along a spanning tree
    d = {0: Q(1)}
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if a[i][j] and j not in d:
                d[j] = d[i] * a[j][i] / a[i][j]
                todo.append(j)
    scale = lcm(*(v.denominator for v in d.values()))
    dd = [int(d[j] * scale) for j in range(n)]
    # m = A diag(d), symmetric exactly when A is symmetrizable
    m, pivot = [[x * y for x, y in zip(row, dd)] for row in a], 1
    if any(m[i][j] != m[j][i] for i in range(n) for j in range(i)):
        raise StructureError(f"diagram {a} is not of finite type: it is not symmetrizable")
    for k in range(n):
        if m[k][k] <= 0:
            raise StructureError(f"diagram {a} is not of finite type: its symmetrized "
                                 f"leading minor of order {k + 1} is {m[k][k]}")
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // pivot
        pivot = m[k][k]
    maxbond = max((a[i][j] * a[j][i] for i in range(n) for j in range(n) if i != j), default=1)
    nlong = dd.count(max(dd))
    det = pivot // prod(dd)
    if maxbond == 3:
        return ("G", 2)
    if maxbond == 2:
        if n == 4 and nlong == 2:
            return ("F", 4)
        return ("C" if nlong == 1 and n > 2 else "B", n)
    return ("A" if det == n + 1 else "D" if det == 4 else "E", n)


def _simple_root_count(series: str, rank: int) -> int:
    if series == "A":
        return rank * (rank + 1)
    if series in ("B", "C"):
        return 2 * rank * rank
    if series == "D":
        return 2 * rank * (rank - 1)
    return _EXCEPTIONAL_COUNTS[(series, rank)]


class RootTable(namedtuple("RootTable", "roots index neg pairing norm2 killing")):
    """The integer root table of a datum, on root indices: positions in `roots`.

    roots is sorted, so the negative roots come first; index maps each root to
    its position.  Negation reverses the sorted order, so the index neg[i] of
    -roots[i] is len(roots) - 1 - i.  pairing[i] holds the pairings
    roots[i](h_k) with the simple coroots h_k, and norm2[i] the squared norm
    `RootDatum.killing_int(roots[i], roots[i])`.  killing is the scaled
    Killing matrix (K, D) of `_scaled_killing_of`.  `RootDatum.root_table`
    fills it in one closure pass, and no other structure repeats its rows.
    """

    __slots__ = ()


def _scaled_killing_of(cartan, half) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(K, D): the Killing matrix of the simple roots is K / D, K integral.

    The Killing form is the inverse of the trace form B(h_i, h_j) on the
    simple coroots, read through the Cartan pairings: C G^-1 C^t.  G is the
    sum over the roots of the products of their pairing rows, twice the sum
    over `half`, the rows of one root of each pair +-a.  D is the least
    common denominator: (K, D) with gcd 1 is unique, so it is C adj(G) C^t
    and det G reduced by their gcd.  D <a, b> is an integer on the root
    lattice and ratios of pairings need no fractions.
    """
    cols = list(zip(*half))
    gram = [[0] * len(cols) for _ in cols]
    for i, a in enumerate(cols):
        for j in range(i, len(cols)):
            gram[i][j] = gram[j][i] = 2 * sum(map(mul, a, cols[j]))
    d, adj = int_inverse(gram)    # G is positive definite: d > 0
    # adj(G) is symmetric, so its rows are its columns
    ca = [[sum(map(mul, row, col)) for col in adj] for row in cartan]
    k = [[sum(map(mul, x, row)) for row in cartan] for x in ca]
    g = gcd(d, *(x for row in k for x in row))
    return tuple(tuple(x // g for x in row) for row in k), d // g


class RootDatum(Record):
    """A (possibly reducible) root system with exact Killing pairings.

    Everything per root lives in one integer table, `root_table`, filled by
    the closure pass: the roots, their index map and negation, their pairings
    with the simple coroots and their squared norms.  `roots`, `is_root`,
    `killing_int`, `is_long` and `highest_root` read it.  `pairing` and
    `reflect` compute from the Cartan matrix on any vector and never read it,
    so the rootcore checks reflect the roots independently of the closure.
    """

    cartan: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.cartan)

    @cached_property
    def component_nodes(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted tuples of 1-based node indices."""
        seen, comps = set(), []
        for start in range(self.rank):
            if start in seen:
                continue
            comp, todo = {start}, [start]
            while todo:
                i = todo.pop()
                for j in range(self.rank):
                    if j not in comp and self.cartan[i][j] != 0:
                        comp.add(j)
                        todo.append(j)
            seen |= comp
            comps.append(tuple(sorted(i + 1 for i in comp)))
        return tuple(comps)

    @cached_property
    def components(self) -> tuple[tuple[str, int], ...]:
        """Component types, sorted; canonical names (A1, B2, ...)."""
        out = []
        for nodes in self.component_nodes:
            out.append(classify_component(self.cartan, tuple(i - 1 for i in nodes)))
        return tuple(sorted(out))

    @property
    def label(self) -> str:
        return "+".join(f"{s}{r}" for s, r in self.components)

    @cached_property
    def _cartan_columns(self) -> tuple[tuple[int, ...], ...]:
        """Column i of the Cartan matrix: the pairings <alpha_k | alpha_i> over k."""
        return tuple(zip(*self.cartan))

    def pairing(self, v, i: int) -> int:
        """Cartan pairing <v | alpha_i> for v in simple-root coordinates."""
        return sum(map(mul, v, self._cartan_columns[i - 1]))

    def reflect(self, v, i: int):
        c = self.pairing(v, i)
        out = list(v)
        out[i - 1] -= c
        return tuple(out)

    @cached_property
    def root_table(self) -> RootTable:
        """The integer root table, filled by one closure pass under the simple reflections.

        A root enters with its negative, and the pass expands one of the two.
        Its pairing row gives its reflections s_i v = v - v(h_i) alpha_i, each
        with its own row, row(v) - v(h_i) row(alpha_i), and negated it gives
        the row of -v, whose reflections are the negated ones.  The Killing
        matrix comes from the rows (`_scaled_killing_of`), and the norms from its
        diagonal: D |v|^2 = sum_k v_k v(h_k) D |alpha_k|^2 / 2.  The
        classification comes first, so a diagram of infinite type fails by
        name before the pass, which would not end on it.
        """
        expected = sum(_simple_root_count(s, r) for s, r in self.components)
        cart = self.cartan
        rows: dict[tuple[int, ...], tuple[int, ...]] = {}
        todo, half = [], []         # half: the rows of one root of each pair +-v

        def add(v, row):
            rows[v], rows[tuple([-x for x in v])] = row, tuple([-c for c in row])
            half.append(row)
            todo.append(v)

        for i, row in enumerate(cart):      # the row of alpha_i is row i of C
            add(tuple(int(k == i) for k in range(len(cart))), row)
        while todo:
            v = todo.pop()
            row = rows[v]
            for i, c in enumerate(row):
                if c:
                    w = list(v)
                    w[i] -= c
                    w = tuple(w)
                    if w not in rows:
                        add(w, tuple([p - c * q for p, q in zip(row, cart[i])]))
        if len(rows) != expected:
            raise StructureError(
                f"closure produced {len(rows)} roots, expected {expected}")
        roots = tuple(sorted(rows))
        pairing = tuple([rows[g] for g in roots])
        killing = _scaled_killing_of(cart, half)
        diag = [row[k] for k, row in enumerate(killing[0])]
        norm2 = tuple([sum(map(mul, map(mul, g, p), diag)) // 2 for g, p in zip(roots, pairing)])
        return RootTable(roots, {g: i for i, g in enumerate(roots)},
                         tuple(range(len(roots) - 1, -1, -1)), pairing, norm2, killing)

    @cached_property
    def roots(self) -> tuple[tuple[int, ...], ...]:
        return self.root_table.roots

    @cached_property
    def positive_roots(self) -> tuple[tuple[int, ...], ...]:
        pos = [v for v in self.roots if sum(v) > 0]
        if 2 * len(pos) != len(self.roots):
            raise StructureError("positive roots are not half of all roots")
        return tuple(sorted(pos, key=lambda v: (sum(v), v)))

    def is_root(self, v) -> bool:
        return tuple(v) in self.root_table.index

    def killing_int(self, a, b):
        """D <a, b> for the datum's fixed D > 0; an integer on the root lattice.

        Ratios and signs of Killing pairings read off it exactly.
        """
        k = self.root_table.killing[0]
        return sum(x * sum(map(mul, row, b)) for x, row in zip(a, k) if x)

    def killing_pair(self, a, b) -> Q:
        """The Killing form <a, b> of two vectors in simple-root coordinates."""
        total = self.killing_int(a, b)
        d = self.root_table.killing[1]
        return Q(total, d) if isinstance(total, int) else total / d

    @cached_property
    def _component_max_norm(self) -> tuple[tuple[frozenset[int], int], ...]:
        """(0-based node set, largest scaled root norm) for each irreducible component."""
        tab = self.root_table
        out = []
        for nodes in self.component_nodes:
            idx = frozenset(i - 1 for i in nodes)
            out.append((idx, max(m for g, m in zip(tab.roots, tab.norm2)
                                 if {k for k, x in enumerate(g) if x != 0} <= idx)))
        return tuple(out)

    def is_long(self, root) -> bool:
        """Maximal length within the root's own irreducible component."""
        tab = self.root_table
        support = {k for k, x in enumerate(root) if x != 0}
        for idx, m in self._component_max_norm:
            if support <= idx:
                return tab.norm2[tab.index[tuple(root)]] == m
        raise StructureError("root support crosses components")


class WeylWord(Record):
    """A word in the simple reflections, applied left to right."""

    word: tuple[int, ...]

    def __iter__(self):
        return iter(self.word)

    def __len__(self):
        return len(self.word)


class ParabolicSubset(Record):
    """The crossed nodes I of a standard parabolic P_I (generated by S minus I)."""

    missing: frozenset[int]

    def __post_init__(self):
        if not all(isinstance(i, int) and i >= 1 for i in self.missing):
            raise ValueError("parabolic indices must be positive integers")

    @staticmethod
    def of(*indices: int) -> "ParabolicSubset":
        return ParabolicSubset(frozenset(indices))


@label_cache
def build_root_datum(series: str, rank: int) -> RootDatum:
    rd = RootDatum(simple_cartan(series, rank))
    _validate_datum(rd, series, rank)
    return rd


def _validate_datum(rd: RootDatum, series: str, rank: int) -> None:
    if rd.components != ((series, rank),) and not (
            series == "C" and rd.components == (("C", rank),)):
        raise StructureError(f"classification mismatch for {series}{rank}: {rd.components}")
    k = rd.root_table.killing[0]
    for i in range(rank):
        for j in range(rank):
            if 2 * k[i][j] != rd.cartan[i][j] * k[j][j]:
                raise StructureError("Killing form does not reproduce Cartan integers")
    # positive definiteness via leading principal minors
    for m in range(1, rank + 1):
        if int_inverse([row[:m] for row in k[:m]])[0] <= 0:
            raise StructureError("Killing form is not positive definite")


def subdatum(rd: RootDatum, keep) -> tuple[RootDatum, dict[int, int]]:
    """Sub-diagram on the kept 1-based nodes; returns (datum, old->new map)."""
    kept = sorted(set(keep))
    if any(i < 1 or i > rd.rank for i in kept):
        raise ValueError("kept indices out of range")
    cart = tuple(tuple(rd.cartan[i - 1][j - 1] for j in kept) for i in kept)
    return RootDatum(cart), {old: new + 1 for new, old in enumerate(kept)}


@owned
def highest_root(rd: RootDatum) -> tuple[int, ...]:
    if len(rd.components) != 1:
        raise InvalidTypeError("highest root is defined for irreducible systems")
    tab = rd.root_table
    best = None
    for g, p in zip(tab.roots, tab.pairing):
        if min(p) >= 0:
            if best is None or all(g[k] >= best[k] for k in range(rd.rank)):
                best = g
    if best is None or not all(
            all(best[k] - h[k] >= 0 for k in range(rd.rank)) for h in rd.roots):
        raise StructureError("no dominance maximum found")
    if not rd.is_long(best):
        raise StructureError("highest root is not long")
    return best


def reflect(rd: RootDatum, v, i: int):
    if not 1 <= i <= rd.rank:
        raise IndexError(f"simple index {i} out of range 1..{rd.rank}")
    return rd.reflect(v, i)


def weyl_apply(rd: RootDatum, word: WeylWord, v):
    out = tuple(v)
    for i in word:
        out = reflect(rd, out, i)
    return out


@owned
def longest_element(rd: RootDatum) -> WeylWord:
    # 2 rho, the sum of the positive roots: integral, with the signs of rho
    v = tuple(map(sum, zip(*rd.positive_roots)))
    word = []
    while True:
        i = next((i for i in range(1, rd.rank + 1) if rd.pairing(v, i) > 0), None)
        if i is None:
            break
        v = rd.reflect(v, i)
        word.append(i)
    if len(word) != len(rd.positive_roots):
        raise StructureError("longest element length != number of positive roots")
    return WeylWord(tuple(word))


@owned
def duality_involution(rd: RootDatum) -> MappingProxyType:
    """The permutation theta with -w0(alpha_i) = alpha_theta(i), read-only.

    The result is kept on the datum and shared by every caller, hence a
    read-only view of the dict.
    """
    w0 = longest_element(rd)
    theta = {}
    e = [tuple(int(i == j) for j in range(rd.rank)) for i in range(rd.rank)]
    for i in range(1, rd.rank + 1):
        img = tuple(-x for x in weyl_apply(rd, w0, e[i - 1]))
        matches = [j for j in range(1, rd.rank + 1) if img == e[j - 1]]
        if len(matches) != 1:
            raise StructureError("-w0 does not permute the simple roots")
        theta[i] = matches[0]
    for i in theta:
        if theta[theta[i]] != i:
            raise StructureError("duality involution is not an involution")
        for j in theta:
            if rd.cartan[i - 1][j - 1] != rd.cartan[theta[i] - 1][theta[j] - 1]:
                raise StructureError("duality involution breaks the Cartan matrix")
    return MappingProxyType(theta)


def parabolic_intersection(*subsets: ParabolicSubset) -> ParabolicSubset:
    out: frozenset[int] = frozenset()
    for s in subsets:
        out |= s.missing
    return ParabolicSubset(out)


def coset_orbit(rd: RootDatum, subset: ParabolicSubset,
                cap: int = ORBIT_CAP_DEFAULT) -> tuple[tuple[int, ...], ...]:
    """Weyl orbit of the sum of fundamental weights indexed by the crossed set.

    Weights are carried by their Cartan pairing vectors, so the orbit is the
    coset space W / W_{P_I}.  Returned sorted for reproducibility.
    """
    if not subset.missing:
        raise ValueError("coset_orbit needs a nonempty crossed set")
    if any(i > rd.rank for i in subset.missing):
        raise ValueError("crossed index out of range")
    start = tuple(1 if (k + 1) in subset.missing else 0 for k in range(rd.rank))
    rows = rd.cartan
    seen = {start}
    todo = [start]
    while todo:
        p = todo.pop()
        for i in range(rd.rank):
            c = p[i]
            if c == 0:
                continue
            row = rows[i]
            q = tuple(p[j] - c * row[j] for j in range(rd.rank))
            if q not in seen:
                if len(seen) >= cap:
                    raise OrbitLimitError(f"orbit exceeded cap {cap}")
                seen.add(q)
                todo.append(q)
    return tuple(sorted(seen))


def double_coset_count(rd: RootDatum, subset: ParabolicSubset,
                       cap: int = ORBIT_CAP_DEFAULT) -> int:
    """|W_Q \\ W / W_Q| for the standard parabolic with crossed set Q.

    Counts the W_Q-orbits on the coset orbit, W_Q being generated by the
    uncrossed simple reflections.  The closed Q-dominant chamber is a
    fundamental domain of W_Q (Humphreys, *Reflection Groups and Coxeter
    Groups*, 1.12), so each W_Q-orbit holds exactly one weight with a
    nonnegative pairing on every uncrossed node.
    """
    if not subset.missing:
        return 1
    gens = [i for i in range(rd.rank) if (i + 1) not in subset.missing]
    return sum(all(p[i] >= 0 for i in gens) for p in coset_orbit(rd, subset, cap=cap))
