"""Algebra labels, adjoint data, Satake diagrams, restricted root systems,
colors, and anticanonical data.

The ten supported families are the symmetric spaces attached to the simple
algebras outside types A and C: B_r (r >= 3), D_r (r >= 4), E6, E7, E8, F4,
G2.  The involution is computed from the contact grading (`satake_of`),
and the Satake diagram, the restricted root system, its numbering and the
colors are read off it (`restricted_datum`); no table is kept per series.
Every StructureError raised here starts with the algebra label.

`satake_of` and `adjoint_data` cache by (series, rank), as `label_cache`s,
until `verify` releases them at the end of a label's checks.  What is derived from one
object is `owned` by it: `contact_node` by its RootDatum, `_sigma_matrix`,
`_nodes_by_character` and `restricted_datum` by their SatakeDiagram, and
`color_table` by its RestrictedRootDatum.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q
from itertools import combinations, permutations
from operator import mul, sub

from .linalg import identity, int_inverse
from .rootcore import (InvalidTypeError, ParabolicSubset, Record, RootDatum,
                       StructureError, UnsupportedAlgebraError, build_root_datum,
                       highest_root, label_cache, owned, subdatum)

_LABEL_RE = re.compile(r"^([A-G])(\d+)$")


def parse_label(label: str) -> tuple[str, int]:
    m = _LABEL_RE.match(label.strip())
    if not m:
        raise InvalidTypeError(f"cannot parse algebra label {label!r}")
    return m.group(1), int(m.group(2))


def supported_pair(series: str, rank: int) -> tuple[str, int]:
    if series in ("A", "C"):
        raise UnsupportedAlgebraError(
            f"type {series} is outside the supported families")
    if series == "B" and rank >= 3:
        return (series, rank)
    if series == "D" and rank >= 4:
        return (series, rank)
    if (series, rank) in (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)):
        return (series, rank)
    raise UnsupportedAlgebraError(f"{series}{rank} is not supported")


class SatakeDiagram(Record):
    """A Satake diagram, stored as the real roots S of `satake_of`."""

    base: RootDatum
    series: str
    rank: int
    real: tuple[tuple[int, ...], ...]

    @property
    def label(self) -> str:
        return f"{self.series}{self.rank}"

    @property
    def black(self) -> frozenset[int]:
        """The simple roots that sigma fixes: those of character zero."""
        return frozenset(dict(_nodes_by_character(self)).get((0,) * self.base.rank, ()))

    @property
    def white(self) -> tuple[int, ...]:
        return tuple(sorted(set(range(1, self.base.rank + 1)) - self.black))

    @property
    def arrows(self) -> tuple[tuple[int, int], ...]:
        """The pairs of white nodes with one character w - sigma(w)."""
        return tuple(pair for char, nodes in _nodes_by_character(self)
                     if any(char) for pair in combinations(nodes, 2))


@label_cache
def satake_of(series: str, rank: int) -> SatakeDiagram:
    """The Satake diagram of the involution (-1)^<alpha, theta^vee> of the
    contact grading, whose symmetric space is quaternionic (Wolf, 1965).

    A Cayley-transform cascade (Knapp, *Lie Groups Beyond an Introduction*,
    ch. VI) finds the real roots S.  At the start every root is imaginary,
    and noncompact when its contact-node coefficient is odd.  Each step makes
    the highest noncompact imaginary root beta (height-then-lex) real, keeps
    the imaginary roots orthogonal to beta and flips the type of each kept
    alpha with alpha + beta or alpha - beta a root, until no noncompact
    imaginary root is left.  S is orthogonal and spans the split part a, so
    sigma, -1 on a and +1 on its orthogonal complement, is the product of
    the reflections in S.  The diagram is read off the standard positive
    system, so `_sigma_matrix` asserts that sigma sends each positive root
    it moves to a negative one (Araki, 1962): another order of beta can give
    a conjugate S that fails this.
    """
    series, rank = supported_pair(series, rank)
    base = build_root_datum(series, rank)
    j0 = contact_node(base, highest_root(base)) - 1
    pos = base.positive_roots      # height-then-lex order
    imaginary = {i: g[j0] % 2 for i, g in enumerate(pos)}   # index: noncompact
    real = []
    while any(imaginary.values()):
        beta = pos[max(i for i, noncompact in imaginary.items() if noncompact)]
        real.append(beta)
        k_beta = [sum(map(mul, row, beta)) for row in base.root_table.killing[0]]
        imaginary = {i: noncompact ^ (base.is_root([x + y for x, y in zip(pos[i], beta)])
                                      or base.is_root([x - y for x, y in zip(pos[i], beta)]))
                     for i, noncompact in imaginary.items()
                     if not sum(map(mul, pos[i], k_beta))}
    return SatakeDiagram(base, series, rank, tuple(real))


@owned
def _sigma_matrix(sd: SatakeDiagram) -> tuple[tuple[int, ...], ...]:
    """Matrix of the involution on characters, columns = images of simples;
    the product of the reflections in the real roots (`satake_of`)."""
    rd = sd.base
    cols = []
    for v in identity(rd.rank):
        for beta in sd.real:
            c = 2 * rd.killing_int(v, beta) // rd.killing_int(beta, beta)
            v = tuple(x - c * y for x, y in zip(v, beta))
        cols.append(v)
    mat = tuple(zip(*cols))
    for g in rd.positive_roots:
        img = tuple([sum(map(mul, row, g)) for row in mat])
        if img != g and sum(img) > 0:
            raise StructureError(f"{sd.label}: the involution of the real roots moves "
                                 f"the positive root {g} to the positive root {img}")
    return mat


def sigma_on_characters(sd: SatakeDiagram, v):
    mat = _sigma_matrix(sd)
    n = len(mat)
    return tuple(sum(mat[i][j] * v[j] for j in range(n) if v[j]) for i in range(n))


@owned
def _nodes_by_character(sd: SatakeDiagram) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(w - sigma(w), the simple roots w of that character), by least node."""
    out: dict[tuple[int, ...], list[int]] = {}
    for w, (v, img) in enumerate(zip(identity(sd.base.rank), zip(*_sigma_matrix(sd))), 1):
        out.setdefault(tuple(map(sub, v, img)), []).append(w)
    return tuple((char, tuple(nodes)) for char, nodes in out.items())


class RestrictedRootDatum(Record):
    satake: SatakeDiagram
    restricted: RootDatum
    groups: tuple[tuple[int, ...], ...]       # white nodes restricting to lambda_i, at i - 1
    characters: tuple[tuple[int, ...], ...]   # 2 lambda_i = w - sigma(w) for w in group i
    gamma: tuple[tuple[Q, ...], ...]          # dual basis, coroot coords

    @property
    def base(self) -> RootDatum:
        return self.satake.base

    def reps_of(self, i: int) -> tuple[int, ...]:
        return self.groups[i - 1]

    @property
    def space_label(self) -> str:
        return f"coroot({self.restricted.label})"


@owned
def restricted_datum(sd: SatakeDiagram) -> RestrictedRootDatum:
    """The restricted root system, read off the involution (Araki, 1962).

    The white nodes w of one character w - sigma w, twice the restricted
    character, represent one restricted simple root.  The Killing pairings
    of those characters give the restricted Cartan matrix, whose type is
    classified.  With the groups ordered by least node, they are numbered by
    the first permutation that gives the standard Cartan matrix of that type;
    only D4 has several, and on the split D4 the first is the identity, so no
    triality choice arises.  `_check_projected_roots` is the independent
    check: the projections of all roots must form the restricted system.
    """
    label, base = sd.label, sd.base
    groups = {c: ws for c, ws in _nodes_by_character(sd) if any(c)}
    chars = list(groups)
    cartan = []
    for ci in chars:
        row = []
        for cj in chars:
            val, rem = divmod(2 * base.killing_int(ci, cj), base.killing_int(cj, cj))
            if rem:
                raise StructureError(
                    f"{label}: the restricted Cartan entry of the white nodes "
                    f"{groups[ci][0]} and {groups[cj][0]} is not an integer")
            row.append(val)
        cartan.append(tuple(row))
    try:
        types = RootDatum(tuple(cartan)).components
    except StructureError as exc:
        raise StructureError(f"{label}: restricted Cartan matrix {cartan}: {exc}") from exc
    if len(types) != 1:
        raise StructureError(f"{label}: restricted root system is reducible: {types}")
    restricted = build_root_datum(*types[0])
    m = restricted.rank
    order = next((p for p in permutations(range(m))
                  if all(cartan[p[i]][p[j]] == restricted.cartan[i][j]
                         for i in range(m) for j in range(m))), None)
    if order is None:
        raise StructureError(f"{label}: no numbering of the restricted simple roots "
                             f"gives the Cartan matrix of {restricted.label}")
    lam2 = tuple(chars[k] for k in order)
    _check_projected_roots(sd, restricted, lam2)

    # gamma_j is column j of A^-1 = adj(A) / det A
    d, adj = int_inverse(restricted.cartan)
    gamma = tuple(tuple(Q(adj[i][j], d) for i in range(m)) for j in range(m))
    return RestrictedRootDatum(sd, restricted, tuple(groups[c] for c in lam2),
                               lam2, gamma)


def _check_projected_roots(sd, restricted, lam2) -> None:
    """Nonzero projections of all roots must form the restricted system.

    A root g projects to (g - sigma g) / 2 and lam2[i - 1] is 2 lambda_i, so
    the coefficients of g - sigma g on the lam2 are the projection's
    coefficients on the lambda_i, and the whole test runs on integers.
    """
    base = sd.base
    m = restricted.rank
    lam_cols = list(zip(*lam2))
    # one factorization serves every root: x = adj(G) . rhs / det(G), then verify
    gram = [[sum(lam_cols[k][i] * lam_cols[k][j] for k in range(base.rank))
             for j in range(m)] for i in range(m)]
    d, adj = int_inverse(gram)
    seen = set()
    for g in base.roots:
        img = sigma_on_characters(sd, g)
        twice_proj = [a - b for a, b in zip(g, img)]
        if not any(twice_proj):
            continue
        rhs = [sum(lam_cols[k][i] * twice_proj[k] for k in range(base.rank))
               for i in range(m)]
        nums = [sum(adj[i][j] * rhs[j] for j in range(m)) for i in range(m)]
        if any(x % d for x in nums):
            raise StructureError(
                f"{sd.label}: a projected root leaves the restricted lattice")
        coeffs = [x // d for x in nums]
        for k in range(base.rank):
            if sum(lam_cols[k][i] * coeffs[i] for i in range(m)) != twice_proj[k]:
                raise StructureError(
                    f"{sd.label}: a projected root leaves the restricted span")
        seen.add(tuple(coeffs))
    if seen != set(restricted.roots):
        raise StructureError(
            f"{sd.label}: projected roots do not form the restricted system")


class ColorInfo(Record):
    index: int
    stabilizer: ParabolicSubset
    color_type: str               # "a", "2a", or "b"
    a_coeff: int
    spherical_root: tuple[int, ...]  # ambient simple-root coordinates


@owned
def color_table(rrd: RestrictedRootDatum) -> tuple[ColorInfo, ...]:
    """The colors, one per restricted simple root lambda_i.

    The spherical root of color i is 2 lambda_i, the character that its
    representatives share by construction of `restricted_datum`.
    """
    sd = rrd.satake
    base = sd.base
    out = []
    white = set(sd.white)
    rpos = [g for g in base.positive_roots
            if any((k + 1) in white and g[k] != 0 for k in range(base.rank))]
    for i, sph in enumerate(rrd.characters, start=1):
        reps = rrd.reps_of(i)
        ctype = "b"
        for w in reps:
            unit = tuple(1 if k == w - 1 else 0 for k in range(base.rank))
            if sph == unit:
                ctype = "a"
            if sph == tuple(2 * x for x in unit):
                ctype = "2a"
        if ctype in ("a", "2a"):
            a_coeff = 1
        else:
            vals = set()
            for w in reps:
                vals.add(sum(base.pairing(g, w) for g in rpos))
            if len(vals) != 1:
                raise StructureError(f"{sd.label}: anticanonical coefficient for "
                                     f"color {i} depends on the representative")
            a_coeff = vals.pop()
            if a_coeff <= 0:
                raise StructureError(
                    f"{sd.label}: anticanonical coefficient is not positive")
        out.append(ColorInfo(i, ParabolicSubset(frozenset(reps)), ctype, a_coeff, sph))
    return tuple(out)


def g_fixed_subalgebra_components(series: str, rank: int) -> tuple[tuple[str, int], ...]:
    """Type of the symmetric-fiber stabilizer: extended diagram minus the contact node."""
    series, rank = supported_pair(series, rank)
    rd = build_root_datum(series, rank)
    rho = highest_root(rd)
    j0 = contact_node(rd, rho)
    n = rd.rank
    ext = [[0] * (n + 1) for _ in range(n + 1)]
    ext[0][0] = 2
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            ext[i][j] = rd.cartan[i - 1][j - 1]
    e = identity(n)
    lowest = tuple(-x for x in rho)

    def entry(i, j, a, b):
        # the Cartan integer 2 <a, b> / <b, b> of the extended diagram at (i, j)
        val, rem = divmod(2 * rd.killing_int(a, b), rd.killing_int(b, b))
        if rem:
            raise StructureError(f"{rd.label}: extended Cartan entry ({i},{j}) "
                                 f"is not an integer")
        return val

    for j in range(1, n + 1):
        ext[0][j] = entry(0, j, lowest, e[j - 1])
        ext[j][0] = entry(j, 0, e[j - 1], lowest)
    keep = [i for i in range(n + 1) if i != j0]
    sub = RootDatum(tuple(tuple(ext[i][j] for j in keep) for i in keep))
    return sub.components


@owned
def contact_node(rd: RootDatum, rho) -> int:
    """The one simple root meeting the highest root `rho` (the contact node)."""
    e = identity(rd.rank)
    hits = [i for i in range(1, rd.rank + 1)
            if rd.killing_int(rho, e[i - 1]) != 0]
    if len(hits) != 1:
        raise StructureError(f"{rd.label}: expected a unique simple root meeting "
                             f"the highest root, found {hits}")
    return hits[0]


class AdjointData(Record):
    series: str
    rank: int
    g: RootDatum
    rho: tuple[int, ...]
    j0: int
    n: int
    neighbors: frozenset[int]
    pss: RootDatum
    q_crossed: ParabolicSubset             # crossed nodes of Q inside pss


@label_cache
def adjoint_data(series: str, rank: int) -> AdjointData:
    """The highest root, contact node and contact grading of one algebra.

    Each StructureError it raises starts with the label: the commands that
    read only this data call it outside `conicatlas`, which adds the label
    to the errors of the cone layer.
    """
    series, rank = supported_pair(series, rank)
    label = f"{series}{rank}"
    g = build_root_datum(series, rank)
    rho = highest_root(g)
    e = identity(g.rank)
    j0 = contact_node(g, rho)
    if not g.is_long(e[j0 - 1]):
        raise StructureError(f"{label}: contact node is not long")
    rho_norm = g.killing_int(rho, rho)
    grade_counts: dict[int, int] = {}
    for a in g.roots:
        grade = a[j0 - 1]
        if 2 * g.killing_int(a, rho) != grade * rho_norm or grade not in (-2, -1, 0, 1, 2):
            raise StructureError(
                f"{label}: grading by the contact node disagrees with pairing")
        grade_counts[grade] = grade_counts.get(grade, 0) + 1
    if grade_counts.get(2, 0) != 1 or grade_counts.get(-2, 0) != 1:
        raise StructureError(f"{label}: contact grading must have one-dimensional ends")
    if grade_counts.get(-1, 0) % 2:
        raise StructureError(f"{label}: contact hyperplane is odd dimensional")
    n = grade_counts[-1] // 2
    below = tuple(r - (1 if k == j0 - 1 else 0) for k, r in enumerate(rho))
    for a in g.roots:
        if a != rho and not all(b - x >= 0 for b, x in zip(below, a)):
            raise StructureError(
                f"{label}: the root below the highest one must dominate "
                "everything else")
    neighbors = frozenset(i for i in range(1, g.rank + 1)
                          if i != j0 and g.cartan[j0 - 1][i - 1] != 0)
    keep = [i for i in range(1, g.rank + 1) if i != j0]
    pss, mapping = subdatum(g, keep)
    q = ParabolicSubset(frozenset(mapping[i] for i in neighbors))
    return AdjointData(series, rank, g, rho, j0, n, neighbors, pss, q)


class AnticanonicalData(Record):
    """Weil coefficients: 1 on boundary divisors, a_D on color closures."""

    stable_rays: tuple[tuple[int, ...], ...]
    color_coeffs: tuple[tuple[int, int], ...]  # (color index, coefficient)


def anticanonical_data(rrd: RestrictedRootDatum, fan) -> AnticanonicalData:
    from .lunavust import extremal_rays, in_valuation_cone
    rays = set()
    for cc in fan:
        for r in extremal_rays(cc.cone):
            if in_valuation_cone(rrd, r):
                rays.add(r)
    coeffs = tuple((c.index, c.a_coeff) for c in color_table(rrd))
    return AnticanonicalData(tuple(sorted(rays)), coeffs)
