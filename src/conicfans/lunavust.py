"""Colored cones and fans over a restricted root datum.

All cone arithmetic happens in the basis of restricted simple coroots; a
vector (c_1, ..., c_m) stands for sum c_i lambda_i^vee.  The valuation cone
is the negative Weyl chamber {c : A c <= 0} for the restricted Cartan matrix
A, and the color points are the halved basis vectors e_i / 2.  Everything is
exact.  Every yes/no question (generation by colors and V, relative interiors
meeting V, pointedness, completeness) is one or more `linalg.feasible` calls,
i.e. Fourier-Motzkin elimination; the exponential H/V conversion
`_rays_of_hcone` serves only `hrep` and `extremal_rays`.

These questions, the conversion and Ruzzi's smoothness test run on integer
rows.  A cone is its primitive integer generators (`QCone.generators`, stored
by `QCone.of`) and a color point e_i / 2 is read through e_i: scaling a
generator, a color point or a constraint row by a positive number changes
neither the cone, nor its relative interior, nor any answer below.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .linalg import (feasible, int_inverse, int_nullspace, is_zero, primitive, rank,
                     transpose, vdot)
from .rootcore import Record, StructureError, classify_component, subdatum

Ray = tuple[int, ...]


class QCone(Record):
    """A convex rational polyhedral cone given by primitive integer generators.

    The generators are the key of every cone memo, so two cones built from
    vectors on the same rays are one cone.
    """

    generators: tuple[Ray, ...]

    @staticmethod
    def of(vectors) -> "QCone":
        return QCone(tuple(primitive(v) for v in vectors if not is_zero(v)))

    @property
    def ambient_dim(self) -> int:
        if self.generators:
            return len(self.generators[0])
        raise ValueError("zero cone carries no ambient dimension")

    def dim(self) -> int:
        return rank(self.generators)


class ColoredCone(Record):
    cone: QCone
    colors: frozenset[int]

    def key(self):
        return (extremal_rays(self.cone), tuple(sorted(self.colors)))


class ColoredFan(Record):
    cones: tuple[ColoredCone, ...]

    @staticmethod
    def of(cones) -> "ColoredFan":
        uniq = {c.key(): c for c in cones}
        return ColoredFan(tuple(uniq[k] for k in sorted(uniq)))

    def __iter__(self):
        return iter(self.cones)

    def __len__(self):
        return len(self.cones)


# ---------------------------------------------------------------------------
# H-representation / V-representation conversion

def _rows_str(rows) -> str:
    return "[" + ", ".join("(" + ", ".join(map(str, r)) + ")" for r in rows) + "]"


def _rays_of_hcone(equalities, inequalities, dim) -> tuple[Ray, ...]:
    """Extremal rays of a pointed cone {x : E x = 0, M x >= 0}.

    Candidate rays come from subsets of the constraint rows that cut the
    space down to a line; a candidate survives if it satisfies every
    inequality.  Exact and complete for pointed cones.
    """
    eqs, ineqs = list(equalities), list(inequalities)
    if int_nullspace(eqs + ineqs, dim):
        raise StructureError(
            f"cone {{x : E x = 0, M x >= 0}} with E = {_rows_str(equalities)}, "
            f"M = {_rows_str(inequalities)} is not pointed; extremal rays undefined")
    sdim = dim - rank(eqs)
    if sdim == 0:
        return ()
    rays = set()
    for subset in itertools.combinations(range(len(ineqs)), sdim - 1):
        null = int_nullspace(eqs + [ineqs[k] for k in subset], dim)
        if len(null) != 1:
            continue
        v = null[0]
        for cand in (v, tuple(-x for x in v)):
            if all(vdot(r, cand) >= 0 for r in ineqs):
                rays.add(cand)
                break
    return tuple(sorted(rays))


@lru_cache(maxsize=None)
def hrep(cone: QCone):
    """(equalities, facet inequalities) with primitive integer rows."""
    if not cone.generators:
        raise ValueError("zero cone")
    eqs = int_nullspace(cone.generators, cone.ambient_dim)
    return tuple(sorted(eqs)), _rays_of_hcone(eqs, cone.generators, cone.ambient_dim)


def cone_contains(cone: QCone, x) -> bool:
    if is_zero(x):
        return True
    if not cone.generators:
        return False
    eqs, facets = hrep(cone)
    return all(vdot(e, x) == 0 for e in eqs) and all(vdot(f, x) >= 0 for f in facets)


_rays_memo: dict = {}   # {cone: extremal rays}


def extremal_rays(cone: QCone) -> tuple[Ray, ...]:
    """Minimal primitive generating rays, canonically sorted."""
    if not cone.generators:
        return ()
    rays = _rays_memo.get(cone)
    if rays is None:
        eqs, facets = hrep(cone)
        rays = _rays_memo[cone] = _rays_of_hcone(eqs, facets, cone.ambient_dim)
    return rays


def _cone_on_rays(rays) -> QCone:
    """The cone spanned by rays already known to be its extremal rays.

    A face of a pointed cone is spanned by the cone's extremal rays that lie
    on it, and those are exactly its own extremal rays; recording them spares
    the face an H-representation just to compute its key.
    """
    cone = QCone.of(rays)
    _rays_memo.setdefault(cone, tuple(rays))
    return cone


def is_pointed(cone: QCone) -> bool:
    """Whether the cone holds no line: some linear form is >= 1 on every generator."""
    if not cone.generators:
        return True
    return feasible([], [g + (-1,) for g in cone.generators], cone.ambient_dim)


# ---------------------------------------------------------------------------
# Valuation cone and colors.  Functions below consume a RestrictedRootDatum
# through its `restricted.cartan` only: its rows A_i give the valuation cone
# {x : A_i . x <= 0}.

def color_point(rrd, i: int) -> Ray:
    """The color point e_i / 2 of color i, scaled to the integer vector e_i."""
    return tuple(int(k == i - 1) for k in range(rrd.restricted.rank))


def in_valuation_cone(rrd, x) -> bool:
    return all(vdot(row, x) <= 0 for row in rrd.restricted.cartan)


@lru_cache(maxsize=None)
def neg_gamma_rays(cartan) -> tuple[Ray, ...]:
    """The primitive rays of -gamma_1, ..., -gamma_m for the Cartan matrix A.

    gamma_j is column j of A^-1 = adj(A) / det A, so -gamma_j lies on the ray
    of column j of -adj(A): det A > 0, as `build_root_datum` proves the
    Killing form positive definite.
    """
    adj = int_inverse(cartan)[1]
    return tuple(primitive([-x for x in col]) for col in zip(*adj))


def valuation_cone(rrd) -> QCone:
    """The negative Weyl chamber as a generator cone, spanned by the -gamma_j.

    V = {c : A c <= 0} = {-A^-1 y : y >= 0}, so V is spanned by the columns
    of -A^-1, the `neg_gamma_rays` of the restricted Cartan matrix A.
    """
    return QCone.of(sorted(neg_gamma_rays(rrd.restricted.cartan)))


def relints_meet_in_valuation(rrd, *cones: QCone) -> bool:
    """Exact test that the relative interiors of the cones share a point of V.

    A point of relint(cone(g_1, ..., g_n)) is sum t_i g_i with every t_i > 0,
    scaled here to t_i >= 1.  The cones' points are set equal and the first
    one is asked to satisfy A x <= 0.  relint({0}) = {0} lies in V and, by
    convention, meets no relative interior of a nonzero cone.
    """
    gens = [c.generators for c in cones]
    if not all(gens):
        return not any(gens)
    flat = [(j, g) for j, gs in enumerate(gens) for g in gs]   # one t per (cone, g)
    n = len(flat)
    eqs = [[g[k] if c == 0 else -g[k] if c == j else 0 for c, g in flat] + [0]
           for j in range(1, len(gens)) for k in range(len(flat[0][1]))]
    ineqs = [[int(i == j) for j in range(n)] + [-1] for i in range(n)]  # t_i >= 1
    ineqs += [[-vdot(vr, g) if c == 0 else 0 for c, g in flat] + [0]
              for vr in rrd.restricted.cartan]
    return feasible(eqs, ineqs, n)


class ConeCheck(Record):
    ok: bool
    diagnostics: tuple[str, ...] = ()

    def __bool__(self):
        return self.ok


# ---------------------------------------------------------------------------
# Cone-layer answers, memoized per restricted datum.  Each of them depends on
# the datum only through `rrd.restricted.cartan` (the valuation cone and the
# color points are read off it) and on its cones only through their keys, so
# labels sharing a restricted Cartan matrix share every answer.

_faces_memo: dict = {}   # {restricted cartan: {(kind, cone keys...): answer}}


def _memo(rrd, key, compute):
    cache = _faces_memo.setdefault(rrd.restricted.cartan, {})
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def _fan_key(fan) -> tuple:
    return tuple(c.key() for c in fan)


def is_colored_cone(cc: ColoredCone, rrd) -> ConeCheck:
    """Validity of (C, F): generated by colors plus V, relint meeting V, pointed.

    A cone holding a line has no extremal rays, so no memo key either; it is
    checked unmemoized and reported as not strictly convex.
    """
    if not is_pointed(cc.cone):
        return _check_colored_cone(cc, rrd)
    return _memo(rrd, ("cone", cc.key()), lambda: _check_colored_cone(cc, rrd))


def _check_colored_cone(cc: ColoredCone, rrd) -> ConeCheck:
    diags = []
    cone = cc.cone
    eps = {i: color_point(rrd, i) for i in sorted(cc.colors)}
    for i, e in eps.items():
        if cone.generators and not cone_contains(cone, e):
            diags.append(f"color D{i} not inside the cone")
        if not cone.generators:
            diags.append(f"color D{i} attached to the zero cone")
    if cone.generators and not diags and not _generated_by_colors_and_valuations(
            rrd, cone, list(eps.values())):
        diags.append("cone is not generated by its colors and its valuation part")
    if not relints_meet_in_valuation(rrd, cone):
        diags.append("relative interior misses the valuation cone")
    if not is_pointed(cone):
        diags.append("cone is not strictly convex")
    return ConeCheck(not diags, tuple(diags))


def _generated_by_colors_and_valuations(rrd, cone: QCone, eps) -> bool:
    """Whether C = cone(eps) + (C cap V), for colors eps already inside C.

    That holds exactly when every generator g of C is sum lam_D eps_D + w with
    every lam_D >= 0 and w in C cap V: one feasibility question per g, on the
    unknowns lam_D, with w = g - sum lam_D eps_D held to C's facets and to
    A w <= 0.  C's span equations hold for w already, since g and the eps_D
    lie in C, and nothing here asks C to be pointed.
    """
    _, facets = hrep(cone)
    vrows = rrd.restricted.cartan
    signs = [[int(i == j) for j in range(len(eps))] + [0]
             for i in range(len(eps))]                                    # lam_D >= 0
    return all(feasible([], signs
                        + [[-vdot(f, e) for e in eps] + [vdot(f, g)] for f in facets]
                        + [[vdot(a, e) for e in eps] + [-vdot(a, g)] for a in vrows],
                        len(eps))
               for g in cone.generators)


def colored_faces(cc: ColoredCone, rrd) -> tuple[ColoredCone, ...]:
    """All colored faces of a colored cone, the cone itself and 0 included."""
    return _memo(rrd, ("faces", cc.key()), lambda: _colored_faces(cc, rrd))


def _colored_faces(cc: ColoredCone, rrd) -> tuple[ColoredCone, ...]:
    """Faces read off the ray-facet incidence of the pointed cone.

    A nonzero face is the set of extremal rays on which some set of facets
    vanishes, i.e. an intersection of the facets' ray sets; the cone itself
    is the empty intersection.  A color lies on a face when it lies in the
    cone and on every facet that vanishes on the whole face.
    """
    zero = ColoredCone(QCone(()), frozenset())
    out = {zero.key(): zero}
    cone = cc.cone
    if cone.generators:
        rays = extremal_rays(cone)
        _, facets = hrep(cone)
        tight = [frozenset(i for i, r in enumerate(rays) if vdot(f, r) == 0)
                 for f in facets]
        faces = {frozenset(range(len(rays)))}
        for t in tight:
            faces |= {s & t for s in faces}
        points = {i: color_point(rrd, i) for i in cc.colors}
        inside = [i for i, x in points.items() if cone_contains(cone, x)]
        for s in faces:
            if not s:
                continue
            face = _cone_on_rays([rays[i] for i in sorted(s)])
            if not relints_meet_in_valuation(rrd, face):
                continue
            walls = [f for f, t in zip(facets, tight) if s <= t]
            fcolors = frozenset(i for i in inside
                                if all(vdot(f, points[i]) == 0 for f in walls))
            fc = ColoredCone(face, fcolors)
            out[fc.key()] = fc
    return tuple(out[k] for k in sorted(out))


def is_colored_fan(fan: ColoredFan, rrd) -> ConeCheck:
    return _memo(rrd, ("fan", _fan_key(fan)), lambda: _check_colored_fan(fan, rrd))


def _check_colored_fan(fan: ColoredFan, rrd) -> ConeCheck:
    """Every colored face of a cone is in the fan; no two relative interiors meet in V.

    Pairs of distinct colored faces of one fan cone need no test.  A point of
    a polyhedral cone lies in the relative interior of exactly one face, the
    smallest face holding it, so the relative interiors of distinct faces are
    disjoint.  A face carries one set of colors, so two colored faces of one
    cone with distinct keys are distinct faces.  `_face_order` lists which
    fan cones are faces of which.
    """
    diags = []
    keys = [c.key() for c in fan]
    present = set(keys)
    for c in fan:
        for f in colored_faces(c, rrd):
            if f.key() not in present:
                diags.append(f"missing colored face {f.key()} of {c.key()}")
    cones = list(fan)
    below = [{j} for j in range(len(cones))]   # below[j]: cone j and its faces in the fan
    for i, j in _face_order(fan, rrd):
        below[j].add(i)
    same_cone = {(a, b) for d in below for a in d for b in d if a < b and keys[a] != keys[b]}
    for a, b in itertools.combinations(range(len(cones)), 2):
        if (a, b) in same_cone:
            continue
        if relints_meet_in_valuation(rrd, cones[a].cone, cones[b].cone):
            diags.append(
                f"relative interiors of cones {cones[a].key()} and "
                f"{cones[b].key()} meet inside the valuation cone")
    return ConeCheck(not diags, tuple(diags))


def _face_order(fan: ColoredFan, rrd) -> frozenset[tuple[int, int]]:
    """Pairs (i, j) of fan positions: cone i is a proper colored face of cone j."""
    def compute():
        keys = [c.key() for c in fan]
        less = set()
        for j, c in enumerate(fan):
            below = {f.key() for f in colored_faces(c, rrd)} - {keys[j]}
            less.update((i, j) for i, k in enumerate(keys) if k in below)
        return frozenset(less)
    return _memo(rrd, ("order", _fan_key(fan)), compute)


def maximal_cones(fan: ColoredFan, rrd) -> tuple[ColoredCone, ...]:
    below = {i for i, _ in _face_order(fan, rrd)}
    return tuple(c for i, c in enumerate(fan) if i not in below)


def is_complete(fan: ColoredFan, rrd) -> bool:
    """Exact covering test: V contained in the union of the fan's cones."""
    return _memo(rrd, ("complete", _fan_key(fan)), lambda: _covers_valuation(fan, rrd))


def _covers_valuation(fan: ColoredFan, rrd) -> bool:
    maxc = [c for c in maximal_cones(fan, rrd) if c.cone.generators]
    if not maxc:
        return False
    m = rrd.restricted.rank
    vrows = [[-x for x in vr] + [0] for vr in rrd.restricted.cartan]
    menus = []
    for c in maxc:
        # a point escapes the cone by violating one facet or one span equation
        eqs, facets = hrep(c.cone)
        menus.append(list(facets) + [s for e in eqs for s in (e, tuple(-x for x in e))])
    for choice in itertools.product(*menus):
        ineqs = list(vrows)
        for row in choice:
            ineqs.append([-x for x in row] + [-1])  # row . x <= -1
        if feasible([], ineqs, m):
            return False
    return True


class Poset(Record):
    """Colored-cone poset of a fan with covering edges (Hasse data)."""

    nodes: tuple[ColoredCone, ...]
    less: tuple[tuple[int, int], ...]   # (i, j): node i is a proper face of node j
    covers: tuple[tuple[int, int], ...]


def orbit_poset(fan: ColoredFan, rrd) -> Poset:
    """The fan's colored cones ordered by colored-face inclusion.

    Under the orbit correspondence this order is reversed: the zero cone is
    the open orbit and maximal cones are the closed ones.
    """
    nodes = list(fan)
    less = _face_order(fan, rrd)
    covers = {(i, j) for (i, j) in less
              if not any((i, k) in less and (k, j) in less for k in range(len(nodes)))}
    return Poset(tuple(nodes), tuple(sorted(less)), tuple(sorted(covers)))


# ---------------------------------------------------------------------------
# Ruzzi's smoothness criterion for simple symmetric embeddings

class RuzziReport(Record):
    smooth: bool
    cond1: bool
    cond2: bool
    cond3: bool
    detail: tuple[str, ...]


def levi_subsystem_factors(rrd, colors) -> list[list[int]]:
    """Connected components of the selected restricted simple roots."""
    sub, new_of = subdatum(rrd.restricted, colors)
    kept = sorted(new_of)
    return [[kept[i - 1] for i in nodes] for nodes in sub.component_nodes]


def _order_path(rrd, comp) -> list[int] | None:
    """One of the two path orders of a type-A component, or None."""
    cart = rrd.restricted.cartan
    if len(comp) == 1:
        return list(comp)
    adj = {a: [b for b in comp if b != a and cart[a - 1][b - 1] != 0] for a in comp}
    ends = [a for a in comp if len(adj[a]) == 1]
    if len(ends) != 2:
        return None
    order = [min(ends)]
    while len(order) < len(comp):
        nxt = [b for b in adj[order[-1]] if b not in order]
        if len(nxt) != 1:
            return None
        order.append(nxt[0])
    return order


def _factor_fundamental_weights(rrd, order) -> tuple[int, list[Ray]]:
    """(D, [D omega_1, ..., D omega_l]) for the ordered sub-root-system.

    omega_i is the i-th fundamental weight in pi coordinates: it pairs
    delta_ik with the ordered factor coroots and lies in the span of the
    factor's simple roots, so it is row i of F^-1 times the restricted Cartan
    rows of the factor's nodes, F being the factor's Cartan matrix.
    D = det F makes every weight integral.
    """
    cart = rrd.restricted.cartan
    d, adj = int_inverse([[cart[s - 1][t - 1] for t in order] for s in order])
    if not d:
        raise StructureError(
            f"factor Cartan on restricted nodes {list(order)} is singular "
            f"(restricted Cartan {_rows_str(cart)})")
    cols = list(zip(*(cart[s - 1] for s in order)))
    return d, [tuple(vdot(row, col) for col in cols) for row in adj]


def ruzzi_witness(rrd, order, duals, closer) -> bool:
    """Whether ordered duals and a closer meet condition 3 on one Levi factor.

    For the duals y_1, ..., y_l of the factor's colors in path order `order`,
    a closer z and the factor's fundamental weights omega_i, condition 3 asks
    y_i - i / (l + 1) z = 2 omega_i.  `duals` and `closer` hold the integral
    halves y_i / 2 and z / 2, and both sides are scaled by (l + 1) D, with D
    from `_factor_fundamental_weights`.
    """
    d, weights = _factor_fundamental_weights(rrd, order)
    l1 = len(order) + 1
    return all(all(d * (l1 * y - i * z) == l1 * w for y, z, w in zip(ys, closer, ws))
               for i, (ys, ws) in enumerate(zip(duals, weights, strict=True), start=1))


def half_duals(prim) -> tuple[int, list[Ray]]:
    """(det P, [y_1 / 2, ..., y_m / 2]) for the doubled ray basis P = `prim`.

    The duals y_i of the half-coroot basis P / 2 satisfy y_i . p_j / 2 =
    delta_ij, so y_j / 2 is column j of P^-1.  When det P = +-1, that is
    det P times column j of the adjugate, an integer vector; the halves are
    meaningful only then.
    """
    d, adj = int_inverse(transpose(prim))
    return d, [tuple(d * x for x in row) for row in adj or ()]


def ruzzi_smooth(cc: ColoredCone, rrd) -> RuzziReport:
    """Smoothness of the simple embedding defined by a strictly convex cone.

    Condition 1 asks the Levi subsystem spanned by the selected colors to be
    a product of type-A factors fitting inside the rank; condition 2 asks the
    cone's primitive rays to form a basis of the half-coroot lattice;
    condition 3 asks for an indexing of the dual basis compatible with the
    factors' fundamental weights.  Conditions 2 and 3 share one integer
    inverse of the ray basis (`half_duals`), and a dual pairs with the color
    point e_i / 2 in entry i of its half.
    """
    m = rrd.restricted.rank
    detail: list[str] = []
    factors = levi_subsystem_factors(rrd, cc.colors)

    cond1 = True
    for comp in factors:
        if classify_component(rrd.restricted.cartan, [a - 1 for a in comp])[0] != "A":
            cond1 = False
            detail.append(f"Levi factor {comp} is not of type A")
    budget = sum(len(c) + 1 for c in factors)
    if budget > m:
        cond1 = False
        detail.append(f"sum of (rank+1) over Levi factors is {budget} > {m}")

    # a primitive ray r is also primitive in the half-coroot lattice's doubled
    # coordinates, since primitive(2 r) = r
    prim = extremal_rays(cc.cone)
    if len(prim) != m:
        cond2 = False
        detail.append(f"{len(prim)} extremal rays in rank {m}: "
                      "not a simplicial cone of full rank")
    else:
        d, duals = half_duals(prim)
        cond2 = abs(d) == 1
        if not cond2:
            detail.append(f"ray basis determinant {d} is not a unit")

    if cond2:
        cond3 = _ruzzi_condition3(rrd, prim, duals, factors, detail)
    else:
        cond3 = False
        detail.append("condition 3 unevaluated without a lattice basis")

    return RuzziReport(cond1 and cond2 and cond3, cond1, cond2, cond3, tuple(detail))


def _ruzzi_condition3(rrd, prim, duals, factors, detail) -> bool:
    """Match each selected color to the dual pairing 1 with it, then search the
    factors' path orders and closers for a `ruzzi_witness` on every factor."""
    for yi, y in enumerate(duals):
        for bj, p in enumerate(prim):
            if vdot(y, p) != int(yi == bj):
                raise StructureError(
                    f"dual basis construction failed for rays {_rows_str(prim)} "
                    f"(doubled) over restricted Cartan {_rows_str(rrd.restricted.cartan)}")

    selected = sorted(set().union(*factors)) if factors else []
    dual_for_color: dict[int, int] = {}
    for yi, y in enumerate(duals):
        hits = [col for col in selected if y[col - 1] != 0]
        if not hits:
            continue
        if len(hits) > 1 or y[hits[0] - 1] != 1:
            detail.append("a dual pairs incompatibly with the selected colors")
            return False
        if hits[0] in dual_for_color:
            detail.append("two duals pair with the same color")
            return False
        dual_for_color[hits[0]] = yi
    if len(dual_for_color) != len(selected):
        detail.append("some selected color has no dual pairing 1 with it")
        return False

    pool = [yi for yi in range(len(duals)) if yi not in dual_for_color.values()]
    if not _ruzzi_backtrack(rrd, factors, duals, dual_for_color, 0, pool):
        detail.append("no admissible indexing of the dual basis exists")
        return False
    return True


def _ruzzi_backtrack(rrd, factors, duals, dual_for_color, j, remaining) -> bool:
    """Whether factors j, j + 1, ... find path orders and distinct closers
    from `remaining` with a `ruzzi_witness` each.  A module function, not a
    closure, so that the search leaves no reference cycle holding `rrd`."""
    if j == len(factors):
        return True
    path = _order_path(rrd, factors[j])
    if path is None:
        return False
    orders = [path] if len(path) == 1 else [path, list(reversed(path))]
    for closer in remaining:
        for order in orders:
            ys = [duals[dual_for_color[col]] for col in order]
            if ruzzi_witness(rrd, order, ys, duals[closer]) and _ruzzi_backtrack(
                    rrd, factors, duals, dual_for_color, j + 1,
                    [x for x in remaining if x != closer]):
                return True
    return False


# ---------------------------------------------------------------------------
# Serialization

def fan_to_json_dict(fan: ColoredFan, space_label: str) -> dict:
    return {
        "space": space_label,
        "cones": [
            {"rays": [list(map(str, r)) for r in extremal_rays(c.cone)],
             "colors": sorted(c.colors)}
            for c in fan
        ],
    }


def poset_to_dot(poset: Poset, labels=None, name: str = "hasse") -> str:
    """DOT rendering of the Hasse diagram; edges run top (big orbit) down."""
    lines = [f"digraph {name} {{", "  rankdir=TB;", "  node [shape=box];"]
    for i, c in enumerate(poset.nodes):
        rays = ",".join("(" + ",".join(map(str, r)) + ")" for r in extremal_rays(c.cone))
        colors = ",".join(f"D{j}" for j in sorted(c.colors))
        base = f"dim {c.cone.dim()}; rays {rays or '0'}; colors {colors or '-'}"
        label = f"{labels[i]}\\n{base}" if labels else base
        lines.append(f'  n{i} [label="{label}"];')
    # covering pairs (i, j): i is a face of j, so orbit(i) contains orbit(j)
    for i, j in poset.covers:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines)
