"""Per-algebra pipeline: adjoint data, distinguished planes, colored fans of
the two conic compactifications, orbit posets with conic-type labels, and
double-coset counts.

Cone tables enter as data and are then validated against everything the
machinery can derive: fan axioms, completeness, isotropy equations, face
lists, and the orbit-type cross-checks.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q
from functools import lru_cache

from . import fixtures
from .linalg import identity, qvec
from .lunavust import (ColoredCone, ColoredFan, Poset, QCone, color_point,
                       colored_faces, cone_contains, extremal_rays, is_colored_cone,
                       is_colored_fan, is_complete, maximal_cones, orbit_poset,
                       valuation_cone)
from .rootcore import (InvalidTypeError, ParabolicSubset, Record, RootDatum,
                       StructureError, UnsupportedAlgebraError,
                       build_root_datum, double_coset_count,
                       duality_involution, highest_root, parabolic_intersection,
                       subdatum)
from .symdata import (RestrictedRootDatum, SatakeDiagram, contact_node,
                      restricted_datum, satake_of, supported_pair)

_LABEL_RE = re.compile(r"^([A-G])(\d+)$")


def parse_label(label: str) -> tuple[str, int]:
    m = _LABEL_RE.match(label.strip())
    if not m:
        raise InvalidTypeError(f"cannot parse algebra label {label!r}")
    return m.group(1), int(m.group(2))


class AdjointData(Record):
    series: str
    rank: int
    g: RootDatum
    rho: tuple[int, ...]
    j0: int
    n: int
    neighbors: frozenset[int]
    pss: RootDatum
    pss_map: tuple[tuple[int, int], ...]   # ambient node -> node of pss
    q_crossed: ParabolicSubset             # crossed nodes of Q inside pss


@lru_cache(maxsize=None)
def adjoint_data(series: str, rank: int) -> AdjointData:
    series, rank = supported_pair(series, rank)
    g = build_root_datum(series, rank)
    rho = highest_root(g)
    e = identity(g.rank)
    j0 = contact_node(g, rho)
    if not g.is_long(e[j0 - 1]):
        raise StructureError("contact node is not long")
    rho_norm = g.killing_int(rho, rho)
    grade_counts: dict[int, int] = {}
    for a in g.roots:
        grade = a[j0 - 1]
        if 2 * g.killing_int(a, rho) != grade * rho_norm or grade not in (-2, -1, 0, 1, 2):
            raise StructureError("grading by the contact node disagrees with pairing")
        grade_counts[grade] = grade_counts.get(grade, 0) + 1
    if grade_counts.get(2, 0) != 1 or grade_counts.get(-2, 0) != 1:
        raise StructureError("contact grading must have one-dimensional ends")
    if grade_counts.get(-1, 0) % 2:
        raise StructureError("contact hyperplane is odd dimensional")
    n = grade_counts[-1] // 2
    below = tuple(r - (1 if k == j0 - 1 else 0) for k, r in enumerate(rho))
    for a in g.roots:
        if a != rho and not all(b - x >= 0 for b, x in zip(below, a)):
            raise StructureError(
                "the root below the highest one must dominate everything else")
    neighbors = frozenset(i for i in range(1, g.rank + 1)
                          if i != j0 and g.cartan[j0 - 1][i - 1] != 0)
    keep = [i for i in range(1, g.rank + 1) if i != j0]
    pss, mapping = subdatum(g, keep)
    q = ParabolicSubset(frozenset(mapping[i] for i in neighbors))
    return AdjointData(series, rank, g, rho, j0, n, neighbors, pss,
                       tuple(sorted(mapping.items())), q)


def line_stabilizer(ad: AdjointData) -> ParabolicSubset:
    return ParabolicSubset(ad.neighbors)


class BStablePlane(Record):
    beta: int
    long: bool
    stabilizer: ParabolicSubset
    in_z: bool


def b_stable_planes(ad: AdjointData) -> tuple[BStablePlane, ...]:
    g = ad.g
    e = identity(g.rank)
    out = []
    for beta in sorted(ad.neighbors):
        long = g.is_long(e[beta - 1])
        nb = frozenset(i for i in range(1, g.rank + 1)
                       if i != beta and g.cartan[beta - 1][i - 1] != 0)
        if long:
            missing = (ad.neighbors | nb) - {ad.j0, beta}
        else:
            missing = (ad.neighbors | nb) - {ad.j0}
        _check_plane_stabilizer(ad, beta, missing)
        out.append(BStablePlane(beta, long, ParabolicSubset(frozenset(missing)), long))
    return tuple(out)


def _check_plane_stabilizer(ad: AdjointData, beta: int, missing) -> None:
    """Independent characterization through root membership."""
    g = ad.g
    base = tuple(r - (1 if k == ad.j0 - 1 else 0) for k, r in enumerate(ad.rho))
    alt = set()
    for i in range(1, g.rank + 1):
        drop = tuple(b - (1 if k == i - 1 else 0) for k, b in enumerate(base))
        drop2 = tuple(b - (1 if k == i - 1 else 0) - (1 if k == beta - 1 else 0)
                      for k, b in enumerate(base))
        if (g.is_root(drop) and i != beta) or g.is_root(drop2):
            alt.add(i)
    if alt != set(missing):
        raise StructureError(
            f"plane stabilizer mismatch for beta={beta}: {sorted(alt)} vs {sorted(missing)}")


def solve_colors(rrd: RestrictedRootDatum, stabilizer_lists, target: ParabolicSubset,
                 theta: dict[int, int]) -> frozenset[int]:
    """Colors F with union over i outside F of theta(I_i) equal to the target.

    stabilizer_lists maps color index to the crossed set I_i of its
    stabilizer; i is selected exactly when its twisted set escapes the target.
    The exact-equality check makes a transcription bug loud.
    """
    twisted = {i: frozenset(theta[w] for w in ws)
               for i, ws in stabilizer_lists.items()}
    f = frozenset(i for i, tw in twisted.items() if not tw <= target.missing)
    union: frozenset[int] = frozenset()
    for i, tw in twisted.items():
        if i not in f:
            union |= tw
    if union != target.missing:
        raise StructureError(
            f"isotropy equation unsolvable: union {sorted(union)} "
            f"differs from target {sorted(target.missing)}")
    return f


def resolve_ray(rrd: RestrictedRootDatum, symbol: str):
    m = rrd.restricted.rank
    if symbol.startswith("-g"):
        j = int(symbol[2:])
        return qvec(-x for x in rrd.gamma[j - 1])
    if symbol.startswith("l"):
        j = int(symbol[1:])
        return qvec(Q(1) if k == j - 1 else 0 for k in range(m))
    raise ValueError(f"unknown ray symbol {symbol!r}")


def resolve_cone(rrd: RestrictedRootDatum, symbols, colors) -> ColoredCone:
    return ColoredCone(QCone.of([resolve_ray(rrd, s) for s in symbols]),
                       frozenset(colors))


def fan_with_faces(rrd: RestrictedRootDatum, maximal) -> ColoredFan:
    cones = []
    for cc in maximal:
        cones.append(cc)
        cones.extend(colored_faces(cc, rrd))
    return ColoredFan.of(cones)


class ConicAtlasEntry(Record):
    label: str
    series: str
    rank: int
    kind: str
    ad: AdjointData
    sd: SatakeDiagram
    rrd: RestrictedRootDatum
    theta: tuple[tuple[int, int], ...]
    chow_colors: frozenset[int]
    chow_fan: ColoredFan
    hilb_colors: tuple[frozenset[int], ...]
    hilb_fan: ColoredFan
    double_cosets: int

    @property
    def theta_map(self) -> dict[int, int]:
        return dict(self.theta)


@lru_cache(maxsize=None)
def build_entry(label: str) -> ConicAtlasEntry:
    """The atlas entry of one label; a StructureError on the way names the label.

    The cone layer names the rows, rays or restricted Cartan matrix it was
    working on, but does not know the label, so it is added here.
    """
    try:
        return _build_entry(label)
    except StructureError as exc:
        if str(exc).startswith(f"{label}: "):
            raise
        raise StructureError(f"{label}: {exc}") from exc


def _build_entry(label: str) -> ConicAtlasEntry:
    series, rank = parse_label(label)
    series, rank = supported_pair(series, rank)
    kind = fixtures.family_kind(series, rank)
    ad = adjoint_data(series, rank)
    sd = satake_of(series, rank)
    rrd = restricted_datum(sd)
    theta = duality_involution(ad.g)
    stab_lists = {i: rrd.reps_of(i) for i in range(1, rrd.restricted.rank + 1)}

    chow_colors = solve_colors(rrd, stab_lists, line_stabilizer(ad), theta)
    chow_max = ColoredCone(
        QCone.of([color_point(rrd, i) for i in sorted(chow_colors)]
                 + list(valuation_cone(rrd).generators)),
        chow_colors)
    check = is_colored_cone(chow_max, rrd)
    if not check:
        raise StructureError(f"transverse-family cone invalid: {check.diagnostics}")
    chow_fan = fan_with_faces(rrd, [chow_max])

    planes = b_stable_planes(ad)
    targets = fixtures.hilb_isotropy_targets(series, rank)
    derived_targets = _closed_orbit_targets(ad, planes)
    if derived_targets != [frozenset(t) for t in targets]:
        raise StructureError("closed-orbit isotropy table mismatch")
    hilb_specs = fixtures.HILB_CONES[kind]
    if len(hilb_specs) != len(targets):
        raise StructureError("one maximal cone per distinguished plane expected")
    hilb_cones = []
    hilb_colors = []
    for (symbols, spec_colors), target in zip(hilb_specs, targets):
        f = solve_colors(rrd, stab_lists, ParabolicSubset(target), theta)
        if f != frozenset(spec_colors):
            raise StructureError(
                f"colors from the isotropy equation {sorted(f)} differ "
                f"from the table {sorted(spec_colors)}")
        cc = resolve_cone(rrd, symbols, f)
        check = is_colored_cone(cc, rrd)
        if not check:
            raise StructureError(f"tabulated cone invalid: {check.diagnostics}")
        hilb_cones.append(cc)
        hilb_colors.append(f)
    hilb_fan = fan_with_faces(rrd, hilb_cones)
    fan_check = is_colored_fan(hilb_fan, rrd)
    if not fan_check:
        raise StructureError(f"fan axioms fail: {fan_check.diagnostics}")

    count = double_coset_count(ad.pss, ad.q_crossed)
    return ConicAtlasEntry(label, series, rank, kind, ad, sd, rrd,
                           tuple(sorted(theta.items())), chow_colors, chow_fan,
                           tuple(hilb_colors), hilb_fan, count)


def _closed_orbit_targets(ad: AdjointData, planes) -> list[frozenset[int]]:
    line = line_stabilizer(ad)
    return [parabolic_intersection(line, p.stabilizer).missing for p in planes]


def reducible_divisor_ray(entry: ConicAtlasEntry):
    return resolve_ray(entry.rrd, fixtures.REDUCIBLE_RAY[entry.kind])


# ---------------------------------------------------------------------------
# labeled orbit structure

class OrbitReport(Record):
    label: str
    scheme: str
    poset: Poset
    types: tuple[str, ...]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for t in self.types:
            out[t] = out.get(t, 0) + 1
        return out


@lru_cache(maxsize=None)
def _symbol_key_map(entry: ConicAtlasEntry, scheme: str) -> dict:
    """{extremal rays of the orbit cone: (symbols, label)}, read-only.

    It depends on the entry and the scheme alone, so every `orbit_report`
    on them shares one map.
    """
    table = fixtures.ORBIT_LABELS[entry.kind][scheme]
    out = {}
    for symbols, label in table.items():
        cone = QCone.of([resolve_ray(entry.rrd, s) for s in symbols])
        out[extremal_rays(cone)] = (symbols, label)
    if len(out) != len(table):
        raise StructureError("orbit label table has colliding cones")
    return out


def orbit_report(entry: ConicAtlasEntry, scheme: str) -> OrbitReport:
    """Labeled Hasse diagram with the derived consistency checks applied."""
    if scheme not in ("chow", "hilb"):
        raise ValueError("scheme must be chow or hilb")
    rrd = entry.rrd
    fan = entry.chow_fan if scheme == "chow" else entry.hilb_fan
    poset = orbit_poset(fan, rrd)
    keymap = _symbol_key_map(entry, scheme)
    types = []
    symbols = []
    for c in poset.nodes:
        k = extremal_rays(c.cone)
        if k not in keymap:
            raise StructureError(f"{entry.label}/{scheme}: unlabeled orbit cone {k}")
        sym, lab = keymap[k]
        types.append(lab)
        symbols.append(sym)
    if len({s for s in symbols}) != len(symbols):
        raise StructureError("duplicate orbit labels")

    _check_labels(entry, scheme, poset, types)
    if scheme == "hilb":
        expected = {(a, b) for a, b in fixtures.ORBIT_EDGES_HILB[entry.kind]}
        got = {(symbols[i], symbols[j]) for i, j in poset.covers}
        if got != expected:
            raise StructureError(
                f"{entry.label}: closure diagram differs from the reference "
                f"(extra {sorted(got - expected)}, missing {sorted(expected - got)})")
    return OrbitReport(entry.label, scheme, poset, tuple(types))


def _check_labels(entry, scheme, poset, types) -> None:
    rrd = entry.rrd
    ray_red = reducible_divisor_ray(entry)
    fan = entry.chow_fan if scheme == "chow" else entry.hilb_fan
    maxcones = maximal_cones(fan, rrd)
    maxkeys = {c.key() for c in maxcones}
    closed_allowed = {"PD", "NPD"} if scheme == "hilb" else {"DL", "NPD"}
    for i, c in enumerate(poset.nodes):
        t = types[i]
        if (t == "Twistor") != (not c.cone.generators):
            raise StructureError("open orbit must be the zero cone and vice versa")
        if c.key() in maxkeys and t not in closed_allowed:
            raise StructureError(f"closed orbit carries label {t}")
        if t in ("PD", "DL") and c.key() not in maxkeys:
            raise StructureError(f"label {t} on a non-closed orbit")
        reducible_family = t in ("NPR", "PR", "NPD", "PD", "DL")
        contains = bool(c.cone.generators) and cone_contains(c.cone, ray_red)
        if t != "Twistor" and reducible_family != contains:
            raise StructureError(
                f"label {t} conflicts with reducible-ray membership")
        if t == "PR":
            hosts = [m for m in maxcones
                     if all(cone_contains(m.cone, r)
                            for r in extremal_rays(c.cone))]
            if not any(m.cone.dim() == c.cone.dim() + 1 for m in hosts):
                raise StructureError(
                    "planar reducible orbits must be codimension one in a maximal cone")
    counts: dict[str, int] = {}
    for t in types:
        counts[t] = counts.get(t, 0) + 1
    if counts != fixtures.expected_type_multiset(entry.kind, scheme):
        raise StructureError(f"type multiset {counts} differs from the reference")
    planes = b_stable_planes(entry.ad)
    if len(maxcones) != (len(planes) if scheme == "hilb" else 1):
        raise StructureError("wrong number of closed orbits")
    if scheme == "hilb":
        planar = sum(1 for p in planes if p.in_z)
        if counts.get("PD", 0) != planar:
            raise StructureError(
                "planar double-line orbits must match the planes inside the variety")
    reducible_classes = counts.get("NPR", 0) + counts.get("PR", 0)
    if reducible_classes + 1 != entry.double_cosets:
        raise StructureError(
            "reducible-conic classes must be one less than the double cosets")

