"""Per-algebra pipeline on the adjoint data of `symdata`: distinguished
planes, colored fans of the two conic compactifications, orbit posets with
conic-type labels, and double-coset counts.

Only the rays of the Hilbert cones (`fixtures.HILB_CONES`, keyed by the
restricted type) enter as data.  The Chow cone, the colors of every cone,
the reducible ray, the planar generators and the conic type of every orbit
are derived, and the result is validated against fan axioms, completeness,
face lists and the orbit-type invariants of `_check_labels`.

`build_entry` caches one entry per label (a `label_cache`), shared by the
checks and exports of that label, until `verify` releases it at the end of
the label's checks.
"""

from __future__ import annotations

from . import fixtures
from .linalg import identity
from .lunavust import (ColoredCone, ColoredFan, Poset, QCone, color_point,
                       colored_faces, cone_contains, extremal_rays, is_colored_cone,
                       is_colored_fan, maximal_cones, neg_gamma_rays, orbit_poset,
                       valuation_cone)
from .rootcore import (ParabolicSubset, Record, StructureError, double_coset_count,
                       duality_involution, highest_root, label_cache,
                       parabolic_intersection)
from .symdata import (AdjointData, RestrictedRootDatum, adjoint_data, contact_node,
                      parse_label, restricted_datum, satake_of, supported_pair)


def line_stabilizer(ad: AdjointData) -> ParabolicSubset:
    return ParabolicSubset(ad.neighbors)


class BStablePlane(Record):
    beta: int
    stabilizer: ParabolicSubset
    in_z: bool            # the plane lies in the variety: beta is long


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
        out.append(BStablePlane(beta, ParabolicSubset(frozenset(missing)), long))
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


def resolve_ray(rrd: RestrictedRootDatum, symbol: str) -> tuple[int, ...]:
    """The primitive integer ray of a table symbol: -g<j> is -gamma_j, l<j> is e_j."""
    if symbol.startswith("-g"):
        return neg_gamma_rays(rrd.restricted.cartan)[int(symbol[2:]) - 1]
    if symbol.startswith("l"):
        return color_point(rrd, int(symbol[1:]))
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
    ad: AdjointData
    planes: tuple[BStablePlane, ...]
    rrd: RestrictedRootDatum
    chow_fan: ColoredFan
    hilb_cones: tuple[ColoredCone, ...]     # the closed Hilbert cone of each plane
    hilb_fan: ColoredFan
    double_cosets: int


def _naming(label: str, work, *args):
    """work(*args), with the label put before a StructureError that lacks it.

    The cone layer names the rows, rays or restricted Cartan matrix it was
    working on, but does not know the label, so it is added here.
    """
    try:
        return work(*args)
    except StructureError as exc:
        if str(exc).startswith(f"{label}: "):
            raise
        raise StructureError(f"{label}: {exc}") from exc


@label_cache
def build_entry(label: str) -> ConicAtlasEntry:
    """The atlas entry of one label; a StructureError on the way names the label."""
    return _naming(label, _build_entry, label)


def _build_entry(label: str) -> ConicAtlasEntry:
    series, rank = parse_label(label)
    series, rank = supported_pair(series, rank)
    ad = adjoint_data(series, rank)
    rrd = restricted_datum(satake_of(series, rank))
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
    targets = _closed_orbit_targets(ad, planes)
    rtype = rrd.restricted.label
    hilb_specs = fixtures.HILB_CONES.get(rtype, ())
    if len(hilb_specs) != len(targets):
        raise StructureError(f"{len(hilb_specs)} Hilbert cones tabulated for the "
                             f"restricted type {rtype}, one per distinguished plane "
                             "expected")
    hilb_cones = []
    for (symbols, _), target in zip(hilb_specs, targets):
        f = solve_colors(rrd, stab_lists, ParabolicSubset(target), theta)
        cc = resolve_cone(rrd, symbols, f)
        check = is_colored_cone(cc, rrd)
        if not check:
            raise StructureError(f"tabulated cone invalid: {check.diagnostics}")
        hilb_cones.append(cc)
    hilb_fan = fan_with_faces(rrd, hilb_cones)
    fan_check = is_colored_fan(hilb_fan, rrd)
    if not fan_check:
        raise StructureError(f"fan axioms fail: {fan_check.diagnostics}")

    count = double_coset_count(ad.pss, ad.q_crossed)
    return ConicAtlasEntry(label, series, rank, ad, planes, rrd, chow_fan,
                           tuple(hilb_cones), hilb_fan, count)


def _closed_orbit_targets(ad: AdjointData, planes) -> list[frozenset[int]]:
    line = line_stabilizer(ad)
    return [parabolic_intersection(line, p.stabilizer).missing for p in planes]


def reducible_node(rrd: RestrictedRootDatum) -> int:
    """r of the reducible divisor's ray -gamma_r and of the double-line color l_r.

    r is the contact node of the restricted root system R, the one simple
    root of R that meets its highest root; the rule reads R alone.  On the
    five restricted systems (B3, B4, D4, F4, G2) it gives r = 4 for F4 and
    r = 2 otherwise, and the checks `conicatlas.hasse.*` and
    `conicatlas.orbit-labels.*` pin it.
    """
    r = rrd.restricted
    return contact_node(r, highest_root(r))


def reducible_divisor_ray(entry: ConicAtlasEntry):
    return neg_gamma_rays(entry.rrd.restricted.cartan)[reducible_node(entry.rrd) - 1]


# ---------------------------------------------------------------------------
# labeled orbit structure

class OrbitReport(Record):
    label: str
    scheme: str
    poset: Poset
    types: tuple[str, ...]


def orbit_report(entry: ConicAtlasEntry, scheme: str) -> OrbitReport:
    """Labeled Hasse diagram with the derived consistency checks applied.

    A StructureError from the labels or their checks names the label.
    """
    if scheme not in ("chow", "hilb"):
        raise ValueError("scheme must be chow or hilb")
    return _naming(entry.label, _orbit_report, entry, scheme)


def _orbit_report(entry: ConicAtlasEntry, scheme: str) -> OrbitReport:
    fan = entry.chow_fan if scheme == "chow" else entry.hilb_fan
    poset = orbit_poset(fan, entry.rrd)
    maxcones = maximal_cones(fan, entry.rrd)
    maxkeys = {c.key() for c in maxcones}
    types = tuple(_conic_type(entry, scheme, c.cone, c.key() in maxkeys)
                  for c in poset.nodes)
    _check_labels(entry, scheme, poset, types, maxcones)
    return OrbitReport(entry.label, scheme, poset, types)


def _conic_type(entry: ConicAtlasEntry, scheme: str, cone: QCone, closed: bool) -> str:
    """The conic type of the orbit whose colored cone is sigma, by rule.

    sigma = 0 is the open orbit, Twistor.  On the Chow side a maximal sigma,
    a closed orbit, is DL, unless the two fans are equal (G2 alone).  Any
    other type is a prefix and a suffix.  The suffix is D if sigma contains
    the color point l_r, where r is the `reducible_node`; else R if
    sigma contains -g_r, and C if it does not.  The prefix is P if sigma
    contains a planar generator, and NP if not: the generator of a plane with
    `in_z` is its closed Hilbert cone without the rays -g_r and l_r.
    """
    if not cone.generators:
        return "Twistor"
    if scheme == "chow" and closed and entry.chow_fan != entry.hilb_fan:
        return "DL"
    red = reducible_divisor_ray(entry)
    color = color_point(entry.rrd, reducible_node(entry.rrd))
    if cone_contains(cone, color):
        suffix = "D"
    elif cone_contains(cone, red):
        suffix = "R"
    else:
        suffix = "C"
    planar = any(all(cone_contains(cone, v) for v in cc.cone.generators if v not in (red, color))
                 for p, cc in zip(entry.planes, entry.hilb_cones) if p.in_z)
    return ("P" if planar else "NP") + suffix


def _check_labels(entry, scheme, poset, types, maxcones) -> None:
    """The invariants of the conic types that `_conic_type` does not decide."""
    ray_red = reducible_divisor_ray(entry)
    maxkeys = {c.key() for c in maxcones}
    closed_allowed = {"PD", "NPD"} if scheme == "hilb" else {"DL", "NPD"}
    for i, c in enumerate(poset.nodes):
        t = types[i]
        if c.key() in maxkeys and t not in closed_allowed:
            raise StructureError(f"closed orbit carries label {t}")
        if t in ("PD", "DL") and c.key() not in maxkeys:
            raise StructureError(f"label {t} on a non-closed orbit")
        if (t in ("NPR", "PR", "NPD", "PD", "DL")
                and not cone_contains(c.cone, ray_red)):
            raise StructureError(
                f"label {t} conflicts with reducible-ray membership")
        if t == "PR":
            hosts = [m for m in maxcones
                     if all(cone_contains(m.cone, r)
                            for r in extremal_rays(c.cone))]
            if not any(m.cone.dim() == c.cone.dim() + 1 for m in hosts):
                raise StructureError(
                    "planar reducible orbits must be codimension one in a maximal cone")
    planes = entry.planes
    if len(maxcones) != (len(planes) if scheme == "hilb" else 1):
        raise StructureError("wrong number of closed orbits")
    if scheme == "hilb":
        planar = sum(1 for p in planes if p.in_z)
        if types.count("PD") != planar:
            raise StructureError(
                "planar double-line orbits must match the planes inside the variety")
    reducible_classes = types.count("NPR") + types.count("PR")
    if reducible_classes + 1 != entry.double_cosets:
        raise StructureError(
            "reducible-conic classes must be one less than the double cosets")

