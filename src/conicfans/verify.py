"""Named checks comparing computed objects against the golden tables.

The golden files serialize the reference data in fixtures.py; the checks here
recompute everything through the library pipeline and compare.  Each check
returns a named result so a failure points at the value that moved.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction as Q
from pathlib import Path

from . import chevalley, conicatlas, fixtures, linalg, lunavust, symdata
from .linalg import identity, primitive
from .rootcore import (Record, StructureError, build_root_datum,
                       duality_involution, highest_root, longest_element,
                       subdatum, weyl_apply)

GOLDEN_ENV = "CONICFANS_GOLDEN"

GOLDEN_FILES = ("satake", "gamma", "chow_cones", "hilb_cones", "planes",
                "cosets", "colors", "faces", "hasse", "orbitcounts")


class CheckResult(Record):
    name: str
    ok: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def _res(ok, name, detail="") -> CheckResult:
    return CheckResult(name, bool(ok), "" if ok else detail)


# ---------------------------------------------------------------------------
# golden data

def golden_dir() -> Path:
    override = os.environ.get(GOLDEN_ENV)
    if override:
        return Path(override)
    return Path(__file__).with_name("golden")


def load_golden(path: Path | None = None) -> dict[str, dict]:
    base = path or golden_dir()
    out = {}
    for name in GOLDEN_FILES:
        with open(base / f"{name}.json", "r", encoding="utf-8") as fh:
            out[name] = json.load(fh)
    return out


def _sym_rays_numeric(rtype: str, symbols) -> list[list[int]]:
    """Resolve ray symbols through the closed-form dual basis and primitivize."""
    gammas = fixtures.gamma_closed_form(rtype)
    m = len(gammas)
    out = []
    for s in symbols:
        if s.startswith("-g"):
            v = [-x for x in gammas[int(s[2:]) - 1]]
        else:
            j = int(s[1:])
            v = [Q(1) if k == j - 1 else Q(0) for k in range(m)]
        out.append(list(primitive(v)))
    return sorted(out)


def golden_payload(max_rank: int = 8) -> dict[str, dict]:
    """Reference payload derived from the transcription tables only."""
    labels = fixtures.supported_labels(max_rank)
    satake, gamma, chow, hilb, planes = {}, {}, {}, {}, {}
    cosets, colors, faces, hasse, counts = {}, {}, {}, {}, {}
    for rtype in ("B3", "B4", "D4", "F4", "G2"):
        gamma[rtype] = [[str(x) for x in row] for row in fixtures.gamma_closed_form(rtype)]
    for label in labels:
        series, rank = conicatlas.parse_label(label)
        key = fixtures.family_key(series, rank)
        rtype = fixtures.family_kind(series, rank)
        satake[label] = {
            "black": sorted(fixtures.expected_black(series, rank)),
            "arrows": [list(p) for p in fixtures.SATAKE_EXPECTED[key]["arrows"]],
            "restricted": rtype,
            "gsigma": [f"{s}{r}" for s, r in
                       sorted(fixtures.SATAKE_EXPECTED[key]["gsigma"](rank))],
            "lambda": {str(i): list(ws) for i, ws in
                       sorted(fixtures.expected_lambda_reps(series, rank).items())},
        }
        hilb[label] = sorted(
            ({"rays": _sym_rays_numeric(rtype, syms), "colors": sorted(c)}
             for syms, c in fixtures.HILB_CONES[rtype]),
            key=lambda d: (d["rays"], d["colors"]))
        planes[label] = fixtures.expected_planes(series, rank)
        cosets[label] = fixtures.expected_double_cosets(series, rank)
        colors[label] = [
            {"color": row["color"], "type": row["type"], "a": row["a"],
             "spherical": [row["spherical"].get(k, 0) for k in range(1, rank + 1)]}
            for row in fixtures.expected_colors(series, rank)]
        chow[label], faces[label], counts[label], hasse[label] = _golden_orbits(rtype)
    return {"satake": satake, "gamma": gamma, "chow_cones": chow,
            "hilb_cones": hilb, "planes": planes, "cosets": cosets,
            "colors": colors, "faces": faces, "hasse": hasse,
            "orbitcounts": counts}


def _golden_orbits(rtype: str) -> tuple[dict, dict, dict, dict]:
    """The Chow cone, face lists, orbit counts and Hasse diagrams of one
    restricted type.

    All four are read off the keys of `fixtures.ORBIT_LABELS`: the orbits are
    the colored cones of the fan and the closure order is the face order, so
    the keys are the cones, with the l symbols for colors, and inclusion of
    keys is the face order.  The maximal keys are the closed orbits, and the
    faces are the other nonzero keys, grouped by the rank of their rays.
    """
    faces, counts, hasse = {}, {}, {}
    for scheme in ("chow", "hilb"):
        types = {frozenset(k): t for k, t in fixtures.ORBIT_LABELS[rtype][scheme].items()}
        rays = {k: _sym_rays_numeric(rtype, k) for k in types}
        keys = sorted(types, key=lambda k: (len(rays[k]), rays[k]))
        maximal = [k for k in keys if not any(k < o for o in keys)]
        if scheme == "chow":
            (top,) = maximal
            chow = {"rays": rays[top],
                    "colors": sorted(int(s[1:]) for s in top if s.startswith("l"))}
        by_dim: dict[str, list] = {}
        for k in keys:
            if k and k not in maximal:
                by_dim.setdefault(str(linalg.rank(rays[k])), []).append(rays[k])
        faces[scheme] = {d: sorted(v) for d, v in by_dim.items()}
        counts[scheme] = len(keys)
        hasse[scheme] = {"nodes": [{"rays": rays[k], "type": types[k]} for k in keys]}
        if scheme == "hilb":
            hasse[scheme]["edges"] = [
                [i, j] for i, a in enumerate(keys) for j, b in enumerate(keys)
                if a < b and not any(a < c < b for c in keys)]
    return chow, faces, counts, hasse


def write_golden(payload: dict, path: Path) -> None:
    path.mkdir(parents=True, exist_ok=True)
    for name in GOLDEN_FILES:
        with open(path / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(payload[name], fh, indent=1, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# per-label checks

def rootcore_checks(label: str) -> list[CheckResult]:
    series, rank = conicatlas.parse_label(label)
    rd = build_root_datum(series, rank)
    out = []
    out.append(_res(len(rd.positive_roots) * 2 == len(rd.roots),
                    f"rootcore.positive-half.{label}"))
    closure_ok = all(rd.is_root(rd.reflect(g, i))
                     for g in rd.roots for i in range(1, rd.rank + 1))
    out.append(_res(closure_ok, f"rootcore.reflection-closure.{label}"))
    rho = highest_root(rd)
    out.append(_res(all(all(rho[k] >= h[k] for k in range(rd.rank)) for h in rd.roots),
                    f"rootcore.highest-root-dominates.{label}"))
    k = rd.killing
    cartan_ok = all(2 * k[i][j] / k[j][j] == rd.cartan[i][j]
                    for i in range(rd.rank) for j in range(rd.rank))
    out.append(_res(cartan_ok, f"rootcore.killing-cartan.{label}"))
    bond_ok = all(rd.cartan[i][j] * rd.cartan[j][i] in (0, 1, 2, 3)
                  for i in range(rd.rank) for j in range(rd.rank) if i != j)
    out.append(_res(bond_ok, f"rootcore.bond-counts.{label}"))
    w0 = longest_element(rd)
    out.append(_res(len(w0.word) == len(rd.positive_roots),
                    f"rootcore.longest-element-length.{label}"))
    # 2 rho, the sum of the positive roots: integral, and w0 is linear
    two_rho = tuple(map(sum, zip(*rd.positive_roots)))
    out.append(_res(weyl_apply(rd, w0, weyl_apply(rd, w0, two_rho)) == two_rho,
                    f"rootcore.longest-element-involutive.{label}"))
    theta = duality_involution(rd)
    out.append(_res(all(theta[theta[i]] == i for i in theta),
                    f"rootcore.duality-involution.{label}"))
    return out


_SYMDATA_CHECKS = ("satake-black", "satake-arrows", "restricted-type",
                   "fixed-subalgebra", "restriction-map", "gamma-duality",
                   "gamma-closed-form", "sigma-involution", "color-table")


def _reference_sigma(rd, black, arrows) -> list[tuple[int, ...]]:
    """The involution of a tabulated Satake diagram on characters, as the
    images of the simple roots: minus the longest element of the black
    sub-diagram after the diagram permutation, which is the arrow matching on
    white nodes and the duality of the black sub-diagram on black nodes."""
    perm = {i: i for i in range(1, rd.rank + 1)}
    for a, b in arrows:
        perm[a], perm[b] = b, a
    w0 = ()
    if black:
        sub, mapping = subdatum(rd, black)
        back = {v: k for k, v in mapping.items()}
        theta = duality_involution(sub)
        w0 = tuple(back[i] for i in longest_element(sub).word)
        perm.update((b, back[theta[mapping[b]]]) for b in black)
    e = identity(rd.rank)
    return [tuple(-x for x in weyl_apply(rd, w0, e[perm[j] - 1]))
            for j in range(1, rd.rank + 1)]


def symdata_checks(label: str, golden: dict) -> list[CheckResult]:
    """The `_SYMDATA_CHECKS` of one label, in that order.  A StructureError
    fails every check it leaves undecided, with its text as the detail."""
    series, rank = conicatlas.parse_label(label)
    gold = golden["satake"][label]
    got, error = {}, ""

    def put(ok, name, detail=""):
        got[name] = _res(ok, f"symdata.{name}.{label}", detail)

    try:
        gs = [f"{s}{r}" for s, r in symdata.g_fixed_subalgebra_components(series, rank)]
        put(gs == gold["gsigma"], "fixed-subalgebra", f"{gs} vs {gold['gsigma']}")
        sd = symdata.satake_of(series, rank)
        put(sorted(sd.black) == gold["black"], "satake-black",
            f"{sorted(sd.black)} vs {gold['black']}")
        put([list(p) for p in sd.arrows] == gold["arrows"], "satake-arrows")
        nodes = set(gold["black"]).union(*gold["arrows"])
        if not nodes <= set(range(1, rank + 1)):
            put(False, "sigma-involution", f"golden nodes {sorted(nodes)} outside 1..{rank}")
        else:
            images = [symdata.sigma_on_characters(sd, v) for v in identity(rank)]
            want = _reference_sigma(sd.base, gold["black"], gold["arrows"])
            put(images == want, "sigma-involution", ", ".join(
                f"alpha{j} -> {list(g)} vs {list(w)}"
                for j, (g, w) in enumerate(zip(images, want), start=1) if g != w))

        rrd = symdata.restricted_datum(sd)
        put(rrd.restricted.label == gold["restricted"], "restricted-type",
            f"{rrd.restricted.label} vs {gold['restricted']}")
        lam = {str(i): list(rrd.reps_of(i))
               for i in range(1, rrd.restricted.rank + 1)}
        put(lam == gold["lambda"], "restriction-map")
        m = rrd.restricted.rank
        a = rrd.restricted.cartan
        put(all(sum(a[i][k] * rrd.gamma[j][k] for k in range(m)) == (1 if i == j else 0)
                for i in range(m) for j in range(m)), "gamma-duality")
        gold_gamma = [[Q(x) for x in row] for row in golden["gamma"][gold["restricted"]]]
        put([list(g) for g in rrd.gamma] == gold_gamma, "gamma-closed-form")

        colors = [{"color": c.index, "type": c.color_type, "a": c.a_coeff,
                   "spherical": list(c.spherical_root)} for c in symdata.color_table(rrd)]
        gold_cols = golden["colors"][label]
        put(colors == gold_cols, "color-table", f"{colors} vs {gold_cols}")
    except StructureError as exc:
        error = str(exc)
    return [got.get(name) or _res(False, f"symdata.{name}.{label}", error)
            for name in _SYMDATA_CHECKS]


def atlas_checks(label: str, golden: dict) -> list[CheckResult]:
    series, rank = conicatlas.parse_label(label)
    out = []
    try:
        entry = conicatlas.build_entry(label)
    except StructureError as exc:
        return [_res(False, f"conicatlas.entry-build.{label}", str(exc))]
    out.append(_res(True, f"conicatlas.entry-build.{label}"))
    rrd = entry.rrd

    out.append(_res(entry.ad.n == fixtures.expected_half_dimension(series, rank),
                    f"conicatlas.half-dimension.{label}"))
    out.append(_res(entry.ad.neighbors ==
                    fixtures.expected_line_stabilizer(series, rank),
                    f"conicatlas.line-stabilizer.{label}"))

    planes = [{"beta": p.beta, "in_z": p.in_z,
               "stabilizer": sorted(p.stabilizer.missing)}
              for p in entry.planes]
    out.append(_res(planes == golden["planes"][label],
                    f"conicatlas.planes.{label}",
                    f"{planes} vs {golden['planes'][label]}"))

    theta = duality_involution(entry.ad.g)
    twisted = [sorted(frozenset(theta[w] for w in rrd.reps_of(i)))
               for i in range(1, rrd.restricted.rank + 1)]
    expected_twist = [sorted(s) for s in
                      fixtures.expected_theta_twisted(series, rank)]
    out.append(_res(twisted == expected_twist,
                    f"conicatlas.isotropy-twist.{label}"))

    out.append(_res(entry.double_cosets == golden["cosets"][label],
                    f"conicatlas.double-cosets.{label}",
                    f"{entry.double_cosets} vs {golden['cosets'][label]}"))

    # fan tables
    def cone_payload(cc):
        return {"rays": sorted(list(r) for r in lunavust.extremal_rays(cc.cone)),
                "colors": sorted(cc.colors)}

    chow_max = lunavust.maximal_cones(entry.chow_fan, rrd)
    out.append(_res(len(chow_max) == 1, f"lunavust.chow-simple.{label}"))
    out.append(_res(cone_payload(chow_max[0]) == golden["chow_cones"][label],
                    f"conicatlas.chow-cone-table.{label}",
                    f"{cone_payload(chow_max[0])} vs {golden['chow_cones'][label]}"))
    hilb_max = sorted((cone_payload(c) for c in
                       lunavust.maximal_cones(entry.hilb_fan, rrd)),
                      key=lambda d: (d["rays"], d["colors"]))
    out.append(_res(hilb_max == golden["hilb_cones"][label],
                    f"conicatlas.hilb-cone-table.{label}"))
    exceptional = series in ("E", "F", "G")
    out.append(_res((len(hilb_max) == 1) == exceptional,
                    f"conicatlas.hilb-simple-iff-exceptional.{label}"))

    for scheme, fan in (("chow", entry.chow_fan), ("hilb", entry.hilb_fan)):
        check = lunavust.is_colored_fan(fan, rrd)
        out.append(_res(check.ok, f"lunavust.fan-axioms.{scheme}.{label}",
                        "; ".join(check.diagnostics)))
        strict = all(lunavust.is_pointed(c.cone) for c in fan)
        out.append(_res(strict, f"lunavust.strict-convexity.{scheme}.{label}"))
        out.append(_res(lunavust.is_complete(fan, rrd),
                        f"lunavust.completeness.{scheme}.{label}"))
        got_faces = _face_payload(entry, fan)
        out.append(_res(got_faces == golden["faces"][label][scheme],
                        f"lunavust.face-lists.{scheme}.{label}",
                        f"{got_faces} vs {golden['faces'][label][scheme]}"))
        counts = golden["orbitcounts"][label][scheme]
        out.append(_res(len(fan) == counts,
                        f"conicatlas.orbit-count.{scheme}.{label}",
                        f"{len(fan)} vs {counts}"))
    fans_equal = {c.key() for c in entry.chow_fan} == {c.key() for c in entry.hilb_fan}
    out.append(_res(fans_equal == (series == "G"),
                    f"conicatlas.fans-coincide-iff-g2.{label}"))

    for scheme in ("chow", "hilb"):
        labels = f"conicatlas.orbit-labels.{scheme}.{label}"
        try:
            got, detail = _hasse_payload(conicatlas.orbit_report(entry, scheme)), ""
            out.append(_res(True, labels))
        except StructureError as exc:
            got, detail = None, f"no orbit report, see {labels}"
            out.append(_res(False, labels, str(exc)))
        out.append(_res(got == golden["hasse"][label][scheme],
                        f"conicatlas.hasse.{scheme}.{label}", detail))

    out.extend(_ruzzi_checks(label, entry))
    out.extend(_anticanonical_checks(label, entry, golden))
    return out


def _face_payload(entry, fan) -> dict:
    rrd = entry.rrd
    maxkeys = {c.key() for c in lunavust.maximal_cones(fan, rrd)}
    by_dim: dict[str, list] = {}
    for c in fan:
        if not c.cone.generators or c.key() in maxkeys:
            continue
        d = str(c.cone.dim())
        by_dim.setdefault(d, []).append(
            sorted(list(r) for r in lunavust.extremal_rays(c.cone)))
    return {d: sorted(v) for d, v in by_dim.items()}


def _hasse_payload(rep) -> dict:
    nodes = []
    for i, c in enumerate(rep.poset.nodes):
        nodes.append({"rays": sorted(list(r) for r in lunavust.extremal_rays(c.cone)),
                      "type": rep.types[i]})
    order = sorted(range(len(nodes)),
                   key=lambda i: (len(nodes[i]["rays"]), nodes[i]["rays"],
                                  nodes[i]["type"]))
    rankmap = {old: new for new, old in enumerate(order)}
    payload = {"nodes": [nodes[i] for i in order]}
    if rep.scheme == "hilb":
        payload["edges"] = sorted([rankmap[i], rankmap[j]]
                                  for i, j in rep.poset.covers)
    return payload


def _ruzzi_checks(label: str, entry) -> list[CheckResult]:
    rrd = entry.rrd
    out = []
    hilb_max = lunavust.maximal_cones(entry.hilb_fan, rrd)
    reports = [lunavust.ruzzi_smooth(c, rrd) for c in hilb_max]
    out.append(_res(all(r.smooth for r in reports),
                    f"lunavust.ruzzi-hilb-smooth.{label}",
                    "; ".join(d for r in reports for d in r.detail)))
    chow_max = lunavust.maximal_cones(entry.chow_fan, rrd)[0]
    chow_rep = lunavust.ruzzi_smooth(chow_max, rrd)
    expected_smooth = entry.series == "G"
    out.append(_res(chow_rep.smooth == expected_smooth,
                    f"lunavust.ruzzi-chow.{label}",
                    f"smooth={chow_rep.smooth}, detail={chow_rep.detail}"))
    for idx, fx in enumerate(fixtures.RUZZI_FIXTURES[rrd.restricted.label]):
        ok, why = _verify_ruzzi_fixture(rrd, fx)
        out.append(_res(ok, f"lunavust.ruzzi-fixture-{idx}.{label}", why))
    return out


def _verify_ruzzi_fixture(rrd, fx) -> tuple[bool, str]:
    """A transcribed condition-3 witness, checked by `lunavust.ruzzi_witness`.

    Its duals are y_j in the doubled weight lattice: halving one must leave
    an integer vector, never a truncated one.
    """
    cc = conicatlas.resolve_cone(rrd, fx["cone"], fx["colors"])
    prim = lunavust.extremal_rays(cc.cone)
    if sorted(tuple(2 * Q(x) for x in b) for b in fx["basis"]) != sorted(prim):
        return False, "reference basis differs from the primitive extremal rays"
    d, halves = lunavust.half_duals(prim)
    if abs(d) != 1:
        return False, "reference basis is not unimodular in the half-coroot lattice"
    if any(Q(x) % 2 for grp in fx["groups"] for y in grp["duals"] for x in y):
        return False, "a reference dual is not twice an integer vector"
    groups = [(list(grp["factor"]), [tuple(int(x) // 2 for x in y) for y in grp["duals"]])
              for grp in fx["groups"]]
    if sorted(y for _, ys in groups for y in ys) != sorted(halves):
        return False, "reference duals do not form a dual basis"
    all_colors = [c for factor, _ in groups for c in factor]
    if not all(1 <= c <= rrd.restricted.rank for c in all_colors):
        return False, "a reference factor names no restricted color"
    for factor, ys in groups:
        if factor and len(ys) != len(factor) + 1:
            return False, "factor group has the wrong number of duals"
        for i, y in enumerate(ys):
            for col in all_colors:
                want = 1 if i < len(factor) and factor[i] == col else 0
                if y[col - 1] != want:
                    return False, f"pairing of a dual with color {col} is {y[col - 1]}, not {want}"
        if factor and not lunavust.ruzzi_witness(rrd, factor, ys[:-1], ys[-1]):
            return False, "dual-basis weight condition fails"
    return True, ""


def _anticanonical_checks(label: str, entry, golden) -> list[CheckResult]:
    rrd = entry.rrd
    out = []
    gold_cols = {row["color"]: row["a"] for row in golden["colors"][label]}
    for scheme, fan in (("chow", entry.chow_fan), ("hilb", entry.hilb_fan)):
        data = symdata.anticanonical_data(rrd, fan)
        coeffs = dict(data.color_coeffs)
        ok = coeffs == gold_cols
        rays_in_v = all(lunavust.in_valuation_cone(rrd, r) for r in data.stable_rays)
        out.append(_res(ok and rays_in_v,
                        f"symdata.anticanonical.{scheme}.{label}",
                        f"{coeffs} vs {gold_cols}"))
    return out


def chevalley_checks(label: str) -> list[CheckResult]:
    series, rank = conicatlas.parse_label(label)
    rd = build_root_datum(series, rank)
    out = []
    try:
        sc = chevalley.build_structure_constants(rd, verify="full")
        out.append(_res(True, f"chevalley.jacobi.{label}"))
    except StructureError as exc:
        return [_res(False, f"chevalley.jacobi.{label}", str(exc))]

    ad = conicatlas.adjoint_data(series, rank)
    rho = ad.rho
    # The sample at t = p/q is a binary quadratic form in (p : q) and never
    # zero (see `chevalley.twistor_conic_sample`).  It is extremal iff every
    # 2x2 minor of ([x, [x, b]], x) vanishes, over the basis vectors b, and
    # each minor is a binary form of degree 4 + 2 = 6.  A form of degree 6
    # that vanishes at 7 distinct points of P^1 vanishes identically, so
    # t = 0, ..., 6 prove that the whole conic lies in the adjoint variety.
    bad = next((t for t in range(7) if not chevalley.is_extremal(
        sc, chevalley.twistor_conic_sample(sc, rho, t))), None)
    out.append(_res(bad is None, f"chevalley.twistor-extremal.{label}",
                    f"the twistor sample at t = {bad} is not extremal"))

    mink = tuple(-1 if k == ad.j0 - 1 else 0 for k in range(rank))
    v_line = chevalley.LieElement.root_vector(rank, mink)
    cubic_line = chevalley.contact_cubic(sc, rho, ad.j0, v_line)
    quad_line = chevalley.contact_quadratic(sc, rho, v_line)
    out.append(_res(cubic_line.is_zero() and quad_line.is_zero(),
                    f"chevalley.line-direction.{label}"))

    witness_root = tuple(-a - r for a, r in zip(mink, rho))
    v_wit = chevalley.LieElement.make(rank, None, {mink: 1, witness_root: 1})
    out.append(_res(not chevalley.contact_cubic(sc, rho, ad.j0, v_wit).is_zero(),
                    f"chevalley.general-direction-witness.{label}"))

    dim_do = len(chevalley.contact_hyperplane_roots(rd, ad.j0))
    out.append(_res(dim_do == 2 * ad.n, f"chevalley.contact-dimension.{label}"))

    if label == "G2":
        # exact on the whole hyperplane: D q_i^2 = sum_j a_ij c_j
        cert, why = chevalley.contact_certificate(sc, rho, ad.j0)
        out.append(_res(cert is not None, f"chevalley.g2-implication.{label}", why))
    if label == "B3":
        wit = chevalley.find_cubic_zero_quadratic_nonzero(sc, rho, ad.j0)
        out.append(_res(wit is not None,
                        f"chevalley.b3-contact-witness.{label}",
                        "no nonplanar contact direction found"))
    return out


def checks_for_label(label: str, scope: str, golden: dict) -> list[CheckResult]:
    out = []
    if scope in ("all", "rootcore"):
        out.extend(rootcore_checks(label))
    if scope in ("all", "symdata", "lunavust", "conicatlas"):
        missing = [name for name in GOLDEN_FILES
                   if name != "gamma" and label not in golden[name]]
        if missing:
            out.append(_res(False, f"golden.missing.{label}",
                            f"no entry in {', '.join(missing)}"))
        else:
            if scope in ("all", "symdata"):
                out.extend(symdata_checks(label, golden))
            if scope in ("all", "lunavust", "conicatlas"):
                out.extend(atlas_checks(label, golden))
    if scope in ("all", "chevalley"):
        out.extend(chevalley_checks(label))
    return out


def run_checks(scope: str = "all", max_rank: int = 8, golden: dict | None = None,
               jobs: int = 1) -> list[CheckResult]:
    if scope not in ("all", "rootcore", "symdata", "lunavust", "conicatlas",
                     "chevalley"):
        raise ValueError(f"unknown scope {scope!r}")
    golden = golden or load_golden()
    labels = fixtures.supported_labels(max_rank)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(labels))) as pool:
            futures = [pool.submit(checks_for_label, label, scope, golden)
                       for label in labels]
            return [c for f in futures for c in f.result()]
    out = []
    for label in labels:
        out.extend(checks_for_label(label, scope, golden))
    return out
