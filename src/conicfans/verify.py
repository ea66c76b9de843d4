"""Named checks comparing computed objects against the golden tables.

The golden files serialize the reference data in fixtures.py; the checks here
recompute everything through the library pipeline and compare.  Each check
returns a named result so a failure points at the value that moved.
"""

from __future__ import annotations

import json
import os
import zlib
from fractions import Fraction as Q
from pathlib import Path

from . import chevalley, conicatlas, fixtures, lunavust, symdata
from .linalg import identity, primitive, qvec
from .rootcore import (ParabolicSubset, Record, StructureError,
                       build_root_datum, duality_involution, highest_root,
                       longest_element, weyl_apply)

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
        kind = fixtures.family_kind(series, rank)
        rtype = fixtures.SATAKE_EXPECTED[key]["restricted"]
        satake[label] = {
            "black": sorted(fixtures.expected_black(series, rank)),
            "arrows": [list(p) for p in fixtures.SATAKE_EXPECTED[key]["arrows"]],
            "restricted": rtype,
            "gsigma": [f"{s}{r}" for s, r in
                       sorted(fixtures.SATAKE_EXPECTED[key]["gsigma"](rank))],
            "lambda": {str(i): list(ws) for i, ws in
                       sorted(fixtures.expected_lambda_reps(series, rank).items())},
        }
        csyms, ccols = fixtures.CHOW_CONES[kind]
        chow[label] = {"rays": _sym_rays_numeric(rtype, csyms),
                       "colors": sorted(ccols)}
        hilb[label] = sorted(
            ({"rays": _sym_rays_numeric(rtype, syms), "colors": sorted(c)}
             for syms, c in fixtures.HILB_CONES[kind]),
            key=lambda d: (d["rays"], d["colors"]))
        planes[label] = fixtures.expected_planes(series, rank)
        cosets[label] = fixtures.expected_double_cosets(series, rank)
        colors[label] = [
            {"color": row["color"], "type": row["type"], "a": row["a"],
             "spherical": [row["spherical"].get(k, 0) for k in range(1, rank + 1)]}
            for row in fixtures.expected_colors(series, rank)]
        faces[label] = {
            scheme: {str(d): sorted(_sym_rays_numeric(rtype, syms)
                                    for syms in lst)
                     for d, lst in table[kind].items()}
            for scheme, table in (("chow", fixtures.CHOW_FACES),
                                  ("hilb", fixtures.HILB_FACES))}
        hasse[label] = _golden_hasse(kind, rtype)
        counts[label] = dict(fixtures.ORBIT_COUNTS[kind])
    return {"satake": satake, "gamma": gamma, "chow_cones": chow,
            "hilb_cones": hilb, "planes": planes, "cosets": cosets,
            "colors": colors, "faces": faces, "hasse": hasse,
            "orbitcounts": counts}


def _golden_hasse(kind: str, rtype: str) -> dict:
    out = {}
    for scheme in ("chow", "hilb"):
        labels = fixtures.ORBIT_LABELS[kind][scheme]
        nodes = sorted(
            ({"rays": _sym_rays_numeric(rtype, syms), "type": lab}
             for syms, lab in labels.items()),
            key=lambda d: (len(d["rays"]), d["rays"], d["type"]))
        entry = {"nodes": nodes}
        if scheme == "hilb":
            index = {tuple(map(tuple, n["rays"])): i for i, n in enumerate(nodes)}
            edges = sorted(
                [index[tuple(map(tuple, _sym_rays_numeric(rtype, a)))],
                 index[tuple(map(tuple, _sym_rays_numeric(rtype, b)))]]
                for a, b in fixtures.ORBIT_EDGES_HILB[kind])
            entry["edges"] = edges
        out[scheme] = entry
    return out


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
    v = rd.half_sum_positive
    out.append(_res(weyl_apply(rd, w0, weyl_apply(rd, w0, v)) == v,
                    f"rootcore.longest-element-involutive.{label}"))
    theta = duality_involution(rd)
    out.append(_res(all(theta[theta[i]] == i for i in theta),
                    f"rootcore.duality-involution.{label}"))
    return out


def symdata_checks(label: str, golden: dict) -> list[CheckResult]:
    series, rank = conicatlas.parse_label(label)
    sd = symdata.satake_of(series, rank)
    rrd = symdata.restricted_datum(sd)
    gold = golden["satake"][label]
    out = []
    out.append(_res(sorted(sd.black) == gold["black"],
                    f"symdata.satake-black.{label}",
                    f"{sorted(sd.black)} vs {gold['black']}"))
    out.append(_res([list(p) for p in sd.arrows] == gold["arrows"],
                    f"symdata.satake-arrows.{label}"))
    out.append(_res(rrd.restricted.label == gold["restricted"],
                    f"symdata.restricted-type.{label}",
                    f"{rrd.restricted.label} vs {gold['restricted']}"))
    gs = [f"{s}{r}" for s, r in symdata.g_fixed_subalgebra_components(series, rank)]
    out.append(_res(gs == gold["gsigma"], f"symdata.fixed-subalgebra.{label}",
                    f"{gs} vs {gold['gsigma']}"))
    lam = {str(i): list(rrd.reps_of(i))
           for i in range(1, rrd.restricted.rank + 1)}
    out.append(_res(lam == gold["lambda"], f"symdata.restriction-map.{label}"))

    m = rrd.restricted.rank
    a = rrd.restricted.cartan
    dual_ok = all(
        sum(a[i][k] * rrd.gamma[j][k] for k in range(m)) == (1 if i == j else 0)
        for i in range(m) for j in range(m))
    out.append(_res(dual_ok, f"symdata.gamma-duality.{label}"))
    gold_gamma = [[Q(x) for x in row] for row in golden["gamma"][gold["restricted"]]]
    out.append(_res([list(g) for g in rrd.gamma] == gold_gamma,
                    f"symdata.gamma-closed-form.{label}"))

    sig_ok = True
    e = identity(sd.base.rank)
    for i in range(sd.base.rank):
        v = symdata.sigma_on_characters(sd, e[i])
        if symdata.sigma_on_characters(sd, v) != tuple(e[i]):
            sig_ok = False
    out.append(_res(sig_ok, f"symdata.sigma-involution.{label}"))

    cols = symdata.color_table(rrd)
    gold_cols = golden["colors"][label]
    got = [{"color": c.index, "type": c.color_type, "a": c.a_coeff,
            "spherical": list(c.spherical_root)} for c in cols]
    out.append(_res(got == gold_cols, f"symdata.color-table.{label}",
                    f"{got} vs {gold_cols}"))
    return out


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
              for p in conicatlas.b_stable_planes(entry.ad)]
    out.append(_res(planes == golden["planes"][label],
                    f"conicatlas.planes.{label}",
                    f"{planes} vs {golden['planes'][label]}"))

    twisted = [sorted(frozenset(entry.theta_map[w] for w in rrd.reps_of(i)))
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
        try:
            rep = conicatlas.orbit_report(entry, scheme)
        except StructureError as exc:
            out.append(_res(False, f"conicatlas.orbit-labels.{scheme}.{label}", str(exc)))
            continue
        out.append(_res(True, f"conicatlas.orbit-labels.{scheme}.{label}"))
        got = _hasse_payload(rep)
        out.append(_res(got == golden["hasse"][label][scheme],
                        f"conicatlas.hasse.{scheme}.{label}"))

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
    for idx, fx in enumerate(fixtures.RUZZI_FIXTURES[entry.kind]):
        ok, why = _verify_ruzzi_fixture(rrd, fx)
        out.append(_res(ok, f"lunavust.ruzzi-fixture-{idx}.{label}", why))
    return out


def _verify_ruzzi_fixture(rrd, fx) -> tuple[bool, str]:
    cc = conicatlas.resolve_cone(rrd, fx["cone"], fx["colors"])
    prim = set(lunavust.extremal_rays(cc.cone))
    basis = [tuple(2 * Q(x) for x in b) for b in fx["basis"]]
    if {tuple(int(x) for x in b) for b in basis} != prim:
        return False, "reference basis differs from the primitive extremal rays"
    from .linalg import det
    if abs(det([list(map(Q, b)) for b in basis])) != 1:
        return False, "reference basis is not unimodular in the half-coroot lattice"
    duals = [y for grp in fx["groups"] for y in grp["duals"]]
    m = rrd.restricted.rank
    halves = [qvec(Q(x, 2) for x in b) for b in basis]
    perm_cols = []
    for y in duals:
        col = [sum(Q(y[k]) * h[k] for k in range(m)) for h in halves]
        if sorted(col) != [0] * (m - 1) + [1]:
            return False, "reference duals do not form a dual basis"
        perm_cols.append(col.index(1))
    if sorted(perm_cols) != list(range(m)):
        return False, "reference duals repeat a basis vector"
    all_colors = [c for grp in fx["groups"] for c in grp["factor"]]
    for grp in fx["groups"]:
        factor = list(grp["factor"])
        ys = grp["duals"]
        if factor and len(ys) != len(factor) + 1:
            return False, "factor group has the wrong number of duals"
        for i, y in enumerate(ys):
            for col in all_colors:
                eps = lunavust.color_point(rrd, col)
                val = sum(Q(y[k]) * eps[k] for k in range(m))
                want = 1 if (factor and i < len(factor) and factor[i] == col) else 0
                if val != want:
                    return False, f"pairing of a dual with color {col} is {val}, not {want}"
        if factor:
            fw = lunavust._factor_fundamental_weights(rrd, factor)
            l = len(factor)
            closer = ys[-1]
            for i in range(l):
                lhs = tuple(Q(ys[i][k]) - Q(i + 1, l + 1) * Q(closer[k])
                            for k in range(m))
                if lhs != tuple(2 * x for x in fw[i]):
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


def chevalley_checks(label: str, seed: int) -> list[CheckResult]:
    series, rank = conicatlas.parse_label(label)
    rd = build_root_datum(series, rank)
    out = []
    local_seed = seed + zlib.crc32(label.encode()) % 1000
    try:
        sc = chevalley.build_structure_constants(rd, verify="full")
        out.append(_res(True, f"chevalley.jacobi.{label}"))
    except StructureError as exc:
        return [_res(False, f"chevalley.jacobi.{label}", str(exc))]

    ad = conicatlas.adjoint_data(series, rank)
    rho = ad.rho
    import random
    rng = random.Random(local_seed)
    ok = True
    for _ in range(20):
        t = Q(rng.randint(-40, 40), rng.randint(1, 20))
        sample = chevalley.twistor_conic_sample(sc, rho, t)
        if not chevalley.is_extremal(sc, sample):
            ok = False
    out.append(_res(ok, f"chevalley.twistor-extremal.{label}"))

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
        rep = chevalley.contact_implication_check(sc, rho, ad.j0, 10_000, seed)
        out.append(_res(rep.clean and rep.cubic_zero_hits > 0,
                        f"chevalley.g2-implication.{label}",
                        "; ".join(rep.violations)))
    if label == "B3":
        wit = chevalley.find_cubic_zero_quadratic_nonzero(sc, rho, ad.j0)
        out.append(_res(wit is not None,
                        f"chevalley.b3-contact-witness.{label}",
                        "no nonplanar contact direction found"))
    return out


def checks_for_label(label: str, scope: str, golden: dict,
                     seed: int) -> list[CheckResult]:
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
        out.extend(chevalley_checks(label, seed))
    return out


def run_checks(scope: str = "all", max_rank: int = 8, seed: int = 0,
               golden: dict | None = None, jobs: int = 1) -> list[CheckResult]:
    if scope not in ("all", "rootcore", "symdata", "lunavust", "conicatlas",
                     "chevalley"):
        raise ValueError(f"unknown scope {scope!r}")
    golden = golden or load_golden()
    labels = fixtures.supported_labels(max_rank)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(labels))) as pool:
            futures = [pool.submit(checks_for_label, label, scope, golden, seed)
                       for label in labels]
            return [c for f in futures for c in f.result()]
    out = []
    for label in labels:
        out.extend(checks_for_label(label, scope, golden, seed))
    return out
