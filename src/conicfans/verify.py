"""Named checks comparing computed objects against the golden tables.

The golden files serialize the reference data in fixtures.py; the checks here
recompute everything through the library pipeline and compare.  Each check
returns a named result so a failure points at the value that moved.  One
rule decides every line (`_decide`): each layer declares its lines in order,
and a StructureError fails exactly the lines it leaves undecided, with its
text as the detail; the lines decided before it keep their verdict.
`write_golden` reports, per file, whether the bless changed its bytes.

Two rules keep a command's start-up to what it runs:

- Each layer is imported inside the functions that run it; the module level
  holds only `rootcore` and `linalg`.  Loading the golden files compiles no
  other layer, and `verify rootcore` never compiles the cone layer or the
  Chevalley constants.  `run_checks` imports the layers of its scope before
  the first label, so the workers that `--jobs` forks inherit them.
- Each layer owns its label-keyed caches: they are `rootcore.label_cache`s,
  registered where they are defined, and `rootcore.release_label_caches`
  empties them when a label's checks end.  The release imports no layer, and
  it holds the cache objects themselves, so a module name rebound to a
  wrapper without `cache_clear` (perfbench/tracer.py rebinds them) leaves its
  cache reachable.
"""

from __future__ import annotations

import gc
import json
import os
from fractions import Fraction as Q
from pathlib import Path

from . import linalg
from .linalg import identity, primitive
from .rootcore import (Record, StructureError, build_root_datum,
                       duality_involution, highest_root, longest_element,
                       release_label_caches, subdatum, weyl_apply)

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


def _same(put, got, want, name: str) -> None:
    """Decide the line `name` by got == want, with `got vs want` as its detail."""
    ok = got == want
    put(ok, name, "" if ok else f"{got} vs {want}")


# ---------------------------------------------------------------------------
# golden data

def golden_dir() -> Path:
    override = os.environ.get(GOLDEN_ENV)
    if override:
        return Path(override)
    return Path(__file__).with_name("golden")


_GOLDEN_KEYS = {"satake": {"gsigma", "black", "arrows", "restricted", "lambda"},
                "colors": {"color", "a"}, "faces": {"chow", "hilb"},
                "hasse": {"chow", "hilb"}, "orbitcounts": {"chow", "hilb"}}


def load_golden(path: Path | None = None) -> dict[str, dict]:
    """The golden files under `path` (default `golden_dir()`), by name, in the shape
    the checks index unguarded: each file a JSON object, each label's entry (each row,
    in colors) with the keys of `_GOLDEN_KEYS`, each satake restricted type a key of
    gamma; else a ValueError names the file, the label and the key."""
    base = path or golden_dir()
    out = {}
    # satake last, for its restricted types are keys of gamma
    for name in sorted(GOLDEN_FILES, key=lambda name: name == "satake"):
        file = base / f"{name}.json"
        try:
            with open(file, "r", encoding="utf-8") as fh:
                out[name] = data = json.load(fh)   # not JSON, or not UTF-8: a ValueError
            if not isinstance(data, dict):
                raise ValueError("not a JSON object")
            for label, entry in data.items():
                rows = entry if name == "colors" else [entry]
                lacking = {key for row in (rows if isinstance(rows, list) else [None])
                           for key in _GOLDEN_KEYS.get(name, ())
                           if not isinstance(row, dict) or key not in row}
                if lacking:
                    raise ValueError(f"the entry {label} has no {sorted(lacking)}")
                if name == "satake" and not (isinstance(entry["restricted"], str)
                                             and entry["restricted"] in out["gamma"]):
                    raise ValueError(f"the entry {label} has a restricted type, "
                                     f"{entry['restricted']!r}, that gamma.json has not")
        except OSError as exc:
            raise ValueError(f"{file}: {exc.strerror or exc}") from None
        except ValueError as exc:
            raise ValueError(f"{file}: {exc}") from None
    return out


def _sym_rays_numeric(rtype: str, symbols) -> list[list[int]]:
    """Resolve ray symbols through the closed-form dual basis and primitivize."""
    from . import fixtures
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
    from . import fixtures
    from .symdata import parse_label
    labels = fixtures.supported_labels(max_rank)
    satake, gamma, chow, hilb, planes = {}, {}, {}, {}, {}
    cosets, colors, faces, hasse, counts = {}, {}, {}, {}, {}
    for rtype in ("B3", "B4", "D4", "F4", "G2"):
        gamma[rtype] = [[str(x) for x in row] for row in fixtures.gamma_closed_form(rtype)]
    for label in labels:
        series, rank = parse_label(label)
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
    from . import fixtures
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


def write_golden(payload: dict, path: Path) -> dict[str, bool]:
    """Write the golden files; return, per file, whether its bytes changed."""
    path.mkdir(parents=True, exist_ok=True)
    changed = {}
    for name in GOLDEN_FILES:
        file = path / f"{name}.json"
        data = (json.dumps(payload[name], indent=1, sort_keys=True) + "\n").encode()
        changed[name] = not file.is_file() or file.read_bytes() != data
        file.write_bytes(data)
    return changed


# ---------------------------------------------------------------------------
# per-label checks

def _decide(label: str, names, body, *args) -> list[CheckResult]:
    """The lines `names` of one label, in order, each as `body(put, *args)`
    decided it by put(ok, name, detail), name without the label, or failed."""
    got, error = {}, "undecided"

    def put(ok, name, detail=""):
        got[f"{name}.{label}"] = _res(ok, f"{name}.{label}", detail)

    try:
        body(put, *args)
    except StructureError as exc:
        error = str(exc)
    return [got.get(name) or _res(False, name, error) for name in names]


_ROOTCORE_CHECKS = ("positive-half", "reflection-closure", "highest-root-dominates",
                    "killing-cartan", "bond-counts", "longest-element-length",
                    "longest-element-involutive", "duality-involution")


def rootcore_checks(label: str) -> list[CheckResult]:
    return _decide(label, [f"rootcore.{n}.{label}" for n in _ROOTCORE_CHECKS],
                   _rootcore_lines, label)


def _rootcore_lines(put, label: str) -> None:
    from .symdata import parse_label
    rd = build_root_datum(*parse_label(label))
    put(len(rd.positive_roots) * 2 == len(rd.roots), "rootcore.positive-half")
    put(all(rd.is_root(rd.reflect(g, i)) for g in rd.roots for i in range(1, rd.rank + 1)),
        "rootcore.reflection-closure")
    rho = highest_root(rd)
    put(all(all(rho[k] >= h[k] for k in range(rd.rank)) for h in rd.roots),
        "rootcore.highest-root-dominates")
    k = rd.root_table.killing[0]   # D times the Killing pairings of the simple roots
    put(all(2 * k[i][j] == rd.cartan[i][j] * k[j][j]
            for i in range(rd.rank) for j in range(rd.rank)), "rootcore.killing-cartan")
    put(all(rd.cartan[i][j] * rd.cartan[j][i] in (0, 1, 2, 3)
            for i in range(rd.rank) for j in range(rd.rank) if i != j), "rootcore.bond-counts")
    w0 = longest_element(rd)
    put(len(w0.word) == len(rd.positive_roots), "rootcore.longest-element-length")
    # 2 rho, the sum of the positive roots: integral, and w0 is linear
    two_rho = tuple(map(sum, zip(*rd.positive_roots)))
    put(weyl_apply(rd, w0, weyl_apply(rd, w0, two_rho)) == two_rho,
        "rootcore.longest-element-involutive")
    theta = duality_involution(rd)
    put(all(theta[theta[i]] == i for i in theta), "rootcore.duality-involution")


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
    """The `_SYMDATA_CHECKS` of one label, in that order."""
    return _decide(label, [f"symdata.{n}.{label}" for n in _SYMDATA_CHECKS],
                   _symdata_lines, label, golden)


def _symdata_lines(put, label: str, golden: dict) -> None:
    from . import symdata
    series, rank = symdata.parse_label(label)
    gold = golden["satake"][label]
    _same(put, [f"{s}{r}" for s, r in symdata.g_fixed_subalgebra_components(series, rank)],
          gold["gsigma"], "symdata.fixed-subalgebra")
    sd = symdata.satake_of(series, rank)
    _same(put, sorted(sd.black), gold["black"], "symdata.satake-black")
    _same(put, [list(p) for p in sd.arrows], gold["arrows"], "symdata.satake-arrows")
    nodes = set(gold["black"]).union(*gold["arrows"])
    if not nodes <= set(range(1, rank + 1)):
        put(False, "symdata.sigma-involution", f"golden nodes {sorted(nodes)} outside 1..{rank}")
    else:
        images = [symdata.sigma_on_characters(sd, v) for v in identity(rank)]
        want = _reference_sigma(sd.base, gold["black"], gold["arrows"])
        put(images == want, "symdata.sigma-involution", ", ".join(
            f"alpha{j} -> {list(g)} vs {list(w)}"
            for j, (g, w) in enumerate(zip(images, want), start=1) if g != w))

    rrd = symdata.restricted_datum(sd)
    _same(put, rrd.restricted.label, gold["restricted"], "symdata.restricted-type")
    _same(put, {str(i): list(rrd.reps_of(i)) for i in range(1, rrd.restricted.rank + 1)},
          gold["lambda"], "symdata.restriction-map")
    # row i of A gamma: the pairings of the restricted simple root i with
    # the gamma_j, 1 at j = i and 0 elsewhere
    duality = [[str(linalg.vdot(row, g)) for g in rrd.gamma] for row in rrd.restricted.cartan]
    eye = [[str(x) for x in row] for row in identity(len(duality))]
    put(duality == eye, "symdata.gamma-duality", f"A gamma = {duality} vs {eye}")
    _same(put, [[str(x) for x in g] for g in rrd.gamma], golden["gamma"][gold["restricted"]],
          "symdata.gamma-closed-form")

    colors = [{"color": c.index, "type": c.color_type, "a": c.a_coeff,
               "spherical": list(c.spherical_root)} for c in symdata.color_table(rrd)]
    _same(put, colors, golden["colors"][label], "symdata.color-table")


def atlas_names(label: str) -> list[str]:
    """The names of the `atlas_checks` lines of one label, in order."""
    from . import fixtures
    from .symdata import parse_label
    series, rank = parse_label(label)
    schemes = ("chow", "hilb")
    names = [f"conicatlas.{n}" for n in ("entry-build", "half-dimension", "line-stabilizer",
                                         "planes", "isotropy-twist", "double-cosets")]
    names += ["lunavust.chow-simple", "conicatlas.chow-cone-table",
              "conicatlas.hilb-cone-table", "conicatlas.hilb-simple-iff-exceptional"]
    names += [f"{n}.{s}" for s in schemes for n in (
        "lunavust.fan-axioms", "lunavust.strict-convexity", "lunavust.completeness",
        "lunavust.face-lists", "conicatlas.orbit-count")]
    names.append("conicatlas.fans-coincide-iff-g2")
    names += [f"conicatlas.{n}.{s}" for s in schemes for n in ("orbit-labels", "hasse")]
    names += ["lunavust.ruzzi-hilb-smooth", "lunavust.ruzzi-chow"]
    names += [f"lunavust.ruzzi-fixture-{i}" for i in range(
        len(fixtures.RUZZI_FIXTURES[fixtures.family_kind(series, rank)]))]
    names += [f"symdata.anticanonical.{s}" for s in schemes]
    return [f"{n}.{label}" for n in names]


def atlas_checks(label: str, golden: dict) -> list[CheckResult]:
    """The `atlas_names` lines of one label."""
    return _decide(label, atlas_names(label), _atlas_lines, label, golden)


def _atlas_lines(put, label: str, golden: dict) -> None:
    from . import conicatlas, fixtures, lunavust
    series, rank = conicatlas.parse_label(label)
    entry = conicatlas.build_entry(label)
    put(True, "conicatlas.entry-build")
    rrd = entry.rrd
    put(entry.ad.n == fixtures.expected_half_dimension(series, rank),
        "conicatlas.half-dimension")
    put(entry.ad.neighbors == fixtures.expected_line_stabilizer(series, rank),
        "conicatlas.line-stabilizer")

    planes = [{"beta": p.beta, "in_z": p.in_z,
               "stabilizer": sorted(p.stabilizer.missing)}
              for p in entry.planes]
    _same(put, planes, golden["planes"][label], "conicatlas.planes")

    theta = duality_involution(entry.ad.g)
    twisted = {str(i): sorted({theta[w] for w in rrd.reps_of(i)})
               for i in range(1, rrd.restricted.rank + 1)}
    _same(put, twisted, golden["satake"][label]["lambda"], "conicatlas.isotropy-twist")
    _same(put, entry.double_cosets, golden["cosets"][label], "conicatlas.double-cosets")

    # fan tables
    def cone_payload(cc):
        return {"rays": sorted(list(r) for r in lunavust.extremal_rays(cc.cone)),
                "colors": sorted(cc.colors)}

    chow_max = lunavust.maximal_cones(entry.chow_fan, rrd)
    put(len(chow_max) == 1, "lunavust.chow-simple")
    _same(put, cone_payload(chow_max[0]), golden["chow_cones"][label],
          "conicatlas.chow-cone-table")
    hilb_max = sorted((cone_payload(c) for c in
                       lunavust.maximal_cones(entry.hilb_fan, rrd)),
                      key=lambda d: (d["rays"], d["colors"]))
    _same(put, hilb_max, golden["hilb_cones"][label], "conicatlas.hilb-cone-table")
    put((len(hilb_max) == 1) == (series in ("E", "F", "G")),
        "conicatlas.hilb-simple-iff-exceptional")

    for scheme, fan in (("chow", entry.chow_fan), ("hilb", entry.hilb_fan)):
        check = lunavust.is_colored_fan(fan, rrd)
        put(check.ok, f"lunavust.fan-axioms.{scheme}", "; ".join(check.diagnostics))
        put(all(lunavust.is_pointed(c.cone) for c in fan), f"lunavust.strict-convexity.{scheme}")
        put(lunavust.is_complete(fan, rrd), f"lunavust.completeness.{scheme}")
        _same(put, _face_payload(entry, fan), golden["faces"][label][scheme],
              f"lunavust.face-lists.{scheme}")
        _same(put, len(fan), golden["orbitcounts"][label][scheme],
              f"conicatlas.orbit-count.{scheme}")
    fans_equal = {c.key() for c in entry.chow_fan} == {c.key() for c in entry.hilb_fan}
    put(fans_equal == (series == "G"), "conicatlas.fans-coincide-iff-g2")

    for scheme in ("chow", "hilb"):
        labels, hasse = f"conicatlas.orbit-labels.{scheme}", f"conicatlas.hasse.{scheme}"
        try:
            got = _hasse_payload(conicatlas.orbit_report(entry, scheme))
        except StructureError as exc:
            put(False, labels, str(exc))
            put(False, hasse, f"no orbit report, see {labels}.{label}")
        else:
            put(True, labels)
            _same(put, got, golden["hasse"][label][scheme], hasse)

    _ruzzi_checks(put, entry)
    _anticanonical_checks(put, entry, golden)


def _face_payload(entry, fan) -> dict:
    from . import lunavust
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
    from . import lunavust
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


def _ruzzi_checks(put, entry) -> None:
    from . import fixtures, lunavust
    rrd = entry.rrd
    reports = [lunavust.ruzzi_smooth(c, rrd)
               for c in lunavust.maximal_cones(entry.hilb_fan, rrd)]
    put(all(r.smooth for r in reports), "lunavust.ruzzi-hilb-smooth",
        "; ".join(d for r in reports for d in r.detail))
    chow_rep = lunavust.ruzzi_smooth(lunavust.maximal_cones(entry.chow_fan, rrd)[0], rrd)
    put(chow_rep.smooth == (entry.series == "G"), "lunavust.ruzzi-chow",
        f"smooth={chow_rep.smooth}, detail={chow_rep.detail}")
    for idx, fx in enumerate(fixtures.RUZZI_FIXTURES[rrd.restricted.label]):
        ok, why = _verify_ruzzi_fixture(rrd, fx)
        put(ok, f"lunavust.ruzzi-fixture-{idx}", why)


def _verify_ruzzi_fixture(rrd, fx) -> tuple[bool, str]:
    """A transcribed condition-3 witness, checked by `lunavust.ruzzi_witness`.

    Its duals are y_j in the doubled weight lattice: halving one must leave
    an integer vector, never a truncated one.
    """
    from . import conicatlas, lunavust
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


def _anticanonical_checks(put, entry, golden) -> None:
    from . import symdata
    rrd = entry.rrd
    gold_cols = {row["color"]: row["a"] for row in golden["colors"][entry.label]}
    for scheme, fan in (("chow", entry.chow_fan), ("hilb", entry.hilb_fan)):
        data = symdata.anticanonical_data(rrd, fan)
        coeffs = dict(data.color_coeffs)
        # the rays in the valuation cone are those of the golden one-dimensional faces
        rays = [list(r) for r in data.stable_rays]
        want = [r for face in golden["faces"][entry.label][scheme].get("1", ()) for r in face]
        put(coeffs == gold_cols and rays == want, f"symdata.anticanonical.{scheme}",
            f"{coeffs} vs {gold_cols}, stable rays {rays} vs {want}")


_CHEVALLEY_CHECKS = ("jacobi", "twistor-extremal", "line-direction",
                     "general-direction-witness", "contact-dimension")
_CHEVALLEY_EXTRAS = {"G2": ("g2-implication",), "B3": ("b3-contact-witness",)}


def chevalley_checks(label: str) -> list[CheckResult]:
    names = (*_CHEVALLEY_CHECKS, *_CHEVALLEY_EXTRAS.get(label, ()))
    return _decide(label, [f"chevalley.{n}.{label}" for n in names], _chevalley_lines, label)


def _chevalley_lines(put, label: str) -> None:
    from . import chevalley
    from .symdata import adjoint_data, parse_label
    series, rank = parse_label(label)
    sc = chevalley.build_structure_constants(build_root_datum(series, rank), verify="full")
    put(True, "chevalley.jacobi")

    ad = adjoint_data(series, rank)
    rho = ad.rho
    # The sample at t = p/q is a binary quadratic form in (p : q) and never
    # zero (see `chevalley.twistor_conic_sample`).  It is extremal iff every
    # 2x2 minor of ([x, [x, b]], x) vanishes, over the basis vectors b, and
    # each minor is a binary form of degree 4 + 2 = 6.  A form of degree 6
    # that vanishes at 7 distinct points of P^1 vanishes identically, so
    # t = 0, ..., 6 prove that the whole conic lies in the adjoint variety.
    bad = next((t for t in range(7) if not chevalley.is_extremal(
        sc, chevalley.twistor_conic_sample(sc, rho, t))), None)
    put(bad is None, "chevalley.twistor-extremal",
        f"the twistor sample at t = {bad} is not extremal")

    v_line, v_wit = chevalley.contact_directions(rank, rho, ad.j0)
    put(chevalley.contact_cubic(sc, rho, ad.j0, v_line).is_zero()
        and chevalley.contact_quadratic(sc, rho, v_line).is_zero(), "chevalley.line-direction")
    put(not chevalley.contact_cubic(sc, rho, ad.j0, v_wit).is_zero(),
        "chevalley.general-direction-witness")
    put(len(chevalley.contact_hyperplane_roots(sc.rd, ad.j0)) == 2 * ad.n,
        "chevalley.contact-dimension")

    if label == "G2":
        # exact on the whole hyperplane: D q_i^2 = sum_j a_ij c_j
        cert, why = chevalley.contact_certificate(sc, rho, ad.j0)
        put(cert is not None, "chevalley.g2-implication", why)
    if label == "B3":
        put(chevalley.find_cubic_zero_quadratic_nonzero(sc, rho, ad.j0) is not None,
            "chevalley.b3-contact-witness", "no nonplanar contact direction found")


def checks_for_label(label: str, scope: str, golden: dict) -> list[CheckResult]:
    """The checks of one label.  When they end, the label's cached data is
    released, and a full collection frees its reference cycles and hands
    the interpreter's free lists back to the allocator for the next label."""
    out = []
    try:
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
    finally:
        release_label_caches()
        gc.collect()


# the layers each scope runs besides rootcore, linalg, symdata and fixtures;
# conicatlas brings lunavust
_SCOPE_LAYERS = {"all": ("conicatlas", "chevalley"), "rootcore": (), "symdata": (),
                 "lunavust": ("conicatlas",), "conicatlas": ("conicatlas",),
                 "chevalley": ("chevalley",)}


def run_checks(scope: str = "all", max_rank: int = 8, golden: dict | None = None,
               jobs: int = 1) -> list[CheckResult]:
    if scope not in _SCOPE_LAYERS:
        raise ValueError(f"unknown scope {scope!r}")
    golden = golden or load_golden()
    # once, before the first label and before the pool forks its workers
    from importlib import import_module
    from . import fixtures
    for layer in ("symdata", *_SCOPE_LAYERS[scope]):
        import_module(f"{__package__}.{layer}")
    labels = fixtures.supported_labels(max_rank)
    # what is alive now outlives the run: frozen, it is skipped by the
    # collections that end the labels
    gc.freeze()
    try:
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
    finally:
        gc.unfreeze()
