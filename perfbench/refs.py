"""References computed apart from the conicfans pipeline, and the output checks.

Every check function returns a list of error strings; an empty list means the
output is correct.  None of this runs inside a timed span.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

SCHEMES = ("chow", "hilb")


# ---------------------------------------------------------------------------
# the named checks of `verify all`

def check_roster(labels: list[str], ruzzi_fixtures: dict[str, int],
                 scope: str = "all") -> list[str]:
    """Names of the checks `verify` runs, in order, as verify.py documents them."""
    out = []
    for label in labels:
        if scope == "all":
            out += [f"rootcore.{n}.{label}" for n in (
                "positive-half", "reflection-closure", "highest-root-dominates",
                "killing-cartan", "bond-counts", "longest-element-length",
                "longest-element-involutive", "duality-involution")]
            out += [f"symdata.{n}.{label}" for n in (
                "satake-black", "satake-arrows", "restricted-type", "fixed-subalgebra",
                "restriction-map", "gamma-duality", "gamma-closed-form",
                "sigma-involution", "color-table")]
        out += [f"conicatlas.{n}.{label}" for n in (
            "entry-build", "half-dimension", "line-stabilizer", "planes",
            "isotropy-twist", "double-cosets")]
        out += [f"lunavust.chow-simple.{label}", f"conicatlas.chow-cone-table.{label}",
                f"conicatlas.hilb-cone-table.{label}",
                f"conicatlas.hilb-simple-iff-exceptional.{label}"]
        for s in SCHEMES:
            out += [f"lunavust.fan-axioms.{s}.{label}",
                    f"lunavust.strict-convexity.{s}.{label}",
                    f"lunavust.completeness.{s}.{label}",
                    f"lunavust.face-lists.{s}.{label}",
                    f"conicatlas.orbit-count.{s}.{label}"]
        out.append(f"conicatlas.fans-coincide-iff-g2.{label}")
        for s in SCHEMES:
            out += [f"conicatlas.orbit-labels.{s}.{label}", f"conicatlas.hasse.{s}.{label}"]
        out += [f"lunavust.ruzzi-hilb-smooth.{label}", f"lunavust.ruzzi-chow.{label}"]
        out += [f"lunavust.ruzzi-fixture-{i}.{label}" for i in range(ruzzi_fixtures[label])]
        out += [f"symdata.anticanonical.{s}.{label}" for s in SCHEMES]
        if scope == "all":
            out += [f"chevalley.{n}.{label}" for n in (
                "jacobi", "twistor-extremal", "line-direction",
                "general-direction-witness", "contact-dimension")]
            if label == "G2":
                out.append("chevalley.g2-implication.G2")
            if label == "B3":
                out.append("chevalley.b3-contact-witness.B3")
    return out


VERIFY_CHECKS = 845   # the ROADMAP's count for `verify all` over the 16 labels


def check_verify_report(text: str, roster: list[str]) -> list[str]:
    report = json.loads(text)
    names = [r["name"] for r in report["results"]]
    errors = []
    if len(roster) != VERIFY_CHECKS:
        errors.append(f"roster holds {len(roster)} checks, not {VERIFY_CHECKS}")
    if names != roster:
        missing = sorted(set(roster) - set(names))[:5]
        extra = sorted(set(names) - set(roster))[:5]
        errors.append(f"check names differ from the roster: missing {missing}, extra {extra}")
    failed = [r["name"] for r in report["results"] if not r["ok"]]
    if failed or report["failures"]:
        errors.append(f"failing checks: {failed[:5]}")
    return errors


# ---------------------------------------------------------------------------
# cone layer: payload rebuilt from the fan-JSON and Hasse-DOT exports

def _rank(rows: list[list[int]]) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _int_ray(xs) -> list[int]:
    q = [Fraction(x) for x in xs]
    if any(x.denominator != 1 for x in q):
        raise ValueError(f"ray {xs} is not integral")
    return [int(x) for x in q]


def fan_tables(fan_json: dict) -> tuple[list[dict], dict[str, list]]:
    """Maximal cones and the face lists by dimension of an exported fan.

    In a fan, a cone whose rays are a proper subset of another cone's rays is
    a face of it, so the maximal cones are the ray-set-maximal ones.
    """
    cones = [(sorted(_int_ray(r) for r in c["rays"]), sorted(c["colors"]))
             for c in fan_json["cones"]]
    sets = [{tuple(r) for r in rays} for rays, _ in cones]
    maximal, faces = [], {}
    for (rays, colors), s in zip(cones, sets):
        if any(s < t for t in sets):
            if rays:
                faces.setdefault(str(_rank(rays)), []).append(rays)
        else:
            maximal.append({"rays": rays, "colors": colors})
    maximal.sort(key=lambda d: (d["rays"], d["colors"]))
    return maximal, {d: sorted(v) for d, v in faces.items()}


_NODE = re.compile(r'^\s*n(\d+) \[label="(.*)\\ndim (\d+); rays (.*); colors (.*)"\];$')
_EDGE = re.compile(r"^\s*n(\d+) -> n(\d+);$")


def hasse_from_dot(dot: str, with_edges: bool) -> dict:
    nodes, edges = {}, []
    for line in dot.splitlines():
        if m := _NODE.match(line):
            rays = [] if m[4] == "0" else [
                [int(x) for x in r.split(",")] for r in re.findall(r"\(([^)]*)\)", m[4])]
            nodes[int(m[1])] = {"rays": sorted(rays), "type": m[2]}
        elif m := _EDGE.match(line):
            edges.append((int(m[1]), int(m[2])))
    order = sorted(nodes, key=lambda i: (len(nodes[i]["rays"]), nodes[i]["rays"],
                                         nodes[i]["type"]))
    new = {old: k for k, old in enumerate(order)}
    out = {"nodes": [nodes[i] for i in order]}
    if with_edges:
        out["edges"] = sorted([new[i], new[j]] for i, j in edges)
    return out


def check_atlas(label: str, result: dict, payload: dict, roster: list[str]) -> list[str]:
    errors = []
    names = [c[0] for c in result["checks"]]
    if names != roster:
        errors.append(f"{label}: atlas check names differ from the roster")
    errors += [f"{label}: {c[0]} failed" for c in result["checks"] if not c[1]]
    chow_max, chow_faces = fan_tables(result["fans"]["chow"])
    hilb_max, hilb_faces = fan_tables(result["fans"]["hilb"])
    if chow_max != [payload["chow_cones"][label]]:
        errors.append(f"{label}: chow cone table differs")
    if hilb_max != payload["hilb_cones"][label]:
        errors.append(f"{label}: hilb cone table differs")
    for scheme, faces in (("chow", chow_faces), ("hilb", hilb_faces)):
        if len(result["fans"][scheme]["cones"]) != payload["orbitcounts"][label][scheme]:
            errors.append(f"{label}: {scheme} fan has a wrong number of cones")
        if faces != payload["faces"][label][scheme]:
            errors.append(f"{label}: {scheme} face lists differ")
        got = hasse_from_dot(result["dots"][scheme], scheme == "hilb")
        if got != payload["hasse"][label][scheme]:
            errors.append(f"{label}: {scheme} Hasse nodes or edges differ")
    return errors


# ---------------------------------------------------------------------------
# bracket engine

def e_series_cartan(rank: int) -> list[list[int]]:
    """E_r in the numbering of the conicfans README: the long chain
    1..r-1 first, the branch node r last, attached to node r-3."""
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in [(k, k + 1) for k in range(rank - 2)] + [(rank - 4, rank - 1)]:
        a[i][j] = a[j][i] = -1
    return a


def positive_roots(cartan: list[list[int]]) -> set[tuple[int, ...]]:
    """Positive roots of a simply-laced Cartan matrix by simple-root strings."""
    n = len(cartan)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots, layer = set(simple), list(simple)
    while layer:
        nxt = []
        for b in layer:
            for i in range(n):
                pairing = sum(b[j] * cartan[j][i] for j in range(n))
                p, down = 0, list(b)
                while True:
                    down[i] -= 1
                    if tuple(down) not in roots:
                        break
                    p += 1
                if p - pairing > 0:
                    up = tuple(x + (j == i) for j, x in enumerate(b))
                    if up not in roots:
                        roots.add(up)
                        nxt.append(up)
        layer = nxt
    return roots


def root_system(rank: int) -> set[tuple[int, ...]]:
    pos = positive_roots(e_series_cartan(rank))
    return pos | {tuple(-x for x in r) for r in pos}


def sympy_root_counts(labels) -> dict[str, int]:
    from sympy.liealgebras.root_system import RootSystem
    return {label: len(RootSystem(label).all_roots()) for label in labels}


def check_constants_csv(text: str, roots: set[tuple[int, ...]]) -> list[str]:
    """|N_{a,b}| = p+1 from root strings, N_{a,b} = -N_{b,a}, every pair listed."""
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["alpha", "beta", "n"]:
        return ["constants CSV has a wrong header"]
    n = {}
    for a, b, c in rows[1:]:
        n[(tuple(map(int, a.split())), tuple(map(int, b.split())))] = int(c)
    errors = []
    want = {(a, b) for a in roots for b in roots
            if tuple(x + y for x, y in zip(a, b)) in roots}
    if set(n) != want:
        errors.append(f"constants CSV lists {len(n)} pairs, root sums give {len(want)}")
    for (a, b), val in n.items():
        p, cur = 0, tuple(y - x for x, y in zip(a, b))
        while cur in roots:
            p += 1
            cur = tuple(y - x for x, y in zip(a, cur))
        if abs(val) != p + 1:
            errors.append(f"|N{a},{b}| = {abs(val)}, root string gives {p + 1}")
        if n.get((b, a)) != -val:
            errors.append(f"N{a},{b} = {val} but N{b},{a} = {n.get((b, a))}")
        if len(errors) > 5:
            break
    return errors
