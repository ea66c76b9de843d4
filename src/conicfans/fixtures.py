"""Published reference data for the supported families.

Rays are written symbolically: "-gj" is the negated j-th dual basis vector of
the restricted system (a generator of the valuation cone), "lj" the j-th
restricted simple coroot.  The fan tables are keyed by the restricted type,
which the families of one combinatorial shape share: B3, B4 (B_r with r >= 4
and D_r with r >= 5), D4, F4 (E6, E7, E8, F4), G2; `family_kind` names it.

`conicatlas` reads one name as input: the rays of `HILB_CONES`, at the
restricted type it derives.  The other tables, the colors of `HILB_CONES`,
`ORBIT_LABELS` and the Satake diagrams of `SATAKE_EXPECTED` included, are
references: the golden files are written from them, and the checks compare
the derived data with those.  `symdata` derives the Satake diagrams from the
contact grading and reads no table here.
`ORBIT_LABELS` is the one transcription of the published orbit diagrams;
the golden Chow cone, face lists, orbit counts and Hasse edges are read off
its keys.
"""

from __future__ import annotations

from fractions import Fraction as Q

# ---------------------------------------------------------------------------
# family bookkeeping

SUPPORTED_EXCEPTIONAL = (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))


def supported_labels(max_rank: int = 8) -> list[str]:
    out = [f"B{r}" for r in range(3, max_rank + 1)]
    out += [f"D{r}" for r in range(4, max_rank + 1)]
    out += [f"{s}{r}" for s, r in SUPPORTED_EXCEPTIONAL]
    return out


def family_key(series: str, rank: int) -> str:
    """Row key for the per-family tables (collapses the stable high ranks)."""
    if series == "B":
        return "B3" if rank == 3 else "Br"
    if series == "D":
        return {4: "D4", 5: "D5"}.get(rank, "Dr")
    return f"{series}{rank}"


FAMILY_KEYS = ("Br", "B3", "Dr", "D5", "D4", "E6", "E7", "E8", "F4", "G2")


# ---------------------------------------------------------------------------
# restriction data: the published Satake diagrams and restricted systems, the
# reference for what `symdata` derives from the contact grading

SATAKE_EXPECTED = {
    "Br": {"black": "5..r", "arrows": [], "restricted": "B4",
           "gsigma": lambda r: sorted([("A", 1), ("A", 1), ("B", r - 2)])},
    "B3": {"black": "", "arrows": [], "restricted": "B3",
           "gsigma": lambda r: [("A", 1)] * 3},
    "Dr": {"black": "5..r", "arrows": [], "restricted": "B4",
           "gsigma": lambda r: sorted([("A", 1), ("A", 1), ("D", r - 2)])},
    "D5": {"black": "", "arrows": [(4, 5)], "restricted": "B4",
           "gsigma": lambda r: sorted([("A", 1), ("A", 1), ("A", 3)])},
    "D4": {"black": "", "arrows": [], "restricted": "D4",
           "gsigma": lambda r: [("A", 1)] * 4},
    "E6": {"black": "", "arrows": [(1, 5), (2, 4)], "restricted": "F4",
           "gsigma": lambda r: sorted([("A", 1), ("A", 5)])},
    "E7": {"black": "1,3,7", "arrows": [], "restricted": "F4",
           "gsigma": lambda r: sorted([("A", 1), ("D", 6)])},
    "E8": {"black": "4,5,6,8", "arrows": [], "restricted": "F4",
           "gsigma": lambda r: sorted([("A", 1), ("E", 7)])},
    "F4": {"black": "", "arrows": [], "restricted": "F4",
           "gsigma": lambda r: sorted([("A", 1), ("C", 3)])},
    "G2": {"black": "", "arrows": [], "restricted": "G2",
           "gsigma": lambda r: [("A", 1)] * 2},
}


def family_kind(series: str, rank: int) -> str:
    """The restricted type of a label, the key of the fan tables."""
    return SATAKE_EXPECTED[family_key(series, rank)]["restricted"]


def expected_black(series: str, rank: int) -> frozenset[int]:
    key = family_key(series, rank)
    spec = SATAKE_EXPECTED[key]["black"]
    if spec == "5..r":
        return frozenset(range(5, rank + 1))
    if not spec:
        return frozenset()
    return frozenset(int(x) for x in spec.split(","))


def expected_lambda_reps(series: str, rank: int) -> dict[int, tuple[int, ...]]:
    if (series, rank) == ("D", 5):
        return {1: (1,), 2: (2,), 3: (3,), 4: (4, 5)}
    if (series, rank) == ("E", 6):
        return {1: (1, 5), 2: (2, 4), 3: (3,), 4: (6,)}
    if (series, rank) == ("E", 7):
        return {1: (2,), 2: (4,), 3: (5,), 4: (6,)}
    if (series, rank) == ("E", 8):
        return {1: (7,), 2: (3,), 3: (2,), 4: (1,)}
    m = 3 if (series, rank) == ("B", 3) else (4 if series != "G" else 2)
    return {i: (i,) for i in range(1, m + 1)}


# ---------------------------------------------------------------------------
# dual basis vectors of the restricted systems, in coroot coordinates

def gamma_closed_form(rtype: str) -> list[list[Q]]:
    if rtype in ("B3", "B4"):
        m = int(rtype[1])
        out = []
        for i in range(1, m):
            row = [Q(min(i, k)) for k in range(1, m)] + [Q(i, 2)]
            out.append(row)
        out.append([Q(k) for k in range(1, m)] + [Q(m, 2)])
        return out
    if rtype == "D4":
        return [[Q(1), Q(1), Q(1, 2), Q(1, 2)],
                [Q(1), Q(2), Q(1), Q(1)],
                [Q(1, 2), Q(1), Q(1), Q(1, 2)],
                [Q(1, 2), Q(1), Q(1, 2), Q(1)]]
    if rtype == "F4":
        return [[Q(2), Q(3), Q(4), Q(2)],
                [Q(3), Q(6), Q(8), Q(4)],
                [Q(2), Q(4), Q(6), Q(3)],
                [Q(1), Q(2), Q(3), Q(2)]]
    if rtype == "G2":
        return [[Q(2), Q(3)], [Q(1), Q(2)]]
    raise KeyError(rtype)


# ---------------------------------------------------------------------------
# adjoint data: contact half-dimension n per family

def expected_half_dimension(series: str, rank: int) -> int:
    if series == "B":
        return 2 * rank - 3
    if series == "D":
        return 2 * rank - 4
    return {("E", 6): 10, ("E", 7): 16, ("E", 8): 28,
            ("F", 4): 7, ("G", 2): 2}[(series, rank)]


# stabilizers of the distinguished line and planes (crossed node sets)

def expected_line_stabilizer(series: str, rank: int) -> frozenset[int]:
    return frozenset({
        "Br": {1, 3}, "B3": {1, 3}, "Dr": {1, 3}, "D5": {1, 3},
        "D4": {1, 3, 4}, "E6": {3}, "E7": {5}, "E8": {2},
        "F4": {3}, "G2": {1}}[family_key(series, rank)])


def expected_planes(series: str, rank: int) -> list[dict]:
    """Rows: neighbor beta of the contact node, containment flag, stabilizer."""
    key = family_key(series, rank)
    rows = {
        "Br": [(1, True, {3}), (3, True, {1, 4})],
        "B3": [(1, True, {3}), (3, False, {1, 3})],
        "Dr": [(1, True, {3}), (3, True, {1, 4})],
        "D5": [(1, True, {3}), (3, True, {1, 4, 5})],
        "D4": [(1, True, {3, 4}), (3, True, {1, 4}), (4, True, {1, 3})],
        "E6": [(3, True, {2, 4})],
        "E7": [(5, True, {4})],
        "E8": [(2, True, {3})],
        "F4": [(3, True, {2})],
        "G2": [(1, False, {1})],
    }[key]
    return [{"beta": b, "in_z": z, "stabilizer": sorted(s)} for b, z, s in rows]


def expected_double_cosets(series: str, rank: int) -> int:
    return {"Br": 6, "B3": 4, "Dr": 6, "D5": 6, "D4": 8,
            "E6": 4, "E7": 4, "E8": 4, "F4": 4, "G2": 2}[family_key(series, rank)]


# ---------------------------------------------------------------------------
# colored-cone tables

HILB_CONES = {
    "B4": [(("-g2", "-g4", "l2", "l4"), (2, 4)),
           (("-g1", "-g2", "-g4", "l2"), (2,))],
    "B3": [(("-g1", "-g2", "l2"), (2,)),
           (("-g2", "-g3", "l2"), (2,))],
    "D4": [(("-g2", "-g3", "-g4", "l2"), (2,)),
           (("-g1", "-g2", "-g4", "l2"), (2,)),
           (("-g1", "-g2", "-g3", "l2"), (2,))],
    "F4": [(("-g1", "-g4", "l1", "l4"), (1, 4))],
    "G2": [(("-g2", "l2"), (2,))],
}

# ---------------------------------------------------------------------------
# published orbit diagrams: the conic type of each orbit, keyed by the
# symbolic rays of its colored cone (the colors are the l symbols).  By
# Luna-Vust theory the orbits are the colored cones of the fan and the
# closure order is the face order, so the keys list every cone of both fans
# and their inclusions are the Hasse edges.  A reference for the golden
# files; the pipeline derives the types

ORBIT_LABELS = {
    "B4": {
        "hilb": {
            (): "Twistor",
            ("-g1",): "NPC", ("-g4",): "NPC", ("-g2",): "NPR",
            ("-g1", "-g4"): "PC", ("-g4", "l4"): "PC",
            ("-g1", "-g2"): "NPR", ("-g2", "-g4"): "NPR", ("-g2", "l2"): "NPD",
            ("-g2", "-g4", "l4"): "PR", ("-g1", "-g2", "-g4"): "PR",
            ("-g2", "-g4", "l2"): "NPD", ("-g1", "-g2", "l2"): "NPD",
            ("-g2", "-g4", "l2", "l4"): "PD", ("-g1", "-g2", "-g4", "l2"): "PD",
        },
        "chow": {
            (): "Twistor",
            ("-g1",): "NPC", ("-g4",): "NPC", ("-g2",): "NPR",
            ("-g1", "-g4"): "PC", ("-g4", "l4"): "PC",
            ("-g1", "-g2"): "NPR", ("-g2", "-g4"): "NPR",
            ("-g1", "-g2", "-g4"): "PR", ("-g2", "-g4", "l4"): "PR",
            ("-g1", "-g2", "-g4", "l2", "l4"): "DL",
        },
    },
    "B3": {
        "hilb": {
            (): "Twistor",
            ("-g1",): "PC", ("-g2",): "NPR", ("-g3",): "NPC",
            ("-g1", "-g2"): "PR", ("-g2", "-g3"): "NPR", ("-g2", "l2"): "NPD",
            ("-g1", "-g2", "l2"): "PD", ("-g2", "-g3", "l2"): "NPD",
        },
        "chow": {
            (): "Twistor",
            ("-g1",): "PC", ("-g2",): "NPR", ("-g3",): "NPC",
            ("-g1", "-g2"): "PR", ("-g2", "-g3"): "NPR",
            ("-g1", "-g2", "-g3", "l2"): "DL",
        },
    },
    "D4": {
        "hilb": {
            (): "Twistor",
            ("-g1",): "NPC", ("-g3",): "NPC", ("-g4",): "NPC", ("-g2",): "NPR",
            ("-g1", "-g3"): "PC", ("-g1", "-g4"): "PC", ("-g3", "-g4"): "PC",
            ("-g1", "-g2"): "NPR", ("-g2", "-g3"): "NPR", ("-g2", "-g4"): "NPR",
            ("-g2", "l2"): "NPD",
            ("-g1", "-g2", "-g3"): "PR", ("-g1", "-g2", "-g4"): "PR",
            ("-g2", "-g3", "-g4"): "PR",
            ("-g1", "-g2", "l2"): "NPD", ("-g2", "-g3", "l2"): "NPD",
            ("-g2", "-g4", "l2"): "NPD",
            ("-g2", "-g3", "-g4", "l2"): "PD", ("-g1", "-g2", "-g4", "l2"): "PD",
            ("-g1", "-g2", "-g3", "l2"): "PD",
        },
        "chow": {
            (): "Twistor",
            ("-g1",): "NPC", ("-g3",): "NPC", ("-g4",): "NPC", ("-g2",): "NPR",
            ("-g1", "-g3"): "PC", ("-g1", "-g4"): "PC", ("-g3", "-g4"): "PC",
            ("-g1", "-g2"): "NPR", ("-g2", "-g3"): "NPR", ("-g2", "-g4"): "NPR",
            ("-g1", "-g2", "-g3"): "PR", ("-g1", "-g2", "-g4"): "PR",
            ("-g2", "-g3", "-g4"): "PR",
            ("-g1", "-g2", "-g3", "-g4", "l2"): "DL",
        },
    },
    "F4": {
        "hilb": {
            (): "Twistor",
            ("-g1",): "NPC", ("-g4",): "NPR",
            ("-g1", "l1"): "PC", ("-g1", "-g4"): "NPR", ("-g4", "l4"): "NPD",
            ("-g1", "-g4", "l1"): "PR", ("-g1", "-g4", "l4"): "NPD",
            ("-g1", "-g4", "l1", "l4"): "PD",
        },
        "chow": {
            (): "Twistor",
            ("-g1",): "NPC", ("-g4",): "NPR",
            ("-g1", "l1"): "PC", ("-g1", "-g4"): "NPR",
            ("-g1", "-g4", "l1"): "PR",
            ("-g1", "-g4", "l1", "l2", "l4"): "DL",
        },
    },
    "G2": {
        "hilb": {(): "Twistor", ("-g2",): "NPR", ("-g2", "l2"): "NPD"},
        "chow": {(): "Twistor", ("-g2",): "NPR", ("-g2", "l2"): "NPD"},
    },
}

# ---------------------------------------------------------------------------
# smoothness-criterion reference bases and dual bases for the Hilbert cones
# (coroot coordinates for the basis, dual coordinates for the y's)

def _qv(*xs):
    return tuple(Q(x) for x in xs)


RUZZI_FIXTURES = {
    "B4": [
        {"cone": ("-g2", "-g4", "l2", "l4"), "colors": (2, 4),
         "basis": [_qv("-1/2", -1, -1, "-1/2"), _qv("-1/2", -1, "-3/2", -1),
                   _qv(0, "1/2", 0, 0), _qv(0, 0, 0, "1/2")],
         "groups": [
             {"factor": (2,), "duals": [_qv(-4, 2, 0, 0), _qv(-6, 0, 2, 0)]},
             {"factor": (4,), "duals": [_qv(2, 0, -2, 2), _qv(4, 0, -2, 0)]},
         ]},
        {"cone": ("-g1", "-g2", "-g4", "l2"), "colors": (2,),
         "basis": [_qv(-1, -1, -1, "-1/2"), _qv("-1/2", -1, -1, "-1/2"),
                   _qv("-1/2", -1, "-3/2", -1), _qv(0, "1/2", 0, 0)],
         "groups": [
             {"factor": (2,), "duals": [_qv(0, 2, -4, 4), _qv(2, 0, -6, 8)]},
             {"factor": (), "duals": [_qv(-2, 0, 2, -2), _qv(0, 0, 2, -4)]},
         ]},
    ],
    "B3": [
        {"cone": ("-g1", "-g2", "l2"), "colors": (2,),
         "basis": [_qv(-1, -1, "-1/2"), _qv("-1/2", -1, "-1/2"), _qv(0, "1/2", 0)],
         "groups": [
             {"factor": (2,), "duals": [_qv(0, 2, -4), _qv(2, 0, -4)]},
             {"factor": (), "duals": [_qv(-2, 0, 2)]},
         ]},
        {"cone": ("-g2", "-g3", "l2"), "colors": (2,),
         "basis": [_qv("-1/2", -1, "-1/2"), _qv(-1, -2, "-3/2"), _qv(0, "1/2", 0)],
         "groups": [
             {"factor": (2,), "duals": [_qv(-4, 2, 0), _qv(-6, 0, 4)]},
             {"factor": (), "duals": [_qv(2, 0, -2)]},
         ]},
    ],
    "D4": [
        {"cone": ("-g2", "-g3", "-g4", "l2"), "colors": (2,),   # i = 1
         "basis": [_qv("-1/2", -1, "-1/2", "-1/2"), _qv("-1/2", -1, "-1/2", -1),
                   _qv("-1/2", -1, -1, "-1/2"), _qv(0, "1/2", 0, 0)],
         "groups": [
             {"factor": (2,), "duals": [_qv(-4, 2, 0, 0), _qv(-6, 0, 2, 2)]},
             {"factor": (), "duals": [_qv(2, 0, -2, 0), _qv(2, 0, 0, -2)]},
         ]},
        {"cone": ("-g1", "-g2", "-g4", "l2"), "colors": (2,),   # i = 3
         "basis": [_qv("-1/2", -1, "-1/2", "-1/2"), _qv("-1/2", -1, "-1/2", -1),
                   _qv(-1, -1, "-1/2", "-1/2"), _qv(0, "1/2", 0, 0)],
         "groups": [
             {"factor": (2,), "duals": [_qv(0, 2, -4, 0), _qv(2, 0, -6, 2)]},
             {"factor": (), "duals": [_qv(-2, 0, 2, 0), _qv(0, 0, 2, -2)]},
         ]},
        {"cone": ("-g1", "-g2", "-g3", "l2"), "colors": (2,),   # i = 4
         "basis": [_qv("-1/2", -1, "-1/2", "-1/2"), _qv("-1/2", -1, -1, "-1/2"),
                   _qv(-1, -1, "-1/2", "-1/2"), _qv(0, "1/2", 0, 0)],
         "groups": [
             {"factor": (2,), "duals": [_qv(0, 2, 0, -4), _qv(2, 0, 2, -6)]},
             {"factor": (), "duals": [_qv(-2, 0, 0, 2), _qv(0, 0, -2, 2)]},
         ]},
    ],
    "F4": [
        {"cone": ("-g1", "-g4", "l1", "l4"), "colors": (1, 4),
         "basis": [_qv(-1, "-3/2", -2, -1), _qv("-1/2", -1, "-3/2", -1),
                   _qv("1/2", 0, 0, 0), _qv(0, 0, 0, "1/2")],
         "groups": [
             {"factor": (1,), "duals": [_qv(2, -4, 2, 0), _qv(0, -6, 4, 0)]},
             {"factor": (4,), "duals": [_qv(0, 4, -4, 2), _qv(0, 8, -6, 0)]},
         ]},
    ],
    "G2": [],
}


def expected_colors(series: str, rank: int) -> list[dict]:
    """Color types, anticanonical coefficients, and spherical roots."""
    key = family_key(series, rank)

    def row(i, ctype, a, coeffs):
        return {"color": i, "type": ctype, "a": a,
                "spherical": {int(k): int(v) for k, v in coeffs.items()}}

    if key in ("B3", "D4", "F4", "G2"):
        m = {"B3": 3, "D4": 4, "F4": 4, "G2": 2}[key]
        return [row(i, "2a", 1, {i: 2}) for i in range(1, m + 1)]
    if key == "Br":
        if rank == 4:
            return [row(i, "2a", 1, {i: 2}) for i in range(1, 5)]
        out = [row(i, "2a", 1, {i: 2}) for i in range(1, 4)]
        out.append(row(4, "b", 2 * rank - 7, {k: 2 for k in range(4, rank + 1)}))
        return out
    if key == "D5":
        out = [row(i, "2a", 1, {i: 2}) for i in range(1, 4)]
        out.append(row(4, "b", 2, {4: 1, 5: 1}))
        return out
    if key == "Dr":
        out = [row(i, "2a", 1, {i: 2}) for i in range(1, 4)]
        sph = {k: 2 for k in range(4, rank - 1)}
        sph[rank - 1] = 1
        sph[rank] = 1
        out.append(row(4, "b", 2 * (rank - 4), sph))
        return out
    if key == "E6":
        return [row(1, "b", 2, {1: 1, 5: 1}), row(2, "b", 2, {2: 1, 4: 1}),
                row(3, "2a", 1, {3: 2}), row(4, "2a", 1, {6: 2})]
    if key == "E7":
        return [row(1, "b", 4, {1: 1, 2: 2, 3: 1}), row(2, "b", 4, {3: 1, 4: 2, 7: 1}),
                row(3, "2a", 1, {5: 2}), row(4, "2a", 1, {6: 2})]
    if key == "E8":
        return [row(1, "b", 8, {4: 1, 5: 2, 6: 2, 7: 2, 8: 1}),
                row(2, "b", 8, {3: 2, 4: 2, 5: 2, 6: 1, 8: 1}),
                row(3, "2a", 1, {2: 2}), row(4, "2a", 1, {1: 2})]
    raise KeyError(key)
