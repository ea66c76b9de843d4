"""Library-level operations of the benchmark, one per fresh interpreter.

    python3 perfbench/ops.py golden            reference payload from fixtures
    python3 perfbench/ops.py atlas LABEL       cone layer of one label
    python3 perfbench/ops.py twistor LABEL T.. is_extremal on twistor samples
    python3 perfbench/ops.py b3search          contact direction search on B3

Each prints one JSON object on standard output; run.py checks it.  The
program's own work happens here; the comparisons against references happen in
run.py, after the process has ended.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from conicfans import chevalley, conicatlas, fixtures, lunavust, verify
from conicfans.rootcore import build_root_datum


def op_golden() -> dict:
    """The shipped golden files against the payload regenerated from fixtures."""
    payload = json.loads(json.dumps(verify.golden_payload()))
    shipped = verify.load_golden()
    labels = fixtures.supported_labels()
    return {
        "mismatched": sorted(n for n in verify.GOLDEN_FILES if shipped[n] != payload[n]),
        "payload": payload,
        "labels": labels,
        "ruzzi_fixtures": {
            label: len(fixtures.RUZZI_FIXTURES[
                fixtures.family_kind(*conicatlas.parse_label(label))])
            for label in labels},
    }


def op_atlas(label: str) -> dict:
    """build_entry, the cone-side checks and both exports for one label."""
    golden = verify.load_golden()
    entry = conicatlas.build_entry(label)
    checks = verify.atlas_checks(label, golden)
    out = {"checks": [[c.name, c.ok, c.detail] for c in checks], "fans": {}, "dots": {}}
    for scheme in ("chow", "hilb"):
        fan = entry.chow_fan if scheme == "chow" else entry.hilb_fan
        out["fans"][scheme] = lunavust.fan_to_json_dict(fan, entry.rrd.space_label)
        rep = conicatlas.orbit_report(entry, scheme)
        out["dots"][scheme] = lunavust.poset_to_dot(rep.poset, labels=rep.types,
                                                    name=f"{label}_{scheme}")
    return out


def _engine(label: str):
    series, rank = conicatlas.parse_label(label)
    rd = build_root_datum(series, rank)
    sc = chevalley.build_structure_constants(rd, verify="none")
    return rd, sc, conicatlas.adjoint_data(series, rank)


def op_twistor(label: str, times: list[str]) -> dict:
    rd, sc, ad = _engine(label)
    extremal = [chevalley.is_extremal(sc, chevalley.twistor_conic_sample(sc, ad.rho,
                                                                         Fraction(t)))
                for t in times]
    return {"roots": len(rd.roots), "extremal": extremal}


def op_b3search() -> dict:
    _, sc, ad = _engine("B3")
    v = chevalley.find_cubic_zero_quadratic_nonzero(sc, ad.rho, ad.j0)
    if v is None:
        return {"direction": None}
    return {"direction": [[list(r), str(c)] for r, c in v.e]}


def main(argv: list[str]) -> int:
    ops = {"golden": op_golden, "atlas": op_atlas, "b3search": op_b3search,
           "twistor": lambda label, *times: op_twistor(label, list(times))}
    if not argv or argv[0] not in ops:
        print(f"usage: ops.py {{{','.join(ops)}}} [ARGS...]", file=sys.stderr)
        return 2
    json.dump(ops[argv[0]](*argv[1:]), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
