"""Command-line front end: table reproduction, verification, exports.

Exit codes: 0 success, 1 verification failure, 2 usage error.  A closed
standard output also exits 1, silently.

Every command is a fresh process, so each one imports only the layers it
runs: `contact-eq` and `export constants-csv` need the adjoint data and the
Chevalley constants alone, and never compile the cone layer or the checks.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .rootcore import InvalidTypeError, UnsupportedAlgebraError
from .symdata import (AdjointData, adjoint_data, color_table,
                      g_fixed_subalgebra_components, parse_label)

TABLES = ("satake", "chow", "hilb", "planes", "cosets", "colors")
PINNED_MAX_RANK = 8
"""The default rank cap, and the one the shipped golden files hold every label of."""


def _labels_for(arg: str | None, max_rank: int) -> list[str]:
    from . import fixtures
    labels = fixtures.supported_labels(max_rank)
    if arg is None:
        return labels
    if arg not in labels:
        raise UnsupportedAlgebraError(f"{arg} is not in the supported set")
    return [arg]


def _table_rows(name: str, labels: list[str]) -> tuple[list[str], list[list[str]]]:
    from . import conicatlas, fixtures, lunavust
    rows = []
    if name == "satake":
        header = ["g", "fixed_subalgebra", "black", "arrows", "restricted", "lambda"]
        for label in labels:
            e = conicatlas.build_entry(label)
            series, rank = e.series, e.rank
            gs = "+".join(f"{s}{r}" for s, r in
                          g_fixed_subalgebra_components(series, rank))
            lam = "; ".join(
                f"l{i}=" + ",".join(f"a{w}" for w in e.rrd.reps_of(i))
                for i in range(1, e.rrd.restricted.rank + 1))
            rows.append([label, gs,
                         ",".join(map(str, sorted(e.rrd.satake.black))) or "-",
                         ";".join(f"{a}<->{b}" for a, b in e.rrd.satake.arrows) or "-",
                         e.rrd.restricted.label, lam])
    elif name in ("chow", "hilb"):
        header = ["g", "cone", "rays", "colors"]
        for label in labels:
            e = conicatlas.build_entry(label)
            fan = e.chow_fan if name == "chow" else e.hilb_fan
            maxc = lunavust.maximal_cones(fan, e.rrd)
            for k, c in enumerate(sorted(maxc, key=lambda c: c.key())):
                rays = " ".join("(" + ",".join(map(str, r)) + ")"
                                for r in lunavust.extremal_rays(c.cone))
                rows.append([label, str(k), rays,
                             ",".join(f"D{i}" for i in sorted(c.colors))])
    elif name == "planes":
        header = ["g", "beta", "in_variety", "stabilizer"]
        for label in labels:
            e = conicatlas.build_entry(label)
            for p in e.planes:
                rows.append([label, f"a{p.beta}", "yes" if p.in_z else "no",
                             ",".join(f"a{i}" for i in sorted(p.stabilizer.missing))])
    elif name == "cosets":
        # one row per family; per-rank agreement is enforced by the check suite
        header = ["g", "double_cosets"]
        display = {"Br": ("B_r (r>=4)", "B4"), "B3": ("B3", "B3"),
                   "Dr": ("D_r (r>=6)", "D6"), "D5": ("D5", "D5"),
                   "D4": ("D4", "D4"), "E6": ("E6", "E6"), "E7": ("E7", "E7"),
                   "E8": ("E8", "E8"), "F4": ("F4", "F4"), "G2": ("G2", "G2")}
        wanted_keys = []
        for label in labels:
            key = fixtures.family_key(*parse_label(label))
            if key not in wanted_keys:
                wanted_keys.append(key)
        for key in fixtures.FAMILY_KEYS:
            if key not in wanted_keys:
                continue
            name_str, rep = display[key]
            rows.append([name_str, str(conicatlas.build_entry(rep).double_cosets)])
    elif name == "colors":
        header = ["g", "color", "type", "a", "spherical_root"]
        for label in labels:
            e = conicatlas.build_entry(label)
            for c in color_table(e.rrd):
                sph = "+".join(f"{v}a{k+1}" for k, v in enumerate(c.spherical_root) if v)
                rows.append([label, f"D{c.index}", c.color_type, str(c.a_coeff), sph])
    else:
        raise ValueError(name)
    return header, rows


def _emit_table(header, rows, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([dict(zip(header, r)) for r in rows],
                          indent=1, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(rows)
        return buf.getvalue()
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(x.ljust(w) for x, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def cmd_table(args) -> int:
    if args.name not in TABLES:
        print(f"unknown table {args.name!r}; choose from {', '.join(TABLES)}",
              file=sys.stderr)
        return 2
    try:
        labels = _labels_for(args.g, args.max_rank)
    except (UnsupportedAlgebraError, InvalidTypeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    header, rows = _table_rows(args.name, labels)
    sys.stdout.write(_emit_table(header, rows, args.format))
    return 0


def cmd_verify(args) -> int:
    if args.format == "csv":
        print("verify writes --format text or json, not csv", file=sys.stderr)
        return 2
    from . import verify
    if args.bless:
        # a narrower scope or cap would rewrite the files without the labels
        # it leaves out
        if args.scope != "all" or args.max_rank < PINNED_MAX_RANK:
            print(f"verify --bless rewrites every pinned label: use scope all and "
                  f"--max-rank {PINNED_MAX_RANK} or more", file=sys.stderr)
            return 2
        payload = verify.golden_payload(args.max_rank)
        target = verify.golden_dir()
        try:
            old = verify.load_golden(target)
        except (FileNotFoundError, ValueError):
            old = {}
        status = {}
        for name in verify.GOLDEN_FILES:
            before = json.dumps(old.get(name, {}), sort_keys=True)
            after = json.dumps(payload[name], sort_keys=True)
            status[name] = "unchanged" if before == after else "REWRITTEN"
        if args.format == "json":
            sys.stdout.write(json.dumps({"bless": status}, indent=1, sort_keys=True) + "\n")
        else:
            for name, st in status.items():
                print(f"bless {name}.json: {st}")
        verify.write_golden(payload, target)
        return 0
    try:
        golden = verify.load_golden()
    except FileNotFoundError as exc:
        print(f"missing golden data: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"malformed golden data: {exc}", file=sys.stderr)
        return 1
    jobs = args.jobs
    if jobs is None:
        jobs = min(4, os.cpu_count() or 1)
    results = verify.run_checks(scope=args.scope, max_rank=args.max_rank,
                                golden=golden, jobs=jobs)
    failures = [r for r in results if not r.ok]
    report = {
        "scope": args.scope,
        "seed": args.seed,
        "checks": len(results),
        "failures": [r.to_json_dict() for r in failures],
        "results": [r.to_json_dict() for r in results],
    }
    if args.format == "json":
        json.dump(report, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for r in results:
            mark = "ok  " if r.ok else "FAIL"
            line = f"{mark} {r.name}"
            if not r.ok and r.detail:
                line += f"  ({r.detail})"
            print(line)
        print(f"{len(results)} checks, {len(failures)} failures")
    return 0 if not failures else 1


def _adjoint_data(label: str) -> AdjointData:
    return adjoint_data(*parse_label(label))


def _fan_text(kind: str, label: str, which: str) -> str:
    """The fan JSON or Hasse DOT text of one label's `which` compactification."""
    from . import conicatlas, lunavust
    entry = conicatlas.build_entry(label)
    if kind == "fan-json":
        fan = entry.chow_fan if which == "chow" else entry.hilb_fan
        return json.dumps(lunavust.fan_to_json_dict(fan, entry.rrd.space_label),
                          indent=1, sort_keys=True) + "\n"
    rep = conicatlas.orbit_report(entry, which)
    return lunavust.poset_to_dot(rep.poset, labels=rep.types,
                                 name=f"{label}_{which}") + "\n"


def _constants_csv(ad: AdjointData):
    """The CSV text of the signed constants N_{alpha,beta}, one chunk per alpha.

    The bytes are those of `csv.writer`: a header, no quoting, \\r\\n line
    ends.  Each root is formatted once.
    """
    from . import chevalley
    sc = chevalley.build_structure_constants(ad.g, verify="none")
    names = {r: " ".join(map(str, r)) for r in ad.g.roots}
    yield "alpha,beta,n\r\n"
    for a, row in chevalley.constants_csv_rows(sc):
        name = names[a]
        yield "".join(f"{name},{names[b]},{n}\r\n" for b, n in row)


def cmd_export(args) -> int:
    try:
        if args.kind == "constants-csv":
            chunks = _constants_csv(_adjoint_data(args.g))
        else:
            chunks = [_fan_text(args.kind, args.g, args.which)]
    except (UnsupportedAlgebraError, InvalidTypeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not args.output:
        sys.stdout.writelines(chunks)
        return 0
    # a closed standard output is a BrokenPipeError, an OSError that main
    # handles; only the file's errors are usage errors
    try:
        with open(args.output, "w", encoding="utf-8") as sink:
            sink.writelines(chunks)
    except OSError as exc:
        print(f"cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def cmd_contact_eq(args) -> int:
    try:
        ad = _adjoint_data(args.g)
    except (UnsupportedAlgebraError, InvalidTypeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    from . import chevalley
    sc = chevalley.build_structure_constants(ad.g, verify="none")
    rho, j0 = ad.rho, ad.j0
    rep = chevalley.contact_implication_check(sc, rho, j0, args.samples, args.seed)
    line, general = (chevalley.contact_cubic(sc, rho, j0, v).is_zero()
                     for v in chevalley.contact_directions(sc.rank, rho, j0))
    report = {
        "g": args.g,
        "seed": args.seed,
        "witnesses": {
            "line_direction_cubic_vanishes": line,
            "general_direction_cubic_vanishes": general,
        },
        "violations": list(rep.violations),
        "counts": {
            "samples": rep.samples,
            "cubic_zero_hits": rep.cubic_zero_hits,
        },
    }
    sys.stdout.write(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if rep.clean and rep.cubic_zero_hits > 0 else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _max_rank(text: str) -> int:
    value = int(text)
    if value < 3:
        raise argparse.ArgumentTypeError(
            f"must be at least 3, the rank of B3, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="conicfans",
        description="Exact tables, colored fans, and conic orbit structure "
                    "for adjoint varieties outside types A and C.")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--max-rank", type=_max_rank, default=PINNED_MAX_RANK,
                   help="rank cap for the B and D families (at least 3)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the samples of contact-eq; verify samples "
                        "nothing and only reports it")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="print a reference table")
    t.add_argument("name")
    t.add_argument("g", nargs="?")
    t.set_defaults(func=cmd_table)

    v = sub.add_parser("verify", help="run the named check suite")
    v.add_argument("scope", nargs="?", default="all",
                   choices=("all", "rootcore", "symdata", "lunavust",
                            "conicatlas", "chevalley"))
    v.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    v.add_argument("--jobs", type=_positive_int, default=None,
                   help="worker processes (default: up to 4)")
    v.add_argument("--bless", action="store_true",
                   help="rewrite the golden files from the reference tables")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("export", help="write fan JSON, Hasse DOT, or constants CSV")
    e.add_argument("kind", choices=("fan-json", "hasse-dot", "constants-csv"))
    e.add_argument("g")
    e.add_argument("--which", choices=("chow", "hilb"), default="hilb")
    e.add_argument("-o", "--output")
    e.set_defaults(func=cmd_export)

    c = sub.add_parser("contact-eq", help="tangent-direction equation report")
    c.add_argument("g")
    c.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    c.add_argument("--samples", type=_positive_int, default=10_000)
    c.set_defaults(func=cmd_contact_eq)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point fd 1 at devnull so that the interpreter's
        # final flush has nowhere to fail (the SIGPIPE note in Python's
        # `signal` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
