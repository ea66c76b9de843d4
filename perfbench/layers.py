"""Per-layer metrics from the tracer's dump files.

A metric `<module>.<function>_s` is the function's self time summed over all
processes of the traced round; `_calls` is its call count.  The verify scope
metrics and `verify.load_golden_s` are inclusive totals instead.  The names
and what each should move are listed in perfbench/README.md.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

SELF_S = ("chevalley.build_structure_constants", "chevalley.bracket",
          "chevalley.is_extremal", "chevalley.contact_implication_check",
          "lunavust.is_colored_fan", "lunavust.is_complete", "lunavust.maximal_cones",
          "lunavust.colored_faces", "lunavust.extremal_rays", "lunavust.ruzzi_smooth",
          "linalg.feasible", "rootcore.build_root_datum", "rootcore.double_coset_count",
          "symdata.restricted_datum", "symdata.color_table", "symdata.anticanonical_data",
          "conicatlas.build_entry", "conicatlas.orbit_report")
TOTAL_S = ("verify.rootcore_checks", "verify.symdata_checks", "verify.atlas_checks",
           "verify.chevalley_checks", "verify.load_golden")
CALLS = ("chevalley.bracket", "chevalley.contact_cubic", "lunavust.colored_faces",
         "linalg.feasible", "linalg.nullspace_basis", "rootcore.killing_pair")
GAUGES = ("chevalley.n_memo_entries", "lunavust.faces_memo_entries")
LABEL_SPAN = "verify.checks_for_label"


def collect(trace_dir: Path, plain, traced) -> dict:
    """Merge the dumps of one traced round (forked workers included)."""
    stats: dict[str, list] = {}
    gauges = dict.fromkeys(GAUGES, 0)
    imports, spans = [], []
    for path in sorted(trace_dir.iterdir()):
        tag = path.name.split(".json")[0]
        dump = json.loads(path.read_text(encoding="utf-8"))
        for key, (calls, self_s, total_s) in dump["stats"].items():
            row = stats.setdefault(key, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += self_s
            row[2] += total_s
        for key in GAUGES:
            gauges[key] += dump["gauges"][key]
        if dump["import_s"] is not None:
            imports.append(dump["import_s"])
        spans += [{"op": tag, "pid": dump["pid"], "id": s[0], "parent": s[1],
                   "name": s[2], "start_s": s[3], "dur_s": s[4], "label": s[5]}
                  for s in dump["spans"]]
    return {"stats": stats, "gauges": gauges, "imports": imports, "spans": spans,
            "plain_wall": plain.wall, "plain_cpu": plain.cpu, "traced_wall": traced.wall}


def metrics_of(pair: dict) -> dict[str, tuple[float, str]]:
    stats, none = pair["stats"], [0, 0.0, 0.0]
    out = {f"{k}_s": (stats.get(k, none)[1], "s") for k in SELF_S}
    out.update({f"{k}_s": (stats.get(k, none)[2], "s") for k in TOTAL_S})
    out.update({f"{k}_calls": (stats.get(k, none)[0], "count") for k in CALLS})
    out.update({k: (pair["gauges"][k], "count") for k in GAUGES})
    label_spans = [s["dur_s"] for s in pair["spans"] if s["name"] == LABEL_SPAN]
    out["verify.label_max_s"] = (max(label_spans, default=0.0), "s")
    out["verify.pool_cpu_per_wall"] = (pair["plain_cpu"] / pair["plain_wall"], "s/s")
    out["setup.import_s"] = (statistics.median(pair["imports"]), "s")
    out["trace.untraced_wall_s"] = (pair["plain_wall"], "s")
    out["trace.wall_s"] = (pair["traced_wall"], "s")
    out["trace.overhead_s"] = (pair["traced_wall"] - pair["plain_wall"], "s")
    return out


def summarize(pairs: list[dict]) -> tuple[dict, str, list]:
    """Low median of each metric over the traced pairs (a value one pair
    measured, so counts stay whole), the last pair's table and spans."""
    per_pair = [metrics_of(p) for p in pairs]
    metrics = {name: {"value": statistics.median_low(m[name][0] for m in per_pair),
                      "unit": unit}
               for name, (_, unit) in per_pair[0].items()}
    last = pairs[-1]
    lines = [f"{'function':44s} {'calls':>10s} {'self_s':>10s} {'total_s':>10s}"]
    for key, (calls, self_s, total_s) in sorted(last["stats"].items(),
                                                key=lambda kv: -kv[1][1]):
        lines.append(f"{key:44s} {calls:10d} {self_s:10.4f} {total_s:10.4f}")
    lines.append("")
    lines += [f"{name:44s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    overhead = metrics["trace.overhead_s"]["value"]
    base = metrics["trace.untraced_wall_s"]["value"]
    lines.append(f"tracing overhead: {overhead:.3f} s on an untraced wall of "
                 f"{base:.3f} s ({100 * overhead / base:.1f} %)")
    t0 = min((s["start_s"] for s in last["spans"]), default=0.0)
    spans = [dict(s, start_s=s["start_s"] - t0) for s in last["spans"]]
    return metrics, "\n".join(lines), spans
