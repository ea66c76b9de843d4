"""Steadiness check: repeat each workload and compare each metric's spread to its bound.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                                [--save FILE] [--against FILE]

Run from the root of a checkout.  Each run uses its own seed.  For every
end-to-end metric in BENCHMARK.json it prints the median and the spread, the
distance between the first and third quartile as a share of the median, next
to the metric's bound; the target is a spread below a third of the bound.
--save writes the values; --against compares the medians with a saved set and
flags any metric whose median got worse by more than its bound.  Exits 1 when
an output is incorrect, a spread exceeds its bound, the share of failed
operations differs between runs, or a median moved by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_workload(spec: dict, workload: str, seeds: range) -> dict:
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    shares, correct = set(), True
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= res["correct"]
        shares.add(Fraction(res["failed"], res["attempted"]))
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        print(f"  {workload} seed {seed}: " + ", ".join(
            f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    return {"values": values, "correct": correct,
            "failed_shares": sorted(str(s) for s in shares)}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append")
    p.add_argument("--save", type=Path)
    p.add_argument("--against", type=Path)
    args = p.parse_args()
    if args.runs < 2:
        p.error("--runs must be at least 2")
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    base = json.loads(args.against.read_text(encoding="utf-8")) if args.against else {}
    results, ok = {}, True
    for workload in names:
        res = results[workload] = run_workload(spec, workload, seeds)
        if not res["correct"]:
            print(f"{workload}: an output failed its correctness check")
            ok = False
        if len(res["failed_shares"]) != 1:
            print(f"{workload}: failed share differs between runs: {res['failed_shares']}")
            ok = False
        for name, vals in res["values"].items():
            med, spr, bound = statistics.median(vals), spread(vals), bounds[name]
            verdict = "ok" if spr <= bound / 3 else ("within bound" if spr <= bound else "FAIL")
            line = (f"{workload:14s} {name:12s} median {med:10.4f}  spread {100 * spr:6.2f} %"
                    f"  bound {100 * bound:5.1f} %  {verdict}")
            if spr > bound:
                ok = False
            if workload in base:
                old = statistics.median(base[workload]["values"][name])
                drift = (med - old) / old
                line += f"  vs saved median {old:.4f}: {100 * drift:+.2f} %"
                if drift > bound:
                    line += " WORSE"
                    ok = False
            print(line)
    if args.save:
        args.save.write_text(json.dumps(results, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
