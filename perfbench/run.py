"""Benchmark runner for conicfans: one workload per invocation.

    python3 perfbench/run.py --workload verify-serial --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ./src.  A closed
loop of one client runs the workload's operations one at a time, each in a
fresh interpreter, and waits for each verdict.  Whole rounds repeat until
--seconds have passed.  The last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced round with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import refs

ROOT = Path.cwd()
OUT = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent
PY = sys.executable

SETUP_STARTS = 16
SETUP_CODE = "import conicfans, conicfans.verify as v; v.load_golden()"
LABELS = ["B3", "B4", "B5", "B6", "B7", "B8", "D4", "D5", "D6", "D7", "D8",
          "E6", "E7", "E8", "F4", "G2"]


@dataclass
class Op:
    """One request of the closed loop: a conicfans CLI call or an ops.py call."""

    tag: str
    args: list[str]
    cli: bool
    check: Callable[[str], list[str]]

    def argv(self, trace_file: Path | None) -> list[str]:
        target = ["-m", "conicfans.cli"] if self.cli else [str(HERE / "ops.py")]
        if trace_file is None:
            return [PY, *target, *self.args]
        kind = ["--cli"] if self.cli else ["--script", str(HERE / "ops.py")]
        return [PY, str(HERE / "tracer.py"), "--out", str(trace_file), *kind, *self.args]


@dataclass
class Done:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    out: str


@dataclass
class Round:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


class Launcher:
    """Runs processes one at a time through launch.py, which times each one."""

    def __init__(self, seed: int):
        self.proc = subprocess.Popen([PY, "-I", "-S", str(HERE / "launch.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=child_env(seed), cwd=ROOT, text=True)

    def run(self, argv: list[str], tag: str) -> Done:
        out_path = OUT / f"{tag}.out"
        self.proc.stdin.write(json.dumps({"argv": argv, "out": str(out_path),
                                          "err": str(OUT / f"{tag}.err")}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launch.py ended early")
        r = json.loads(reply)
        return Done(r["wall"], r["cpu"], r["rss_mb"], r["code"],
                    out_path.read_text(encoding="utf-8"))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


# ---------------------------------------------------------------------------
# workloads

class Refs:
    """References for one run, each computed once, outside the timed rounds."""

    def __init__(self, launcher: Launcher):
        done = launcher.run([PY, str(HERE / "ops.py"), "golden"], "golden")
        if done.code != 0:
            raise RuntimeError(f"ops.py golden exited {done.code}")
        golden = json.loads(done.out)
        self.errors = [f"golden file {n}.json differs from golden_payload()"
                       for n in golden["mismatched"]]
        if golden["labels"] != LABELS:
            self.errors.append(f"supported labels are {golden['labels']}")
        self.payload = golden["payload"]
        self.roster = refs.check_roster(LABELS, golden["ruzzi_fixtures"])
        self.atlas_roster = {
            label: refs.check_roster([label], golden["ruzzi_fixtures"], scope="atlas")
            for label in LABELS}


def verify_ops(seed: int, ref: Refs, jobs: int) -> list[Op]:
    args = ["--format", "json", "--seed", str(seed), "verify", "all", "--jobs", str(jobs)]
    return [Op(f"verify-jobs{jobs}", args, True,
               lambda out: refs.check_verify_report(out, ref.roster))]


def atlas_ops(seed: int, ref: Refs) -> list[Op]:
    labels = LABELS[:]
    random.Random(seed).shuffle(labels)

    def check_for(label):
        return lambda out: refs.check_atlas(
            label, json.loads(out), ref.payload, ref.atlas_roster[label])
    return [Op(f"atlas-{label}", ["atlas", label], False, check_for(label))
            for label in labels]


def contact_ops(seed: int, ref: Refs) -> list[Op]:
    counts = refs.sympy_root_counts(["E6", "E7", "E8"])
    e8_roots = refs.root_system(8)
    if len(e8_roots) != counts["E8"]:
        ref.errors.append(f"E8 root system has {len(e8_roots)} roots, sympy has "
                          f"{counts['E8']}")

    def check_g2(out: str) -> list[str]:
        rep = json.loads(out)
        errors = [f"G2 violation: {v}" for v in rep["violations"]]
        if rep["counts"]["samples"] != 10_000:
            errors.append(f"G2 report covers {rep['counts']['samples']} samples, not 10000")
        if rep["counts"]["cubic_zero_hits"] <= 0:
            errors.append("G2 report has no cubic zero")
        if rep["witnesses"] != {"line_direction_cubic_vanishes": True,
                                "general_direction_cubic_vanishes": False}:
            errors.append(f"G2 witnesses are {rep['witnesses']}")
        return errors

    def check_twistor(label):
        def check(out: str) -> list[str]:
            rep = json.loads(out)
            errors = []
            if not all(rep["extremal"]) or len(rep["extremal"]) != 20:
                errors.append(f"{label}: twistor samples not all extremal")
            if rep["roots"] != counts[label]:
                errors.append(f"{label}: {rep['roots']} roots, sympy has {counts[label]}")
            return errors
        return check

    def check_b3(out: str) -> list[str]:
        return [] if json.loads(out)["direction"] else ["B3 search found no direction"]

    rng = random.Random(seed)
    ops = [Op("contact-G2", ["--seed", str(seed), "contact-eq", "G2", "--samples", "10000"],
              True, check_g2)]
    for label in ("E6", "E7", "E8"):
        times = [f"{rng.randint(-40, 40)}/{rng.randint(1, 20)}" for _ in range(20)]
        ops.append(Op(f"twistor-{label}", ["twistor", label, *times], False,
                      check_twistor(label)))
    ops.append(Op("b3search", ["b3search"], False, check_b3))
    ops.append(Op("csv-E8", ["export", "constants-csv", "E8"], True,
                  lambda out: refs.check_constants_csv(out, e8_roots)))
    return ops


WORKLOADS = {
    "verify-serial": lambda seed, ref: verify_ops(seed, ref, 1),
    "verify-pool": lambda seed, ref: verify_ops(seed, ref, 2),
    "atlas-cold": atlas_ops,
    "contact": contact_ops,
}


# ---------------------------------------------------------------------------
# measurement

def run_round(ops: list[Op], launcher: Launcher, trace_dir: Path | None = None) -> Round:
    """One pass over the operations; checks run after the round's clock stops."""
    r = Round()
    done = []
    t0 = time.perf_counter()
    for op in ops:
        trace_file = trace_dir / f"{op.tag}.json" if trace_dir else None
        done.append(launcher.run(op.argv(trace_file), op.tag))
    r.wall = time.perf_counter() - t0
    for op, d in zip(ops, done):
        r.attempted += 1
        r.cpu += d.cpu
        r.rss_mb = max(r.rss_mb, d.rss_mb)
        if d.code != 0:
            r.failed += 1
            continue
        try:
            r.errors += op.check(d.out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            r.errors.append(f"{op.tag}: unreadable output ({exc!r})")
    return r


def cold_starts(launcher: Launcher, n: int) -> list[float]:
    return [launcher.run([PY, "-c", SETUP_CODE], "setup").wall for _ in range(n)]


def result(ref: Refs, rounds: list[Round], metrics: dict) -> dict:
    errors = ref.errors + [e for r in rounds for e in r.errors]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    return {"correct": not errors,
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": metrics}


def end_to_end(launcher: Launcher, workload: str, seed: int, seconds: float) -> dict:
    # half the cold starts before the rounds and half after, so that setup_s
    # samples the machine at two moments of the run
    setup = cold_starts(launcher, SETUP_STARTS // 2)
    ref = Refs(launcher)
    ops = WORKLOADS[workload](seed, ref)
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(run_round(ops, launcher))
    setup += cold_starts(launcher, SETUP_STARTS - SETUP_STARTS // 2)
    med = statistics.median
    return result(ref, rounds, {
        "wall_s": {"value": med([r.wall for r in rounds]), "unit": "s"},
        "cpu_s": {"value": med([r.cpu for r in rounds]), "unit": "s"},
        "setup_s": {"value": med(setup), "unit": "s"},
        "peak_rss_mb": {"value": med([r.rss_mb for r in rounds]), "unit": "MB"},
    })


def traced(launcher: Launcher, workload: str, seed: int, seconds: float) -> dict:
    import layers
    ref = Refs(launcher)
    ops = WORKLOADS[workload](seed, ref)
    trace_dir = OUT / f"trace-{workload}"
    trace_dir.mkdir(exist_ok=True)
    rounds, pairs = [], []
    t0 = time.perf_counter()
    while not pairs or time.perf_counter() - t0 < seconds:
        for f in trace_dir.iterdir():
            f.unlink()
        plain = run_round(ops, launcher)
        tr = run_round(ops, launcher, trace_dir)
        rounds += [plain, tr]
        pairs.append(layers.collect(trace_dir, plain, tr))
    metrics, table, spans = layers.summarize(pairs)
    (OUT / f"{workload}-layers.txt").write_text(table, encoding="utf-8")
    (OUT / f"{workload}-trace.json").write_text(json.dumps(spans), encoding="utf-8")
    print(table)
    print(f"per-layer table: {OUT / f'{workload}-layers.txt'}")
    print(f"trace file: {OUT / f'{workload}-trace.json'}")
    return result(ref, rounds, metrics)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "conicfans" / "__init__.py").is_file():
        print(f"no conicfans sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    launcher = Launcher(args.seed)
    try:
        # the first start compiles bytecode, which an install does once
        if launcher.run([PY, "-c", SETUP_CODE], "setup").code != 0:
            print("conicfans does not import; see .perfbench/setup.err", file=sys.stderr)
            return 1
        run = traced if args.trace else end_to_end
        res = run(launcher, args.workload, args.seed, args.seconds)
    finally:
        launcher.close()
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
