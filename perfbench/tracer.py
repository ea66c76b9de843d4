"""Out-of-process tracer for conicfans: wraps the public functions of each module.

Run a program under the tracer with

    python3 perfbench/tracer.py --out FILE --cli <conicfans CLI args>
    python3 perfbench/tracer.py --out FILE --script perfbench/ops.py <op args>

The tracer imports the conicfans modules, replaces every public module-level
function (and the copies other modules imported under the same name) with a
timing wrapper, then runs the target.  Wrappers keep per-function call counts,
self time (a call's duration minus the time its wrapped children cover) and
inclusive time of outermost calls; calls of at least SPAN_MIN_S seconds, and
every call into ``verify``, are kept as spans.  Everything stays in memory and
is written to FILE when the process ends; a worker forked by ``verify --jobs``
writes FILE.<pid> when it exits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import multiprocessing.util
import os
import runpy
import sys
import time

MODULES = ("linalg", "rootcore", "symdata", "lunavust", "conicatlas",
           "chevalley", "verify", "cli")

# Methods traced besides module functions: the Killing form is recomputed by
# RootDatum.is_long on every call, which the atlas layer pays for.
METHODS = (("rootcore", "RootDatum", "killing_pair"),)

SPAN_MIN_S = 0.001
ALWAYS_SPAN = ("verify.",)


class Tracer:
    """Per-process span and counter store shared by all wrappers."""

    def __init__(self):
        self.stack: list[list] = []     # frames: [child_time, span_id]
        self.stats: dict[str, list] = {}  # key -> [calls, self_s, total_s, depth]
        self.spans: list[tuple] = []
        self.ids = itertools.count(1)
        self.structure_constants: dict[int, object] = {}
        self.import_s: float | None = None
        self.out: str | None = None

    def wrap(self, fn, key: str):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack, spans, ids = self.stack, self.spans, self.ids
        clock = time.perf_counter
        always = key.startswith(ALWAYS_SPAN)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            frame = [0.0, next(ids)]
            stack.append(frame)
            stats[3] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stats[3] -= 1
                stats[0] += 1
                stats[1] += dur - frame[0]
                if not stats[3]:
                    stats[2] += dur
                if stack:
                    stack[-1][0] += dur
                if always or dur >= SPAN_MIN_S:
                    label = args[0] if args and isinstance(args[0], str) else None
                    spans.append((frame[1], parent, key, t0, dur, label))

        return wrapper

    def install(self) -> None:
        t0 = time.perf_counter()
        mods = {name: importlib.import_module(f"conicfans.{name}") for name in MODULES}
        self.import_s = time.perf_counter() - t0
        bsc = mods["chevalley"].build_structure_constants
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or id(obj) in wrapped:
                    continue
                traceable = inspect.isfunction(obj) or hasattr(obj, "cache_info")
                if traceable and getattr(obj, "__module__", None) == mod.__name__:
                    target = self._keep_structure_constants(obj) if obj is bsc else obj
                    wrapped[id(obj)] = self.wrap(target, f"{short}.{name}")
        # rebind every name that refers to a traced function, imports included
        for mod in (*mods.values(), importlib.import_module("conicfans")):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])
        for short, cls, meth in METHODS:
            klass = getattr(mods[short], cls)
            setattr(klass, meth, self.wrap(getattr(klass, meth), f"{short}.{meth}"))
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _keep_structure_constants(self, fn):
        @functools.wraps(fn)
        def keep(*args, **kwargs):
            sc = fn(*args, **kwargs)
            self.structure_constants[id(sc)] = sc
            return sc
        return keep

    def _after_fork(self) -> None:
        """Start a forked worker with empty counters and dump them at its exit."""
        self.stack.clear()
        self.spans.clear()
        for row in self.stats.values():
            row[:] = [0, 0.0, 0.0, 0]
        self.structure_constants.clear()
        self.import_s = None
        if self.out is not None:
            self.out = f"{self.out}.{os.getpid()}"
            multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def gauges(self) -> dict:
        lunavust = sys.modules["conicfans.lunavust"]
        return {
            "chevalley.n_memo_entries":
                sum(len(sc._memo) for sc in self.structure_constants.values()),
            "lunavust.faces_memo_entries":
                sum(len(v) for v in lunavust._faces_memo.values()),
        }

    def dump(self) -> None:
        payload = {
            "pid": os.getpid(),
            "import_s": self.import_s,
            "stats": {k: v[:3] for k, v in self.stats.items() if v[0]},
            "gauges": self.gauges(),
            "spans": self.spans,
        }
        with open(self.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--out" or argv[2] not in ("--cli", "--script"):
        print("usage: tracer.py --out FILE (--cli ARGS... | --script PATH ARGS...)",
              file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.out = argv[1]
    tracer.install()
    code = 0
    try:
        if argv[2] == "--cli":
            code = sys.modules["conicfans.cli"].main(argv[3:])
        else:
            sys.argv = argv[3:]
            runpy.run_path(argv[3], run_name="__main__")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
