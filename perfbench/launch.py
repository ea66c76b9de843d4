"""Spawns the benchmark's processes from a small parent, one request per line.

run.py starts this under `python3 -I -S` and writes one JSON request per line:
{"argv": [...], "out": PATH, "err": PATH}.  For each it spawns the process with
standard output and error redirected to the files, waits for it and answers
{"wall": s, "cpu": s, "rss_mb": MB, "code": n}.

Linux carries a parent's peak resident size into a child at exec, so the
child's ru_maxrss is never below its parent's.  Spawning from this process,
which holds a few MB, keeps that floor below any conicfans process; spawned
from run.py, which holds the reference data, it would not be.
"""

import json
import os
import sys
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        out = os.open(req["out"], flags, 0o644)
        err = os.open(req["err"], flags, 0o644)
        try:
            t0 = time.perf_counter()
            pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ,
                                 file_actions=[(os.POSIX_SPAWN_DUP2, out, 1),
                                               (os.POSIX_SPAWN_DUP2, err, 2)])
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - t0
        finally:
            os.close(out)
            os.close(err)
        sys.stdout.write(json.dumps({
            "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "code": os.waitstatus_to_exitcode(status)}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
