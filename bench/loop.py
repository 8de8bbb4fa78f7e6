"""The timed closed loop, in a process of its own.

    python3 bench/loop.py PLAN.json RESULTS.json

PLAN.json: ``{"reference": [argv, repeats], "setup": [argv, repeats],
"ops": [argv, ...], "seconds": S, "timeout": T, "deadline": D,
"cwd": DIR}``.  Runs whole rounds, each the reference and the set-up
command ``repeats`` times apiece and then ``ops`` (each one process after
the other), while another round fits in ``seconds``, and writes every
wall time (the reference's and set-up's grouped by round), exit code,
peak RSS and standard output to RESULTS.json.  An operation is killed after T seconds, or when D seconds
have passed since the start (so a hung program cannot hold a run for
long).

The loop lives here, away from ``run.py``, because a child's peak RSS as
the kernel reports it includes the memory of the process it was forked
from: this one imports nothing but the standard library, so it stays
smaller than any holopoisson process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time


def run(argv, cwd, timeout, env=None):
    """One process: its wall time, exit code, own peak RSS (from wait4)
    and output."""
    with tempfile.TemporaryFile() as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return {"code": proc.returncode, "wall_s": wall,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": out.decode("utf-8", "replace"),
                "stderr": err.read().decode("utf-8", "replace")}


def main(plan_path, results_path):
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    cwd = plan["cwd"]
    started = time.perf_counter()

    def timeout():
        left = plan["deadline"] - (time.perf_counter() - started)
        return max(1.0, min(plan["timeout"], left))

    def samples(key):
        argv, repeats = plan.get(key) or (None, 0)
        out = [run(argv, cwd, timeout()) for _ in range(repeats)]
        failed = [r["stderr"] for r in out if r["code"] != 0]
        if failed:
            raise SystemExit(f"{key} command failed: {failed[0][-500:]}")
        return [r["wall_s"] for r in out]

    reference, setup, rounds = [], [], []
    measured = time.perf_counter()
    last = 0.0
    # a round starts only if one as long as the last ends in time, so a
    # run keeps to its length whatever a round takes
    while (not rounds
           or time.perf_counter() - measured + last <= plan["seconds"]):
        begun = time.perf_counter()
        reference.append(samples("reference"))
        setup.append(samples("setup"))
        rounds.append([run(argv, cwd, timeout()) for argv in plan["ops"]])
        last = time.perf_counter() - begun
    with open(results_path, "w", encoding="utf-8") as handle:
        json.dump({"reference": reference, "setup": setup,
                   "rounds": rounds}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
