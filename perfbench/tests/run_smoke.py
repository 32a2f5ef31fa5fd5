#!/usr/bin/env python3
"""Runs one workload on its shrunken (--smoke) inputs and checks its result.

Fails unless the binary exits 0 and run.py's composition of its output
reports a correct run with at least one operation, none failed, and every
metric of the run's kind in BENCHMARK.json measured under a listed name.

    python3 run_smoke.py BINARY WORKLOAD TRACE TMPDIR

TMPDIR is relative to the working directory, so the socket path stays
short; it is removed afterwards.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # Leave no __pycache__ in the sources.
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402  (perfbench/run.py)


def main():
    binary, workload, trace, tmpdir = sys.argv[1:5]
    shutil.rmtree(tmpdir, ignore_errors=True)
    os.makedirs(tmpdir)
    try:
        done = subprocess.run(
            [binary, "--workload", workload, "--seed", "7", "--seconds", "2",
             "--trace", trace, "--tmpdir", tmpdir, "--smoke"],
            stdout=subprocess.PIPE, text=True, timeout=120)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(done.stdout)
    if done.returncode != 0:
        print("%s (trace %s) exited with %d" % (workload, trace, done.returncode))
        return 1
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        spec = json.load(f)
    _, result, problems = run.compose(done.stdout, int(trace), spec)
    for problem in problems:
        print("error: %s" % problem)
    if problems or not result["correct"] or result["attempted"] < 1 or \
            result["failed"] != 0:
        print("%s (trace %s) result: %s" % (workload, trace, json.dumps(result)))
        return 1
    print("%s (trace %s): %d metrics" % (workload, trace, len(result["metrics"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
