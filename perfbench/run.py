#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload serve_cms --seed 1 --seconds 30 --trace 0

Run from the repository root. The benchmark and the opthash library it
drives are compiled (Release) into .bench_build/ on first use; later runs
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Each run gets its own temporary
directory under .bench_build/, removed when the run ends, whether it
succeeded or not. With --trace 1 the spans are kept in
.bench_build/traces/<workload>-seed<seed>.jsonl.

The binary prints every metric it measured by name; BENCHMARK.json alone
says which metrics exist, their units, and which are end to end (printed
with --trace 0) or per layer (--trace 1). A metric of the run's kind that
the binary did not report, or a name BENCHMARK.json does not list, makes
the run fail.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"  # Relative to ROOT, so socket paths stay short.
WORKLOADS = ("serve_cms", "learn_aol", "learn_synthetic_bcd")
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def build():
    """Configure and build; True when the benchmark binary is ready."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", BUILD_JOBS, "--target", "perfbench"],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def compose(binary_stdout, trace, spec):
    """The benchmark's result from the binary's stdout.

    Returns (lines, result, problems): the binary's lines before its last
    one, the result object with the metrics of the run's kind and their
    units from `spec` (the parsed BENCHMARK.json), and a list of what was
    wrong (an empty list when nothing was).
    """
    lines = binary_stdout.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
        values = raw["values"]
    except (ValueError, KeyError, TypeError):
        return lines, None, ["the binary printed no result line"]
    kind = spec["per_layer"] if trace else spec["end_to_end"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems = ["unknown metric %s" % name for name in values
                if name not in known]
    metrics = {}
    for m in kind:
        if m["name"] not in values:
            problems.append("metric %s was not measured" % m["name"])
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {
        "correct": raw["correct"] and not problems,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    return lines[:-1], result, problems


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    os.makedirs(os.path.join(ROOT, BUILD, "traces"), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, BUILD))
    command = [
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tmpdir", os.path.relpath(run_dir, ROOT),
        "--git-sha", git_sha(),
    ]
    if args.trace == 1:
        command += ["--trace-out", os.path.join(
            BUILD, "traces", "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    lines, result, problems = compose(done.stdout, args.trace, spec)
    for line in lines:
        print(line)
    for problem in problems:
        print("# error: %s" % problem)
    if result is None:
        return 1
    print(json.dumps(result))
    return done.returncode if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
