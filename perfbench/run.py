#!/usr/bin/env python3
"""End-to-end benchmark runner: builds perfbench_e2e and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The first form prints the program's notes and metric lines, then, as the
last line, one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1 (which also writes a Chrome trace under the build directory).
"--workload all" runs every workload in turn and prints one table of
every metric with its unit.

The program is built from the repository's sources (Release, NDEBUG)
into $CARGO_TARGET_DIR, or .bench_build when unset, relative to the
working directory. Nothing is written outside the working directory.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet", "cast", "async")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def usable_cores():
    return max(1, len(os.sched_getaffinity(0)))


def build(build_root, env):
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(usable_cores())])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    binary = os.path.join(build_dir, "perfbench_e2e")
    if not os.path.exists(binary):
        fail("build produced no perfbench_e2e")
    return binary


def run_one(binary, build_root, env, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        trace_dir = os.path.join(build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{workload}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} run timed out")
    if done.returncode != 0:
        fail(f"{workload} run exited with {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{workload} run printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} result has keys {sorted(result)}")
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("the program's sources (src/) are not beside perfbench/")
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(build_root, "tmp")  # compiler temporaries
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = build(build_root, env)

    if args.workload != "all":
        notes, result = run_one(binary, build_root, env, args.workload,
                                args.seed, args.seconds, args.trace)
        print("\n".join(notes))
        print(json.dumps(result))
        return

    # One table: every metric by name, with its unit, per workload.
    results = {}
    for w in WORKLOADS:
        notes, results[w] = run_one(binary, build_root, env, w, args.seed,
                                    args.seconds, args.trace)
        print("\n".join(n for n in notes if n.startswith("# ")))
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"{'metric':30} {'unit':8}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        row = "".join(f"{results[w]['metrics'][name]['value']:16.6g}"
                      for w in WORKLOADS)
        print(f"{name:30} {unit:8}{row}")
    for w in WORKLOADS:
        r = results[w]
        print(f"{w}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}")


if __name__ == "__main__":
    main()
