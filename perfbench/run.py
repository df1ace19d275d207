#!/usr/bin/env python3
"""Repository benchmark entry point (named by BENCHMARK.json).

    python3 perfbench/run.py --workload paper_run|sweep|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the
repository's libraries from source) into .bench_build/, runs the citbench
program with every CIT_* environment override removed, checks that the
metrics it reports are exactly the ones BENCHMARK.json declares, and
prints its report with the result JSON as the last line.

With --trace 1 the result holds every per-layer metric: a metric whose
layer the workload does not exercise (perfbench/metrics.json lists the
workloads of each) reads 0. Build output goes to stderr; the full report
and, when traced, the span log land in .bench_build/results/.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build/cmake"
RESULTS_DIR = ".bench_build/results"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    for path in ("CMakeLists.txt", "src", "perfbench/CMakeLists.txt"):
        if not os.path.exists(path):
            fail(f"{path} not found: run from the repository root")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "citbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "citbench")


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over the sources the benchmark builds (works without git)."""
    h = hashlib.sha256()
    files = ["CMakeLists.txt"]
    for top in ("src", "perfbench"):
        for root, dirs, names in os.walk(top):
            dirs.sort()
            files += [os.path.join(root, n) for n in sorted(names)]
    for path in files:
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open("perfbench/metrics.json") as f:
        docs = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return bench[key], docs[key]


def check_metrics(result, workload, trace):
    declared, docs = declared_metrics(trace)
    got = result["metrics"]
    units = {m["name"]: m["unit"] for m in declared}
    extra = sorted(set(got) - set(units))
    if extra:
        fail(f"undeclared metrics reported: {extra}")
    for name, m in got.items():
        if m["unit"] != units[name]:
            fail(f"{name}: unit {m['unit']} != declared {units[name]}")
    metrics = {}
    for name, unit in units.items():
        if name in got:
            metrics[name] = got[name]
        elif trace and workload not in docs[name]["workloads"]:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail(f"{workload} did not report {name}")
    result["metrics"] = metrics
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["paper_run", "sweep", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("CIT_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", RESULTS_DIR, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"citbench did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"citbench exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("citbench printed no result line")
    result = check_metrics(result, args.workload, bool(args.trace))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
