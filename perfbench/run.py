#!/usr/bin/env python3
"""Builds and runs the HELIX end-to-end benchmark for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite-run --seed 1 --seconds 25 --trace 0

The C++ harness (perfbench.cpp) is compiled with its own CMake project into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last line
of stdout is the result JSON; everything else goes to stderr. The exit code
is non-zero when an operation failed, an exact count drifted, or the build
failed (then no result is printed).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def compare_exact(old, new):
    """Drift messages between two {input: {count: value}} records of runs
    with one seed. Exact counts must repeat identically; an input or count
    present in only one record is drift too."""
    drift = []
    for key in sorted(set(old) | set(new)):
        if key not in old or key not in new:
            drift.append(f"{key}: visited in only one run")
            continue
        for name in sorted(set(old[key]) | set(new[key])):
            a, b = old[key].get(name), new[key].get(name)
            if a != b:
                drift.append(f"{key}: {name} {a} -> {b}")
    return drift


def check_against_record(record_path, exact):
    """Compares \\p exact with the record of an earlier run of the same seed
    and binary, or stores it as that record. Returns the drift messages."""
    if os.path.exists(record_path):
        with open(record_path) as f:
            return compare_exact(json.load(f), exact)
    os.makedirs(os.path.dirname(record_path), exist_ok=True)
    with open(record_path, "w") as f:
        json.dump(exact, f, indent=1, sort_keys=True)
    return []


def build(build_dir):
    if not os.path.isdir(os.path.join(os.getcwd(), "src")):
        log("no src/ here: run from the root of a full checkout")
        return None
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", "4", "--target", "perfbench"]]
    if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench")


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # Relative, so the serve workload's socket path stays short.
    build_dir = os.path.relpath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    exe = build(os.path.abspath(build_dir))
    if exe is None:
        return 2

    with open(exe, "rb") as f:
        exe_hash = hashlib.sha256(f.read()).hexdigest()[:16]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    exact_path = os.path.join(build_dir, f"exact-{tag}.json")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", build_dir, "--exact-out", exact_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"no result (exit code {proc.returncode})")
        return proc.returncode or 4
    result = json.loads(lines[-1])

    declared = declared_metrics(args.trace)
    printed = [(k, v["unit"]) for k, v in result["metrics"].items()]
    if declared is not None and sorted(declared) != sorted(printed):
        log("metrics differ from BENCHMARK.json: "
            f"{sorted(set(declared) ^ set(printed))}")
        return 5

    # Exact counts must repeat between runs of one seed on one binary.
    with open(exact_path) as f:
        exact = json.load(f)
    record = os.path.join(build_dir, "exact", f"{tag}-{exe_hash}.json")
    drift = check_against_record(record, exact)
    for msg in drift[:20]:
        log("exact count drift: " + msg)
    if drift:
        result["correct"] = False

    print(json.dumps(result))
    if drift:
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
