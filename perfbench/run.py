#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark binary is built from source
with cargo (offline) into $CARGO_TARGET_DIR, or `.bench_build` when that
is unset; build output goes to standard error. The binary's standard
output is passed through, so the last line printed is its JSON result.
The exit code is the build's when the build fails, else the binary's.

`--self-test` runs every workload once at smoke size in both trace modes,
checks each result line against the metric names and units declared in
BENCHMARK.json, and checks that a wrong expected fingerprint is reported
as a failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Builds the binary; returns its path, or exits with cargo's code."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, env=env)
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(done.returncode or 1)
    return os.path.join(ROOT, target_dir(), "release", "perfbench")


def bench_args(binary, args):
    work = os.path.join(target_dir(), "perfbench-work")
    return [binary] + args + ["--work-dir", work]


def run_captured(binary, args):
    """Runs the binary and returns (exit code, parsed result or None)."""
    done = subprocess.run(bench_args(binary, args), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return done.returncode, result


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, metrics in declared.items():
            code, result = run_captured(binary, [
                "--workload", name, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--smoke"])
            what = f"{name} --trace {trace}"
            if result is None:
                problems.append(f"{what}: exit {code}, no result")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{what}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0:
                problems.append(f"{what}: not correct: {result.get('failed')} failed")
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            if got != metrics:
                problems.append(f"{what}: metrics {got} != declared {metrics}")
            print(f"self-test {what}: {len(got)} metrics, "
                  f"{result.get('attempted')} operations", file=sys.stderr)
        code, result = run_captured(binary, [
            "--workload", name, "--seed", "7", "--seconds", "1", "--trace", "0",
            "--smoke", "--expect-fingerprint", "0000000000000000"])
        if result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"{name}: a wrong fingerprint was not reported")
    for p in problems:
        print(f"self-test FAILED {p}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


def main():
    args = sys.argv[1:]
    binary = build()
    if args == ["--self-test"]:
        sys.exit(self_test(binary))
    done = subprocess.run(bench_args(binary, args), cwd=ROOT)
    sys.exit(done.returncode if done.returncode >= 0 else 1)


if __name__ == "__main__":
    main()
