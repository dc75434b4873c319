#!/usr/bin/env python3
"""Build and run the CityMesh benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, one process each

Run from the repository root. The first call configures and builds an
optimized copy of the library plus the driver under .bench_build/perfbench;
later calls only rebuild what changed. Each workload runs in its own process
(peak RSS is per process). The last line of stdout is the driver's JSON
result; a failed build, check or validation prints no result and exits 1.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("capacity-hotspot", "metro-tiled", "paper-eval")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no CityMesh sources: expected src/CMakeLists.txt beside perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", "2"])
    for step in steps:
        # Build logs go to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                          capture_output=True, text=True, env=env)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload, seed, seconds, trace, sha):
    """Runs one workload in its own process; returns (stdout lines, result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--commit", sha]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("\n".join(lines))
        fail(f"{workload} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != expected_metrics(trace) or not result["correct"]:
        print("\n".join(lines[:-1]))
        fail(f"{workload} reported metrics that do not match BENCHMARK.json")
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    sha = commit()
    if args.workload != "all":
        lines, result = run_one(args.workload, args.seed, args.seconds, args.trace, sha)
        print("\n".join(lines))
        print(json.dumps(result))
        return

    summary = []
    for workload in WORKLOADS:
        lines, result = run_one(workload, args.seed, args.seconds, args.trace, sha)
        print("\n".join(lines) + "\n")
        summary.append((workload, result))
    print(f"{'workload':18} {'attempted':>9} {'failed':>6}  metrics")
    for workload, result in summary:
        metrics = "  ".join(f"{name}={m['value']:.6g} {m['unit']}"
                            for name, m in result["metrics"].items())
        print(f"{workload:18} {result['attempted']:9} {result['failed']:6}  {metrics}")


if __name__ == "__main__":
    main()
