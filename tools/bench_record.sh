#!/usr/bin/env sh
# Record committed perf rows: for every workload of BENCHMARK.json, runs
# perfbench untraced (10 processes) and traced (one process), each for the
# benchmark's run_seconds, and writes one row per checkout into
# BENCH_<workload>.json at the repository root.
#
# Usage: tools/bench_record.sh [--baseline DIR]
#   --baseline DIR  another checkout of this repository (e.g. the parent
#                   commit, made with git clone): its runs pair up with this
#                   checkout's, alternating which side goes first, and the
#                   file gains a "pairs" entry comparing the two
#
# A row holds the host line, its key, each end-to-end metric's median and
# interquartile range over the untraced processes, and the traced layer
# table. The key ("tree") names the code that was measured: the hash of
# the checkout's perfbench/ and src/ trees, all that perfbench builds
# (tools/bench_rows.py), so record after the last edit there; anything
# else may change afterwards. "head" is the checked-out commit, with -dirty
# appended when the measured code is not that commit's. Recording the same
# code again replaces its row; a "pairs" entry keeps its own recording's
# medians. The numbers are only comparable between rows from the same host.
set -eu
repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
exec python3 - "${repo_root}" "$@" <<'PY'
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

root = sys.argv[1]
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(root, "tools"))
from bench_rows import source_tree  # noqa: E402

RUNS = 10
parser = argparse.ArgumentParser(prog="bench_record.sh")
parser.add_argument("--baseline")
args = parser.parse_args(sys.argv[2:])
with open(os.path.join(root, "BENCHMARK.json")) as f:
    benchmark = json.load(f)
seconds = benchmark["run_seconds"]
workloads = [w["name"] for w in benchmark["workloads"]]


def run(checkout, workload, trace):
    """One perfbench process; returns (host fields, result JSON, stdout lines)."""
    cmd = ["python3", os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench_record.sh: {' '.join(cmd)} failed in {checkout}")
    host = next(l for l in lines if l.startswith("host: "))[len("host: "):]
    return host, json.loads(lines[-1]), lines


def head(checkout, tree):
    """HEAD's short hash, suffixed -dirty when the measured tree is not HEAD's."""
    sha = subprocess.run(["git", "-C", checkout, "rev-parse", "--short=12", "HEAD"],
                         capture_output=True, text=True, check=True).stdout.strip()
    return sha + ("" if source_tree(checkout, "HEAD") == tree else "-dirty")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def layer_table(lines, title):
    """Parses one 'span  self s  share' table of a traced run."""
    table, inside = {}, False
    for line in lines:
        if line.startswith(title):
            inside = True
            continue
        if not inside:
            continue
        if line.strip().startswith("span"):
            continue
        m = re.match(r"^  (\S+)\s+([0-9.]+)\s+([0-9.]+)%$", line)
        if not m:
            break
        table[m.group(1)] = {"self_s": float(m.group(2)), "share": float(m.group(3)) / 100}
    return table


def row(checkout, tree, host, untraced, traced_lines, traced_result):
    end_to_end = {}
    for name in untraced[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in untraced]
        q1, q3 = quartiles(values)
        end_to_end[name] = {"unit": untraced[0]["metrics"][name]["unit"],
                            "median": statistics.median(values), "q1": q1, "q3": q3,
                            "iqr": q3 - q1, "runs": values}
    return {"tree": tree, "head": head(checkout, tree), "host": host, "seconds": seconds,
            "runs": len(untraced), "end_to_end": end_to_end,
            "setup_layers": layer_table(traced_lines, "set-up layers"),
            "run_layers": layer_table(traced_lines, "run layers"),
            "per_layer": {k: v["value"] for k, v in traced_result["metrics"].items()}}


def pairs(base_runs, change_runs, base_tree, change_tree):
    out = {"baseline": base_tree, "change": change_tree, "n": len(base_runs), "metrics": {}}
    for name in base_runs[0]["metrics"]:
        b = [r["metrics"][name]["value"] for r in base_runs]
        c = [r["metrics"][name]["value"] for r in change_runs]
        deltas = [(y - x) / x for x, y in zip(b, c)]
        q1, q3 = quartiles(b)
        out["metrics"][name] = {
            "baseline_median": statistics.median(b), "change_median": statistics.median(c),
            "baseline_iqr": q3 - q1,
            "median_pair_delta": statistics.median(deltas),
            "pairs_lower": sum(1 for d in deltas if d < 0),
            "pair_deltas": deltas}
    return out


checkouts = ([args.baseline] if args.baseline else []) + [root]
trees = {c: source_tree(c) for c in checkouts}
for workload in workloads:
    untraced = {c: [] for c in checkouts}
    hosts = {}
    for i in range(RUNS):
        # Pairs alternate which side runs first, so host drift within a
        # pair does not favour one side.
        for c in (checkouts if i % 2 == 0 else checkouts[::-1]):
            host, result, _ = run(c, workload, 0)
            hosts[c] = host
            untraced[c].append(result)
            print(f"{workload} run {i + 1}/{RUNS} {trees[c]}: "
                  f"run_s={result['metrics']['run_s']['value']:.4f}", file=sys.stderr)
    rows = []
    for c in checkouts:
        _, traced_result, traced_lines = run(c, workload, 1)
        rows.append(row(c, trees[c], hosts[c], untraced[c], traced_lines, traced_result))

    path = os.path.join(root, f"BENCH_{workload}.json")
    doc = {"schema": "citymesh-bench-v2", "workload": workload, "rows": [], "pairs": []}
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
    for r in rows:
        doc["rows"] = [old for old in doc["rows"] if old["tree"] != r["tree"]] + [r]
    if args.baseline:
        p = pairs(untraced[args.baseline], untraced[root], trees[args.baseline], trees[root])
        doc["pairs"] = [old for old in doc["pairs"]
                        if (old["baseline"], old["change"]) != (p["baseline"], p["change"])]
        doc["pairs"].append(p)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"bench_record.sh: wrote {path}", file=sys.stderr)
PY
