#!/usr/bin/env python3
"""A/A steadiness check: how far do identical runs of the benchmark disagree?

    python3 perfbench/steady.py [--sets 2] [--runs 10] [--seconds 20]
                                [--workloads capacity-hotspot,paper-eval]
                                [--blocked] [--out results.json]

Runs `sets` sets of `runs` runs of every workload on the same build. Run i of
every set uses seed i+1, so the sets see identical inputs and any difference
between them is noise. The sets alternate run by run, and the workloads take
turns within each round. --blocked runs the sets one after another instead,
so slow host drift shows up in the gap between sets.

For every workload, set and end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread, (Q3 - Q1) / median;
then the gap between each set's median and the first set's, and both
against the metric's bound in BENCHMARK.json. For run_s it also compares the
per-run statistic the benchmark reports (median of the timed reps) with
one-shot timing (the first timed rep alone) and the fastest rep.
"""
import argparse
import json
import statistics

import run as bench


def parse_reps(lines):
    for line in lines:
        if line.startswith("reps: "):
            return json.loads(line[len("reps: "):])
    raise ValueError("driver printed no reps line")


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    parser.add_argument("--blocked", action="store_true")
    parser.add_argument("--out", help="write every run's values to this JSON file")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in
              json.load(open(f"{bench.ROOT}/BENCHMARK.json"))["end_to_end"]}

    bench.build()
    sha = bench.commit()
    # values[workload][set][metric] -> one value per run
    values = {w: [dict() for _ in range(args.sets)] for w in workloads}
    order = ([(r, s) for s in range(args.sets) for r in range(args.runs)] if args.blocked
             else [(r, s) for r in range(args.runs) for s in range(args.sets)])
    for r, s in order:
        for w in workloads:
            lines, result = bench.run_one(w, r + 1, args.seconds, 0, sha)
            reps = parse_reps(lines)["run_s"]
            row = {name: m["value"] for name, m in result["metrics"].items()}
            row["run_s one-shot"] = reps[0]
            row["run_s min"] = min(reps)
            for name, value in row.items():
                values[w][s].setdefault(name, []).append(value)
            values[w][s].setdefault("reps", []).append(parse_reps(lines))
            print(f"set {s} run {r} {w}: " +
                  "  ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)

    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)

    print()
    print(f"{'workload':17} {'metric':15} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'gap':>7} {'bound':>6}")
    for w in workloads:
        for metric in values[w][0]:
            if metric == "reps":
                continue
            first = statistics.median(values[w][0][metric])
            bound = bounds.get(metric)
            for s in range(args.sets):
                q1, med, q3, sp = spread(values[w][s][metric])
                gap = (med - first) / first
                print(f"{w:17} {metric:15} {s:3} {med:10.6g} {q1:10.6g} {q3:10.6g} "
                      f"{sp:7.2%} {gap:+7.2%} " + (f"{bound:6.2f}" if bound else "     -"))


if __name__ == "__main__":
    main()
