#!/usr/bin/env sh
# Compare two recorded rows across the committed BENCH_<workload>.json
# files (tools/bench_record.sh): for each workload and end-to-end metric,
# print A's and B's medians, the relative delta, and the delta measured in
# A's interquartile range; then the traced run layers of both rows and
# their traced per-layer values (perfbench's counts and timers). When
# the two were recorded as a baseline/change pair, the numbers come from
# that pair entry (one recording, alternating runs) and the count of
# pairs B won is added; otherwise from the rows, which may come from
# different recordings. A report, not a gate: it always exits 0 once both
# rows are found.
#
# Usage: tools/bench_diff.sh A B
#   A, B  commits (any git revision: the row whose key is that commit's
#         perfbench/ and src/ trees, see tools/bench_rows.py) or row keys and
#         unique prefixes of them; A is the reference
set -eu
[ $# -eq 2 ] || { echo "usage: tools/bench_diff.sh A B" >&2; exit 2; }
repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
exec python3 - "$1" "$2" "${repo_root}" <<'PY'
import glob
import json
import os
import re
import subprocess
import sys

a_sel, b_sel, root = sys.argv[1:4]
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(root, "tools"))
from bench_rows import source_tree  # noqa: E402

files = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
if not files:
    sys.exit(f"bench_diff.sh: no BENCH_*.json in {root}")


def key(sel):
    """A revision's row key, else `sel` itself (a key or a key prefix)."""
    is_rev = subprocess.run(["git", "-C", root, "rev-parse", "--verify", "--quiet",
                             sel + "^{commit}"], capture_output=True).returncode == 0
    return source_tree(root, sel) if is_rev else sel


def machine(row):
    """The row's host without its trailing `commit=<sha>`: the machine and
    build, the same for a parent and a change recorded together."""
    return re.sub(r"\s*commit=\S*$", "", row["host"])


def find(rows, sel):
    """The row whose key is `sel`, else the one it uniquely prefixes."""
    prefixed = [r for r in rows if r["tree"].startswith(sel)]
    if len(prefixed) > 1:
        sys.exit(f"bench_diff.sh: '{sel}' matches several rows: "
                 + ", ".join(r["tree"] for r in prefixed))
    return prefixed[0] if prefixed else None


a_key, b_key = key(a_sel), key(b_sel)
missing = False
for path in files:
    with open(path) as f:
        doc = json.load(f)
    a, b = find(doc["rows"], a_key), find(doc["rows"], b_key)
    if a is None or b is None:
        print(f"{os.path.basename(path)}: no row for "
              f"{a_sel if a is None else b_sel}", file=sys.stderr)
        missing = True
        continue
    pair = next((p for p in doc["pairs"]
                 if (p["baseline"], p["change"]) == (a["tree"], b["tree"])), None)
    source = (f"paired, {pair['n']} pairs" if pair
              else f"unpaired rows, {a['runs']} vs {b['runs']} runs")
    print(f"{doc['workload']}: {a['tree']} ({a['head']}) -> {b['tree']} ({b['head']})  ({source})")
    if machine(a) != machine(b):
        print("  note: the rows come from different hosts")
    print(f"  {'metric':14} {'A median':>12} {'B median':>12} {'delta':>8} {'A IQR':>10} "
          f"{'delta/IQR':>9}" + (f" {'B lower':>8}" if pair else ""))
    for name, ma in a["end_to_end"].items():
        if pair:
            pm = pair["metrics"][name]
            med_a, med_b, iqr = pm["baseline_median"], pm["change_median"], pm["baseline_iqr"]
        elif name in b["end_to_end"]:
            med_a, med_b, iqr = ma["median"], b["end_to_end"][name]["median"], ma["iqr"]
        else:
            continue
        delta = med_b - med_a
        rel = delta / med_a if med_a else 0.0
        in_iqr = f"{delta / iqr:+9.1f}" if iqr > 0 else f"{'-':>9}"
        lower = f" {pm['pairs_lower']:>5}/{pair['n']:<2}" if pair else ""
        print(f"  {name:14} {med_a:12.6g} {med_b:12.6g} {rel:+8.1%} {iqr:10.4g} {in_iqr}{lower}")
    spans = sorted(set(a["run_layers"]) | set(b["run_layers"]))
    if spans:
        print(f"  {'run layer (traced self s)':30} {'A':>10} {'B':>10} {'A share':>8} "
              f"{'B share':>8}")
        for span in spans:
            la = a["run_layers"].get(span, {"self_s": 0.0, "share": 0.0})
            lb = b["run_layers"].get(span, {"self_s": 0.0, "share": 0.0})
            print(f"  {span:30} {la['self_s']:10.4f} {lb['self_s']:10.4f} "
                  f"{la['share']:8.1%} {lb['share']:8.1%}")
    pa, pb = a.get("per_layer", {}), b.get("per_layer", {})
    names = list(pa) + [n for n in pb if n not in pa]
    if names:
        print(f"  {'per-layer value (traced)':30} {'A':>12} {'B':>12} {'delta':>8}")
        cell = lambda v: f"{v:12.6g}" if v is not None else f"{'-':>12}"
        for name in names:
            va, vb = pa.get(name), pb.get(name)
            rel = (f"{(vb - va) / va:+8.1%}" if va and vb is not None else f"{'-':>8}")
            print(f"  {name:30} {cell(va)} {cell(vb)} {rel}")
    print()
sys.exit(1 if missing else 0)
PY
