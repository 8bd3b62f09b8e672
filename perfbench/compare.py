#!/usr/bin/env python3
"""Compares two sets of perfbench results, refusing to mix hosts.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result records written by run.py
(.bench_build/results/<workload>-seed<n>-trace<t>-*.json). The two sets must
share one host fingerprint: CPU model, nproc, build type and compiler.
For every workload and metric it prints both medians, the change, the
base set's own spread (interquartile range over median) and a verdict
under the bound BENCHMARK.json fixes: "better", "worse", "same", or
"unresolved" when the base spread is wider than the bound.
"""

import glob
import json
import os
import statistics
import sys

HOST_KEYS = ("cpu_model", "nproc", "build_type", "compiler")


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            records.append(json.load(f))
    if not records:
        sys.exit(f"compare: no result records in {directory}")
    return records


def spread(values):
    if len(values) < 2:
        return float("inf")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else float("inf")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    hosts = {tuple(r["fingerprint"][k] for k in HOST_KEYS) for r in base + new}
    if len(hosts) != 1:
        print("compare: refusing to mix host fingerprints:", file=sys.stderr)
        for h in sorted(hosts):
            print("  " + " | ".join(map(str, h)), file=sys.stderr)
        sys.exit(2)
    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def group(records):
        out = {}
        for r in records:
            for name, m in r["metrics"].items():
                key = (r["fingerprint"]["workload"], name)
                out.setdefault(key, []).append(m["value"])
        return out

    a, b = group(base), group(new)
    print(f"{'workload':12} {'metric':32} {'base':>12} {'new':>12} {'change':>8} "
          f"{'spread':>7}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, name = key
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        change = (mb - ma) / abs(ma) if ma else 0.0
        meta = bounds.get(name, {})
        verdict = ""
        if "bound" in meta:
            s = spread(a[key])
            worse = -change if meta["better"] == "higher" else change
            if s > meta["bound"]:
                verdict = "unresolved"
            elif worse > meta["bound"]:
                verdict = "worse"
            elif -worse > s:
                verdict = "better"
            else:
                verdict = "same"
        print(f"{workload:12} {name:32} {ma:12.6g} {mb:12.6g} {change:+8.2%} "
              f"{spread(a[key]):7.3f}  {verdict}")


if __name__ == "__main__":
    main()
