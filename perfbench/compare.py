"""Compare two sets of benchmark results, per workload and metric.

    python3 perfbench/compare.py BASE_OUT_DIR CHANGE_OUT_DIR

Each directory is a ``perfbench/out`` directory (or a copy of one) holding
``<workload>-<seed>/result-trace0.json`` records.  Records are paired by
workload and seed.  The comparison refuses to run (exit 3) when a pair's
traffic fingerprints differ: then the two sides measured different loads.
For each workload and end-to-end metric it prints both medians, the
change in the metric's worse direction, the base side's spread (quartile
distance over median) and the bound from BENCHMARK.json.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory: str) -> dict:
    out = {}
    for path in glob.glob(os.path.join(directory, "*", "result-trace0.json")):
        with open(path) as fh:
            rec = json.load(fh)
        out[(rec["workload"], rec["seed"])] = rec
    return out


def spread(values) -> float:
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    keys = sorted(set(base) & set(change))
    if not keys:
        print("no result records with the same workload and seed", file=sys.stderr)
        return 2
    differing = [k for k in keys if base[k]["fingerprint"] != change[k]["fingerprint"]]
    if differing:
        for k in differing:
            print(f"fingerprint differs for {k[0]} seed {k[1]}:\n"
                  f"  base   {json.dumps(base[k]['fingerprint'], sort_keys=True)}\n"
                  f"  change {json.dumps(change[k]['fingerprint'], sort_keys=True)}",
                  file=sys.stderr)
        print("refusing to compare different loads", file=sys.stderr)
        return 3
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    status = 0
    for workload in sorted({k[0] for k in keys}):
        seeds = [k for k in keys if k[0] == workload]
        print(f"{workload} ({len(seeds)} seeds)")
        for name, m in spec.items():
            b = [base[k]["metrics"][name]["value"] for k in seeds]
            c = [change[k]["metrics"][name]["value"] for k in seeds]
            mb, mc = statistics.median(b), statistics.median(c)
            worse = (mc - mb) / mb if m["better"] == "lower" else (mb - mc) / mb
            verdict = "ok"
            if worse > m["bound"]:
                verdict, status = "WORSE", 1
            elif spread(b) > m["bound"]:
                verdict = "unresolved"
            print(f"  {name:14s} base {mb:.5g} change {mc:.5g} {m['unit']:6s} "
                  f"worse by {worse:+.3f} (bound {m['bound']}, base spread "
                  f"{spread(b):.3f}) {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
