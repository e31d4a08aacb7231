"""One workload in one fresh process: set up, time, optionally trace, check.

Started by run.py with --t0, the parent's monotonic clock reading just
before this process was spawned, so that set-up time covers interpreter
start, the import of ``quadrics``, input generation and writing the input
files.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# The host's CPU speed drifts between runs (a fixed loop alternates
# between about 32 and 45 ms on a shared 2-core Xeon VM), so every time is
# also reported scaled to a reference speed: raw seconds times
# REFERENCE_CALIBRATION_S over the median calibration time measured in
# the same process, between items.
CALIBRATION_LOOP = 50_000
CALIBRATION_SHARE = 0.2  # seconds of item time per calibration loop
REFERENCE_CALIBRATION_S = 0.0032


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the process's current speed."""
    t = time.perf_counter()
    s = 0
    for i in range(CALIBRATION_LOOP):
        s += i * i
    return time.perf_counter() - t


def speed_factor(cal_s) -> float:
    return REFERENCE_CALIBRATION_S / statistics.median(cal_s)


def timed_pass(workloads, items, ready, tracer=None):
    """Run every item once; calibrate before each item and after the last.

    One loop takes about 3 ms and single readings scatter by some 20%,
    so each gap takes one loop per CALIBRATION_SHARE of the item before
    it: the samples then cover the run evenly in time.
    """
    outcomes, item_s, cal_s = {}, [], []
    loops = 5
    for it in items:
        cal_s.extend(calibrate() for _ in range(loops))
        if tracer is not None:
            tracer.item = it["id"]
        t = time.perf_counter()
        outcomes[it["id"]] = workloads.run_item(it, ready[it["id"]])
        item_s.append(time.perf_counter() - t)
        loops = max(1, round(item_s[-1] / CALIBRATION_SHARE))
    cal_s.extend(calibrate() for _ in range(loops))
    return outcomes, item_s, cal_s


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import quadrics  # noqa: F401  (part of set-up)

    import workloads
    items = workloads.generate(args.workload, args.seed, args.seconds)
    ready = workloads.prepare(items, os.path.join(args.dir, "inputs"))
    setup_raw = time.perf_counter() - args.t0
    setup_s = setup_raw * speed_factor([calibrate() for _ in range(3)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    outcomes, item_raw, cal_s = timed_pass(workloads, items, ready)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed = speed_factor(cal_s)
    result = {
        "workload": args.workload, "seed": args.seed,
        "setup_s": setup_s, "setup_raw_s": setup_raw,
        "wall_s": sum(item_raw) * speed, "wall_raw_s": sum(item_raw),
        "item_s": [t * speed for t in item_raw], "speed_factor": speed,
        "item_raw_s": item_raw, "calibration_s": cal_s,
        "peak_rss_mb": peak_rss_mb,
        "fingerprint": {"input_digest": workloads.digest(items),
                        "items": workloads.strata(items)},
    }

    if args.trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
        _, traced_raw, traced_cal = timed_pass(workloads, items, ready, tracer)
        tracer.uninstall()
        tracer.write(os.path.join(args.dir, "spans.jsonl"))
        layers = layer_metrics(tracer.spans, sum(traced_raw))
        traced_wall = sum(traced_raw) * speed_factor(traced_cal)
        layers["trace.overhead_frac"] = traced_wall / result["wall_s"] - 1
        result["layers"] = layers
        result["fingerprint"]["quadrature_nodes"] = layers["nevanlinna.quadrature_nodes"]

    import oracles
    statuses = {}
    zeros = 0
    for it in items:
        status, detail, wrong = oracles.check_item(it, outcomes[it["id"]], SRC)
        statuses[it["id"]] = {"status": status, "detail": detail, "wrong": wrong}
        zeros += oracles.zeros_found(it, outcomes[it["id"]])
    result["statuses"] = statuses
    result["fingerprint"]["zeros_found"] = zeros
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
