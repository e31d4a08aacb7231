"""Benchmark entry point: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload config-sweep --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the library is imported from its
``src`` directory.  With --trace 0 the run reports the end-to-end metrics
of BENCHMARK.json; set-up is measured in four extra set-up-only processes
as well, and the median of the five readings is reported.  With --trace 1
the worker times the item list once untraced and once with every layer
wrapped, and reports the per-layer metrics.  End-to-end times are scaled
to a reference CPU speed (see worker.py); raw times are printed too.  The last line of standard
output is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150
P90_MIN_ITEMS = 100  # at least ten samples beyond the 90th percentile
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _spawn(args, extra) -> dict:
    """Run one worker process and return its JSON line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", args.dir] + extra
    t0 = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
    proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE,
                          env=_worker_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def summarize(res: dict) -> dict:
    """All item-level figures: end-to-end metrics and failure shares."""
    statuses = [s["status"] for s in res["statuses"].values()]
    n = len(statuses)
    times = res["item_s"]
    out = {
        "wall_s": res["wall_s"],
        "item_s.p50": statistics.median(times),
        "peak_rss_mb": res["peak_rss_mb"],
        "undecided_frac": statuses.count("undecided") / n,
        "error_frac": statuses.count("error") / n,
        "settled_frac": statuses.count("ok") / n,
    }
    if n >= P90_MIN_ITEMS:
        out["item_s.p90"] = statistics.quantiles(times, n=10)[8]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "quadrics", "__init__.py")):
        print("error: src/quadrics not found next to perfbench/", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {WORKLOADS}",
              file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 120:
        print("error: --seconds must be in (0, 120]", file=sys.stderr)
        return 2
    units = _units()
    args.dir = os.path.join(HERE, "out", f"{args.workload}-{args.seed}")
    os.makedirs(args.dir, exist_ok=True)

    setups = []
    if not args.trace:
        setups = [_spawn(args, ["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]
    res = _spawn(args, [])
    setups.append(res["setup_s"])

    figures = summarize(res)
    figures["setup_s"] = statistics.median(setups)
    statuses = res["statuses"].values()
    failed = sum(1 for s in statuses if s["status"] == "error")
    wrong = sum(1 for s in statuses if s["wrong"])

    fp = res["fingerprint"]
    print(f"workload {args.workload} seed {args.seed}: {len(res['item_s'])} items")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    printed = dict(units["end_to_end"], **{"item_s.p90": "s", "undecided_frac": "ratio",
                                           "error_frac": "ratio"})
    for name, unit in printed.items():
        if name in figures:
            print(f"  {name:15s} {figures[name]:.6g} {unit}")
    print(f"  raw wall {res['wall_raw_s']:.6g} s, raw set-up {res['setup_raw_s']:.6g} s, "
          f"speed factor {res['speed_factor']:.4f}")
    errors = {}
    for s in statuses:
        if s["status"] == "error":
            errors[s["detail"]] = errors.get(s["detail"], 0) + 1
    for detail, k in sorted(errors.items(), key=lambda kv: -kv[1]):
        print(f"  error x{k}: {detail}")

    if args.trace:
        layers = dict(res["layers"])
        layers["undecided_frac"] = figures["undecided_frac"]
        layers["error_frac"] = figures["error_frac"]
        layers["nevanlinna.zeros_found"] = fp["zeros_found"]
        wanted = units["per_layer"]
        source = layers
    else:
        wanted = units["end_to_end"]
        source = figures
    metrics = {name: {"value": source[name], "unit": unit} for name, unit in wanted.items()}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fp, "figures": figures,
              "setup_samples": setups, "metrics": metrics,
              "raw": {k: res[k] for k in ("wall_raw_s", "setup_raw_s", "speed_factor",
                                          "item_raw_s", "calibration_s")}}
    with open(os.path.join(args.dir, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": wrong == 0, "attempted": len(res["item_s"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
