#!/usr/bin/env python3
"""Record a set of benchmark runs and their spread.

    python3 e2ebench/record.py --out FILE [--runs 10] [--first-seed 1]
        [--workload NAME ...] [--trace 0|1] [--seconds S]

Run from the root of a checkout. Each run is one call of run.py with
its own seed (first-seed, first-seed + 1, ...); workloads take turns
seed by seed, so slow drift on the host spreads over all of them.
FILE gets the host fingerprint, every result line, and per workload
and metric the median, first and third quartile
(statistics.quantiles(n=4)) and the IQR as a share of the median.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from benchlib import host_fingerprint, load_spec, run_once, summarize

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    spec = load_spec(ROOT)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    runs = {name: [] for name in names}
    started = time.time()
    for i in range(args.runs):
        seed = args.first_seed + i
        for name in names:
            result = run_once(ROOT, name, seed, seconds, args.trace)
            if result is None:
                print(f"{name} seed {seed}: no result", file=sys.stderr)
                return 1
            runs[name].append({"seed": seed, **result})
            flat = " ".join(f"{k}={v['value']:.6g}"
                            for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: {flat}", file=sys.stderr)

    summary = {}
    for name, results in runs.items():
        metrics = results[0]["metrics"].keys()
        summary[name] = {
            m: summarize([r["metrics"][m]["value"] for r in results])
            for m in metrics}
    doc = {"host": host_fingerprint(), "run_seconds": seconds,
           "trace": args.trace, "first_seed": args.first_seed,
           "wall_s": round(time.time() - started, 1),
           "summary": summary, "runs": runs}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for name in names:
        for m, s in summary[name].items():
            share = s["iqr_share"]
            print(f"{name:18s} {m:30s} median {s['median']:12.6g}  "
                  f"IQR/median {share if share is None else f'{share:.4f}'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
