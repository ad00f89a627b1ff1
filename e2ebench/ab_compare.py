#!/usr/bin/env python3
"""Decide, per workload and end-to-end metric, whether a change beat
its parent, held even, or regressed.

    python3 e2ebench/ab_compare.py --parent DIR --change DIR
        [--pairs 10] [--first-seed 101] [--workload NAME ...]
        [--out FILE]
    python3 e2ebench/ab_compare.py --parent-runs A.json --change-runs B.json
        [--benchmark BENCHMARK.json]

The first form runs the pairs itself from two checkouts that hold the
same benchmark: pair i uses seed first-seed + i for both sides and
alternates which side runs first; --out saves both sides' runs. The
second form compares two record.py files, pairing runs in order.

Verdicts, with each metric's direction and bound from the parent's
BENCHMARK.json:

  gain        at least 10 pairs; the change wins at least 9 in 10
              (ties count for neither); and its median beats the
              parent's by more than the parent's IQR (q3 - q1)
  regressed   the change's median is worse than the parent's by more
              than the bound (a share of the parent's median)
  unresolved  the parent's IQR exceeds the bound (as a share of its
              median) and not every change run beats every parent run
  same        none of the above
"""

import argparse
import json
import sys
from pathlib import Path

from benchlib import (better, host_fingerprint, load_spec, run_once,
                      summarize, worse_share)


def verdict(direction, bound, parent, change):
    """Compare two equally long lists of paired values."""
    p, c = summarize(parent), summarize(change)
    pairs = len(parent)
    wins = sum(better(direction, b, a) for a, b in zip(parent, change))
    worse = worse_share(direction, p["median"], c["median"])
    spread = p["iqr_share"] if p["iqr_share"] is not None else 0.0
    best_parent = max(parent) if direction == "higher" else min(parent)
    worst_change = min(change) if direction == "higher" else max(change)
    every_run_better = better(direction, worst_change, best_parent)
    if spread > bound and not every_run_better:
        label = "unresolved"
    elif worse > bound:
        label = "regressed"
    elif (pairs >= 10 and wins * 10 >= pairs * 9
          and better(direction, c["median"], p["median"])
          and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]):
        label = "gain"
    else:
        label = "same"
    return {"verdict": label, "wins": wins, "pairs": pairs,
            "change_vs_parent": -worse, "parent": p, "change": c}


def run_pairs(args, spec, names):
    runs = {"parent": {n: [] for n in names},
            "change": {n: [] for n in names}}
    sides = {"parent": args.parent, "change": args.change}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change",
                                                         "parent")
        for name in names:
            for side in order:
                result = run_once(sides[side], name, seed,
                                  spec["run_seconds"])
                if result is None:
                    sys.exit(f"{side} {name} seed {seed}: no result")
                runs[side][name].append({"seed": seed, **result})
                print(f"pair {i} {side:6s} {name}", file=sys.stderr)
    return runs["parent"], runs["change"]


def paired(parent_runs, change_runs, name, metric):
    pairs = list(zip(parent_runs.get(name, []), change_runs.get(name, [])))
    return ([p["metrics"][metric]["value"] for p, _ in pairs],
            [c["metrics"][metric]["value"] for _, c in pairs])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--parent-runs")
    ap.add_argument("--change-runs")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    ap.add_argument("--benchmark", default="BENCHMARK.json",
                    help="spec for --parent-runs/--change-runs")
    args = ap.parse_args()

    if args.parent and args.change:
        spec = load_spec(args.parent)
        names = args.workload or [w["name"] for w in spec["workloads"]]
        parent_runs, change_runs = run_pairs(args, spec, names)
        if args.out:
            doc = {"host": host_fingerprint(), "parent": parent_runs,
                   "change": change_runs}
            Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    elif args.parent_runs and args.change_runs:
        spec = json.loads(Path(args.benchmark).read_text())
        parent_runs = json.loads(Path(args.parent_runs).read_text())["runs"]
        change_runs = json.loads(Path(args.change_runs).read_text())["runs"]
        names = args.workload or [w["name"] for w in spec["workloads"]
                                  if w["name"] in parent_runs]
    else:
        ap.error("give --parent and --change, or --parent-runs and "
                 "--change-runs")

    metrics = spec["end_to_end"]
    print("workload           " + "".join(f"{m['name']:>26s}"
                                          for m in metrics))
    regressions = 0
    for name in names:
        cells = []
        for m in metrics:
            a, b = paired(parent_runs, change_runs, name, m["name"])
            if not a:
                cells.append("no pairs")
                continue
            v = verdict(m["better"], m["bound"], a, b)
            regressions += v["verdict"] == "regressed"
            cells.append(f"{v['verdict']} {v['change_vs_parent']:+.1%} "
                         f"{v['wins']}/{v['pairs']}")
        print(f"{name:19s}" + "".join(f"{c:>26s}" for c in cells))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
