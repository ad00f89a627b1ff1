#!/usr/bin/env python3
"""Validate bench_e2e reports against BENCHMARK.json.

    python3 e2ebench/check_e2e.py --benchmark BENCHMARK.json REPORT...
    python3 e2ebench/check_e2e.py --benchmark BENCHMARK.json \
        --bin .bench_build/e2ebench/bench_e2e --smoke

The second form runs every workload once in --smoke --traced mode
(about a second each, ephemeral loopback ports) and checks the
reports; it is the e2e_smoke test of the benchmark's own build.

A report passes when its workload is declared, every declared
end-to-end metric is present with its unit and a finite value above
zero, every per-layer metric it reports is declared with that unit and
finite, at least one operation was attempted, none failed and every
output check passed. Across a full set of traced reports, every
declared per-layer metric must come from at least one workload.
"""

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path


def check_report(report, spec):
    errors = []
    name = report.get("workload")
    if name not in [w["name"] for w in spec["workloads"]]:
        errors.append(f"undeclared workload {name!r}")
    for m in spec["end_to_end"]:
        got = report["metrics"].get(m["name"])
        if got is None:
            errors.append(f"missing end-to-end metric {m['name']}")
        elif got["unit"] != m["unit"]:
            errors.append(f"{m['name']}: unit {got['unit']!r}, "
                          f"declared {m['unit']!r}")
        elif got["value"] is None or not math.isfinite(got["value"]) \
                or got["value"] <= 0:
            errors.append(f"{m['name']}: value {got['value']} is not "
                          "a finite number above 0")
    layers = {m["name"]: m for m in spec["per_layer"]}
    for lname, got in report.get("layers", {}).items():
        if lname not in layers:
            errors.append(f"undeclared per-layer metric {lname}")
        elif got["unit"] != layers[lname]["unit"]:
            errors.append(f"{lname}: unit {got['unit']!r}, declared "
                          f"{layers[lname]['unit']!r}")
        elif got["value"] is None or not math.isfinite(got["value"]):
            errors.append(f"{lname}: value {got['value']} not finite")
    if report.get("attempted", 0) < 1:
        errors.append("no operation attempted")
    if report.get("failed", 1) != 0:
        errors.append(f"{report.get('failed')} operations failed")
    for c in report.get("checks", []):
        if not c["ok"]:
            errors.append(f"check {c['name']} failed: {c['detail']}")
    if not report.get("correct", False):
        errors.append("report not marked correct")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--benchmark", required=True)
    ap.add_argument("--bin")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("reports", nargs="*")
    args = ap.parse_args()
    spec = json.loads(Path(args.benchmark).read_text())

    paths = [Path(p) for p in args.reports]
    with tempfile.TemporaryDirectory() as tmp:
        if args.smoke:
            if not args.bin:
                ap.error("--smoke needs --bin")
            out = Path(tmp) / "smoke.json"
            subprocess.run([args.bin, "--workload", "all", "--seed", "1",
                            "--smoke", "--traced", "--json", str(out)],
                           stdout=subprocess.DEVNULL, timeout=120)
            paths += [Path(f"{out}.{w['name']}")
                      for w in spec["workloads"]]
        failures = 0
        seen_layers = set()
        traced_all = bool(paths)
        for path in paths:
            if not path.exists():
                print(f"FAIL {path.name}: no report written")
                failures += 1
                traced_all = False
                continue
            report = json.loads(path.read_text())
            traced_all = traced_all and report.get("traced", False)
            seen_layers.update(report.get("layers", {}))
            errors = check_report(report, spec)
            failures += bool(errors)
            print(f"{'FAIL' if errors else 'ok  '} "
                  f"{report.get('workload')}")
            for e in errors:
                print(f"     {e}")
        names = {json.loads(p.read_text()).get("workload")
                 for p in paths if p.exists()}
        if traced_all and names >= {w["name"] for w in spec["workloads"]}:
            unused = [m["name"] for m in spec["per_layer"]
                      if m["name"] not in seen_layers]
            if unused:
                print("FAIL per-layer metrics no workload reports: "
                      + ", ".join(unused))
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
