#!/usr/bin/env python3
"""Build bench_e2e from source and run one workload of the benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a MARLin checkout. The first call configures and
builds bench_e2e (and the libraries under src/) into
.bench_build/e2ebench; later calls only rebuild what changed. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics BENCHMARK.json
declares, with --trace 1 its per_layer metrics. Build output and the
benchmark's own report go to standard error. Exits non-zero, printing
no result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
OUT = ROOT / ".bench_build" / "out"
RUN_TIMEOUT_S = 170
# Compiler and tool temporaries stay inside the checkout too.
TMP = ROOT / ".bench_build" / "tmp"
ENV = dict(os.environ, TMPDIR=str(TMP))


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; True on success."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=ENV).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "--target", "bench_e2e",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=ENV).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"run.py: unknown workload {args.workload!r}")
        return 2
    TMP.mkdir(parents=True, exist_ok=True)
    if not build():
        log("run.py: build failed")
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    report_path = OUT / f"{stem}.json"
    report_path.unlink(missing_ok=True)
    cmd = [str(BUILD / "bench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--json", str(report_path)]
    if args.trace:
        cmd += ["--traced", "--trace-out",
                str(OUT / f"{args.workload}.trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=ENV, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: bench_e2e exceeded {RUN_TIMEOUT_S} s")
        return 2
    if not report_path.exists():
        log(f"run.py: bench_e2e exited {proc.returncode} "
            "without a report")
        return 2
    report = json.loads(report_path.read_text())

    measured = report["layers"] if args.trace else report["metrics"]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in declared:
        name = m["name"]
        if name in measured:
            value = measured[name]["value"]
            if value is None or measured[name]["unit"] != m["unit"]:
                log(f"run.py: metric {name} is {measured[name]}, "
                    f"expected a number in {m['unit']}")
                return 2
        elif args.trace:
            value = 0  # This workload does not cross that layer.
        else:
            log(f"run.py: bench_e2e reported no {name}")
            return 2
        metrics[name] = {"value": value, "unit": m["unit"]}

    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
