#!/usr/bin/env python3
"""Validate MARLin bench output in CI's bench-smoke job.

Two artifacts are checked:

  1. The bench's stdout, which must contain the machine-readable
     banner line every MARLin bench emits:
         {"bench": "...", "threads": N, "isa": "...", "commit": "..."}
     Downstream tooling keys throughput numbers on those fields, so
     a bench that stops emitting them (or emits invalid JSON) must
     fail CI, not silently produce unattributable data.

     "actors" is validated when present: benches that sweep rollout
     actor counts declare it, single-loop benches need not. Likewise
     "replay_shards" (declared by replay-engine benches): it must be
     a power-of-two integer, since shard count changes the storage
     walk and numbers must never be misattributed across it.

  2. The google-benchmark --benchmark_out JSON file, which must
     parse and contain a non-empty "benchmarks" array with real_time
     readings.

NaN and Infinity are syntactically valid to Python's json module but
poison downstream dashboards silently, so any NaN/Inf token anywhere
in either artifact fails the check.

Usage: check_bench_json.py STDOUT_FILE BENCHMARK_JSON_FILE
"""

import json
import sys

from checklib import check_finite_numbers, fail, reject_non_finite


def check_banner(stdout_path: str) -> None:
    banners = []
    with open(stdout_path, encoding="utf-8", errors="replace") as f:
        for line in f:
            line = line.strip()
            if not (line.startswith("{") and line.endswith("}")):
                continue
            try:
                banners.append(
                    json.loads(line, parse_constant=reject_non_finite)
                )
            except json.JSONDecodeError as e:
                fail(f"malformed banner line {line!r}: {e}")
    if not banners:
        fail(f"no JSON banner line found in {stdout_path}")
    for banner in banners:
        check_finite_numbers(banner, "banner")
        for key in ("bench", "threads", "isa", "commit"):
            if key not in banner:
                fail(f"banner {banner!r} is missing key {key!r}")
        if not isinstance(banner["threads"], int) or banner["threads"] < 1:
            fail(f"banner {banner!r} has a bad thread count")
        if "actors" in banner and (
            not isinstance(banner["actors"], int) or banner["actors"] < 1
        ):
            fail(f"banner {banner!r} has a bad actor count")
        if "replay_shards" in banner and (
            not isinstance(banner["replay_shards"], int)
            or banner["replay_shards"] < 1
            or banner["replay_shards"] & (banner["replay_shards"] - 1)
        ):
            fail(
                f"banner {banner!r} has a bad replay_shards value "
                "(must be a power-of-two integer >= 1)"
            )
        if banner["isa"] not in ("scalar", "avx2"):
            fail(f"banner {banner!r} has unknown isa {banner['isa']!r}")
        if not isinstance(banner["commit"], str) or not banner["commit"]:
            fail(f"banner {banner!r} has an empty commit")
    print(f"ok: {len(banners)} banner line(s) in {stdout_path}")


def check_benchmark_out(json_path: str) -> None:
    try:
        with open(json_path, encoding="utf-8") as f:
            doc = json.load(f, parse_constant=reject_non_finite)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {json_path}: {e}")
    runs = doc.get("benchmarks")
    if not isinstance(runs, list) or not runs:
        fail(f"{json_path} has no benchmark runs")
    for run in runs:
        if "error_occurred" in run and run["error_occurred"]:
            # Skipped variants (e.g. avx2 on a non-AVX2 runner) are
            # fine; a run that errored for any other reason is not.
            msg = run.get("error_message", "")
            if "not available" not in msg:
                fail(f"benchmark {run.get('name')!r} errored: {msg}")
            continue
        if "real_time" not in run:
            fail(f"benchmark {run.get('name')!r} has no real_time")
        check_finite_numbers(run, f"benchmarks[{run.get('name')}]")
    print(f"ok: {len(runs)} benchmark run(s) in {json_path}")


def main() -> None:
    if len(sys.argv) != 3:
        fail("usage: check_bench_json.py STDOUT_FILE BENCH_JSON_FILE")
    check_banner(sys.argv[1])
    check_benchmark_out(sys.argv[2])


if __name__ == "__main__":
    main()
