#!/usr/bin/env python3
"""Validate marlin_loadgen latency reports in CI's serve-smoke job.

The loadgen JSON is the serving tier's CI contract:

    {"bench": "marlin_loadgen", "commit": "...",
     "runs": [{"connections": N, "requests": N, "responses": N,
               "errors": N, "dropped_connections": N,
               "duration_s": S, "qps": Q,
               "p50_us": U, "p99_us": U,
               "latency_hist": [{"le_us": B, "count": C}, ...,
                                {"le_us": "+Inf", "count": C}]},
              ...]}

Checked invariants:
  - the document parses with no NaN/Infinity tokens anywhere
  - "bench" is "marlin_loadgen" and "commit" is non-empty
  - every run's counters are non-negative integers and consistent
    (responses + losses cannot exceed requests; p50 <= p99)
  - the latency histogram is cumulative: bucket bounds strictly
    increase, counts are monotone non-decreasing, and the final
    "+Inf" bucket counts every recorded response
  - with --require-zero-drops, every run finished with zero errors
    and zero dropped connections (the hot-reload drill's assertion)
  - with --min-connection-counts N, at least N distinct connection
    counts were measured (the latency-vs-connections curve needs
    more than one point)

Usage: check_latency_json.py LOADGEN_JSON
           [--require-zero-drops] [--min-connection-counts N]
"""

import argparse
import json

from checklib import check_finite_numbers, fail, reject_non_finite


def get_count(run: dict, key: str, where: str) -> int:
    value = run.get(key)
    if not isinstance(value, int) or value < 0:
        fail(f"{where}.{key} is not a non-negative integer: {value!r}")
    return value


def check_histogram(hist, responses: int, where: str) -> None:
    if not isinstance(hist, list) or not hist:
        fail(f"{where}.latency_hist is missing or empty")
    prev_le = None
    prev_count = -1
    for i, bucket in enumerate(hist):
        if not isinstance(bucket, dict):
            fail(f"{where}.latency_hist[{i}] is not an object")
        le = bucket.get("le_us")
        count = bucket.get("count")
        if not isinstance(count, int) or count < 0:
            fail(f"{where}.latency_hist[{i}].count is bad: {count!r}")
        last = i == len(hist) - 1
        if last:
            if le != "+Inf":
                fail(f"{where}.latency_hist must end with le_us '+Inf'")
        else:
            if not isinstance(le, (int, float)) or isinstance(le, bool):
                fail(f"{where}.latency_hist[{i}].le_us is bad: {le!r}")
            if prev_le is not None and le <= prev_le:
                fail(
                    f"{where}.latency_hist bounds not increasing at "
                    f"index {i}: {le!r} after {prev_le!r}"
                )
            prev_le = le
        if count < prev_count:
            fail(
                f"{where}.latency_hist counts not cumulative at "
                f"index {i}: {count} after {prev_count}"
            )
        prev_count = count
    if hist[-1]["count"] != responses:
        fail(
            f"{where}.latency_hist '+Inf' bucket counts "
            f"{hist[-1]['count']} but the run recorded "
            f"{responses} response(s)"
        )


def check_run(run: dict, index: int, require_zero_drops: bool) -> int:
    where = f"runs[{index}]"
    if not isinstance(run, dict):
        fail(f"{where} is not an object")
    connections = get_count(run, "connections", where)
    if connections < 1:
        fail(f"{where}.connections must be at least 1")
    requests = get_count(run, "requests", where)
    responses = get_count(run, "responses", where)
    errors = get_count(run, "errors", where)
    dropped = get_count(run, "dropped_connections", where)
    if responses > requests:
        fail(f"{where} answered more requests than it sent")
    if errors > responses:
        fail(f"{where} counts more errors than responses")
    duration = run.get("duration_s")
    if not isinstance(duration, (int, float)) or duration <= 0:
        fail(f"{where}.duration_s is not positive: {duration!r}")
    qps = run.get("qps")
    if not isinstance(qps, (int, float)) or qps < 0:
        fail(f"{where}.qps is bad: {qps!r}")
    p50 = get_count(run, "p50_us", where)
    p99 = get_count(run, "p99_us", where)
    if p50 > p99:
        fail(f"{where} has p50 {p50}us above p99 {p99}us")
    check_histogram(run.get("latency_hist"), responses, where)
    if require_zero_drops and (errors > 0 or dropped > 0):
        fail(
            f"{where} saw {errors} error(s) and {dropped} dropped "
            f"connection(s); the gate requires zero"
        )
    return connections


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Validate a marlin_loadgen JSON report."
    )
    parser.add_argument("json_path")
    parser.add_argument(
        "--require-zero-drops",
        action="store_true",
        help="fail when any run saw errors or dropped connections",
    )
    parser.add_argument(
        "--min-connection-counts",
        type=int,
        default=1,
        metavar="N",
        help="require at least N distinct connection counts",
    )
    args = parser.parse_args()

    try:
        with open(args.json_path, encoding="utf-8") as f:
            doc = json.load(f, parse_constant=reject_non_finite)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {args.json_path}: {e}")
    check_finite_numbers(doc, "$")

    if doc.get("bench") != "marlin_loadgen":
        fail(f"'bench' is {doc.get('bench')!r}, not 'marlin_loadgen'")
    commit = doc.get("commit")
    if not isinstance(commit, str) or not commit:
        fail("'commit' is missing or empty")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail("'runs' is missing or empty")

    seen = set()
    for i, run in enumerate(runs):
        seen.add(check_run(run, i, args.require_zero_drops))
    if len(seen) < args.min_connection_counts:
        fail(
            f"only {len(seen)} distinct connection count(s) measured; "
            f"need {args.min_connection_counts}"
        )
    print(
        f"ok: {len(runs)} run(s) at connection counts "
        f"{sorted(seen)} in {args.json_path}"
    )


if __name__ == "__main__":
    main()
