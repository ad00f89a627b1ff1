#!/usr/bin/env python3
"""Validate a MARLin run-telemetry JSONL file (--telemetry output).

Checks the schema contract that downstream analysis relies on:

  * every line parses as a standalone JSON object (crash-safe JSONL);
  * the first record is a header carrying the schema version, a
    non-empty build commit and a string->string meta map;
  * every step record carries monotonically non-decreasing
    episode/env_step counters, a phase_ns map of non-negative integer
    deltas, and a metrics snapshot whose entries are well-formed
    (counters carry counts, gauges values, histograms bucket arrays
    with ascending bounds ending in "+Inf");
  * from one step record to the next, no counter's count and no
    histogram's count falls. The registry only ever adds, so this
    covers every counter a run reports -- ring drops and sequence
    gaps (async.ring.*), quarantined records (async.quarantined)
    and supervision events (supervisor.*) among them;
  * the last record is a summary with a numeric results map.

Schema v5 step records carry no ring, supervision or latency fields
of their own: those values live in the record's metrics snapshot
under their registry names.

Usage: check_telemetry_jsonl.py FILE [--min-steps N]

Exit code 0 means the file honours the schema; any violation prints
a diagnostic and exits 1, so CI can gate on it.
"""

import argparse
import json

from checklib import fail

SCHEMA_VERSION = 5


def check_metrics(metrics, where: str) -> dict:
    """Validate a metrics snapshot; return its counter and histogram
    counts by name."""
    if not isinstance(metrics, dict):
        fail(f"{where}: metrics is not an object")
    counts = {}
    for name, m in metrics.items():
        kind = m.get("kind")
        if kind == "gauge":
            if not isinstance(m.get("value"), (int, float)):
                fail(f"{where}: gauge {name!r} has a bad value")
            continue
        if kind not in ("counter", "histogram"):
            fail(f"{where}: metric {name!r} has unknown kind {kind!r}")
        if not isinstance(m.get("count"), int) or m["count"] < 0:
            fail(f"{where}: {kind} {name!r} has a bad count")
        counts[name] = m["count"]
        if kind == "histogram":
            buckets = m.get("buckets")
            if not isinstance(buckets, list) or not buckets:
                fail(f"{where}: histogram {name!r} has no buckets")
            if buckets[-1][0] != "+Inf":
                fail(f"{where}: histogram {name!r} lacks the +Inf "
                     "overflow bucket")
            bounds = [b[0] for b in buckets[:-1]]
            if bounds != sorted(bounds):
                fail(f"{where}: histogram {name!r} bounds are not "
                     "ascending")
    return counts


def check_step(rec, lineno: int, prev, prev_counts) -> tuple:
    where = f"line {lineno}"
    for key in ("t", "episode", "env_step", "update_calls",
                "phase_ns", "metrics"):
        if key not in rec:
            fail(f"{where}: step record is missing {key!r}")
    episode, step = rec["episode"], rec["env_step"]
    if not isinstance(episode, int) or not isinstance(step, int):
        fail(f"{where}: episode/env_step must be integers")
    if prev is not None and (episode, step) < prev:
        fail(f"{where}: counters went backwards: "
             f"{(episode, step)} after {prev}")
    phase_ns = rec["phase_ns"]
    if not isinstance(phase_ns, dict) or not phase_ns:
        fail(f"{where}: phase_ns is empty")
    for phase, ns in phase_ns.items():
        if not isinstance(ns, int) or ns < 0:
            fail(f"{where}: phase {phase!r} delta {ns!r} is not a "
                 "non-negative integer")
    counts = check_metrics(rec["metrics"], where)
    for name, before in prev_counts.items():
        if counts.get(name, 0) < before:
            fail(f"{where}: {name!r} count fell from {before} to "
                 f"{counts.get(name, 0)}")
    return (episode, step), counts


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("file")
    parser.add_argument("--min-steps", type=int, default=1,
                        help="fail unless at least N step records")
    args = parser.parse_args()

    try:
        with open(args.file, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"cannot read {args.file}: {e}")
    if not lines:
        fail(f"{args.file} is empty")

    records = []
    for i, line in enumerate(lines, 1):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"line {i} is not valid JSON: {e}")
        if not isinstance(rec, dict) or "record" not in rec:
            fail(f"line {i} has no 'record' discriminator")
        records.append(rec)

    header = records[0]
    if header["record"] != "header":
        fail("first record is not a header")
    if header.get("schema") != SCHEMA_VERSION:
        fail(f"schema {header.get('schema')!r} != {SCHEMA_VERSION}")
    if not isinstance(header.get("commit"), str) or not header["commit"]:
        fail("header has an empty commit")
    meta = header.get("meta")
    if not isinstance(meta, dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in meta.items()):
        fail("header meta is not a string->string map")

    steps = 0
    prev = None
    prev_counts = {}
    for i, rec in enumerate(records[1:], 2):
        kind = rec["record"]
        if kind == "step":
            prev, prev_counts = check_step(rec, i, prev, prev_counts)
            steps += 1
        elif kind == "summary":
            if i != len(records):
                fail(f"line {i}: summary is not the last record")
            # Benches that collect no headline numbers write an
            # empty results map; it must still be a map.
            results = rec.get("results")
            if not isinstance(results, dict):
                fail(f"line {i}: summary has no results map")
            for key, value in results.items():
                if not isinstance(value, (int, float)):
                    fail(f"line {i}: result {key!r} is not numeric")
            check_metrics(rec.get("metrics", {}), f"line {i}")
        else:
            fail(f"line {i}: unknown record kind {kind!r}")

    if steps < args.min_steps:
        fail(f"only {steps} step record(s), need {args.min_steps}")
    print(f"ok: header + {steps} step(s) + "
          f"{'summary' if records[-1]['record'] == 'summary' else 'no summary'}"
          f" in {args.file} (commit {header['commit']})")


if __name__ == "__main__":
    main()
