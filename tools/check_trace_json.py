#!/usr/bin/env python3
"""Validate a MARLin trace export (--trace output) as Chrome/Perfetto
trace_event JSON.

Checks the properties a trace viewer needs and the accounting MARLin
promises:

  * the document parses and carries a non-empty "traceEvents" array;
  * every event is a complete span ("ph":"X") with string name/cat,
    numeric non-negative ts/dur (microseconds) and integer pid/tid;
  * "otherData" reports capacity, storedEvents and droppedEvents, and
    storedEvents matches the array length — the overflow contract is
    that truncation is counted, never silent;
  * flow-linked spans ("bind_id" + exactly one of flow_out/flow_in)
    are well formed: bind_id is a non-zero hex string and the two
    directions never share one event;
  * optionally (--require-phases) at least one event from each named
    category is present, so CI can assert the training phases,
    thread-pool chunks or checkpoint writes actually landed;
  * optionally (--require-flow) at least one flow pair exists and
    every flow-in id has a matching flow-out id, so a viewer can
    draw the cross-thread arrow (e.g. actor push -> learner drain).

Usage: check_trace_json.py FILE [--require-cat CAT ...]
                                [--require-flow]
"""

import argparse
import json

from checklib import fail


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("file")
    parser.add_argument("--require-cat", action="append", default=[],
                        help="fail unless >=1 event has this category")
    parser.add_argument("--allow-empty", action="store_true",
                        help="accept a trace with zero events (e.g. a "
                             "kernel micro-bench records no spans)")
    parser.add_argument("--require-flow", action="store_true",
                        help="fail unless >=1 flow_out/flow_in pair "
                             "links two spans by bind_id")
    args = parser.parse_args()

    try:
        with open(args.file, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {args.file}: {e}")

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{args.file} has no traceEvents array")
    if not events and not args.allow_empty:
        fail(f"{args.file} has zero trace events")

    cats = set()
    flow_out_ids = set()
    flow_in_ids = set()
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if e.get("ph") != "X":
            fail(f"{where}: expected complete span ph 'X', "
                 f"got {e.get('ph')!r}")
        for key in ("name", "cat"):
            if not isinstance(e.get(key), str) or not e[key]:
                fail(f"{where}: missing or empty {key!r}")
        for key in ("ts", "dur"):
            v = e.get(key)
            if not isinstance(v, (int, float)) or v < 0:
                fail(f"{where}: {key!r} is not a non-negative number")
        for key in ("pid", "tid"):
            if not isinstance(e.get(key), int):
                fail(f"{where}: {key!r} is not an integer")
        cats.add(e["cat"])

        is_out = e.get("flow_out") is True
        is_in = e.get("flow_in") is True
        if "bind_id" in e or is_out or is_in:
            bind = e.get("bind_id")
            if not isinstance(bind, str) or not bind.startswith("0x"):
                fail(f"{where}: bind_id {bind!r} is not a hex string")
            try:
                flow_id = int(bind, 16)
            except ValueError:
                fail(f"{where}: bind_id {bind!r} does not parse")
            if flow_id == 0:
                fail(f"{where}: flow id 0 is reserved for 'none'")
            if is_out == is_in:
                fail(f"{where}: flow span must set exactly one of "
                     "flow_out/flow_in")
            (flow_out_ids if is_out else flow_in_ids).add(flow_id)

    other = doc.get("otherData")
    if not isinstance(other, dict):
        fail("missing otherData accounting block")
    for key in ("capacity", "storedEvents", "droppedEvents"):
        v = other.get(key)
        if not isinstance(v, int) or v < 0:
            fail(f"otherData.{key} is not a non-negative integer")
    if other["storedEvents"] != len(events):
        fail(f"otherData.storedEvents {other['storedEvents']} != "
             f"{len(events)} events in the array")
    if other["storedEvents"] > other["capacity"]:
        fail("storedEvents exceeds capacity")

    for cat in args.require_cat:
        if cat not in cats:
            fail(f"no event with category {cat!r} "
                 f"(saw: {sorted(cats)})")

    paired = flow_in_ids & flow_out_ids
    if args.require_flow:
        # The ring is a window: an out span may have aged out before
        # its in span landed, but a drain arrow with no visible source
        # inside the same export is a linking bug.
        unmatched = flow_in_ids - flow_out_ids
        if unmatched and other["droppedEvents"] == 0:
            fail(f"{len(unmatched)} flow-in id(s) with no matching "
                 f"flow-out (e.g. {sorted(unmatched)[:3]})")
        if not paired:
            fail("no flow_out/flow_in pair links two spans")

    print(f"ok: {len(events)} event(s), "
          f"{other['droppedEvents']} dropped, "
          f"{len(paired)} flow pair(s), categories: "
          f"{', '.join(sorted(cats))}")


if __name__ == "__main__":
    main()
