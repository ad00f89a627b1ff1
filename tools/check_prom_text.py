#!/usr/bin/env python3
"""Validate a Prometheus text-format scrape (GET /metrics output).

Checks the exposition contract MARLin's renderer promises (text
format 0.0.4, the subset every Prometheus-compatible scraper parses):

  * every non-comment line is `name[{labels}] value` with a legal
    metric name ([a-zA-Z_:][a-zA-Z0-9_:]*) and a parseable value;
  * every sample series is preceded by its `# TYPE` comment and the
    type is counter, gauge or histogram;
  * counters and gauges are single samples; counters are >= 0;
  * histograms expose `name_bucket{le="..."}` series with ascending
    bounds and monotonically non-decreasing cumulative counts, ending
    in le="+Inf", plus `name_sum` and `name_count` where _count
    equals the +Inf bucket;
  * optionally (--require NAME / --require-nonzero NAME) a named
    series exists (and is > 0), so CI can assert a live scrape saw
    real traffic, e.g. --require-nonzero serve_requests.

Usage: check_prom_text.py FILE [--require NAME ...]
                               [--require-nonzero NAME ...]

Pass `-` as FILE to read stdin (curl ... | check_prom_text.py -).
"""

import argparse
import math
import re
import sys

from checklib import fail

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$")


def parse_value(text: str, where: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    try:
        return float(text)
    except ValueError:
        fail(f"{where}: unparseable value {text!r}")


def base_name(series: str, types: dict) -> str:
    """Series name -> declared family. A _bucket/_sum/_count suffix
    only marks a histogram series when the stripped name is in fact
    a declared histogram — a plain counter may legitimately end in
    "_count" (e.g. alloc_steady_state_count)."""
    if series in types:
        return series
    for suffix in ("_bucket", "_sum", "_count"):
        if series.endswith(suffix):
            family = series[: -len(suffix)]
            if types.get(family) == "histogram":
                return family
    return series


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("file", help="scrape body, or - for stdin")
    parser.add_argument("--require", action="append", default=[],
                        help="fail unless this series is present")
    parser.add_argument("--require-nonzero", action="append",
                        default=[],
                        help="fail unless this series is present "
                             "and > 0")
    args = parser.parse_args()

    if args.file == "-":
        body = sys.stdin.read()
    else:
        try:
            with open(args.file, encoding="utf-8") as f:
                body = f.read()
        except OSError as e:
            fail(f"cannot read {args.file}: {e}")
    if not body.strip():
        fail("scrape body is empty")

    types = {}          # family -> declared type
    samples = {}        # series name (with suffix) -> last value
    histograms = {}     # family -> list of (bound, cumulative count)
    declared_before = set()

    for lineno, line in enumerate(body.splitlines(), 1):
        where = f"line {lineno}"
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                family, mtype = parts[2], parts[3] if len(
                    parts) > 3 else ""
                if not NAME_RE.match(family):
                    fail(f"{where}: illegal family name {family!r}")
                if mtype not in ("counter", "gauge", "histogram"):
                    fail(f"{where}: unknown type {mtype!r}")
                if family in types:
                    fail(f"{where}: duplicate TYPE for {family!r}")
                types[family] = mtype
                declared_before.add(family)
            continue

        m = SAMPLE_RE.match(line)
        if m is None:
            fail(f"{where}: not a sample line: {line!r}")
        series = m.group("name")
        value = parse_value(m.group("value"), where)
        family = base_name(series, types)
        if family not in declared_before:
            fail(f"{where}: series {series!r} has no preceding "
                 f"# TYPE {family}")
        mtype = types[family]

        if mtype == "histogram" and series == f"{family}_bucket":
            labels = m.group("labels") or ""
            lm = re.match(r'^le="([^"]+)"$', labels)
            if lm is None:
                fail(f"{where}: bucket series without an le label")
            bound = parse_value(lm.group(1), where)
            histograms.setdefault(family, []).append((bound, value))
        else:
            if m.group("labels") is not None:
                fail(f"{where}: unexpected labels on {series!r}")
            if series in samples:
                fail(f"{where}: duplicate series {series!r}")
            samples[series] = value
            if mtype == "counter" and value < 0:
                fail(f"{where}: counter {series!r} is negative")

    for family, mtype in types.items():
        if mtype in ("counter", "gauge"):
            if family not in samples:
                fail(f"family {family!r} declared but never sampled")
            continue
        buckets = histograms.get(family)
        if not buckets:
            fail(f"histogram {family!r} has no _bucket series")
        bounds = [b for b, _ in buckets]
        if bounds != sorted(bounds):
            fail(f"histogram {family!r} bounds are not ascending")
        if bounds[-1] != math.inf:
            fail(f"histogram {family!r} does not end in le=\"+Inf\"")
        counts = [c for _, c in buckets]
        if counts != sorted(counts):
            fail(f"histogram {family!r} cumulative counts decrease")
        for suffix in ("_sum", "_count"):
            if f"{family}{suffix}" not in samples:
                fail(f"histogram {family!r} lacks {suffix}")
        if samples[f"{family}_count"] != counts[-1]:
            fail(f"histogram {family!r}: _count "
                 f"{samples[f'{family}_count']} != +Inf bucket "
                 f"{counts[-1]}")

    for name in args.require + args.require_nonzero:
        if name not in samples and name not in histograms:
            fail(f"required series {name!r} is missing")
    for name in args.require_nonzero:
        value = samples.get(
            name, samples.get(f"{name}_count", 0))
        if not value > 0:
            fail(f"required series {name!r} is not > 0 "
                 f"(got {value})")

    print(f"ok: {len(types)} famil{'y' if len(types) == 1 else 'ies'}"
          f" ({sum(1 for t in types.values() if t == 'histogram')} "
          f"histogram(s)), {len(samples)} single sample(s)")


if __name__ == "__main__":
    main()
