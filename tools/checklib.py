"""Helpers shared by the tools/check_*.py validators.

A validator reports a violation as one stderr line prefixed with its
own script name ("check_bench_json: ...") and exits 1, so CI can
gate on it. The validators import this module from their own
directory: run them as `python3 tools/check_<name>.py ...`.
"""

import math
import os
import sys

PROG = os.path.splitext(os.path.basename(sys.argv[0]))[0]


def fail(msg: str) -> None:
    print(f"{PROG}: {msg}", file=sys.stderr)
    sys.exit(1)


def reject_non_finite(token: str) -> None:
    """json parse_constant hook: NaN/Infinity tokens fail the check."""
    fail(f"non-finite JSON value {token!r}")


def check_finite_numbers(node, path: str) -> None:
    """Recursively reject float('nan')/inf that snuck past parsing."""
    if isinstance(node, float) and not math.isfinite(node):
        fail(f"non-finite metric value at {path}")
    elif isinstance(node, dict):
        for key, value in node.items():
            check_finite_numbers(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            check_finite_numbers(value, f"{path}[{i}]")
