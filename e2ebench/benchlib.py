"""Helpers shared by the benchmark's Python tools: the BENCHMARK.json
spec, one run of run.py, quartile summaries and the host fingerprint.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_spec(root):
    return json.loads((Path(root) / "BENCHMARK.json").read_text())


def run_once(root, workload, seed, seconds, trace=0):
    """Run `python3 e2ebench/run.py` in checkout @p root; return the
    parsed result line, or None when the run printed none."""
    cmd = [sys.executable, "e2ebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def summarize(values):
    """Median, quartiles and IQR/median of a list of numbers."""
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None,
            "n": len(values)}


def better(direction, a, b):
    """True when @p a is strictly better than @p b."""
    return a > b if direction == "higher" else a < b


def worse_share(direction, base, value):
    """How much worse @p value is than @p base, as a share of base."""
    if not base:
        return 0.0
    gap = (base - value) if direction == "higher" else (value - base)
    return gap / abs(base)


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def host_fingerprint():
    """CPU model, core count, cache sizes, kernel and memory."""
    model = None
    cpuinfo = _read("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    if base.is_dir():
        for index in sorted(base.glob("index*")):
            level = _read(index / "level")
            kind = _read(index / "type")
            size = _read(index / "size")
            if level and kind and size:
                caches[f"L{level}{kind[0].lower()}"] = size
    mem_kb = None
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            mem_kb = int(line.split()[1])
    return {"cpu_model": model, "nproc": os.cpu_count(),
            "caches": caches, "kernel": platform.release(),
            "mem_total_mb": mem_kb // 1024 if mem_kb else None}
