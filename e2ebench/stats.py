"""Small statistics and host-description helpers."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys


def spread(values: list[float]) -> float | None:
    """Interquartile range over median (``statistics.quantiles``, n=4), the
    run-to-run spread measure; ``None`` below two samples."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


def percentile(values: list[float], p: float) -> float | None:
    """Nearest-rank percentile, or ``None`` unless at least ten samples lie
    beyond it (a refused query is ``inf`` and so misses every limit)."""
    n = len(values)
    if n == 0 or n * (1.0 - p / 100.0) < 10:
        return None
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * n) - 1)]


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_block() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": sys.version.split()[0],
        "loadavg_start": list(os.getloadavg()),
    }
