"""Measurement helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


def percentile(values, q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation; needs samples."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def probe_once_ms() -> float:
    """One timing of a fixed pure-Python and numpy loop that imports
    nothing from the program (ms)."""
    import numpy as np

    matrix = np.arange(64 * 64, dtype=np.int64).reshape(64, 64)
    start = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    for _ in range(200):
        matrix = np.minimum(matrix, matrix.T + 1)
    return (time.perf_counter() - start) * 1000


def host_probe_ms() -> float:
    """The host-drift control: median of 25 :func:`probe_once_ms`."""
    return statistics.median(probe_once_ms() for _ in range(25))


class HostSpeed:
    """Cuts a timed window into spans of at least a second, each closed
    between two ops by one probe.  The host's speed drifts by tens of
    percent over minutes, and the probe drifts with it.  ``rates`` holds
    each span's ops per second, ``samples`` its probe (ms), and ``spent``
    the time the probes took, which the workload leaves out of its own
    timings."""

    def __init__(self):
        self.rates: list = []
        self.samples: list = []
        self.spent = 0.0
        self._opened = time.perf_counter()
        self._done = 0

    def between_ops(self, done: int) -> None:
        """``done``: ops attempted so far in the window."""
        now = time.perf_counter()
        if now - self._opened < 1.0:
            return
        self.rates.append((done - self._done) / (now - self._opened))
        self.samples.append(probe_once_ms())
        self._opened = time.perf_counter()
        self.spent += self._opened - now
        self._done = done


def self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def source_digest() -> str:
    """Hash of the program's sources: work counts compare only between
    runs of the same code."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_work_counts(workload: str, seed: int, counts: dict) -> list:
    """Compare ``counts`` with the last run of the same workload, seed and
    code; returns the keys that differ (and records these counts)."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"counts-{workload}-{seed}-{source_digest()}.json")
    differ = []
    if os.path.exists(path):
        with open(path) as handle:
            previous = json.load(handle)
        for key in sorted(set(previous) & set(counts)):
            if previous[key] != counts[key]:
                differ.append(key)
    with open(path, "w") as handle:
        json.dump(counts, handle, sort_keys=True)
    return differ


def sample_line(name: str, values, unit: str = "ms") -> str:
    """One readable line: p50 (and p99 when it has 10 samples beyond)."""
    if not values:
        return f"  {name:28s} n=0"
    text = f"  {name:28s} n={len(values):<6d} p50={percentile(values, .5):.3f} {unit}"
    if len(values) >= 1000:
        text += f"  p99={percentile(values, .99):.3f} {unit}"
    return text
