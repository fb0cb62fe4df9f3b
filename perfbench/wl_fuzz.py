"""``fuzz``: the differential campaign, closed loop over a 2-worker pool.

Back-to-back ``run_campaign(BATCH, base, jobs=2, shrink=False)`` calls
until the time is up; the seven families and the eight checks are passed
by name, so a check added to the program later does not change the
workload.  One op is one generated instance.

The instances form a fixed pool of ``POOL_BATCHES`` batches (instance
seeds ``0 .. POOL_BATCHES * BATCH - 1``) and the run seed picks the batch
the run starts from, walking the pool cyclically.  Instance costs are
heavy-tailed, so independent draws per seed would make throughput depend
on the seed; a run covers most of the pool instead, and a batch's
check-status table is the same in every run that reaches it.

The pool forks its workers from this process, so a wrapper installed on
``repro.gen.differential._run_one_task`` before the campaign runs inside
each worker: it times the instance there and, when tracing, sends the
worker's per-layer totals home on the report it returns.
"""

from __future__ import annotations

import os
import resource
import statistics
import time

import layers
from common import check_work_counts, sample_line, self_peak_rss_mb
from repro.gen import differential
from repro.util import counters

FAMILIES = (
    "random", "chain", "ring", "clientserver", "broadcast",
    "urgent_random", "mutant",
)
JOBS = 2
BATCH = 28  # four instances per family per campaign call
POOL_BATCHES = 12
WARMUP = 2  # warm-up instances, seeded after the pool


class _TimedTask:
    """Stands in for ``_run_one_task`` inside the pool workers."""

    def __init__(self, original, tracer):
        self.original = original
        self.tracer = tracer

    def __call__(self, *args):
        if self.tracer is not None:
            self.tracer.reset()
        start = time.perf_counter()
        report = self.original(*args)
        elapsed = time.perf_counter() - start
        report.perfbench = {
            "ms": elapsed * 1000,
            "pid": os.getpid(),
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "layers": (
                layers.layer_totals(self.tracer.snapshot())
                if self.tracer is not None
                else {}
            ),
        }
        return report


class Fuzz:
    name = "fuzz"

    def __init__(self, seed: int):
        self.seed = seed
        self.original_task = differential._run_one_task
        summary = self._campaign(POOL_BATCHES * BATCH + WARMUP * seed, WARMUP)
        if not summary.ok:
            raise RuntimeError("fuzz warm-up campaign found disagreements")

    def _campaign(self, base: int, count: int):
        return differential.run_campaign(
            count,
            base,
            families=FAMILIES,
            checks=layers.CHECK_NAMES,
            jobs=JOBS,
            shrink=False,
        )

    def measure(self, seconds: float, speed, tracer=None) -> dict:
        differential._run_one_task = _TimedTask(self.original_task, tracer)
        retries_before = counters.export()["counts"].get(
            "par.task_retries", 0
        )
        if tracer is not None:
            tracer.reset()
        attempted = failed = 0
        instance_ms, worker_peaks = [], []
        totals: dict = {}
        counts, flags = {}, []
        batch = 0
        start = time.perf_counter()
        deadline = start + seconds
        try:
            while time.perf_counter() < deadline:
                speed.between_ops(attempted)
                pool_batch = (self.seed + batch) % POOL_BATCHES
                summary = self._campaign(pool_batch * BATCH, BATCH)
                peaks: dict = {}
                for report in summary.reports:
                    attempted += 1
                    names = sorted(r.name for r in report.results)
                    if not report.ok or names != sorted(layers.CHECK_NAMES):
                        failed += 1
                        print(f"fuzz: FAILED {report.reproducer()}: {report.results}")
                    info = getattr(report, "perfbench", None)
                    if info is None:
                        continue
                    instance_ms.append(info["ms"])
                    peaks[info["pid"]] = max(
                        peaks.get(info["pid"], 0), info["rss_mb"]
                    )
                    layers.merge_totals(totals, info["layers"])
                if len(summary.reports) != BATCH:
                    failed += BATCH - len(summary.reports)
                    attempted += BATCH - len(summary.reports)
                worker_peaks.append(sum(peaks.values()))
                counts[f"batch{pool_batch}"] = summary.counts()
                batch += 1
        finally:
            differential._run_one_task = self.original_task
        elapsed = time.perf_counter() - start - speed.spent
        flags += [
            f"{key} check table differs from the previous run"
            for key in check_work_counts(self.name, self.seed, counts)
        ]
        table: dict = {}
        for rows in counts.values():
            for check, row in rows.items():
                agg = table.setdefault(check, {})
                for status, n in row.items():
                    agg[status] = agg.get(status, 0) + n
        retries = counters.export()["counts"].get(
            "par.task_retries", 0
        ) - retries_before
        extra = {"par.tasks": attempted, "par.retries": retries}
        if tracer is not None:
            parent = layers.layer_totals(tracer.snapshot())
            pool_ns = parent.get("par", [0, 0])[1]
            extra["par.busy_share"] = sum(instance_ms) * 1e6 / max(
                1, JOBS * pool_ns
            )
        ops = len(instance_ms)
        return {
            "attempted": attempted,
            "failed": failed,
            "ops": ops,
            "throughput_per_s": ops / elapsed,
            "op_p50_ms": statistics.median(instance_ms) if instance_ms else 0.0,
            "flags": flags,
            "busy_ms": sum(instance_ms),
            "peak_rss_mb": self_peak_rss_mb() + max(worker_peaks, default=0),
            "layer_totals": totals,
            "extra_layer": extra,
            "lines": [
                sample_line("op_p50_ms (one instance)", instance_ms),
                f"  batches={batch} x {BATCH} instances, jobs={JOBS}",
                f"  check-status table: {table}",
            ],
        }

    def close(self) -> None:
        pass
