"""Cheap op-level profiling counters for the zone engine and solvers.

Benchmarks should report *what the engine did*, not only wall clock: how
many Floyd-Warshall closures ran, how large federations get, how the
solver's incremental caches hit, and which kernel backend was selected
or demoted.  Counters are plain dict increments (~100ns), far
below the cost of any counted operation, and are always on.

Usage::

    from repro.util import counters
    counters.reset()
    ... run workload ...
    print(counters.report())

Histogram-style metrics (``observe``) record count / total / max, so
``zones_per_federation`` yields an average and a worst case.

Each thread counts into its own tables, and the process totals are
their sum: :func:`export`, :func:`snapshot`, :func:`report` and
:func:`reset` act on the totals, while :func:`capture` scopes one
thread's block (a bump made meanwhile by another thread, such as a
worker of ``asyncio.to_thread``, lands in the totals only).  Work
sharded across a worker pool (:mod:`repro.par`) accumulates into *each
worker's* process, not the parent's: workers ship their raw state home
with :func:`export` and the parent folds it in with :func:`merge`, so
op-level profiles survive the pool instead of silently reading zero
under ``--jobs > 1``.  Both counter addition and the count/total/max
stat merge are commutative and associative, so the aggregate is
independent of worker scheduling.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple, Union

#: Every thread's ``(counts, stats)`` tables, in first-use order; a
#: finished thread's stay, as their bumps are part of the totals.
_TABLES: List[Tuple[Dict[str, int], Dict[str, list]]] = []
_TABLES_LOCK = threading.Lock()


class _ThreadTables(threading.local):
    """This thread's counts and stats (name -> [count, total, max])."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.stats: Dict[str, list] = {}
        with _TABLES_LOCK:
            _TABLES.append((self.counts, self.stats))


_local = _ThreadTables()


def inc(name: str, n: int = 1) -> None:
    """Add ``n`` to a counter."""
    counts = _local.counts
    counts[name] = counts.get(name, 0) + n


def observe(name: str, value: int) -> None:
    """Record one sample of a size-style metric (count/total/max)."""
    stats = _local.stats
    stat = stats.get(name)
    if stat is None:
        stats[name] = [1, value, value]
    else:
        stat[0] += 1
        stat[1] += value
        if value > stat[2]:
            stat[2] = value


def _fold(
    counts: Dict[str, int],
    stats: Dict[str, list],
    exported: Dict[str, Dict],
) -> None:
    """Add an :func:`export`-shaped state into ``counts``/``stats``."""
    for name, n in exported.get("counts", {}).items():
        counts[name] = counts.get(name, 0) + n
    for name, (count, total, peak) in exported.get("stats", {}).items():
        stat = stats.get(name)
        if stat is None:
            stats[name] = [count, total, peak]
        else:
            stat[0] += count
            stat[1] += total
            if peak > stat[2]:
                stat[2] = peak


def _table_state(counts: Dict[str, int], stats: Dict[str, list]) -> Dict[str, Dict]:
    """One thread's tables as a detached :func:`export`-shaped copy."""
    return {
        "counts": dict(counts),
        "stats": {name: list(stat) for name, stat in dict(stats).items()},
    }


def _totals() -> Tuple[Dict[str, int], Dict[str, list]]:
    """The process totals: every thread's tables summed."""
    counts: Dict[str, int] = {}
    stats: Dict[str, list] = {}
    with _TABLES_LOCK:
        tables = list(_TABLES)
    for table in tables:
        _fold(counts, stats, _table_state(*table))
    return counts, stats


def reset() -> None:
    """Zero every counter and stat, in every thread."""
    with _TABLES_LOCK:
        tables = list(_TABLES)
    for counts, stats in tables:
        counts.clear()
        stats.clear()


def export() -> Dict[str, Dict]:
    """The raw counter totals in a mergeable, picklable form.

    The inverse-ish of :func:`merge`: a worker exports at the end of its
    shard, the parent merges every export.  Unlike :func:`snapshot` the
    stats keep their raw ``[count, total, max]`` triples, so merging
    loses nothing (means are recomputed from the merged totals).
    """
    counts, stats = _totals()
    return {"counts": counts, "stats": stats}


def merge(exported: Dict[str, Dict]) -> None:
    """Fold an :func:`export` from another process into this one's state."""
    _fold(_local.counts, _local.stats, exported)


def merge_all(exports: List[Dict[str, Dict]]) -> None:
    """Merge a batch of exports (order-insensitive)."""
    for exported in exports:
        merge(exported)


def diff(before: Dict[str, Dict], after: Dict[str, Dict]) -> Dict[str, int]:
    """Per-key deltas between two :func:`export` snapshots, flattened.

    The per-unit-of-work profile used as a coverage signal by the fuzz
    corpus (:mod:`repro.corpus`): plain counters yield their increment,
    stats yield ``name.n`` (samples) and ``name.sum`` (total) increments —
    ``max`` is not subtractable and is dropped.  Zero deltas are omitted,
    so an idle counter leaves no key at all.
    """
    out: Dict[str, int] = {}
    before_counts = before.get("counts", {})
    for name, n in after.get("counts", {}).items():
        delta = n - before_counts.get(name, 0)
        if delta:
            out[name] = delta
    before_stats = before.get("stats", {})
    for name, (count, total, _peak) in after.get("stats", {}).items():
        b_count, b_total, _ = before_stats.get(name, (0, 0, 0))
        if count - b_count:
            out[f"{name}.n"] = count - b_count
        if total - b_total:
            out[f"{name}.sum"] = total - b_total
    return out


@contextmanager
def capture(into: Dict[str, int]) -> Iterator[Dict[str, int]]:
    """Accumulate the block's counter deltas into ``into`` (flattened).

    The scoping primitive for work units that *share one process*: the
    asyncio test server interleaves many sessions on one event loop, so
    per-session op profiles cannot come from :func:`reset` the way the
    worker pool's per-task profiles do.  Instead every synchronous slice
    of a session's work runs under ``capture(session.ops)``, and the
    deltas (computed exactly like :func:`diff`) fold into that session's
    own dict.  Only the calling thread's bumps count: work another
    thread does meanwhile (a spec resolved in ``asyncio.to_thread``, say)
    reaches the process totals but never this scope.  The block must not
    yield to other sessions' work on the same thread (no ``await``
    inside), or their ops leak into this scope; both the server and the
    in-process drivers only do synchronous work per step, so the
    invariant is structural.
    """
    counts, stats = _local.counts, _local.stats
    before = _table_state(counts, stats)
    try:
        yield into
    finally:
        after = _table_state(counts, stats)
        for name, delta in diff(before, after).items():
            into[name] = into.get(name, 0) + delta


def snapshot() -> Dict[str, Union[int, Dict[str, float]]]:
    """All counters and stats as a plain JSON-friendly dict."""
    counts, stats = _totals()
    out: Dict[str, Union[int, Dict[str, float]]] = dict(counts)
    for name, (count, total, peak) in stats.items():
        out[name] = {
            "count": count,
            "mean": total / count if count else 0.0,
            "max": peak,
        }
    return out


def report() -> str:
    """Human-readable one-line-per-counter rendering."""
    counts, stats = _totals()
    lines = []
    for name in sorted(counts):
        lines.append(f"{name:40s} {counts[name]}")
    for name in sorted(stats):
        count, total, peak = stats[name]
        mean = total / count if count else 0.0
        lines.append(f"{name:40s} n={count} mean={mean:.2f} max={peak}")
    return "\n".join(lines)
