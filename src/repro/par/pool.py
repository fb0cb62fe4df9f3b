"""The worker pool: an order-preserving, counter-merging parallel map.

Determinism contract
====================

``steal_map(fn, tasks, jobs)`` returns ``[fn(*t) for t in tasks]`` —
the same values in the same order for every ``jobs`` value — provided
``fn`` derives all its randomness from its arguments (the repo-wide seed
discipline).  Scheduling only decides *where* a task runs, never what it
computes, and the parent reorders results by task index before returning.
Anything order-sensitive (shrinking, report formatting, rng reuse) stays
in the caller, serial.

Worker-side :mod:`repro.util.counters` state is captured per task and
merged into the parent's counters; the merge is commutative, so the
aggregate — unlike the scheduling — is reproducible too (per-counter
*values* may differ across ``jobs`` settings because per-process memo
caches are split differently; callers treat counters as profiling, not
as part of the deterministic payload).

Fork/spawn safety
=================

The pool uses the platform's default start method (fork on Linux, spawn
on macOS/Windows).  The only callables that cross the process boundary
are module-level functions of importable modules — :func:`_steal_worker`
here and the caller-supplied ``fn`` — so both start methods work, and
``python -m repro.gen.cli`` style entry points are safe because nothing
is pickled out of ``__main__``.

Fault tolerance
===============

The work-stealing pool owns its worker processes, so it can survive
what ``multiprocessing.Pool`` cannot: a worker that dies mid-task
(requeued to a replacement worker, up to ``retries`` extra attempts), a
task that hangs (``task_timeout`` kills the straggling worker and
requeues), and a task that fails every attempt (handed to the
``quarantine`` callback instead of sinking the campaign).  Because
results are journaled under their task index, a retried task that
eventually succeeds leaves the returned list — and any report built
from it — byte-identical to an undisturbed run.  ``KeyboardInterrupt``
terminates the pool promptly and re-raises after the results already
delivered through ``on_result`` (the exit-130 contract of the fuzz
CLI).  The ``par.worker.crash`` / ``par.worker.hang`` /
``par.worker.error`` sites of :mod:`repro.faults` fire inside the
worker loop, so the whole recovery path is deterministic to chaos-test.
"""

from __future__ import annotations

import os
import pickle
import time
from multiprocessing import get_context
from typing import Callable, List, Optional, Sequence

from .. import faults
from ..util import counters


class TaskCrash(RuntimeError):
    """A worker process died (or timed out) while holding a task."""


class PoolDeathError(RuntimeError):
    """The pool could not keep any workers alive."""


def auto_jobs() -> int:
    """Worker count for ``--jobs auto``: the usable CPUs of this process."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def parse_jobs(value: str) -> int:
    """Parse a ``--jobs`` argument: a positive integer or ``auto``."""
    text = str(value).strip().lower()
    if text == "auto":
        return auto_jobs()
    try:
        jobs = int(text)
    except ValueError:
        raise ValueError(f"invalid jobs value {value!r} (expected N or 'auto')")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def resolve_jobs(jobs: int, task_count: int) -> int:
    """Clamp a worker count to the work available."""
    return max(1, min(jobs, task_count))


def _steal_worker(fn, task_q, result_q):
    """Long-lived worker loop: claim a task, run it, post the result.

    The claim message is posted *before* the task runs, so the parent
    always knows which task a dead worker was holding and can requeue
    it.  The :mod:`repro.faults` worker sites fire between claim and
    execution: ``par.worker.crash`` hard-kills the process (exercising
    death recovery), ``par.worker.hang`` sleeps past any
    ``task_timeout``, and ``par.worker.error`` raises in-band.
    Requeued attempts probe with ``retry=True``, so scheduled triggers
    never chase a task past its first attempt — bounded retries absorb
    them by construction — while ``*`` (a poison task) fires on every
    attempt and drives the quarantine path.  Both
    queues are ``SimpleQueue``s — puts are synchronous under a lock, no
    feeder thread — so an injected ``os._exit`` between puts can never
    leave a half-written message in the pipe.
    """
    while True:
        item = task_q.get()
        if item is None:
            return
        index, attempt, args = item
        pid = os.getpid()
        result_q.put(("claim", pid, index, attempt, None))
        try:
            retry = attempt > 1  # attempts are 1-based; 2+ are requeues
            if faults.should_fire("par.worker.crash", retry=retry):
                os._exit(70)
            if faults.should_fire("par.worker.hang", retry=retry):
                time.sleep(faults.hang_seconds())
            faults.fire("par.worker.error", retry=retry)
            counters.reset()
            result = fn(*args)
            message = ("ok", pid, index, attempt, (result, counters.export()))
            try:
                pickle.dumps(message)
            except Exception as exc:
                message = (
                    "err", pid, index, attempt,
                    RuntimeError(f"unpicklable task result: {exc}"),
                )
        except KeyboardInterrupt:
            return
        except BaseException as exc:
            try:
                pickle.dumps(exc)
                payload = exc
            except Exception:
                payload = RuntimeError(f"{type(exc).__name__}: {exc}")
            message = ("err", pid, index, attempt, payload)
        result_q.put(message)


def _poll(queue, timeout: float) -> bool:
    """True when ``queue`` has a message within ``timeout`` seconds."""
    reader = getattr(queue, "_reader", None)
    if reader is None:  # pragma: no cover - exotic platform fallback
        return True
    return reader.poll(timeout)


def steal_map(
    fn: Callable,
    tasks: Sequence[tuple],
    jobs: int = 1,
    *,
    on_result: Optional[Callable[[int, object], None]] = None,
    retries: int = 0,
    task_timeout: Optional[float] = None,
    quarantine: Optional[Callable[[int, BaseException], None]] = None,
) -> List[object]:
    """``[fn(*t) for t in tasks]``, sharded over ``jobs`` processes.

    ``fn`` must be a module-level callable and every task tuple must be
    picklable; results come back in task order for every ``jobs`` value.
    Tasks are handed to workers **one at a time** from a shared queue:
    an idle worker immediately steals the next pending task, so one
    solver-heavy task never straggles a batch of cheap neighbours.
    Dispatch is windowed (at most ``2 * jobs`` undelivered tasks in the
    pipe, topped up as claims arrive) so a large campaign of fast tasks
    can never fill both pipe buffers and deadlock parent against
    workers.

    With ``jobs <= 1`` (or a single task) everything runs in-process:
    no pool, no pickling, counters accrue directly — the serial
    reference the pooled path is tested against.

    ``on_result`` receives ``(index, result)`` as results arrive in
    completion order, which is what an incremental campaign checkpoint
    needs (results must be journaled under their task index to be
    resumable in any completion order).  Per-task worker counters merge
    into the parent's.

    Fault tolerance (pooled path only; the serial path is the plain
    reference loop):

    * a worker that **dies** mid-task is detected by a liveness sweep,
      replaced, and its task requeued — up to ``retries`` extra
      attempts per task;
    * a task that exceeds ``task_timeout`` seconds has its worker
      killed and is requeued under the same retry budget;
    * a task whose attempts are exhausted goes to ``quarantine(index,
      error)`` if given (its slot in the returned list stays ``None``);
      otherwise the error — :class:`TaskCrash` for deaths/timeouts, the
      original exception for in-band failures — is raised.  The default
      (``retries=0``, no quarantine) therefore re-raises a task's first
      in-band exception exactly like the serial loop;
    * ``KeyboardInterrupt`` terminates every worker promptly and
      re-raises; results already delivered via ``on_result`` stand;
    * if replacement workers cannot be spawned, :class:`PoolDeathError`
      is raised instead of hanging.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs, len(tasks))
    if jobs <= 1:
        out = []
        for index, args in enumerate(tasks):
            result = fn(*args)
            out.append(result)
            if on_result is not None:
                on_result(index, result)
        return out

    total = len(tasks)
    results: List[object] = [None] * total
    completed = [False] * total
    failures = [0] * total
    done = 0
    claims: dict = {}  # pid -> (index, attempt, started_at)
    workers: dict = {}  # pid -> Process
    ctx = get_context()
    task_q = ctx.SimpleQueue()
    result_q = ctx.SimpleQueue()

    def spawn():
        try:
            proc = ctx.Process(
                target=_steal_worker, args=(fn, task_q, result_q), daemon=True
            )
            proc.start()
        except Exception as exc:
            raise PoolDeathError(f"could not start pool worker: {exc}") from exc
        workers[proc.pid] = proc

    dispatched = [False] * total
    in_queue = 0  # parent's estimate of undelivered messages in task_q
    cursor = 0  # next fresh task to dispatch
    window = max(2 * jobs, 4)

    def enqueue(index: int, attempt: int):
        nonlocal in_queue
        dispatched[index] = True
        in_queue += 1
        task_q.put((index, attempt, tasks[index]))

    def feed():
        """Keep at most ``window`` undelivered fresh tasks in the pipe.

        Pre-queueing every task can deadlock once both pipe buffers
        fill — the parent blocks in ``put`` while workers block posting
        results nobody is reading — so fresh tasks are dispatched
        lazily as claim messages drain the queue.
        """
        nonlocal cursor
        while cursor < total and in_queue < window:
            enqueue(cursor, 1)
            cursor += 1

    def settle(index: int, error: BaseException):
        """A task attempt failed: requeue, quarantine, or raise."""
        nonlocal done
        failures[index] += 1
        if failures[index] <= retries:
            counters.inc("par.task_retries")
            enqueue(index, failures[index] + 1)
            return
        if quarantine is not None:
            counters.inc("par.task_quarantined")
            completed[index] = True
            done += 1
            quarantine(index, error)
            return
        raise error

    def sweep():
        """Liveness pass: dead workers, hung tasks, lost claims."""
        nonlocal done
        for pid, proc in list(workers.items()):
            if proc.is_alive():
                continue
            workers.pop(pid)
            proc.join()
            counters.inc("par.worker_deaths")
            claim = claims.pop(pid, None)
            if claim is not None:
                index, attempt, _ = claim
                if not completed[index]:
                    settle(
                        index,
                        TaskCrash(
                            f"worker died running task {index}"
                            f" (attempt {attempt})"
                        ),
                    )
            if done < total:
                spawn()
        if task_timeout is not None:
            now = time.monotonic()
            for pid, (index, attempt, started) in list(claims.items()):
                if now - started <= task_timeout:
                    continue
                claims.pop(pid)
                proc = workers.pop(pid, None)
                if proc is not None and proc.is_alive():
                    proc.terminate()
                    proc.join(1.0)
                    if proc.is_alive():  # pragma: no cover - stubborn child
                        proc.kill()
                        proc.join(1.0)
                counters.inc("par.task_timeouts")
                if not completed[index]:
                    settle(
                        index,
                        TaskCrash(
                            f"task {index} exceeded task_timeout="
                            f"{task_timeout}s (attempt {attempt})"
                        ),
                    )
                if done < total:
                    spawn()

    feed()
    for _ in range(jobs):
        spawn()

    idle_sweeps = 0
    try:
        while done < total:
            if not _poll(result_q, 0.2 if task_timeout else 0.5):
                sweep()
                # Two consecutive silent sweeps with healthy, unclaimed
                # workers mean a claim message was lost with its worker
                # (a crash in the narrow window between queue get and
                # claim put): requeue everything not completed and not
                # claimed.  Duplicates are harmless — completion is
                # recorded once per index, first result wins.
                if not claims:
                    idle_sweeps += 1
                    if idle_sweeps >= 2:
                        idle_sweeps = 0
                        # No claims outstanding and healthy workers
                        # sitting idle: the queue is drained (or its
                        # claims died with their workers), so the
                        # in-flight estimate resyncs to zero before the
                        # requeue.  Only tasks already dispatched need
                        # requeueing — fresh ones still flow via feed().
                        in_queue = 0
                        for index in range(total):
                            if dispatched[index] and not completed[index]:
                                counters.inc("par.task_requeues_lost")
                                enqueue(index, failures[index] + 1)
                        feed()
                continue
            idle_sweeps = 0
            kind, pid, index, attempt, payload = result_q.get()
            if kind == "claim":
                in_queue -= 1
                claims[pid] = (index, attempt, time.monotonic())
                feed()
                continue
            claims.pop(pid, None)
            if completed[index]:
                continue
            if kind == "ok":
                result, exported = payload
                counters.merge(exported)
                results[index] = result
                completed[index] = True
                done += 1
                if on_result is not None:
                    on_result(index, result)
            else:  # "err"
                settle(index, payload)
        for _ in range(len(workers)):
            task_q.put(None)
        deadline = time.monotonic() + 2.0
        for proc in workers.values():
            proc.join(max(0.0, deadline - time.monotonic()))
    finally:
        for proc in workers.values():
            if proc.is_alive():
                proc.terminate()
        for proc in workers.values():
            proc.join(2.0)
            if proc.is_alive():  # pragma: no cover - stubborn child
                proc.kill()
                proc.join(1.0)
    return results
