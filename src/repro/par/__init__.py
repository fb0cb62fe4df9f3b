"""Parallel execution: seed-stable sharding of campaigns across cores.

The differential fuzz campaigns (:mod:`repro.gen`) and the
mutation-detection test campaigns (:mod:`repro.testing.campaign`) are
embarrassingly parallel — thousands of independent generate → solve →
conformance instances — but were strictly serial.  :mod:`repro.par`
provides the primitive both need: :func:`steal_map`, an order-preserving
parallel map over picklable task tuples with work-stealing single-task
dispatch, so one solver-heavy instance never straggles a batch of cheap
neighbours.  It

* keeps results **deterministic**: results come back in task order no
  matter which worker finished first, so a sharded campaign report is
  byte-identical to the serial one for the same seed;
* keeps profiling **visible**: each worker ships its
  :mod:`repro.util.counters` state home and the parent merges it, so
  op-level profiles survive the pool;
* is **fork/spawn-safe**: worker entry points are importable
  module-level functions (never closures), so the pool works under both
  start methods and under ``python -m`` entry points.

See :mod:`repro.par.pool` for the implementation and the determinism
contract.
"""

from .pool import (
    PoolDeathError,
    TaskCrash,
    auto_jobs,
    parse_jobs,
    resolve_jobs,
    steal_map,
)

__all__ = [
    "PoolDeathError",
    "TaskCrash",
    "auto_jobs",
    "parse_jobs",
    "resolve_jobs",
    "steal_map",
]
