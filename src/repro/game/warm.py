"""Warm-start solving: a win-set solve cache.

Mutation-detection sweeps, sharded campaign workers and server
synthesis re-solve the same reachability games.  This module lets a
converged backward fixpoint outlive the solve that computed it:

* :class:`WinSetCache` — an in-process + on-disk cache of **converged**
  per-node winning federations, keyed by the network's
  :meth:`~repro.ta.model.Network.structural_hash`, the query text, and
  the effective ExtraM extrapolation caps.  Federations persist in
  minimal-constraint form through the shared zone codec of
  :mod:`repro.dbm.minform` (round-trip verified at write time), so
  entries are compact and exact.  A cache hit re-explores the simulation graph
  (cheap, forward-only) and installs the stored fixpoint instead of
  re-running the backward worklist.

* :func:`warm_solve` — the cache-consulting front-end: hit → install,
  miss → two-phase solve to convergence → store.  Only converged results
  are ever cached; an early-stopped on-the-fly solve is an intentional
  under-approximation and is *not* cacheable.

The ``warmstart`` differential check (:mod:`repro.gen.differential`)
fuzzes the restore path against a cold solve with exact per-node
win-set equality, like every other fast path in this repo; any
node-matching mismatch falls back to a cold solve
(``solver.warm_mismatches``), never to a wrong answer.

Cache layout: ``<dir>/<2-char shard>/<sha256 key>.json``, one entry per
(structural hash, query, caps).  Delete the directory to clear.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, Optional, Sequence, Tuple, Union

from ..dbm import (
    federation_from_obj,
    federation_to_obj,
    zone_from_obj,
    zone_to_obj,
)
from ..semantics.system import System
from ..ta.model import Network
from ..tctl.goals import GoalPredicate
from ..tctl.query import Query, parse_query
from ..util import counters
from ..util.checked import CorruptFile, checksum, read_checked, write_atomic
from .solver import GameResult, NodeWin, TwoPhaseSolver

__all__ = [
    "WinSetCache",
    "effective_caps",
    "resolve_cache",
    "warm_solve",
]

#: Part of every cache key, so entries of an older format are misses.
#: Version 2 names the disk checksum ``checksum`` (version 1: ``sha``).
FORMAT_VERSION = 2


# ----------------------------------------------------------------------
# Extrapolation caps
# ----------------------------------------------------------------------


def effective_caps(
    system: System, query: Query
) -> Optional[Tuple[int, ...]]:
    """The ExtraM caps a solver run will actually use (None = disabled).

    Mirrors ``SimulationGraph``: the network's per-clock max constants,
    raised by the goal predicate's clock atoms (elementwise max);
    ``None`` for models with diagonal constraints,
    where extrapolation is off.  Part of the cache key — win-sets are
    only comparable at identical caps.
    """
    network = system.network
    if network.has_diagonal_constraints():
        return None
    from ..expr.clocksplit import update_max_constants

    goal = GoalPredicate(system, query.predicate)
    extra = [0] * system.dim
    update_max_constants(goal.clock_atoms(), system.decls, extra)
    caps = [max(a, b) for a, b in zip(network.max_constants(), extra)]
    return tuple(int(c) for c in caps)


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------


class WinSetCache:
    """In-process + on-disk cache of converged win-set solves.

    Keys combine the network's structural hash, the query text, and the
    effective extrapolation caps; entries hold every node's winning
    federation *and* its rank layers (fixpoint step → increment), so a
    restored result supports strategy extraction unchanged.  Disk writes
    are atomic (:func:`~repro.util.checked.write_atomic`) and carry a
    ``checksum`` — concurrent campaign workers sharing a directory race
    benignly, last writer wins with identical content.
    """

    def __init__(self, directory: Optional[str] = None, *, memory: bool = True):
        self.directory = directory
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._memory: Optional[Dict[str, dict]] = {} if memory else None
        # Same-process repeats skip even re-exploration: the installed
        # GameResult is memoized per key.  Results are treated as
        # immutable by every consumer (strategy extraction only reads).
        self._results: Optional[Dict[str, GameResult]] = {} if memory else None

    # -- keying --------------------------------------------------------

    @staticmethod
    def key_for(
        network: Network,
        query: Union[Query, str],
        caps: Optional[Sequence[int]],
    ) -> str:
        payload = json.dumps(
            {
                "format": FORMAT_VERSION,
                "net": network.structural_hash(),
                "query": str(query),
                "caps": None if caps is None else [int(c) for c in caps],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], key + ".json")

    # -- load / store --------------------------------------------------

    def load(self, key: str) -> Optional[dict]:
        """The stored entry for a key, or None (memory first, then disk).

        A disk entry that fails :func:`~repro.util.checked.read_checked`
        (unparseable, or its recorded ``checksum`` disagrees) is a cache
        *miss*, never an error: the file is quarantined aside (renamed
        ``.corrupt``) with a ``solver.warm_corrupt_entries`` counter bump
        and the caller falls back to a cold solve — degradation costs
        time, not soundness.
        """
        if self._memory is not None:
            entry = self._memory.get(key)
            if entry is not None:
                return entry
        if not self.directory:
            return None
        path = self._path(key)
        try:
            entry = read_checked(path)
        except OSError:
            return None
        except CorruptFile:
            counters.inc("solver.warm_corrupt_entries")
            try:
                os.replace(path, path + ".corrupt")
            except OSError:
                pass
            return None
        if self._memory is not None:
            self._memory[key] = entry
        return entry

    def store(self, key: str, entry: dict) -> None:
        """Keep an entry in-process; on disk (checksummed) when configured."""
        if self._memory is not None:
            self._memory[key] = entry
        if self.directory:
            path = self._path(key)
            text = json.dumps(
                dict(entry, checksum=checksum(entry)), separators=(",", ":")
            )
            try:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                write_atomic(path, text, "warm.cache.write")
            except OSError:
                counters.inc("solver.warm_store_errors")

    def cached_result(self, key: str) -> Optional[GameResult]:
        """A GameResult already installed in this process, if any."""
        if self._results is None:
            return None
        return self._results.get(key)

    def forget_results(self) -> None:
        """Drop the installed-result memo, keeping the stored entries.

        Forces the next lookup through the serialize → explore → install
        path — what the ``warmstart`` differential check and the cache
        tests use to exercise the restore path deliberately.
        """
        if self._results is not None:
            self._results.clear()

    def remember_result(self, key: str, result: GameResult) -> None:
        if self._results is not None:
            self._results[key] = result

    def __len__(self) -> int:
        return 0 if self._memory is None else len(self._memory)


def resolve_cache(
    cache: Union[None, str, WinSetCache]
) -> Optional[WinSetCache]:
    """Accept a cache object, a directory path, or None."""
    if cache is None or isinstance(cache, WinSetCache):
        return cache
    return WinSetCache(str(cache))


# ----------------------------------------------------------------------
# Entry codec
# ----------------------------------------------------------------------


def _entry_from_result(result: GameResult) -> dict:
    nodes = []
    for node in result.graph.nodes:
        entry = result.wins.get(node.id)
        if entry is None or entry.win.is_empty():
            continue
        nodes.append(
            {
                "locs": list(node.sym.locs),
                "vars": list(node.sym.vars),
                "zone": zone_to_obj(node.sym.zone),
                "win": federation_to_obj(entry.win),
                "layers": [
                    [int(step), federation_to_obj(fed)]
                    for step, fed in entry.layers
                ],
            }
        )
    return {
        "format": FORMAT_VERSION,
        "dim": result.graph.system.dim,
        "node_count": int(result.graph.node_count),
        "steps": int(result.steps),
        "winning": bool(result.winning),
        "nodes": nodes,
    }


def _install_entry(solver: TwoPhaseSolver, entry: dict) -> Optional[GameResult]:
    """Install a stored fixpoint into a fresh solver; None on mismatch.

    Explores the graph forward (that part is not cached), matches every
    stored record to a live node by exact ``(locs, vars, zone)``, and
    seeds its :class:`NodeWin`.  Any stored record without a live node
    means exploration diverged from the storing process (e.g. a
    hash-seed-dependent fold order) — report a mismatch so the caller
    re-solves cold; never guess.
    """
    started = time.monotonic()
    dim = solver.system.dim
    if entry.get("format") != FORMAT_VERSION or entry.get("dim") != dim:
        return None
    solver.graph.explore_all()
    if entry.get("node_count") != solver.graph.node_count:
        return None  # exploration diverged from the storing process
    index = {
        (node.sym.locs, node.sym.vars, node.sym.zone.hash_key()): node
        for node in solver.graph.nodes
    }
    seeded = 0
    max_step = 0
    try:
        records = entry["nodes"]
        for rec in records:
            zone = zone_from_obj(dim, rec["zone"])
            key = (tuple(rec["locs"]), tuple(rec["vars"]), zone.hash_key())
            node = index.get(key)
            if node is None:
                solver.wins.clear()
                return None
            layers = [
                (int(step), federation_from_obj(dim, obj))
                for step, obj in rec["layers"]
            ]
            version = max((step for step, _ in layers), default=0)
            solver.wins[node.id] = NodeWin(
                federation_from_obj(dim, rec["win"]),
                solver.goal_fed(node),
                layers,
                version,
            )
            seeded += 1
            max_step = max(max_step, version)
        solver._step = max(int(entry.get("steps", max_step)), max_step)
    except (KeyError, TypeError, ValueError, IndexError):
        solver.wins.clear()
        return None
    counters.inc("solver.warm_nodes_seeded", seeded)
    return GameResult(
        solver._initial_winning(),
        solver.graph,
        solver.wins,
        solver.goal,
        solver._step,
        solver.graph.node_count,
        time.monotonic() - started,
    )


# ----------------------------------------------------------------------
# Warm front-ends
# ----------------------------------------------------------------------


def warm_solve(
    system: System,
    query: Union[Query, str],
    *,
    cache: WinSetCache,
    max_nodes: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> GameResult:
    """Cache-consulting two-phase solve (always converged).

    Hit → explore + install (``solver.warm_hits``); miss → cold solve +
    store (``solver.warm_misses`` / ``solver.warm_stores``); a hit whose
    stored nodes cannot be matched to the freshly explored graph falls
    back to the cold path (``solver.warm_mismatches``).
    """
    if isinstance(query, str):
        query = parse_query(query)

    def fresh_solver() -> TwoPhaseSolver:
        return TwoPhaseSolver(
            system, query, max_nodes=max_nodes, time_limit=time_limit
        )

    caps = effective_caps(system, query)
    key = cache.key_for(system.network, query, caps)
    memo = cache.cached_result(key)
    if memo is not None:
        counters.inc("solver.warm_hits")
        counters.inc("solver.warm_result_hits")
        return memo
    entry = cache.load(key)
    if entry is not None:
        result = _install_entry(fresh_solver(), entry)
        if result is not None:
            counters.inc("solver.warm_hits")
            cache.remember_result(key, result)
            return result
        counters.inc("solver.warm_mismatches")
    else:
        counters.inc("solver.warm_misses")
    result = fresh_solver().solve()
    cache.store(key, _entry_from_result(result))
    counters.inc("solver.warm_stores")
    cache.remember_result(key, result)
    return result
