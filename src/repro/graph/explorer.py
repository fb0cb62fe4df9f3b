"""Forward exploration of the simulation graph (zone graph).

Nodes are symbolic states ``(discrete state, delay-closed zone)``; edges
carry the :class:`~repro.semantics.system.Move` that produced them, so the
game solver can replay them for both ``post`` and ``pred``.

Inclusion subsumption: a freshly computed symbolic state whose zone is
contained in an existing node's zone (same discrete state) is folded into
that node.  With ExtraM extrapolation (diagonal-free models) the graph is
finite; for models with diagonal guards extrapolation is disabled and
termination relies on bounded clocks (checked by the caller via
``max_nodes``).

Each node costs one backend call forward, ``zone_expand`` on the
discrete state's :meth:`System.expansion` table: every enabled move's
guard, clock assignments, target invariant, delay closure and
extrapolation, fused.  Successors are interned by the bytes of the
extrapolated canonical zone, and a new zone is probed for a node of its
discrete state whose zone includes it with one ``first_superset`` call.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dbm import DBM
from ..dbm import backends as _backends
from ..dbm.backends.base import ExpansionTable
from ..semantics.state import DiscreteKey, SymbolicState
from ..semantics.system import CLOSED, Move, System


class _ZoneIndex:
    """Append-only stack of one discrete state's node zones.

    Interning probes it once per freshly computed symbolic state with the
    backend's ``first_superset`` kernel; with many nodes per discrete
    state that is the explorer's inner loop, so the zones stay stacked
    in one ``(cap, dim, dim)`` buffer.
    """

    __slots__ = ("buf", "count")

    def __init__(self, dim: int):
        self.buf = np.empty((4, dim, dim), dtype=np.int64)
        self.count = 0

    def add(self, matrix: np.ndarray) -> None:
        """Append a (nonempty, canonical) zone matrix."""
        if self.count == self.buf.shape[0]:
            grown = np.empty(
                (2 * self.count,) + self.buf.shape[1:], dtype=np.int64
            )
            grown[: self.count] = self.buf
            self.buf = grown
        self.buf[self.count] = matrix
        self.count += 1


class ExplorationLimit(RuntimeError):
    """Raised when exploration exceeds its node or time budget."""


@dataclass
class GraphEdge:
    source: "GraphNode"
    move: Move
    target: "GraphNode"
    #: The move's index in the source node's :attr:`GraphNode.table`.
    slot: int

    def __repr__(self) -> str:
        return f"GraphEdge({self.source.id} -{self.move.label}-> {self.target.id})"


@dataclass
class GraphNode:
    id: int
    sym: SymbolicState
    out_edges: List[GraphEdge] = field(default_factory=list)
    in_edges: List[GraphEdge] = field(default_factory=list)
    #: The discrete state's expansion table, once the node is expanded.
    table: Optional[ExpansionTable] = None

    @property
    def key(self) -> DiscreteKey:
        return self.sym.key

    @property
    def zone(self) -> DBM:
        return self.sym.zone

    def __hash__(self) -> int:
        return self.id

    def __repr__(self) -> str:
        return f"GraphNode({self.id}, locs={self.sym.locs})"


class SimulationGraph:
    """The explored portion of a network's simulation graph."""

    def __init__(
        self,
        system: System,
        *,
        mode: str = CLOSED,
        extrapolate: bool = True,
        extra_max_consts: Optional[Sequence[int]] = None,
        max_nodes: Optional[int] = None,
        time_limit: Optional[float] = None,
    ):
        self.system = system
        #: Move-enumeration mode (closed | open | partial).
        self.mode = mode
        self.max_nodes = max_nodes
        self.time_limit = time_limit
        self.nodes: List[GraphNode] = []
        self._by_key: Dict[DiscreteKey, List[GraphNode]] = {}
        self._zone_index: Dict[DiscreteKey, _ZoneIndex] = {}
        # Exact-zone memo: a state reached over k edges is interned k
        # times with byte-identical zones; remembering the resolved node
        # skips the subsumption scan for repeats.
        self._intern_memo: Dict[tuple, GraphNode] = {}
        # Canonical-zone table keyed by the canonical matrix bytes
        # (:meth:`repro.dbm.DBM.hash_key`, unique per zone): equal
        # post-extrapolation zones reached at *different* discrete states
        # collapse to one DBM object, sharing matrix storage and memoized
        # keys across the graph's lifetime.
        self._zone_intern: Dict[bytes, DBM] = {}
        self._expanded: Dict[int, bool] = {}
        self._counter = itertools.count()
        network = system.network
        if extrapolate and not network.has_diagonal_constraints():
            base = network.max_constants()
            if extra_max_consts is not None:
                base = [max(a, b) for a, b in zip(base, extra_max_consts)]
            self.max_consts: Optional[Tuple[int, ...]] = tuple(base)
        else:
            self.max_consts = None
        initial = system.initial_symbolic()
        zone = initial.zone
        if self.max_consts is not None:
            zone = zone.extrapolate(self.max_consts)
        self.initial = self._intern(initial.locs, initial.vars, zone.m)

    # ------------------------------------------------------------------
    # Node interning
    # ------------------------------------------------------------------

    def _intern(
        self, locs: Tuple[int, ...], vars: Tuple[int, ...], matrix: np.ndarray
    ) -> GraphNode:
        """The node of a nonempty, extrapolated canonical zone at a
        discrete state: an existing node whose zone includes it, or a new
        one."""
        zkey = matrix.tobytes()
        zone = self._zone_intern.get(zkey)
        if zone is None:
            # A copy: the matrix may be a row of a whole expansion stack.
            zone = self._zone_intern[zkey] = DBM(matrix.copy())
        key = (locs, vars)
        # Keyed by the interned zone's bytes, one object per distinct zone.
        memo_key = (key, zone.hash_key())
        node = self._intern_memo.get(memo_key)
        if node is not None:
            return node
        index = self._zone_index.get(key)
        if index is not None:
            hit = _backends.active().first_superset(
                index.buf[: index.count], zone.m
            )
            if hit >= 0:
                node = self._by_key[key][hit]
        created = node is None
        if created:
            node = GraphNode(
                next(self._counter), SymbolicState(locs, vars, zone)
            )
            self.nodes.append(node)
            self._by_key.setdefault(key, []).append(node)
            if index is None:
                index = self._zone_index[key] = _ZoneIndex(zone.dim)
            index.add(zone.m)
        self._intern_memo[memo_key] = node
        limit = self.max_nodes
        if created and limit is not None and len(self.nodes) > limit:
            raise ExplorationLimit(
                f"simulation graph exceeded {self.max_nodes} nodes"
            )
        return node

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------

    def expand(self, node: GraphNode) -> List[GraphEdge]:
        """Compute (once) and return the outgoing edges of a node: one
        ``zone_expand`` call over its discrete state's table."""
        if self._expanded.get(node.id):
            return node.out_edges
        self._expanded[node.id] = True
        sym = node.sym
        table = node.table = self.system.expansion(
            sym.locs, sym.vars, self.mode, self.max_consts
        )
        if not table.moves:
            return node.out_edges
        rows, ok = _backends.active().zone_expand(sym.zone.m, table)
        for slot, nonempty in enumerate(ok.tolist()):
            if not nonempty:
                continue
            locs, vars = table.targets[slot]
            target = self._intern(locs, vars, rows[slot])
            edge = GraphEdge(node, table.moves[slot], target, slot)
            node.out_edges.append(edge)
            target.in_edges.append(edge)
        return node.out_edges

    def explore_all(
        self, on_node: Optional[Callable[[GraphNode], None]] = None
    ) -> "SimulationGraph":
        """Breadth-first exhaustive exploration (respecting limits)."""
        deadline = None if self.time_limit is None else time.monotonic() + self.time_limit
        frontier = [self.initial]
        seen = {self.initial.id}
        while frontier:
            if deadline is not None and time.monotonic() > deadline:
                raise ExplorationLimit("simulation graph exploration timed out")
            next_frontier: List[GraphNode] = []
            for node in frontier:
                if on_node is not None:
                    on_node(node)
                for edge in self.expand(node):
                    if edge.target.id not in seen:
                        seen.add(edge.target.id)
                        next_frontier.append(edge.target)
            frontier = next_frontier
        return self

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return sum(len(n.out_edges) for n in self.nodes)
