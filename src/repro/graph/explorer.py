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
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..dbm import DBM
from ..semantics.state import DiscreteKey, SymbolicState
from ..semantics.system import CLOSED, Move, System


class _ZoneIndex:
    """Append-only stack of zone matrices with a batched superset probe.

    Interning does one subsumption scan per freshly computed symbolic
    state; with many nodes per discrete key that is the explorer's inner
    loop.  Keeping the key's zones stacked in one ``(cap, dim, dim)``
    buffer turns the scan into a single broadcast comparison.
    """

    __slots__ = ("buf", "count")

    def __init__(self, dim: int):
        self.buf = np.empty((4, dim, dim), dtype=np.int64)
        self.count = 0

    def add(self, matrix: Optional[np.ndarray]) -> None:
        """Append a zone matrix; None appends a never-matching sentinel
        (used for empty zones, whose matrix comparison is meaningless)."""
        if self.count == self.buf.shape[0]:
            grown = np.empty(
                (2 * self.count,) + self.buf.shape[1:], dtype=np.int64
            )
            grown[: self.count] = self.buf
            self.buf = grown
        if matrix is None:
            self.buf[self.count] = np.iinfo(np.int64).min
        else:
            self.buf[self.count] = matrix
        self.count += 1

    def find_superset(self, matrix: np.ndarray) -> int:
        """Index of the first stored zone including ``matrix``, or -1."""
        if not self.count:
            return -1
        hits = (self.buf[: self.count] >= matrix).all(axis=(1, 2))
        idx = int(np.argmax(hits))
        return idx if hits[idx] else -1


class ExplorationLimit(RuntimeError):
    """Raised when exploration exceeds its node or time budget."""


@dataclass
class GraphEdge:
    source: "GraphNode"
    move: Move
    target: "GraphNode"

    def __repr__(self) -> str:
        return f"GraphEdge({self.source.id} -{self.move.label}-> {self.target.id})"


@dataclass
class GraphNode:
    id: int
    sym: SymbolicState
    out_edges: List[GraphEdge] = field(default_factory=list)
    in_edges: List[GraphEdge] = field(default_factory=list)

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
        # skips extrapolation and the subsumption scan for repeats.
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
            self.max_consts: Optional[List[int]] = base
        else:
            self.max_consts = None
        self.initial = self._intern(system.initial_symbolic())

    # ------------------------------------------------------------------
    # Node interning
    # ------------------------------------------------------------------

    def _intern(self, sym: SymbolicState) -> GraphNode:
        memo_key = (sym.key, sym.zone.hash_key())
        memoized = self._intern_memo.get(memo_key)
        if memoized is not None:
            return memoized
        if self.max_consts is not None:
            sym = SymbolicState(sym.locs, sym.vars, sym.zone.extrapolate(self.max_consts))
        zone = self._zone_intern.setdefault(sym.zone.hash_key(), sym.zone)
        if zone is not sym.zone:
            sym = SymbolicState(sym.locs, sym.vars, zone)
        index = self._zone_index.get(sym.key)
        node: Optional[GraphNode] = None
        if index is not None:
            if sym.zone.is_empty():
                # Empty zones fold into any existing node of the key.
                for existing in self._by_key[sym.key]:
                    if existing.zone.includes(sym.zone):
                        node = existing
                        break
            else:
                hit = index.find_superset(sym.zone.m)
                if hit >= 0:
                    node = self._by_key[sym.key][hit]
        if node is not None:
            self._intern_memo[memo_key] = node
            return node
        node = GraphNode(next(self._counter), sym)
        self.nodes.append(node)
        self._by_key.setdefault(sym.key, []).append(node)
        if index is None:
            index = self._zone_index[sym.key] = _ZoneIndex(sym.zone.dim)
        index.add(None if sym.zone.is_empty() else sym.zone.m)
        self._intern_memo[memo_key] = node
        if self.max_nodes is not None and len(self.nodes) > self.max_nodes:
            raise ExplorationLimit(
                f"simulation graph exceeded {self.max_nodes} nodes"
            )
        return node

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------

    def moves_from(self, node: GraphNode) -> List[Move]:
        """Enabled moves at a node (closed, open, or partial semantics)."""
        sym = node.sym
        return self.system.moves_from(sym.locs, sym.vars, self.mode)

    def expand(self, node: GraphNode) -> List[GraphEdge]:
        """Compute (once) and return the outgoing edges of a node."""
        if self._expanded.get(node.id):
            return node.out_edges
        self._expanded[node.id] = True
        for move in self.moves_from(node):
            post = self.system.post(node.sym, move)
            if post is None:
                continue
            post = self.system.delay_closure(post)
            target = self._intern(post)
            edge = GraphEdge(node, move, target)
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
