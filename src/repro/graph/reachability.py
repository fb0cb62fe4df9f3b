"""Plain (non-game) reachability and safety checking on the zone graph.

``E<> φ`` — is some state satisfying φ reachable?  ``A[] φ`` — do all
reachable states satisfy φ (checked as ``not E<> !φ``)?  These are used to
sanity-check models and test purposes (a ``control: A<> φ`` purpose can
only hold if φ is reachable at all) and by the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..dbm import Federation
from ..semantics.state import SymbolicState
from ..semantics.system import CLOSED, Move, System
from .explorer import ExplorationLimit, GraphNode, SimulationGraph

StateFederation = Callable[[SymbolicState], Federation]


@dataclass
class ReachabilityResult:
    holds: bool
    witness_node: Optional[GraphNode]
    nodes_explored: int
    trace: Optional[List[Tuple[Move, GraphNode]]] = None

    def __bool__(self) -> bool:
        return self.holds


def check_reachable(
    system: System,
    predicate: StateFederation,
    *,
    mode: str = CLOSED,
    max_nodes: Optional[int] = None,
    time_limit: Optional[float] = None,
    with_trace: bool = False,
) -> ReachabilityResult:
    """On-the-fly ``E<> φ``: stop at the first node intersecting φ."""
    graph = SimulationGraph(
        system,
        mode=mode,
        max_nodes=max_nodes,
        time_limit=time_limit,
    )
    deadline = None if time_limit is None else time.monotonic() + time_limit
    parent: dict = {graph.initial.id: None}
    frontier = [graph.initial]

    def build_trace(node: GraphNode) -> List[Tuple[Move, GraphNode]]:
        steps: List[Tuple[Move, GraphNode]] = []
        current = node
        while parent[current.id] is not None:
            edge = parent[current.id]
            steps.append((edge.move, current))
            current = edge.source
        steps.reverse()
        return steps

    while frontier:
        if deadline is not None and time.monotonic() > deadline:
            raise ExplorationLimit("reachability check timed out")
        next_frontier: List[GraphNode] = []
        for node in frontier:
            if not predicate(node.sym).is_empty():
                return ReachabilityResult(
                    True,
                    node,
                    graph.node_count,
                    build_trace(node) if with_trace else None,
                )
            for edge in graph.expand(node):
                if edge.target.id not in parent:
                    parent[edge.target.id] = edge
                    next_frontier.append(edge.target)
        frontier = next_frontier
    return ReachabilityResult(False, None, graph.node_count)


def find_deadlocks(
    system: System,
    *,
    mode: str = CLOSED,
    max_nodes: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> List[Tuple[GraphNode, "Federation"]]:
    """States where neither time nor any transition can progress.

    A deadlock point is a state at its invariant boundary (no positive
    delay possible) from which no move is enabled.  Such states make the
    paper's maximal-run semantics degenerate (runs just stop), so models
    are usually expected to be free of them; the LEP buffer's overflow
    edge exists precisely to avoid one.

    Returns ``(node, federation of deadlocked states)`` pairs.
    """
    from ..dbm import Federation, INF, decode

    graph = SimulationGraph(
        system, mode=mode, max_nodes=max_nodes, time_limit=time_limit
    )
    graph.explore_all()
    deadlocks: List[Tuple[GraphNode, Federation]] = []
    for node in graph.nodes:
        sym = node.sym
        # Boundary: where the invariant blocks further delay.
        if system.can_delay(sym.locs):
            inv = system.invariant_zone(sym.locs, sym.vars)
            boundary = Federation.empty(system.dim)
            for i in range(1, system.dim):
                enc = int(inv.m[i, 0])
                if enc >= INF:
                    continue
                value, strict = decode(enc)
                if strict:
                    continue
                face = sym.zone.constrained(
                    [(i, 0, (value << 1) | 1), (0, i, ((-value) << 1) | 1)]
                )
                if not face.is_empty():
                    boundary = boundary.union_zone(face)
        else:
            boundary = Federation.from_zone(sym.zone)
        if boundary.is_empty():
            continue
        # Remove states where some move is enabled (guard satisfied and
        # the successor admitted by the target's invariant).
        stuck = boundary
        for edge in node.out_edges:
            enabled = system.pred(
                sym, edge.move, Federation.from_zone(edge.target.zone)
            )
            stuck = stuck.subtract(enabled)
            if stuck.is_empty():
                break
        if not stuck.is_empty():
            deadlocks.append((node, stuck))
    return deadlocks


def check_invariant(
    system: System,
    predicate: StateFederation,
    *,
    mode: str = CLOSED,
    max_nodes: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> ReachabilityResult:
    """``A[] φ`` via ``not E<> (zone \\ φ)``."""

    def violated(sym: SymbolicState) -> Federation:
        good = predicate(sym)
        return Federation.from_zone(sym.zone).subtract(good)

    result = check_reachable(
        system,
        violated,
        mode=mode,
        max_nodes=max_nodes,
        time_limit=time_limit,
    )
    return ReachabilityResult(
        not result.holds, result.witness_node, result.nodes_explored
    )
