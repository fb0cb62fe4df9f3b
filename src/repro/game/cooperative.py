"""Cooperative testing — the paper's future-work item 4.

When no winning strategy exists for a test purpose, the paper proposes a
"small retreat": *cooperative* testing, where the tester steers toward the
goal and relies on the plant's cooperation where the game is not winnable.
The verdict of a cooperative run is ``pass`` if the goal is reached,
``fail`` on a tioco violation (soundness is unaffected), and
``inconclusive`` when the plant simply declined to cooperate.

:class:`CooperativeStrategy` combines:

* the (possibly empty) *winning* region of the ordinary game solver —
  inside it, decisions follow the winning strategy (guaranteed progress);
* outside it, a time-abstract *cooperative distance*: the length of the
  shortest simulation-graph path to a goal node counting every move as
  cooperative.  The tester fires the first controllable edge of a
  shortest path, or waits (bounded) for the plant to take the
  uncontrollable one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..graph.explorer import GraphEdge, GraphNode
from ..semantics.state import ConcreteState
from ..semantics.system import System
from ..tctl.query import Query
from .solver import GameResult, TwoPhaseSolver
from .strategy import Decision, Strategy, Verdictish, zone_delay_interval


@dataclass
class CooperativePlan:
    """Per-node shortest cooperative route to the goal."""

    distance: int
    via: Optional[GraphEdge]  # None at goal nodes


class CooperativeStrategy:
    """Best-effort goal steering with a winning core."""

    def __init__(self, result: GameResult):
        self.result = result
        self.system: System = result.graph.system
        # Inside the (possibly partial) winning region, play to win; the
        # Strategy class itself requires a globally won game.
        self.core: Optional[Strategy] = Strategy(result) if result.winning else None
        self.plans: Dict[int, CooperativePlan] = {}
        self._build_plans()

    # ------------------------------------------------------------------

    def _build_plans(self) -> None:
        graph = self.result.graph
        queue: deque = deque()
        for node in graph.nodes:
            if not self.result.goal.federation(node.sym).is_empty():
                self.plans[node.id] = CooperativePlan(0, None)
                queue.append(node)
        while queue:
            node = queue.popleft()
            dist = self.plans[node.id].distance
            for edge in node.in_edges:
                if edge.source.id not in self.plans:
                    self.plans[edge.source.id] = CooperativePlan(dist + 1, edge)
                    queue.append(edge.source)

    @property
    def goal_reachable(self) -> bool:
        return self.result.graph.initial.id in self.plans

    # ------------------------------------------------------------------

    def _matching_nodes(self, state: ConcreteState) -> List[GraphNode]:
        graph = self.result.graph
        return [
            node
            for node in graph._by_key.get(state.key, ())
            if node.zone.contains_scaled(*state.scaled)
        ]

    def decide(self, state: ConcreteState) -> Decision:
        """Winning-core decision if available, else cooperative steering."""
        # Winning core first: inside the winning region, play to win.
        if self.core is not None:
            decision = self.core.decide(state)
            if decision.kind != Verdictish.LOST:
                return decision
        # Goal reached outright?
        for node in self._matching_nodes(state):
            if self.result.goal.federation(node.sym).contains_scaled(*state.scaled):
                return Decision(Verdictish.DONE)
        # Cooperative steering.
        best: Optional[Tuple[int, GraphEdge]] = None
        for node in self._matching_nodes(state):
            plan = self.plans.get(node.id)
            if plan is None or plan.via is None:
                continue
            if best is None or plan.distance < best[0]:
                best = (plan.distance, plan.via)
        if best is None:
            return Decision(Verdictish.LOST)
        _, edge = best
        move = edge.move
        if move.controllable:
            guard = edge.source.zone.constrained(
                self.system.guard_constraints(move, edge.source.sym.vars)
            )
            interval = zone_delay_interval(guard, *state.scaled)
            if interval is None:
                return Decision(Verdictish.WAIT, delay=None)
            d = interval.pick()
            if d == 0:
                return Decision(Verdictish.FIRE, move=move)
            return Decision(Verdictish.WAIT, delay=d)
        # Next cooperative step is the plant's: wait for it.
        return Decision(Verdictish.WAIT, delay=None)


def solve_cooperative(
    system: System,
    query: Query,
    *,
    max_nodes: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> CooperativeStrategy:
    """Solve the game and wrap the result for cooperative testing."""
    solver = TwoPhaseSolver(
        system, query, max_nodes=max_nodes, time_limit=time_limit
    )
    result = solver.solve()
    return CooperativeStrategy(result)
