"""Winning strategies: extraction, runtime lookup, and printing.

A solved game (:class:`~repro.game.solver.GameResult`) induces a
state-based strategy (paper Def. 6): a partial function from semantic
states to ``Act_c ∪ {λ}``.  Concretely, per graph node we keep

* the **goal** federation — the game is already won there (``Done``);
* **action decisions** ``(step, edge, federation)`` — firing the
  controllable ``edge`` from a state of ``federation`` moves to a target
  state that entered the winning set at fixpoint step ``step``;
* everything else in the winning federation is implicit **wait** (λ).

Rank discipline: a concrete state's *rank* is the fixpoint step at which
it became winning; an action decision is only taken when its target-layer
step is strictly below the current rank.  Ranks strictly decrease along
both strategy actions and (by construction of the ``B``-term) opponent
moves, so supervised plays terminate in the goal — this is the
computational content of the paper's Theorem 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from ..dbm import DBM, Federation
from ..dbm.dbm import fold_delay_window
from ..graph.explorer import GraphEdge, GraphNode
from ..semantics.state import ConcreteState
from ..semantics.system import DelayInterval, Move
from .solver import GameResult, NodeWin


# ----------------------------------------------------------------------
# Zone / delay geometry helpers
# ----------------------------------------------------------------------


def zone_delay_interval(
    zone: DBM, nums: Sequence[int], den: int
) -> Optional[DelayInterval]:
    """Delays ``d >= 0`` with ``v + d ∈ zone`` (None if never), for the
    valuation ``v`` in :func:`~repro.dbm.scale` form ``nums``/``den``."""
    if zone.is_empty():
        return None
    window = fold_delay_window(zone.finite_bounds, nums, den)
    if window is None:
        return None
    return DelayInterval.from_window(window, den)


def federation_delay_candidates(
    fed: Federation, nums: Sequence[int], den: int
) -> List[Fraction]:
    """Representative delays entering each zone of a federation (the
    :meth:`DelayInterval.pick` of each zone's delay interval)."""
    out: List[Fraction] = []
    for zone in fed.zones:
        interval = zone_delay_interval(zone, nums, den)
        if interval is not None:
            out.append(interval.pick())
    return out


# ----------------------------------------------------------------------
# Strategy data
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ActionDecision:
    step: int
    edge: GraphEdge
    fed: Federation

    @property
    def move(self) -> Move:
        return self.edge.move


@dataclass
class NodeStrategy:
    node: Optional[GraphNode]
    win: NodeWin
    actions: List[ActionDecision]

    @property
    def goal(self) -> Federation:
        return self.win.goal


class Verdictish:
    """Tags for strategy decisions."""

    DONE = "done"
    FIRE = "fire"
    WAIT = "wait"
    LOST = "lost"


@dataclass(frozen=True)
class Decision:
    kind: str
    move: Optional[Move] = None
    delay: Optional[Fraction] = None  # for WAIT: None = wait for the plant

    def __repr__(self) -> str:
        if self.kind == Verdictish.FIRE:
            return f"Decision(fire {self.move.label})"
        if self.kind == Verdictish.WAIT:
            return f"Decision(wait {self.delay})"
        return f"Decision({self.kind})"


class DecisionEngine:
    """The runtime decision procedure shared by synthesized strategies
    (:class:`Strategy`) and deserialized ones
    (:class:`repro.game.export.PackedStrategy`).

    Subclasses populate ``_by_key``: discrete-state key → node strategies.
    """

    system = None  # type: ignore[assignment]
    _by_key: Dict[tuple, List[NodeStrategy]]

    def _matching(self, key: tuple, nums, den: int) -> List[NodeStrategy]:
        return [
            ns
            for ns in self._by_key.get(key, ())
            if ns.win.win.contains_scaled(nums, den)
        ]

    def decide(self, state: ConcreteState) -> Decision:
        """The strategy's move at a concrete state (paper Def. 6 lookup)."""
        nums, den = state.scaled
        matching = self._matching(state.key, nums, den)
        if not matching:
            return Decision(Verdictish.LOST)
        immediate = self._immediate(matching, nums, den)
        if immediate is not None:
            return immediate
        # Wait: find the earliest future instant where an action (or goal)
        # decision applies, staying inside the winning set.
        candidates: List[Fraction] = []
        for ns in matching:
            candidates.extend(federation_delay_candidates(ns.goal, nums, den))
            for decision in ns.actions:
                candidates.extend(
                    federation_delay_candidates(decision.fed, nums, den)
                )
        for d in sorted(set(c for c in candidates if c > 0)):
            f_nums, f_den = state.delayed(d).scaled
            future_matching = self._matching(state.key, f_nums, f_den)
            if not future_matching:
                continue
            if self._immediate(future_matching, f_nums, f_den) is not None:
                return Decision(Verdictish.WAIT, delay=d)
        return Decision(Verdictish.WAIT, delay=None)

    def _immediate(
        self, matching: List[NodeStrategy], nums, den: int
    ) -> Optional[Decision]:
        for ns in matching:
            if ns.goal.contains_scaled(nums, den):
                return Decision(Verdictish.DONE)
        best: Optional[ActionDecision] = None
        rank = None
        for ns in matching:
            node_rank = ns.win.rank_of(nums, den)
            if node_rank is None:
                continue
            if rank is None or node_rank < rank:
                rank = node_rank
        if rank is None:
            return None
        for ns in matching:
            for decision in ns.actions:
                if decision.step >= rank:
                    continue
                if decision.fed.contains_scaled(nums, den):
                    if best is None or decision.step < best.step:
                        best = decision
        if best is not None:
            return Decision(Verdictish.FIRE, move=best.move)
        return None


class Strategy(DecisionEngine):
    """A winning strategy over the solved game's symbolic state space."""

    def __init__(self, result: GameResult):
        if not result.winning:
            raise ValueError("cannot extract a strategy from a lost game")
        self.result = result
        self.system = result.graph.system
        self.per_node: Dict[int, NodeStrategy] = {}
        self._by_key: Dict[tuple, List[NodeStrategy]] = {}
        self._build()

    # ------------------------------------------------------------------

    def _build(self) -> None:
        graph = self.result.graph
        for node in graph.nodes:
            entry = self.result.wins.get(node.id)
            if entry is None or entry.win.is_empty():
                continue
            actions: List[ActionDecision] = []
            for edge in node.out_edges:
                if not edge.move.controllable:
                    continue
                target_entry = self.result.wins.get(edge.target.id)
                if target_entry is None:
                    continue
                for step, layer in target_entry.layers:
                    fed = self.system.pred(node.sym, edge.move, layer)
                    fed = fed.intersect(entry.win)
                    if not fed.is_empty():
                        actions.append(ActionDecision(step, edge, fed))
            actions.sort(key=lambda a: a.step)
            ns = NodeStrategy(node, entry, actions)
            self.per_node[node.id] = ns
            self._by_key.setdefault(node.key, []).append(ns)

    # ------------------------------------------------------------------
    # Introspection / printing (paper Fig. 5)
    # ------------------------------------------------------------------

    def describe(self, max_nodes: Optional[int] = None) -> str:
        """A human-readable rendering in the style of the paper's Fig. 5."""
        network = self.system.network
        names = network.clock_names()
        lines: List[str] = []
        count = 0
        for node in self.result.graph.nodes:
            ns = self.per_node.get(node.id)
            if ns is None:
                continue
            if max_nodes is not None and count >= max_nodes:
                lines.append(f"... ({len(self.per_node) - count} more states)")
                break
            count += 1
            locs = " ".join(network.location_names(node.sym.locs))
            lines.append(f"State: ( {locs} )")
            var_view = network.decls.state_to_dict(node.sym.vars)
            if var_view:
                lines.append(f"  vars: {var_view}")
            if not ns.goal.is_empty():
                lines.append(f"  While you are in ({ns.goal.to_string(names)}), goal reached.")
            for decision in ns.actions:
                _, edge = decision.edge.move.edges[0]
                sync = f"{decision.edge.move.label}" if decision.edge.move.label else "tau"
                lines.append(
                    f"  When you are in ({decision.fed.to_string(names)}),"
                    f" take transition {edge.automaton}.{edge.source} ->"
                    f" {edge.automaton}.{edge.target} {{{sync}}}"
                )
            waits = ns.win.win.subtract(ns.goal)
            for decision in ns.actions:
                waits = waits.subtract(decision.fed)
            if not waits.is_empty():
                lines.append(
                    f"  While you are in ({waits.to_string(names)}), wait."
                )
        return "\n".join(lines)

    @property
    def size(self) -> int:
        """Number of symbolic states with a decision (strategy size)."""
        return len(self.per_node)
