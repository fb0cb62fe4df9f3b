"""Safety games: ``control: A[] φ`` (extension; paper §2.4 mentions the
TCTL subset, UPPAAL-TIGA supports both objectives).

The controller must keep every maximal supervised run inside φ forever
(deadlocking inside φ is acceptable).  We solve the *dual* reachability
game: the opponent tries to force a visit to ¬φ.  ``Lose`` is a least
fixpoint with the roles of the two players swapped relative to
:mod:`repro.game.solver`:

    Lose(n) = ¬φ(n) ∪ [ Predt( G_op , B_op ) ∩ Z(n) ]

    G_op = ¬φ(n) ∪ (∪_u Pred_u(Lose(n'))) ∪ Forced_op
    B_op = ∪_c Pred_c(Z(n') \\ Lose(n'))      (controller escape moves)
    Forced_op = Boundary(n) ∩ (∪_e Pred_e(Z')) \\ (∪_e Pred_e(Z' \\ Lose'))

Monotone because ``Lose`` appears positively in ``G_op`` and negatively
(inside a complement) in ``B_op``.  Ties still favour the opponent, so
opponent arrivals are *lenient* and the controller's escapes do not
protect the arrival instant.  The controller wins iff the initial state is
not in ``Lose``; the safe set is ``Z \\ Lose``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, Optional

from ..dbm import Federation
from ..graph.explorer import ExplorationLimit, GraphNode, SimulationGraph
from ..semantics.system import System
from ..tctl.goals import GoalPredicate
from ..tctl.query import Query, SAFETY_GAME
from .predt import predt
from .solver import GameError


@dataclass
class SafetyResult:
    """Outcome of a safety game: safe = complement of the lose sets."""

    winning: bool
    graph: SimulationGraph
    loses: Dict[int, Federation]
    invariant: GoalPredicate
    steps: int
    nodes_explored: int
    solve_seconds: float

    def safe_of(self, node: GraphNode) -> Federation:
        """The safe (non-losing) federation of a graph node."""
        lose = self.loses.get(node.id)
        whole = Federation.from_zone(node.zone)
        if lose is None or lose.is_empty():
            return whole
        return whole.subtract(lose)


class SafetyGameSolver:
    """Two-phase solver for ``control: A[] φ``."""

    def __init__(
        self,
        system: System,
        query: Query,
        *,
        max_nodes: Optional[int] = None,
        time_limit: Optional[float] = None,
    ):
        if query.kind != SAFETY_GAME:
            raise GameError(f"safety solver got query kind {query.kind!r}")
        self.system = system
        self.invariant = GoalPredicate(system, query.predicate)
        extra = [0] * system.dim
        from ..expr.clocksplit import update_max_constants

        update_max_constants(self.invariant.clock_atoms(), system.decls, extra)
        self.graph = SimulationGraph(
            system,
            extra_max_consts=extra,
            max_nodes=max_nodes,
            time_limit=time_limit,
        )
        self.time_limit = time_limit
        self.loses: Dict[int, Federation] = {}
        self._bad_cache: Dict[int, Federation] = {}
        self._empty = Federation.empty(system.dim)
        self._step = 0

    # ------------------------------------------------------------------

    def _notphi(self, node: GraphNode) -> Federation:
        cached = self._bad_cache.get(node.id)
        if cached is None:
            good = self.invariant.federation(node.sym)
            cached = Federation.from_zone(node.zone).subtract(good)
            self._bad_cache[node.id] = cached
        return cached

    def _lose(self, node: GraphNode) -> Federation:
        return self.loses.get(node.id, self._empty)

    def _boundary(self, node: GraphNode) -> Federation:
        # The closed upper faces of the invariant, as in the reachability
        # solvers (repro.game.solver).
        sym = node.sym
        if not self.system.can_delay(sym.locs):
            return Federation.from_zone(sym.zone)
        from ..dbm import INF, decode

        inv = self.system.invariant_zone(sym.locs, sym.vars)
        result = self._empty
        for i in range(1, self.system.dim):
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
                result = result.union_zone(face)
        return result

    def _update(self, node: GraphNode) -> Federation:
        sym = node.sym
        notphi = self._notphi(node)
        g_op = notphi
        b_op = self._empty
        any_enabled = self._empty
        any_to_safe = self._empty
        for edge in node.out_edges:
            target_lose = self._lose(edge.target)
            target_all = Federation.from_zone(edge.target.zone)
            not_losing = target_all.subtract(target_lose)
            pred_enabled = self.system.pred(sym, edge.move, target_all)
            any_enabled = any_enabled.union(pred_enabled)
            if not not_losing.is_empty():
                safe_pred = self.system.pred(sym, edge.move, not_losing)
                any_to_safe = any_to_safe.union(safe_pred)
                if edge.move.controllable:
                    b_op = b_op.union(safe_pred)
            if not edge.move.controllable and not target_lose.is_empty():
                g_op = g_op.union(self.system.pred(sym, edge.move, target_lose))
        forced = self._boundary(node).intersect(any_enabled).subtract(any_to_safe)
        g_op = g_op.union(forced)
        if self.system.can_delay(sym.locs):
            lose = predt(g_op, b_op, lenient=True).intersect_zone(sym.zone)
        else:
            lose = g_op.subtract(b_op).union(notphi)
        return lose.union(notphi).compact()

    # ------------------------------------------------------------------

    def solve(self) -> SafetyResult:
        """Run the dual (lose-set) fixpoint to convergence."""
        started = time.monotonic()
        deadline = None if self.time_limit is None else started + self.time_limit
        self.graph.explore_all()
        queue: deque = deque()
        queued: Dict[int, bool] = {}
        for node in self.graph.nodes:
            if not self._notphi(node).is_empty():
                queue.append(node)
                queued[node.id] = True
        while queue:
            if deadline is not None and time.monotonic() > deadline:
                raise ExplorationLimit("safety game solving timed out")
            node = queue.popleft()
            queued[node.id] = False
            new_lose = self._update(node)
            old = self._lose(node)
            if old.includes(new_lose):
                continue
            self._step += 1
            self.loses[node.id] = new_lose
            for edge in node.in_edges:
                if not queued.get(edge.source.id):
                    queue.append(edge.source)
                    queued[edge.source.id] = True
        start = self.system.initial_concrete()
        init_lose = self._lose(self.graph.initial)
        winning = not init_lose.contains(start.clocks)
        return SafetyResult(
            winning,
            self.graph,
            self.loses,
            self.invariant,
            self._step,
            self.graph.node_count,
            time.monotonic() - started,
        )


def solve_safety_game(
    system: System,
    query: Query,
    *,
    max_nodes: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> SafetyResult:
    """Convenience front-end for ``control: A[]`` objectives."""
    return SafetyGameSolver(
        system, query, max_nodes=max_nodes, time_limit=time_limit
    ).solve()


class SafetyStrategy:
    """A runtime strategy for a won safety game.

    The rule is simple because the safe set is *inductive* (its own
    greatest fixpoint): stay inside it.  Concretely, at a safe state:

    * if delaying stays safe forever (or until the invariant boundary,
      where a safe controllable edge or a forced-safe move exists), wait;
    * if delaying would leave the safe set at some future instant, fire a
      controllable edge into a safe state strictly before that instant
      (one exists by construction of the fixpoint);
    * a state outside the safe set is lost.

    ``decide`` mirrors :class:`repro.game.strategy.Strategy`'s interface,
    so the same simulation loops can drive either objective.
    """

    def __init__(self, result: SafetyResult):
        if not result.winning:
            raise ValueError("cannot extract a strategy from a lost safety game")
        self.result = result
        self.system = result.graph.system
        self._by_key = {}
        for node in result.graph.nodes:
            self._by_key.setdefault(node.key, []).append(node)

    def _matching(self, state):
        nums, den = state.scaled
        return [
            node
            for node in self._by_key.get(state.key, ())
            if node.zone.contains_scaled(nums, den)
            and self.result.safe_of(node).contains_scaled(nums, den)
        ]

    def decide(self, state):
        """The gate's move at a concrete state (Strategy-compatible)."""
        from fractions import Fraction

        from .strategy import Decision, Verdictish, zone_delay_interval

        matching = self._matching(state)
        if not matching:
            return Decision(Verdictish.LOST)
        nums, den = state.scaled
        # How long can we safely wait?  Find the first instant at which
        # some unsafe zone is entered along the delay.
        horizon: Optional[Fraction] = None
        for node in matching:
            lose = self.result.loses.get(node.id)
            if lose is None:
                continue
            for zone in lose.zones:
                interval = zone_delay_interval(zone, nums, den)
                if interval is None:
                    continue
                entry = interval.lo
                if horizon is None or entry < horizon:
                    horizon = entry
        if horizon is None:
            return Decision(Verdictish.WAIT, delay=None)
        # Fire a controllable edge into a safe state before the horizon.
        best = None
        for node in matching:
            for edge in node.out_edges:
                if not edge.move.controllable:
                    continue
                target_safe = self.result.safe_of(edge.target)
                fed = self.system.pred(node.sym, edge.move, target_safe)
                for zone in fed.zones:
                    interval = zone_delay_interval(zone, nums, den)
                    if interval is None:
                        continue
                    at = interval.pick()
                    if at >= horizon and horizon > 0:
                        # Aim strictly before the unsafe entry.
                        midpoint = horizon / 2
                        if interval.contains(midpoint):
                            at = midpoint
                        else:
                            continue
                    if best is None or at < best[0]:
                        best = (at, edge.move)
        if best is None:
            # No escape needed/possible before the horizon; wait up to it.
            return Decision(Verdictish.WAIT, delay=horizon if horizon > 0 else None)
        at, move = best
        if at == 0:
            return Decision(Verdictish.FIRE, move=move)
        return Decision(Verdictish.WAIT, delay=at)
