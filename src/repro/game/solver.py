"""Timed reachability-game solver (the UPPAAL-TIGA analogue).

Given a network, its simulation graph, and a goal predicate, computes for
every explored node the federation of *winning* states: states from which
the controller (tester) can force a visit to the goal set whatever the
uncontrollable (plant) moves are — the reachability control problem of
paper §3.2.

The fixpoint per node is::

    Win(n) = Goal(n) ∪ [ Predt( G_act ∪ G_goal , B ) ∩ Z(n) ]

    G_act  = ∪ { Pred_e(Win(n'))            : e controllable edge n -> n' }
    G_goal = Goal(n) ∪ Forced(n)
    B      = ∪ { Pred_e(Z(n') \\ Win(n'))    : e uncontrollable n -> n' }
    Forced = Boundary(n) ∩ (∪_u Pred_u(Z(n'))) \\ B

``Boundary(n)`` are states where the location invariant blocks any further
delay; there a run can only stay maximal by firing an enabled transition,
so the opponent is *forced* to move — and if every enabled uncontrollable
move leads to winning states, the controller wins by waiting (paper
Def. 7/8 maximal-run semantics; this is what makes ``control: A<>
IUT.Bright`` hold for the Smart Light).

Each evaluation of a node is one ``node_equation`` kernel call on the
node's expansion table, its successors' zones and their current wins
(:meth:`_BaseSolver._update`); :meth:`_BaseSolver.recompute_node`
composes the same equation in Python and is its reference.

**Committed and urgent states** (``can_delay`` false) are all-boundary:
time is frozen, so the whole zone is treated as forced and the fixpoint
update degenerates to the untimed ``(G_act ∪ G_goal) \\ B`` step.  The
two flags differ only upstream, in move enumeration: committed locations
restrict the enabled moves to those involving a committed automaton,
while urgent locations leave every move enabled — the settling rule the
differential harness cross-checks against the concrete semantics.

Two solving modes:

* :class:`TwoPhaseSolver` — explore the full simulation graph, then run
  the backward worklist fixpoint (simple, always exhaustive);
* :class:`OnTheFlySolver` — interleave forward exploration with backward
  propagation and stop as soon as the initial state is winning (the
  paper's SOTFTG analogue, usually much faster on positive instances).

Monotonicity gives every winning state a **rank** (the fixpoint step at
which it entered ``Win``); ranks strictly decrease along strategy moves
and opponent moves, which is what makes extracted strategies terminating.
Rank layers are recorded per node for strategy extraction.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..dbm import Federation
from ..dbm import backends as _backends
from ..graph.explorer import ExplorationLimit, GraphNode, SimulationGraph
from ..semantics.system import CLOSED, System
from ..tctl.goals import GoalPredicate
from ..tctl.query import Query, REACH_GAME
from ..util import counters


class GameError(RuntimeError):
    """Raised on unsupported queries or solver misuse."""


@dataclass
class NodeWin:
    """Winning bookkeeping for one graph node."""

    win: Federation
    goal: Federation
    layers: List[Tuple[int, Federation]] = field(default_factory=list)
    version: int = 0  # fixpoint step of the latest growth

    def rank_of(self, nums, den: int) -> Optional[int]:
        """The fixpoint step at which a concrete state became winning
        (its valuation in :func:`~repro.dbm.scale` form)."""
        for step, fed in self.layers:
            if fed.contains_scaled(nums, den):
                return step
        return None


@dataclass
class GameResult:
    """Outcome of solving a timed reachability game."""

    winning: bool
    graph: SimulationGraph
    wins: Dict[int, NodeWin]
    goal: GoalPredicate
    steps: int
    nodes_explored: int
    solve_seconds: float

    @property
    def initial_node(self) -> GraphNode:
        return self.graph.initial

    def win_of(self, node: GraphNode) -> Federation:
        """The winning federation computed for a graph node."""
        entry = self.wins.get(node.id)
        if entry is None:
            return Federation.empty(self.graph.system.dim)
        return entry.win


class _BaseSolver:
    def __init__(
        self,
        system: System,
        query: Query,
        *,
        mode: str = CLOSED,
        max_nodes: Optional[int] = None,
        time_limit: Optional[float] = None,
    ):
        if query.kind != REACH_GAME:
            raise GameError(
                f"reachability-game solver got query kind {query.kind!r};"
                f" use SafetyGameSolver for control: A[] queries"
            )
        self.system = system
        self.query = query
        self.goal = GoalPredicate(system, query.predicate)
        extra = [0] * system.dim
        from ..expr.clocksplit import update_max_constants

        update_max_constants(self.goal.clock_atoms(), system.decls, extra)
        self.graph = SimulationGraph(
            system,
            mode=mode,
            extra_max_consts=extra,
            max_nodes=max_nodes,
            time_limit=time_limit,
        )
        self.time_limit = time_limit
        self.wins: Dict[int, NodeWin] = {}
        self._goal_cache: Dict[int, Federation] = {}
        self._step = 0
        self._empty = Federation.empty(system.dim)
        # Per node: the out-edge win versions of its last evaluation, and
        # the static operands of its equation (see ``_update``).
        self._eval_sig: Dict[int, Tuple[int, ...]] = {}
        self._equations: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Per-node pieces
    # ------------------------------------------------------------------

    def goal_fed(self, node: GraphNode) -> Federation:
        cached = self._goal_cache.get(node.id)
        if cached is None:
            cached = self.goal.federation(node.sym)
            self._goal_cache[node.id] = cached
        return cached

    def win_fed(self, node: GraphNode) -> Federation:
        entry = self.wins.get(node.id)
        return self._empty if entry is None else entry.win

    def _assemble(self, node: GraphNode, g_act, bad, u_enabled) -> Federation:
        """The fixpoint equation body, given the node's three edge terms:
        one ``fixpoint_body`` kernel call (Boundary and Forced, G_goal,
        Predt, ∩ Z, ∪ Goal, compact)."""
        sym = node.sym
        rows = _backends.active().fixpoint_body(
            sym.zone.m,
            self.system.invariant_zone(sym.locs, sym.vars).m,
            self.goal_fed(node)._rows(),
            g_act._rows(),
            bad._rows(),
            u_enabled._rows(),
            self.system.can_delay(sym.locs),
        )
        return Federation._adopt(self.system.dim, rows)

    def _update(self, node: GraphNode) -> Federation:
        """Recompute the winning federation of a node from its successors.

        One ``node_equation`` kernel call builds ``G_act``, ``B`` and the
        enabled set from the successors' current wins (``Pred_e`` is an
        inverse image, so it distributes over union and difference, and
        ``B_e`` is ``Pred_e(Z(n')) \\ Pred_e(Win(n'))``) and runs the
        equation body on them.  A node whose successors' win versions are
        all unchanged since its last evaluation returns its current win
        without a call.
        """
        sym = node.sym
        wins = self.wins
        entries = [wins.get(e.target.id) for e in node.out_edges]
        sig = tuple(0 if e is None else e.version for e in entries)
        if self._eval_sig.get(node.id) == sig:
            counters.inc("solver.update_skipped")
            return self.win_fed(node)
        counters.inc("solver.updates")
        static = self._equations.get(node.id)
        if static is None:
            static = self._equations[node.id] = self._equation_operands(node)
        invariant, goal, can_delay, slots, targets = static
        none = self._empty._rows()
        rows = _backends.active().node_equation(
            sym.zone.m,
            invariant,
            goal,
            can_delay,
            node.table,
            slots,
            targets,
            [none if e is None else e.win._rows() for e in entries],
        )
        self._eval_sig[node.id] = sig
        return Federation._adopt(self.system.dim, rows)

    def _equation_operands(self, node: GraphNode) -> tuple:
        """The operands of a node's ``node_equation`` that never change:
        invariant, goal, ``can_delay``, the out-edges' slots in the
        node's expansion table and their target zones."""
        sym = node.sym
        dim = self.system.dim
        edges = node.out_edges
        targets = np.empty((len(edges), dim, dim), dtype=np.int64)
        for x, edge in enumerate(edges):
            targets[x] = edge.target.zone.m
        return (
            self.system.invariant_zone(sym.locs, sym.vars).m,
            self.goal_fed(node)._rows(),
            self.system.can_delay(sym.locs),
            [edge.slot for edge in edges],
            targets,
        )

    def recompute_node(self, node: GraphNode) -> Federation:
        """The fixpoint equation composed in Python: the reference for
        ``_update``'s fused ``node_equation`` call.

        It builds ``G_act``, ``B`` (as ``Pred_e(Z(n') \\ Win(n'))``) and
        the enabled set edge by edge with :meth:`System.pred` and
        :class:`Federation` algebra, then runs the equation body with
        one ``fixpoint_body`` call.  The differential harness's fixpoint
        check holds every solved node's win to it; the reference for the
        body itself is the numpy backend's ``fixpoint_body``, which the
        ``kernel`` check holds every compiled backend to.
        """
        sym = node.sym
        g_act = self._empty
        bad = self._empty
        u_enabled = self._empty
        for edge in node.out_edges:
            target_win = self.win_fed(edge.target)
            if edge.move.controllable:
                if not target_win.is_empty():
                    g_act = g_act.union(
                        self.system.pred(sym, edge.move, target_win)
                    )
            else:
                target_all = Federation.from_zone(edge.target.zone)
                losing = target_all.subtract(target_win)
                if not losing.is_empty():
                    bad = bad.union(self.system.pred(sym, edge.move, losing))
                u_enabled = u_enabled.union(
                    self.system.pred(sym, edge.move, target_all)
                )
        return self._assemble(node, g_act, bad, u_enabled)

    def _record_growth(self, node: GraphNode, new_win: Federation) -> bool:
        entry = self.wins.get(node.id)
        old = self._empty if entry is None else entry.win
        increment = new_win.subtract(old)
        if increment.is_empty():
            return False
        self._step += 1
        if entry is None:
            entry = NodeWin(new_win, self.goal_fed(node))
            self.wins[node.id] = entry
        else:
            entry.win = new_win
        entry.layers.append((self._step, increment))
        entry.version = self._step
        return True

    def _initial_winning(self) -> bool:
        init = self.graph.initial
        start = self.system.initial_concrete()
        entry = self.wins.get(init.id)
        return entry is not None and entry.win.contains(start.clocks)


class TwoPhaseSolver(_BaseSolver):
    """Explore everything, then run the backward fixpoint to convergence."""

    def solve(self) -> GameResult:
        """Run exploration, then the fixpoint to convergence."""
        started = time.monotonic()
        deadline = None if self.time_limit is None else started + self.time_limit
        self.graph.explore_all()
        queue: deque = deque()
        queued: Dict[int, bool] = {}
        for node in self.graph.nodes:
            if not self.goal_fed(node).is_empty():
                queue.append(node)
                queued[node.id] = True
        while queue:
            if deadline is not None and time.monotonic() > deadline:
                raise ExplorationLimit("game solving timed out")
            node = queue.popleft()
            queued[node.id] = False
            new_win = self._update(node)
            if self._record_growth(node, new_win):
                for edge in node.in_edges:
                    source = edge.source
                    if not queued.get(source.id):
                        queue.append(source)
                        queued[source.id] = True
        return GameResult(
            self._initial_winning(),
            self.graph,
            self.wins,
            self.goal,
            self._step,
            self.graph.node_count,
            time.monotonic() - started,
        )


class OnTheFlySolver(_BaseSolver):
    """Interleave exploration with back-propagation (SOTFTG analogue).

    Explores in waves: after each wave of newly expanded nodes, runs the
    backward worklist restricted to the explored subgraph and checks
    whether the initial state is already winning.  Sound because ``Win``
    computed on a subgraph only under-approximates the full fixpoint
    (unexplored successors contribute nothing to ``G_act`` and their
    absence can only shrink ``Forced``; ``B`` edges, conservatively, are
    expanded eagerly for every frontier node before propagation).
    """

    def solve(self, *, wave_size: int = 64) -> GameResult:
        """Interleaved exploration/propagation; ``wave_size`` bounds how
        many nodes are expanded between propagation rounds."""
        started = time.monotonic()
        deadline = None if self.time_limit is None else started + self.time_limit
        graph = self.graph
        frontier: deque = deque([graph.initial])
        seen = {graph.initial.id}
        queue: deque = deque()
        queued: Dict[int, bool] = {}

        def enqueue(node: GraphNode) -> None:
            if not queued.get(node.id):
                queue.append(node)
                queued[node.id] = True

        def expand(node: GraphNode) -> None:
            """Materialize every successor, queueing new ones to expand."""
            for edge in graph.expand(node):
                if edge.target.id not in seen:
                    seen.add(edge.target.id)
                    frontier.append(edge.target)

        while frontier:
            if deadline is not None and time.monotonic() > deadline:
                raise ExplorationLimit("game solving timed out")
            wave: List[GraphNode] = []
            while frontier and len(wave) < wave_size:
                wave.append(frontier.popleft())
            for node in wave:
                expand(node)
                # Always evaluate a freshly expanded node: it may have a
                # goal of its own, or an already-winning successor.
                enqueue(node)
            while queue:
                if deadline is not None and time.monotonic() > deadline:
                    raise ExplorationLimit("game solving timed out")
                node = queue.popleft()
                queued[node.id] = False
                # A node's B-term needs all its uncontrollable edges, so
                # every successor is materialized before it is judged.
                expand(node)
                new_win = self._update(node)
                if self._record_growth(node, new_win):
                    if self._initial_winning():
                        return self._result(started, True)
                    for edge in node.in_edges:
                        enqueue(edge.source)
        # Exhausted exploration: run the full fixpoint to convergence.
        # Every node is seeded once; propagation handles the rest.
        for node in graph.nodes:
            enqueue(node)
        while queue:
            if deadline is not None and time.monotonic() > deadline:
                raise ExplorationLimit("game solving timed out")
            node = queue.popleft()
            queued[node.id] = False
            new_win = self._update(node)
            if self._record_growth(node, new_win):
                if self._initial_winning():
                    return self._result(started, True)
                for edge in node.in_edges:
                    enqueue(edge.source)
        return self._result(started, self._initial_winning())

    def converge(self) -> GameResult:
        """Resume a finished :meth:`solve` run to the full fixpoint.

        ``solve`` legitimately stops early once the initial state is
        winning, leaving ``wins`` an under-approximation on the explored
        subgraph.  This explores the rest of the simulation graph and
        runs the backward worklist to convergence, after which the
        per-node winning sets equal the two-phase solver's exactly
        (the differential harness's strengthened equality check).
        """
        started = time.monotonic()
        deadline = None if self.time_limit is None else started + self.time_limit
        self.graph.explore_all()
        queue: deque = deque()
        queued: Dict[int, bool] = {}
        for node in self.graph.nodes:
            queue.append(node)
            queued[node.id] = True
        while queue:
            if deadline is not None and time.monotonic() > deadline:
                raise ExplorationLimit("game solving timed out")
            node = queue.popleft()
            queued[node.id] = False
            new_win = self._update(node)
            if self._record_growth(node, new_win):
                for edge in node.in_edges:
                    if not queued.get(edge.source.id):
                        queue.append(edge.source)
                        queued[edge.source.id] = True
        return self._result(started, self._initial_winning())

    def _result(self, started: float, winning: bool) -> GameResult:
        return GameResult(
            winning,
            self.graph,
            self.wins,
            self.goal,
            self._step,
            self.graph.node_count,
            time.monotonic() - started,
        )


def solve_reachability_game(
    system: System,
    query: Query,
    *,
    on_the_fly: bool = True,
    mode: str = CLOSED,
    max_nodes: Optional[int] = None,
    time_limit: Optional[float] = None,
    warm_cache=None,
) -> GameResult:
    """One-call front-end over both solvers, used by the examples and tests.

    ``warm_cache`` (a :class:`repro.game.warm.WinSetCache` or a cache
    directory path) consults the machine-wide win-set solve cache first:
    a hit installs the persisted converged fixpoint instead of re-running
    it, a miss solves two-phase and stores the result.  The cached path
    always returns converged win-sets (``on_the_fly`` is ignored — an
    early-stopped on-the-fly under-approximation is not cacheable).
    """
    if warm_cache is not None and mode == CLOSED:
        from .warm import resolve_cache, warm_solve

        return warm_solve(
            system,
            query,
            cache=resolve_cache(warm_cache),
            max_nodes=max_nodes,
            time_limit=time_limit,
        )
    cls = OnTheFlySolver if on_the_fly else TwoPhaseSolver
    solver = cls(
        system,
        query,
        mode=mode,
        max_nodes=max_nodes,
        time_limit=time_limit,
    )
    return solver.solve()
