"""Executable semantics of a network: moves, posts, preds, invariants.

This is the TIOTS of Definition 4, in two flavours:

* **symbolic** — zones (DBMs) per discrete state, with ``post`` (discrete
  successor), ``delay_closure`` (time successor within invariants) and
  ``pred`` (discrete predecessor of a federation), the building blocks of
  the zone-graph explorer and the game solver.  ``post`` and ``pred``
  each run one fused backend kernel per zone on a
  :class:`~repro.dbm.backends.base.MovePlan` compiled once per move and
  discrete state (:meth:`System.step_plan`); :meth:`System.expansion`
  packs every enabled step of a discrete state into one
  :class:`~repro.dbm.backends.base.ExpansionTable`, on which the
  explorer expands a node and the solver evaluates its fixpoint
  equation in one kernel call each;
* **concrete** — exact rational valuations with enabled-delay intervals,
  used by the test executor and the simulated implementations.

A **move** is a complete synchronization: one internal edge, an
emitter/receiver pair on a binary channel, or — on a *broadcast* channel —
one emitter plus every automaton with an enabled receiving edge (emission
never blocks on missing receivers).  Controllability follows the paper's
TIOGA convention: input channels are controllable; output, broadcast, and
internal moves are uncontrollable (internal edges carry an explicit flag).

Move enumeration comes in **three modes**, all served by one core
(:meth:`System.moves_from`):

``closed``
    The flat product: every synchronization completes inside the network
    (the game arena fed to the solvers).  Directions follow the channel
    kinds.
``open``
    Every sync half fires alone — the network models a component whose
    partners all live outside (``c?`` on an input channel is an input
    move, ``c!`` on an output channel an output move; on a broadcast
    channel the emitting half is an output, the receiving half an
    input).  Sound only for single-automaton plants.
``partial``
    Composition against the network's *interface partition*
    (:meth:`repro.ta.model.Network.set_interface`): synchronizations the
    network can complete on internalised (non-boundary) channels do
    complete — becoming hidden, uncontrollable ``internal``-direction
    moves (the label is kept for debuggability) — while boundary
    channels stay open.  Boundary halves the network cannot
    pair fire alone exactly as in ``open`` mode; boundary channels it
    *can* pair synchronize in-model but keep their observable direction
    (the fully-closed-with-hiding case used by the relativized monitor).
    A boundary *broadcast* emission carries every enabled in-plant
    receiver with it (one observable output move), and the environment
    may trigger a broadcast reception: one input move per choice of one
    enabled receiving edge in every listening automaton.  For a
    single-automaton network partial mode degenerates to ``open``.
    Committed/urgent rules are identical in all three modes.

**Urgent locations** freeze delay exactly like committed ones (``d = 0``
is the only legal delay while any automaton sits in one) but, unlike
committed locations, grant no priority: every enabled move of the network
remains enabled.  Both flags are folded into :meth:`System.can_delay`, so
delay closure, maximal-delay computation, and the solvers' boundary
handling treat urgent states uniformly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from ..dbm import DBM, Federation
from ..dbm import backends as _backends
from ..dbm.backends.base import ExpansionTable, MovePlan
from ..dbm.bounds import decoded
from ..dbm.dbm import Window, fold_delay_window
from ..expr.env import Declarations
from ..expr.eval import Context, EvalError, apply_assignments
from ..ta.model import Automaton, Edge, ModelError, Network
from .state import ConcreteState, SymbolicState, zero_valuation


def _project_nothing(vars: Tuple[int, ...]) -> Tuple[int, ...]:
    """Projection of a var state for expressions reading no variables."""
    return ()


#: Move-enumeration modes (see the module docstring).
CLOSED, OPEN, PARTIAL = "closed", "open", "partial"
MODES = (CLOSED, OPEN, PARTIAL)


@dataclass(frozen=True)
class Move:
    """One complete transition of the network (internal or a sync pair)."""

    label: str  # channel name, or "tau"
    direction: str  # 'input' | 'output' | 'internal'
    controllable: bool
    edges: Tuple[Tuple[int, Edge], ...]  # (automaton index, edge); emitter first
    #: The participating edges' indices: the move's identity in caches.
    key: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "key", tuple(edge.index for _, edge in self.edges)
        )

    @property
    def observable(self) -> bool:
        return self.direction in ("input", "output")

    def describe(self) -> str:
        kind = {"input": "?", "output": "!", "internal": ""}[self.direction]
        body = "; ".join(edge.describe() for _, edge in self.edges)
        return f"{self.label}{kind} [{body}]"

    def __repr__(self) -> str:
        return f"Move({self.label}, {self.direction})"


@dataclass(frozen=True)
class DelayInterval:
    """Delays ``d`` enabling a move: ``lo (<|<=) d (<|<=) hi`` (hi None = inf)."""

    lo: Fraction
    lo_strict: bool
    hi: Optional[Fraction]
    hi_strict: bool

    def is_empty(self) -> bool:
        if self.hi is None:
            return False
        if self.lo < self.hi:
            return False
        return self.lo > self.hi or self.lo_strict or self.hi_strict

    def contains(self, d: Fraction) -> bool:
        if d < self.lo or (d == self.lo and self.lo_strict):
            return False
        if self.hi is not None and (d > self.hi or (d == self.hi and self.hi_strict)):
            return False
        return True

    def pick(self) -> Fraction:
        """A representative delay (earliest if closed, else a midpoint)."""
        if not self.lo_strict:
            return self.lo
        if self.hi is None:
            return self.lo + 1
        return (self.lo + self.hi) / 2

    @classmethod
    def from_window(cls, window: Window, den: int) -> "DelayInterval":
        """The interval of an integer window (numerators over ``den``)."""
        lo, lo_strict, hi, hi_strict = window
        return cls(
            Fraction(lo, den),
            lo_strict,
            None if hi is None else Fraction(hi, den),
            hi_strict,
        )


class System:
    """Semantic wrapper around a prepared :class:`Network`."""

    def __init__(self, network: Network):
        if not network._prepared:
            network.prepare()
        self.network = network
        self.decls: Declarations = network.decls
        self.dim = network.dim
        self.automata: List[Automaton] = network.automata
        self._proc_index: Dict[str, int] = {
            a.name: i for i, a in enumerate(self.automata)
        }
        # Memoization of per-discrete-state computations: the solver asks
        # for the same invariant zones, move lists, and guard constraints
        # thousands of times during the backward fixpoint.  Everything
        # below is a pure function of the (frozen, prepared) network, so
        # the cache bundle is stored *on the network* and shared by every
        # System wrapping it — workloads that build many Systems of the
        # same model (the differential harness, benchmark rounds) start
        # warm instead of re-deriving tables and re-evaluating guards.
        shared = getattr(network, "_semantics_caches", None)
        if shared is None:
            shared = network._semantics_caches = {
                "inv": {},
                "inv_cons": {},
                "moves": {},
                "guard": {},
                "int_guard": {},
                "inv_int": {},
                "resets": {},
                "assign": {},
                "steps": {},
                "plans": {},
                "expansions": {},
                "ctx": {},
                "edge_int_slots": {},
                "guard_slots": {},
                "locs_inv_slots": {},
                "moves_slots": {},
            }
        self._inv_cache: Dict[tuple, DBM] = shared["inv"]
        self._inv_cons_cache: Dict[tuple, list] = shared["inv_cons"]
        self._moves_cache: Dict[tuple, List["Move"]] = shared["moves"]
        self._guard_cache: Dict[tuple, list] = shared["guard"]
        # Guard/invariant caches are keyed by the *projection* of the
        # variable state onto the slots the expressions actually read —
        # a guard over one counter is evaluated once per value of that
        # counter, not once per global var state.  Read-slot sets are
        # derived syntactically (names_in); array reads conservatively
        # cover the whole array since indices may be dynamic.
        self._int_guard_cache: Dict[tuple, bool] = shared["int_guard"]
        self._inv_int_cache: Dict[tuple, bool] = shared["inv_int"]
        self._resets_cache: Dict[
            Tuple[int, ...], Tuple[Tuple[int, int], ...]
        ] = shared["resets"]
        self._assign_cache: Dict[tuple, tuple] = shared["assign"]
        # (move, source locs, source vars) -> (target or None, plan); the
        # plans themselves are interned by content, so moves and states
        # that compile to the same step share one plan.
        self._step_cache: Dict[tuple, tuple] = shared["steps"]
        self._plans: Dict[tuple, MovePlan] = shared["plans"]
        # (mode, locs, vars, caps) -> ExpansionTable.
        self._expansions: Dict[tuple, ExpansionTable] = shared["expansions"]
        self._ctx_cache: Dict[Tuple[int, ...], Context] = shared["ctx"]
        self._edge_int_slots: Dict[int, object] = shared["edge_int_slots"]
        self._guard_slots: Dict[Tuple[int, ...], object] = shared["guard_slots"]
        self._locs_inv_slots: Dict[Tuple[int, ...], tuple] = shared[
            "locs_inv_slots"
        ]
        self._moves_slots: Dict[Tuple[int, ...], object] = shared["moves_slots"]
        # Per automaton: location index -> internal edges.  Sync edges are
        # double-indexed channel -> automaton -> source location, so move
        # enumeration only ever touches edges leaving the current
        # locations instead of filtering every edge of the channel.
        tables = getattr(network, "_edge_tables", None)
        if tables is None:
            internal: List[Dict[int, List[Edge]]] = []
            emit: Dict[str, Dict[int, Dict[int, List[Edge]]]] = {}
            recv: Dict[str, Dict[int, Dict[int, List[Edge]]]] = {}
            for idx, automaton in enumerate(self.automata):
                per_loc: Dict[int, List[Edge]] = {}
                for edge in automaton.edges:
                    src = automaton.location_index(edge.source)
                    if edge.sync is None:
                        per_loc.setdefault(src, []).append(edge)
                    else:
                        channel, bang = edge.sync
                        table = emit if bang == "!" else recv
                        table.setdefault(channel, {}).setdefault(
                            idx, {}
                        ).setdefault(src, []).append(edge)
                internal.append(per_loc)
            tables = network._edge_tables = (internal, emit, recv)
        self._internal, self._emit, self._recv = tables

    # ------------------------------------------------------------------
    # Contexts and invariants
    # ------------------------------------------------------------------

    def ctx(self, vars: Tuple[int, ...]) -> Context:
        cached = self._ctx_cache.get(vars)
        if cached is None:
            cached = self._ctx_cache[vars] = Context(self.decls, vars)
        return cached

    def query_ctx(self, locs: Tuple[int, ...], vars: Tuple[int, ...]) -> Context:
        """A context where dotted location tests (``IUT.Bright``) work."""

        def location_test(proc: str, loc: str) -> bool:
            a_idx = self._proc_index.get(proc)
            if a_idx is None:
                raise EvalError(f"unknown process {proc!r}")
            automaton = self.automata[a_idx]
            if loc not in automaton.locations:
                raise EvalError(f"unknown location {proc}.{loc}")
            return locs[a_idx] == automaton.location_index(loc)

        return Context(self.decls, vars, location_test)

    def _slots_of(self, exprs) -> Tuple[int, ...]:
        """Variable slots an expression list reads (arrays whole)."""
        from ..expr.ast import names_in

        slots = set()
        for expr in exprs:
            for name in names_in(expr):
                var = self.decls.int_vars.get(name)
                if var is not None:
                    slots.add(var.slot)
                    continue
                arr = self.decls.arrays.get(name)
                if arr is not None:
                    slots.update(range(arr.offset, arr.offset + arr.size))
        return tuple(sorted(slots))

    def _projector(self, exprs):
        """A fast callable projecting a var state onto what ``exprs`` read."""
        slots = self._slots_of(exprs)
        if not slots:
            return _project_nothing
        if len(slots) == 1:
            return itemgetter(slots[0])
        return itemgetter(*slots)

    def _inv_projectors(self, locs: Tuple[int, ...]):
        """Var projectors of the invariants at ``locs``: (int, clock part)."""
        cached = self._locs_inv_slots.get(locs)
        if cached is None:
            int_exprs: list = []
            clock_exprs: list = []
            for a_idx, automaton in enumerate(self.automata):
                split = automaton.location_list[locs[a_idx]].inv_split
                int_exprs.extend(split.int_atoms)
                clock_exprs.extend(atom.rhs for atom in split.clock_atoms)
            cached = (self._projector(int_exprs), self._projector(clock_exprs))
            self._locs_inv_slots[locs] = cached
        return cached

    def invariant_int_ok(self, locs: Tuple[int, ...], vars: Tuple[int, ...]) -> bool:
        key = (locs, self._inv_projectors(locs)[0](vars))
        cached = self._inv_int_cache.get(key)
        if cached is None:
            ctx = self.ctx(vars)
            cached = all(
                automaton.location_list[locs[a_idx]].inv_split.int_holds(ctx)
                for a_idx, automaton in enumerate(self.automata)
            )
            self._inv_int_cache[key] = cached
        return cached

    def _edge_int_ok(self, edge: Edge, vars: Tuple[int, ...], ctx: Context) -> bool:
        """Memoized integer-guard verdict of one edge in a var state."""
        if not edge.guard_split.int_atoms:
            return True
        project = self._edge_int_slots.get(edge.index)
        if project is None:
            project = self._projector(edge.guard_split.int_atoms)
            self._edge_int_slots[edge.index] = project
        key = (edge.index, project(vars))
        cached = self._int_guard_cache.get(key)
        if cached is None:
            cached = edge.guard_split.int_holds(ctx)
            self._int_guard_cache[key] = cached
        return cached

    def invariant_constraints(
        self, locs: Tuple[int, ...], vars: Tuple[int, ...]
    ) -> list:
        """Encoded clock constraints of the invariants at a discrete state.

        Intersecting a canonical zone with these via incremental
        tightening is much cheaper than a full closure against the
        invariant *zone* — invariants carry only a handful of bounds.
        """
        key = (locs, self._inv_projectors(locs)[1](vars))
        cached = self._inv_cons_cache.get(key)
        if cached is None:
            ctx = self.ctx(vars)
            cached = []
            for a_idx, automaton in enumerate(self.automata):
                loc = automaton.location_list[locs[a_idx]]
                cached.extend(loc.inv_split.clock_constraints(ctx))
            self._inv_cons_cache[key] = cached
        return cached

    def invariant_zone(self, locs: Tuple[int, ...], vars: Tuple[int, ...]) -> DBM:
        key = (locs, self._inv_projectors(locs)[1](vars))
        cached = self._inv_cache.get(key)
        if cached is not None:
            return cached
        zone = DBM.universal(self.dim).constrained(
            self.invariant_constraints(locs, vars)
        )
        self._inv_cache[key] = zone
        return zone

    def can_delay(self, locs: Tuple[int, ...]) -> bool:
        for a_idx, automaton in enumerate(self.automata):
            loc = automaton.location_list[locs[a_idx]]
            if loc.committed or loc.urgent:
                return False
        return True

    def has_committed(self, locs: Tuple[int, ...]) -> bool:
        """True iff some automaton is in a committed location."""
        for a_idx, automaton in enumerate(self.automata):
            if automaton.location_list[locs[a_idx]].committed:
                return True
        return False

    def has_urgent(self, locs: Tuple[int, ...]) -> bool:
        """True iff some automaton is in an urgent location."""
        for a_idx, automaton in enumerate(self.automata):
            if automaton.location_list[locs[a_idx]].urgent:
                return True
        return False


    # ------------------------------------------------------------------
    # Move enumeration
    # ------------------------------------------------------------------

    def _moves_read_slots(self, locs: Tuple[int, ...]) -> Tuple[int, ...]:
        """Union of int-guard read slots over every edge leaving ``locs``."""
        cached = self._moves_slots.get(locs)
        if cached is None:
            exprs: list = []
            for a_idx, per_loc in enumerate(self._internal):
                for edge in per_loc.get(locs[a_idx], ()):
                    exprs.extend(edge.guard_split.int_atoms)
            for table in (self._emit, self._recv):
                for per_automaton in table.values():
                    for a_idx, by_loc in per_automaton.items():
                        for edge in by_loc.get(locs[a_idx], ()):
                            exprs.extend(edge.guard_split.int_atoms)
            cached = self._projector(exprs)
            self._moves_slots[locs] = cached
        return cached

    def moves_from(
        self,
        locs: Tuple[int, ...],
        vars: Tuple[int, ...],
        mode: str = CLOSED,
    ) -> List[Move]:
        """All moves whose *integer* guards hold (clock parts are zones).

        ``mode`` selects the enumeration semantics — ``closed`` (the flat
        product), ``open`` (every sync half alone), or ``partial``
        (composition against the network's interface partition); see the
        module docstring.  Results are memoized per (mode, locations,
        read-slot projection of the variable state).
        """
        key = (mode, locs, self._moves_read_slots(locs)(vars))
        cached = self._moves_cache.get(key)
        if cached is not None:
            return cached
        if mode not in MODES:
            raise ValueError(f"unknown move mode {mode!r}; known: {MODES}")
        moves = self._enumerate_moves(locs, vars, mode)
        self._moves_cache[key] = moves
        return moves

    def partial_hides_syncs(self) -> bool:
        """Whether partial-mode enumeration can produce hidden sync moves.

        True iff some pairable channel is internalised by the network's
        partition.  When False the partial semantics has no unobservable
        timed moves beyond plain ``tau`` edges, and an exact
        (single-state) monitor remains sound.
        """
        cached = getattr(self.network, "_partial_hides", None)
        if cached is None:
            cached = bool(self.network.internalised_channels())
            self.network._partial_hides = cached
        return cached

    def _enumerate_moves(
        self, locs: Tuple[int, ...], vars: Tuple[int, ...], mode: str
    ) -> List[Move]:
        ctx = self.ctx(vars)
        committed = self.has_committed(locs)
        network = self.network
        boundary = network.boundary
        moves: List[Move] = []

        def committed_ok(indices: Iterable[int]) -> bool:
            if not committed:
                return True
            for a_idx in indices:
                automaton = self.automata[a_idx]
                if automaton.location_list[locs[a_idx]].committed:
                    return True
            return False

        # Internal (tau) edges are identical in every mode.
        for a_idx, per_loc in enumerate(self._internal):
            for edge in per_loc.get(locs[a_idx], ()):
                if not committed_ok((a_idx,)):
                    continue
                if self._edge_int_ok(edge, vars, ctx):
                    moves.append(
                        Move("tau", "internal", edge.controllable, ((a_idx, edge),))
                    )
        for channel_name, channel in network.channels.items():
            emitters = self._emit.get(channel_name) or {}
            receivers = self._recv.get(channel_name) or {}
            if not emitters and not receivers:
                continue
            if channel.broadcast:
                if mode == OPEN:
                    moves.extend(
                        self._solo_moves(
                            channel, emitters, receivers, locs, vars, ctx,
                            committed_ok,
                        )
                    )
                    continue
                hidden = mode == PARTIAL and channel_name not in boundary
                moves.extend(
                    self._broadcast_moves(
                        channel_name, emitters, receivers, locs, vars, ctx,
                        committed_ok,
                        direction="internal" if hidden else "output",
                    )
                )
                if mode == PARTIAL and not hidden:
                    # The (unmodeled) environment may emit: one input move
                    # per choice of one enabled receiving edge in every
                    # listening automaton.
                    moves.extend(
                        self._broadcast_input_moves(
                            channel_name, receivers, locs, vars, ctx,
                            committed_ok,
                        )
                    )
                continue
            pairable = network.channel_pairable(channel_name)
            if mode == OPEN or (mode == PARTIAL and not pairable):
                if mode == PARTIAL and channel_name not in boundary:
                    continue  # internalised but unpairable: dead channel
                moves.extend(
                    self._solo_moves(
                        channel, emitters, receivers, locs, vars, ctx,
                        committed_ok,
                    )
                )
                continue
            if mode == PARTIAL and channel_name not in boundary:
                # Internalised: a hidden plant-internal step — per the
                # TIOGA convention internal moves are uncontrollable,
                # whatever the channel kind says.
                direction = "internal"
                controllable = False
            else:
                direction = (
                    "input"
                    if channel.kind == "input"
                    else "output"
                    if channel.kind == "output"
                    else "internal"
                )
                controllable = channel.controllable
            for i, send_by_loc in emitters.items():
                for e_send in send_by_loc.get(locs[i], ()):
                    if not self._edge_int_ok(e_send, vars, ctx):
                        continue
                    for j, recv_by_loc in receivers.items():
                        if i == j:
                            continue
                        for e_recv in recv_by_loc.get(locs[j], ()):
                            if not committed_ok((i, j)):
                                continue
                            if not self._edge_int_ok(e_recv, vars, ctx):
                                continue
                            moves.append(
                                Move(
                                    channel_name,
                                    direction,
                                    controllable,
                                    ((i, e_send), (j, e_recv)),
                                )
                            )
        return moves

    def _solo_moves(
        self,
        channel,
        emitters,
        receivers,
        locs: Tuple[int, ...],
        vars: Tuple[int, ...],
        ctx: Context,
        committed_ok,
    ) -> List[Move]:
        """Sync halves firing alone (open mode / unpairable boundary)."""
        moves: List[Move] = []
        if channel.broadcast:
            emit_dir, recv_dir = "output", "input"
            emit_ctl, recv_ctl = False, True
        else:
            emit_dir = recv_dir = (
                "input"
                if channel.kind == "input"
                else "output"
                if channel.kind == "output"
                else "internal"
            )
            emit_ctl = recv_ctl = channel.controllable
        for table, direction, controllable in (
            (emitters, emit_dir, emit_ctl),
            (receivers, recv_dir, recv_ctl),
        ):
            for a_idx, by_loc in table.items():
                for edge in by_loc.get(locs[a_idx], ()):
                    if not committed_ok((a_idx,)):
                        continue
                    if self._edge_int_ok(edge, vars, ctx):
                        moves.append(
                            Move(
                                channel.name,
                                direction,
                                controllable,
                                ((a_idx, edge),),
                            )
                        )
        return moves

    def _broadcast_moves(
        self,
        channel_name: str,
        emitters,
        receivers,
        locs: Tuple[int, ...],
        vars: Tuple[int, ...],
        ctx: Context,
        committed_ok,
        direction: str = "output",
    ) -> List[Move]:
        """Broadcast synchronizations from a discrete state.

        One move per (enabled emitter edge, choice of one enabled receiving
        edge per listening automaton).  Receivers never block the emitter:
        an automaton with no enabled receiving edge simply does not
        participate.  Broadcast receiver guards are integer-only (enforced
        by :meth:`Network.prepare`), so the participating set is fully
        determined by the discrete state and each combination is a single
        symbolic move.  In a committed state the move is enabled iff *some*
        participant (emitter or receiver) occupies a committed location.
        ``direction`` is ``output`` (observable) or ``internal`` (a
        broadcast internalised by the partial semantics).
        """
        moves: List[Move] = []
        for i, send_by_loc in emitters.items():
            for e_send in send_by_loc.get(locs[i], ()):
                if not self._edge_int_ok(e_send, vars, ctx):
                    continue
                per_automaton: Dict[int, List[Edge]] = {}
                for j, recv_by_loc in receivers.items():
                    if i == j:
                        continue
                    for e_recv in recv_by_loc.get(locs[j], ()):
                        if self._edge_int_ok(e_recv, vars, ctx):
                            per_automaton.setdefault(j, []).append(e_recv)
                indices = sorted(per_automaton)
                if not committed_ok((i,) + tuple(indices)):
                    continue
                for combo in itertools.product(
                    *(per_automaton[j] for j in indices)
                ):
                    participants = tuple(zip(indices, combo))
                    moves.append(
                        Move(
                            channel_name,
                            direction,
                            False,
                            ((i, e_send),) + participants,
                        )
                    )
        return moves

    def _broadcast_input_moves(
        self,
        channel_name: str,
        receivers,
        locs: Tuple[int, ...],
        vars: Tuple[int, ...],
        ctx: Context,
        committed_ok,
    ) -> List[Move]:
        """Receptions of an environment-emitted broadcast (partial mode).

        Every automaton with an enabled receiving edge participates; one
        move per choice of one enabled edge each.  No move is produced
        when nobody listens (an unheard broadcast is not a transition of
        the plant).
        """
        per_automaton: Dict[int, List[Edge]] = {}
        for j, recv_by_loc in receivers.items():
            for e_recv in recv_by_loc.get(locs[j], ()):
                if self._edge_int_ok(e_recv, vars, ctx):
                    per_automaton.setdefault(j, []).append(e_recv)
        indices = sorted(per_automaton)
        if not indices or not committed_ok(tuple(indices)):
            return []
        moves: List[Move] = []
        for combo in itertools.product(*(per_automaton[j] for j in indices)):
            moves.append(
                Move(channel_name, "input", True, tuple(zip(indices, combo)))
            )
        return moves

    # ------------------------------------------------------------------
    # Discrete transition pieces
    # ------------------------------------------------------------------

    def target_locs(self, locs: Tuple[int, ...], move: Move) -> Tuple[int, ...]:
        out = list(locs)
        for a_idx, edge in move.edges:
            out[a_idx] = self.automata[a_idx].location_index(edge.target)
        return tuple(out)

    def apply_move_vars(
        self, vars: Tuple[int, ...], move: Move
    ) -> Optional[Tuple[int, ...]]:
        """Variable update of a move (emitter first); None on range error.

        Memoized: the same move fires from the same var state once per
        source zone during exploration.
        """
        if not any(edge.int_assigns for _, edge in move.edges):
            return vars
        key = (move.key, vars)
        cached = self._assign_cache.get(key)
        if cached is None:
            state: Optional[Tuple[int, ...]] = vars
            for a_idx, edge in move.edges:
                if edge.int_assigns:
                    try:
                        state = apply_assignments(
                            edge.int_assigns, self.ctx(state)
                        )
                    except (OverflowError, EvalError):
                        state = None
                        break
            cached = (state,)
            self._assign_cache[key] = cached
        return cached[0]

    def guard_constraints(self, move: Move, vars: Tuple[int, ...]):
        """Encoded clock constraints of a move's guards (memoized)."""
        idxs = move.key
        project = self._guard_slots.get(idxs)
        if project is None:
            project = self._projector(
                [
                    atom.rhs
                    for _, edge in move.edges
                    for atom in edge.guard_split.clock_atoms
                ]
            )
            self._guard_slots[idxs] = project
        key = (idxs, project(vars))
        cached = self._guard_cache.get(key)
        if cached is not None:
            return cached
        ctx = self.ctx(vars)
        constraints = []
        for _, edge in move.edges:
            constraints.extend(edge.guard_split.clock_constraints(ctx))
        self._guard_cache[key] = constraints
        return constraints

    def resets_of(self, move: Move) -> Tuple[Tuple[int, int], ...]:
        """Clock assignments of a move, emitter first (later wins); memoized."""
        key = move.key
        cached = self._resets_cache.get(key)
        if cached is None:
            merged: Dict[int, int] = {}
            for _, edge in move.edges:
                for clock, value in edge.clock_resets:
                    merged[clock] = value
            cached = tuple(sorted(merged.items()))
            self._resets_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Symbolic semantics
    # ------------------------------------------------------------------

    def initial_symbolic(self) -> SymbolicState:
        locs = self.network.initial_locations()
        vars = self.decls.initial_state()
        if not self.invariant_int_ok(locs, vars):
            raise ModelError("initial state violates an integer invariant")
        zone = DBM.zero(self.dim)
        inv = self.invariant_zone(locs, vars)
        zone = zone.intersect(inv)
        if zone.is_empty():
            raise ModelError("initial state violates a clock invariant")
        return self.delay_closure(SymbolicState(locs, vars, zone))

    def delay_closure(self, sym: SymbolicState) -> SymbolicState:
        if not self.can_delay(sym.locs):
            return sym
        zone = sym.zone.up().constrained(
            self.invariant_constraints(sym.locs, sym.vars)
        )
        return SymbolicState(sym.locs, sym.vars, zone)

    def step_plan(
        self, locs: Tuple[int, ...], vars: Tuple[int, ...], move: Move
    ) -> Tuple[Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]], MovePlan]:
        """The compiled symbolic step of ``move`` from a discrete state.

        Returns ``(target, plan)``: ``target`` is the successor's
        ``(locs, vars)``, or None when the discrete part blocks the move
        (a variable update out of range, or a violated integer
        invariant).  The plan holds the guard (under ``vars``), the clock
        assignments, the target's clock invariant and whether the target
        can delay; with a None target only its guard and assignments
        mean anything (enough for :meth:`pred`).  Memoized per (move,
        discrete state); plans are shared by content.
        """
        key = (move.key, locs, vars)
        step = self._step_cache.get(key)
        if step is None:
            target = None
            invariant: tuple = ()
            delay = False
            new_vars = self.apply_move_vars(vars, move)
            if new_vars is not None:
                new_locs = self.target_locs(locs, move)
                if self.invariant_int_ok(new_locs, new_vars):
                    target = (new_locs, new_vars)
                    invariant = tuple(
                        self.invariant_constraints(new_locs, new_vars)
                    )
                    delay = self.can_delay(new_locs)
            content = (
                tuple(self.guard_constraints(move, vars)),
                self.resets_of(move),
                invariant,
                delay,
            )
            plan = self._plans.get(content)
            if plan is None:
                plan = self._plans[content] = MovePlan(*content)
            step = self._step_cache[key] = (target, plan)
        return step

    def post(self, sym: SymbolicState, move: Move) -> Optional[SymbolicState]:
        """Discrete successor (no delay closure); None if disabled/empty."""
        target, plan = self.step_plan(sym.locs, sym.vars, move)
        if target is None or sym.zone.is_empty():
            return None
        m = _backends.active().zone_successor(sym.zone.m, plan.bare())
        if m is None:
            return None
        return SymbolicState(target[0], target[1], DBM(m))

    def expansion(
        self,
        locs: Tuple[int, ...],
        vars: Tuple[int, ...],
        mode: str = CLOSED,
        caps: Optional[Tuple[int, ...]] = None,
    ) -> ExpansionTable:
        """Every zone-graph step from a discrete state, compiled once.

        The moves of :meth:`moves_from` whose discrete part does not
        block, with their targets and their plans followed by ExtraM
        against ``caps`` (None: none): the input of the ``zone_expand``
        and ``node_equation`` kernels.  Memoized per (mode, discrete
        state, caps).
        """
        key = (mode, locs, vars, caps)
        table = self._expansions.get(key)
        if table is None:
            moves, targets, plans = [], [], []
            for move in self.moves_from(locs, vars, mode):
                target, plan = self.step_plan(locs, vars, move)
                if target is not None:
                    moves.append(move)
                    targets.append(target)
                    plans.append(plan.extrapolating(caps))
            table = self._expansions[key] = ExpansionTable(
                moves, targets, plans
            )
        return table

    def pred(
        self,
        source: SymbolicState,
        move: Move,
        target_fed: Federation,
    ) -> Federation:
        """States of ``source`` whose ``move``-successor lies in ``target_fed``.

        One ``zone_pred`` kernel call per target zone (assignment
        pre-image, guard, source zone) and one federation at the end.
        """
        if target_fed.is_empty() or source.zone.is_empty():
            return Federation.empty(self.dim)
        _, plan = self.step_plan(source.locs, source.vars, move)
        kernel = _backends.active().zone_pred
        src = source.zone.m
        zones = []
        for zone in target_fed.zones:
            m = kernel(zone.m, plan, src)
            if m is src:
                zones.append(source.zone)
            elif m is not None:
                zones.append(DBM(m))
        return Federation(self.dim, zones)

    # ------------------------------------------------------------------
    # Concrete semantics
    # ------------------------------------------------------------------

    def initial_concrete(self) -> ConcreteState:
        locs = self.network.initial_locations()
        vars = self.decls.initial_state()
        return ConcreteState(locs, vars, zero_valuation(self.dim))

    def max_delay(
        self, state: ConcreteState
    ) -> Tuple[Optional[Fraction], bool]:
        """Largest delay allowed by invariants: (bound, strict); None = inf."""
        hi, hi_strict = self._delay_limit(state)
        return (None if hi is None else Fraction(hi, state.scaled[1])), hi_strict

    def _delay_limit(self, state: ConcreteState) -> Tuple[Optional[int], bool]:
        """:meth:`max_delay` as a numerator over ``state.scaled``'s denominator."""
        if not self.can_delay(state.locs):
            return 0, False
        nums, den = state.scaled
        hi: Optional[int] = None
        hi_strict = False
        invariant = self.invariant_zone(state.locs, state.vars)
        for i, j, b, strict in invariant.finite_bounds:
            if j or not i:
                continue
            slack = b * den - nums[i]
            if hi is None or slack < hi or (slack == hi and strict):
                hi, hi_strict = slack, strict
        return hi, hi_strict

    def enabled_interval(
        self, state: ConcreteState, move: Move
    ) -> Optional[DelayInterval]:
        """Delays after which ``move`` is enabled (guards + invariants).

        Integer guards were already checked by :meth:`moves_from`.  Returns
        None when no delay enables the move.
        """
        window = self._enabled_window(state, move)
        if window is None:
            return None
        return DelayInterval.from_window(window, state.scaled[1])

    def _enabled_window(self, state: ConcreteState, move: Move) -> Optional[Window]:
        """:meth:`enabled_interval` over ``state.scaled``'s denominator."""
        nums, den = state.scaled
        hi, hi_strict = self._delay_limit(state)
        guards = decoded(self.guard_constraints(move, state.vars))
        return fold_delay_window(guards, nums, den, hi, hi_strict)

    def move_options(
        self,
        state: ConcreteState,
        *,
        mode: str = CLOSED,
        directions: Optional[Tuple[str, ...]] = None,
    ) -> List[Tuple[Move, DelayInterval]]:
        """Moves enabled from ``state`` after *some* legal delay.

        Returns ``(move, interval)`` pairs where ``interval`` is the set of
        delays enabling the move (guards and the source invariant).  This
        is the shared enumeration primitive of the tioco/rtioco monitors,
        the simulated implementations, and the random-run machinery of
        :mod:`repro.gen`.  ``mode`` selects the enumeration semantics
        (closed, open or partial; see :meth:`moves_from`).
        """
        moves = self.moves_from(state.locs, state.vars, mode)
        options: List[Tuple[Move, DelayInterval]] = []
        for move in moves:
            if directions is not None and move.direction not in directions:
                continue
            # Variable feasibility: a move whose update leaves a bounded
            # variable's range (or violates the target's integer
            # invariant) is not a transition — :meth:`fire` refuses it,
            # so it must not be offered as enabled either.  Delays don't
            # change variables, so this is delay-independent.
            new_vars = self.apply_move_vars(state.vars, move)
            if new_vars is None:
                continue
            if not self.invariant_int_ok(self.target_locs(state.locs, move), new_vars):
                continue
            interval = self.enabled_interval(state, move)
            if interval is not None:
                options.append((move, interval))
        return options

    def enabled_now(
        self,
        state: ConcreteState,
        *,
        mode: str = CLOSED,
        directions: Optional[Tuple[str, ...]] = None,
    ) -> List[Tuple[Move, DelayInterval]]:
        """Moves enabled at the current instant (zero delay)."""
        zero = Fraction(0)
        return [
            (move, interval)
            for move, interval in self.move_options(
                state, mode=mode, directions=directions
            )
            if interval.contains(zero)
        ]

    def fire(self, state: ConcreteState, move: Move) -> Optional[ConcreteState]:
        """Fire a move from a concrete state (delay 0); None if disabled."""
        window = self._enabled_window(state, move)
        # A window's lo is never negative: delay 0 is in it iff lo is a
        # non-strict 0.
        if window is None or window[0] or window[1]:
            return None
        new_vars = self.apply_move_vars(state.vars, move)
        if new_vars is None:
            return None
        new_locs = self.target_locs(state.locs, move)
        if not self.invariant_int_ok(new_locs, new_vars):
            return None
        clocks = list(state.clocks)
        for clock, value in self.resets_of(move):
            clocks[clock] = Fraction(value)
        new_state = ConcreteState(new_locs, new_vars, tuple(clocks))
        inv = self.invariant_zone(new_locs, new_vars)
        if not new_state.in_zone(inv):
            return None
        return new_state

    def delay_ok(self, state: ConcreteState, d: Fraction) -> bool:
        hi, hi_strict = self.max_delay(state)
        if d == 0:
            return True
        if hi is None:
            return True
        return d < hi or (d == hi and not hi_strict)
